import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    LM10_POLYGON_COLUMNS,
    WPS_12_13_17_TRIANGLE,
    LaurentPoly,
    certified_nullity_by_objects,
    falling,
    flagship_curve,
    least_width_images_by_search,
    order_at_e_oracle,
    rational_kernel_basis,
    shoelace,
    vanishing_matrix,
    wps_polygon,
)

from coxkit import blowup, linalg
from coxkit.blowup import (
    FORCED_VERTEX_COLUMN_CAP,
    BadRange,
    Certificate,
    FunctionalOrderTooHigh,
    InterpolationProblem,
    LM10_PROJECTION_MATRIX,
    LM10_V1,
    LM10_V2,
    LM10_V3,
    NotSurjective,
    PreconditionFailed,
    VanishingOperator,
    ZeroPolynomial,
    _nef_not_semiample_failure,
    blowup_certificate,
    derivative_functionals,
    falling_factorial,
    find_curve,
    forced_vertex_coefficient,
    h0,
    least_width_images,
    lm_projection,
    lm_rays,
    mukai_predicate,
    order_at_e,
    vanishing_entry,
    vanishing_matrix_mod,
)
from coxkit.errors import PreconditionError
from coxkit.linalg import PANEL_WIDTH, IntMatrix, certified_nullity
from coxkit.polyhedra import lattice_point_count, lattice_points, polytope_from_points

TRIANGLE = polytope_from_points(WPS_12_13_17_TRIANGLE)
DELTA_PRIME = polytope_from_points(LM10_POLYGON_COLUMNS)


# -------------------------------------------------------- vanishing matrix


def test_falling_factorial():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(2, 3) == 0
    assert falling_factorial(-1, 3) == -6
    for a in range(-6, 7):
        for i in range(5):
            assert falling_factorial(a, i) == falling(a, i)


def test_vanishing_matrix_unit_triangle_order1():
    tri = polytope_from_points([(0, 0), (1, 0), (0, 1)])
    m = vanishing_matrix(InterpolationProblem(tri, 1, 1))
    assert m.rows == 1 and m.cols == 3
    assert all(m[0, j] == 1 for j in range(3))


def test_vanishing_entries_flagship():
    # the left-vertex functional: nonzero exactly at (-1, 34)
    val = vanishing_entry((49, 1), (-1, 34))
    assert val == falling(-1, 49) * 34
    assert val != 0
    assert vanishing_entry((49, 1), (49, 0)) == 0
    assert vanishing_entry((49, 1), (50, 0)) == 0
    for a in range(0, 49):
        assert vanishing_entry((49, 1), (a, 7)) == 0


def test_vanishing_matrix_row_structure():
    tri = polytope_from_points([(0, 0), (3, 0), (0, 3)])
    prob = InterpolationProblem(tri, 1, 3)
    m = vanishing_matrix(prob)
    funcs = prob.functionals()
    pts = prob.points()
    # row for (0,0) is all ones
    r00 = funcs.index((0, 0))
    assert all(m[r00, j] == 1 for j in range(m.cols))
    # rows (i, 0) vanish on columns with 0 <= a <= i-1
    for i in (1, 2):
        ri = funcs.index((i, 0))
        for jcol, (a, b) in enumerate(pts):
            if 0 <= a <= i - 1:
                assert m[ri, jcol] == 0


def test_vanishing_matrix_mod_is_exact_matrix_reduced():
    """The residue matrix that h0 ranks, built PANEL_WIDTH rows at a time,
    equals the exact vanishing matrix reduced mod p, on the seven-vertex
    LM10 polygon: one short block (28 rows, order 7), a full block and a
    short one (105 rows), exactly two blocks, no functionals and no
    points."""
    for dilation in (1, 2):
        prob = InterpolationProblem(DELTA_PRIME, dilation, 7)
        exact = vanishing_matrix(prob)
        for p in (1048583, 2097143):
            got = vanishing_matrix_mod(prob.points(), prob.functionals(), p)
            assert got.shape == (exact.rows, exact.cols)
            assert got.tolist() == [
                [int(x) % p for x in exact.row(i)] for i in range(exact.rows)
            ]
    points = lattice_points(DELTA_PRIME, 2)
    cases = [
        (points, derivative_functionals(14)),  # 105 = PANEL_WIDTH + 9 rows
        (points, derivative_functionals(20)[: 2 * PANEL_WIDTH]),
        (points[:5], derivative_functionals(20)[: PANEL_WIDTH - 1]),
        (points, []),
        ([], derivative_functionals(5)),
        ([], []),
    ]
    for pts, funcs in cases:
        for p in (1048583, 2097143):
            got = vanishing_matrix_mod(pts, funcs, p)
            assert got.dtype == np.int64 and got.shape == (len(funcs), len(pts))
            assert got.tolist() == [[vanishing_entry(f, x) % p for x in pts] for f in funcs]


def test_gf_p_proof_holds_one_full_size_array():
    """The order-52 flagship proof (1378 x 1348) holds one full-size
    array: under tracemalloc, which counts numpy buffers, the residues
    peak at 1.35 times the matrix's int64 bytes and the whole proof at
    1.5 times (a second factor table, or a float64 pivot block beside the
    factors, would add one more)."""
    prob = InterpolationProblem(TRIANGLE, 1, 52)
    points, functionals = prob.points(), prob.functionals()
    size = len(points) * len(functionals) * 8
    tracemalloc.start()
    try:
        vanishing_matrix_mod(points, functionals, 1048583)
        residues = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        proof = h0(prob, proof=True)
        whole = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert proof.nullity == 1
    assert residues <= 1.35 * size, residues / size
    assert whole <= 1.5 * size, whole / size


# ------------------------------------------------------------------- h0


def test_h0_no_conditions_is_point_count():
    """h0 with no conditions lists the points; `lattice_point_count`, which
    bounds the matrix first, counts them by Pick's theorem or, for a
    rational polygon, per column, on the triangle and seeded polygons
    dilated 1-3."""
    assert h0(InterpolationProblem(TRIANGLE, 1, 0)) == 1348 == lattice_point_count(TRIANGLE)
    rng = random.Random(16)
    for _ in range(60):
        pts = [(Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))), rng.randint(-4, 4))
               for _ in range(rng.randint(3, 5))]
        hull, m = polytope_from_points(pts), rng.randint(1, 3)
        if hull.dim() == 2:
            assert lattice_point_count(hull, m) == len(lattice_points(hull, m)), (pts, m)


def test_h0_flagship_order52():
    prob = InterpolationProblem(TRIANGLE, 1, 52)
    dim = h0(prob, "modular")
    assert dim == 1
    # the explicit curve is in the kernel: every functional annihilates it,
    # which also gives the exact lower bound h0 >= 1
    f = flagship_curve()
    pts = prob.points()
    coeffs = {p: f.coeff(*p) for p in f.support()}
    assert set(coeffs) <= set(pts)
    for func in prob.functionals():
        val = sum(c * vanishing_entry(func, p) for p, c in coeffs.items())
        assert val == 0


def test_h0_flagship_proof_matches_object_lifting():
    """The order-52 proof, its residual in int64 limbs, equals the lifting
    with Python integers field for field: 6 steps, one vector."""
    prob = InterpolationProblem(TRIANGLE, 1, 52)
    op = VanishingOperator(prob.points(), prob.functionals())
    proof = certified_nullity(op)
    assert proof == certified_nullity_by_objects(op)
    assert proof.steps == 6 and len(proof.kernel) == proof.nullity == 1


def test_h0_delta_prime_multiplicity7():
    prob = InterpolationProblem(DELTA_PRIME, 1, 7)
    assert len(prob.functionals()) == 28
    assert h0(prob, "exact") == 1
    assert h0(prob, "modular") == 1


def test_h0_small_cases_modular_equals_exact():
    rng = random.Random(21)
    for _ in range(10):
        pts = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(5)]
        hull = polytope_from_points(pts)
        if hull.dim() != 2:
            continue
        k = rng.randint(0, 4)
        prob = InterpolationProblem(hull, rng.randint(1, 2), k)
        assert h0(prob, "exact") == h0(prob, "modular")


def test_h0_monotone_and_bounded():
    hull = polytope_from_points([(0, 0), (5, 0), (0, 5), (5, 5)])
    npts = len(lattice_points(hull, 1))
    prev = None
    for k in range(0, 7):
        dim = h0(InterpolationProblem(hull, 1, k), "exact")
        assert dim >= npts - k * (k + 1) // 2
        if prev is not None:
            assert dim <= prev
        prev = dim
    assert h0(InterpolationProblem(hull, 1, 0), "exact") == npts


# -------------------------------------------------------------- order_at_e


def test_order_flagship_curve():
    f = flagship_curve()
    assert order_at_e(f) == 52
    tri = TRIANGLE
    assert all(tri.contains(p) for p in f.support())
    assert f.coeff(11, -26) != 0
    assert f.coeff(11, 26) != 0
    # those two support points lie on edges of the triangle
    ineqs = tri.inequalities()

    def on_boundary(p):
        return any(
            sum(u[i] * p[i] for i in range(2)) + c == 0 for u, c in ineqs
        )

    assert on_boundary((11, -26)) and on_boundary((11, 26))
    # every edge of the triangle carries a support point with nonzero coeff
    for u, c in ineqs:
        assert any(
            sum(u[i] * p[i] for i in range(2)) + c == 0 for p in f.support()
        )


def test_order_simple_cases():
    one = LaurentPoly.monomial(0, 0)
    y = LaurentPoly.monomial(0, 1)
    x = LaurentPoly.monomial(1, 0)
    assert order_at_e(one - y) == 1
    assert order_at_e((one - x) * (one - y)) == 2
    assert order_at_e(one) == 0
    assert order_at_e(LaurentPoly.monomial(-3, 7)) == 0
    with pytest.raises(ZeroPolynomial):
        order_at_e(LaurentPoly.from_terms([]))


def test_order_multiplicative_random():
    rng = random.Random(33)
    one = LaurentPoly.monomial(0, 0)
    x = LaurentPoly.monomial(1, 0)
    y = LaurentPoly.monomial(0, 1)

    def random_poly():
        # products of unit-order factors times a monomial, plus a generic
        # low-order polynomial
        f = LaurentPoly.monomial(rng.randint(-2, 2), rng.randint(-2, 2))
        for _ in range(rng.randint(0, 3)):
            pick = rng.choice([one - x, one - y, one - x * y])
            f = f * pick
        return f

    for _ in range(50):
        f, g = random_poly(), random_poly()
        assert order_at_e(f * g) == order_at_e(f) + order_at_e(g)


def test_order_integer_tables_match_fraction_oracle():
    """Seeded Laurent polynomials with Fraction coefficients and negative
    exponents at orders 0 to 60: a random factor g times (1 - x)^s, s <= 1,
    and (1 - x y^-1)^(w - s)."""
    rng = random.Random(52)
    one = LaurentPoly.monomial(0, 0)
    x = LaurentPoly.monomial(1, 0)
    x_over_y = LaurentPoly.monomial(1, -1)
    for w in [0, 1, 2, 5, 9, 17, 30, 60] + [rng.randint(0, 60) for _ in range(2)]:
        g = LaurentPoly.from_terms(
            ((rng.randint(-5, 5), rng.randint(-5, 5)), Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
            for _ in range(rng.randint(1, 2))
        )
        if g.is_zero():
            g = one
        s = rng.randint(0, min(w, 1))
        f = g * (one - x) ** s * (one - x_over_y) ** (w - s)
        assert order_at_e(f) == order_at_e_oracle(f) >= w
    assert order_at_e(flagship_curve()) == order_at_e_oracle(flagship_curve()) == 52
    with pytest.raises(ZeroPolynomial):
        order_at_e(LaurentPoly.from_terms([((1, 2), 1), ((1, 2), -1)]))


# ------------------------------------------------------------ forced vertex


def test_forced_vertex_flagship_m1():
    cert = forced_vertex_coefficient(
        WPS_12_13_17_TRIANGLE, 1, 51, (-1, 34), (49, 1)
    )
    assert cert is not None
    assert cert.kind == "forced_vertex"
    assert cert.verify()
    assert cert.payload["vertex_value"] == falling(-1, 49) * 34


def test_forced_vertex_multiples():
    k = 51
    right = (50, 0)
    left = (-1, 34)
    for m in range(2, 6):
        translation = (k * m - 1 - m * right[0], 0)
        assert translation == (m - 1, 0)
        vertex = (m * left[0] + translation[0], m * left[1])
        assert vertex == (-1, 34 * m)
        cert = forced_vertex_coefficient(
            WPS_12_13_17_TRIANGLE, m, k * m, vertex, (k * m - 2, 1), translation
        )
        assert cert is not None and cert.verify()
        # translated right vertex is (51 m - 1, 0)
        assert m * right[0] + translation[0] == 51 * m - 1


def test_forced_vertex_column_cap():
    """A payload whose dilated polygon has more lattice columns than the
    cap fails at once, and forced_vertex_coefficient refuses it; the m = 5
    flagship certificate is far below the cap."""
    cert = forced_vertex_coefficient(WPS_12_13_17_TRIANGLE, 1, 51, (-1, 34), (49, 1))
    start = time.perf_counter()
    huge = {**cert.payload, "dilation": 10**6}
    assert Certificate(cert.kind, huge, ()).verify() is False
    assert time.perf_counter() - start < 1
    over = FORCED_VERTEX_COLUMN_CAP // 51 + 1  # the triangle is 51 columns wide
    with pytest.raises(PreconditionError, match="FORCED_VERTEX_COLUMN_CAP"):
        forced_vertex_coefficient(WPS_12_13_17_TRIANGLE, over, 51 * over, (-1, 34), (49, 1))
    m5 = forced_vertex_coefficient(WPS_12_13_17_TRIANGLE, 5, 255, (-1, 170), (253, 1), (4, 0))
    assert m5.verify() and 51 * 5 + 1 < FORCED_VERTEX_COLUMN_CAP


def test_forced_vertex_refusal():
    tri = [(0, 0), (1, 0), (0, 1)]
    assert forced_vertex_coefficient(tri, 1, 1, (0, 0), (0, 0)) is None


def test_forced_vertex_matches_bignum_oracle():
    """Acceptance equals the definition evaluated with bignum falling
    factorials: the named point is a lattice point of the translated
    polygon, and the entry vanishes at every other one and not there.  On
    a fixed triangle and on seeded lattice polygons with 3-5 vertices in
    [-3, 3]^2, with named points on and off the polygon and functionals
    with i = 0 or j = 0.  The transcript of an accepted certificate counts
    all listed points but the named one."""
    rng = random.Random(52)
    outcomes = set()
    for trial in range(600):
        if trial < 150:
            polygon = [(0, 0), (3, 0), (0, 2)]
        else:
            polygon = [
                (rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(3, 5))
            ]
        m = rng.randint(1, 2)
        tx, ty = rng.randint(-3, 2), rng.randint(-3, 2)
        base = lattice_points(polytope_from_points(polygon), m)
        pts = [(a + tx, b + ty) for a, b in base]
        if rng.random() < 0.75:
            vertex = rng.choice(pts)
        else:
            vertex = (rng.randint(-9, 9), rng.randint(-9, 9))
        i, j = rng.randint(0, 7), rng.randint(0, 5)
        i, j = rng.choice([(i, j), (0, j), (i, 0)])

        def entry(p):
            return falling(p[0], i) * falling(p[1], j)

        others_vanish = all(entry(p) == 0 for p in pts if p != vertex)
        want = vertex in pts and entry(vertex) != 0 and others_vanish
        cert = forced_vertex_coefficient(polygon, m, i + j + 1, vertex, (i, j), (tx, ty))
        assert (cert is not None) == want, (polygon, m, vertex, (i, j), (tx, ty))
        if cert is not None:
            assert cert.verify() and cert.payload["vertex_value"] == entry(vertex)
            assert f"annihilates all {len(pts) - 1} non-vertex" in cert.transcript[0]
        outcomes.add((want, vertex in pts, entry(vertex) != 0, others_vanish, min(i, j) == 0))
    assert {
        (True, True, True, True, False),  # accepted
        (True, True, True, True, True),  # accepted with i = 0 or j = 0
        (False, False, True, True, False),  # nonzero off the polygon, zero on it
        (False, True, False, False, False),  # zero at the point
        (False, True, True, False, False),  # nonzero at another point too
    } <= outcomes


def test_forced_vertex_order_too_high():
    with pytest.raises(FunctionalOrderTooHigh):
        forced_vertex_coefficient([(0, 0), (1, 0), (0, 1)], 1, 1, (0, 0), (1, 1))


def test_forced_vertex_kernel_row_identity():
    # the certificate's functional row of the order-51 vanishing matrix is
    # exactly vertex_value times the vertex indicator, so appending that
    # indicator row cannot change the kernel
    prob = InterpolationProblem(TRIANGLE, 1, 51)
    pts = prob.points()
    cert = forced_vertex_coefficient(
        WPS_12_13_17_TRIANGLE, 1, 51, (-1, 34), (49, 1)
    )
    vertex = cert.payload["vertex"]
    value = cert.payload["vertex_value"]
    row = [vanishing_entry((49, 1), p) for p in pts]
    indicator = [value if p == vertex else 0 for p in pts]
    assert row == indicator
    assert (49, 1) in prob.functionals()


# ------------------------------------------------------- least-width images


def test_least_width_images_match_search():
    """`least_width_images` equals the search without reduction on the raw
    P(12,13,17) triangle, the unit square, a diamond whose second minimum
    is reached in 11 directions, and 150 seeded lattice polygons with 3-6
    vertices in [-4, 4]^2, many of them with ties (up to 32 images)."""
    rng = random.Random(16)
    polygons = [
        [(0, 0), (221, -39), (0, 12)],
        [(0, 0), (1, 0), (0, 1), (1, 1)],
        [(0, 0), (0, 10), (1, 5), (-1, 5)],
    ]
    while len(polygons) < 153:
        pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(3, 6))]
        if polytope_from_points(pts).dim() == 2:
            polygons.append(pts)
    counts = set()
    for pts in polygons:
        hull = polytope_from_points(pts)
        vertices = [(int(x), int(y)) for x, y in hull.vertices]
        k = rng.randint(-3, 60)
        got = least_width_images(hull, k)
        assert got == least_width_images_by_search(vertices, k), vertices
        counts.add(len(got))
    assert {1, 4, 8, 16, 32} <= counts
    raw = least_width_images(wps_polygon(12, 13, 17), 51)
    assert raw == least_width_images(TRIANGLE, 51)
    assert raw[1] == tuple(sorted(WPS_12_13_17_TRIANGLE)) and len(raw) == 8


def test_find_curve_refuses_below_the_curve_order(monkeypatch):
    """At k = 26 the curve order w = 102 has 5253 functionals for the 1348
    lattice points.  h0 is proved at order 52, the least whose 1378
    functionals reach the point count; its one kernel vector, the order-52
    curve, takes nonzero values at orders 52..101 (3875 functionals), so h0
    at 102 is 0 and the 5253 x 1348 matrix is never eliminated.  At k = 51
    the order is 52 itself and one matrix is eliminated, as before."""
    shapes = []
    real = linalg.int_rank_mod

    def spy(op, p):
        shapes.append(op.shape)
        return real(op, p)

    monkeypatch.setattr(linalg, "int_rank_mod", spy)
    with pytest.raises(PreconditionFailed, match="h0 at order w = 102 is 0, not 1"):
        find_curve(TRIANGLE, 26)
    assert shapes == [(1378, 1348), (3875, 1)]
    shapes.clear()
    assert find_curve(TRIANGLE, 51)[0] == 52
    assert shapes == [(1378, 1348)]
    # 6 points: h0 = 2 at order 3, whose two kernel vectors leave one
    # section at order 4, proved then; with the values of the kernel over
    # the cap, order 4 is proved at once, with the same curve
    small = [(-3, 1), (1, 1), (-2, 2)]
    shapes.clear()
    w, f, _ = find_curve(small, 1)
    assert (w, shapes) == (4, [(6, 6), (4, 2), (10, 6)])
    monkeypatch.setattr(blowup, "INTERPOLATION_ENTRY_CAP", 100)
    shapes.clear()
    assert find_curve(small, 1)[1] == f and shapes == [(6, 6), (10, 6)]


def test_curve_order_identities_stated_once():
    """`find_curve` refuses a k with the message the certificate's judge
    gives for it: both take D.E > 0, D.C = 0 and C^2 < 0 from one helper."""
    cert = blowup_certificate(
        (12, 13, 17), WPS_12_13_17_TRIANGLE, (52, flagship_curve()), 51, m_max=1
    )
    for k, identity in ((0, "D.E"), (-51, "D.E"), (50, "D.C"), (52, "C^2"), (2652, "C^2")):
        with pytest.raises(PreconditionFailed) as err:
            find_curve(TRIANGLE, k)
        assert identity in str(err.value)
        payload = {**cert.payload, "k": k, "d_dot_e": k}
        assert _nef_not_semiample_failure(payload) == str(err.value)


# -------------------------------------------------------- blowup certificate


def test_blowup_certificate_flagship():
    cert = blowup_certificate(
        (12, 13, 17), WPS_12_13_17_TRIANGLE, (52, flagship_curve()), 51
    )
    assert cert.kind == "nef_not_semiample"
    p = cert.payload
    assert p["curve_self_intersection"] == Fraction(-1, 52)
    assert p["d_dot_c"] == 0
    assert p["d_dot_e"] == 51
    assert p["h_self_intersection"] == 2652 == 52 * 51
    assert len(p["forced_vertex_certificates"]) == 5
    assert cert.verify()


def test_blowup_certificate_wrong_k(monkeypatch):
    """A failed identity that no image changes is raised before any forced
    vertex is built."""
    calls = []
    real = blowup.forced_vertex_coefficient
    monkeypatch.setattr(blowup, "forced_vertex_coefficient",
                        lambda *args: calls.append(args) or real(*args))
    with pytest.raises(PreconditionFailed) as err:
        blowup_certificate(
            (12, 13, 17), WPS_12_13_17_TRIANGLE, (52, flagship_curve()), 50
        )
    assert str(err.value) == "D.C = 0 needs w = H^2/k, but k = 50 does not divide H^2 = 2652"
    assert calls == []
    # a polynomial that does not vanish at (1,1) has order 0: no curve class
    with pytest.raises(PreconditionFailed) as err:
        blowup_certificate(None, WPS_12_13_17_TRIANGLE, (0, LaurentPoly.monomial(11, -26)), 51)
    assert "order" in str(err.value)


def test_blowup_certificate_delta_prime_control():
    # the multiplicity-7 system on the 7-gon has a one-dimensional kernel;
    # its curve has order exactly 7, but twice the area is 49 so the
    # candidate class has self-intersection 49/49 - 1 = 0: not a negative
    # curve, and no k makes every identity hold
    prob = InterpolationProblem(DELTA_PRIME, 1, 7)
    basis = rational_kernel_basis(vanishing_matrix(prob))
    assert len(basis) == 1
    pts = prob.points()
    f = LaurentPoly.from_terms(
        [(p, c) for p, c in zip(pts, basis[0]) if c != 0]
    )
    assert order_at_e(f) == 7
    assert 2 * DELTA_PRIME.area() == 49
    assert Fraction(49, 7) == 7  # the D.C identity root exists...
    for k, failed in ((6, "D.C"), (7, "C^2"), (8, "D.C")):  # ...but no k passes
        with pytest.raises(PreconditionFailed) as err:
            blowup_certificate(None, DELTA_PRIME, (7, f), k)
        assert failed in str(err.value), (k, err.value)


def test_blowup_certificate_area_oracle():
    assert 2 * TRIANGLE.area() == 2 * shoelace(TRIANGLE.vertices) == 2652
    from coxkit.divisors import intersection_number_nef_surface
    from coxkit.fans import normal_fan_with_ample

    fan, ample = normal_fan_with_ample(TRIANGLE)
    assert intersection_number_nef_surface(fan, ample, ample) == 2 * TRIANGLE.area()


def test_certificates_reverify_from_payload():
    cert = blowup_certificate(
        (12, 13, 17), WPS_12_13_17_TRIANGLE, (52, flagship_curve()), 51, m_max=2
    )
    assert cert.verify()
    assert cert.payload["negative_curve"].verify()
    for sub in cert.payload["forced_vertex_certificates"]:
        assert sub.verify()
    # tampering breaks verification
    bad = Certificate(
        cert.kind, {**cert.payload, "d_dot_e": 50}, cert.transcript
    )
    assert not bad.verify()
    first, sub = cert.payload["forced_vertex_certificates"]
    (i, j), (tx, ty) = sub.payload["functional"], sub.payload["translation"]
    for change in (
        {"vertex_value": sub.payload["vertex_value"] + 1},
        {"translation": (tx, ty + 1)},
        {"order": i + j},  # the functional's order i + j is now too high
    ):
        bad_sub = Certificate(sub.kind, {**sub.payload, **change}, sub.transcript)
        assert not bad_sub.verify(), change
        forced = (first, bad_sub)
        bad = Certificate(
            cert.kind, {**cert.payload, "forced_vertex_certificates": forced}, cert.transcript
        )
        assert not bad.verify(), change
    # every sub-certificate verifies, but not for the multiple or the curve
    # the payload names
    curve = cert.payload["negative_curve"]
    other = {**curve.payload, "curve_order": 53}
    other["curve_self_intersection"] = Fraction(2652, 53**2) - 1
    assert Certificate("negative_curve", other, ()).verify()
    for payload in (
        {**cert.payload, "forced_vertex_certificates": (sub, first)},
        {**cert.payload, "forced_vertex_certificates": (first, curve)},
        {**cert.payload, "negative_curve": Certificate("negative_curve", other, ())},
    ):
        assert not Certificate(cert.kind, payload, cert.transcript).verify()
    # a malformed payload answers False and never raises: every field a
    # judge reads may be missing or of the wrong type
    for target, change in (
        (cert, {"k": None}),
        (cert, {"k": 51.0, "d_dot_e": 51.0}),
        (cert, {"d_dot_c": "0"}),
        (cert, {"forced_vertex_certificates": None}),
        (cert, {"forced_vertex_certificates": (first, sub.payload)}),
        (cert, {"negative_curve": first}),
        (curve, {"curve_order": "52"}),
        (curve, {"h_self_intersection": 2652.0}),
        (sub, {"vertex": "ab"}),
        (sub, {"vertex": "abc"}),
        (sub, {"vertex": None}),
        (sub, {"functional": (-1, j)}),
        (sub, {"dilation": 0}),
        (sub, {"polygon": ((0, 0, 0),)}),
    ):
        payload = {**target.payload, **change}
        assert Certificate(target.kind, payload, ()).verify() is False, change
        if target is sub:
            forced = (first, Certificate(sub.kind, payload, ()))
            payload = {**cert.payload, "forced_vertex_certificates": forced}
        elif target is curve:
            payload = {**cert.payload, "negative_curve": Certificate(curve.kind, payload, ())}
        assert Certificate(cert.kind, payload, ()).verify() is False, change
    read = (
        (cert, ("polygon", "curve_order", "k", "h_self_intersection", "d_dot_c", "d_dot_e",
                "m_max", "negative_curve", "forced_vertex_certificates")),
        (curve, ("h_self_intersection", "curve_order", "curve_self_intersection")),
        (sub, ("polygon", "dilation", "order", "functional", "translation", "vertex",
               "vertex_value")),
    )
    for target, keys in read:
        for key in keys:
            payload = {k: v for k, v in target.payload.items() if k != key}
            assert Certificate(target.kind, payload, ()).verify() is False, key
        assert Certificate(target.kind, None, ()).verify() is False


# ------------------------------------------------------------------- mukai


def test_mukai_table():
    assert mukai_predicate(3, 8) is True
    assert mukai_predicate(3, 9) is False
    assert mukai_predicate(4, 9) is False
    assert mukai_predicate(2, 100) is True
    assert Fraction(1, 4) + Fraction(1, 5) == Fraction(9, 20) < Fraction(1, 2)


def test_mukai_all_r2():
    for n in range(3, 101):
        assert mukai_predicate(2, n) is True


def test_mukai_bad_range():
    with pytest.raises(BadRange):
        mukai_predicate(2, 2)
    with pytest.raises(BadRange):
        mukai_predicate(1, 5)


# ------------------------------------------------------------- losev-manin


def test_lm_rays_counts():
    assert len(lm_rays(10)) == 254
    assert len(lm_rays(5)) == 6
    for v in lm_rays(6):
        assert all(x in (0, 1) for x in v) or all(x in (0, -1) for x in v)


def test_lm_projection_flagship():
    rep = lm_projection(
        10,
        IntMatrix(LM10_PROJECTION_MATRIX),
        LM10_V1,
        LM10_V2,
        LM10_V3,
        (12, 13, 17),
    )
    assert rep.images == ((-1, -6), (3, 5), (-3, -1))
    assert rep.generates
    assert rep.relations == (((12, 17, 13), (1, 1, 1)),)
    assert rep.quotient_weights == (12, 13, 17)
    total = sum(mult for _, mult in rep.ray_image_multiset) + rep.kernel_ray_count
    assert total == 254


def test_lm_projection_images_cover_polygon_normals():
    # the projection produces seven distinguished image directions; they
    # equal the normal fan rays of the 7-gon only after a quarter turn,
    # because the two data sets are recorded in frames rotated against
    # each other
    from coxkit.fans import normal_fan_with_ample

    rep = lm_projection(
        10,
        IntMatrix(LM10_PROJECTION_MATRIX),
        LM10_V1,
        LM10_V2,
        LM10_V3,
        (12, 13, 17),
    )
    fan, _ = normal_fan_with_ample(DELTA_PRIME)
    image_set = {img for img, _ in rep.ray_image_multiset}
    circled = {(-1, 2), (-1, 3), (1, 0), (3, 1), (3, 2), (-3, -5), (-2, -3)}
    assert circled <= image_set
    assert {(-y, x) for x, y in circled} == set(fan.rays)
    # the raw normal rays themselves are not all images: the frames differ
    assert not set(fan.rays) <= image_set


def test_lm_projection_identity():
    rep = lm_projection(
        5,
        IntMatrix.identity(2),
        (1, 0),
        (0, 1),
        (1, 1),
        (1, 1, 2),
    )
    rays = set(lm_rays(5))
    image_set = {img for img, _ in rep.ray_image_multiset}
    assert image_set == {r for r in rays}
    assert rep.kernel_ray_count == 0


def test_lm_projection_not_surjective():
    bad = IntMatrix([[2, 0, 0, 0, 0, 0, 0], [0, 2, 0, 0, 0, 0, 0]])
    with pytest.raises(NotSurjective):
        lm_projection(10, bad, LM10_V1, LM10_V2, LM10_V3, (12, 13, 17))
