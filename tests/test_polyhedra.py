import collections
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from helpers import (
    dd_convert_two_pass,
    det,
    dim_by_smith,
    extreme_rays_by_quotient_conversion,
    hilbert_basis_all_pairs,
    hull_2d_by_monotone_chain,
    inequalities_by_vertex_conversion,
    lattice_points_by_box,
    lattice_points_by_fractions,
    parallelepiped_points_by_solve,
    vertices_by_exclusion,
)

from coxkit import linalg, polyhedra
from coxkit.linalg import (
    IntMatrix,
    dot,
    int_inverse_unimodular,
    integer_kernel_saturated,
    primitive,
    smith_normal_form,
)
from coxkit.polyhedra import (
    Cone,
    DimensionMismatch,
    DimensionTooLarge,
    EmptyInput,
    NotPointed,
    Polytope,
    dd_convert,
    dual_cone,
    hilbert_basis,
    intersect,
    lattice_columns,
    lattice_points,
    membership,
    polytope_from_inequalities,
    polytope_from_points,
    relative_interior_point,
)

DELTA_VERTICES = [(11, -26), (50, 0), (-1, 34)]
DELTA_PRIME_COLUMNS = [(-1, 6), (-4, 5), (-3, 1), (-2, 8), (-6, 0), (-7, 0), (0, 3)]


# ---------------------------------------------------------------- oracles


def normals_2d_oracle(g1, g2):
    """Inward facet normals of a pointed 2-d cone spanned by two rays."""
    def inward(normal, other):
        s = dot(normal, other)
        assert s != 0
        return normal if s > 0 else tuple(-x for x in normal)

    n1 = inward(primitive((-g1[1], g1[0])), g2)
    n2 = inward(primitive((-g2[1], g2[0])), g1)
    return sorted({n1, n2})


def shoelace_oracle(ccw_vertices):
    total = Fraction(0)
    n = len(ccw_vertices)
    for i in range(n):
        x1, y1 = ccw_vertices[i]
        x2, y2 = ccw_vertices[(i + 1) % n]
        total += Fraction(x1) * Fraction(y2) - Fraction(x2) * Fraction(y1)
    return abs(total) / 2


def boundary_points_oracle(lattice_ccw_vertices):
    n = len(lattice_ccw_vertices)
    total = 0
    for i in range(n):
        x1, y1 = lattice_ccw_vertices[i]
        x2, y2 = lattice_ccw_vertices[(i + 1) % n]
        total += math.gcd(abs(x2 - x1), abs(y2 - y1))
    return total


def brute_lattice_points_2d(vertices, dilation=1):
    """Box scan + exact half-plane membership, independent of the library."""
    verts = [(dilation * x, dilation * y) for x, y in vertices]
    n = len(verts)
    xs = [v[0] for v in verts]
    ys = [v[1] for v in verts]
    out = []
    for x in range(math.floor(min(xs)), math.ceil(max(xs)) + 1):
        for y in range(math.floor(min(ys)), math.ceil(max(ys)) + 1):
            inside = True
            for i in range(n):
                x1, y1 = verts[i]
                x2, y2 = verts[(i + 1) % n]
                cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
                if cross < 0:
                    inside = False
                    break
            if inside:
                out.append((x, y))
    return sorted(out)


def decomposes(point, basis, facets):
    """Can `point` be written as a nonnegative integer sum of basis vectors?"""
    if not any(point):
        return True
    if any(dot(f, point) < 0 for f in facets):
        return False
    seen = set()
    stack = [point]
    while stack:
        cur = stack.pop()
        if not any(cur):
            return True
        if cur in seen:
            continue
        seen.add(cur)
        for b in basis:
            nxt = tuple(a - c for a, c in zip(cur, b))
            if all(dot(f, nxt) >= 0 for f in facets):
                stack.append(nxt)
    return False


def brute_force_extreme_rays(normals, dim):
    """Extreme rays of {x : <n, x> >= 0} by trying every subset of normals.

    Same contract as `polyhedra._extreme_rays_of_halfspaces`, exponential
    in the number of normals: the lineality is the saturated kernel of the
    normals, a Smith normal form maps it onto Z^s x 0, and in the pointed
    quotient Z^q each (q-1)-subset of normals with a rank-one kernel gives
    the candidates +/- its kernel vector.
    """
    normals = sorted(set(tuple(int(x) for x in n) for n in normals if any(n)))
    lin = integer_kernel_saturated(IntMatrix(normals, cols=dim))
    s = lin.rows
    q = dim - s
    if q == 0:
        return [], lin.row_list()
    trans = None
    qnormals = normals
    if s:
        trans = int_inverse_unimodular(smith_normal_form(lin.transpose()).U)
        tit = trans.transpose()
        qnormals = [tit.apply(n)[s:] for n in normals]
    qnormals = sorted(set(qnormals))
    rays_q = set()
    if q == 1:
        signs = {1 if n[0] > 0 else -1 for n in qnormals}
        if len(signs) == 1:
            rays_q.add((signs.pop(),))
    else:
        for subset in itertools.combinations(qnormals, q - 1):
            ker = integer_kernel_saturated(IntMatrix(list(subset), cols=q))
            if ker.rows != 1:
                continue
            v = ker.row(0)
            for cand in (v, tuple(-x for x in v)):
                if all(dot(n, cand) >= 0 for n in qnormals):
                    rays_q.add(cand)
    if trans is None:
        return sorted(rays_q), lin.row_list()
    return sorted(trans.apply((0,) * s + v) for v in rays_q), lin.row_list()


def oracle_dd_convert(monkeypatch, **kwargs):
    """dd_convert with the brute-force ray search in place of the DD."""
    with monkeypatch.context() as m:
        m.setattr(polyhedra, "_extreme_rays_of_halfspaces", brute_force_extreme_rays)
        return dd_convert(**kwargs)


def cone_fields(c):
    return c.generators, c.facets, c.lineality_dim


def random_vector_family(rng, dim):
    """Nonzero integer vectors of one of several shapes (see the cases)."""

    def vec(bound=3):
        return [rng.randint(-bound, bound) for _ in range(dim)]

    shape = rng.choice(["generic", "low-rank", "duplicates", "pairs", "zero-cone"])
    if shape == "generic":
        vs = [vec() for _ in range(rng.randint(1, 7))]
    elif shape == "low-rank":  # spans a proper subspace
        base = [vec() for _ in range(rng.randint(1, max(1, dim - 1)))]
        vs = [
            [sum(rng.randint(-2, 2) * b[i] for b in base) for i in range(dim)]
            for _ in range(rng.randint(1, 6))
        ]
    elif shape == "duplicates":  # repeated and positively scaled vectors
        vs = [vec() for _ in range(rng.randint(1, 4))]
        vs += [[rng.randint(1, 3) * x for x in rng.choice(vs)] for _ in range(3)]
    elif shape == "pairs":  # +/- pairs: lines among generators, equations among facets
        vs = [vec() for _ in range(rng.randint(0, 4))]
        for _ in range(rng.randint(1, 2)):
            v = vec()
            vs += [v, [-x for x in v]]
    else:  # a basis and minus its sum: as facets, the zero cone
        vs = [vec() for _ in range(dim)]
        vs.append([-sum(v[i] for v in vs) for i in range(dim)])
    vs = [tuple(v) for v in vs if any(v)]
    return vs or [(1,) + (0,) * (dim - 1)]


def random_cone(rng, dim):
    k = rng.randint(1, dim + 2)
    gens = []
    while len(gens) < k:
        v = tuple(rng.randint(-5, 5) for _ in range(dim))
        if any(v):
            gens.append(v)
    return dd_convert(generators=gens, ambient_dim=dim)


# ------------------------------------------------------------- conversion


def test_dd_quadrant_self_dual():
    c = dd_convert(generators=[(1, 0), (0, 1)], ambient_dim=2)
    assert sorted(c.facets) == [(0, 1), (1, 0)]
    assert sorted(c.generators) == [(0, 1), (1, 0)]


def test_dd_oblique_cone():
    c = dd_convert(generators=[(1, 0), (1, 2)], ambient_dim=2)
    assert sorted(c.facets) == normals_2d_oracle((1, 0), (1, 2))
    assert sorted(c.facets) == [(0, 1), (2, -1)]


def test_dd_empty_facets_whole_plane():
    c = dd_convert(facets=[], ambient_dim=2)
    assert c.lineality_dim == 2
    assert sorted(c.generators) == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_dd_empty_generators_rejected():
    with pytest.raises(EmptyInput):
        dd_convert(generators=[], ambient_dim=2)


def test_dd_matches_brute_force_oracle(monkeypatch):
    rng = random.Random(4171)
    seen = set()
    for trial in range(400):
        dim = rng.randint(1, 4)
        vs = random_vector_family(rng, dim)
        for key in ("generators", "facets"):
            got = dd_convert(**{key: vs}, ambient_dim=dim)
            want = oracle_dd_convert(monkeypatch, **{key: vs}, ambient_dim=dim)
            assert cone_fields(got) == cone_fields(want), (key, dim, vs)
            if got.lineality_dim:
                seen.add("lineality")
            if not got.generators:
                seen.add("zero cone")
            elif got.dim() < dim:
                seen.add("lower-dimensional")
    for key, vs, dim in [
        ("facets", [], 3),  # the whole space
        ("facets", [(1, 2, 0)], 3),  # a half-space
        ("facets", [(1, 0, 0), (0, 1, 0)], 3),  # a wedge times a line
        ("generators", [(1, 0, 0)], 3),
        ("generators", [(2, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], 3),
    ]:
        got = dd_convert(**{key: vs}, ambient_dim=dim)
        want = oracle_dd_convert(monkeypatch, **{key: vs}, ambient_dim=dim)
        assert cone_fields(got) == cone_fields(want), (key, vs)
    assert seen == {"lineality", "zero cone", "lower-dimensional"}


def test_one_conversion_matches_quotient_conversion():
    """With lineality, the rays of the one double description lifted
    through the Smith transform equal the rays of a second conversion of
    the pointed quotient."""
    rng = random.Random(5151)
    with_lineality = 0
    for _ in range(4000):
        dim = rng.randint(1, 5)
        normals = random_vector_family(rng, dim)
        got = polyhedra._extreme_rays_of_halfspaces(normals, dim)
        assert got == extreme_rays_by_quotient_conversion(normals, dim), (dim, normals)
        with_lineality += bool(got[1])
    assert with_lineality > 800


def test_one_pass_conversion_matches_two_pass_oracle():
    """Redundancy read off the zero sets on the output gives the cone that
    a second conversion gives, with duplicates, lineality and lower
    dimension among the inputs."""
    rng = random.Random(1818)
    seen = set()
    for _ in range(1500):
        dim = rng.randint(1, 4)
        vs = random_vector_family(rng, dim)
        vs += rng.sample(vs, min(2, len(vs)))  # exact duplicates
        for key in ("generators", "facets"):
            got = dd_convert(**{key: vs}, ambient_dim=dim)
            assert cone_fields(got) == cone_fields(dd_convert_two_pass(**{key: vs}, ambient_dim=dim))
            if got.lineality_dim:
                seen.add("lineality")
            elif got.generators and got.dim() < dim:
                seen.add("lower-dimensional")
            elif got.generators and len(set(map(primitive, vs))) > len(getattr(got, key)):
                seen.add("pointed, full-dimensional, redundant inputs")
    assert seen == {"lineality", "lower-dimensional", "pointed, full-dimensional, redundant inputs"}


def test_pointed_full_dimensional_conversion_is_one_double_description(monkeypatch):
    """A pointed full-dimensional cone takes one double description; a cone
    with lineality or of lower dimension takes a second, of the output."""
    calls = []
    real = polyhedra._double_description

    def counted(normals, dim):
        calls.append(dim)
        return real(normals, dim)

    monkeypatch.setattr(polyhedra, "_double_description", counted)
    rng = random.Random(1819)
    counts = {}
    for _ in range(400):
        dim = rng.randint(1, 4)
        vs = random_vector_family(rng, dim)
        for key in ("generators", "facets"):
            calls.clear()
            cone = dd_convert(**{key: vs}, ambient_dim=dim)
            if not cone.generators:  # {0} from facets: the first conversion shows it
                want = 1
            else:
                want = 1 if cone.is_pointed() and cone.is_full_dimensional() else 2
            assert len(calls) == want, (key, vs, cone)
            counts[want] = counts.get(want, 0) + 1
    assert counts[1] > 200 and counts[2] > 100, counts


def convex_polygon(directions):
    """Vertices of the lattice polygon whose edges are the given directions.

    The directions must be centrally symmetric with distinct angles; each
    is used once, in angular order, so every partial sum is a vertex.
    """
    order = sorted(directions, key=lambda v: math.atan2(v[1], v[0]))
    verts, cur = [], (0, 0)
    for d in order:
        verts.append(cur)
        cur = (cur[0] + d[0], cur[1] + d[1])
    assert cur == (0, 0)
    return verts


def test_pointed_conversion_makes_no_smith_normal_form(monkeypatch):
    calls = []
    real = linalg.smith_normal_form

    def counted(M):
        calls.append((M.rows, M.cols))
        return real(M)

    monkeypatch.setattr(linalg, "smith_normal_form", counted)
    monkeypatch.setattr(polyhedra, "smith_normal_form", counted)
    directions = [
        (a, b)
        for a in range(-3, 4)
        for b in range(-3, 4)
        if math.gcd(a, b) == 1 and (a, b) not in ((3, 1), (-3, -1))
    ]
    verts = convex_polygon(directions)
    assert len(verts) == 30
    gens = [(x, y, 1) for x, y in verts]
    cone = dd_convert(generators=gens, ambient_dim=3)
    back = dd_convert(facets=cone.facets, ambient_dim=3)
    assert calls == []
    assert cone.generators == back.generators == tuple(sorted(gens))
    # each facet is spanned by the cones over two consecutive vertices
    want = []
    for i, g in enumerate(gens):
        h, other = gens[(i + 1) % 30], gens[(i + 2) % 30]
        n = primitive(
            (g[1] * h[2] - g[2] * h[1], g[2] * h[0] - g[0] * h[2], g[0] * h[1] - g[1] * h[0])
        )
        want.append(n if dot(n, other) > 0 else tuple(-x for x in n))
    assert cone.facets == back.facets == tuple(sorted(want))
    assert cone.lineality_dim == back.lineality_dim == 0

    # only a cone with lineality goes through the Smith normal form quotient
    wedge = dd_convert(facets=[(1, 0, 0), (1, 1, 0)], ambient_dim=3)
    assert calls
    want = oracle_dd_convert(monkeypatch, facets=[(1, 0, 0), (1, 1, 0)], ambient_dim=3)
    assert cone_fields(wedge) == cone_fields(want)
    assert wedge.lineality_dim == 1


def test_dd_roundtrip():
    c = dd_convert(generators=[(2, 1, 0), (0, 1, 0), (1, 1, 3)], ambient_dim=3)
    again = dd_convert(facets=c.facets, ambient_dim=3)
    assert sorted(again.generators) == sorted(c.generators)


def test_dual_examples():
    quad = dd_convert(generators=[(1, 0), (0, 1)], ambient_dim=2)
    assert dual_cone(quad) == quad
    ray = dd_convert(generators=[(1, 0)], ambient_dim=2)
    half = dual_cone(ray)
    assert half.lineality_dim == 1
    assert half.membership((5, -17)) != "outside"
    assert half.membership((-1, 0)) == "outside"
    oblique = dd_convert(generators=[(1, 0), (1, 2)], ambient_dim=2)
    assert sorted(dual_cone(oblique).generators) == [(0, 1), (2, -1)]


def test_dual_dual_identity_random():
    rng = random.Random(707)
    count = 0
    for dim in (2, 3, 4):
        for _ in range(34):
            c = random_cone(rng, dim)
            assert dual_cone(dual_cone(c)) == c
            count += 1
    assert count >= 100


def test_stored_dimension_matches_rank():
    rng = random.Random(4172)
    for _ in range(200):
        dim = rng.randint(1, 4)
        vs = random_vector_family(rng, dim)
        for key in ("generators", "facets"):
            c = dd_convert(**{key: vs}, ambient_dim=dim)
            rank = smith_normal_form(IntMatrix(c.generators, cols=dim)).rank
            assert c.dim() == rank, (key, vs)
            d = c.dual()
            assert d.dim() == smith_normal_form(IntMatrix(d.generators, cols=dim)).rank
            assert d.lineality_dim == dim - rank


def test_generators_satisfy_facets():
    rng = random.Random(708)
    for dim in (2, 3, 4):
        for _ in range(15):
            c = random_cone(rng, dim)
            assert all(dot(f, g) >= 0 for f in c.facets for g in c.generators)


# ------------------------------------------------- intersection/membership


def test_intersect_quadrant_halfplane():
    quad = dd_convert(generators=[(1, 0), (0, 1)], ambient_dim=2)
    below = dd_convert(facets=[(1, -1)], ambient_dim=2)  # y <= x
    got = intersect(quad, below)
    want = dd_convert(generators=[(1, 0), (1, 1)], ambient_dim=2)
    assert got == want


def test_intersect_dim_mismatch():
    a = dd_convert(generators=[(1, 0)], ambient_dim=2)
    b = dd_convert(generators=[(1, 0, 0)], ambient_dim=3)
    with pytest.raises(DimensionMismatch):
        intersect(a, b)


def test_membership_cases():
    quad = dd_convert(generators=[(1, 0), (0, 1)], ambient_dim=2)
    assert membership(quad, (0, 0)) == "boundary"
    assert membership(quad, (1, 1)) == "inside"
    assert membership(quad, (1, 0)) == "boundary"
    assert membership(quad, (-1, 2)) == "outside"
    assert membership(quad, (Fraction(1, 3), Fraction(2, 7))) == "inside"


def test_membership_fraction_coordinates():
    cone = dd_convert(generators=[(1, 0), (1, 2)], ambient_dim=2)
    assert cone.membership((Fraction(1, 3), Fraction(1, 5))) == "inside"
    assert cone.membership((Fraction(1, 2), 1)) == "boundary"
    assert cone.membership((Fraction(-1, 7), Fraction(1, 9))) == "outside"
    assert cone.membership((Fraction(2, 3), Fraction(4, 3))) == "boundary"
    assert cone.membership((Fraction(0), Fraction(0))) == "boundary"
    half = dd_convert(facets=[(3, -1, 2)], ambient_dim=3)
    rng = random.Random(93)
    for _ in range(200):
        v = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(3))
        s = 3 * v[0] - v[1] + 2 * v[2]
        want = "outside" if s < 0 else "boundary" if s == 0 else "inside"
        assert half.membership(v) == want
    with pytest.raises(DimensionMismatch):
        cone.membership((Fraction(1, 2),))


def test_relative_interior_point():
    for n in (2, 3, 5):
        c = dd_convert(generators=[(1, 0), (n, 1)], ambient_dim=2)
        p = relative_interior_point(c)
        assert all(dot(f, p) > 0 for f in c.facets)
    # n = 2 gives the sum of generators
    c = dd_convert(generators=[(1, 0), (2, 1)], ambient_dim=2)
    assert relative_interior_point(c) == (3, 1)
    # a ray: strict on walls, zero on the span equations
    ray = dd_convert(generators=[(1, 1)], ambient_dim=2)
    p = relative_interior_point(ray)
    assert any(p)
    assert ray.membership(p) != "outside"


def test_is_pointed():
    assert dd_convert(generators=[(1, 0), (0, 1)], ambient_dim=2).is_pointed()
    assert not dd_convert(facets=[(1, 0)], ambient_dim=2).is_pointed()
    assert not dd_convert(facets=[], ambient_dim=2).is_pointed()


# ---------------------------------------------------------- lattice points


def test_lattice_points_unit_triangle():
    tri = polytope_from_points([(0, 0), (1, 0), (0, 1)])
    pts = lattice_points(tri, 2)
    assert len(pts) == 6
    assert pts == brute_lattice_points_2d([(0, 0), (1, 0), (0, 1)], 2)


def test_lattice_points_flagship_triangle():
    tri = polytope_from_points(DELTA_VERTICES)
    pts = lattice_points(tri, 1)
    assert len(pts) == 1348
    right = [p for p in pts if p[0] >= 49]
    assert sorted(right) == [(49, 0), (50, 0)]
    # Pick oracle: area 1326, boundary 42
    ccw = list(tri.vertices)
    area = shoelace_oracle(ccw)
    assert area == 1326
    b = boundary_points_oracle([(int(x), int(y)) for x, y in ccw])
    assert b == 42
    assert len(pts) == area + Fraction(b, 2) + 1


def test_lattice_points_delta_prime_interior():
    hull = polytope_from_points(DELTA_PRIME_COLUMNS)
    pts = lattice_points(hull, 1)
    ineqs = hull.inequalities()
    interior = [
        p
        for p in pts
        if all(sum(u[i] * p[i] for i in range(2)) + c > 0 for u, c in ineqs)
    ]
    assert len(interior) == 22
    assert pts == brute_lattice_points_2d([tuple(map(int, v)) for v in hull.vertices])


def test_lattice_points_dilation_consistency():
    rng = random.Random(909)
    for _ in range(20):
        pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(5)]
        try:
            hull = polytope_from_points(pts)
        except EmptyInput:
            continue
        if len(hull.vertices) < 3:
            continue
        m = rng.randint(1, 4)
        direct = lattice_points(hull, m)
        dilated = lattice_points(hull.dilate(m), 1)
        assert direct == dilated
        # Pick's theorem
        area = shoelace_oracle([(m * x, m * y) for x, y in hull.vertices])
        b = boundary_points_oracle([(m * int(x), m * int(y)) for x, y in hull.vertices])
        assert len(direct) == area + Fraction(b, 2) + 1


def test_lattice_points_3d():
    cube = polytope_from_points(list(itertools.product((0, 2), repeat=3)))
    pts = lattice_points(cube, 1)
    assert len(pts) == 27


def test_lattice_points_dim_cap():
    box5 = Polytope(5, [tuple([0] * 5), tuple([1] * 5)])
    with pytest.raises(DimensionTooLarge):
        lattice_points(box5, 1)


# ---------------------------------------------------------- hilbert basis


def test_hilbert_quadrant():
    c = dd_convert(generators=[(1, 0), (0, 1)], ambient_dim=2)
    assert hilbert_basis(c) == [(0, 1), (1, 0)]


def test_hilbert_oblique():
    c = dd_convert(generators=[(1, 0), (1, 2)], ambient_dim=2)
    hb = hilbert_basis(c)
    assert sorted(hb) == [(1, 0), (1, 1), (1, 2)]
    # parallelepiped oracle: brute-force integer points of the half-open box
    par = []
    for l1 in range(3):
        for l2 in range(3):
            for den in (1, 2):
                a = Fraction(l1, den)
                b = Fraction(l2, den)
                if 0 <= a < 1 and 0 <= b < 1:
                    x = a * 1 + b * 1
                    y = a * 0 + b * 2
                    if x.denominator == 1 and y.denominator == 1:
                        par.append((int(x), int(y)))
    assert (1, 1) in par


def test_hilbert_cone_over_triangle():
    gens = [(0, 0, 1), (1, 0, 1), (0, 1, 1)]
    c = dd_convert(generators=gens, ambient_dim=3)
    hb = hilbert_basis(c)
    assert sorted(hb) == sorted(gens)
    # oracle: all monoid points at height <= 2 decompose
    for x in range(0, 3):
        for y in range(0, 3):
            for h in (1, 2):
                p = (x, y, h)
                in_cone = all(dot(f, p) >= 0 for f in c.facets)
                assert decomposes(p, hb, c.facets) == in_cone or not in_cone


def test_hilbert_not_pointed():
    half = dd_convert(facets=[(1, 0)], ambient_dim=2)
    with pytest.raises(NotPointed):
        hilbert_basis(half)


def test_hilbert_generation_and_minimality():
    rng = random.Random(111)
    cones = [
        dd_convert(generators=[(1, 0), (1, 2)], ambient_dim=2),
        dd_convert(generators=[(2, -1), (0, 1)], ambient_dim=2),
        dd_convert(generators=[(1, 0), (3, 5)], ambient_dim=2),
        dd_convert(generators=[(1, 0, 0), (1, 2, 0), (1, 1, 3)], ambient_dim=3),
        dd_convert(generators=[(0, 1), (5, 2)], ambient_dim=2),
    ]
    for c in cones:
        hb = hilbert_basis(c)
        d = c.ambient_dim
        # generation: every cone lattice point with coordinate sum <= 20
        pts = []
        bound = 20 if d == 2 else 8
        for p in itertools.product(range(-bound, bound + 1), repeat=d):
            if sum(abs(x) for x in p) > bound:
                continue
            if all(dot(f, p) >= 0 for f in c.facets):
                pts.append(p)
        for p in pts:
            assert decomposes(p, hb, c.facets), (c, p)
        # minimality: removing any basis element loses some point
        for drop in range(len(hb)):
            sub = hb[:drop] + hb[drop + 1 :]
            assert not decomposes(hb[drop], sub, c.facets)


def test_hilbert_lower_dimensional_cone():
    # a pointed 1-d cone inside the plane x + y = 0... actually use ray
    ray = dd_convert(generators=[(2, -2)], ambient_dim=2)
    assert hilbert_basis(ray) == [(1, -1)]


# ------------------------------------------------------------ convex hull


def test_hull_delta_prime_all_vertices():
    hull = polytope_from_points(DELTA_PRIME_COLUMNS)
    assert len(hull.vertices) == 7
    assert set(hull.vertices) == {
        tuple(map(Fraction, v)) for v in DELTA_PRIME_COLUMNS
    }
    # counterclockwise orientation: positive shoelace sum
    vs = hull.vertices
    total = sum(
        vs[i][0] * vs[(i + 1) % 7][1] - vs[(i + 1) % 7][0] * vs[i][1]
        for i in range(7)
    )
    assert total > 0


def test_hull_square_plus_center():
    hull = polytope_from_points([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)])
    assert len(hull.vertices) == 4
    assert (1, 1) not in {(int(x), int(y)) for x, y in hull.vertices}


def test_hull_collinear():
    hull = polytope_from_points([(0, 0), (1, 1), (2, 2)])
    assert [tuple(map(int, v)) for v in hull.vertices] == [(0, 0), (2, 2)]


def test_hull_single_point():
    hull = polytope_from_points([(3, 4)])
    assert [tuple(map(int, v)) for v in hull.vertices] == [(3, 4)]


# --------------------------------------------------------------- polytope


def test_polytope_inequalities_roundtrip():
    tri = polytope_from_points(DELTA_VERTICES)
    back = polytope_from_inequalities(tri.inequalities(), 2)
    assert back == tri


def test_polytope_contains_fraction_points():
    def oracle(poly, p):
        return all(
            sum(Fraction(ui) * Fraction(x) for ui, x in zip(u, p)) + c >= 0
            for u, c in poly.inequalities()
        )

    tri = polytope_from_points(DELTA_VERTICES)
    assert tri.contains((20, Fraction(8, 3)))  # the centroid
    assert tri.contains((Fraction(61, 2), -13))  # an edge midpoint
    assert not tri.contains((Fraction(61, 2), Fraction(-92, 7)))  # just below it
    assert tri.contains((50, 0)) and not tri.contains((51, 0))
    segment = polytope_from_points([(0, 0, 0), (2, 1, 3)])
    assert segment.contains((1, Fraction(1, 2), Fraction(3, 2)))
    assert not segment.contains((1, Fraction(1, 2), Fraction(4, 3)))
    rng = random.Random(94)
    for poly in (tri, segment, polytope_from_points(DELTA_PRIME_COLUMNS)):
        lo = min(min(v) for v in poly.vertices) - 1
        hi = max(max(v) for v in poly.vertices) + 1
        for _ in range(150):
            den = rng.randint(1, 12)
            p = tuple(
                Fraction(rng.randint(int(lo) * den, int(hi) * den), den)
                for _ in range(poly.ambient_dim)
            )
            assert poly.contains(p) == oracle(poly, p), p
        for v in poly.vertices:
            assert poly.contains(v)
    assert not Polytope(2, []).contains((0, 0))


def test_polytope_from_inequalities_empty():
    empty = polytope_from_inequalities([((1, 0), -1), ((-1, 0), 0)], 2)
    assert empty.is_empty()


def test_polytope_unbounded_rejected():
    with pytest.raises(ValueError):
        polytope_from_inequalities([((1, 0), 0), ((0, 1), 0)], 2)


def test_polytope_area():
    tri = polytope_from_points(DELTA_VERTICES)
    assert tri.area() == 1326
    assert tri.area() == shoelace_oracle(tri.vertices)


def check_polytope_against_oracles(poly, points=None):
    """Vertices and their order, facets, dimension and the lattice points
    of the dilations 1-3 against the oracles; `points` are the points the
    polytope is the hull of, by default its vertices."""
    d = poly.ambient_dim
    points = poly.vertices if points is None else points
    want = hull_2d_by_monotone_chain(points) if d == 2 else vertices_by_exclusion(points, d)
    assert list(poly.vertices) == want
    assert poly.inequalities() == inequalities_by_vertex_conversion(poly.vertices, d)
    assert poly.dim() == dim_by_smith(poly.vertices, d)
    for m in (1, 2, 3):
        q = poly.dilate(m)
        assert q.inequalities() == inequalities_by_vertex_conversion(q.vertices, d), m
        assert q.dim() == poly.dim()
        assert lattice_points(poly, m) == lattice_points_by_box(poly.vertices, d, m), m
    for point in ((0,) * (d - 1), (0,) * (d + 1)):
        with pytest.raises(DimensionMismatch):
            poly.contains(point)


def test_polytope_from_points_matches_oracles():
    """Rational point sets in dimensions 1-3, a quarter of them on a line
    or a single point: the vertices come from the one conversion, the
    facets and dimension from its cone, and a dilation maps that cone
    when the polytope is full-dimensional."""
    rng = random.Random(1919)
    seen = collections.Counter()
    for _ in range(240):
        d = rng.randint(1, 3)

        def rational():
            return Fraction(rng.randint(-6, 6), rng.randint(1, 3))

        if rng.random() < 0.25:
            base = [rational() for _ in range(d)]
            step = [rational() for _ in range(d)]
            pts = [tuple(b + rng.randint(0, 2) * s for b, s in zip(base, step))
                   for _ in range(rng.randint(1, 4))]
        else:
            pts = [tuple(rational() for _ in range(d)) for _ in range(rng.randint(1, d + 4))]
        poly = polytope_from_points(pts)
        check_polytope_against_oracles(poly, pts)
        seen[(d, poly.dim() == d)] += 1
    # the segment whose +/- facet rows a mapped cone would change
    check_polytope_against_oracles(
        polytope_from_points([(Fraction(-2, 3), 1), (2, Fraction(-1, 3))])
    )
    assert all(seen[(d, full)] >= 10 for d in (1, 2, 3) for full in (True, False)), seen


def test_polytope_from_inequalities_matches_oracles():
    """The facets of a random polytope in [-4, 4]^d, tightened, with a
    random row more, or without those that a random direction r leaves
    (so r recedes): bounded systems against the oracles and their lattice
    points against the system itself, empty and unbounded ones as
    before."""
    rng = random.Random(1920)
    seen = collections.Counter()
    for _ in range(150):
        d = rng.randint(1, 3)
        pts = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(d + 3)]
        ineqs = [(u, c - rng.randint(0, 4))
                 for u, c in polytope_from_points(pts).inequalities()]
        if rng.random() < 0.3:
            u = tuple(rng.randint(-2, 2) for _ in range(d))
            if any(u):
                ineqs.append((u, rng.randint(-3, 3)))
        if rng.random() < 0.3:
            r = tuple(rng.randint(-2, 2) for _ in range(d))
            ineqs = [(u, c) for u, c in ineqs if dot(u, r) >= 0]
        try:
            poly = polytope_from_inequalities(ineqs, d)
        except ValueError:
            seen["unbounded"] += 1
            continue
        if poly.is_empty():
            seen["empty"] += 1
            assert poly.dim() == -1 and not poly.contains((0,) * d)
            continue
        seen["bounded"] += 1
        check_polytope_against_oracles(poly)
        box = [range(-5, 6)] * d
        assert lattice_points(poly, 1) == [
            x for x in itertools.product(*box) if all(dot(u, x) + c >= 0 for u, c in ineqs)
        ]
    assert min(seen["unbounded"], seen["empty"], seen["bounded"]) >= 20, seen


def test_dilation_of_a_full_dimensional_polytope_converts_nothing(monkeypatch):
    """The lattice columns of m P, m = 1..3, read the facets of P's cone,
    mapped by m: no cone conversion."""
    polys = [polytope_from_points(DELTA_VERTICES),
             polytope_from_points([(0, 0, 0), (3, 0, 1), (0, 2, Fraction(1, 2)), (1, 1, 4)])]
    calls, real = [], polyhedra.dd_convert
    monkeypatch.setattr(polyhedra, "dd_convert", lambda *a, **k: calls.append(k) or real(*a, **k))
    for poly in polys:
        for m in (1, 2, 3):
            assert list(lattice_columns(poly, m))
    assert calls == []


def test_polytope_dim_takes_no_smith_form(monkeypatch):
    polys = [polytope_from_points(pts) for pts in (
        DELTA_VERTICES, [(0, 0, 0), (2, 1, 3)], [(Fraction(1, 2), 4)], [(1,), (5,)],
    )]
    calls, real = [], polyhedra.smith_normal_form
    monkeypatch.setattr(polyhedra, "smith_normal_form", lambda M: calls.append(M) or real(M))
    assert [p.dim() for p in polys] == [2, 1, 0, 1]
    assert calls == []


def test_hilbert_determinant_cap():
    from coxkit.polyhedra import DeterminantTooLarge

    wide = dd_convert(generators=[(1, 0), (1, 2 * 10**6)], ambient_dim=2)
    with pytest.raises(DeterminantTooLarge):
        hilbert_basis(wide)


def test_hilbert_cap_refused_at_once():
    from coxkit.polyhedra import HILBERT_DET_CAP, DeterminantTooLarge

    gens = [(1, 0, 0), (0, 1, 0), (1, 1, HILBERT_DET_CAP + 1)]
    c = dd_convert(generators=gens, ambient_dim=3)
    t0 = time.monotonic()
    with pytest.raises(DeterminantTooLarge):
        hilbert_basis(c)
    assert time.monotonic() - t0 < 1.0


def random_simplicial_rays(rng, dim, bound=4):
    while True:
        rays = [tuple(rng.randint(-bound, bound) for _ in range(dim)) for _ in range(dim)]
        if det(IntMatrix(rays)) != 0:
            return rays


def test_parallelepiped_points_match_rational_solve():
    rng = random.Random(8080)
    for _ in range(60):
        dim = rng.randint(1, 4)
        rays = random_simplicial_rays(rng, dim)
        pts = polyhedra._parallelepiped_points(rays, dim)
        assert pts == parallelepiped_points_by_solve(rays, dim)
        assert len(pts) == abs(det(IntMatrix(rays)))


def random_pointed_cone_for_hilbert(rng, dim):
    """Pointed cone in Z^dim with small entries: its generators lie on the
    positive side of a positive functional w.  About a third of the cones
    lie in the span of fewer than dim random vectors."""
    w = [rng.randint(1, 3) for _ in range(dim)]
    span = dim if rng.random() < 0.65 else rng.randint(1, dim - 1)
    basis = IntMatrix.identity(dim).row_list()
    if span < dim:
        basis = []
        while len(basis) < span:
            b = [rng.randint(-2, 2) for _ in range(dim)]
            if dot(w, b) > 0:
                basis.append(b)
    gens = []
    for _ in range(span + rng.randint(0, 3)):
        g = [0] * dim
        while dot(w, g) == 0:
            coeffs = [rng.randint(-3, 3) for _ in basis]
            g = [sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(dim)]
        gens.append(g if dot(w, g) > 0 else [-x for x in g])
    return dd_convert(generators=gens, ambient_dim=dim)


def test_hilbert_basis_matches_all_pairs_oracle():
    rng = random.Random(20261018)
    lower = non_simplicial = 0
    for _ in range(300):
        c = random_pointed_cone_for_hilbert(rng, rng.randint(2, 4))
        assert c.is_pointed()
        lower += c.dim() < c.ambient_dim
        non_simplicial += len(c.generators) > c.dim()
        assert hilbert_basis(c) == hilbert_basis_all_pairs(c), c
    assert lower >= 30 and non_simplicial >= 30


def random_rational_polytope(rng, dim):
    bound = (6, 6, 4, 2)[dim - 1]
    pts = [
        tuple(Fraction(rng.randint(-bound, bound), rng.randint(1, 3)) for _ in range(dim))
        for _ in range(rng.randint(1, dim + 3))
    ]
    return polytope_from_points(pts, ambient_dim=dim)


def test_lattice_points_match_fraction_oracle():
    rng = random.Random(4242)
    for _ in range(600):
        dim = rng.randint(1, 4)
        poly = random_rational_polytope(rng, dim)
        m = rng.randint(1, 3)
        assert lattice_points(poly, m) == lattice_points_by_fractions(poly, m), (poly, m)
