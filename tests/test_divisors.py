import collections
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from helpers import (
    find_gl2z,
    intersection_by_mixed_area,
    positivity_by_polytope,
    witnesses_by_determinants,
)

import coxkit
from coxkit import divisors, fans, polyhedra
from coxkit.divisors import (
    NotComplete,
    NotNef,
    NotSurface,
    RaysDoNotSpan,
    ToricDivisor,
    class_group,
    divisor_polytope,
    intersection_number_nef_surface,
    irrelevant_monomials,
    positivity,
    principal_divisor,
    section_count,
    section_ring_generators,
    veronese_generators,
)
from coxkit.fans import (
    BadWeights,
    Fan,
    hirzebruch_fan,
    normal_fan_with_ample,
    projective_space_fan,
    weighted_projective_fan,
)
from coxkit.linalg import IntMatrix, dot, primitive
from coxkit.polyhedra import (
    dd_convert,
    lattice_points,
    polytope_from_points,
)

DELTA_VERTICES = [(11, -26), (50, 0), (-1, 34)]

STANDARD_FN_COLUMNS = lambda n: [(1, 0), (1, 0), (n, 1), (0, 1)]


# ------------------------------------------------------------ class group


def test_class_group_pn():
    for n in (1, 2, 3):
        cg = class_group(projective_space_fan(n))
        assert cg.rank == 1 and cg.torsion == ()
        assert all(d == (1,) for d in cg.degrees)


def test_class_group_hirzebruch_matches_standard_matrix():
    for n in range(4):
        cg = class_group(hirzebruch_fan(n))
        assert cg.rank == 2 and cg.torsion == ()
        T = find_gl2z(cg.degrees, STANDARD_FN_COLUMNS(n))
        assert T is not None, (n, cg.degrees)


def test_class_group_wps():
    cg = class_group(weighted_projective_fan(12, 13, 17))
    assert cg.rank == 1 and cg.torsion == ()
    assert [d[0] for d in cg.degrees] == [12, 13, 17]


def test_class_group_torsion():
    # rays (1,0) and (1,2): Cl = Z/2 (cokernel of [[1,0],[1,2]]^T pairing)
    fan = Fan(2, ((1, 0), (1, 2)), ((0, 1),))
    cg = class_group(fan)
    assert cg.rank == 0 and cg.torsion == (2,)
    # both variables map to the nonzero torsion element
    assert cg.degrees == ((1,), (1,))


def test_class_group_rays_do_not_span():
    fan = Fan(2, ((1, 0), (-1, 0)), ((0,), (1,)))
    with pytest.raises(RaysDoNotSpan):
        class_group(fan)


def test_divisor_with_class_roundtrip():
    rng = random.Random(42)
    for fan in (projective_space_fan(2), hirzebruch_fan(2), weighted_projective_fan(1, 1, 2)):
        cg = class_group(fan)
        for _ in range(20):
            cls = tuple(rng.randint(-5, 5) for _ in range(cg.rank)) + tuple(
                rng.randrange(t) for t in cg.torsion
            )
            div = cg.divisor_with_class(cls)
            assert cg.class_of(div) == cls


def test_divisor_with_class_checks_itself_under_optimize():
    # a broken inverse must still be caught when `python -O` strips asserts
    script = (
        "from coxkit.divisors import class_group\n"
        "from coxkit.fans import hirzebruch_fan\n"
        "from coxkit.linalg import IntMatrix\n"
        "cg = class_group(hirzebruch_fan(1))\n"
        "cg._U_inv = IntMatrix.zero(4, 4)\n"
        "try:\n"
        "    cg.divisor_with_class((2, 1))\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = os.path.dirname(os.path.dirname(coxkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-O", "-c", script], env=env).returncode == 0


# ------------------------------------------------------ principal divisors


def test_principal_p2():
    fan = projective_space_fan(2)
    assert principal_divisor(fan, (1, 0)).coefficients == (1, 0, -1)
    assert principal_divisor(fan, (0, 0)).coefficients == (0, 0, 0)


def test_principal_wps_from_triangle():
    tri = polytope_from_points(DELTA_VERTICES)
    fan, _ = normal_fan_with_ample(tri)
    div = principal_divisor(fan, (1, 0))
    pairs = dict(zip(fan.rays, div.coefficients))
    assert pairs[(-2, 3)] == -2 and pairs[(-2, -3)] == -2 and pairs[(5, 1)] == 5
    cg = class_group(fan)
    assert cg.class_of(div) == (0,)
    weights = dict(zip(fan.rays, (d[0] for d in cg.degrees)))
    assert sum(weights[r] * pairs[r] for r in fan.rays) == 0


def test_principal_class_zero_random():
    rng = random.Random(77)
    fans = [
        projective_space_fan(2),
        projective_space_fan(3),
        hirzebruch_fan(0),
        hirzebruch_fan(2),
        weighted_projective_fan(12, 13, 17),
        weighted_projective_fan(1, 1, 2),
    ]
    checks = 0
    for fan in fans:
        cg = class_group(fan)
        zero = (0,) * (cg.rank + len(cg.torsion))
        for _ in range(17):
            m = tuple(rng.randint(-9, 9) for _ in range(fan.lattice_dim))
            assert cg.class_of(principal_divisor(fan, m)) == zero
            checks += 1
    assert checks >= 100


# -------------------------------------------------------- divisor polytope


def test_divisor_polytope_p2_hyperplane():
    fan = projective_space_fan(2)
    poly = divisor_polytope(fan, (0, 0, 1))
    assert sorted(tuple(map(int, v)) for v in poly.vertices) == [(0, 0), (0, 1), (1, 0)]
    assert section_count(fan, (0, 0, 1)) == 3
    assert section_count(fan, (1, 0, 0)) == 3


def test_divisor_polytope_principal_is_point():
    fan = hirzebruch_fan(1)
    for m in [(1, 0), (2, -3), (0, 1)]:
        div = principal_divisor(fan, m)
        poly = divisor_polytope(fan, div)
        assert len(poly.vertices) == 1
        assert poly.vertices[0] == tuple(Fraction(-x) for x in m)
        assert section_count(fan, div) == 1


def test_divisor_polytope_flagship_roundtrip():
    tri = polytope_from_points(DELTA_VERTICES)
    fan, ample = normal_fan_with_ample(tri)
    poly = divisor_polytope(fan, ample)
    assert poly == tri
    assert section_count(fan, ample) == 1348


def test_divisor_polytope_requires_complete():
    fan = Fan(2, ((1, 0), (0, 1)), ((0, 1),))
    with pytest.raises(NotComplete):
        divisor_polytope(fan, (0, 0))


def test_divisor_polytope_empty():
    fan = projective_space_fan(2)
    poly = divisor_polytope(fan, (-1, 0, 0))
    assert poly.is_empty()
    assert section_count(fan, (-1, 0, 0)) == 0


def test_polytope_translation_property():
    fan = hirzebruch_fan(2)
    rng = random.Random(5)
    base = ToricDivisor((3, 1, 2, 0))
    for _ in range(10):
        m = tuple(rng.randint(-3, 3) for _ in range(2))
        shifted = base + principal_divisor(fan, m)
        p1 = divisor_polytope(fan, base)
        p2 = divisor_polytope(fan, shifted)
        assert p2 == p1.translate(tuple(-x for x in m))


def test_polytope_dilation_property():
    fan = projective_space_fan(2)
    d = ToricDivisor((1, 1, 1))
    p1 = divisor_polytope(fan, d)
    for m in range(1, 6):
        pm = divisor_polytope(fan, m * d)
        assert pm == p1.dilate(m)
        assert sorted(lattice_points(p1, m)) == sorted(lattice_points(pm, 1))


# --------------------------------------------------------------- positivity


def test_positivity_p2_hyperplane():
    rec = positivity(projective_space_fan(2), (0, 0, 1))
    assert rec.basepoint_free and rec.nef and rec.ample


def test_positivity_f1_negative_curve():
    fan = hirzebruch_fan(1)
    cg = class_group(fan)
    # the divisor of the last ray has class (0, -1) -> its effective
    # representative with class (0, 1) spans the non-nef edge of Eff
    neg = cg.divisor_with_class((0, 1))
    rec = positivity(fan, neg)
    assert not rec.nef
    # cross-check against the chamber machinery: (0,1) is outside the
    # moving cone cone((1,0),(1,1)) of the standard grading
    from coxkit.chambers import GradingSpec, moving_cone

    spec = GradingSpec.from_class_group(cg)
    mov = moving_cone(spec)
    assert mov.membership((0, 1)) == "outside"


def test_positivity_flagship_ample():
    tri = polytope_from_points(DELTA_VERTICES)
    fan, ample = normal_fan_with_ample(tri)
    rec = positivity(fan, ample)
    assert rec.ample and rec.nef and rec.basepoint_free


def test_positivity_implications():
    fans = [
        projective_space_fan(2),
        hirzebruch_fan(1),
        hirzebruch_fan(3),
        weighted_projective_fan(1, 1, 2),
    ]
    rng = random.Random(9)
    for fan in fans:
        r = len(fan.rays)
        for _ in range(25):
            div = tuple(rng.randint(-2, 4) for _ in range(r))
            rec = positivity(fan, div)
            if rec.basepoint_free:
                assert rec.nef
            if rec.ample:
                assert rec.basepoint_free


def test_positivity_wps_non_cartier():
    fan = weighted_projective_fan(1, 1, 2)
    cg = class_group(fan)
    d1 = cg.divisor_with_class((1,))
    rec1 = positivity(fan, d1)
    assert rec1.nef and not rec1.basepoint_free
    rec2 = positivity(fan, 2 * d1)
    assert rec2.basepoint_free


def _random_complete_surface(rng):
    """Complete simplicial fan on random primitive rays in angular order.

    Rays from a box of radius 4 give cones of determinant up to 32, so
    most fans have singular cones.
    """
    while True:
        rays = {
            primitive((rng.randint(-4, 4), rng.randint(-4, 4)))
            for _ in range(rng.randint(3, 7))
        } - {(0, 0)}
        rays = sorted(rays, key=lambda v: math.atan2(v[1], v[0]))
        n = len(rays)
        pairs = [(i, (i + 1) % n) for i in range(n)]
        if n >= 3 and all(
            rays[i][0] * rays[j][1] - rays[i][1] * rays[j][0] > 0 for i, j in pairs
        ):
            return Fan(2, rays, pairs)


def _random_weighted_projective(rng, n):
    while True:
        try:
            return weighted_projective_fan(*(rng.randint(1, 7) for _ in range(n + 1)))
        except BadWeights:
            continue


def test_positivity_and_intersection_match_polytope_oracle():
    """Slack criteria against the divisor polytope and its normal fan.

    Random surfaces with singular cones and P(w) in dimensions 2 and 3 take
    divisors from a coefficient box, which are seldom ample, so ample
    divisors of normal fans of random lattice polygons are added.  Every
    pair of nef divisors on a surface also checks the intersection number
    against the mixed area.
    """
    rng = random.Random(20261018)
    cases = []
    for _ in range(25):
        fan = _random_complete_surface(rng)
        cases.append((fan, [[rng.randint(-3, 3) for _ in fan.rays] for _ in range(12)]))
    for n in (2, 3):
        for _ in range(8):
            fan = _random_weighted_projective(rng, n)
            cases.append((fan, [[rng.randint(-3, 6) for _ in fan.rays] for _ in range(6)]))
    while len(cases) < 70:
        pts = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(3, 7))]
        hull = polytope_from_points(pts)
        if hull.dim() == 2:
            fan, ample = normal_fan_with_ample(hull)
            extra = [[a + rng.randint(-1, 1) for a in ample] for _ in range(4)]
            cases.append((fan, [ample, [2 * a for a in ample]] + extra))
    disagreements = []
    seen = {"not_bpf": 0, "ample": 0, "intersections": 0}
    for fan, divisors in cases:
        nef = []
        for div in divisors:
            got, want = positivity(fan, div), positivity_by_polytope(fan, div)
            if got != want:
                disagreements.append((fan, div, got, want))
            seen["not_bpf"] += want.nef and not want.basepoint_free
            seen["ample"] += want.ample
            if want.nef and fan.lattice_dim == 2:
                nef.append(div)
        for d1, d2 in itertools.combinations_with_replacement(nef, 2):
            got = intersection_number_nef_surface(fan, d1, d2)
            want = intersection_by_mixed_area(fan, d1, d2)
            if got != want:
                disagreements.append((fan, d1, d2, got, want))
            seen["intersections"] += 1
    assert disagreements == []
    assert seen["ample"] >= 40 and seen["not_bpf"] >= 10, seen
    assert seen["intersections"] >= 200, seen


def _smooth_surface(rng, n):
    """A smooth complete surface: P^2 blown up at n - 3 random fixed points."""
    rays = [(1, 0), (0, 1), (-1, -1)]
    while len(rays) < n:
        i = rng.randrange(len(rays))
        j = (i + 1) % len(rays)
        rays.insert(i + 1, (rays[i][0] + rays[j][0], rays[i][1] + rays[j][1]))
    return Fan(2, tuple(rays), tuple(tuple(sorted((i, (i + 1) % n))) for i in range(n)))


def test_witnesses_match_per_divisor_determinants(monkeypatch):
    """The per-fan Cramer maps give the witnesses, the positivity records
    and the intersection numbers that 1 + d determinants per maximal cone
    and divisor give, on smooth and singular surfaces, P(w) and P^3."""
    rng = random.Random(1821)
    fan_list = [_smooth_surface(rng, n) for n in (3, 5, 8, 12)]
    fan_list += [_random_complete_surface(rng) for _ in range(12)]
    fan_list += [_random_weighted_projective(rng, n) for n in (2, 2, 2, 3, 3)]
    fan_list += [weighted_projective_fan(12, 13, 17), projective_space_fan(3)]
    seen = {"singular": 0, "nef": 0, "pairs": 0}
    for fan in fan_list:
        divs = [[rng.randint(-2, 5) for _ in fan.rays] for _ in range(10)]
        got = [positivity(fan, a) for a in divs]
        for a in divs:
            assert list(divisors._witnesses(fan, a)) == list(witnesses_by_determinants(fan, a))
        nef = [a for a, rec in zip(divs, got) if rec.nef and fan.lattice_dim == 2]
        pairs = list(itertools.combinations_with_replacement(nef, 2))
        numbers = [intersection_number_nef_surface(fan, d1, d2) for d1, d2 in pairs]
        with monkeypatch.context() as m:
            m.setattr(divisors, "_witnesses", witnesses_by_determinants)
            assert [positivity(fan, a) for a in divs] == got
            assert [intersection_number_nef_surface(fan, *p) for p in pairs] == numbers
        seen["singular"] += not fans.fan_predicates(fan).smooth
        seen["nef"] += sum(rec.nef for rec in got)
        seen["pairs"] += len(pairs)
    assert seen["singular"] >= 10 and seen["nef"] >= 40 and seen["pairs"] >= 60, seen


def test_section_count_converts_once_and_lists_no_points(monkeypatch):
    """section_count converts the divisor's facets at most once and counts
    the points of the polytope's cone without listing them: by Pick's
    theorem for a lattice polygon, by columns otherwise.  A nef divisor
    whose polytope is full-dimensional converts nothing; a divisor that is
    not nef, or a nef one whose polytope is a segment, converts once."""
    cases = [
        (projective_space_fan(2), (0, 0, 4), 0),
        (weighted_projective_fan(1, 2, 3), (0, 0, 1), 0),  # a vertex (0, 1/2)
        (hirzebruch_fan(2), (1, 0, 1, 2), 1),  # not nef
        (hirzebruch_fan(2), (1, 0, 0, 0), 1),  # nef, a segment
        (projective_space_fan(3), (0, 0, 0, 2), 0),
    ]
    # listed before counting, which also caches the fans' completeness
    counts = [len(lattice_points(divisor_polytope(fan, a))) for fan, a, _ in cases]
    calls = {"dd_convert": 0, "lattice_points": 0}
    for name in calls:
        real = getattr(polyhedra, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(polyhedra, name, counted)
        monkeypatch.setattr(divisors, name, counted, raising=False)
    for (fan, divisor, conversions), count in zip(cases, counts):
        calls.update(dd_convert=0, lattice_points=0)
        assert section_count(fan, divisor) == count
        assert calls == {"dd_convert": conversions, "lattice_points": 0}, (divisor, calls)


def test_nef_polytope_from_witnesses_matches_conversion():
    """On the singular surfaces and weighted projective planes of the
    positivity tests, on smooth surfaces, normal fans of lattice polygons,
    P(w) in dimension 3 and a 3-dimensional fan with a prism cone, every
    nef divisor whose polytope is full-dimensional gets from its witnesses
    the polytope that `divisor_polytope` converts: the same vertices in the
    same order and the same cone.  A lower-dimensional one, a divisor that
    is not nef and a fan that is not simplicial get None, and
    section_count equals the number of listed lattice points in all cases."""
    rng = random.Random(2126)
    cases = []
    for fan in [_random_complete_surface(rng) for _ in range(25)] + [
        _random_weighted_projective(rng, n) for n in (2,) * 8 + (3,) * 3
    ] + [_smooth_surface(rng, n) for n in (3, 5, 8, 12)]:
        cases += [(fan, [rng.randint(-2, 5) for _ in fan.rays]) for _ in range(12)]
        cases.append((fan, [0] * len(fan.rays)))  # a point
    for n in range(4):
        cases += [(hirzebruch_fan(n), (m, 0, 0, 0)) for m in (1, 2)]  # segments
    while len(cases) < 640:
        pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(2, 6))]
        fan, ample = normal_fan_with_ample(polytope_from_points(pts + [(0, 0), (1, 0), (0, 1)]))
        cases += [(fan, ample), (fan, [a + rng.randint(-1, 1) for a in ample])]
    # the fan over the faces of the cube [-1, 1]^3: complete, not simplicial
    corners = list(itertools.product((-1, 1), repeat=3))
    cube = Fan(3, corners, [[i for i, c in enumerate(corners) if c[j] == s]
                            for j in range(3) for s in (-1, 1)])
    cases += [(cube, [rng.randint(0, 3) for _ in corners]) for _ in range(4)]
    seen = collections.Counter()
    for fan, a in cases:
        poly = divisors._nef_polytope(fan, a)
        want = divisor_polytope(fan, a)
        if poly is not None:
            assert poly.vertices == want.vertices, (fan, a)
            cone, other = poly._homogenized(), want._homogenized()
            assert (cone.generators, cone.facets) == (other.generators, other.facets)
            assert (cone.lineality_dim, cone.dim()) == (other.lineality_dim, other.dim())
            seen["lattice" if poly.is_lattice() else "rational"] += 1
            seen[f"dimension {fan.lattice_dim}"] += 1
        elif not fans.fan_predicates(fan).simplicial:
            seen["not simplicial"] += 1
        elif positivity(fan, a).nef:
            assert want.dim() < fan.lattice_dim
            seen["lower-dimensional"] += 1
        else:
            seen["not nef"] += 1
        assert section_count(fan, a) == len(lattice_points(want)), (fan, a)
    assert seen["lattice"] >= 70 and seen["rational"] >= 150 and seen["dimension 3"] >= 25, seen
    assert seen["lower-dimensional"] >= 40 and seen["not nef"] >= 200, seen
    assert seen["not simplicial"] == 4, seen


def test_second_positivity_on_a_fan_takes_no_determinant(monkeypatch):
    calls = []
    real = fans.det

    def counted(M):
        calls.append(M.rows)
        return real(M)

    monkeypatch.setattr(fans, "det", counted)
    fan = weighted_projective_fan(1, 2, 3, 5)
    fans.fan_predicates.cache_clear()
    first = positivity(fan, (0, 0, 0, 30))
    assert calls  # the Cramer maps are built with the fan's predicates
    calls.clear()
    assert positivity(fan, (0, 0, 0, 30)) == first
    assert positivity(fan, (1, 1, 1, 1)).nef
    assert intersection_number_nef_surface(projective_space_fan(2), (0, 0, 1), (0, 0, 1)) == 1
    calls.clear()
    assert intersection_number_nef_surface(projective_space_fan(2), (0, 0, 2), (0, 0, 1)) == 2
    assert calls == []


def test_intersection_number_builds_the_witnesses_of_d1_once(monkeypatch):
    calls = []
    real = divisors._witnesses

    def counted(fan, divisor):
        calls.append(tuple(divisor))
        return real(fan, divisor)

    monkeypatch.setattr(divisors, "_witnesses", counted)
    assert intersection_number_nef_surface(projective_space_fan(2), (0, 0, 1), (0, 0, 2)) == 2
    assert calls == [(0, 0, 1), (0, 0, 2)]


# ------------------------------------------------------ intersection numbers


def test_intersection_p2():
    fan = projective_space_fan(2)
    h = (0, 0, 1)
    assert intersection_number_nef_surface(fan, h, h) == 1


def test_intersection_flagship():
    tri = polytope_from_points(DELTA_VERTICES)
    fan, ample = normal_fan_with_ample(tri)
    assert intersection_number_nef_surface(fan, ample, ample) == 2652
    assert 2652 == 52 * 51


def test_intersection_p1xp1_fibers():
    fan = hirzebruch_fan(0)
    # rays (1,0),(-1,0),(0,-1),(0,1): fibers in the two rulings
    f1 = (1, 0, 0, 0)
    f2 = (0, 0, 0, 1)
    assert intersection_number_nef_surface(fan, f1, f2) == 1
    assert intersection_number_nef_surface(fan, f1, f1) == 0
    assert intersection_number_nef_surface(fan, f2, f2) == 0


def test_intersection_bilinearity():
    fan = hirzebruch_fan(1)
    cg = class_group(fan)
    nef1 = cg.divisor_with_class((1, 0))
    nef2 = cg.divisor_with_class((1, 1))
    e = cg.divisor_with_class((2, 1))
    lhs = intersection_number_nef_surface(fan, nef1 + nef2, e)
    rhs = intersection_number_nef_surface(fan, nef1, e) + intersection_number_nef_surface(fan, nef2, e)
    assert lhs == rhs


def test_intersection_preconditions():
    with pytest.raises(NotSurface):
        intersection_number_nef_surface(projective_space_fan(3), (0, 0, 0, 1), (0, 0, 0, 1))
    fan = hirzebruch_fan(1)
    cg = class_group(fan)
    neg = cg.divisor_with_class((0, 1))
    with pytest.raises(NotNef):
        intersection_number_nef_surface(fan, neg, neg)


# ------------------------------------------------------ irrelevant monomials


def test_irrelevant_pn():
    for n in (1, 2, 3):
        fan = projective_space_fan(n)
        sets = irrelevant_monomials(fan)
        assert sorted(sets) == [(i,) for i in range(n + 1)]


def test_irrelevant_hirzebruch_pattern():
    fan = hirzebruch_fan(1)
    fam = {frozenset(s) for s in irrelevant_monomials(fan)}
    # one variable from each ruling pair, matching the four affine charts
    assert fam == {
        frozenset({0, 2}),
        frozenset({0, 3}),
        frozenset({1, 2}),
        frozenset({1, 3}),
    }


def test_irrelevant_affine_quadrant():
    fan = Fan(2, ((1, 0), (0, 1)), ((0, 1),))
    assert irrelevant_monomials(fan) == [()]


# --------------------------------------------------------- section rings


def test_section_ring_p2():
    fan = projective_space_fan(2)
    gens = section_ring_generators(fan, [(0, 0, 1)])
    assert len(gens) == 3
    assert all(t == (1,) for _, t in gens)
    assert sorted(m for m, _ in gens) == [(0, 0), (0, 1), (1, 0)]


def test_section_ring_p1_double_point():
    fan = projective_space_fan(1)
    gens = section_ring_generators(fan, [(0, 2)])
    assert sorted((m[0], t[0]) for m, t in gens) == [(0, 1), (1, 1), (2, 1)]
    # oracle: brute force all monoid points with height <= 2
    cone_pts = [
        (m, t)
        for t in range(3)
        for m in range(-1, 2 * t + 2)
        if 0 <= m <= 2 * t
    ]
    basis = [(m[0], t[0]) for m, t in gens]
    for p in cone_pts:
        if p == (0, 0):
            continue
        reachable = False
        for b in basis:
            q = (p[0] - b[0], p[1] - b[1])
            if q == (0, 0) or (q[1] >= 0 and 0 <= q[0] <= 2 * q[1]):
                reachable = True
                break
        assert reachable, p


def _section_monoid_irreducibles_oracle(fan, divisors, height):
    """Brute-force minimal generators of the section monoid up to height."""
    from coxkit.divisors import _coeffs

    divs = [_coeffs(d) for d in divisors]
    rays = fan.rays

    def member(p):
        m, t = p[:2], p[2:]
        if any(x < 0 for x in t):
            return False
        return all(
            sum(mi * vi for mi, vi in zip(m, v)) + sum(tj * dj[i] for tj, dj in zip(t, divs))
            >= 0
            for i, v in enumerate(rays)
        )

    pts = []
    box = range(-height * 4, height * 4 + 1)
    for t in itertools.product(range(height + 1), repeat=len(divs)):
        if sum(t) == 0 or sum(t) > height:
            continue
        for m in itertools.product(box, repeat=2):
            if member(m + t):
                pts.append(m + t)
    irreducible = []
    ptset = set(pts)
    for p in pts:
        if not any(
            tuple(a - b for a, b in zip(p, q)) in ptset for q in pts if q != p
        ):
            irreducible.append(p)
    return sorted(irreducible)


def test_section_ring_hirzebruch_nef_pair():
    # Section ring of the two nef cone generators of F_1.  The nef cone is
    # a proper subcone of Eff, so this monoid needs five generators, one
    # more than the four Cox ring variables; the brute-force oracle below
    # confirms the count.
    fan = hirzebruch_fan(1)
    cg = class_group(fan)
    d1 = cg.divisor_with_class((1, 0))
    d2 = cg.divisor_with_class((1, 1))
    assert positivity(fan, d1).nef and positivity(fan, d2).nef
    gens = section_ring_generators(fan, [d1, d2])
    oracle = _section_monoid_irreducibles_oracle(fan, [d1, d2], height=3)
    assert sorted(m + t for m, t in gens) == oracle
    assert len(gens) == 5


def test_section_ring_hirzebruch_effective_pair_cox_rank():
    # With the two Eff cone generators the Z^2_{>=0}-graded section ring
    # sweeps out every effective class, so the generator count equals the
    # four variables of the Cox ring (degree matrix [[1,1,n,0],[0,0,1,1]]).
    fan = hirzebruch_fan(1)
    cg = class_group(fan)
    degset = sorted(set(cg.degrees))
    eff_gens = [cg.divisor_with_class(c) for c in degset if _is_extremal(degset, c)]
    assert len(eff_gens) == 2
    gens = section_ring_generators(fan, eff_gens)
    oracle = _section_monoid_irreducibles_oracle(fan, eff_gens, height=3)
    assert sorted(m + t for m, t in gens) == oracle
    assert len(gens) == 4


def _is_extremal(degrees, c):
    from coxkit.polyhedra import dd_convert as _dd

    cone = _dd(generators=[d for d in degrees if any(d)], ambient_dim=2)
    return tuple(c) in set(cone.generators)


def test_section_ring_monomial_closure_p2():
    fan = projective_space_fan(2)
    gens = section_ring_generators(fan, [(0, 0, 1)])
    pts = [(m[0], m[1], t[0]) for m, t in gens]
    # every lattice point of the cone with height <= 3 is a nonneg sum
    def in_cone(p):
        x, y, t = p
        return t >= 0 and x >= 0 and y >= 0 and x + y <= t

    targets = [
        (x, y, t)
        for t in range(4)
        for x in range(4)
        for y in range(4)
        if in_cone((x, y, t))
    ]
    for tgt in targets:
        stack = [tgt]
        seen = set()
        ok = False
        while stack:
            cur = stack.pop()
            if cur == (0, 0, 0):
                ok = True
                break
            if cur in seen:
                continue
            seen.add(cur)
            for g in pts:
                nxt = tuple(a - b for a, b in zip(cur, g))
                if in_cone(nxt):
                    stack.append(nxt)
        assert ok, tgt


# -------------------------------------------------------------- veronese


def test_veronese_identity():
    q = IntMatrix([[1, 0], [0, 1]])
    h = dd_convert(generators=[(1, 0), (0, 1)], ambient_dim=2)
    assert veronese_generators(q, h) == [(0, 1), (1, 0)]


def test_veronese_even_total_degree():
    q = IntMatrix([[1, 1]])
    h = dd_convert(generators=[(1,)], ambient_dim=1)
    lat = IntMatrix([[2]])
    gens = veronese_generators(q, h, sublattice=lat)
    assert sorted(gens) == [(0, 2), (1, 1), (2, 0)]
    # oracle: brute force all monomials of total degree <= 4
    pts = [
        (a, b)
        for a in range(5)
        for b in range(5)
        if 0 < a + b <= 4 and (a + b) % 2 == 0
    ]
    for p in pts:
        ok = False
        stack = [p]
        seen = set()
        while stack:
            cur = stack.pop()
            if cur == (0, 0):
                ok = True
                break
            if cur in seen or cur[0] < 0 or cur[1] < 0:
                continue
            seen.add(cur)
            for g in gens:
                stack.append((cur[0] - g[0], cur[1] - g[1]))
        assert ok, p


def test_veronese_ray_sector():
    q = IntMatrix([[1, 1, 1, 0], [0, 0, 1, 1]])
    h = dd_convert(generators=[(1, 0)], ambient_dim=2)
    gens = veronese_generators(q, h)
    assert sorted(gens) == [(0, 1, 0, 0), (1, 0, 0, 0)]
    # oracle: brute force small exponents
    brute = []
    for x in itertools.product(range(3), repeat=4):
        if x == (0, 0, 0, 0):
            continue
        deg = (x[0] + x[1] + x[2], x[2] + x[3])
        if deg[1] == 0 and deg[0] >= 0:
            brute.append(x)
    for b in brute:
        assert b[2] == 0 and b[3] == 0


def test_section_ring_not_pointed():
    from coxkit.polyhedra import NotPointed

    fan = Fan(2, ((1, 0), (-1, 0)), ((0,), (1,)))
    with pytest.raises(NotPointed):
        section_ring_generators(fan, [(1, 1)])


def test_section_ring_dimension_cap():
    from coxkit.polyhedra import DimensionTooLarge

    fan = hirzebruch_fan(1)
    with pytest.raises(DimensionTooLarge):
        section_ring_generators(fan, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])


def test_veronese_dimension_cap():
    from coxkit.polyhedra import DimensionTooLarge

    q = IntMatrix([[1, 1, 1, 1, 1]])
    h = dd_convert(generators=[(1,)], ambient_dim=1)
    with pytest.raises(DimensionTooLarge):
        veronese_generators(q, h)
