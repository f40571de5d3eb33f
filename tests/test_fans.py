import itertools
import random
from fractions import Fraction

import pytest

from helpers import check_fan_pairwise, is_face_by_conversion

from coxkit import fans
from coxkit.fans import (
    BadWeights,
    Fan,
    InvalidFan,
    NonLatticeVertex,
    NotFullDimensional,
    fan_predicates,
    fans_unimodular_equivalent,
    hirzebruch_fan,
    normal_fan,
    normal_fan_with_ample,
    projective_space_fan,
    standard_fan,
    validate_fan,
    weighted_projective_fan,
)
from coxkit.linalg import (
    IntMatrix,
    det,
    dot,
    integer_kernel_saturated,
    primitive,
    smith_normal_form,
)
from coxkit.polyhedra import dd_convert, intersect, polytope_from_points

DELTA_VERTICES = [(11, -26), (50, 0), (-1, 34)]
DELTA_PRIME_COLUMNS = [(-1, 6), (-4, 5), (-3, 1), (-2, 8), (-6, 0), (-7, 0), (0, 3)]
DELTA_PRIME_NORMALS = {
    (0, 1),
    (-1, 3),
    (-2, 3),
    (-3, -1),
    (-2, -1),
    (3, -2),
    (5, -3),
}


def inward_normals_oracle(vertices):
    """Primitive inward edge normals of a convex lattice polygon (CCW)."""
    hull = polytope_from_points(vertices)
    vs = [(int(x), int(y)) for x, y in hull.vertices]
    out = set()
    n = len(vs)
    for i in range(n):
        (x1, y1), (x2, y2) = vs[i], vs[(i + 1) % n]
        # CCW orientation: inward normal is the left-rotated edge direction
        out.add(primitive((-(y2 - y1), x2 - x1)))
    return out


# --------------------------------------------------------------- validate


def test_validate_p2():
    fan = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (2, 0)))
    assert validate_fan(fan).ok


def test_validate_overlap_violation():
    fan = Fan(2, ((1, 0), (0, 1), (1, 1), (-1, 1)), ((0, 1), (2, 3)))
    report = validate_fan(fan)
    assert not report.ok
    assert any("0 and 1" in v for v in report.violations)


def test_validate_hirzebruch_roundtrip():
    fan = hirzebruch_fan(2)
    assert validate_fan(fan).ok
    rebuilt = Fan(2, fan.rays, fan.max_cones)
    assert validate_fan(rebuilt).ok


def test_validate_flags_bad_rays():
    assert not validate_fan(Fan(2, ((2, 4),), ((0,),))).ok
    assert not validate_fan(Fan(2, ((1, 0), (1, 0)), ((0,), (1,)))).ok
    assert not validate_fan(Fan(2, ((1, 0), (0, 1)), ((0,),))).ok  # unused ray
    # listed ray interior to a cone is not an extreme ray
    assert not validate_fan(Fan(2, ((1, 0), (0, 1), (1, 1)), ((0, 1, 2),))).ok


def test_validate_non_pointed_cone():
    fan = Fan(2, ((1, 0), (-1, 0)), ((0, 1),))
    report = validate_fan(fan)
    assert not report.ok
    assert any("strictly convex" in v for v in report.violations)


# ------------------------------------------------------------- predicates


def test_predicates_p2():
    preds = fan_predicates(projective_space_fan(2))
    assert preds.complete and preds.simplicial and preds.smooth


def test_predicates_wps_12_13_17():
    preds = fan_predicates(weighted_projective_fan(12, 13, 17))
    assert preds.complete and preds.simplicial and not preds.smooth
    # ray pair determinants are the complementary weights
    fan = weighted_projective_fan(12, 13, 17)
    from coxkit.linalg import det

    dets = sorted(
        abs(det(IntMatrix([fan.rays[i], fan.rays[j]])))
        for i, j in ((1, 2), (0, 2), (0, 1))
    )
    assert dets == [12, 13, 17]


def test_predicates_affine_quadrant():
    fan = Fan(2, ((1, 0), (0, 1)), ((0, 1),))
    preds = fan_predicates(fan)
    assert not preds.complete
    assert preds.simplicial and preds.smooth


def test_predicates_invalid_fan_raises():
    fan = Fan(2, ((1, 0), (0, 1), (1, 1), (-1, 1)), ((0, 1), (2, 3)))
    with pytest.raises(InvalidFan):
        fan_predicates(fan)


def test_predicates_repeated_calls():
    bad = Fan(2, ((1, 0), (0, 1), (1, 1), (-1, 1)), ((0, 1), (2, 3)))
    for _ in range(2):
        with pytest.raises(InvalidFan):
            fan_predicates(bad)
    f1 = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
    f2 = Fan(2, [[1, 0], [0, 1], [-1, -1]], [[1, 0], [2, 1], [2, 0]])
    assert f1 == f2
    assert fan_predicates(f1) == fan_predicates(f2) == fan_predicates(f1)
    assert fan_predicates(f2) == fan_predicates(projective_space_fan(2))


def test_predicates_p1xp1_and_hirzebruch():
    for n in range(4):
        preds = fan_predicates(hirzebruch_fan(n))
        assert preds.complete and preds.simplicial and preds.smooth


# ------------------------------------------------------------- normal fan


def test_normal_fan_flagship_triangle():
    tri = polytope_from_points(DELTA_VERTICES)
    fan, ample = normal_fan_with_ample(tri)
    assert set(fan.rays) == {(-2, 3), (-2, -3), (5, 1)}
    assert set(fan.rays) == inward_normals_oracle(DELTA_VERTICES)
    # weight relation: 13*(-2,3) + 17*(-2,-3) + 12*(5,1) = 0
    w = {(-2, 3): 13, (-2, -3): 17, (5, 1): 12}
    total = [0, 0]
    for r in fan.rays:
        total[0] += w[r] * r[0]
        total[1] += w[r] * r[1]
    assert total == [0, 0]
    assert validate_fan(fan).ok


def test_normal_fan_unit_square():
    square = polytope_from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
    fan, ample = normal_fan_with_ample(square)
    assert set(fan.rays) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert fans_unimodular_equivalent(fan, hirzebruch_fan(0)) is not None


def test_normal_fan_delta_prime():
    hull = polytope_from_points(DELTA_PRIME_COLUMNS)
    fan, ample = normal_fan_with_ample(hull)
    assert set(fan.rays) == DELTA_PRIME_NORMALS
    assert set(fan.rays) == inward_normals_oracle(DELTA_PRIME_COLUMNS)
    assert validate_fan(fan).ok
    # the ray-projection data records these directions in a frame rotated
    # by 90 degrees: rotating (x, y) -> (-y, x) lands on the computed normals
    circled = [(-1, 2), (-1, 3), (1, 0), (3, 1), (3, 2), (-3, -5), (-2, -3)]
    assert {(-y, x) for x, y in circled} == set(fan.rays)


def test_normal_fan_preconditions():
    seg = polytope_from_points([(0, 0), (2, 0)])
    with pytest.raises(NotFullDimensional):
        normal_fan_with_ample(seg)
    frac = polytope_from_points([(0, 0), (1, 0), (0, Fraction(1, 2))])
    with pytest.raises(NonLatticeVertex):
        normal_fan_with_ample(frac)


def test_normal_fan_roundtrip_random_polygons():
    from coxkit.divisors import divisor_polytope

    rng = random.Random(1234)
    done = 0
    while done < 50:
        pts = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rng.randint(3, 8))]
        hull = polytope_from_points(pts)
        if hull.dim() != 2:
            continue
        fan, ample = normal_fan_with_ample(hull)
        back = divisor_polytope(fan, ample)
        assert back == hull
        done += 1


# ---------------------------------------------------------- standard fans


def test_standard_p2():
    fan = standard_fan("projective_space", 2)
    assert set(fan.rays) == {(1, 0), (0, 1), (-1, -1)}
    assert len(fan.max_cones) == 3


def test_standard_wps_matches_normal_fan():
    tri = polytope_from_points(DELTA_VERTICES)
    nf, _ = normal_fan_with_ample(tri)
    wps = weighted_projective_fan(12, 13, 17)
    T = fans_unimodular_equivalent(nf, wps)
    assert T is not None
    assert {T.apply(r) for r in nf.rays} == set(wps.rays)


def test_standard_hirzebruch_gradings():
    from coxkit.divisors import class_group

    for n in range(4):
        fan = hirzebruch_fan(n)
        assert validate_fan(fan).ok
        cg = class_group(fan)
        assert cg.rank == 2 and not cg.torsion


def test_wps_bad_weights():
    with pytest.raises(BadWeights):
        weighted_projective_fan(2, 4)
    with pytest.raises(BadWeights):
        weighted_projective_fan(2, 1)  # P(2,1): n=1 needs each weight 1
    with pytest.raises(BadWeights):
        weighted_projective_fan(0, 1, 1)


def test_wps_class_group_degrees():
    from coxkit.divisors import class_group

    for weights in [(1, 1, 1), (1, 1, 2), (12, 13, 17), (1, 2, 3), (1, 1, 1, 1)]:
        fan = weighted_projective_fan(*weights)
        assert validate_fan(fan).ok
        cg = class_group(fan)
        assert cg.rank == 1 and not cg.torsion
        degs = [d[0] for d in cg.degrees]
        assert degs == list(weights) or degs == [-w for w in weights]


def test_unimodular_equivalence_negative():
    assert fans_unimodular_equivalent(projective_space_fan(2), hirzebruch_fan(1)) is None
    assert (
        fans_unimodular_equivalent(
            weighted_projective_fan(1, 1, 2), weighted_projective_fan(1, 2, 3)
        )
        is None
    )


def test_unimodular_equivalence_self():
    for fan in (projective_space_fan(2), hirzebruch_fan(3), weighted_projective_fan(1, 1, 2)):
        T = fans_unimodular_equivalent(fan, fan)
        assert T is not None


def test_unimodular_equivalence_builds_maps_only_at_determinant_d(monkeypatch):
    """T is built, as targets^T times the adjugate, only for target rays
    whose determinant is +-D = +-det(source basis): det T = det(targets) / D
    must be +-1.  Counted with a wrapped product on smooth and singular
    fans, equivalent and not; the maps found are still lattice
    isomorphisms carrying cones onto cones."""
    products = []
    multiply = IntMatrix.__mul__

    def counted(self, other):
        products.append(abs(det(self)))
        return multiply(self, other)

    monkeypatch.setattr(IntMatrix, "__mul__", counted)
    cases = [
        (hirzebruch_fan(1), hirzebruch_fan(1), True),
        (hirzebruch_fan(1), hirzebruch_fan(2), False),
        (weighted_projective_fan(1, 1, 2), weighted_projective_fan(1, 1, 2), True),
        (weighted_projective_fan(1, 2, 3), weighted_projective_fan(1, 2, 3), True),
        (weighted_projective_fan(1, 1, 2), weighted_projective_fan(1, 2, 3), False),
        (*(normal_fan(polytope_from_points(DELTA_VERTICES)),) * 2, True),
    ]
    for f1, f2, equivalent in cases:
        # the first d rays of each f1 are linearly independent
        D = abs(det(IntMatrix(f1.rays[: f1.lattice_dim])))
        products.clear()
        T = fans_unimodular_equivalent(f1, f2)
        assert products and set(products) == {D}
        assert (T is not None) == equivalent
        if equivalent:
            assert abs(det(T)) == 1
            assert {T.apply(r) for r in f1.rays} == set(f2.rays)
            assert {frozenset(T.apply(f1.rays[i]) for i in c) for c in f1.max_cones} == {
                frozenset(f2.rays[i] for i in c) for c in f2.max_cones
            }


def random_gl(rng, d):
    """A random matrix of GL(d, Z): a signed permutation times elementary
    row operations."""
    perm = rng.sample(range(d), d)
    rows = [[rng.choice((-1, 1)) * (j == perm[i]) for j in range(d)] for i in range(d)]
    for _ in range(2 * d):
        i, j = rng.sample(range(d), 2)
        q = rng.randint(-2, 2)
        rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    return IntMatrix(rows)


def test_unimodular_equivalence_of_mapped_fans():
    """P(w) fans (d = 2, 3) and normal fans of random lattice polygons,
    mapped by a random GL(d, Z) matrix with rays and cones shuffled: the
    map found has determinant +-1 and carries rays and cones onto the
    image's."""
    rng = random.Random(2718)
    fans_seen = {2: 0, 3: 0}
    while min(fans_seen.values()) < 12:
        if rng.random() < 0.5:
            weights = [rng.randint(1, 7) for _ in range(rng.choice((3, 4)))]
            try:
                fan = weighted_projective_fan(*weights)
            except BadWeights:
                continue
        else:
            pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(3, 6))]
            hull = polytope_from_points(pts)
            if hull.dim() != 2:
                continue
            fan = normal_fan(hull)
        d = fan.lattice_dim
        A = random_gl(rng, d)
        order = rng.sample(range(len(fan.rays)), len(fan.rays))
        where = {old: new for new, old in enumerate(order)}
        image = Fan(
            d,
            tuple(A.apply(fan.rays[i]) for i in order),
            tuple(tuple(where[i] for i in c) for c in rng.sample(fan.max_cones, len(fan.max_cones))),
        )
        T = fans_unimodular_equivalent(fan, image)
        assert T is not None
        assert abs(det(T)) == 1
        assert {T.apply(r) for r in fan.rays} == set(image.rays)
        assert {frozenset(T.apply(fan.rays[i]) for i in c) for c in fan.max_cones} == {
            frozenset(image.rays[i] for i in c) for c in image.max_cones
        }
        fans_seen[d] += 1


def random_small_fan(rng):
    dim = rng.randint(2, 3)
    rays = sorted({
        primitive([rng.randint(-2, 2) for _ in range(dim)]) for _ in range(rng.randint(3, 6))
    } - {(0,) * dim})
    cones = {
        tuple(sorted(rng.sample(range(len(rays)), rng.randint(1, min(dim + 1, len(rays))))))
        for _ in range(rng.randint(1, 4))
    }
    return Fan(dim, tuple(rays), tuple(sorted(cones)))


def test_face_test_matches_conversion_on_random_fans(monkeypatch):
    rng = random.Random(31337)
    faces, valid = set(), set()
    for _ in range(150):
        fan = random_small_fan(rng)
        cones = [fan.cone(c) for c in fan.max_cones]
        for ci, cj in itertools.product(cones, repeat=2):
            subset = rng.sample(ci.generators, rng.randint(1, len(ci.generators)))
            sub = dd_convert(generators=subset, ambient_dim=fan.lattice_dim)
            for face in (intersect(ci, cj), sub):
                got = fans._is_face_of(face, ci)
                assert got == is_face_by_conversion(face, ci), (face, ci)
                faces.add(got)
        report = validate_fan(fan)
        with monkeypatch.context() as m:
            m.setattr(fans, "_is_face_of", is_face_by_conversion)
            assert validate_fan(fan) == report
        valid.add(report.ok)
    assert faces == valid == {True, False}


def test_invalid_fan_message():
    bad = Fan(2, ((1, 0), (0, 1), (1, 1), (-1, 1)), ((0, 1), (2, 3)))
    with pytest.raises(InvalidFan, match="^invalid fan: intersection of max cones 0 and 1"):
        fan_predicates(bad)


def smooth_surface(n):
    """Rays of a smooth complete surface with n >= 3 rays in cyclic order:
    P^2 blown up n - 3 times, each time between the first ray of largest
    l1 norm and the ray after it."""
    rays = [(1, 0), (0, 1), (-1, -1)]
    while len(rays) < n:
        i = max(range(len(rays)), key=lambda i: abs(rays[i][0]) + abs(rays[i][1]))
        j = (i + 1) % len(rays)
        rays.insert(i + 1, (rays[i][0] + rays[j][0], rays[i][1] + rays[j][1]))
    return rays


def touching_cones_fan(rng):
    """Two cones of Z^3 on either side of a random lattice plane, each with
    a random set of rays in the plane: a facet of one separates them, and
    they meet in a common face only for some choices of the plane rays."""
    while True:
        f = primitive([rng.randint(-2, 2) for _ in range(3)])
        if any(f):
            break
    u, w = integer_kernel_saturated(IntMatrix([f])).row_list()
    plane = [primitive([a * x + b * y for x, y in zip(u, w)]) for a, b in ((1, 0), (0, 1), (1, 1), (1, -1), (-1, 0))]
    side = [tuple(x + s * y for x, y in zip(rng.choice(plane), f)) for s in (1, -1)]
    a = rng.sample(plane[:4], 2) + [side[0]]
    b = rng.sample(plane, rng.randint(1, 2)) + [side[1]]
    rays = sorted(set(map(primitive, a + b)))
    return Fan(3, tuple(rays), tuple(tuple(sorted(rays.index(primitive(v)) for v in c)) for c in (a, b)))


def test_validation_matches_pairwise_oracle():
    """Valid and invalid fans of dimensions 2 and 3, message for message,
    against intersecting every pair of maximal cones."""
    rng = random.Random(1820)
    fan_list = [random_small_fan(rng) for _ in range(150)]
    fan_list += [touching_cones_fan(rng) for _ in range(100)]
    for _ in range(40):
        d = rng.randint(2, 3)
        pts = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(d + 1, 7))]
        poly = polytope_from_points(pts)
        if poly.dim() == d:
            fan = normal_fan(poly)
            fan_list.append(fan)
            cones = list(fan.max_cones)
            i = rng.randrange(len(cones))
            merged = tuple(sorted(set(cones[i]) | set(cones[i - 1])))
            fan_list.append(Fan(d, fan.rays, tuple(cones[:i] + [merged] + cones[i + 1:])))
            fan_list.append(Fan(d, fan.rays, tuple(cones[:i] + cones[i + 1:])))
    fan_list += [projective_space_fan(3), hirzebruch_fan(2), weighted_projective_fan(1, 2, 3, 5)]
    verdicts = {}
    for fan in fan_list:
        report = validate_fan(fan)
        assert list(report.violations) == check_fan_pairwise(fan), fan
        key = (fan.lattice_dim, report.ok)
        verdicts[key] = verdicts.get(key, 0) + 1
    assert set(verdicts) == {(2, True), (2, False), (3, True), (3, False)}, verdicts
    assert min(verdicts.values()) >= 10, verdicts


def test_smooth_surface_validates_with_no_intersection(monkeypatch):
    calls = []
    real = fans.intersect

    def counted(*cones):
        calls.append(len(cones))
        return real(*cones)

    monkeypatch.setattr(fans, "intersect", counted)
    rays = smooth_surface(12)
    fan = Fan(2, tuple(rays), tuple((i, (i + 1) % 12) for i in range(12)))
    assert validate_fan(fan).ok
    assert calls == []
    assert fan_predicates(fan) == fans.FanPredicates(True, True, True)
