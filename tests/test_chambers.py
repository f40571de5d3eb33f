import itertools
import random
from fractions import Fraction
from functools import reduce

import pytest

from helpers import (
    det,
    enumerate_chambers_by_pairwise_cuts,
    enumerate_chambers_by_sweep,
    semistable_supports_by_subset_cones,
    subset_cone_by_conversion,
)

from coxkit import chambers
from coxkit.chambers import (
    Chamber,
    GradingSpec,
    NotEffective,
    TooFewGenerators,
    defining_subsets,
    effective_cone,
    enumerate_chambers,
    is_cox_grading,
    mori_chamber,
    moving_cone,
    semistable_supports,
    _subset_cone,
)
from coxkit.divisors import class_group
from coxkit.errors import PreconditionError
from coxkit.fans import Fan
from coxkit.linalg import IntMatrix, dot, primitive
from coxkit.polyhedra import dd_convert, intersect, zero_cone

# the two standard Z^2-gradings of a four-variable polynomial ring
FIRST_MATRIX = lambda n: GradingSpec.from_columns([(1, 0), (1, 0), (n, 1), (0, 1)])
SECOND_MATRIX = GradingSpec.from_columns([(1, 0), (1, 1), (1, 1), (0, 1)])


def cone2(*gens):
    return dd_convert(generators=list(gens), ambient_dim=2)


# ---------------------------------------------------------------- oracles


def drop_one_intersection_oracle(spec):
    """Intersect the drop-one cones one at a time, by hand."""
    out = None
    for i in range(spec.r):
        gens = [spec.free_part(j) for j in range(spec.r) if j != i and any(spec.free_part(j))]
        c = dd_convert(generators=gens, ambient_dim=spec.free_rank)
        out = c if out is None else intersect(out, c)
    return out


def subset_cones_containing(spec, w):
    """(I, C_I) for every one of the 2^r index sets I with w in C_I."""
    out = []
    for size in range(spec.r + 1):
        for subset in itertools.combinations(range(spec.r), size):
            gens = [spec.free_part(i) for i in subset if any(spec.free_part(i))]
            if gens:
                c = dd_convert(generators=gens, ambient_dim=spec.free_rank)
            else:
                c = zero_cone(spec.free_rank)
            if c.membership(w) != "outside":
                out.append((subset, c))
    return out


def chamber_oracle(spec, w):
    """(cone, family) of the chamber of w from all 2^r subset cones, or None
    when w is not effective."""
    found = subset_cones_containing(spec, w)
    if not found:
        return None
    cone = reduce(intersect, (c for _, c in found))
    return cone, frozenset(frozenset(subset) for subset, _ in found)


def arrangement_cell_count_2d(spec):
    """Count full-dimensional arrangement cells inside Eff by angular scan."""
    eff = effective_cone(spec)
    rays = set()
    for i in range(spec.r):
        w = spec.free_part(i)
        if any(w) and eff.membership(w) != "outside":
            rays.add(primitive(w))
    rays |= set(eff.generators)
    # sort by angle
    import math

    ordered = sorted(rays, key=lambda v: math.atan2(v[1], v[0]))
    # walk consecutive pairs that lie inside Eff
    cells = 0
    for a, b in zip(ordered, ordered[1:]):
        mid = (a[0] + b[0], a[1] + b[1])
        if eff.membership(mid) == "inside":
            cells += 1
    return cells


# ----------------------------------------------------------------- cones


def test_effective_cone_hirzebruch():
    spec = FIRST_MATRIX(1)
    assert effective_cone(spec) == cone2((1, 0), (0, 1))


def test_effective_cone_ray_and_plane():
    ones = GradingSpec.from_columns([(1,), (1,), (1,)])
    eff = effective_cone(ones)
    assert eff.generators == ((1,),)
    plane = GradingSpec.from_columns([(1, 0), (-1, 0), (0, 1), (0, -1)])
    eff = effective_cone(plane)
    assert eff.lineality_dim == 2


def test_moving_cone_hirzebruch():
    for n in (0, 1, 2, 3, 5):
        spec = FIRST_MATRIX(n)
        mov = moving_cone(spec)
        assert mov == cone2((1, 0), (n, 1))
        assert mov == drop_one_intersection_oracle(spec)


def test_moving_cone_all_ones():
    ones = GradingSpec.from_columns([(1,), (1,), (1,)])
    mov = moving_cone(ones)
    assert mov == effective_cone(ones)


def test_moving_cone_second_matrix():
    mov = moving_cone(SECOND_MATRIX)
    assert mov == drop_one_intersection_oracle(SECOND_MATRIX)
    # Mov is contained in Eff
    eff = effective_cone(SECOND_MATRIX)
    assert eff.contains_cone(mov)


def test_moving_cone_needs_two():
    single = GradingSpec.from_columns([(1, 0)])
    with pytest.raises(TooFewGenerators):
        moving_cone(single)


def test_mov_in_eff_random():
    rng = random.Random(606)
    for _ in range(40):
        k = rng.randint(1, 3)
        r = rng.randint(2, 6)
        cols = []
        while len(cols) < r:
            w = tuple(rng.randint(-3, 3) for _ in range(k))
            cols.append(w)
        if all(not any(w) for w in cols):
            continue
        spec = GradingSpec.from_columns(cols)
        try:
            mov = moving_cone(spec)
        except Exception:
            continue
        assert effective_cone(spec).contains_cone(mov)


# --------------------------------------------------------------- chambers


def test_mori_chamber_nef_of_f1():
    spec = FIRST_MATRIX(1)
    ch = mori_chamber(spec, (2, 1))
    assert ch.cone == cone2((1, 0), (1, 1))
    # oracle: intersect by hand every subset cone containing (2,1)
    inter = None
    for _, c in subset_cones_containing(spec, (2, 1)):
        inter = c if inter is None else intersect(inter, c)
    assert ch.cone == inter


def test_mori_chamber_other_side():
    spec = FIRST_MATRIX(1)
    ch = mori_chamber(spec, (1, 2))
    assert ch.cone == cone2((1, 1), (0, 1))


def test_mori_chamber_all_ones():
    ones = GradingSpec.from_columns([(1,), (1,)])
    ch = mori_chamber(ones, (3,))
    assert ch.cone == dd_convert(generators=[(1,)], ambient_dim=1)


def test_mori_chamber_requires_effective():
    spec = FIRST_MATRIX(1)
    with pytest.raises(NotEffective):
        mori_chamber(spec, (-1, 0))


def test_mori_chamber_idempotent_on_interior():
    spec = FIRST_MATRIX(2)
    ch = mori_chamber(spec, (3, 1))
    w2 = ch.cone.relative_interior_point()
    ch2 = mori_chamber(spec, w2)
    assert ch2.cone == ch.cone


def test_lambda_idempotence_random():
    rng = random.Random(808)
    done = 0
    while done < 100:
        k = rng.randint(1, 3)
        r = rng.randint(2, 8)
        cols = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(r)]
        if all(not any(c) for c in cols):
            continue
        spec = GradingSpec.from_columns(cols)
        eff = effective_cone(spec)
        if eff.dim() == 0:
            continue
        w = eff.relative_interior_point()
        if not any(w):
            continue
        ch = mori_chamber(spec, w)
        w2 = ch.cone.relative_interior_point()
        if not any(w2):
            continue
        ch2 = mori_chamber(spec, w2)
        assert ch2.cone == ch.cone
        done += 1


def random_grading(rng, seen, ranks=(1, 3), counts=(1, 6)):
    """Degrees in Z^k, sometimes with a Z/t part, with repeated degrees and
    degrees of zero free part mixed in."""
    k = rng.randint(*ranks)
    torsion = (rng.choice((2, 3)),) if rng.random() < 0.25 else ()
    degrees = []
    for _ in range(rng.randint(*counts)):
        tors = tuple(rng.randint(0, t - 1) for t in torsion)
        roll = rng.random()
        if degrees and roll < 0.15:
            degrees.append(rng.choice(degrees))
            seen.add("repeated degree")
        elif roll < 0.25:
            degrees.append((0,) * k + tors)
            seen.add("zero degree")
        else:
            degrees.append(tuple(rng.randint(-2, 3) for _ in range(k)) + tors)
    seen.add(f"free rank {k}")
    if torsion:
        seen.add("torsion")
    return GradingSpec(free_rank=k, torsion=torsion, degrees=tuple(degrees))


def test_mori_chamber_matches_all_subsets_oracle():
    rng = random.Random(5150)
    seen = set()
    for _ in range(70):
        spec = random_grading(rng, seen)
        k = spec.free_rank
        frees = [spec.free_part(i) for i in range(spec.r)]
        classes = [
            tuple(map(sum, zip(*frees))),
            frees[0],  # on a ray
            tuple(a + b for a, b in zip(frees[0], frees[-1])),  # often on a wall
            tuple(rng.randint(-2, 3) for _ in range(k)),
            (0,) * k,
        ]
        for w in classes:
            want = chamber_oracle(spec, w)
            if want is None:
                with pytest.raises(NotEffective):
                    mori_chamber(spec, w)
                seen.add("not effective")
                continue
            cone, family = want
            ch = mori_chamber(spec, w)
            assert ch.cone.generators == cone.generators, (spec, w)
            assert ch.cone.facets == cone.facets, (spec, w)
            assert ch.cone.lineality_dim == cone.lineality_dim, (spec, w)
            minimal = {s for s in family if not any(t < s for t in family)}
            assert {frozenset(m) for m in ch.supports} == minimal, (spec, w)
            assert list(ch.supports) == sorted(ch.supports, key=lambda m: (len(m), m))
            closure = defining_subsets(ch.supports, spec.r)
            assert {frozenset(s) for s in closure} == family, (spec, w)
            if any(w) and not ch.full_dimensional:
                seen.add("lower-dimensional chamber")
            if effective_cone(spec).lineality_dim:
                seen.add("Eff with lineality")
    assert seen == {
        "free rank 1",
        "free rank 2",
        "free rank 3",
        "torsion",
        "repeated degree",
        "zero degree",
        "not effective",
        "lower-dimensional chamber",
        "Eff with lineality",
    }


def test_mori_chamber_builds_only_minimal_support_cones():
    # a cold chamber at r = 12, free rank 2 needs Eff and the subsets of
    # size <= 2: at most 1 + 1 + 12 + 66 = 80 cones, not 2^12 = 4096
    rng = random.Random(12)
    degrees = [(rng.randint(0, 5), rng.randint(1, 5)) for _ in range(12)]
    spec = GradingSpec.from_columns(degrees)
    w = tuple(map(sum, zip(*degrees)))
    _subset_cone.cache_clear()
    ch = mori_chamber(spec, w)
    assert _subset_cone.cache_info().misses <= 80
    assert ch.cone.membership(w) != "outside"
    # each support's cone holds w and no smaller subset's does
    for m in ch.supports:
        assert len(m) <= 2 and _subset_cone(spec, frozenset(m)).contains(w)
        assert not any(_subset_cone(spec, frozenset(m) - {i}).contains(w) for i in m)
    assert list(range(12)) in defining_subsets(ch.supports, 12)


def test_enumerate_chambers_hirzebruch():
    for n in (1, 2, 3):
        spec = FIRST_MATRIX(n)
        chambers = enumerate_chambers(spec)
        assert len(chambers) == 2
        cones = sorted(tuple(sorted(c.cone.generators)) for c in chambers)
        assert cones == sorted(
            [
                tuple(sorted(cone2((1, 0), (n, 1)).generators)),
                tuple(sorted(cone2((n, 1), (0, 1)).generators)),
            ]
        )
        assert len(chambers) == arrangement_cell_count_2d(spec)
        # chambers tile Eff: boundary rays chain from (1,0) to (0,1)
        assert {(1, 0), (0, 1)} <= {g for c in chambers for g in c.cone.generators}


def test_enumerate_chambers_all_ones():
    ones = GradingSpec.from_columns([(1,), (1,), (1,)])
    chambers = enumerate_chambers(ones)
    assert len(chambers) == 1


def test_enumerate_chambers_low_free_rank():
    # degrees of both signs: Eff is the whole line, and the point 0 cuts it
    # into the two chambers
    spec = GradingSpec.from_columns([(-2,), (2,), (4,)])
    chambers = enumerate_chambers(spec)
    assert [c.cone.generators for c in chambers] == [((-1,),), ((1,),)]
    assert [c.cone for c in chambers] == [
        mori_chamber(spec, (-1,)).cone,
        mori_chamber(spec, (1,)).cone,
    ]
    # a torsion grading has one chamber, the point
    torsion = GradingSpec(free_rank=0, torsion=(2,), degrees=((1,), (0,)))
    assert [c.cone for c in enumerate_chambers(torsion)] == [zero_cone(0)]


def test_enumerate_chambers_matches_pairwise_cut_oracle():
    rng = random.Random(2024)
    seen = set()
    done = 0
    while done < 80:
        spec = random_grading(rng, seen)
        if spec.free_rank == 1:
            continue
        got = enumerate_chambers(spec)
        want = enumerate_chambers_by_pairwise_cuts(spec)
        assert [(c.cone.generators, c.cone.facets, c.supports) for c in got] == [
            (c.cone.generators, c.cone.facets, c.supports) for c in want
        ], spec
        seen.add(f"{min(len(got), 3)} chambers")
        done += 1
    assert {"free rank 2", "free rank 3", "torsion", "zero degree", "repeated degree",
            "0 chambers", "1 chambers", "3 chambers"} <= seen


def test_enumerate_chambers_rank3():
    cols = [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 1, 0),
        (0, 1, 1),
        (1, 0, 1),
    ]
    spec = GradingSpec.from_columns(cols)
    chambers = enumerate_chambers(spec)
    # deterministic output and chamber law: each chamber reproduces itself
    for ch in chambers:
        w = ch.cone.relative_interior_point()
        assert mori_chamber(spec, w).cone == ch.cone
    # pairwise full-dim interiors are disjoint
    for c1, c2 in itertools.combinations(chambers, 2):
        assert intersect(c1.cone, c2.cone).dim() < 3
    # sampling oracle: many random effective classes, each lands in exactly
    # one enumerated chamber (interior samples only)
    rng = random.Random(11)
    eff = effective_cone(spec)
    hits = 0
    for _ in range(200):
        w = tuple(sum(rng.randint(0, 6) * c[i] for c in cols) for i in range(3))
        if eff.membership(w) != "inside":
            continue
        inside = [
            ch for ch in chambers if ch.cone.membership(w) == "inside"
        ]
        boundary = [
            ch for ch in chambers if ch.cone.membership(w) == "boundary"
        ]
        assert len(inside) <= 1
        assert inside or boundary
        hits += 1
    assert hits > 50


def test_enumerate_chambers_partition_2d():
    # chambers of F_2 tile Eff: sorted by angle they chain exactly
    spec = FIRST_MATRIX(2)
    chambers = enumerate_chambers(spec)
    import math

    def angle(v):
        return math.atan2(v[1], v[0])

    spans = sorted(
        (sorted(c.cone.generators, key=angle)[0], sorted(c.cone.generators, key=angle)[-1])
        for c in chambers
    )
    assert spans[0][0] == (1, 0)
    assert spans[-1][1] == (0, 1)
    for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
        assert b1 == a2


def test_enumerate_chambers_identifies_each_chamber_once(monkeypatch):
    """The walk crosses a facet only when the chamber beyond it is not yet
    found: on the ten degrees of acceptance criterion 4b, the chamber of a
    class is found once per chamber (287 times when a sweep identified
    every cell)."""
    calls = []
    real = chambers._chamber

    def counted(spec, table, w):
        calls.append(w)
        return real(spec, table, w)

    monkeypatch.setattr(chambers, "_chamber", counted)
    rng = random.Random(3)
    degrees = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(10)]
    assert len(enumerate_chambers(GradingSpec.from_columns(degrees))) == 145
    assert len(calls) == 145


def surface_grading(rays):
    """The class-group grading of the complete smooth surface whose fan has
    these rays in counterclockwise order."""
    n = len(rays)
    fan = Fan(2, tuple(rays), tuple((i, (i + 1) % n) for i in range(n)))
    return GradingSpec.from_class_group(class_group(fan))


HEXAGON = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
SEVEN_RAYS = [(1, 0), (2, 1), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
EIGHT_RAYS = [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 0), (-1, -1), (0, -1)]


def test_enumerate_chambers_matches_sweep_oracle():
    """The walk against the sweep of the hyperplane arrangement: generators,
    facets, supports and order, on seeded gradings of free rank 4 and 5 with
    degrees of both signs and at most k + 2 degrees, and on the class groups
    of the smooth surfaces with 6 and 7 rays (free rank 4 and 5)."""
    rng = random.Random(25)
    seen = set()
    specs = [
        random_grading(rng, seen, ranks=(k, k), counts=(k, k + 2)) for k in (4, 5) for _ in range(20)
    ]
    specs += [surface_grading(HEXAGON), surface_grading(SEVEN_RAYS)]
    counts = []
    for spec in specs:
        got = enumerate_chambers(spec)
        want = enumerate_chambers_by_sweep(spec)
        assert [(c.cone.generators, c.cone.facets, c.supports) for c in got] == [
            (c.cone.generators, c.cone.facets, c.supports) for c in want
        ], spec
        counts.append(len(got))
    assert counts[-2:] == [18, 50]
    assert sum(n > 2 for n in counts[:-2]) >= 10 and max(counts[:-2]) > 50
    assert {"free rank 4", "free rank 5", "torsion", "zero degree", "repeated degree"} <= seen


def test_enumerate_chambers_eight_ray_surface(monkeypatch):
    """Free rank 6, where the sweep of the arrangement converts some 18,000
    cells: 122 chambers, the chamber of one class each."""
    calls = []
    real = chambers._chamber

    def counted(spec, table, w):
        calls.append(w)
        return real(spec, table, w)

    monkeypatch.setattr(chambers, "_chamber", counted)
    found = enumerate_chambers(surface_grading(EIGHT_RAYS))
    assert len(found) == len(calls) == 122
    assert all(c.full_dimensional for c in found)


def test_enumerate_chambers_chamber_cap(monkeypatch):
    # no free-rank cap: the four unit degrees of Z^4 give one chamber, the orthant
    spec = GradingSpec.from_columns([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert [c.cone.generators for c in enumerate_chambers(spec)] == [
        ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0))
    ]
    # the 145 chambers of criterion 4b pass a cap of 145, not one of 144
    rng = random.Random(3)
    spec = GradingSpec.from_columns([tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(10)])
    monkeypatch.setattr(chambers, "CHAMBER_CAP", 145)
    assert len(enumerate_chambers(spec)) == 145
    monkeypatch.setattr(chambers, "CHAMBER_CAP", 144)
    with pytest.raises(PreconditionError, match="more than 144 chambers"):
        enumerate_chambers(spec)


def test_support_search_capped_before_any_adjugate(monkeypatch):
    calls = []
    real = chambers._adjugate

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(chambers, "_adjugate", counted)
    # 30 degrees at free rank 15: C(30, 15) = 155,117,520 sets of 15 degrees
    unit = [tuple(int(i == j) for i in range(15)) for j in range(15)]
    with pytest.raises(PreconditionError, match="155117520 sets of degrees"):
        semistable_supports(GradingSpec.from_columns(unit * 2), (1,) * 15)
    assert calls == []
    # 14 degrees at free rank 13: 14 sets of 13, and a class on a wall
    # reads its smaller support off them, with no smaller set tried
    spec = GradingSpec.from_columns([u[:13] for u in unit[:13]] + [(1,) * 13])
    w = (1,) + (0,) * 12
    assert semistable_supports(spec, w) == semistable_supports_by_subset_cones(spec, w)
    assert len(calls) == 14


def test_one_adjugate_per_base_per_walk(monkeypatch):
    """A walk takes the adjugate of each set of free_rank degrees once: the
    28 sets of 6 of the eight-ray surface's degrees (3,416 adjugates when
    each chamber took its own) and the 120 sets of 3 of criterion 4b's ten
    degrees (17,400)."""
    calls = []
    real = chambers._adjugate

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(chambers, "_adjugate", counted)
    assert len(enumerate_chambers(surface_grading(EIGHT_RAYS))) == 122
    assert len(calls) == 28
    calls.clear()
    rng = random.Random(3)
    degrees = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(10)]
    assert len(enumerate_chambers(GradingSpec.from_columns(degrees))) == 145
    assert len(calls) == 120


# ---------------------------------------------------------- cox grading


def test_is_cox_first_matrix():
    for n in (0, 1, 2, 5):
        verdict = is_cox_grading(FIRST_MATRIX(n))
        assert verdict.is_cox, (n, verdict)


def test_is_cox_second_matrix_witness():
    verdict = is_cox_grading(SECOND_MATRIX)
    assert not verdict.is_cox
    assert verdict.failed_condition == 2
    # variables 1 and 4 (0-based: 0 and 3): dropping x1 gives
    # cone((1,1),(0,1)); dropping x4 gives cone((1,0),(1,1)); these only
    # share the ray through (1,1)
    assert verdict.witness == (0, 3)
    c1 = cone2((1, 1), (1, 1), (0, 1))
    c4 = cone2((1, 0), (1, 1), (1, 1))
    assert intersect(c1, c4).dim() == 1


def test_is_cox_intersects_pairs_only_when_the_moving_cone_is_thin(monkeypatch):
    """The paper's Cox grading passes condition 2 on one intersection, the
    moving cone; its non-Cox grading still names the pair (0, 3), after
    the moving cone and the pairs (0, 0) to (0, 3)."""
    calls = []
    real = chambers.intersect

    def counted(*cones):
        calls.append(len(cones))
        return real(*cones)

    monkeypatch.setattr(chambers, "intersect", counted)
    assert is_cox_grading(FIRST_MATRIX(1)).is_cox
    assert calls == [4]
    calls.clear()
    verdict = is_cox_grading(SECOND_MATRIX)
    assert (verdict.failed_condition, verdict.witness) == (2, (0, 3))
    assert calls == [4, 2, 2, 2, 2]


def test_is_cox_pn():
    for r in (2, 3, 5):
        spec = GradingSpec.from_columns([(1,)] * r)
        assert is_cox_grading(spec).is_cox


def test_is_cox_condition1_torsion():
    # degrees in Z + Z/2: dropping the first leaves two equal degrees
    # generating an index-2 subgroup
    spec = GradingSpec(free_rank=1, torsion=(2,), degrees=((1, 0), (1, 1), (1, 1)))
    verdict = is_cox_grading(spec)
    assert not verdict.is_cox
    assert verdict.failed_condition == 1
    assert verdict.witness == (0,)


def test_is_cox_condition1_index():
    spec = GradingSpec.from_columns([(1,), (2,), (2,)])
    verdict = is_cox_grading(spec)
    assert not verdict.is_cox
    assert verdict.failed_condition == 1
    assert verdict.witness == (0,)


def test_is_cox_invariant_under_unimodular():
    rng = random.Random(313)
    for _ in range(30):
        k = rng.randint(1, 3)
        r = rng.randint(2, 6)
        cols = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(r)]
        spec = GradingSpec.from_columns(cols)
        v1 = is_cox_grading(spec)
        # random unimodular change of the free coordinates
        t = IntMatrix.identity(k).row_list()
        for _ in range(6):
            i, j = rng.randrange(k), rng.randrange(k)
            if i != j:
                q = rng.randint(-2, 2)
                t[i] = [x + q * y for x, y in zip(t[i], t[j])]
        T = IntMatrix(t)
        assert abs(det(T)) == 1
        cols2 = [tuple(T.apply(c)) for c in cols]
        v2 = is_cox_grading(GradingSpec.from_columns(cols2))
        assert v1.is_cox == v2.is_cox


# ---------------------------------------------------- semistable supports


def test_semistable_all_ones():
    spec = GradingSpec.from_columns([(1,)] * 4)
    assert semistable_supports(spec, (1,)) == [(0,), (1,), (2,), (3,)]


def test_semistable_f1_interior_matches_irrelevant():
    from coxkit.divisors import class_group, irrelevant_monomials
    from coxkit.fans import hirzebruch_fan

    fan = hirzebruch_fan(1)
    cg = class_group(fan)
    spec = GradingSpec.from_class_group(cg)
    mov = moving_cone(spec)
    w = mov.relative_interior_point()
    supports = semistable_supports(spec, w)
    assert all(len(s) == 2 for s in supports)
    assert {frozenset(s) for s in supports} == {
        frozenset(s) for s in irrelevant_monomials(fan)
    }


def test_semistable_wall_dominates_interior():
    # on the wall through (1,1) the semistable locus grows: every interior
    # support contains a wall support, and strictly so for at least one
    spec = FIRST_MATRIX(1)
    wall = semistable_supports(spec, (1, 1))
    interior = semistable_supports(spec, (2, 1))
    for s in interior:
        assert any(set(wmin) <= set(s) for wmin in wall)
    assert any(
        all(set(wmin) < set(s) for s in interior if set(wmin) <= set(s))
        for wmin in wall
    ) or any(len(wmin) < min(len(s) for s in interior) for wmin in wall)


def test_semistable_constant_on_chamber_interior():
    rng = random.Random(515)
    for spec in (FIRST_MATRIX(1), GradingSpec.from_columns([(1,), (1,), (1,)])):
        chambers = enumerate_chambers(spec)
        for ch in chambers:
            base = ch.cone.relative_interior_point()
            ref = semistable_supports(spec, base)
            gens = ch.cone.generators
            for _ in range(10):
                coeffs = [rng.randint(1, 7) for _ in gens]
                w = tuple(
                    sum(c * g[i] for c, g in zip(coeffs, gens))
                    for i in range(spec.free_rank)
                )
                if ch.cone.membership(w) != "inside":
                    continue
                assert semistable_supports(spec, w) == ref


def test_supports_and_chambers_match_subset_cone_oracle():
    """The adjugate test finds the minimal supports that converting every
    subset cone finds, and mori_chamber the intersection of their converted
    cones, on seeded gradings of free rank 1-4 with torsion, zero and
    repeated degrees, at classes inside chambers, on walls and rays, at 0,
    at rational classes and at classes that are not effective."""
    rng = random.Random(2121)
    seen = set()
    for _ in range(90):
        spec = random_grading(rng, seen, ranks=(1, 4), counts=(1, 7))
        k = spec.free_rank
        frees = [spec.free_part(i) for i in range(spec.r)]
        classes = [
            tuple(map(sum, zip(*frees))),
            frees[-1],  # on a ray
            tuple(a + b for a, b in zip(frees[0], frees[-1])),  # often on a wall
            tuple(rng.randint(-2, 3) for _ in range(k)),
            tuple(Fraction(rng.randint(-3, 5), rng.randint(1, 3)) for _ in range(k)),
            (0,) * k,
        ]
        for w in classes:
            try:
                want = semistable_supports_by_subset_cones(spec, w)
            except NotEffective as exc:
                for run in (semistable_supports, mori_chamber):
                    with pytest.raises(NotEffective) as got:
                        run(spec, w)
                    assert str(got.value) == str(exc)
                seen.add("not effective")
                continue
            assert semistable_supports(spec, w) == want, (spec, w)
            ch = mori_chamber(spec, w)
            cone = intersect(*(subset_cone_by_conversion(spec, m) for m in want))
            assert list(ch.supports) == want
            assert (ch.cone.generators, ch.cone.facets) == (cone.generators, cone.facets)
            assert (ch.cone.lineality_dim, ch.cone.dim()) == (cone.lineality_dim, cone.dim())
            if not any(w):
                seen.add("zero class")
            elif any(len(m) < k for m in want):
                seen.add("on a wall")
            elif ch.full_dimensional:
                seen.add("inside a chamber")
    assert seen == {
        "free rank 1",
        "free rank 2",
        "free rank 3",
        "free rank 4",
        "torsion",
        "repeated degree",
        "zero degree",
        "not effective",
        "zero class",
        "on a wall",
        "inside a chamber",
    }


def test_mori_chamber_at_an_interior_class_converts_only_the_chamber(monkeypatch):
    """At a class inside a chamber every minimal support has free_rank
    degrees, and the facets of its simplicial cone are rows of its
    adjugate: mori_chamber converts the intersection and nothing else, and
    asks `_subset_cone` for no cone."""
    rng = random.Random(12)
    specs = [
        GradingSpec.from_columns([(rng.randint(0, 5), rng.randint(1, 5)) for _ in range(12)]),
        GradingSpec.from_columns(
            [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(7)]
        ),
    ]
    calls = []
    real = chambers.dd_convert

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    for spec in specs:
        found = enumerate_chambers(spec)
        assert len(found) >= 5
        monkeypatch.setattr(chambers, "dd_convert", counted)
        for ch in found:
            w = ch.cone.relative_interior_point()
            _subset_cone.cache_clear()
            calls.clear()
            again = mori_chamber(spec, w)
            assert len(calls) == 1 and _subset_cone.cache_info().misses == 0
            assert again.cone.facets == ch.cone.facets and again.supports == ch.supports
            assert all(len(m) == spec.free_rank for m in again.supports)
        monkeypatch.undo()


def test_semistable_requires_effective():
    spec = FIRST_MATRIX(1)
    with pytest.raises(NotEffective):
        semistable_supports(spec, (0, -1))
