"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a PASS line with its elapsed time (visible with -s or in
the captured output) and asserts the stated runtime budget.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from helpers import WPS_12_13_17_TRIANGLE, find_gl2z, flagship_curve, int_rank, shoelace

from coxkit.blowup import (
    InterpolationProblem,
    LM10_PROJECTION_MATRIX,
    LM10_V1,
    LM10_V2,
    LM10_V3,
    blowup_certificate,
    derivative_functionals,
    h0,
    lm_projection,
    lm_rays,
    mukai_predicate,
    order_at_e,
    vanishing_entry,
)
from coxkit.chambers import (
    GradingSpec,
    enumerate_chambers,
    is_cox_grading,
    mori_chamber,
    moving_cone,
)
from coxkit.divisors import (
    class_group,
    divisor_polytope,
    intersection_number_nef_surface,
    positivity,
    principal_divisor,
)
from coxkit.fans import (
    fans_unimodular_equivalent,
    hirzebruch_fan,
    normal_fan_with_ample,
    projective_space_fan,
    weighted_projective_fan,
)
from coxkit.cli import main
from coxkit.linalg import RatMatrix, dot, kernel_dimension
from coxkit.polyhedra import (
    dd_convert,
    hilbert_basis,
    lattice_points,
    polytope_from_points,
)

DELTA = WPS_12_13_17_TRIANGLE
DELTA_PRIME = [(-1, 6), (-4, 5), (-3, 1), (-2, 8), (-6, 0), (-7, 0), (0, 3)]


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            status = "PASS" if elapsed < self.seconds else "FAIL (over budget)"
            print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.2f}s / {self.seconds}s)")
            assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s"
        else:
            print(f"ACCEPTANCE {self.name}: FAIL ({elapsed:.2f}s)")
        return False


def test_criterion_1_class_groups():
    with Budget("1 class groups and gradings", 1.0):
        for n in (1, 2, 3):
            cg = class_group(projective_space_fan(n))
            assert cg.rank == 1 and cg.torsion == ()
            assert all(d == (1,) for d in cg.degrees)
        for n in range(4):
            cg = class_group(hirzebruch_fan(n))
            target = [(1, 0), (1, 0), (n, 1), (0, 1)]
            T = find_gl2z(cg.degrees, target)
            assert T is not None, f"no GL(2,Z) change for F_{n}"
        cg = class_group(weighted_projective_fan(12, 13, 17))
        assert cg.rank == 1 and cg.torsion == ()
        assert [d[0] for d in cg.degrees] == [12, 13, 17]


def test_criterion_2_cox_ring_test():
    with Budget("2 polynomial Cox ring test", 1.0):
        first = GradingSpec.from_columns([(1, 0), (1, 0), (1, 1), (0, 1)])
        verdict = is_cox_grading(first)
        assert verdict.is_cox  # the first algebra is a Cox ring
        second = GradingSpec.from_columns([(1, 0), (1, 1), (1, 1), (0, 1)])
        verdict = is_cox_grading(second)
        assert not verdict.is_cox  # while the second one is not
        assert verdict.failed_condition == 2
        assert verdict.witness == (0, 3)  # variables x1 and x4


def test_criterion_3_polytope_fan_roundtrip():
    with Budget("3 polytope/fan roundtrip", 1.0):
        tri = polytope_from_points(DELTA)
        fan, ample = normal_fan_with_ample(tri)
        wps = weighted_projective_fan(12, 13, 17)
        T = fans_unimodular_equivalent(fan, wps)
        assert T is not None
        h2 = intersection_number_nef_surface(fan, ample, ample)
        assert h2 == 2652 == 52 * 51


def test_criterion_4_chambers():
    with Budget("4 chambers of Hirzebruch gradings", 5.0):
        for n in (1, 2, 3):
            spec = GradingSpec.from_columns([(1, 0), (1, 0), (n, 1), (0, 1)])
            mov = moving_cone(spec)
            want = dd_convert(generators=[(1, 0), (n, 1)], ambient_dim=2)
            assert mov == want
            # oracle: intersect the drop-one cones one by one
            from coxkit.polyhedra import intersect

            oracle = None
            for i in range(4):
                gens = [spec.free_part(j) for j in range(4) if j != i]
                c = dd_convert(generators=gens, ambient_dim=2)
                oracle = c if oracle is None else intersect(oracle, c)
            assert mov == oracle
            chambers = enumerate_chambers(spec)
            assert len(chambers) == 2

            # nef chamber equals the toric nef cone, checked pointwise
            fan = hirzebruch_fan(n)
            cg = class_group(fan)
            fan_spec = GradingSpec.from_class_group(cg)
            nef_classes = [
                c
                for c in itertools.product(range(-2, 5), repeat=2)
                if positivity(fan, cg.divisor_with_class(c)).nef
            ]
            ample_class = min(
                c for c in nef_classes if positivity(fan, cg.divisor_with_class(c)).ample
            )
            chamber = mori_chamber(fan_spec, ample_class)
            for c in itertools.product(range(-2, 5), repeat=2):
                in_chamber = chamber.cone.membership(c) != "outside"
                assert in_chamber == (c in nef_classes), (n, c)

        # semiampleness at multiple <= 2 on the stated fans
        for fan in (
            projective_space_fan(2),
            hirzebruch_fan(1),
            hirzebruch_fan(2),
            hirzebruch_fan(3),
            weighted_projective_fan(1, 1, 2),
        ):
            cg = class_group(fan)
            nef_rec = {}
            grid = (
                itertools.product(range(0, 4), repeat=2)
                if cg.rank == 2
                else [(a,) for a in range(0, 5)]
            )
            for c in grid:
                div = cg.divisor_with_class(c)
                rec = positivity(fan, div)
                if rec.nef:
                    assert (
                        rec.basepoint_free
                        or positivity(fan, 2 * div).basepoint_free
                    ), (fan, c)


def test_criterion_4b_chambers_free_rank_3():
    """Ten degrees in [0,4]^3 from seed 3: 145 chambers, found by a walk
    across their facets, one chamber conversion each.  A sweep of the
    hyperplane arrangement with two conversions per cut cell and per extra
    support took 6.4 s on 2 cores (Python 3.11)."""
    rng = random.Random(3)
    degrees = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(10)]
    with Budget("4b chambers of a free-rank-3 grading with 10 degrees", 3.0):
        chambers = enumerate_chambers(GradingSpec.from_columns(degrees))
        assert len(chambers) == 145
        assert all(c.full_dimensional for c in chambers)


def test_criterion_5_interpolation_flagship():
    tri = polytope_from_points(DELTA)
    with Budget("5a h0 with no vanishing (Pick oracle)", 5.0):
        count = h0(InterpolationProblem(tri, 1, 0))
        assert count == 1348
        area = shoelace(tri.vertices)
        b = sum(
            math.gcd(
                abs(int(tri.vertices[i][0]) - int(tri.vertices[(i + 1) % 3][0])),
                abs(int(tri.vertices[i][1]) - int(tri.vertices[(i + 1) % 3][1])),
            )
            for i in range(3)
        )
        assert count == area + Fraction(b, 2) + 1

    with Budget("5b h0 at order 52 (modular, 3 primes)", 30.0):
        prob = InterpolationProblem(tri, 1, 52)
        assert h0(prob, "modular") == 1
        f = flagship_curve()
        assert order_at_e(f) == 52
        pts = prob.points()
        assert set(f.support()) <= set(pts)
        for func in prob.functionals():
            assert sum(c * vanishing_entry(func, p) for (p, c) in f.terms) == 0

    with Budget("5c proof vs Bareiss on a random 200x200 submatrix", 60.0):
        # the oracle shares no code with the proof: plain-int Bareiss on the
        # rows, each divided by its gcd to keep the entries small
        rng = random.Random(20260810)
        funcs = derivative_functionals(52)
        pts = InterpolationProblem(tri, 1, 52).points()
        rsel = rng.sample(range(len(funcs)), 200)
        csel = rng.sample(range(len(pts)), 200)
        rows = [[vanishing_entry(funcs[r], pts[c]) for c in csel] for r in rsel]
        primitive = [[x // (math.gcd(*row) or 1) for x in row] for row in rows]
        assert kernel_dimension(RatMatrix(rows), "modular") == 200 - int_rank(primitive)


def test_exact_h0_flagship_finishes(capsys):
    """The proved h0 at order 52 finishes: no uncapped Bareiss elimination
    of the order-52 matrix runs."""
    with Budget("5d blowup-analyze at order 52", 30.0):
        argv = ["blowup-analyze", "--weights", "12,13,17", "--k", "51",
                "--h0-order", "52", "--json"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["h0"] == {"order": "52", "dimension": "1"}


def test_criterion_5e_refusal_below_the_curve_order(capsys):
    """At k = 26 the curve order 102 has 5253 functionals for 1348 points;
    one GF(p) rank of 1348 at order 53 (1431 x 1348) bounds h0 there, and
    so at 102, by 0, with nothing lifted.  Eliminating order 102 took
    0.82-0.94 s on 2 cores.  The first run, which may load numpy, is not
    timed."""
    argv = ["blowup-analyze", "--weights", "12,13,17", "--k", "26"]
    assert main(argv) == 2
    with Budget("5e blowup-analyze --k 26 refuses", 0.4):
        assert main(argv) == 2
    assert "h0 at order w = 102 is 0" in capsys.readouterr().err


def test_criterion_6_nef_not_semiample_certificate():
    with Budget("6 nef-not-semiample certificate", 10.0):
        cert = blowup_certificate(
            (12, 13, 17), DELTA, (52, flagship_curve()), 51, m_max=5
        )
        assert cert.payload["curve_self_intersection"] == Fraction(-1, 52)
        assert cert.payload["d_dot_c"] == 0
        assert cert.payload["d_dot_e"] == 51
        forced = cert.payload["forced_vertex_certificates"]
        assert len(forced) == 5
        assert all(c.verify() for c in forced)
        assert cert.verify()


def test_criterion_7_delta_prime_pipeline():
    with Budget("7 seven-vertex polygon pipeline", 5.0):
        hull = polytope_from_points(DELTA_PRIME)
        assert len(hull.vertices) == 7
        fan, _ = normal_fan_with_ample(hull)
        assert set(fan.rays) == {
            (0, 1),
            (-1, 3),
            (-2, 3),
            (-3, -1),
            (-2, -1),
            (3, -2),
            (5, -3),
        }
        assert h0(InterpolationProblem(hull, 1, 7), "exact") == 1
        pts = lattice_points(hull, 1)
        ineqs = hull.inequalities()
        interior = [
            p
            for p in pts
            if all(sum(u[i] * p[i] for i in range(2)) + c > 0 for u, c in ineqs)
        ]
        assert len(interior) == 22
        assert 22 - 7 * 6 // 2 == 1  # genus bookkeeping for multiplicity 7


def test_criterion_8_lm_projection():
    with Budget("8 Losev-Manin projection", 1.0):
        from coxkit.linalg import IntMatrix

        rays = lm_rays(10)
        assert len(rays) == 254
        rep = lm_projection(
            10,
            IntMatrix(LM10_PROJECTION_MATRIX),
            LM10_V1,
            LM10_V2,
            LM10_V3,
            (12, 13, 17),
        )
        total = sum(m for _, m in rep.ray_image_multiset) + rep.kernel_ray_count
        assert total == 254
        assert rep.generates
        assert len(rep.relations) >= 1
        assert rep.quotient_weights == (12, 13, 17)


def test_criterion_9_mukai_table():
    with Budget("9 finite generation inequality table", 1.0):
        assert mukai_predicate(3, 8) is True
        assert mukai_predicate(3, 9) is False
        assert mukai_predicate(4, 9) is False
        for k in range(3, 101):
            assert mukai_predicate(2, k) is True


def test_criterion_10_property_suites():
    with Budget("10 randomized property suites", 120.0):
        import test_chambers
        import test_divisors
        import test_polyhedra

        test_polyhedra.test_dual_dual_identity_random()
        test_polyhedra.test_hilbert_generation_and_minimality()
        test_polyhedra.test_lattice_points_dilation_consistency()
        test_divisors.test_polytope_dilation_property()
        test_divisors.test_principal_class_zero_random()
        test_chambers.test_lambda_idempotence_random()
        test_chambers.test_enumerate_chambers_partition_2d()
        test_chambers.test_mori_chamber_idempotent_on_interior()


def test_criterion_11_hilbert_basis_index_5000():
    with Budget("11 Hilbert basis of an index-5000 cone", 10.0):
        gens = [(1, 0, 0), (0, 1, 0), (7, 11, 5000)]
        cone = dd_convert(generators=gens, ambient_dim=3)
        basis = hilbert_basis(cone)
        assert len(basis) == 1112
        assert set(gens) <= set(basis)
        assert all(cone.contains(b) for b in basis)
