"""Tests of the benchmark's oracles: each reproduces a known value from the
paper or from toric geometry and rejects a deliberately wrong answer.

    python3 -m pytest perfbench/test_oracles.py
"""

import math
import random
from fractions import Fraction

import pytest

import oracles as orc
from oracles import Mismatch

F1 = ((1, 0), (1, 0), (1, 1), (0, 1))


# ------------------------------------------------------------ exact ranks


def test_rank_mod_p_known_rank():
    rng = random.Random(5)
    n, r = 30, 17
    a = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(n)]
    b = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(r)]
    rows = [
        [math.factorial(40) * sum(x * b[t][c] for t, x in enumerate(row)) for c in range(n)]
        for row in a
    ]
    assert orc.rank_mod_p(rows) == r
    orc.check_rank_bounds(n, n - r, n - r, r)
    with pytest.raises(Mismatch):  # exact and modular disagree
        orc.check_rank_bounds(n, n - r, n - r + 1, r)
    with pytest.raises(Mismatch):  # rank claimed below the proven bound
        orc.check_rank_bounds(n, n - r + 1, n - r + 1, r)


def test_seven_gon_h0_is_one():
    rows, ncols = orc.vanishing_rows(orc.SEVEN_GON, 7)
    assert len(rows) == 28
    assert orc.nullity_fraction(rows, ncols) == 1  # criterion 7
    assert orc.nullity_fraction(rows[:-1], ncols) != 1  # one condition short


def test_polygon_points_paper_counts():
    assert len(orc.polygon_points(orc.FLAGSHIP_TRIANGLE)) == 1348
    hull = orc.convex_hull(orc.SEVEN_GON)
    assert len(hull) == 7
    assert orc.twice_area(orc.FLAGSHIP_TRIANGLE) == 2652
    assert len(orc.polygon_points(orc.FLAGSHIP_TRIANGLE, 2)) != 1348


# --------------------------------------------------------------- flagship


def test_flagship_curve_annihilated_to_order_52():
    orc.check_flagship_curve()
    with pytest.raises(Mismatch):
        orc.check_flagship_curve(order=53)
    moved = {(a + 60, b): c for (a, b), c in orc.flagship_curve_terms().items()}
    with pytest.raises(Mismatch):  # same order, not on the triangle
        orc.check_flagship_curve(moved)


def forced_payload(m, k=orc.FLAGSHIP_K):
    """The forced vertex of multiple m: the left vertex after translating
    the right one to x = k m - 1, killed by d_x^(k m - 2) d_y."""
    right, left = (50, 0), (-1, 34)
    tx, ty = k * m - 1 - m * right[0], -m * right[1]
    vertex = (m * left[0] + tx, m * left[1] + ty)
    i, j = k * m - 2, 1
    return {
        "dilation": str(m),
        "functional": [str(i), str(j)],
        "order": str(k * m),
        "translation": [str(tx), str(ty)],
        "vertex": [str(x) for x in vertex],
        "vertex_value": str(orc.falling(vertex[0], i) * orc.falling(vertex[1], j)),
    }


def blowup_result():
    return {
        "h0": {"dimension": "1", "order": "52", "mode": "modular"},
        "verified": True,
        "certificate": {
            "payload": {
                "h_self_intersection": "2652",
                "curve_self_intersection": "-1/52",
                "d_dot_c": "0",
                "d_dot_e": "51",
                "forced_vertex_certificates": [
                    {"m": str(m), "payload": forced_payload(m)} for m in range(1, 6)
                ],
            }
        },
    }


def test_forced_vertex_m1_paper_value():
    payload = forced_payload(1)
    assert payload["vertex"] == ["-1", "34"]
    assert payload["vertex_value"] == (
        "-20681583377165097069656573552924042814176796266893148160000000000"
    )
    orc.check_forced_vertex(payload, 1)
    with pytest.raises(Mismatch):
        orc.check_forced_vertex(dict(payload, vertex_value="1"), 1)
    with pytest.raises(Mismatch):  # one order lower kills fewer points
        orc.check_forced_vertex(dict(payload, functional=["48", "1"]), 1)


def test_blowup_report():
    result = blowup_result()
    orc.check_blowup_report(result)
    assert orc.flagship_intersections()["curve_self_intersection"] == Fraction(-1, 52)
    for path, wrong in (
        (("h0", "dimension"), "2"),
        (("certificate", "payload", "curve_self_intersection"), "-1/51"),
        (("certificate", "payload", "d_dot_e"), "52"),
    ):
        bad = blowup_result()
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = wrong
        with pytest.raises(Mismatch):
            orc.check_blowup_report(bad)
    bad = blowup_result()
    del bad["certificate"]["payload"]["forced_vertex_certificates"][-1]
    with pytest.raises(Mismatch):
        orc.check_blowup_report(bad)


def lm_result(**changes):
    out = {
        "ray_count": "254",
        "kernel_ray_count": "10",
        "ray_image_multiset": [{"image": ["1", "0"], "multiplicity": "244"}],
        "images": [["-1", "-6"], ["3", "5"], ["-3", "-1"]],
        "quotient_weights": ["12", "13", "17"],
    }
    out.update(changes)
    return out


def test_lm_report():
    orc.check_lm_report(lm_result())
    for wrong in (
        {"ray_count": "253"},
        {"kernel_ray_count": "11"},
        {"quotient_weights": ["12", "13", "19"]},
        {"images": [["-1", "-6"], ["3", "5"], ["-3", "1"]]},
    ):
        with pytest.raises(Mismatch):
            orc.check_lm_report(lm_result(**wrong))


# ----------------------------------------------------------- Z^2 gradings


def test_z2_f1_two_chambers():
    chambers = orc.z2_chambers(F1)
    assert len(chambers) == 2
    assert set(chambers) == {frozenset({(1, 0), (1, 1)}), frozenset({(1, 1), (0, 1)})}
    assert orc.z2_chamber_of(F1, (2, 1)) == frozenset({(1, 0), (1, 1)})
    assert orc.z2_chamber_of(F1, (2, 2)) == frozenset({(1, 1)})
    assert orc.z2_chamber_of(F1, (2, 1)) != frozenset({(1, 1), (0, 1)})
    with pytest.raises(Mismatch):
        orc.z2_chamber_of(F1, (-1, 1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_z2_hirzebruch_moving_cone(n):
    degrees = ((1, 0), (1, 0), (n, 1), (0, 1))
    assert orc.z2_moving_cone(degrees) == frozenset({(1, 0), orc.primitive((n, 1))})
    assert orc.z2_effective_cone(degrees) == frozenset({(1, 0), (0, 1)})
    assert orc.z2_moving_cone(degrees) != orc.z2_effective_cone(degrees)


def test_z2_paper_cox_gradings():
    assert orc.z2_is_cox(list(F1)) == (True, None, None)
    second = [(1, 0), (1, 1), (1, 1), (0, 1)]
    assert orc.z2_is_cox(second) == (False, 2, (0, 3))  # variables x1 and x4
    assert orc.z2_is_cox([(2, 0), (2, 0), (0, 1), (2, 1)])[1] == 1


def test_z2_semistable_supports():
    # (2,1) lies strictly between (1,0) and (1,1): pairs across it
    assert orc.z2_semistable(list(F1), (2, 1)) == [(0, 2), (0, 3), (1, 2), (1, 3)]
    # on the ray of (1,1): the singleton plus pairs straddling it
    got = orc.z2_semistable(list(F1), (1, 1))
    assert got == [(2,), (0, 3), (1, 3)]
    assert (0, 1) not in got


def test_z2_rejects_non_pointed():
    with pytest.raises(Mismatch):
        orc.z2_rays([(1, 0), (-1, 0), (0, 1)])


# ----------------------------------------------------------- Z^3 gradings


def test_z3_chamber_property():
    e1, e2, e3, f = (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)
    degrees = [e1, e2, e3, f]
    chambers = [[e1, e2, f], [e2, e3, f], [e1, e3, f]]
    rng = random.Random(3)
    samples = [tuple(rng.randint(0, 5) for _ in range(3)) for _ in range(200)]
    samples = [s for s in samples if any(s)]
    orc.check_z3_chambers(degrees, chambers, samples)
    with pytest.raises(Mismatch):  # a chamber missing
        orc.check_z3_chambers(degrees, chambers[:2], samples)
    with pytest.raises(Mismatch):  # the whole cone as one more chamber
        orc.check_z3_chambers(degrees, chambers + [[e1, e2, e3]], samples)


# --------------------------------------------------- toric surfaces, P(w)

P2 = [(1, 0), (0, 1), (-1, -1)]
F1_RAYS = [(1, 0), (0, 1), (-1, 1), (0, -1)]


def test_p2_hyperplane():
    h = [1, 0, 0]
    assert orc.surface_dot(P2, h, h) == 1
    assert orc.surface_positivity(P2, h) == (True, True, True)
    assert orc.surface_h0_nef(P2, [2, 0, 0]) == 6
    assert orc.surface_equivalent(P2, [1, 0, 0], [0, 0, 1])
    assert not orc.surface_equivalent(P2, [1, 0, 0], [0, 0, 2])


def test_f1_exceptional_curve():
    e = [0, 1, 0, 0]  # the ray (0,1): (1,0) + (-1,1) = 1 * (0,1)
    assert orc.surface_dot(F1_RAYS, e, e) == -1
    assert orc.surface_positivity(F1_RAYS, e) == (False, False, False)
    fiber = [1, 0, 0, 0]
    assert orc.surface_positivity(F1_RAYS, fiber) == (True, True, False)
    assert orc.surface_h0_nef(F1_RAYS, fiber) == 2
    with pytest.raises(Mismatch):  # not a smooth counter-clockwise cycle
        orc.surface_b([(1, 0), (-1, 1), (0, 1), (0, -1)])


def test_weighted_12_13_17():
    w = (12, 13, 17)
    assert orc.weighted_dot(w, 2652, 2652) == 2652 == 52 * 51
    assert orc.weighted_h0(w, 2652) == 1348  # lattice points of the triangle
    assert orc.weighted_positivity(w, 2652) == (True, True, True)
    assert orc.weighted_positivity(w, 12) == (True, False, False)
    assert orc.weighted_positivity(w, -1) == (False, False, False)
    assert orc.weighted_h0((1, 1, 1, 1), 3) == math.comb(6, 3)
    assert orc.weighted_h0((1, 1, 2), 2) == 4 != 3


def test_unimodular_map():
    cones = [(0, 1), (1, 2), (0, 2)]
    image = [(0, 1), (1, 0), (-1, -1)]
    orc.check_unimodular_map(((0, 1), (1, 0)), P2, cones, image, cones)
    with pytest.raises(Mismatch):
        orc.check_unimodular_map(((1, 0), (0, 1)), P2, cones, image, [(0, 1), (1, 2), (1, 2)])
    with pytest.raises(Mismatch):
        orc.check_unimodular_map(((2, 0), (0, 1)), P2, cones, image, cones)
    with pytest.raises(Mismatch):
        orc.check_unimodular_map(None, P2, cones, image, cones)
