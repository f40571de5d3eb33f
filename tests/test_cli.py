import itertools
import json
import math
import os
import pathlib
import random
import time

import pytest

from helpers import (
    LM10_POLYGON_COLUMNS,
    WPS_12_13_17_TRIANGLE,
    find_curve_by_kernel_values,
    order_at_e_oracle,
    wps_polygon,
)

from coxkit import blowup, chambers, divisors, fans, linalg, polyhedra
from coxkit.blowup import (
    blowup_certificate,
    derivative_functionals,
    find_curve,
    order_at_e,
    vanishing_entry,
)
from coxkit.cli import canonical_json, encode, main, parse_number, run
from coxkit.errors import PreconditionError
from coxkit.polyhedra import polytope_from_points

HERE = pathlib.Path(__file__).resolve().parent
DATA = HERE / "data"
GOLDENS = HERE / "goldens"


def data(name):
    return str(DATA / name)


# ------------------------------------------------------------ serialization


def test_encode_numbers_as_strings():
    from fractions import Fraction

    doc = encode({"a": 2**70, "b": Fraction(-1, 52), "c": [1, Fraction(4, 2)]})
    assert doc == {"a": str(2**70), "b": "-1/52", "c": ["1", "2"]}


def test_parse_number():
    from fractions import Fraction

    assert parse_number("12") == 12
    assert parse_number("-3/4") == Fraction(-3, 4)
    assert parse_number(7) == 7


# ----------------------------------------------------------------- commands


def test_classgroup_p2():
    code, report, _ = run(["classgroup", "--fan", data("fan_p2.json")])
    assert code == 0
    assert report["result"]["rank"] == 1
    assert report["result"]["degrees"] == [[1], [1], [1]]


def test_classgroup_golden():
    code, report, _ = run(
        [
            "classgroup",
            "--fan",
            data("fan_p2.json"),
            "--expect",
            str(GOLDENS / "classgroup_p2.json"),
        ]
    )
    assert code == 0


def test_golden_mismatch_exits_3():
    code, report, _ = run(
        [
            "classgroup",
            "--fan",
            data("fan_f1.json"),
            "--expect",
            str(GOLDENS / "classgroup_p2.json"),
        ]
    )
    assert code == 3
    assert report.get("golden_mismatch")


def test_bad_input_exits_1():
    code, report, _ = run(["classgroup", "--fan", data("does_not_exist.json")])
    assert code == 1
    code, report, _ = run(["blowup-analyze", "--weights", "2,3", "--k", "4"])
    assert code == 1  # a polygon needs three weights


def test_precondition_exits_2():
    code, report, _ = run(["blowup-analyze", "--weights", "12,13,17", "--k", "50"])
    assert code == 2
    assert "D.C" in report["error"]
    code, report, _ = run(
        ["sections", "--fan", data("fan_p2.json"), "--divisor", "1,2"]
    )
    assert code == 2  # wrong coefficient count


def test_unknown_subcommand_exits_1():
    code, _, _ = run(["no-such-command"])
    assert code == 1


def test_help_prints_only_the_help(capsys):
    assert main(["classgroup", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage:")
    assert captured.err == ""


def test_usage_error_printed_once(capsys):
    assert main(["classgroup", "--fan", data("fan_p2.json"), "--no-such-flag"]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert "unrecognized arguments: --no-such-flag" in err
    assert "argument parsing failed" not in err


def test_deterministic_reports():
    argv = ["chambers", "--grading", data("grading_f1.json")]
    code1, rep1, _ = run(argv)
    code2, rep2, _ = run(argv)
    assert code1 == code2 == 0
    assert canonical_json(rep1) == canonical_json(rep2)


def test_cox_grading_roundtrip(tmp_path):
    code, report, _ = run(["cox-grading", "--fan", data("fan_f1.json")])
    assert code == 0
    doc = tmp_path / "grading.json"
    doc.write_text(canonical_json(report["result"]))
    code2, rep2, _ = run(["eff", "--grading", str(doc)])
    assert code2 == 0
    assert len(rep2["result"]["cone"]["generators"]) == 2


def test_mov_golden():
    code, report, _ = run(
        [
            "mov",
            "--grading",
            data("grading_f1.json"),
            "--expect",
            str(GOLDENS / "mov_f1.json"),
        ]
    )
    assert code == 0
    gens = report["result"]["cone"]["generators"]
    assert sorted(tuple(g) for g in gens) == [(1, 0), (1, 1)]


def test_chamber_of_class():
    code, report, _ = run(
        ["chamber", "--grading", data("grading_f1.json"), "--class", "2,1"]
    )
    assert code == 0
    gens = report["result"]["cone"]["generators"]
    assert sorted(tuple(g) for g in gens) == [(1, 0), (1, 1)]
    assert report["result"]["full_dimensional"] is True
    # the degrees are (1,0), (1,0), (1,1), (0,1): (2,1) needs one of the
    # first two with one of the last two, and any superset of such a pair
    assert report["result"]["defining_subsets"] == [
        [0, 2],
        [0, 3],
        [1, 2],
        [1, 3],
        [0, 1, 2],
        [0, 1, 3],
        [0, 2, 3],
        [1, 2, 3],
        [0, 1, 2, 3],
    ]


def test_chamber_defining_subsets_capped(tmp_path):
    # with 24 degrees (1,) every nonempty subset defines the chamber of 1:
    # 2^24 - 1 sets, refused past the cap instead of listed
    doc = tmp_path / "ones.json"
    doc.write_text(json.dumps({"free_rank": 1, "torsion": [], "degrees": [[1]] * 24}))
    code, report, _ = run(["chamber", "--grading", str(doc), "--class", "1"])
    assert code == 2
    assert "defining subsets" in report["error"]


def test_chambers_golden():
    code, report, _ = run(
        [
            "chambers",
            "--grading",
            data("grading_f1.json"),
            "--expect",
            str(GOLDENS / "chambers_f1.json"),
        ]
    )
    assert code == 0
    assert report["result"]["count"] == 2


def test_chambers_above_free_rank_3(tmp_path):
    """The class group of the hexagon surface has free rank 4 and 18
    chambers; its chambers still cannot be plotted.  A grading whose
    supports need more than SUPPORT_SUBSETS_CAP sets of degrees exits 2
    before any set is tried."""
    code, report, _ = run(["chambers", "--grading", data("grading_hexagon.json")])
    assert code == 0 and report["result"]["count"] == 18
    code, report, _ = run(["plot", "--chambers", data("grading_hexagon.json")])
    assert code == 2 and "free rank exactly 2" in report["error"]
    # 30 degrees at free rank 15: C(30, 15) = 155,117,520 sets of 15
    doc = tmp_path / "rank15.json"
    unit = [[int(i == j) for i in range(15)] for j in range(15)]
    doc.write_text(json.dumps({"free_rank": 15, "torsion": [], "degrees": unit * 2}))
    start = time.perf_counter()
    code, report, _ = run(["chamber", "--grading", str(doc), "--class", ",".join(["1"] * 15)])
    assert code == 2 and "155117520 sets of degrees" in report["error"], report
    assert time.perf_counter() - start < 1


def test_is_cox_both_matrices():
    code, report, _ = run(["is-cox-grading", "--grading", data("grading_f1.json")])
    assert code == 0 and report["result"]["is_cox"] is True
    code, report, _ = run(
        [
            "is-cox-grading",
            "--grading",
            data("grading_second.json"),
            "--expect",
            str(GOLDENS / "is_cox_second.json"),
        ]
    )
    assert code == 0
    assert report["result"]["is_cox"] is False
    assert report["result"]["witness"] == [0, 3]


def test_hilbert_basis_cmd():
    code, report, _ = run(
        [
            "hilbert-basis",
            "--cone",
            data("cone_oblique.json"),
            "--expect",
            str(GOLDENS / "hilbert_oblique.json"),
        ]
    )
    assert code == 0
    assert sorted(tuple(b) for b in report["result"]["basis"]) == [
        (1, 0),
        (1, 1),
        (1, 2),
    ]


def test_sections_golden():
    code, report, _ = run(
        [
            "sections",
            "--fan",
            data("fan_p2.json"),
            "--divisor",
            "0,0,1",
            "--expect",
            str(GOLDENS / "sections_p2_h.json"),
        ]
    )
    assert code == 0
    assert report["result"]["dimension"] == 3


def test_positivity_cmd():
    code, report, _ = run(
        ["positivity", "--fan", data("fan_p2.json"), "--divisor", "0,0,1"]
    )
    assert code == 0
    assert report["result"] == {"basepoint_free": True, "nef": True, "ample": True}


def test_section_ring_cmd():
    code, report, _ = run(
        ["section-ring", "--fan", data("fan_p2.json"), "--divisor", "0,0,1"]
    )
    assert code == 0
    assert len(report["result"]["generators"]) == 3


def test_veronese_cmd():
    code, report, _ = run(
        [
            "veronese",
            "--degree-matrix",
            "1,1",
            "--target-cone",
            data("cone_positive_ray.json"),
            "--sublattice",
            "2",
        ]
    )
    assert code == 0
    gens = sorted(tuple(g) for g in report["result"]["generators"])
    assert gens == [(0, 2), (1, 1), (2, 0)]


def test_irrelevant_cmd():
    code, report, _ = run(["irrelevant", "--fan", data("fan_f1.json")])
    assert code == 0
    fam = {frozenset(s) for s in report["result"]["supports"]}
    assert fam == {
        frozenset({0, 2}),
        frozenset({0, 3}),
        frozenset({1, 2}),
        frozenset({1, 3}),
    }


def test_intersect_nef_cmd():
    code, report, _ = run(
        ["intersect-nef", "--fan", data("fan_p2.json"), "--d1", "0,0,1", "--d2", "0,0,2"]
    )
    assert code == 0
    assert report["result"]["intersection_number"] == 2


@pytest.mark.parametrize(
    "golden",
    [
        "positivity_p112.json",
        "positivity_f1_ample.json",
        "intersect_nef_p112.json",
        "intersect_nef_f1.json",
    ],
)
def test_positivity_and_intersection_goldens(golden):
    from make_goldens import CASES

    code, report, _ = run(CASES[golden] + ["--expect", str(GOLDENS / golden)])
    assert code == 0


@pytest.mark.parametrize("golden", sorted(p.name for p in GOLDENS.iterdir()))
def test_every_golden(golden):
    """Each file under tests/goldens/ is what its make_goldens case prints."""
    from make_goldens import CASES, SVG_CASES

    if golden.endswith(".svg"):
        code, report, _ = run(SVG_CASES[golden])
        assert code == 0
        assert report["svg"] == (GOLDENS / golden).read_text()
    else:
        code, report, _ = run(CASES[golden] + ["--expect", str(GOLDENS / golden)])
        assert code == 0, report


def test_blowup_analyze_golden():
    code, report, _ = run(
        [
            "blowup-analyze",
            "--weights",
            "12,13,17",
            "--k",
            "51",
            "--m-max",
            "5",
            "--expect",
            str(GOLDENS / "blowup_12_13_17.json"),
        ]
    )
    assert code == 0
    res = report["result"]
    assert res["verdict"] == "not a Mori dream space (paper-level conclusion)"
    assert res["verified"] is True
    from fractions import Fraction

    assert res["certificate"]["payload"]["curve_self_intersection"] == Fraction(-1, 52)


def test_mukai_golden():
    code, report, _ = run(
        ["mukai", "--r", "3", "--n", "9", "--expect", str(GOLDENS / "mukai_3_9.json")]
    )
    assert code == 0
    assert report["result"]["finitely_generated"] is False


def test_lm_project_golden():
    code, report, _ = run(
        ["lm-project", "--n", "10", "--expect", str(GOLDENS / "lm_project_10.json")]
    )
    assert code == 0
    assert report["result"]["quotient_weights"] == [12, 13, 17]
    assert report["result"]["ray_count"] == 254


def test_plot_chambers_golden():
    code, report, _ = run(["plot", "--chambers", data("grading_f1.json")])
    assert code == 0
    assert report["svg"] == (GOLDENS / "chambers_f1.svg").read_text()
    assert report["svg"].startswith("<svg")


def test_plot_chambers_enumerates_once(monkeypatch):
    from coxkit import chambers, svg

    calls = []
    real = chambers.enumerate_chambers

    def counted(spec):
        calls.append(spec)
        return real(spec)

    # also replace any copy of the name bound in the renderer
    monkeypatch.setattr(chambers, "enumerate_chambers", counted)
    monkeypatch.setattr(svg, "enumerate_chambers", counted, raising=False)
    code, report, _ = run(["plot", "--chambers", data("grading_f1.json")])
    assert code == 0
    assert len(calls) == 1
    assert report["result"]["chamber_count"] == len(real(calls[0]))
    assert report["svg"] == (GOLDENS / "chambers_f1.svg").read_text()


def test_plot_polygon_highlight_golden():
    code, report, _ = run(
        [
            "plot",
            "--polygon",
            data("polytope_flagship.json"),
            "--points",
            "49,0;50,0",
        ]
    )
    assert code == 0
    assert report["svg"] == (GOLDENS / "polygon_flagship.svg").read_text()


def test_plot_square_no_overlay_golden():
    code, report, _ = run(["plot", "--polygon", data("polytope_square.json")])
    assert code == 0
    assert report["svg"] == (GOLDENS / "polygon_square.svg").read_text()


def test_main_writes_svg(tmp_path, capsys):
    out = tmp_path / "fig.svg"
    code = main(["plot", "--chambers", data("grading_f1.json"), "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("<svg")
    captured = capsys.readouterr()
    assert "chamber plot" in captured.out


def test_main_json_output(capsys):
    code = main(["mukai", "--r", "2", "--n", "10", "--json"])
    assert code == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["result"]["finitely_generated"] is True


def test_main_reads_abbreviated_flags(tmp_path, capsys):
    """argparse accepts unique prefixes of --json and --out, and so must
    the output handling."""
    assert main(["classgroup", "--fan", data("fan_f1.json"), "--js"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["rank"] == "2"
    out = tmp_path / "fig.svg"
    assert main(["plot", "--polygon", data("polytope_square.json"), "--ou", str(out)]) == 0
    assert out.read_text() == (GOLDENS / "polygon_square.svg").read_text()
    assert capsys.readouterr().out == "polygon plot with 4 vertices\n"


def test_blowup_h0_at_order_one():
    code, report, _ = run(
        [
            "blowup-analyze",
            "--weights",
            "12,13,17",
            "--k",
            "51",
            "--m-max",
            "1",
            "--h0-order",
            "1",
        ]
    )
    assert code == 0
    assert report["result"]["h0"] == {"order": 1, "dimension": 1347}


def test_blowup_h0_proof_beside_result(capsys):
    """The proof of h0 at order 52 sits beside the result: one prime gives
    the upper bound 1 and one exactly checked kernel vector the lower."""
    argv = ["blowup-analyze", "--weights", "12,13,17", "--k", "51", "--m-max", "1",
            "--h0-order", "52", "--json"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["h0"] == {"order": "52", "dimension": "1"}
    proof = report["h0_proof"]
    assert proof["upper_bound"] == proof["lower_bound"] == proof["kernel_vectors"] == "1"
    assert proof["prime"] == "1048583" and proof["rank_mod_p"] == "1347"
    assert proof["rejected_primes"] == []


@pytest.mark.parametrize("order, eliminations", [("52", 1), ("51", 2)])
def test_blowup_analyze_elimination_count(order, eliminations, monkeypatch):
    """The proof that finds the curve is reused as h0 at the curve's order
    52, so the flagship command runs one GF(p) elimination; h0 at any
    other order runs a second one."""
    calls = []
    rank_mod = linalg.int_rank_mod

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return rank_mod(*args, **kwargs)

    monkeypatch.setattr(linalg, "int_rank_mod", counted)
    code, report, _ = run(["blowup-analyze", "--weights", "12,13,17", "--k", "51",
                           "--m-max", "1", "--h0-order", order])
    assert code == 0, report
    assert len(calls) == eliminations, calls


def test_blowup_analyze_lists_only_the_h0_points(monkeypatch):
    """The forced-vertex checks count the lattice points of m P column by
    column and list none of them: the flagship command lists only the
    1,348 points of P for its proof, twice."""
    listed = []
    original = polyhedra.lattice_points

    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        listed.append(len(out))
        return out

    for module in (polyhedra, blowup):
        monkeypatch.setattr(module, "lattice_points", counted)
    code, report, _ = run(["blowup-analyze", "--weights", "12,13,17", "--k", "51",
                           "--m-max", "5", "--h0-order", "52"])
    assert code == 0, report
    assert 0 < sum(listed) <= 2696, listed


def test_flagship_conversion_and_smith_form_counts(monkeypatch):
    """The flagship command converts each polytope's cone once and reads
    its facets and dimension off it: at most 21 cone conversions and 5
    Smith forms from a cold fan cache."""
    calls = {"dd_convert": 0, "smith_normal_form": 0}
    for name, home in (("dd_convert", polyhedra), ("smith_normal_form", linalg)):
        real = getattr(home, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in (linalg, polyhedra, fans, divisors, chambers, blowup):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    fans.fan_predicates.cache_clear()
    code, report, _ = run(["blowup-analyze", "--weights", "12,13,17", "--k", "51",
                           "--h0-order", "52"])
    assert code == 0, report
    assert calls["dd_convert"] <= 21 and calls["smith_normal_form"] <= 5, calls


def killed_below(f, w):
    """Whether every functional of order < w annihilates f, summed term by
    term with exact falling factorials."""
    return all(
        sum(c * vanishing_entry(func, p) for p, c in f.terms) == 0
        for func in derivative_functionals(w)
    )


def found_curve_polygons():
    """Two fixed lattice polygons and 38 seeded ones in [-3, 3]^2."""
    rng = random.Random(12)
    polygons = [
        # 3 conditions on 4 points: the proof's one vector is (1 - y)^2
        [(0, 0), (1, 0), (0, 2)],
        # y^-2 (1 - y)^6, C^2 = -1/6, and every forced vertex holds
        [(-1, 4), (0, -2), (4, 1), (0, 4)],
    ]
    while len(polygons) < 40:
        pts = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(3, 5))]
        if polytope_from_points(pts).dim() == 2:
            polygons.append(pts)
    return polygons


def test_found_curve(tmp_path):
    """The curve comes from --k alone.  The flagship triangle moved by
    (5, -7) verifies at w = 52 with the golden's intersection numbers.  On
    seeded small lattice polygons at every k in 1..H^2, and on two fixed
    ones, `find_curve` and `blowup_certificate` refuse or give a curve of
    order w that every functional of lower order kills."""
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(
        {"vertices": [[a + 5, b - 7] for a, b in WPS_12_13_17_TRIANGLE]}
    ))
    code, report, _ = run(["blowup-analyze", "--weights", "12,13,17", "--k", "51",
                           "--polygon", str(moved)])
    assert code == 0, report
    assert report["result"]["verified"] is True
    payload = report["result"]["certificate"]["payload"]
    golden = json.loads((GOLDENS / "blowup_12_13_17.json").read_text())
    for key in ("curve_order", "k", "h_self_intersection",
                "curve_self_intersection", "d_dot_c", "d_dot_e"):
        assert encode(payload[key]) == golden["certificate"]["payload"][key]
    assert payload["curve_order"] == 52

    found = verified = 0
    for pts in found_curve_polygons():
        hull = polytope_from_points(pts)
        for k in range(1, int(2 * hull.area()) + 1):
            try:
                w, f, proof = find_curve(hull, k)
            except PreconditionError:
                continue
            found += 1
            assert proof.nullity == 1 and w == 2 * hull.area() / k
            assert order_at_e(f) == w and killed_below(f, w)
            try:
                cert = blowup_certificate(None, hull, (w, f), k)
            except PreconditionError:
                continue
            assert cert.verify()
            verified += 1
    assert found > 5 and verified >= 1

    delta = tmp_path / "delta.json"
    delta.write_text(json.dumps(
        {"vertices": [list(v) for v in polytope_from_points(LM10_POLYGON_COLUMNS).vertices]},
        default=int,
    ))
    for k in ("6", "7", "8"):
        code, report, _ = run(["blowup-analyze", "--polygon", str(delta), "--k", k])
        assert code == 2, report


def test_find_curve_matches_kernel_values_oracle(monkeypatch):
    """On `test_found_curve`'s polygons at every k in 1..H^2, `find_curve`
    gives the same (w, f, nullity), or the same refusal, as the kernel
    values route it replaced (`find_curve_by_kernel_values`), which proved
    h0 at the least order reaching the point count and then the nullity
    of that kernel's values.  The rank bound at order low + 1 decides some
    of these pairs by itself."""
    bounds = []
    real = blowup.int_rank_mod
    monkeypatch.setattr(blowup, "int_rank_mod",
                        lambda op, p: bounds.append(op.shape) or real(op, p))

    def outcome(find, hull, k):
        try:
            w, f, proof = find(hull, k)
        except PreconditionError as exc:
            return type(exc), str(exc)
        return w, f, proof.nullity

    pairs = 0
    for pts in found_curve_polygons():
        hull = polytope_from_points(pts)
        for k in range(1, int(2 * hull.area()) + 1):
            got = outcome(find_curve, hull, k)
            assert got == outcome(find_curve_by_kernel_values, hull, k), (pts, k)
            pairs += 1
    assert pairs == 558 and len(bounds) >= 10


def test_find_curve_refuses_without_lifting(monkeypatch):
    """P(9, 13, 14) at k = 21 asks for order w = 78 on 838 points.  The
    GF(p) rank at order 42, one past the least order reaching the point
    count, is 695, so no bound holds there and order 78 is proved itself:
    its 3081 x 838 matrix has full rank, and nothing is lifted.  The
    kernel values route refused at LIFTING_ENTRY_CAP instead: its proof at
    order 41 had 159 kernel vectors to lift."""
    code, report, _ = run(["blowup-analyze", "--weights", "9,13,14", "--k", "21"])
    assert code == 2 and "h0 at order w = 78 is 0" in report["error"], report
    shapes = []
    real = linalg.int_rank_mod

    def spy(op, p):
        shapes.append(op.shape)
        return real(op, p)

    monkeypatch.setattr(linalg, "int_rank_mod", spy)
    monkeypatch.setattr(blowup, "int_rank_mod", spy)
    with pytest.raises(PreconditionError, match="h0 at order w = 78 is 0"):
        find_curve(blowup.least_width_images(wps_polygon(9, 13, 14), 21)[0], 21)
    assert shapes == [(903, 838), (3081, 838)]


def test_flagship_images_verify_alike(tmp_path):
    """The raw triangle of the weights (12, 13, 17) and seeded
    GL2(Z) images of the flagship triangle, each translated, given through
    --polygon, all verify at w = 52 with the golden's result, byte for
    byte: every polygon is moved to the same least-width image first.  The
    raw triangle exited 2 when the forced vertex was found in the given
    coordinates."""
    golden = (GOLDENS / "blowup_12_13_17.json").read_text()
    rng = random.Random(16)
    polygons = [[(0, 0), (221, -39), (0, 12)]]
    while len(polygons) < 5:
        a, b, c, d = rng.choice([(1, 0, 0, 1), (0, 1, 1, 0)])
        for _ in range(4):
            t = rng.randint(-3, 3)
            if rng.random() < 0.5:
                a, b = a + t * c, b + t * d
            else:
                c, d = c + t * a, d + t * b
        tx, ty = rng.randint(-99, 99), rng.randint(-99, 99)
        polygons.append(
            [(a * x + b * y + tx, c * x + d * y + ty) for x, y in WPS_12_13_17_TRIANGLE]
        )
    for i, vertices in enumerate(polygons):
        path = tmp_path / f"image{i}.json"
        path.write_text(json.dumps({"vertices": vertices}))
        code, report, _ = run(["blowup-analyze", "--weights", "12,13,17", "--k", "51",
                               "--m-max", "5", "--polygon", str(path)])
        assert code == 0, (vertices, report)
        assert canonical_json(report["result"]) == golden, vertices


def test_weight_triples_verify_or_refuse():
    """`blowup-analyze --weights` alone, on seeded pairwise-coprime triples
    at a seeded k with k | abc and k < H^2/k <= the least width, and on
    (12, 13, 17) at k = 51, exits 0 with a verified certificate or 2, never
    with a traceback.  Each curve that `find_curve` finds on the same
    polygon lies on it with the stated order by the falling-factorial
    oracle, and each certificate verifies."""
    rng = random.Random(16)
    cases = [((12, 13, 17), 51)]
    while len(cases) < 12:
        weights = tuple(sorted(rng.randint(1, 15) for _ in range(3)))
        if any(math.gcd(x, y) > 1 for x, y in itertools.combinations(weights, 2)):
            continue
        h2 = math.prod(weights)
        vertices = blowup.least_width_images(wps_polygon(*weights), 1)[0]
        least = sum(max(v[i] for v in vertices) - min(v[i] for v in vertices) for i in (0, 1))
        ks = [k for k in range(1, h2 + 1) if h2 % k == 0 and k < h2 // k <= least]
        if ks:
            cases.append((weights, rng.choice(ks)))
    found = verified = 0
    for weights, k in cases:
        code, report, _ = run(["blowup-analyze", "--weights", ",".join(map(str, weights)),
                               "--k", str(k), "--m-max", "2"])
        assert code in (0, 2), (weights, k, report)
        poly = polyhedra.polytope_from_points(
            blowup.least_width_images(wps_polygon(*weights), k)[0]
        )
        try:
            w, f, _ = find_curve(poly, k)
            found += 1
            assert order_at_e_oracle(f) == w and all(map(poly.contains, f.support()))
            cert = blowup_certificate(weights, poly, (w, f), k, m_max=2)
        except PreconditionError as exc:
            assert code == 2 and report["error"] == str(exc), (weights, k)
            continue
        assert code == 0 and report["result"]["verified"] is True and cert.verify()
        verified += 1
    assert found >= 5 and verified == 1, (found, verified)


def test_large_triples_refused_at_caps():
    """P(40, 41, 43) at k = 164 asks for a curve of order 430 on a polygon
    of 35,323 lattice points: the first proof it needs, at order 266, is
    refused at INTERPOLATION_ENTRY_CAP before any point is listed.  So is
    P(2^10, 3^10, 5^10) at k = 10^7, whose least-width triangle is 12.5
    million columns wide: its points are counted from its area.  The
    polygon of P(1, 1, 10^6) has widths 1 and 10^6 in its reduced basis,
    and would have about 4 * 10^6 least-width images: it is refused at
    WIDTH_RATIO_CAP before any is listed."""
    for weights, k, cap in (("40,41,43", "164", "INTERPOLATION_ENTRY_CAP"),
                            ("1024,59049,9765625", "10000000", "INTERPOLATION_ENTRY_CAP"),
                            ("1,1,1000000", "1000", "WIDTH_RATIO_CAP")):
        start = time.perf_counter()
        code, report, _ = run(["blowup-analyze", "--weights", weights, "--k", k])
        assert code == 2 and cap in report["error"], report
        assert time.perf_counter() - start < 2


TRIANGLE = [[0, 0], [1, 0], [0, 1]]
# Malformed documents, written to files named after their keys; an argument
# equal to a key is replaced by the path of its file.
MALFORMED_DOCUMENTS = {
    "TWO_FIELD_CURVE": {
        "vertices": TRIANGLE, "curve_terms": [[0, 0, "1"], [1, 0]], "curve_order": 1,
    },
    "CURVE_TERMS_NUMBER": {"vertices": TRIANGLE, "curve_terms": 5, "curve_order": 1},
    "CONE_GENERATORS_NUMBER": {"ambient_dim": 2, "generators": 5},
    "LIST_DOCUMENT": [[1, 0], [0, 1]],
    "MATRIX_WITHOUT_V2": {"matrix": [[1, 0], [0, 1]], "v1": [1, 0], "v3": [0, 1]},
    "ZERO_DENOMINATOR": {"vertices": [[0, 0], ["1/0", 0], [0, 1]]},
    "RAGGED_VERTICES": {"vertices": [[0, 0], [1]]},
    "ZERO_TORSION": {"free_rank": 1, "torsion": [0], "degrees": [[1, 0], [1, 1]]},
    "LARGE_TRIANGLE": {"vertices": [[0, 0], [1000, 0], [0, 1000]]},  # 501,501 points
}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["veronese", "--degree-matrix", "1,x", "--target-cone",
          data("cone_positive_ray.json")], 1),
        (["veronese", "--degree-matrix", "1,1;2", "--target-cone",
          data("cone_positive_ray.json")], 1),
        (["plot", "--polygon", data("polytope_square.json"), "--points", "1,a"], 1),
        (["plot", "--polygon", data("polytope_square.json"), "--points", "1"], 1),
        (["plot", "--polygon", data("polytope_square.json"), "--points", "1,2;3"], 1),
        (["plot", "--polygon", data("polytope_square.json"), "--points", "1,2,3"], 1),
        (["blowup-analyze", "--polygon", "TWO_FIELD_CURVE", "--k", "1"], 1),
        (["blowup-analyze", "--polygon", "CURVE_TERMS_NUMBER", "--k", "1"], 1),
        (["hilbert-basis", "--cone", "CONE_GENERATORS_NUMBER"], 1),
        (["hilbert-basis", "--cone", "LIST_DOCUMENT"], 1),
        (["veronese", "--degree-matrix", "1,1", "--target-cone", "LIST_DOCUMENT"], 1),
        (["lm-project", "--n", "10", "--matrix", "MATRIX_WITHOUT_V2"], 1),
        (["lm-project", "--n", "10", "--matrix", "LIST_DOCUMENT"], 1),
        (["lm-project", "--n", "10", "--weights", "1,2"], 1),
        (["lm-project", "--n", "10", "--weights", "1,2,3,5"], 1),
        (["plot", "--polygon", "LARGE_TRIANGLE"], 2),
        (["sections", "--fan", data("fan_p2.json"), "--divisor", "0,0,2000"], 2),
        (["plot", "--polygon", "ZERO_DENOMINATOR"], 1),
        (["plot", "--polygon", "RAGGED_VERTICES"], 1),
        (["blowup-analyze", "--polygon", "RAGGED_VERTICES", "--k", "1"], 1),
        (["blowup-analyze", "--weights", "12,13,17", "--k", "0"], 2),
        (["blowup-analyze", "--weights", "12,13,17", "--k", "-51"], 2),
        (["blowup-analyze", "--weights", "12,13,17", "--k", "51", "--m-max", "0"], 2),
        (["blowup-analyze", "--weights", "12,13,17", "--k", "51", "--m-max", "35"], 2),
        (["chambers", "--grading", "ZERO_TORSION"], 1),
        (["chamber", "--grading", "ZERO_TORSION", "--class", "1"], 1),
        (["is-cox-grading", "--grading", "ZERO_TORSION"], 1),
        (["eff", "--grading", "ZERO_TORSION"], 1),
        (["mov", "--grading", "ZERO_TORSION"], 1),
        (["plot", "--chambers", "ZERO_TORSION"], 1),
        (["positivity", "--fan", data("fan_octahedron.json"), "--divisor",
          "1,1,1,1,1,1,1,1"], 2),
        (["intersect-nef", "--fan", data("fan_p3.json"), "--d1", "0,0,0,1",
          "--d2", "0,0,0,1"], 2),
        (["intersect-nef", "--fan", data("fan_half_plane.json"), "--d1", "1,1,1",
          "--d2", "1,1,1"], 2),
    ],
    ids=["veronese-entry", "veronese-ragged", "plot-points", "plot-point-one-coordinate",
         "plot-points-ragged", "plot-point-three-coordinates", "curve-terms",
         "curve-terms-number", "cone-generators-number", "cone-list",
         "veronese-cone-list", "lm-matrix-missing-v2", "lm-matrix-list",
         "lm-two-weights", "lm-four-weights", "plot-points-past-cap",
         "sections-points-past-cap",
         "polytope-zero-denominator", "plot-ragged-vertices",
         "blowup-ragged-vertices", "blowup-k-zero", "blowup-k-negative",
         "blowup-m-max-zero", "blowup-vertex-value-too-long", "chambers-zero-torsion",
         "chamber-zero-torsion", "is-cox-zero-torsion", "eff-zero-torsion",
         "mov-zero-torsion", "plot-zero-torsion",
         "positivity-not-simplicial", "intersect-not-surface", "intersect-not-complete"],
)
def test_malformed_input_reports_error(argv, code, tmp_path, capsys):
    paths = {}
    for name, doc in MALFORMED_DOCUMENTS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    argv = [str(paths.get(arg, arg)) for arg in argv]
    assert main(argv) == code
    assert capsys.readouterr().err.startswith("error: ")
