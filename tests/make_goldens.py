"""Regenerate the golden files under tests/goldens/.

Run `python3 tests/make_goldens.py` from the repository root after an
intentional output format change.  Golden VALUES are independently
asserted by the module test suites; these files only freeze the
serialization.
"""

import pathlib
import sys

from coxkit.cli import canonical_json, run

HERE = pathlib.Path(__file__).resolve().parent
DATA = HERE / "data"
GOLDENS = HERE / "goldens"

CASES = {
    "classgroup_p2.json": ["classgroup", "--fan", str(DATA / "fan_p2.json")],
    "classgroup_f1.json": ["classgroup", "--fan", str(DATA / "fan_f1.json")],
    "mov_f1.json": ["mov", "--grading", str(DATA / "grading_f1.json")],
    "chambers_f1.json": ["chambers", "--grading", str(DATA / "grading_f1.json")],
    "chamber_f1_2_1.json": [
        "chamber",
        "--grading",
        str(DATA / "grading_f1.json"),
        "--class",
        "2,1",
    ],
    "chamber_f1_1_1.json": [
        "chamber",
        "--grading",
        str(DATA / "grading_f1.json"),
        "--class",
        "1,1",
    ],
    "is_cox_second.json": [
        "is-cox-grading",
        "--grading",
        str(DATA / "grading_second.json"),
    ],
    "hilbert_oblique.json": ["hilbert-basis", "--cone", str(DATA / "cone_oblique.json")],
    "sections_p2_h.json": [
        "sections",
        "--fan",
        str(DATA / "fan_p2.json"),
        "--divisor",
        "0,0,1",
    ],
    "positivity_p112.json": [
        "positivity",
        "--fan",
        str(DATA / "fan_p112.json"),
        "--divisor",
        "0,-1,1",
    ],
    "positivity_f1_ample.json": [
        "positivity",
        "--fan",
        str(DATA / "fan_f1.json"),
        "--divisor",
        "0,0,2,-1",
    ],
    "intersect_nef_p112.json": [
        "intersect-nef",
        "--fan",
        str(DATA / "fan_p112.json"),
        "--d1",
        "0,-1,1",
        "--d2",
        "0,-1,1",
    ],
    "intersect_nef_f1.json": [
        "intersect-nef",
        "--fan",
        str(DATA / "fan_f1.json"),
        "--d1",
        "0,0,1,0",
        "--d2",
        "0,0,2,-1",
    ],
    "blowup_12_13_17.json": [
        "blowup-analyze",
        "--weights",
        "12,13,17",
        "--k",
        "51",
        "--m-max",
        "5",
    ],
    "lm_project_10.json": ["lm-project", "--n", "10"],
    "mukai_3_9.json": ["mukai", "--r", "3", "--n", "9"],
}

SVG_CASES = {
    "chambers_f1.svg": ["plot", "--chambers", str(DATA / "grading_f1.json")],
    "polygon_flagship.svg": [
        "plot",
        "--polygon",
        str(DATA / "polytope_flagship.json"),
        "--points",
        "49,0;50,0",
    ],
    "polygon_square.svg": ["plot", "--polygon", str(DATA / "polytope_square.json")],
}


def main():
    GOLDENS.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        code, report, _ = run(argv)
        assert code == 0, (name, report)
        (GOLDENS / name).write_text(canonical_json(report["result"]))
        print("wrote", name)
    for name, argv in SVG_CASES.items():
        code, report, _ = run(argv)
        assert code == 0, (name, report)
        (GOLDENS / name).write_text(report["svg"])
        print("wrote", name)


if __name__ == "__main__":
    sys.exit(main())
