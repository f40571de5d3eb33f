"""Command-line front end.

Subcommands parse JSON input documents (fans, polytopes, gradings, cones,
blow-up data), dispatch to the library, and emit a Report with a
structured result and a one-line summary.  All integers in structured
output are serialized as decimal strings so consumers never overflow;
`--json` prints the canonical JSON report, `--expect FILE` compares the
structured result against a golden file and exits 3 on mismatch.

Exit codes: 0 success, 1 bad input, 2 violated precondition, 3 golden
mismatch.  `blowup-analyze` moves its polygon, from `--polygon` or from
`--weights` alone, to its first `blowup.least_width_images`, and finds its
negative curve from `--k`: the curve's order is w = H^2/k, and its Laurent
polynomial is the one kernel vector of a proved h0 at order w
(`blowup.find_curve`), unless a GF(p) rank at a lower order already
bounds h0 at w by 0.  `--h0-order` adds
`h0_proof` to the report, beside the result: the prime, its rank and the
bounds that prove h0; at `--h0-order` w it is the curve's own proof.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import blowup as bw
from . import chambers as ch
from . import divisors as dv
from . import fans as fn
from . import polyhedra as ph
from .errors import PreconditionError
from .linalg import IntMatrix
from .svg import svg_chambers, svg_polygon


class InputError(Exception):
    pass


# ------------------------------------------------------------ serialization


def encode(value):
    """Canonical JSON form: ints as decimal strings, fractions as 'p/q'."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    raise TypeError(f"cannot serialize {type(value)!r}")


def canonical_json(value) -> str:
    return json.dumps(encode(value), sort_keys=True, separators=(",", ":")) + "\n"


def parse_number(text):
    """Integer or rational from an int or a 'p' / 'p/q' string."""
    if isinstance(text, bool):
        raise InputError(f"expected a number, got {text!r}")
    if isinstance(text, int):
        return text
    if isinstance(text, str):
        t = text.strip()
        try:
            if "/" in t:
                num, den = t.split("/")
                return Fraction(int(num), int(den))
            return int(t)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad number {text!r}") from exc
    raise InputError(f"expected a number, got {text!r}")


def parse_int(text):
    v = parse_number(text)
    if isinstance(v, Fraction):
        raise InputError(f"expected an integer, got {text!r}")
    return v


def parse_vector(text):
    """Comma-separated integers from the command line."""
    try:
        return tuple(int(x) for x in str(text).split(","))
    except ValueError as exc:
        raise InputError(f"bad vector {text!r}") from exc


def parse_matrix(text):
    """Integer matrix from rows separated by ';', entries by ','."""
    try:
        return IntMatrix([parse_vector(row) for row in text.split(";")])
    except ValueError as exc:
        raise InputError(f"bad matrix {text!r}: {exc}") from exc


def load_document(path):
    """The JSON object in the file at `path`."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path} does not hold a JSON object")
    return doc


def load_fan(path) -> fn.Fan:
    doc = load_document(path)
    try:
        fan = fn.Fan(
            lattice_dim=parse_int(doc["lattice_dim"]),
            rays=tuple(tuple(parse_int(x) for x in r) for r in doc["rays"]),
            max_cones=tuple(tuple(parse_int(i) for i in c) for c in doc["max_cones"]),
        )
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad fan document {path}: {exc}") from exc
    fn.fan_predicates(fan)  # raises InvalidFan, a PreconditionError
    return fan


def load_polytope(path) -> ph.Polytope:
    doc = load_document(path)
    try:
        verts = [tuple(parse_number(x) for x in v) for v in doc["vertices"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad polytope document {path}: {exc}") from exc
    if not verts:
        raise InputError(f"polytope document {path} has no vertices")
    if len({len(v) for v in verts}) > 1:
        raise InputError(f"polytope document {path} has vertices of unequal length")
    return ph.polytope_from_points(verts)


def load_grading(path) -> ch.GradingSpec:
    doc = load_document(path)
    try:
        return ch.GradingSpec(
            free_rank=parse_int(doc["free_rank"]),
            torsion=tuple(parse_int(t) for t in doc.get("torsion", [])),
            degrees=tuple(tuple(parse_int(x) for x in w) for w in doc["degrees"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad grading document {path}: {exc}") from exc


def load_cone(path) -> ph.Cone:
    doc = load_document(path)
    dim = parse_int(doc.get("ambient_dim", 0))
    gens = doc.get("generators")
    facets = doc.get("facets")
    if (gens is None) == (facets is None):
        raise InputError(f"cone document {path} needs generators xor facets")
    try:
        vecs = [tuple(parse_int(x) for x in v) for v in (gens if gens is not None else facets)]
    except TypeError as exc:
        raise InputError(f"bad cone document {path}: {exc}") from exc
    if gens is not None:
        return ph.dd_convert(generators=vecs, ambient_dim=dim)
    return ph.dd_convert(facets=vecs, ambient_dim=dim)


# ----------------------------------------------------------------- results


def cone_doc(cone: ph.Cone):
    return {
        "ambient_dim": cone.ambient_dim,
        "generators": [list(g) for g in cone.generators],
        "facets": [list(f) for f in cone.facets],
        "lineality_dim": cone.lineality_dim,
    }


def certificate_doc(cert: bw.Certificate):
    payload = {}
    for key, value in cert.payload.items():
        if isinstance(value, bw.Certificate):
            payload[key] = certificate_doc(value)
        elif (
            isinstance(value, tuple)
            and value
            and all(isinstance(v, bw.Certificate) for v in value)
        ):
            payload[key] = [certificate_doc(v) for v in value]
        else:
            payload[key] = value
    doc = {"kind": cert.kind, "payload": payload, "transcript": list(cert.transcript)}
    for key in ("polygon", "m", "k", "functional"):
        if key in cert.payload:
            doc[key] = cert.payload[key]
    if "dilation" in cert.payload:
        doc["m"] = cert.payload["dilation"]
    if "order" in cert.payload:
        doc["k"] = cert.payload["order"]
    return doc


# ---------------------------------------------------------------- commands


def cmd_classgroup(args):
    fan = load_fan(args.fan)
    cg = dv.class_group(fan)
    result = {
        "rank": cg.rank,
        "torsion": list(cg.torsion),
        "degrees": [list(d) for d in cg.degrees],
        "rays": [list(r) for r in fan.rays],
    }
    summary = (
        f"class group rank {cg.rank}"
        + (f" with torsion {list(cg.torsion)}" if cg.torsion else "")
        + f"; degrees {[list(d) for d in cg.degrees]}"
    )
    return result, summary


def cmd_cox_grading(args):
    fan = load_fan(args.fan)
    cg = dv.class_group(fan)
    result = {
        "free_rank": cg.rank,
        "torsion": list(cg.torsion),
        "degrees": [list(d) for d in cg.degrees],
    }
    return result, f"Cox grading of {len(fan.rays)} variables, free rank {cg.rank}"


def cmd_sections(args):
    fan = load_fan(args.fan)
    div = parse_vector(args.divisor)
    poly = dv.divisor_polytope(fan, div)
    pts = [] if poly.is_empty() else ph.lattice_points(poly, 1)
    result = {
        "dimension": len(pts),
        "lattice_points": [list(p) for p in pts],
        "polytope_vertices": [list(v) for v in poly.vertices],
    }
    return result, f"h^0 = {len(pts)}"


def cmd_positivity(args):
    fan = load_fan(args.fan)
    rec = dv.positivity(fan, parse_vector(args.divisor))
    result = {
        "basepoint_free": rec.basepoint_free,
        "nef": rec.nef,
        "ample": rec.ample,
    }
    return result, (
        f"basepoint_free={rec.basepoint_free} nef={rec.nef} ample={rec.ample}"
    )


def cmd_eff(args):
    spec = load_grading(args.grading)
    cone = ch.effective_cone(spec)
    return {"cone": cone_doc(cone)}, f"effective cone with {len(cone.generators)} generators"


def cmd_mov(args):
    spec = load_grading(args.grading)
    cone = ch.moving_cone(spec)
    return {"cone": cone_doc(cone)}, f"moving cone with {len(cone.generators)} generators"


def cmd_chamber(args):
    spec = load_grading(args.grading)
    w = parse_vector(getattr(args, "class"))
    chamber = ch.mori_chamber(spec, w)
    result = {
        "cone": cone_doc(chamber.cone),
        "full_dimensional": chamber.full_dimensional,
        "defining_subsets": ch.defining_subsets(chamber.supports, spec.r),
    }
    return result, (
        f"chamber of {list(w)}: {len(chamber.cone.generators)} generators, "
        f"full_dimensional={chamber.full_dimensional}"
    )


def cmd_chambers(args):
    spec = load_grading(args.grading)
    chambers = ch.enumerate_chambers(spec)
    result = {
        "count": len(chambers),
        "chambers": [cone_doc(c.cone) for c in chambers],
    }
    return result, f"{len(chambers)} full-dimensional chambers"


def cmd_is_cox_grading(args):
    spec = load_grading(args.grading)
    verdict = ch.is_cox_grading(spec)
    result = {
        "is_cox": verdict.is_cox,
        "failed_condition": verdict.failed_condition,
        "witness": list(verdict.witness) if verdict.witness else None,
    }
    if verdict.is_cox:
        summary = "the grading is a Cox ring grading"
    else:
        summary = (
            f"not a Cox ring grading: condition {verdict.failed_condition} "
            f"fails at witness {list(verdict.witness)} (0-based)"
        )
    return result, summary


def cmd_hilbert_basis(args):
    cone = load_cone(args.cone)
    basis = ph.hilbert_basis(cone)
    return {"basis": [list(b) for b in basis]}, f"hilbert basis with {len(basis)} elements"


def cmd_section_ring(args):
    fan = load_fan(args.fan)
    divisors = [parse_vector(d) for d in args.divisor]
    gens = dv.section_ring_generators(fan, divisors)
    result = {
        "generators": [
            {"point": list(m), "multidegree": list(t)} for m, t in gens
        ]
    }
    return result, f"section ring with {len(gens)} minimal generators"


def cmd_veronese(args):
    q = parse_matrix(args.degree_matrix)
    cone = load_cone(args.target_cone)
    sub = parse_matrix(args.sublattice) if args.sublattice else None
    gens = dv.veronese_generators(q, cone, sublattice=sub)
    return (
        {"generators": [list(g) for g in gens]},
        f"veronese subalgebra with {len(gens)} generators",
    )


def cmd_irrelevant(args):
    fan = load_fan(args.fan)
    sets = dv.irrelevant_monomials(fan)
    return (
        {"supports": [list(s) for s in sets]},
        f"{len(sets)} irrelevant monomial supports",
    )


def cmd_intersect_nef(args):
    fan = load_fan(args.fan)
    num = dv.intersection_number_nef_surface(
        fan, parse_vector(args.d1), parse_vector(args.d2)
    )
    return {"intersection_number": num}, f"D1.D2 = {num}"


def cmd_blowup_analyze(args):
    weights = parse_vector(args.weights) if args.weights else None
    if args.polygon:
        poly = load_polytope(args.polygon)
        extra = sorted(load_document(args.polygon).keys() - {"vertices"})
        if extra:
            raise InputError(
                f"{args.polygon}: only vertices are read, not {extra}; "
                "the curve is now found from --k"
            )
    elif weights is not None and len(weights) == 3:  # the class of degree abc
        fan = fn.weighted_projective_fan(*weights)
        poly = dv.divisor_polytope(fan, (0, 0, weights[0] * weights[1]))
    else:
        raise InputError("blowup-analyze needs --polygon or three --weights")
    poly = ph.polytope_from_points(bw.least_width_images(poly, args.k)[0])
    w, f, proof = bw.find_curve(poly, args.k)
    cert = bw.blowup_certificate(weights, poly, (w, f), args.k, m_max=args.m_max)
    result = {
        "certificate": certificate_doc(cert),
        "verdict": "not a Mori dream space (paper-level conclusion)",
        "verified": cert.verify(),
    }
    beside = {}
    if args.h0_order is not None:
        if args.h0_order != w:
            prob = bw.InterpolationProblem(poly, 1, args.h0_order)
            proof = bw.h0(prob, proof=True)
        result["h0"] = {"order": args.h0_order, "dimension": proof.nullity}
        beside["h0_proof"] = proof.report()
    summary = (
        f"nef-not-semiample certificate verified: C^2 = "
        f"{cert.payload['curve_self_intersection']}, D.C = 0, "
        f"D.E = {cert.payload['d_dot_e']}; multiples 1..{args.m_max} have base "
        f"points; verdict: not a Mori dream space (paper-level conclusion)"
    )
    return result, summary, beside


def cmd_mukai(args):
    value = bw.mukai_predicate(args.r, args.n)
    return (
        {"r": args.r, "n": args.n, "finitely_generated": value},
        f"1/{args.r} + 1/{args.n - args.r} > 1/2 is {value}",
    )


def cmd_lm_project(args):
    if args.matrix:
        doc = load_document(args.matrix)
        try:
            pi = IntMatrix([[parse_int(x) for x in row] for row in doc["matrix"]])
            v1, v2, v3 = (tuple(parse_int(x) for x in doc[k]) for k in ("v1", "v2", "v3"))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad projection document {args.matrix}: {exc}") from exc
    elif args.n == 10:
        pi = IntMatrix(bw.LM10_PROJECTION_MATRIX)
        v1, v2, v3 = bw.LM10_V1, bw.LM10_V2, bw.LM10_V3
    else:
        raise InputError("only n=10 has built-in projection data; pass --matrix")
    weights = parse_vector(args.weights)
    rep = bw.lm_projection(args.n, pi, v1, v2, v3, weights)
    result = {
        "ray_count": len(bw.lm_rays(args.n)),
        "ray_image_multiset": [
            {"image": list(img), "multiplicity": mult}
            for img, mult in rep.ray_image_multiset
        ],
        "kernel_ray_count": rep.kernel_ray_count,
        "images": [list(v) for v in rep.images],
        "generates": rep.generates,
        "relations": [
            {"weights": list(perm), "signs": list(signs)}
            for perm, signs in rep.relations
        ],
        "quotient_weights": list(rep.quotient_weights)
        if rep.quotient_weights
        else None,
    }
    if rep.quotient_weights:
        summary = (
            f"projected {len(bw.lm_rays(args.n))} rays; quotient identified as "
            f"P{tuple(rep.quotient_weights)} via "
            f"{len(rep.relations)} verified weight assignment(s)"
        )
    else:
        summary = "projected rays; no weighted projective quotient identified"
    return result, summary


def cmd_plot(args):
    if (args.chambers is None) == (args.polygon is None):
        raise InputError("plot needs exactly one of --chambers or --polygon")
    if args.chambers:
        spec = load_grading(args.chambers)
        chambers = ch.enumerate_chambers(spec)
        svg = svg_chambers(spec, chambers)
        count = len(chambers)
        result = {"kind": "chambers", "chamber_count": count}
        summary = f"chamber plot with {count} chambers"
    else:
        poly = load_polytope(args.polygon)
        highlight = [
            [parse_vector(p) for p in spec.split(";")] for spec in args.points
        ]
        if any(len(p) != 2 for points in highlight for p in points):
            raise InputError(f"highlight points need 2 coordinates: {args.points}")
        svg = svg_polygon(poly, highlight_sets=highlight)
        result = {
            "kind": "polygon",
            "vertex_count": len(poly.vertices),
            "highlight_sets": len(highlight),
        }
        summary = f"polygon plot with {len(poly.vertices)} vertices"
    return result, summary, {"svg": svg}


# --------------------------------------------------------------- dispatcher


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coxkit",
        description="exact toric geometry: class groups, cones, chambers, "
        "interpolation certificates",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="print the JSON report")
    common.add_argument(
        "--expect", metavar="FILE", help="compare the structured result to a golden"
    )
    common.add_argument("--out", metavar="FILE", help="write SVG output here")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("classgroup", help="divisor class group of a fan")
    p.add_argument("--fan", required=True)
    p.set_defaults(func=cmd_classgroup)

    p = add_parser("cox-grading", help="Cox grading document of a fan")
    p.add_argument("--fan", required=True)
    p.set_defaults(func=cmd_cox_grading)

    p = add_parser("sections", help="global sections of a divisor")
    p.add_argument("--fan", required=True)
    p.add_argument("--divisor", required=True, help="comma-separated coefficients")
    p.set_defaults(func=cmd_sections)

    p = add_parser("positivity", help="bpf/nef/ample tests")
    p.add_argument("--fan", required=True)
    p.add_argument("--divisor", required=True)
    p.set_defaults(func=cmd_positivity)

    p = add_parser("eff", help="effective cone of a grading")
    p.add_argument("--grading", required=True)
    p.set_defaults(func=cmd_eff)

    p = add_parser("mov", help="moving cone of a grading")
    p.add_argument("--grading", required=True)
    p.set_defaults(func=cmd_mov)

    p = add_parser("chamber", help="chamber containing a class")
    p.add_argument("--grading", required=True)
    p.add_argument("--class", required=True, help="comma-separated class vector")
    p.set_defaults(func=cmd_chamber)

    p = add_parser("chambers", help="all full-dimensional chambers")
    p.add_argument("--grading", required=True)
    p.set_defaults(func=cmd_chambers)

    p = add_parser("is-cox-grading", help="Cox ring test for a grading")
    p.add_argument("--grading", required=True)
    p.set_defaults(func=cmd_is_cox_grading)

    p = add_parser("hilbert-basis", help="hilbert basis of a pointed cone")
    p.add_argument("--cone", required=True)
    p.set_defaults(func=cmd_hilbert_basis)

    p = add_parser("section-ring", help="section ring generators")
    p.add_argument("--fan", required=True)
    p.add_argument("--divisor", action="append", required=True)
    p.set_defaults(func=cmd_section_ring)

    p = add_parser("veronese", help="veronese subalgebra generators")
    p.add_argument(
        "--degree-matrix",
        required=True,
        help="rows separated by ';', entries by ',' (e.g. '1,1,1,0;0,0,1,1')",
    )
    p.add_argument("--target-cone", required=True)
    p.add_argument("--sublattice", help="rows of a finite-index degree sublattice")
    p.set_defaults(func=cmd_veronese)

    p = add_parser("irrelevant", help="irrelevant monomial supports")
    p.add_argument("--fan", required=True)
    p.set_defaults(func=cmd_irrelevant)

    p = add_parser("intersect-nef", help="nef intersection number on a surface")
    p.add_argument("--fan", required=True)
    p.add_argument("--d1", required=True)
    p.add_argument("--d2", required=True)
    p.set_defaults(func=cmd_intersect_nef)

    p = add_parser("blowup-analyze", help="nef-not-semiample certificate")
    p.add_argument("--weights", help="comma-separated weights, e.g. 12,13,17")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m-max", type=int, default=5)
    p.add_argument("--polygon", help="JSON with the vertices of a lattice polygon")
    p.add_argument("--h0-order", type=int, help="also compute h0 at this order")
    p.set_defaults(func=cmd_blowup_analyze)

    p = add_parser("mukai", help="finite generation inequality for point blow-ups")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_mukai)

    p = add_parser("lm-project", help="project Losev-Manin rays")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weights", default="12,13,17")
    p.add_argument("--matrix", help="JSON with matrix, v1, v2, v3")
    p.set_defaults(func=cmd_lm_project)

    p = add_parser("plot", help="SVG figure")
    p.add_argument("--chambers", help="grading document")
    p.add_argument("--polygon", help="polytope document")
    p.add_argument(
        "--points",
        action="append",
        default=[],
        help="highlight set 'x,y;x,y' (repeatable)",
    )
    p.set_defaults(func=cmd_plot)

    return parser


def run(argv):
    """Execute a command line; returns (exit_code, report dict, parsed
    arguments).  When argparse exits, after printing the help (exit code 0)
    or its usage error (exit code 1), the report is empty and the arguments
    are None."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (0 if exc.code == 0 else 1), {}, None
    try:
        out = args.func(args)
    except InputError as exc:
        return 1, {"error": str(exc)}, args
    except PreconditionError as exc:
        return 2, {"error": str(exc)}, args
    result, summary, *extras = out
    report = {
        "command": list(argv),
        "result": result,
        "summary": summary,
    }
    for extra in extras:
        report.update(extra)
    if args.expect:
        try:
            golden = json.loads(open(args.expect).read())
        except (OSError, json.JSONDecodeError) as exc:
            return 1, {"error": f"cannot read golden {args.expect}: {exc}"}, args
        got = json.loads(canonical_json(result))
        if got != golden:
            report["golden_mismatch"] = True
            return 3, report, args
    return 0, report, args


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    code, report, args = run(argv)
    if args is None:
        return code
    if "error" in report:
        print(f"error: {report['error']}", file=sys.stderr)
        return code
    svg = report.get("svg")
    if svg is not None and args.out:
        with open(args.out, "w") as fh:
            fh.write(svg)
    if args.json:
        printable = {k: v for k, v in report.items() if k != "svg"}
        sys.stdout.write(canonical_json(printable))
    else:
        print(report["summary"])
        if svg is not None and not args.out:
            sys.stdout.write(svg)
    if code == 3:
        print("golden mismatch", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
