"""Seeded inputs and operations of the three workloads.

`build(name, seed)` returns a `Workload`: the operations of one
pass, in order.  Each operation calls coxkit once (or, for `flagship`,
runs one fresh `coxkit` process) and has a check that compares its
output with an oracle from `oracles.py`.  Inputs are made here from the
seed alone; coxkit only receives them.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import coxkit.blowup as bw
import coxkit.chambers as ch
import coxkit.divisors as dv
import coxkit.fans as fn
import coxkit.linalg as la
import coxkit.polyhedra as ph

import oracles as orc
from oracles import expect

FLAGSHIP_ARGV = (
    ("blowup-analyze", "--weights", "12,13,17", "--k", "51", "--m-max", "5",
     "--h0-order", "52", "--json"),
    ("lm-project", "--n", "10", "--json"),
)
# exact-rank: sizes of the random square submatrices of the order-52
# vanishing matrix, and (n, rank) of the factorial-scaled known-rank ones.
# The Bareiss time of one submatrix varies up to 2.5x with the seed (its
# rank and zero rows), so a pass sums many of one size.  The four
# known-rank matrices cost alike for every seed and are the slowest
# operations.
SUBMATRIX_SIZES = (60,) * 16
KNOWN_RANK = ((80, 60),) * 4
# chambers: (r, how many gradings, what runs on each) per pass.
#   enumerate: cones, Cox test, semistable supports, enumerate_chambers,
#              mori_chamber at an interior class of every chamber and at
#              two classes of the middle chamber
#   mori:      cones, Cox test, semistable supports, mori_chamber at one
#              class of the middle chamber
#   cones:     cones, Cox test and semistable supports only
# A cold mori_chamber takes 2.7 s at r = 11 and 7 s at r = 12, so one of
# them would dominate the pass and its seed-to-seed spread; r = 11 and 12
# run only the operations that do not build all 2^r subset cones.
Z2_PLAN = ((6, 2, "enumerate"), (7, 1, "enumerate"), (8, 2, "mori"), (9, 1, "mori"),
           (10, 1, "mori"), (11, 1, "cones"), (12, 1, "cones"))
Z3_PLAN = ((5, 1, "interiors"), (6, 1, "enumerate"))
SEMISTABLE_CLASSES = 2
PAPER_GRADINGS = (
    ((1, 0), (1, 0), (1, 1), (0, 1)),
    ((1, 0), (1, 1), (1, 1), (0, 1)),
)
# positivity: one random smooth surface per ray count
SURFACE_RAYS = tuple(range(4, 13))
NEF_PER_SURFACE = 5
RANDOM_PER_SURFACE = 4
MAX_EDGE = 3


@dataclass
class Op:
    name: str
    run: Callable  # run(ctx) -> output
    check: Callable = None  # check(output, ctx) raises Mismatch
    key: object = None  # where later operations find the output in ctx


@dataclass
class Workload:
    name: str
    ops: list
    in_process: bool = True
    caches: list = field(default_factory=list)


# ------------------------------------------------------------- flagship


def _check_cli(checker):
    def check(out, ctx):
        code, stdout, stderr = out[:3]
        expect(code == 0, f"exit code {code}: {stderr.decode(errors='replace')[-300:]}")
        checker(json.loads(stdout)["result"])

    return check


def flagship(seed):
    checks = (orc.check_blowup_report, orc.check_lm_report)
    ops = [
        Op(argv[0], (lambda ctx, a=argv: ctx["cli"](a)), _check_cli(checker))
        for argv, checker in zip(FLAGSHIP_ARGV, checks)
    ]
    return Workload("flagship", ops, in_process=False)


# ------------------------------------------------------------- exact-rank


def _falling_table(values, order):
    return {a: [orc.falling(a, i) for i in range(order)] for a in values}


def _spread_sample(rng, total, n):
    """One random index from each of n equal bands of range(total): every
    seed draws functionals of all orders and points from all of the
    triangle, so the Bareiss cost varies little between seeds."""
    return [rng.randrange(k * total // n, (k + 1) * total // n) for k in range(n)]


def exact_rank(seed):
    rng = random.Random(seed)
    pts = orc.polygon_points(orc.FLAGSHIP_TRIANGLE)
    funcs = [(i, j) for i in range(orc.FLAGSHIP_ORDER) for j in range(orc.FLAGSHIP_ORDER - i)]
    ffx = _falling_table({a for a, _ in pts}, orc.FLAGSHIP_ORDER)
    ffy = _falling_table({b for _, b in pts}, orc.FLAGSHIP_ORDER)
    inputs = []
    for n in SUBMATRIX_SIZES:
        rsel, csel = _spread_sample(rng, len(funcs), n), _spread_sample(rng, len(pts), n)
        rows = [
            [ffx[pts[c][0]][funcs[r][0]] * ffy[pts[c][1]][funcs[r][1]] for c in csel]
            for r in rsel
        ]
        inputs.append((f"submatrix{len(inputs)}.{n}", rows, None))
    for n, rank in KNOWN_RANK:
        a = [[rng.randint(-99, 99) for _ in range(rank)] for _ in range(n)]
        b = [[rng.randint(-99, 99) for _ in range(n)] for _ in range(rank)]
        rows = []
        for row in a:
            scale = rng.choice((1, -1)) * math.factorial(rng.randint(20, 60))
            rows.append([scale * sum(x * b[t][c] for t, x in enumerate(row)) for c in range(n)])
        inputs.append((f"known{len(inputs)}.rank{rank}of{n}", rows, rank))

    ops = []
    for label, rows, rank in inputs:
        mat = la.RatMatrix(rows)
        lower = cache(lambda rows=rows: orc.rank_mod_p(rows))

        def check_exact(out, ctx, n=len(rows), rank=rank, lower=lower):
            expect(n - out >= lower(), f"rank {n - out} below proven bound {lower()}")
            if rank is not None:
                expect(lower() == rank, f"oracle could not certify rank {rank}")
                expect(out == n - rank, f"nullity {out} != {n - rank}")

        def check_modular(out, ctx, n=len(rows), label=label, lower=lower):
            orc.check_rank_bounds(n, ctx[label], out, lower())

        ops.append(Op(f"kernel_dimension.exact.{label}",
                      lambda ctx, m=mat: la.kernel_dimension(m, "exact"),
                      check_exact, key=label))
        ops.append(Op(f"kernel_dimension.modular.{label}",
                      lambda ctx, m=mat: la.kernel_dimension(m, "modular"),
                      check_modular))

    problem = bw.InterpolationProblem(ph.polytope_from_points(orc.SEVEN_GON), 1, 7)
    seven = cache(lambda: orc.nullity_fraction(*orc.vanishing_rows(orc.SEVEN_GON, 7)))

    def check_seven(out, ctx):
        expect(seven() == 1, f"oracle nullity {seven()} != paper value 1")
        expect(out == seven(), f"h0 = {out}, oracle {seven()}")

    ops.append(Op("h0.exact.seven_gon", lambda ctx: bw.h0(problem, "exact"), check_seven))
    return Workload("exact-rank", ops)


# --------------------------------------------------------------- chambers


def _z2_grading(rng, r):
    """r degrees in the open half-plane 3x + y > 0 on r - 1 distinct
    directions, so every grading of one size has the same number of
    chambers."""
    dirs = sorted({orc.primitive((a, b)) for a in range(5) for b in range(-2, 5) if 3 * a + b > 0})
    picks = rng.sample(dirs, r - 1)
    picks.append(rng.choice(picks))
    degs = []
    for x, y in picks:
        k = rng.choice((1, 1, 2))
        degs.append((k * x, k * y))
    rng.shuffle(degs)
    return tuple(degs)


def _z3_grading(rng, r):
    """r primitive degrees in [0,3]^3, every three linearly independent, so
    the walls (planes through two degrees) are all distinct and every
    grading of one size cuts its effective cone alike."""
    dirs = sorted({orc.primitive(d) for d in itertools.product(range(4), repeat=3) if any(d)})
    while True:
        degs = rng.sample(dirs, r)
        if all(orc.rank_mod_p(list(t)) == 3 for t in itertools.combinations(degs, 3)):
            return tuple(degs)


def _effective_class(rng, degs, terms=2):
    picks = rng.sample(degs, terms)
    coeffs = [rng.randint(1, 3) for _ in picks]
    return tuple(sum(c * d[k] for c, d in zip(coeffs, picks)) for k in range(len(degs[0])))


def _gens(cone):
    return frozenset(orc.primitive(g) for g in cone.generators)


def _expect_gens(want):
    def check(out, ctx):
        got = _gens(out.cone if isinstance(out, ch.Chamber) else out)
        expect(got == want, f"cone generators {sorted(got)} != {sorted(want)}")

    return check


def _expect_value(want):
    def check(out, ctx):
        expect(out == want, f"{out} != {want}")

    return check


def _cox_check(degs):
    want = orc.z2_is_cox(list(degs))

    def check(out, ctx):
        got = (out.is_cox, out.failed_condition, out.witness)
        expect(got == want, f"is_cox_grading {got} != {want}")

    return check


def _middle_class(rng, degs, on_ray=False):
    """A random class inside the middle chamber, or on its upper ray.

    The cost of mori_chamber and semistable_supports grows with the number
    of degree subsets on one side of the class, so classes near the middle
    of the effective cone keep that cost alike from seed to seed."""
    rays = orc.z2_rays(degs)
    u, v = rays[len(rays) // 2 - 1], rays[len(rays) // 2]
    if on_ray:
        k = rng.randint(1, 3)
        return (k * v[0], k * v[1])
    p, q = rng.randint(1, 3), rng.randint(1, 3)
    return (p * u[0] + q * v[0], p * u[1] + q * v[1])


def _z2_ops(tag, degs, rng, plan):
    spec = ch.GradingSpec.from_columns(list(degs))
    ops = [
        Op(f"effective_cone.{tag}", lambda ctx: ch.effective_cone(spec),
           _expect_gens(orc.z2_effective_cone(degs))),
        Op(f"moving_cone.{tag}", lambda ctx: ch.moving_cone(spec),
           _expect_gens(orc.z2_moving_cone(degs))),
        Op(f"is_cox_grading.{tag}", lambda ctx: ch.is_cox_grading(spec), _cox_check(degs)),
    ]
    mori_classes = []
    if plan == "enumerate":
        chambers = sorted(sorted(c) for c in orc.z2_chambers(degs))

        def check_enum(out, ctx):
            got = sorted(sorted(_gens(c.cone)) for c in out)
            expect(got == chambers, f"{len(got)} chambers {got}, oracle {len(chambers)} {chambers}")

        ops.append(Op(f"enumerate_chambers.{tag}", lambda ctx: ch.enumerate_chambers(spec), check_enum))
        mori_classes = [tuple(u[k] + v[k] for k in range(2)) for u, v in chambers]
        mori_classes += [_middle_class(rng, degs) for _ in range(2)]
    elif plan == "mori":
        mori_classes = [_middle_class(rng, degs)]
    for t, w in enumerate(mori_classes):
        ops.append(Op(f"mori_chamber.{tag}.class{t}", lambda ctx, w=w: ch.mori_chamber(spec, w),
                      _expect_gens(orc.z2_chamber_of(degs, w))))
    for t in range(SEMISTABLE_CLASSES):
        w = _middle_class(rng, degs, on_ray=t % 2 == 1)
        want = sorted(orc.z2_semistable(list(degs), w), key=lambda s: (len(s), s))
        ops.append(Op(f"semistable_supports.{tag}.class{t}",
                      lambda ctx, w=w: ch.semistable_supports(spec, w), _expect_value(want)))
    return ops


def _z3_ops(tag, degs, rng, plan):
    spec = ch.GradingSpec.from_columns(list(degs))
    samples = [_effective_class(rng, list(degs), terms=rng.randint(1, 3)) for _ in range(24)]
    eff = orc.cone3_facets(degs)

    def check_eff(out, ctx):
        expect(orc.cone3_facets(out.generators) == eff, "effective cone differs")

    def check_enum(out, ctx):
        orc.check_z3_chambers(degs, [c.cone.generators for c in out], samples)

    def interiors(ctx):
        return [ch.mori_chamber(spec, c.cone.relative_interior_point()) for c in ctx[tag]]

    def check_interiors(out, ctx):
        expect(len(out) == len(ctx[tag]), "chamber count changed")
        for got, want in zip(out, ctx[tag]):
            expect(_gens(got.cone) == _gens(want.cone), "chamber of an interior class differs")

    ops = [
        Op(f"effective_cone.{tag}", lambda ctx: ch.effective_cone(spec), check_eff),
        Op(f"enumerate_chambers.{tag}", lambda ctx: ch.enumerate_chambers(spec), check_enum, key=tag),
    ]
    if plan == "interiors":
        ops.append(Op(f"mori_chamber.{tag}.interiors", interiors, check_interiors))
    for t, w in enumerate(samples[:2]):
        def check_class(out, ctx, w=w):
            facets = orc.cone3_facets(out.cone.generators) if out.full_dimensional else None
            if facets is None:
                return
            expect(orc.position(facets, w) != "outside", f"class {w} outside its chamber")
            expect(any(_gens(out.cone) == _gens(c.cone) for c in ctx[tag]),
                   "full-dimensional chamber not among the enumerated ones")

        ops.append(Op(f"mori_chamber.{tag}.class{t}", lambda ctx, w=w: ch.mori_chamber(spec, w), check_class))
    return ops


def chambers(seed):
    rng = random.Random(seed)
    ops = []
    for t, degs in enumerate(PAPER_GRADINGS):
        spec = ch.GradingSpec.from_columns(list(degs))
        paper = ((True, None, None), (False, 2, (0, 3)))[t]
        expect(orc.z2_is_cox(list(degs)) == paper, "oracle disagrees with the paper")
        ops.append(Op(f"is_cox_grading.paper{t}", lambda ctx, s=spec: ch.is_cox_grading(s), _cox_check(degs)))
    f1 = ch.GradingSpec.from_columns(list(PAPER_GRADINGS[0]))
    expect(len(orc.z2_chambers(PAPER_GRADINGS[0])) == 2, "oracle: F1 must have 2 chambers")
    ops.append(Op("enumerate_chambers.f1", lambda ctx: ch.enumerate_chambers(f1),
                  lambda out, ctx: expect(len(out) == 2, f"F1 has {len(out)} chambers, not 2")))
    for r, count, plan in Z2_PLAN:
        for t in range(count):
            ops += _z2_ops(f"z2r{r}.{t}", _z2_grading(rng, r), rng, plan)
    for r, count, plan in Z3_PLAN:
        for t in range(count):
            ops += _z3_ops(f"z3r{r}.{t}", _z3_grading(rng, r), rng, plan)
    return Workload("chambers", ops, caches=[ch._subset_cone, fn.fan_predicates])


# ------------------------------------------------------------- positivity


def _blowup_surface(rng, n):
    """Cyclic counter-clockwise rays of a smooth complete surface with n
    rays: P^2 or a Hirzebruch surface, blown up at random fixed points."""
    if n > 4 and rng.random() < 0.5:
        rays = [(1, 0), (0, 1), (-1, -1)]
    else:
        rays = [(1, 0), (0, 1), (-1, rng.randint(0, 3)), (0, -1)]
    while len(rays) < n:
        i = rng.randrange(len(rays))
        j = (i + 1) % len(rays)
        rays.insert(i + 1, (rays[i][0] + rays[j][0], rays[i][1] + rays[j][1]))
    return rays


def _nef_divisor(rng, rays):
    """A nef divisor with D.D_i = l_i for sparse random l_i >= 0, or None.

    Nef classes are the edge lengths l of lattice polygons with inner
    normals v_i, so sum l_i v_i = 0: two adjacent lengths are solved from
    the others, then the coefficients follow from a_{i+1} = l_i + b_i a_i
    - a_{i-1}, starting at a_0 = a_1 = 0."""
    n = len(rays)
    ell = [0] * n
    for i in rng.sample(range(n), rng.randint(1, 3)):
        ell[i] = rng.randint(1, MAX_EDGE)
    k = rng.randrange(n)
    (p, q), (r, s) = rays[k], rays[(k + 1) % n]
    rest = [-sum(ell[i] * rays[i][c] for i in range(n) if i not in (k, (k + 1) % n)) for c in range(2)]
    ell[k] = rest[0] * s - rest[1] * r  # (v_k, v_k+1) has determinant 1
    ell[(k + 1) % n] = p * rest[1] - q * rest[0]
    if not all(0 <= x <= 6 * MAX_EDGE for x in ell):
        return None
    b = orc.surface_b(rays)
    a = [0, 0]
    for i in range(1, n - 1):
        a.append(ell[i] + b[i] * a[i] - a[i - 1])
    return a if orc.surface_d_dot_di(rays, a) == ell else None


def _surface_divisors(rng, rays):
    """Distinct nef classes, then random divisors from a small box."""
    n = len(rays)
    nef, seen = [], set()
    for _ in range(5000):
        a = _nef_divisor(rng, rays)
        if a is not None and tuple(orc.surface_d_dot_di(rays, a)) not in seen:
            seen.add(tuple(orc.surface_d_dot_di(rays, a)))
            nef.append(a)
            if len(nef) == NEF_PER_SURFACE:
                break
    expect(len(nef) == NEF_PER_SURFACE, "could not draw enough nef divisors")
    rand = [[rng.randint(-2, 3) for _ in range(n)] for _ in range(RANDOM_PER_SURFACE)]
    return nef + rand


def _gl2z(rng):
    t = [[1, 0], [0, 1]]
    for _ in range(4):
        k = rng.randint(-2, 2)
        e = [[1, k], [0, 1]] if rng.random() < 0.5 else [[1, 0], [k, 1]]
        t = [[sum(t[i][m] * e[m][j] for m in range(2)) for j in range(2)] for i in range(2)]
    if rng.random() < 0.5:
        t = [[t[0][0], t[0][1]], [-t[1][0], -t[1][1]]]
    return t


def _divisor_ops(tag, fan, divisors, truth, nef_pair, check_cg):
    """Operations on one fan; truth(a) -> (equivalence test, positivity, h0)."""
    ops = [Op(f"class_group.{tag}", lambda ctx: dv.class_group(fan), check_cg, key=("cg", tag))]
    for t, a in enumerate(divisors):
        key = (tag, t)
        same_class, pos, h0_value = truth(a)

        def check_class(out, ctx, a=a, same_class=same_class):
            expect(same_class(tuple(out.coefficients)), f"divisor {out} not equivalent to {a}")

        ops.append(Op(f"divisor_with_class.{tag}.{t}",
                      lambda ctx, a=a: ctx[("cg", tag)].divisor_with_class(ctx[("cg", tag)].class_of(a)),
                      check_class, key=key))
        ops.append(Op(f"positivity.{tag}.{t}", lambda ctx, k=key: dv.positivity(fan, ctx[k]),
                      lambda out, ctx, pos=pos: expect(
                          (out.nef, out.basepoint_free, out.ample) == pos,
                          f"positivity {out} != {pos}")))
        if h0_value is not None:
            ops.append(Op(f"section_count.{tag}.{t}", lambda ctx, k=key: dv.section_count(fan, ctx[k]),
                          _expect_value(h0_value)))
        if pos[0] and nef_pair is not None:
            other, dot = nef_pair(a)
            ops.append(Op(f"intersection_number_nef_surface.{tag}.{t}",
                          lambda ctx, a=a, other=other: dv.intersection_number_nef_surface(fan, a, other),
                          _expect_value(dot)))
    return ops


def _surface_ops(tag, rays, divisors, rng):
    n = len(rays)
    cones = [(i, (i + 1) % n) for i in range(n)]
    fan = fn.Fan(2, tuple(rays), tuple(cones))
    t = _gl2z(rng)
    perm = list(range(n))
    rng.shuffle(perm)
    img = [(t[0][0] * v[0] + t[0][1] * v[1], t[1][0] * v[0] + t[1][1] * v[1]) for v in rays]
    rays2 = [img[perm[k]] for k in range(n)]
    where = {p: k for k, p in enumerate(perm)}
    cones2 = [(where[i], where[j]) for i, j in cones]
    image = fn.Fan(2, tuple(rays2), tuple(cones2))

    def check_iso(out, ctx):
        mat = None if out is None else [[out[0, 0], out[0, 1]], [out[1, 0], out[1, 1]]]
        orc.check_unimodular_map(mat, rays, cones, rays2, cones2)

    def check_cg(out, ctx):
        expect(out.rank == n - 2 and out.torsion == (), f"class group rank {out.rank}")

    anchor = next(a for a in divisors if orc.surface_positivity(rays, a)[0])

    def truth(a):
        pos = orc.surface_positivity(rays, a)
        return (lambda b: orc.surface_equivalent(rays, b, a), pos,
                orc.surface_h0_nef(rays, a) if pos[0] else None)

    ops = _divisor_ops(tag, fan, divisors, truth,
                       lambda a: (anchor, orc.surface_dot(rays, a, anchor)), check_cg)
    ops.insert(1, Op(f"fans_unimodular_equivalent.{tag}",
                     lambda ctx: fn.fans_unimodular_equivalent(fan, image), check_iso))
    return ops


WEIGHTED = {
    "p112": ((1, 1, 2), ((1, 0), (-1, -2), (0, 1))),
    "p12_13_17": ((12, 13, 17), ((5, 1), (-2, 3), (-2, -3))),
    "p3": ((1, 1, 1, 1), ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))),
}


def _weighted_ops(tag, rng):
    weights, rays = WEIGHTED[tag]
    dim = len(rays[0])
    for k in range(dim):
        expect(sum(w * v[k] for w, v in zip(weights, rays)) == 0, "rays violate the weights")
    cones = [tuple(j for j in range(len(rays)) if j != i) for i in range(len(rays))]
    fan = fn.Fan(dim, rays, tuple(cones))
    hi = 3 if dim == 3 else 60 // max(weights) + 2
    divisors = [[rng.randint(-1, hi) for _ in weights] for _ in range(8)]
    divisors[0] = [0] * len(weights)
    if tag == "p12_13_17":
        divisors[1] = [221, 0, 0]  # degree 2652 = lcm: H^2 = 2652 = 52 * 51
        expect(orc.weighted_dot(weights, 2652, 2652) == 2652, "oracle: H^2 != 2652")

    def truth(a):
        d = orc.weighted_degree(weights, a)
        pos = orc.weighted_positivity(weights, d)
        return (lambda b: orc.weighted_degree(weights, b) == d, pos,
                orc.weighted_h0(weights, d) if d >= 0 else None)

    def check_cg(out, ctx):
        degs = [d[0] for d in out.degrees]
        expect(out.rank == 1 and out.torsion == () and
               degs in (list(weights), [-w for w in weights]), f"degrees {degs}")

    def self_dot(a):
        d = orc.weighted_degree(weights, a)
        return a, orc.weighted_dot(weights, d, d)

    return _divisor_ops(tag, fan, divisors, truth, self_dot if dim == 2 else None, check_cg)


def positivity(seed):
    rng = random.Random(seed)
    ops = []
    for n in SURFACE_RAYS:
        rays = _blowup_surface(rng, n)
        ops += _surface_ops(f"surface{n}", rays, _surface_divisors(rng, rays), rng)
    for tag in WEIGHTED:
        ops += _weighted_ops(tag, rng)
    return Workload("positivity", ops, caches=[fn.fan_predicates])


# ------------------------------------------------------------- geometry


def geometry(seed):
    """The chamber sweep, then the positivity sweep, in one pass: both are
    in-process polyhedral work on small inputs, and one longer run
    averages over more of a shared host's slow and fast spells than two
    shorter ones."""
    parts = (chambers(seed), positivity(seed))
    ops = [op for wl in parts for op in wl.ops]
    caches = list(dict.fromkeys(c for wl in parts for c in wl.caches))
    return Workload("geometry", ops, caches=caches)


BUILDERS = {"flagship": flagship, "exact-rank": exact_rank, "geometry": geometry}


def build(name, seed):
    return BUILDERS[name](seed)
