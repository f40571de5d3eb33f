"""Independent oracles for the benchmark's output checks.

Nothing here imports coxkit.  Each oracle either recomputes an answer by
a method of its own (angle order in Z^2, the intersection form of a
smooth toric surface, monomial counts of a weighted polynomial ring,
elimination modulo a prime that coxkit never uses) or checks a property
every correct answer must have.  A check that fails raises `Mismatch`.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

# 2^31 - 1: far above the primes just past 2^20 that coxkit picks, and
# small enough that a product of two residues fits in int64.
ORACLE_PRIME = 2_147_483_647


class Mismatch(Exception):
    """A program output disagrees with the independent computation."""


def expect(cond, message):
    if not cond:
        raise Mismatch(message)


def falling(a, i):
    """(a)_i = a (a-1) ... (a-i+1)."""
    out = 1
    for t in range(i):
        out *= a - t
    return out


def falling_is_zero(a, i):
    """(a)_i = 0 exactly when 0 <= a < i."""
    return 0 <= a < i


def cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def primitive(v):
    g = 0
    for x in v:
        g = math.gcd(g, x)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


# ------------------------------------------------------------ exact ranks


def rank_mod_p(rows, p=ORACLE_PRIME):
    """Rank over GF(p) by plain Gaussian elimination in int64 (p < 2^31)."""
    if not rows:
        return 0
    m = np.array([[x % p for x in row] for row in rows], dtype=np.int64)
    nr, nc = m.shape
    r = 0
    for c in range(nc):
        nz = np.nonzero(m[r:, c])[0]
        if len(nz) == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r] = m[r] * pow(int(m[r, c]), p - 2, p) % p
        below = m[r + 1 :, c].copy()
        m[r + 1 :] = (m[r + 1 :] - np.outer(below, m[r]) % p) % p
        r += 1
        if r == nr:
            break
    return r


def nullity_fraction(rows, ncols):
    """Nullity over Q by Gauss-Jordan in Fractions (small matrices)."""
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pr = a[rank]
        for i in range(len(a)):
            if i != rank and a[i][c] != 0:
                f = a[i][c] / pr[c]
                a[i] = [x - f * y for x, y in zip(a[i], pr)]
        rank += 1
    return ncols - rank


def check_rank_bounds(ncols, nullity_exact, nullity_modular, rank_lower):
    """Exact and modular nullities agree and respect a proven rank bound."""
    expect(
        nullity_exact == nullity_modular,
        f"exact nullity {nullity_exact} != modular nullity {nullity_modular}",
    )
    expect(
        ncols - nullity_exact >= rank_lower,
        f"rank {ncols - nullity_exact} below the proven lower bound {rank_lower}",
    )


# ------------------------------------------------------- lattice polygons


def convex_hull(points):
    """Counter-clockwise hull vertices (monotone chain), no collinear points."""
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) < 3:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(
                (out[-1][0] - out[-2][0], out[-1][1] - out[-2][1]),
                (p[0] - out[-2][0], p[1] - out[-2][1]),
            ) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def polygon_points(vertices, dilation=1, translation=(0, 0)):
    """Lattice points of dilation * conv(vertices) + translation."""
    hull = [
        (dilation * x + translation[0], dilation * y + translation[1])
        for x, y in convex_hull(vertices)
    ]
    n = len(hull)
    edges = [(hull[i], hull[(i + 1) % n]) for i in range(n)]
    out = []
    for y in range(min(v[1] for v in hull), max(v[1] for v in hull) + 1):
        lo, hi = -math.inf, math.inf
        for (px, py), (qx, qy) in edges:
            # inside a CCW edge p->q: (q-p) x (z-p) >= 0, linear in x
            dx, dy = qx - px, qy - py
            rest = dx * (y - py)
            if dy == 0:
                if rest < 0:
                    lo, hi = 1, 0
                continue
            # -dy * (x - px) + rest >= 0
            bound = Fraction(rest, dy) + px
            if dy > 0:
                hi = min(hi, math.floor(bound))
            else:
                lo = max(lo, math.ceil(bound))
        if lo <= hi:
            out.extend((x, y) for x in range(lo, hi + 1))
    return sorted(out)


def twice_area(vertices):
    hull = convex_hull(vertices)
    n = len(hull)
    return abs(sum(cross(hull[i], hull[(i + 1) % n]) for i in range(n)))


# ----------------------------------------------------------- flagship

FLAGSHIP_TRIANGLE = ((11, -26), (50, 0), (-1, 34))
FLAGSHIP_K = 51
FLAGSHIP_ORDER = 52
FLAGSHIP_M_MAX = 5
SEVEN_GON = ((-1, 6), (-4, 5), (-3, 1), (-2, 8), (-6, 0), (-7, 0), (0, 3))


def flagship_curve_terms():
    """x^11 y^-26 (1-y)^52 as {(a, b): coefficient}."""
    return {(11, k - 26): (-1) ** k * math.comb(52, k) for k in range(53)}


def annihilated_below(terms, order):
    """Does every functional d_x^i d_y^j at (1,1) with i + j < order kill f?"""
    fx = {a: [falling(a, i) for i in range(order)] for a, _ in terms}
    fy = {b: [falling(b, j) for j in range(order)] for _, b in terms}
    return all(
        sum(c * fx[a][i] * fy[b][j] for (a, b), c in terms.items()) == 0
        for i in range(order)
        for j in range(order - i)
    )


def check_flagship_curve(terms=None, order=FLAGSHIP_ORDER):
    """The explicit section proving h0 >= 1: supported on the triangle and
    killed by all order(order+1)/2 functionals of order < `order`."""
    terms = flagship_curve_terms() if terms is None else terms
    inside = set(polygon_points(FLAGSHIP_TRIANGLE))
    expect(set(terms) <= inside, "curve is not supported on the triangle")
    expect(
        annihilated_below(terms, order),
        f"curve is not annihilated by every functional of order < {order}",
    )


def flagship_intersections():
    """H^2, C^2, D.C, D.E from the triangle's area and the curve order."""
    h2 = twice_area(FLAGSHIP_TRIANGLE)
    w, k = FLAGSHIP_ORDER, FLAGSHIP_K
    return {
        "h_self_intersection": h2,
        "curve_self_intersection": Fraction(h2, w * w) - 1,
        "d_dot_c": Fraction(h2, w) - k,
        "d_dot_e": k,
    }


def check_forced_vertex(payload, m, k=FLAGSHIP_K):
    """Recheck one forced-vertex certificate over our own lattice points:
    the functional kills every point but the vertex, by (a)_i = 0 iff
    0 <= a < i, and takes the stated value at the vertex."""
    i, j = (int(x) for x in payload["functional"])
    order = int(payload["order"])
    dilation = int(payload["dilation"])
    tx, ty = (int(x) for x in payload["translation"])
    vertex = tuple(int(x) for x in payload["vertex"])
    expect(dilation == m and order == k * m, f"m={m}: wrong dilation or order")
    expect(i + j <= order - 1, f"m={m}: functional order {i + j} >= {order}")
    corners = {(m * x + tx, m * y + ty) for x, y in FLAGSHIP_TRIANGLE}
    expect(vertex in corners, f"m={m}: {vertex} is not a polygon vertex")
    for a, b in polygon_points(FLAGSHIP_TRIANGLE, m, (tx, ty)):
        killed = falling_is_zero(a, i) or falling_is_zero(b, j)
        expect(killed == ((a, b) != vertex), f"m={m}: functional misses ({a},{b})")
    value = falling(vertex[0], i) * falling(vertex[1], j)
    expect(value == int(payload["vertex_value"]), f"m={m}: wrong vertex value")


@functools.cache
def _flagship_lower_bound():
    check_flagship_curve()
    return 1


def check_blowup_report(result):
    """The JSON result of `blowup-analyze --weights 12,13,17 --k 51
    --m-max 5 --h0-order 52`: h0 = 1 (the explicit curve proves h0 >= 1),
    the intersection numbers and the five forced vertices."""
    expect(_flagship_lower_bound() == 1, "no explicit section")
    expect(result["h0"]["dimension"] == "1", f"h0 = {result['h0']['dimension']} != 1")
    expect(result["h0"]["order"] == str(FLAGSHIP_ORDER), "h0 at the wrong order")
    expect(result["verified"] is True, "certificate not verified")
    payload = result["certificate"]["payload"]
    for key, value in flagship_intersections().items():
        expect(
            Fraction(payload[key]) == value,
            f"{key} = {payload[key]}, independent value {value}",
        )
    forced = payload["forced_vertex_certificates"]
    expect(len(forced) == FLAGSHIP_M_MAX, f"{len(forced)} forced vertices, not 5")
    for m, cert in enumerate(forced, start=1):
        expect(int(cert["m"]) == m, "forced vertices out of order")
        check_forced_vertex(cert["payload"], m)


def check_lm_report(result, weights=(12, 13, 17), n=10):
    """The JSON result of `lm-project --n 10`: 2 (2^(n-3) - 1) rays, every
    ray accounted for, and a signed weight relation among the images."""
    expected_rays = 2 * (2 ** (n - 3) - 1)
    expect(int(result["ray_count"]) == expected_rays, "wrong Losev-Manin ray count")
    mults = sum(int(e["multiplicity"]) for e in result["ray_image_multiset"])
    expect(mults + int(result["kernel_ray_count"]) == expected_rays, "rays lost")
    images = [tuple(int(x) for x in v) for v in result["images"]]
    minors = [cross(u, v) for u, v in itertools.combinations(images, 2)]
    expect(
        functools.reduce(math.gcd, minors, 0) == 1,
        "the three images do not generate Z^2",
    )
    related = any(
        all(
            sum(w * s * v[c] for w, s, v in zip(perm, (1,) + signs, images)) == 0
            for c in range(2)
        )
        for perm in itertools.permutations(weights)
        for signs in itertools.product((1, -1), repeat=2)
    )
    expect(related, "no signed weight relation among the images")
    expect(
        [int(x) for x in result["quotient_weights"]] == sorted(weights),
        f"quotient {result['quotient_weights']} != {sorted(weights)}",
    )


def vanishing_rows(vertices, order):
    pts = polygon_points(vertices)
    return [
        [falling(a, i) * falling(b, j) for a, b in pts]
        for i in range(order)
        for j in range(order - i)
    ], len(pts)


# ------------------------------------------------------- Z^2 gradings


def _angle_sorted(vectors):
    """Sort vectors of an open half-plane counter-clockwise, exactly."""
    return sorted(
        vectors, key=functools.cmp_to_key(lambda u, v: -1 if cross(u, v) > 0 else (1 if cross(u, v) < 0 else 0))
    )


def _check_half_plane(degrees):
    for u, v in itertools.combinations(degrees, 2):
        expect(
            not (cross(u, v) == 0 and u[0] * v[0] + u[1] * v[1] < 0),
            "degrees are not in an open half-plane",
        )
    expect(all(any(d) for d in degrees), "zero degree")


def z2_rays(degrees):
    """Distinct degree directions, counter-clockwise."""
    _check_half_plane(degrees)
    return _angle_sorted(sorted({primitive(d) for d in degrees}))


def z2_chambers(degrees):
    """Full-dimensional chambers: consecutive pairs of degree directions."""
    rays = z2_rays(degrees)
    out = [frozenset(pair) for pair in zip(rays, rays[1:]) if cross(*pair) > 0]
    expect(len(out) == len(rays) - 1, "effective cone is not pointed")
    return out


def z2_chamber_of(degrees, w):
    """Generators of the chamber of an effective class w: the direction of
    w if a degree points that way, else the two bracketing directions."""
    rays = z2_rays(degrees)
    w = primitive(w)
    if w in rays:
        return frozenset([w])
    for u, v in zip(rays, rays[1:]):
        if cross(u, w) > 0 and cross(w, v) > 0:
            return frozenset([u, v])
    raise Mismatch(f"class {w} is not effective")


def z2_effective_cone(degrees):
    rays = z2_rays(degrees)
    return frozenset([rays[0], rays[-1]])


def z2_moving_cone(degrees):
    """Intersection of the drop-one cones: spanned by the second and the
    second-to-last degree in angle order, counted with multiplicity."""
    ordered = _angle_sorted([primitive(d) for d in degrees])
    lo, hi = ordered[1], ordered[-2]
    expect(cross(lo, hi) >= 0, "moving cone is empty")
    return frozenset([lo, hi])


def z2_semistable(degrees, w):
    """Minimal index sets I with w in cone(degrees at I)."""
    single = [(i,) for i, d in enumerate(degrees) if primitive(d) == primitive(w)]
    pairs = [
        (i, j)
        for i, j in itertools.combinations(range(len(degrees)), 2)
        if cross(degrees[i], w) * cross(w, degrees[j]) > 0
    ]
    return single + pairs


def z2_is_cox(degrees):
    """(is_cox, failed_condition, witness) by the two-condition test."""
    r = len(degrees)
    for i in range(r):
        rest = [d for t, d in enumerate(degrees) if t != i]
        minors = [cross(u, v) for u, v in itertools.combinations(rest, 2)]
        if functools.reduce(math.gcd, minors, 0) != 1:
            return False, 1, (i,)
    drops = []
    for i in range(r):
        rest = _angle_sorted([degrees[t] for t in range(r) if t != i])
        drops.append((rest[0], rest[-1]))
    for i in range(r):
        for j in range(i, r):
            lo = drops[i][0] if cross(drops[i][0], drops[j][0]) <= 0 else drops[j][0]
            hi = drops[i][1] if cross(drops[i][1], drops[j][1]) >= 0 else drops[j][1]
            if cross(lo, hi) <= 0:
                return False, 2, (i, j)
    return True, None, None


# ------------------------------------------------------- Z^3 gradings


def cone3_facets(gens):
    """Primitive inward facet normals of a full-dimensional pointed cone."""
    gens = list(gens)
    out = set()
    for g, h in itertools.combinations(gens, 2):
        n = (
            g[1] * h[2] - g[2] * h[1],
            g[2] * h[0] - g[0] * h[2],
            g[0] * h[1] - g[1] * h[0],
        )
        if not any(n):
            continue
        vals = [sum(a * b for a, b in zip(n, x)) for x in gens]
        if all(v >= 0 for v in vals) and any(v > 0 for v in vals):
            out.add(primitive(n))
        elif all(v <= 0 for v in vals) and any(v < 0 for v in vals):
            out.add(primitive(tuple(-a for a in n)))
    expect(len(out) >= 3, "cone is not full-dimensional")
    return out


def position(facets, w):
    vals = [sum(a * b for a, b in zip(f, w)) for f in facets]
    if any(v < 0 for v in vals):
        return "outside"
    return "inside" if all(v > 0 for v in vals) else "boundary"


def check_z3_chambers(degrees, chambers, samples):
    """Chambers (generator lists) are full-dimensional, lie in the
    effective cone, and each sampled effective class lies in the interior
    of exactly one chamber or on a wall."""
    eff = cone3_facets(degrees)
    expect(chambers, "no chambers")
    facet_sets = []
    for gens in chambers:
        facet_sets.append(cone3_facets(gens))
        for g in gens:
            expect(position(eff, g) != "outside", f"chamber ray {g} leaves Eff")
    for w in samples:
        where = [position(f, w) for f in facet_sets]
        inside = where.count("inside")
        expect(inside <= 1, f"class {w} is interior to {inside} chambers")
        expect(
            inside == 1 or "boundary" in where,
            f"class {w} is in no chamber and on no wall",
        )


# ------------------------------------------------- toric surfaces, P(w)


def surface_b(rays):
    """b_i with v_{i-1} + v_{i+1} = b_i v_i, for cyclically ordered rays
    of a smooth complete surface fan."""
    n = len(rays)
    out = []
    for i in range(n):
        prev, cur, nxt = rays[i - 1], rays[i], rays[(i + 1) % n]
        expect(cross(cur, nxt) == 1, "rays are not a smooth counter-clockwise cycle")
        s = (prev[0] + nxt[0], prev[1] + nxt[1])
        expect(cross(s, cur) == 0, "v_{i-1} + v_{i+1} is not a multiple of v_i")
        b = s[0] // cur[0] if cur[0] else s[1] // cur[1]
        out.append(b)
    return out


def surface_d_dot_di(rays, a):
    """D.D_i = a_{i-1} + a_{i+1} - b_i a_i."""
    b = surface_b(rays)
    n = len(rays)
    return [a[i - 1] + a[(i + 1) % n] - b[i] * a[i] for i in range(n)]


def surface_dot(rays, a1, a2):
    return sum(x * y for x, y in zip(a1, surface_d_dot_di(rays, a2)))


def surface_positivity(rays, a):
    """(nef, bpf, ample): nef = bpf iff all D.D_i >= 0, ample iff all > 0."""
    dd = surface_d_dot_di(rays, a)
    nef = all(x >= 0 for x in dd)
    return nef, nef, all(x > 0 for x in dd)


def surface_h0_nef(rays, a):
    """Riemann-Roch with vanishing higher cohomology: 1 + (D^2 - K.D)/2."""
    dd = surface_d_dot_di(rays, a)
    d2 = sum(x * y for x, y in zip(a, dd))
    return 1 + (d2 + sum(dd)) // 2


def surface_equivalent(rays, a, b):
    """Is a - b = div(chi^m) for an integer m?  Solved on two adjacent
    rays, which form a lattice basis of a smooth fan."""
    diff = [x - y for x, y in zip(a, b)]
    (p, q), (r, s) = rays[0], rays[1]
    det = p * s - q * r
    m = ((diff[0] * s - q * diff[1]) // det, (p * diff[1] - r * diff[0]) // det)
    return all(m[0] * v[0] + m[1] * v[1] == d for v, d in zip(rays, diff))


def weighted_degree(weights, a):
    return sum(w * x for w, x in zip(weights, a))


def weighted_h0(weights, d):
    """Monomials of degree d in variables of the given weights."""
    if d < 0:
        return 0
    ways = [1] + [0] * d
    for w in weights:
        for t in range(w, d + 1):
            ways[t] += ways[t - w]
    return ways[d]


def weighted_positivity(weights, d):
    """(nef, bpf, ample) of O(d) on a well-formed P(w): Cartier iff
    lcm(w) | d."""
    cartier = d % math.lcm(*weights) == 0
    return d >= 0, d >= 0 and cartier, d > 0 and cartier


def weighted_dot(weights, d1, d2):
    """O(d1).O(d2) on a weighted projective plane."""
    return Fraction(d1 * d2, math.prod(weights))


def check_unimodular_map(t, rays1, cones1, rays2, cones2):
    """t is a 2x2 integer matrix of determinant +-1 carrying fan 1 onto fan 2."""
    expect(t is not None, "no unimodular equivalence found")
    (a, b), (c, d) = t
    expect(abs(a * d - b * c) == 1, "map is not unimodular")

    def image(v):
        return (a * v[0] + b * v[1], c * v[0] + d * v[1])

    expect({image(v) for v in rays1} == set(rays2), "rays not carried onto rays")
    fam1 = {frozenset(image(rays1[i]) for i in cone) for cone in cones1}
    fam2 = {frozenset(rays2[i] for i in cone) for cone in cones2}
    expect(fam1 == fam2, "cones not carried onto cones")
