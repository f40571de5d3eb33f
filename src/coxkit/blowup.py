"""Blow-ups of toric surfaces at the unit point of the torus.

Fat-point interpolation: matrices of derivative functionals at (1,1)
against Laurent monomials supported on a dilated polygon, their kernel
dimensions (section counts of m*H - k*E pullback classes), vanishing
orders of Laurent polynomials, the least-width images of a lattice
polygon, the negative curve that D = H - k*E must meet trivially (found
from k alone by at most one GF(p) rank bound and one proved kernel, see
`find_curve`), forced-vertex base point certificates, the full
nef-but-not-semiample certificate for blown-up weighted projective
planes, the blow-up finite-generation inequality for point
configurations in projective space, and ray projections of the
Losev-Manin fans.  Each certificate kind has one judge, which decides
every identity of a payload for its builder and for `Certificate.verify`
alike; the forced-vertex judge counts lattice points per column and lists
none.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .fans import fans_unimodular_equivalent, normal_fan, weighted_projective_fan
from .linalg import PANEL_WIDTH, IntMatrix, _clear_denominators, _limbs, certified_nullity, dot
from .linalg import int_rank_mod, modular_primes, primitive, smith_normal_form
from .polyhedra import Polytope, lattice_columns, lattice_points, polytope_from_points
from .polyhedra import lattice_point_count


class ZeroPolynomial(PreconditionError):
    pass


class FunctionalOrderTooHigh(PreconditionError):
    pass


class PreconditionFailed(PreconditionError):
    """A certificate-level identity failed; the message names it."""


class BadRange(PreconditionError):
    pass


class NotSurjective(PreconditionError):
    pass


# the lattice projection used for the Losev-Manin reduction from 10 marked
# points
LM10_PROJECTION_MATRIX = ((1, 0, 1, -2, -1, 1, 0), (0, 1, -1, -3, -2, 2, 1))
LM10_V1 = (1, 0, 1, 1, 1, 0, 0)
LM10_V2 = (0, 0, 0, -1, -1, 0, 0)
LM10_V3 = (-1, 0, -1, 0, 0, -1, 0)

# A forced-vertex judge walks the lattice columns of the dilated polygon,
# about 6 us each (2-core x86): this many take under a second.  The
# flagship's m = 5 certificate has 256; a payload with more fails.
FORCED_VERTEX_COLUMN_CAP = 1 << 17

# `h0` refuses a vanishing matrix of more entries: near it a proof took
# 0.78-1.13 s and a peak RSS of 72-76 MB (1540 x 5347 and 6105 x 1348 on the
# flagship triangle; 2-core x86, a shared host), with 4.4 times the
# flagship's entries.
INTERPOLATION_ENTRY_CAP = 1 << 23

# `least_width_images` tests about 30 r rows and may list about 32 r images,
# each tried by `blowup_certificate`, for r = lambda2 / lambda1; a thinner
# polygon is refused.  Weights up to 30 give r <= 30, reached by P(1, 1, 30).
WIDTH_RATIO_CAP = 64


def falling_factorial(a: int, i: int) -> int:
    """a * (a-1) * ... * (a-i+1); the empty product for i = 0 is 1."""
    out = 1
    for t in range(i):
        out *= a - t
    return out


def derivative_functionals(order: int):
    """All (i, j) with i + j < order, in lexicographic order."""
    return sorted((i, j) for i in range(order) for j in range(order - i))


def vanishing_entry(functional, point) -> int:
    i, j = functional
    a, b = point
    return falling_factorial(a, i) * falling_factorial(b, j)


@dataclass(frozen=True)
class InterpolationProblem:
    """Laurent polynomials supported on dilation * polygon vanishing to
    the given order at the torus unit (1, 1)."""

    polygon: Polytope
    dilation: int = 1
    order: int = 0

    def __post_init__(self):
        if self.polygon.dim() != 2:
            raise PreconditionError("interpolation polygon must be 2-dimensional")
        if self.dilation < 1 or self.order < 0:
            raise PreconditionError("need dilation >= 1 and order >= 0")

    def points(self):
        return lattice_points(self.polygon, self.dilation)

    def functionals(self):
        return derivative_functionals(self.order)


def vanishing_matrix_mod(points, functionals, p: int) -> np.ndarray:
    """The vanishing matrix of these lattice points and derivative
    functionals reduced mod p, as an int32 array of residues in [0, p): row
    (i, j), column (a, b) holds (a)_i * (b)_j mod p.

    Falling factorials mod p are tabulated per coordinate value by a
    running product, (a)_i = (a)_{i-1} * (a - i + 1), and spread over the
    points, one row per order.  The result is the only full-size array:
    PANEL_WIDTH rows at a time, the a-factors and the b-factors of a block
    are gathered into two reused int64 blocks, multiplied, and reduced
    into the block's slice of the result.  Needs p < 2^31 so that products
    of residues fit in int64 and residues in int32.
    """
    import numpy as np

    pts = np.array(points, dtype=np.int64).reshape(-1, 2)
    funcs = np.array(functionals, dtype=np.int64).reshape(-1, 2)

    def factor(axis):
        # row i holds (x)_i mod p for each point's x on this axis
        coords, orders = pts[:, axis], funcs[:, axis]
        # the value range spans 0, which keeps empty point lists valid
        lo = int(coords.min(initial=0))
        values = np.arange(lo, int(coords.max(initial=0)) + 1, dtype=np.int64)
        table = np.ones((int(orders.max(initial=0)) + 1, values.size), dtype=np.int64)
        for i in range(1, table.shape[0]):
            table[i] = table[i - 1] * ((values - (i - 1)) % p) % p
        return table[:, coords - lo]

    fa, fb = factor(0), factor(1)
    out = np.empty((len(funcs), len(pts)), dtype=np.int32)
    blocks = np.empty((2, min(PANEL_WIDTH, len(funcs)), len(pts)), dtype=np.int64)
    for i0 in range(0, len(funcs), PANEL_WIDTH):
        i, j = funcs[i0 : i0 + PANEL_WIDTH].T
        rows, other = blocks[:, : len(i)]
        # mode="clip" writes straight into the block; "raise" would buffer it
        np.take(fa, i, axis=0, out=rows, mode="clip")
        np.take(fb, j, axis=0, out=other, mode="clip")
        rows *= other
        np.remainder(rows, p, out=out[i0 : i0 + len(i)], casting="unsafe")
    return out


def _falling_table(values, order):
    """Object array T[i, t] = (values[t])_i for 0 <= i < order, exact, by
    the running product (a)_i = (a)_{i-1} * (a - i + 1)."""
    import numpy as np

    v = np.array(values, dtype=object)
    table = np.empty((order, v.size), dtype=object)
    if order:
        table[0] = 1
    for i in range(1, order):
        table[i] = table[i - 1] * (v - (i - 1))
    return table


def functional_values(points, coeffs, order):
    """V[i, j, c] = sum over points t of coeffs[t, c] * (a_t)_i * (b_t)_j for
    i, j < order, exactly: the derivative functionals d_x^i d_y^j at (1, 1)
    applied to the Laurent polynomials whose coefficients on the points
    (a_t, b_t) are the columns of `coeffs`.

    The sum over points is taken per distinct a, S[a, j, c] = sum of
    coeffs[t, c] (b_t)_j over the points with a_t = a, and then
    V[i] = sum over a of (a)_i S[a]: integer falling-factorial tables
    instead of one product per matrix entry.
    """
    import numpy as np

    pts = np.array(points, dtype=np.int64).reshape(-1, 2)
    coeffs = np.asarray(coeffs, dtype=object).reshape(len(pts), -1)
    a_values, a_index = np.unique(pts[:, 0], return_inverse=True)
    b_values, b_index = np.unique(pts[:, 1], return_inverse=True)
    fb = _falling_table(b_values.tolist(), order)[:, b_index]
    terms = coeffs[:, None, :] * fb.T[:, :, None]
    sums = np.zeros((len(a_values), order, coeffs.shape[1]), dtype=object)
    np.add.at(sums, a_index, terms)
    fa = _falling_table(a_values.tolist(), order)
    out = fa.dot(sums.reshape(len(a_values), -1))
    return out.reshape(order, order, coeffs.shape[1])


class VanishingOperator:
    """The vanishing matrix of lattice points and derivative functionals
    for `certified_nullity`, never built over Z: residues come from
    `vanishing_matrix_mod`, columns from falling-factorial tables, and
    products from `functional_values`; a lifting step's exact product is
    split into the int64 limb stack that the lifting subtracts."""

    def __init__(self, points, functionals):
        import numpy as np

        self.points = np.array(points, dtype=np.int64).reshape(-1, 2)
        self.functionals = np.array(functionals, dtype=np.int64).reshape(-1, 2)
        self.shape = (len(self.functionals), len(self.points))
        self.order = int(self.functionals.max(initial=-1)) + 1

    def residues(self, p):
        return vanishing_matrix_mod(self.points, self.functionals, p)

    def columns(self, cols):
        pts = self.points[cols]
        i, j = self.functionals.T
        fa = _falling_table(pts[:, 0].tolist(), self.order)
        fb = _falling_table(pts[:, 1].tolist(), self.order)
        return fa[i] * fb[j]

    def product(self, Z):
        values = functional_values(self.points, Z, self.order)
        i, j = self.functionals.T
        return values[i, j]

    def pivot_product(self, rows, cols):
        pts = self.points[cols]
        i, j = self.functionals[rows].T

        def apply(x):
            return _limbs(functional_values(pts, x.astype(object), self.order)[i, j])

        return apply


def h0(problem: InterpolationProblem, mode="modular", *, proof=False):
    """Dimension of the space of Laurent polynomials supported on the
    dilated polygon vanishing to the given order at (1, 1): the nullity of
    the vanishing matrix, proved by `certified_nullity`.

    Past INTERPOLATION_ENTRY_CAP entries it raises PreconditionError
    (`_vanishing_operator`).  One GF(p) elimination of
    `vanishing_matrix_mod` (the first prime of `modular_primes()`) gives
    the upper bound; kernel vectors lifted from it and checked exactly
    against every functional (by `functional_values`) give the lower
    bound.  The exact matrix is never built.  Both modes, "modular" and
    "exact", run this proof; the mode stays only because the benchmark's
    `exact-rank` workload passes it.  With proof=True the `NullityProof` is
    returned instead of the dimension.
    """
    if mode not in ("exact", "modular"):
        raise ValueError(f"unknown mode {mode!r}")
    found = certified_nullity(_vanishing_operator(problem))
    return found if proof else found.nullity


def _vanishing_operator(problem: InterpolationProblem) -> VanishingOperator:
    """The problem's `VanishingOperator`; past INTERPOLATION_ENTRY_CAP
    entries, counted by `lattice_point_count` before any point is listed,
    it raises PreconditionError."""
    size = problem.order * (problem.order + 1) // 2
    size *= lattice_point_count(problem.polygon, problem.dilation)
    if size > INTERPOLATION_ENTRY_CAP:
        raise PreconditionError(f"{size} matrix entries, over INTERPOLATION_ENTRY_CAP")
    return VanishingOperator(problem.points(), problem.functionals())


# ------------------------------------------------------ laurent polynomials


@dataclass(frozen=True)
class LaurentPoly:
    """Laurent polynomial in two variables with exact coefficients."""

    terms: tuple  # ((a, b), Fraction) pairs, sorted, nonzero coefficients

    @classmethod
    def from_terms(cls, items):
        acc = {}
        for (a, b), c in items:
            key = (int(a), int(b))
            acc[key] = acc.get(key, Fraction(0)) + Fraction(c)
        terms = tuple(sorted((k, v) for k, v in acc.items() if v != 0))
        return cls(terms)

    def is_zero(self):
        return not self.terms

    def support(self):
        return [k for k, _ in self.terms]


def _width(points, *rows):
    """The sum over the rows u of max <u, p> - min <u, p> over the points;
    with no rows, width in x plus width in y, a bound on the vanishing
    order at (1,1) of a nonzero polynomial supported on the points."""
    values = [[dot(u, p) for p in points] for u in rows or ((1, 0), (0, 1))]
    return sum(max(v) - min(v) for v in values)


def order_at_e(f: LaurentPoly) -> int:
    """Smallest total order i+j of a derivative functional at (1,1) that
    does not annihilate f.

    The coefficients are scaled to integers by the lcm of their
    denominators, which changes no zero, and every functional of order at
    most the support's width is evaluated at once by `functional_values`.
    """
    if f.is_zero():
        raise ZeroPolynomial("order of the zero polynomial is undefined")
    supp = f.support()
    bound = _width(supp)
    coeffs = _clear_denominators([c for _, c in f.terms])
    values = functional_values(supp, coeffs, bound + 1)[:, :, 0]
    i, j = (values != 0).nonzero()
    total = int((i + j).min(initial=bound + 1))
    if total > bound:
        raise AssertionError("vanishing order exceeded the support bound")
    return total


# ------------------------------------------------------------- certificates


@dataclass(frozen=True)
class Certificate:
    """Exact, re-verifiable payload for one of the blow-up conclusions.

    kinds: forced_vertex, negative_curve, nef_not_semiample.  verify()
    runs the kind's judge on the payload alone; the builders assemble
    payloads and ask the same judge, which decides every identity.  A
    payload with a missing or mistyped field fails its judge, so verify()
    answers False for it and never raises.
    """

    kind: str
    payload: dict
    transcript: tuple

    def verify(self) -> bool:
        if self.kind == "forced_vertex":
            return _forced_vertex_points(self.payload) is not None
        if self.kind == "negative_curve":
            return _negative_curve_failure(self.payload) is None
        if self.kind == "nef_not_semiample":
            return _nef_not_semiample_failure(self.payload) is None
        return False


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_rational(x):
    return _is_int(x) or isinstance(x, Fraction)


def _is_point(x):
    return isinstance(x, (tuple, list)) and len(x) == 2 and all(map(_is_int, x))


def _is_polygon(x):
    return isinstance(x, (tuple, list)) and len(x) > 0 and all(map(_is_point, x))


def _is_certificate(kind):
    return lambda x: isinstance(x, Certificate) and x.kind == kind


# The fields each judge reads, with a test of each value.
_PAYLOAD_FIELDS = {
    "forced_vertex": {
        "polygon": _is_polygon,
        "dilation": lambda x: _is_int(x) and x >= 1,
        "order": _is_int,
        "functional": _is_point,
        "translation": _is_point,
        "vertex": _is_point,
        "vertex_value": _is_int,
    },
    "negative_curve": {
        "h_self_intersection": _is_int,
        "curve_order": _is_int,
        "curve_self_intersection": _is_rational,
    },
    "nef_not_semiample": {
        "polygon": _is_polygon,
        "curve_order": _is_int,
        "k": _is_int,
        "h_self_intersection": _is_int,
        "curve_self_intersection": _is_rational,
        "d_dot_c": _is_rational,
        "d_dot_e": _is_rational,
        "m_max": lambda x: _is_int(x) and x >= 1,
        "negative_curve": _is_certificate("negative_curve"),
        "forced_vertex_certificates": lambda x: isinstance(x, (tuple, list))
        and all(c is None or _is_certificate("forced_vertex")(c) for c in x),
    },
}


def _malformed(kind, payload):
    """The first field of a payload of this kind that is missing or of the
    wrong type, "payload" when it is not a dict, or None."""
    if not isinstance(payload, dict):
        return "payload"
    for key, ok in _PAYLOAD_FIELDS[kind].items():
        if key not in payload or not ok(payload[key]):
            return key
    return None


def _forced_vertex_points(payload):
    """The number of lattice points of the payload's dilated polygon moved
    by its translation when the functional (a)_i (b)_j, of order below the
    payload's order, is nonzero at the vertex, with the stated value, and
    at no other of these points; None otherwise.

    (a)_i vanishes exactly when 0 <= a < i, so in the column of points
    (a, b) with lo <= b <= hi the entry is nonzero nowhere when a is in
    [0, i), and otherwise at every b outside [0, j).  The nonzero entries
    are counted column by column and no point is listed.  A malformed
    payload, a functional with a negative order, or more columns than
    FORCED_VERTEX_COLUMN_CAP, gives None.
    """
    if _malformed("forced_vertex", payload) or _columns(payload) > FORCED_VERTEX_COLUMN_CAP:
        return None
    i, j = payload["functional"]
    if min(i, j) < 0 or i + j > payload["order"] - 1:
        return None
    tx, ty = payload["translation"]
    va, vb = vertex = tuple(payload["vertex"])
    polygon = polytope_from_points(payload["polygon"])
    points = nonzero = 0
    found = False
    for (a,), lo, hi in lattice_columns(polygon, payload["dilation"]):
        a, lo, hi = a + tx, lo + ty, hi + ty
        points += hi - lo + 1
        found = found or (a == va and lo <= vb <= hi)
        if not 0 <= a < i:
            nonzero += hi - lo + 1 - max(0, min(hi, j - 1) - max(lo, 0) + 1)
    value = payload["vertex_value"]
    if found and nonzero == 1 and value == vanishing_entry((i, j), vertex) != 0:
        return points
    return None


def _columns(payload):
    """The number of lattice columns of the payload's dilated polygon."""
    xs = [a for a, _ in payload["polygon"]]
    return payload["dilation"] * (max(xs) - min(xs)) + 1


def _negative_curve_failure(payload):
    """The failed identity of a negative-curve payload, or None:
    C^2 = H^2/w^2 - 1 < 0 for a curve order w >= 1."""
    malformed = _malformed("negative_curve", payload)
    if malformed:
        return f"negative-curve payload field {malformed!r} is missing or mistyped"
    h2, w = payload["h_self_intersection"], payload["curve_order"]
    c2 = payload["curve_self_intersection"]
    if w < 1 or c2 != Fraction(h2, w**2) - 1:
        return f"C^2 = {c2} is not H^2/w^2 - 1 for H^2 = {h2} and w = {w}"
    if c2 >= 0:
        return f"C^2 = H^2/w^2 - 1 = {c2} is not negative"
    return None


def _curve_order(h2, k):
    """(w, failure): the curve order w = H^2/k of D.C = H^2/w - k = 0, and
    the first of D.E = k > 0, k | H^2 and C^2 < 0 (w > k) that fails."""
    if k < 1:
        return None, f"D.E = k = {k} is not positive"
    if h2 % k:
        return None, f"D.C = 0 needs w = H^2/k, but k = {k} does not divide H^2 = {h2}"
    if h2 // k <= k:
        return h2 // k, f"w = H^2/k = {h2 // k} <= k = {k}, so C^2 = H^2/w^2 - 1 >= 0"
    return h2 // k, None


def _curve_identities_failure(payload):
    """The first failed identity that no image of the polygon changes, or
    None.  In order: `_curve_order` of H^2 and k, the stated w, D.C = 0 and
    D.E = k, and the negative-curve certificate (`_negative_curve_failure`,
    stating the same H^2, w and C^2)."""
    h2, w, k = payload["h_self_intersection"], payload["curve_order"], payload["k"]
    order, failure = _curve_order(h2, k)
    stated = (w, payload["d_dot_c"], payload["d_dot_e"])
    if failure or stated != (order, 0, k):
        return failure or "w, D.C, D.E are {}, {}, {}, not {}, 0, {}".format(*stated, order, k)
    curve = payload["negative_curve"].payload
    failure = _negative_curve_failure(curve)
    keys = ("h_self_intersection", "curve_order", "curve_self_intersection")
    if failure or any(curve[key] != payload[key] for key in keys):
        return failure or "the negative-curve certificate states another curve"
    return None


def _nef_not_semiample_failure(payload):
    """The first failed identity of a nef-not-semiample payload, or None:
    a missing, mistyped or out-of-range field (an m_max below 1 would
    prove nothing), `_curve_identities_failure`, then for each multiple
    m = 1..m_max a forced-vertex certificate (None fails) of the
    argument on m times the polygon at order k m (`_forced_vertex_points`)."""
    malformed = _malformed("nef_not_semiample", payload)
    if malformed:
        return f"payload field {malformed!r} is missing, mistyped or out of range"
    failure = _curve_identities_failure(payload)
    if failure:
        return failure
    k, forced = payload["k"], payload["forced_vertex_certificates"]
    if len(forced) != payload["m_max"]:
        return f"{len(forced)} forced-vertex certificates for m_max = {payload['m_max']}"
    for m, cert in enumerate(forced, 1):
        sub = cert.payload if cert else None
        if _forced_vertex_points(sub) is None or (
            (sub["dilation"], sub["order"], sub["polygon"]) != (m, k * m, payload["polygon"])
        ):
            return f"forced vertex argument fails at multiple m = {m}"
    return None


def forced_vertex_coefficient(
    polygon, dilation, order, vertex, functional, translation=(0, 0)
):
    """Certificate that one polygon vertex coefficient is forced to zero.

    The falling-factorial functional must annihilate every lattice point
    of the translated dilated polygon except the named vertex, where it is
    nonzero, as `_forced_vertex_points` decides from the payload.  Such a
    functional shows that every section vanishing to the given order at
    (1,1) has zero coefficient at that vertex, so the corresponding
    divisor class has a base point.  Returns None when the functional
    fails to single out the vertex.  Raises PreconditionError when the
    dilated polygon has more than FORCED_VERTEX_COLUMN_CAP lattice columns,
    or when the vertex value has too many digits to write in decimal.
    """
    vertices = polygon.vertices if isinstance(polygon, Polytope) else polygon
    i, j = functional
    if i + j > order - 1:
        raise FunctionalOrderTooHigh(
            f"functional ({i},{j}) has order {i + j} > {order - 1}"
        )
    vertex = tuple(int(x) for x in vertex)
    vertex_value = vanishing_entry((i, j), vertex)
    try:
        shown = str(vertex_value)
    except ValueError:  # past the digit limit that also guards parsing input
        raise PreconditionError(f"the value at vertex {vertex} is too long to write") from None
    payload = {
        "polygon": tuple(tuple(int(x) for x in v) for v in vertices),
        "dilation": dilation,
        "order": order,
        "functional": (i, j),
        "translation": tuple(translation),
        "vertex": vertex,
        "vertex_value": vertex_value,
    }
    if _columns(payload) > FORCED_VERTEX_COLUMN_CAP:
        raise PreconditionError(
            f"the dilated polygon has {_columns(payload)} lattice columns, above "
            f"FORCED_VERTEX_COLUMN_CAP = {FORCED_VERTEX_COLUMN_CAP}"
        )
    points = _forced_vertex_points(payload)
    if points is None:
        return None
    transcript = (
        f"functional d_x^{i} d_y^{j} at (1,1) annihilates all "
        f"{points - 1} non-vertex lattice points of the translated polygon",
        f"value at vertex {vertex} is {shown} != 0",
        f"every section vanishing to order {order} at (1,1) has zero "
        f"coefficient at {vertex}",
    )
    return Certificate("forced_vertex", payload, transcript)


def _lattice_polygon(polygon) -> Polytope:
    """The polygon as a Polytope; raises PreconditionFailed unless it is a
    2-dimensional lattice polygon."""
    poly = (
        polygon
        if isinstance(polygon, Polytope)
        else polytope_from_points(polygon)
    )
    if poly.dim() != 2 or not poly.is_lattice():
        raise PreconditionFailed("polygon must be a 2-dimensional lattice polygon")
    return poly


def least_width_images(polygon, k):
    """The images of a lattice polygon under GL2(Z) of least width in x plus
    width in y, as sorted vertex tuples moved to put the largest vertex at
    (k - 1, 0), in descending order: a function of the polygon's class.
    Gauss reduction in the width norm w (Kaib and Schnorr 1996), with each
    mu minimizing the convex w(b2 - mu b1) found by bisection, gives a basis
    of successive minima; a least-width map's rows x b1 + y b2 have width
    <= w(b2), so |y| <= 2 and |x| <= 3 w(b2) / w(b1).  Raises
    PreconditionError when w(b2) / w(b1) passes WIDTH_RATIO_CAP."""
    verts = [tuple(map(int, v)) for v in _lattice_polygon(polygon).vertices]
    width = functools.partial(_width, verts)

    def add(u, x, v):
        return (u[0] + x * v[0], u[1] + x * v[1])

    b1, b2 = sorted(((1, 0), (0, 1)), key=width)
    while True:
        n = 2 * width(b2) // width(b1) + 1
        mu = bisect.bisect(range(-n, n), False, key=lambda m: width(add(b2, -m - 1, b1))
                           >= width(add(b2, -m, b1))) - n
        b2 = add(b2, -mu, b1)
        if width(b2) >= width(b1):
            break
        b1, b2 = b2, b1
    if width(b2) > WIDTH_RATIO_CAP * width(b1):
        raise PreconditionError(f"widths {width(b1)}, {width(b2)} pass WIDTH_RATIO_CAP")
    n = 3 * width(b2) // width(b1)
    rows = [add(add((0, 0), x, b1), y, b2) for y in range(-2, 3) for x in range(-n, n + 1)]
    rows = [u for u in rows if math.gcd(*u) == 1 and width(u) <= width(b2)]
    images = set()
    for r1, r2 in itertools.product(rows, repeat=2):
        if abs(r1[0] * r2[1] - r1[1] * r2[0]) == 1 and width(r1, r2) == width(b1, b2):
            image = [(dot(r1, v), dot(r2, v)) for v in verts]
            top = max(image)
            images.add(tuple(sorted((x - top[0] + k - 1, y - top[1]) for x, y in image)))
    return sorted(images, reverse=True)


def find_curve(polygon, k):
    """The negative curve C with D.C = 0 for D = pullback(H) - k E, found
    from k alone.

    A Laurent polynomial f supported on the polygon with vanishing order w
    at (1,1) gives a curve of class (1/w) pullback(H) - E; `_curve_order`
    gives w.  A nonzero f has order at most the polygon's width in x plus
    its width in y (the bound of `order_at_e`), so above that no f exists.
    Otherwise h0 at order w must be 1: an irreducible negative curve is
    alone in its linear system.  Let low be the least order whose
    functionals reach the point count.  When w > low + 1, one GF(p)
    elimination at order low + 1 comes first: if its rank equals the
    point count (the rule `rank == cols` of `certified_nullity`), h0 is 0
    there, and so at w, since h0 can only fall as the order rises; nothing
    is lifted.  Otherwise h0 at w is proved.  The first failed condition
    raises PreconditionFailed.  Returns (w, f, proof): f is the proof's
    one kernel vector on the lattice points and proof its `NullityProof`.
    """
    poly = _lattice_polygon(polygon)
    w, failure = _curve_order(int(2 * poly.area()), k)
    if failure:
        raise PreconditionFailed(failure)
    width = _width([tuple(map(int, v)) for v in poly.vertices])
    if w > width:
        raise PreconditionFailed(
            f"no nonzero section has order w = {w} > {width}, the polygon's "
            f"width in x plus its width in y"
        )
    points = lattice_point_count(poly)
    low = (math.isqrt(8 * points + 1) - 1) // 2  # the least with low(low+1)/2 >= points
    low += low * (low + 1) // 2 < points

    def no_curve(nullity):
        return PreconditionFailed(
            f"h0 at order w = {w} is {nullity}, not 1: no irreducible "
            f"negative curve of that order"
        )

    if w > low + 1:
        bound = _vanishing_operator(InterpolationProblem(poly, 1, low + 1))
        if int_rank_mod(bound, modular_primes()[0]).rank == points:
            raise no_curve(0)
    problem = InterpolationProblem(poly, 1, w)
    proof = h0(problem, proof=True)
    if proof.nullity != 1:
        raise no_curve(proof.nullity)
    f = LaurentPoly.from_terms(zip(problem.points(), proof.kernel[0]))
    return w, f, proof


def blowup_certificate(weights, polygon, curve, k, m_max=5):
    """Certify that pulled-back ample minus k times the exceptional class
    is nef but not basepoint free at multiples 1..m_max.

    `curve` is a pair (w, f): a Laurent polynomial supported on the
    polygon whose vanishing order at (1,1) is w, exhibiting an
    irreducible curve of class (1/w) * pullback - exceptional.  What the
    payload cannot carry is checked here: a lattice polygon, f nonzero,
    supported on it and of order w >= 1, and the P(weights) fan.  The
    identities no image changes (`_curve_identities_failure`) are judged
    before any forced vertex is built.  Then a payload is built on each of
    `least_width_images(polygon, k)`, where f moved by the same map keeps
    its order, until one passes `_nef_not_semiample_failure`, the judge of
    `Certificate.verify`: at multiple m the functional (k m - 2, 1) must
    single out the least vertex of m times the image moved by (m - 1, 0).
    Each failure raises PreconditionFailed, that of the first image if
    none passes.  The statement for all multiples m is recorded as an
    external conclusion, certified here for m <= m_max.
    """
    poly = _lattice_polygon(polygon)
    w, f = curve
    if f.is_zero():
        raise PreconditionFailed("curve polynomial is zero")
    if not all(poly.contains(p) for p in f.support()):
        raise PreconditionFailed("curve polynomial is not supported on the polygon")
    order = order_at_e(f)
    if order != w or w < 1:
        raise PreconditionFailed(f"order_at_e(f) = {order}, not the curve order w = {w} >= 1")
    if weights is not None:
        target = weighted_projective_fan(*weights)
        nf = normal_fan(poly)
        if fans_unimodular_equivalent(nf, target) is None:
            raise PreconditionFailed(
                f"normal fan of the polygon is not the P{tuple(weights)} fan"
            )

    h2 = int(2 * poly.area())
    c2 = Fraction(h2, w**2) - 1
    neg = Certificate(
        "negative_curve",
        {
            "h_self_intersection": h2,
            "curve_order": w,
            "curve_self_intersection": c2,
            "curve_class": (Fraction(1, w), -1),
        },
        (
            f"H^2 = 2 * area = {h2}",
            f"curve class is (1/{w}) pullback(H) - E since f has order {w} at (1,1)",
            f"C^2 = H^2/w^2 - 1 = {c2} < 0",
        ),
    )
    identities = {
        "weights": tuple(weights) if weights is not None else None,
        "curve_order": w,
        "k": k,
        "h_self_intersection": h2,
        "curve_self_intersection": c2,
        "d_dot_c": Fraction(h2, w) - k,
        "d_dot_e": k,
        "m_max": m_max,
        "negative_curve": neg,
    }
    failure = _curve_identities_failure(identities)
    if failure:
        raise PreconditionFailed(failure)
    failures = []
    for verts in least_width_images(poly, k):
        (x, y), forced = min(verts), []
        for m in range(1, m_max + 1):
            forced.append(forced_vertex_coefficient(
                verts, m, k * m, (m * x + m - 1, m * y), (k * m - 2, 1), (m - 1, 0)))
            if forced[-1] is None:
                break
        payload = dict(identities, polygon=verts, forced_vertex_certificates=tuple(
            forced + [None] * (m_max - len(forced))))
        failures.append(_nef_not_semiample_failure(payload))
        if not failures[-1]:
            break
    else:
        raise PreconditionFailed(failures[0])
    transcript = (
        f"D = pullback(H) - {k} E with D.C = 0 and D.E = {k} > 0",
        f"D is nef: it pairs nonnegatively with the negative curves C and E "
        f"spanning the effective cone",
        f"forced-vertex certificates show m D has a base point for m = 1..{m_max}",
        "non-semiampleness for every multiple m is an external statement, "
        f"certified here for m <= {m_max}",
        "a nef divisor that is not semiample rules out finite generation "
        "of the total coordinate ring",
    )
    return Certificate("nef_not_semiample", payload, transcript)


# ------------------------------------------------------------------ mukai


def mukai_predicate(r: int, n: int) -> bool:
    """Finite generation test for blow-ups of projective space at points:
    1/r + 1/(n-r) > 1/2, exact."""
    if not (n > r >= 2):
        raise BadRange("need n > r >= 2")
    return Fraction(1, r) + Fraction(1, n - r) > Fraction(1, 2)


# ---------------------------------------------------------- Losev-Manin


def lm_rays(n: int):
    """Primitive ray generators of the Losev-Manin fan for n markings:
    all nonzero 0/1 vectors in Z^(n-3) and their negatives."""
    if n < 4:
        raise BadRange("Losev-Manin spaces need n >= 4")
    d = n - 3
    out = []
    for bits in itertools.product((0, 1), repeat=d):
        if not any(bits):
            continue
        out.append(bits)
        out.append(tuple(-x for x in bits))
    return sorted(out)


@dataclass(frozen=True)
class LmProjectionReport:
    ray_image_multiset: tuple  # sorted (primitive image, multiplicity) pairs
    kernel_ray_count: int
    images: tuple  # images of v1, v2, v3
    generates: bool
    relations: tuple  # ((a1,a2,a3) weights on v1,v2,v3, (s1,s2,s3) signs)
    quotient_weights: tuple | None


def lm_projection(n, pi: IntMatrix, v1, v2, v3, weights) -> LmProjectionReport:
    """Project the Losev-Manin rays and identify the induced weighted
    projective plane.

    Searches all assignments of the three pairwise-coprime weights to
    v1, v2, v3 and all relative signs for a combination lying in the
    kernel of the projection; reports every verified assignment rather
    than assuming a labeling.
    """
    if pi.rows != 2 or pi.cols != n - 3:
        raise PreconditionError("projection matrix must be 2 x (n-3)")
    snf = smith_normal_form(pi)
    if snf.rank != 2 or set(snf.invariant_factors) != {1}:
        raise NotSurjective("projection is not surjective onto Z^2")
    a, b, c = (int(w) for w in weights)

    images = {}
    zero_count = 0
    for v in lm_rays(n):
        img = pi.apply(v)
        if not any(img):
            zero_count += 1
            continue
        key = primitive(img)
        images[key] = images.get(key, 0) + 1

    iv = tuple(tuple(pi.apply(v)) for v in (v1, v2, v3))
    gen_matrix = IntMatrix(list(iv), cols=2)
    gsnf = smith_normal_form(gen_matrix)
    generates = gsnf.rank == 2 and set(gsnf.invariant_factors) == {1}

    relations = []
    for perm in itertools.permutations((a, b, c)):
        for s2, s3 in itertools.product((1, -1), repeat=2):
            combo = tuple(
                perm[0] * x1 + s2 * perm[1] * x2 + s3 * perm[2] * x3
                for x1, x2, x3 in zip(iv[0], iv[1], iv[2])
            )
            if not any(combo):
                relations.append((perm, (1, s2, s3)))
    quotient = tuple(sorted((a, b, c))) if (relations and generates) else None
    return LmProjectionReport(
        ray_image_multiset=tuple(sorted(images.items())),
        kernel_ray_count=zero_count,
        images=iv,
        generates=generates,
        relations=tuple(relations),
        quotient_weights=quotient,
    )
