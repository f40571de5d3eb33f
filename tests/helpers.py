"""Shared test oracles: deliberately simple, independent implementations."""

import functools
import itertools
import math
from fractions import Fraction

from coxkit import blowup, linalg
from coxkit.chambers import NotEffective, effective_cone, mori_chamber
from coxkit.divisors import (
    NotComplete,
    NotNef,
    NotSimplicial,
    NotSurface,
    PositivityRecord,
    _check_divisor,
    divisor_polytope,
)
from coxkit.errors import PreconditionError
from coxkit.fans import fan_predicates, normal_fan, weighted_projective_fan
from coxkit.linalg import (
    DenseOperator,
    IntMatrix,
    NullityProof,
    RatMatrix,
    certified_nullity,
    dot,
    int_inverse_unimodular,
    int_rank_mod,
    integer_kernel_saturated,
    modular_primes,
    primitive,
    smith_normal_form,
)
from coxkit.polyhedra import (
    Cone,
    DimensionMismatch,
    EmptyInput,
    _clear_denominators,
    _double_description,
    _extreme_rays_of_halfspaces,
    _triangulate_pointed,
    _with_lineality,
    dd_convert,
    intersect,
    zero_cone,
)


def int_rank(rows):
    """Rank of an integer matrix given as a list of rows (Bareiss)."""
    a = [[int(x) for x in row] for row in rows]
    n = len(a)
    if n == 0:
        return 0
    m = len(a[0])
    rank = 0
    r = 0
    prev = 1
    for c in range(m):
        piv = next((i for i in range(r, n) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][c]
        for i in range(r + 1, n):
            aic = a[i][c]
            rowi = a[i]
            rowr = a[r]
            for j in range(c + 1, m):
                rowi[j] = (pv * rowi[j] - aic * rowr[j]) // prev
            rowi[c] = 0
        prev = pv
        rank += 1
        r += 1
        if r == n:
            break
    return rank


def det(M: IntMatrix):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if M.rows != M.cols:
        raise ValueError("determinant of non-square matrix")
    n = M.rows
    if n == 0:
        return 1
    a = [list(row) for row in M._r]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            rowi = a[i]
            rowk = a[k]
            for j in range(k + 1, n):
                rowi[j] = (pk * rowi[j] - aik * rowk[j]) // prev
            rowi[k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


def common_denominator_whole(X, M):
    """(d, Y) with Y = d X mod M and every |Y| and d at most sqrt(M / 2),
    or None: the whole array is rescaled at each new denominator, with no
    probe."""
    import numpy as np

    bound = math.isqrt((M - 1) // 2)
    d = 1
    while True:
        Y = X * d % M
        Y = np.where(Y > M // 2, Y - M, Y)
        big = np.flatnonzero(np.abs(Y) > bound)
        if not big.size:
            return d, Y
        found = linalg._rational_reconstruction(int(Y.flat[big[0]]) % M, M, bound)
        if found is None or d * found[1] > bound:
            return None
        d *= found[1]


def certified_nullity_by_objects(op, primes=None):
    """`linalg.certified_nullity` with the residual, the digits and the
    solution held as Python integers, the pivot product taken as an exact
    object product A [x; 0], and every reconstruction over the whole array:
    the same elimination and pivot solves, so the same NullityProof."""
    import numpy as np

    m, n = op.shape
    if min(m, n) == 0:
        return NullityProof(n, None, 0)
    rejected = []
    for p in modular_primes(primes):
        f = int_rank_mod(op, p)
        r = f.rank
        if r == n or (r == m and n - r > 1):
            return NullityProof(n - r, p, r, rejected=tuple(rejected))
        rows, piv = f.perm[:r], list(f.pivots)
        free = sorted(set(range(n)) - set(piv))
        k = len(free)
        solve = linalg._PivotSolver(f)

        def pivot_product(x):
            Z = np.zeros((n, k), dtype=object)
            Z[piv] = x
            return op.product(Z)[rows]

        B = -op.columns(free)[rows]
        X = np.zeros((r, k), dtype=object)
        M = 1
        steps, attempt = 0, 1
        while True:
            if steps == linalg.LIFTING_STEP_CAP:
                raise PreconditionError(f"passed {steps} steps")
            x = solve((B % p).astype(np.int64)).astype(object)
            X += x * M
            M *= p
            B = (B - pivot_product(x)) // p
            steps += 1
            if steps < attempt:
                continue
            attempt = steps + 1 + steps // 4
            found = common_denominator_whole(X, M)
            if found is None:
                continue
            d, Y = found
            Z = np.zeros((n, k), dtype=object)
            Z[piv] = Y
            Z[free, np.arange(k)] = d
            bad = np.flatnonzero((op.product(Z) != 0).any(axis=1))
            if not bad.size:
                kernel = tuple(tuple(int(v) for v in col) for col in Z.T)
                return NullityProof(n - r, p, r, kernel, d, tuple(free), steps, tuple(rejected))
            if not np.isin(bad, rows).any():
                rejected.append(p)
                break
    raise PreconditionError(f"every candidate prime {tuple(rejected)} is unlucky")


def limb_value(S):
    """The integers held by the limb stack S, where S[j] counts 2^(21 j), as
    an object array."""
    import numpy as np

    out = np.zeros(S.shape[1:], dtype=object)
    for j, limb in enumerate(S):
        out += limb.astype(object) << (21 * j)
    return out


def _gauss_jordan(a, cols):
    """Reduce the Fraction rows `a` in place over their first `cols` columns.

    Gauss-Jordan elimination over Q: each pivot row is scaled to a leading
    1 and its column cleared in every other row.  Returns the pivot
    columns; pivot row i is a[i].
    """
    n = len(a)
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, n) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(n):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return pivots


def rational_kernel_basis(M):
    """Exact basis of the rational null space of a RatMatrix (list of
    Fraction tuples), by Gauss-Jordan over Fraction."""
    a = [[Fraction(x) for x in M.row(i)] for i in range(M.rows)]
    m = M.cols
    pivots = _gauss_jordan(a, m)
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * m
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][fc]
        basis.append(tuple(v))
    return basis


def rational_solve(A, b):
    """Solve A x = b exactly over Q; returns tuple of Fractions or None.

    A is a list of rows (or IntMatrix), b a vector.  For underdetermined
    systems an arbitrary solution (free variables at 0) is returned.
    """
    if isinstance(A, IntMatrix):
        A = A.row_list()
    a = [[Fraction(x) for x in row] + [Fraction(bv)] for row, bv in zip(A, b)]
    m = len(a[0]) - 1 if a else 0
    pivots = _gauss_jordan(a, m)
    if any(row[m] != 0 for row in a[len(pivots) :]):
        return None
    x = [Fraction(0)] * m
    for i, c in enumerate(pivots):
        x[c] = a[i][m]
    return tuple(x)


def find_gl2z(src_cols, dst_cols):
    """Integer 2x2 matrix T with det +-1 and T*src_i = dst_i for all i."""
    pairs = list(zip(src_cols, dst_cols))
    for (s1, d1), (s2, d2) in itertools.combinations(pairs, 2):
        S = IntMatrix([s1, s2])
        if det(S) == 0:
            continue
        rows = []
        ok = True
        for j in range(2):
            x = rational_solve(S, (d1[j], d2[j]))
            if x is None or any(Fraction(v).denominator != 1 for v in x):
                ok = False
                break
            rows.append([int(v) for v in x])
        if not ok:
            continue
        T = IntMatrix(rows)
        if abs(det(T)) != 1:
            continue
        if all(tuple(T.apply(s)) == tuple(d) for s, d in pairs):
            return T
    return None


def shoelace(vertices):
    total = Fraction(0)
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        total += Fraction(x1) * Fraction(y2) - Fraction(x2) * Fraction(y1)
    return abs(total) / 2


def falling(a, i):
    out = 1
    for t in range(i):
        out *= a - t
    return out


class LaurentPoly(blowup.LaurentPoly):
    """The library's Laurent polynomial with ring arithmetic, for building
    test polynomials by products."""

    @classmethod
    def monomial(cls, a, b, coeff=1):
        return cls.from_terms([((a, b), coeff)])

    def coeff(self, a, b):
        return dict(self.terms).get((a, b), Fraction(0))

    def __add__(self, other):
        return LaurentPoly.from_terms(list(self.terms) + list(other.terms))

    def __neg__(self):
        return LaurentPoly(tuple((k, -v) for k, v in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.from_terms(
                [(k, v * Fraction(other)) for k, v in self.terms]
            )
        items = []
        for (a1, b1), c1 in self.terms:
            for (a2, b2), c2 in other.terms:
                items.append(((a1 + a2, b1 + b2), c1 * c2))
        return LaurentPoly.from_terms(items)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers not supported")
        out = LaurentPoly.monomial(0, 0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


# The least-width image of the P(12,13,17) triangle on which the blown-up
# analysis at k = 51 certifies, placed with its largest vertex at (50, 0).
WPS_12_13_17_TRIANGLE = ((11, -26), (50, 0), (-1, 34))

# The 7-vertex polygon of the Losev-Manin reduction from 10 marked points
# (`blowup.LM10_PROJECTION_MATRIX` is its lattice projection).
LM10_POLYGON_COLUMNS = ((-1, 6), (-4, 5), (-3, 1), (-2, 8), (-6, 0), (-7, 0), (0, 3))


def wps_polygon(*weights):
    """The polygon `blowup-analyze --weights a,b,c` starts from: the class of
    degree abc on the fan of P(a, b, c), with H^2 = abc."""
    fan = weighted_projective_fan(*weights)
    return divisor_polytope(fan, (0, 0, weights[0] * weights[1]))


def flagship_curve():
    """x^11 y^-26 (1 - y)^52, the order-52 section on the triangle of the
    blown-up P(12,13,17) analysis, by Fraction products."""
    one_minus_y = LaurentPoly.from_terms([((0, 0), 1), ((0, 1), -1)])
    return LaurentPoly.monomial(11, -26) * one_minus_y**52


def order_at_e_oracle(f):
    """The Fraction loop order_at_e used to be: each functional summed over
    the terms with exact falling factorials, by increasing total order."""
    if f.is_zero():
        raise blowup.ZeroPolynomial("order of the zero polynomial is undefined")
    ff = functools.cache(falling)
    total = 0
    while True:
        for i in range(total + 1):
            if sum(c * (ff(a, i) * ff(b, total - i)) for (a, b), c in f.terms):
                return total
        total += 1


def least_width_images_by_search(vertices, k):
    """`blowup.least_width_images` by search, with no reduction.

    Every row r of a least-width map has width max <r, v> - min <r, v> at
    most W, the width in x plus width in y of the vertices as given, so
    |<r, d>| <= W for two independent vertex differences d1, d2: the rows
    are the integer solutions r of (<r, d1>, <r, d2>) = s over the box
    |s_i| <= W.  All pairs of them with determinant +-1 are tried."""

    def width(u):
        values = [u[0] * x + u[1] * y for x, y in vertices]
        return max(values) - min(values)

    v0 = vertices[0]
    diffs = [(x - v0[0], y - v0[1]) for x, y in vertices[1:]]
    d1 = diffs[0]
    d2 = next(d for d in diffs if d1[0] * d[1] - d1[1] * d[0])
    det_d = d1[0] * d2[1] - d1[1] * d2[0]
    bound = width((1, 0)) + width((0, 1))
    rows = []
    for s1, s2 in itertools.product(range(-bound, bound + 1), repeat=2):
        # r = (s1 * (d2[1], -d2[0]) + s2 * (-d1[1], d1[0])) / det_d
        x, y = s1 * d2[1] - s2 * d1[1], -s1 * d2[0] + s2 * d1[0]
        if x % det_d == 0 and y % det_d == 0 and (x, y) != (0, 0):
            r = (x // det_d, y // det_d)
            if width(r) <= bound:
                rows.append(r)
    pairs = [
        (r1, r2)
        for r1, r2 in itertools.product(rows, repeat=2)
        if abs(r1[0] * r2[1] - r1[1] * r2[0]) == 1
    ]
    least = min(width(r1) + width(r2) for r1, r2 in pairs)
    images = set()
    for r1, r2 in pairs:
        if width(r1) + width(r2) == least:
            image = [(r1[0] * x + r1[1] * y, r2[0] * x + r2[1] * y) for x, y in vertices]
            tx, ty = max(image)
            images.add(tuple(sorted((x - tx + k - 1, y - ty) for x, y in image)))
    return sorted(images, reverse=True)


def vanishing_matrix(problem):
    """The exact vanishing matrix of an InterpolationProblem: rows the
    derivative functionals of total order < k, columns the lattice points
    of the dilated polygon, entries products of falling factorials."""
    pts = problem.points()
    rows = [
        [blowup.vanishing_entry(func, p) for p in pts]
        for func in problem.functionals()
    ]
    return RatMatrix(rows, cols=len(pts))


def find_curve_by_kernel_values(polygon, k):
    """`blowup.find_curve` as it was before its one rank bound: when the
    w(w+1)/2 functionals outnumber the points, h0 is first proved at the
    least order `low` whose functionals reach the point count, and the
    exact values of that kernel at the orders low..w-1, when few enough
    (at most INTERPOLATION_ENTRY_CAP of w^2 per vector and support point),
    give h0 at w by a second proof; order w is proved itself only if that
    is 1, or if the values were too many."""
    poly = blowup._lattice_polygon(polygon)
    w, failure = blowup._curve_order(int(2 * poly.area()), k)
    if failure:
        raise blowup.PreconditionFailed(failure)
    width = blowup._width([tuple(map(int, v)) for v in poly.vertices])
    if w > width:
        raise blowup.PreconditionFailed(
            f"no nonzero section has order w = {w} > {width}, the polygon's "
            f"width in x plus its width in y"
        )
    points = blowup.lattice_point_count(poly)
    low = (math.isqrt(8 * points + 1) - 1) // 2
    low += low * (low + 1) // 2 < points
    for order in sorted({min(low, w), w}):
        problem = blowup.InterpolationProblem(poly, 1, order)
        proof = blowup.h0(problem, proof=True)
        nullity = proof.nullity
        if nullity and order < w:
            support = [(p, c) for p, c in zip(problem.points(), zip(*proof.kernel)) if any(c)]
            if w * w * nullity * len(support) > blowup.INTERPOLATION_ENTRY_CAP:
                continue
            funcs = [f for f in blowup.derivative_functionals(w) if sum(f) >= low]
            op = blowup.VanishingOperator([p for p, _ in support], funcs)
            values = op.product([c for _, c in support])
            nullity = certified_nullity(DenseOperator(values, nullity)).nullity
        if nullity != 1:
            raise blowup.PreconditionFailed(
                f"h0 at order w = {w} is {nullity}, not 1: no irreducible "
                f"negative curve of that order"
            )
    f = blowup.LaurentPoly.from_terms(zip(problem.points(), proof.kernel[0]))
    return w, f, proof


def positivity_by_polytope(fan, divisor):
    """Positivity from the divisor polytope and its normal fan.

    Nef when every witness m_sigma (the solution of <m, v_i> = -a_i on
    sigma) lies in the divisor polytope, basepoint free when the witnesses
    are also integral, and ample when it is basepoint free with pairwise
    distinct witnesses and the polytope's normal fan is the fan.
    """
    a = _check_divisor(fan, divisor)
    preds = fan_predicates(fan)
    if not preds.complete:
        raise NotComplete("positivity tests need a complete fan")
    if not preds.simplicial:
        raise NotSimplicial("positivity tests need a simplicial fan")
    poly = divisor_polytope(fan, divisor)
    witnesses = [
        rational_solve([fan.rays[i] for i in idx], [-a[i] for i in idx])
        for idx in fan.max_cones
    ]
    nef = (not poly.is_empty()) and all(poly.contains(m) for m in witnesses)
    bpf = nef and all(Fraction(x).denominator == 1 for m in witnesses for x in m)
    ample = False
    if bpf and len(set(witnesses)) == len(witnesses) and poly.dim() == fan.lattice_dim:
        nf = normal_fan(poly)
        if set(nf.rays) == set(fan.rays):
            fam1 = {frozenset(nf.rays[i] for i in c) for c in nf.max_cones}
            fam2 = {frozenset(fan.rays[i] for i in c) for c in fan.max_cones}
            ample = fam1 == fam2
    return PositivityRecord(basepoint_free=bpf, nef=nef, ample=ample)


def intersection_by_mixed_area(fan, d1, d2):
    """D1.D2 of nef divisors on a complete surface as a mixed area.

    area(P1 + P2) - area(P1) - area(P2) of the divisor polytopes, which
    makes D^2 twice the area of its polytope.
    """
    if fan.lattice_dim != 2:
        raise NotSurface("intersection numbers implemented for surfaces only")
    for d in (d1, d2):
        if not positivity_by_polytope(fan, d).nef:
            raise NotNef("intersection numbers require nef divisors")
    a1 = _check_divisor(fan, d1)
    a2 = _check_divisor(fan, d2)
    total = tuple(x + y for x, y in zip(a1, a2))

    def area_of(div):
        poly = divisor_polytope(fan, div)
        return Fraction(0) if poly.is_empty() else poly.area()

    return area_of(total) - area_of(a1) - area_of(a2)


def parallelepiped_points_by_solve(ray_rows, dim):
    """Parallelepiped points of a simplicial cone, one rational solve each.

    For each t in the product of the Z/d_i of the Smith form U C V = D,
    x0 = U^-1 t, and x is C times the fractional part of C^-1 x0.
    """
    C = IntMatrix(ray_rows, cols=dim).transpose()  # columns are the rays
    snf = smith_normal_form(C)
    U_inv = int_inverse_unimodular(snf.U)
    pts = set()
    for combo in itertools.product(*[range(x) for x in snf.D.diagonal()]):
        lam = rational_solve(C, U_inv.apply(combo))
        frac = [Fraction(l) - (Fraction(l) // 1) for l in lam]
        x = [sum(ray_rows[j][i] * frac[j] for j in range(dim)) for i in range(dim)]
        assert all(v.denominator == 1 for v in x)
        pts.add(tuple(int(v) for v in x))
    return pts


def hilbert_basis_all_pairs(cone):
    """Hilbert basis of a pointed cone: every candidate against every other.

    Lower-dimensional cones are moved into the saturated lattice of their
    span.  A candidate is dropped when it minus some other nonzero
    candidate is a nonzero point of the cone.
    """
    if not cone.generators:
        return []
    d, k = cone.ambient_dim, cone.dim()
    if k < d:
        orth = integer_kernel_saturated(IntMatrix(cone.generators, cols=d))
        bt = integer_kernel_saturated(orth).transpose()
        gens = [tuple(int(x) for x in rational_solve(bt, g)) for g in cone.generators]
        sub = dd_convert(generators=gens, ambient_dim=k)
        return sorted(bt.apply(h) for h in hilbert_basis_all_pairs(sub))
    candidates = set(cone.generators)
    for simplex in _triangulate_pointed(list(cone.generators), d):
        candidates |= {p for p in parallelepiped_points_by_solve(simplex, d) if any(p)}
    cands = sorted(candidates)
    basis = []
    for x in cands:
        for c in cands:
            diff = tuple(a - b for a, b in zip(x, c))
            if c != x and any(diff) and all(dot(f, diff) >= 0 for f in cone.facets):
                break
        else:
            basis.append(x)
    return basis


def extreme_rays_by_quotient_conversion(normals, dim):
    """`polyhedra._extreme_rays_of_halfspaces` by a second conversion: when
    the cone has lineality, the normals are mapped into the pointed
    quotient Z^(dim - s) by the Smith transform U of the lineality lattice,
    the quotient is converted on its own, and its rays are lifted by
    U^-1 (0, ..., 0, ray)."""
    normals = sorted(set(tuple(int(x) for x in n) for n in normals if any(n)))
    rays, lineality = _double_description(normals, dim)
    if not lineality:
        return sorted(rays), []
    lin = integer_kernel_saturated(IntMatrix(normals, cols=dim))
    s = lin.rows
    if s == dim:
        return [], lin.row_list()
    T_inv = int_inverse_unimodular(smith_normal_form(lin.transpose()).U)
    tit = T_inv.transpose()
    qnormals = set()
    for n in normals:
        g = tit.apply(n)
        assert not any(g[:s]), "normal not zero on the lineality"
        qnormals.add(tuple(g[s:]))
    rays_q, _ = _double_description(sorted(qnormals), dim - s)
    return sorted(T_inv.apply((0,) * s + v) for v in rays_q), lin.row_list()


def lattice_points_by_fractions(poly, dilation=1):
    """Integer points of dilation * poly: a box scan over the first d - 1
    coordinates, with the last one bounded by Fraction arithmetic."""
    q = poly.dilate(dilation)
    if q.is_empty():
        return []
    d = q.ambient_dim
    if len(q.vertices) == 1:
        v = q.vertices[0]
        return [tuple(int(x) for x in v)] if all(x.denominator == 1 for x in v) else []
    lows = [min(v[i] for v in q.vertices) for i in range(d)]
    highs = [max(v[i] for v in q.vertices) for i in range(d)]
    boxes = [range(math.ceil(lows[i]), math.floor(highs[i]) + 1) for i in range(d)]
    out = []
    for prefix in itertools.product(*boxes[: d - 1]):
        lo, hi = Fraction(math.ceil(lows[-1])), Fraction(math.floor(highs[-1]))
        feasible = True
        for u, c in q.inequalities():
            s = c + sum(Fraction(ui) * pi for ui, pi in zip(u[: d - 1], prefix))
            if u[-1] == 0:
                feasible = feasible and s >= 0
            elif u[-1] > 0:
                lo = max(lo, Fraction(-s, u[-1]))
            else:
                hi = min(hi, Fraction(s, -u[-1]))
        if feasible:
            for last in range(math.ceil(lo), math.floor(hi) + 1):
                out.append(tuple(prefix) + (last,))
    return sorted(out)


def _orient(o, a, b):
    """Sign of the cross product (a - o) x (b - o)."""
    v = (Fraction(a[0]) - Fraction(o[0])) * (Fraction(b[1]) - Fraction(o[1])) - (
        Fraction(a[1]) - Fraction(o[1])
    ) * (Fraction(b[0]) - Fraction(o[0]))
    return (v > 0) - (v < 0)


def hull_2d_by_monotone_chain(points):
    """Vertices of the convex hull of planar points, counterclockwise from
    the lexicographically least (Andrew's monotone chain with Fraction cross
    products); a segment gives its two ends in order, a point itself."""
    pts = sorted(set(tuple(Fraction(x) for x in p) for p in points))
    if len(pts) == 1:
        return pts
    if all(_orient(pts[0], pts[1], p) == 0 for p in pts[2:]):
        return [pts[0], pts[-1]]
    lower = []
    for p in pts:
        while len(lower) >= 2 and _orient(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _orient(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def inequalities_by_vertex_conversion(vertices, d):
    """Facet inequalities (u, c), meaning <u, x> + c >= 0, of the hull of
    `vertices` in Q^d: the facets of the cone over them, {(t v, t)},
    converted from its generators, less the facet t >= 0."""
    gens = []
    for v in vertices:
        v = [Fraction(x) for x in v] + [Fraction(1)]
        lcm = math.lcm(*(x.denominator for x in v))
        gens.append(primitive([int(x * lcm) for x in v]))
    cone = dd_convert(generators=gens, ambient_dim=d + 1)
    return sorted((f[:d], f[d]) for f in cone.facets if any(f[:d]))


def dim_by_smith(vertices, d):
    """Dimension of the affine hull of `vertices` in Q^d: the Smith form
    rank of their differences to the first, cleared of denominators."""
    if not vertices:
        return -1
    diffs = []
    for v in vertices[1:]:
        w = [Fraction(x) - Fraction(y) for x, y in zip(v, vertices[0])]
        lcm = math.lcm(*(x.denominator for x in w))
        diffs.append([int(x * lcm) for x in w])
    return smith_normal_form(IntMatrix(diffs, cols=d)).rank if diffs else 0


def vertices_by_exclusion(points, d):
    """The sorted distinct points that lie outside the hull of the others,
    each tested on `inequalities_by_vertex_conversion` of the others."""
    pts = sorted(set(tuple(Fraction(x) for x in p) for p in points))
    out = []
    for p in pts:
        others = [q for q in pts if q != p]
        if not others or any(
            sum(ui * x for ui, x in zip(u, p)) + c < 0
            for u, c in inequalities_by_vertex_conversion(others, d)
        ):
            out.append(p)
    return out


def lattice_points_by_box(vertices, d, dilation):
    """The integer points of dilation * hull(vertices): each point of the
    bounding box tested on `inequalities_by_vertex_conversion`."""
    scaled = [[dilation * Fraction(x) for x in v] for v in vertices]
    ineqs = inequalities_by_vertex_conversion(scaled, d)
    box = [
        range(math.ceil(min(v[i] for v in scaled)), math.floor(max(v[i] for v in scaled)) + 1)
        for i in range(d)
    ]
    return [
        x for x in itertools.product(*box)
        if all(dot(u, x) + c >= 0 for u, c in ineqs)
    ]


def is_face_by_conversion(face, cone):
    """Is `face` (a subcone of `cone`) a face of it?  Converts the
    generators of `cone` on the facets tight on `face` and compares."""
    tight = [f for f in cone.facets if all(dot(f, g) == 0 for g in face.generators)]
    sub_gens = [g for g in cone.generators if all(dot(f, g) == 0 for f in tight)]
    if not face.generators or not sub_gens:
        return not sub_gens and not face.generators
    return dd_convert(generators=sub_gens, ambient_dim=cone.ambient_dim) == face


def enumerate_chambers_by_pairwise_cuts(spec):
    """Full-dimensional chambers from a cell sweep with a cross product or
    perpendicular per hyperplane (free rank 2 or 3), cutting every cell by
    both half-spaces of every hyperplane with a two-cone `intersect`."""
    k = spec.free_rank
    eff = effective_cone(spec)
    if eff.dim() < k:
        return []
    normals = set()
    frees = [spec.free_part(i) for i in range(spec.r)]
    if k == 2:
        for w in frees:
            if any(w):
                normals.add(primitive((-w[1], w[0])))
    elif k == 3:
        for w1, w2 in itertools.combinations(frees, 2):
            n = (
                w1[1] * w2[2] - w1[2] * w2[1],
                w1[2] * w2[0] - w1[0] * w2[2],
                w1[0] * w2[1] - w1[1] * w2[0],
            )
            if any(n):
                normals.add(primitive(n))
    cells = [eff]
    for n in sorted(normals):
        half_pos = dd_convert(facets=[n], ambient_dim=k)
        half_neg = dd_convert(facets=[tuple(-x for x in n)], ambient_dim=k)
        nxt = []
        for cell in cells:
            for half in (half_pos, half_neg):
                piece = intersect(cell, half)
                if piece.dim() == k:
                    nxt.append(piece)
        cells = nxt
    chambers = {}
    for cell in cells:
        ch = mori_chamber(spec, cell.relative_interior_point())
        if ch.full_dimensional:
            chambers.setdefault(ch.cone.facets, ch)
    return [chambers[key] for key in sorted(chambers)]


def dd_convert_two_pass(generators=None, facets=None, ambient_dim=None):
    """`polyhedra.dd_convert` with two conversions for every cone: the
    input is converted, then the output is converted back, and the second
    conversion drops the redundant inputs."""
    if generators is not None:
        if len(generators) == 0:
            raise EmptyInput("no generators given")
        gens = [primitive(g) for g in generators]
        if any(not any(g) for g in gens):
            raise EmptyInput("zero vector among generators")
        if any(len(g) != ambient_dim for g in gens):
            raise DimensionMismatch("generator dimension mismatch")
        frays, flin = _extreme_rays_of_halfspaces(gens, ambient_dim)
        facet_list = _with_lineality(frays, flin)
        grays, glin = _extreme_rays_of_halfspaces(facet_list, ambient_dim)
        gens = _with_lineality(grays, glin)
    else:
        fac = [primitive(f) for f in facets]
        if any(not any(f) for f in fac):
            raise EmptyInput("zero vector among facets")
        if any(len(f) != ambient_dim for f in fac):
            raise DimensionMismatch("facet dimension mismatch")
        grays, glin = _extreme_rays_of_halfspaces(fac, ambient_dim)
        gens = _with_lineality(grays, glin)
        if not gens:
            return zero_cone(ambient_dim)
        frays, flin = _extreme_rays_of_halfspaces(gens, ambient_dim)
        facet_list = _with_lineality(frays, flin)
    return Cone(ambient_dim, gens, facet_list, len(glin), ambient_dim - len(flin))


def check_fan_pairwise(fan):
    """The violations of `fans._check_fan`, in its order and words, with
    every pair of maximal cones intersected and tested face by face."""
    v = []
    seen = set()
    for i, r in enumerate(fan.rays):
        if not any(r):
            v.append(f"ray {i} is zero")
        elif math.gcd(*r) != 1:
            v.append(f"ray {i} = {r} is not primitive")
        if r in seen:
            v.append(f"ray {i} = {r} is a duplicate")
        seen.add(r)
        if len(r) != fan.lattice_dim:
            v.append(f"ray {i} has wrong dimension")
    if v:
        return v
    used = set()
    cones = []
    for ci, idx in enumerate(fan.max_cones):
        if any(i < 0 or i >= len(fan.rays) for i in idx):
            v.append(f"max cone {ci} has an out-of-range ray index")
            continue
        used.update(idx)
        gens = [fan.rays[i] for i in idx]
        cone = dd_convert_two_pass(generators=gens, ambient_dim=fan.lattice_dim) if gens else zero_cone(fan.lattice_dim)
        cones.append(cone)
        if not cone.is_pointed():
            v.append(f"max cone {ci} = {idx} is not strictly convex")
        if set(cone.generators) != {fan.rays[i] for i in idx}:
            v.append(f"max cone {ci} = {idx}: listed rays are not its extreme rays")
    for i in sorted(set(range(len(fan.rays))) - used):
        v.append(f"ray {i} is not used by any maximal cone")
    if v:
        return v
    for (ci, cone_i), (cj, cone_j) in itertools.combinations(enumerate(cones), 2):
        if set(fan.max_cones[ci]) == set(fan.max_cones[cj]):
            v.append(f"max cones {ci} and {cj} coincide")
            continue
        facets = sorted(set(cone_i.facets) | set(cone_j.facets))
        inter = dd_convert_two_pass(facets=facets, ambient_dim=fan.lattice_dim)
        if not is_face_by_conversion(inter, cone_i) or not is_face_by_conversion(inter, cone_j):
            v.append(f"intersection of max cones {ci} and {cj} is not a common face")
    return v


def witnesses_by_determinants(fan, divisor):
    """`divisors._witnesses` with 1 + d Bareiss determinants per maximal
    cone and divisor: delta = |det V_sigma| and M_k = sign(det V_sigma)
    times det V_sigma with column k replaced by -a_sigma (Cramer's rule)."""
    a = _check_divisor(fan, divisor)
    preds = fan_predicates(fan)
    if not preds.complete:
        raise NotComplete("positivity tests need a complete fan")
    if not preds.simplicial:
        raise NotSimplicial("positivity tests need a simplicial fan")
    for idx in fan.max_cones:
        rows = [fan.rays[i] for i in idx]
        det_v = det(IntMatrix(rows))
        delta = abs(det_v)
        M = [
            det(IntMatrix([v[:k] + (-a[i],) + v[k + 1:] for v, i in zip(rows, idx)]))
            * (det_v // delta)
            for k in range(fan.lattice_dim)
        ]
        yield idx, delta, M, [dot(M, v) + delta * x for v, x in zip(fan.rays, a)]


def subset_cone_by_conversion(spec, subset):
    """The cone over the free parts of the degrees at `subset`, converted."""
    gens = [spec.free_part(i) for i in sorted(subset) if any(spec.free_part(i))]
    if not gens:
        return zero_cone(spec.free_rank)
    return dd_convert(generators=gens, ambient_dim=spec.free_rank)


def semistable_supports_by_subset_cones(spec, w):
    """The minimal supports of w by converting the cone of every subset of
    at most free_rank degrees that holds no smaller support, and testing
    whether it contains w; effectiveness is membership in the converted
    cone of all degrees."""
    w = tuple(Fraction(x) for x in w)
    if len(w) != spec.free_rank:
        raise PreconditionError("class vector has wrong length")
    v = _clear_denominators(w)
    if not subset_cone_by_conversion(spec, range(spec.r)).contains(v):
        raise NotEffective(f"class {w} is not effective")
    minimal = []
    for size in range(min(spec.r, spec.free_rank) + 1):
        for subset in itertools.combinations(range(spec.r), size):
            if any(set(m) <= set(subset) for m in minimal):
                continue
            if subset_cone_by_conversion(spec, subset).contains(v):
                minimal.append(subset)
    return sorted(minimal, key=lambda t: (len(t), t))
