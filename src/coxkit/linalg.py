"""Arbitrary-precision integer linear algebra, with rational input rows.

Provides immutable integer matrices, Smith and Hermite normal forms with
transformation matrices, saturated integer kernels, lattice coordinates,
and proved kernel dimensions of rational matrices.  Everything is
deterministic.  Lattice questions (kernels, coordinates, membership) are
answered from Hermite forms; the library does no elimination over Q, and
`Fraction` appears only as `RatMatrix` input.

Every nullity is a proof with two bounds (`certified_nullity`).  One
blocked GF(p) elimination gives the upper bound, since a GF(p) rank is at
most the rank over Q; p is a prime in (2^20, 2^21).  The residues are one
int32 array, in [0, p) between panels.  It works in panels of columns,
each eliminated in sub-panels in int64, and every update beyond a
sub-panel is an exact float64 matrix product, reduced by rounding with a
precomputed 1/p (`_reduce`) before it is stored.  Kernel vectors lifted
p-adically from the same L U factors (Dixon) and checked by an exact
product over Z on every row give the lower bound.  The lifting works in
machine words: its residual is an int64 stack of balanced 21-bit limbs,
divided by p exactly limb by limb, and its digits are packed three to an
int64 before they are added to the bignum solution.  A prime whose check
fails off the pivot rows is unlucky and the next one is tried; when the
primes run out, when the kernel is too large to lift (LIFTING_ENTRY_CAP)
or when the lifting steps run out, PreconditionError is raised.  Before a
rank computation each rational row is cleared of denominators and made
primitive (divided by the gcd of its entries).  Determinants come from
`_adjugate`, the one fraction-free elimination over Z.
numpy is imported only inside the functions of this proof, so importing
the module does not load it.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError

# Modular primes lie strictly between these bounds.
MODULAR_PRIME_BOUND = 1 << 20
MODULAR_PRIME_LIMIT = 1 << 21

# A float64 value is an exact integer while it is a residue plus at most
# EXACT_FLOAT_TERMS products of residues below MODULAR_PRIME_LIMIT, since
# 2^21 + 2^11 (2^21 - 1)^2 < 2^53.  _exact_matmul sums its products in
# chunks of this many terms.
EXACT_FLOAT_TERMS = 1 << 11

# _reduce works on chunks of rows of about this many float64 entries, so
# that its quotient is small and stays in cache.
_REDUCE_CHUNK = 1 << 14

# Panel and sub-panel widths of int_rank_mod.  A panel entry takes at most
# PANEL_WIDTH products of residues, below 2^49, between reductions, which
# int64 holds and float64 represents exactly.  Median elimination of the
# 1378 x 1348 order-52 flagship matrix over 21 alternating runs (2-core
# x86, OpenBLAS, a shared host): 0.198 s at 96/16, 0.197 s at 128/16,
# 0.205 s at 96/8, 0.207 s at 128/8, 0.214 s at 96/32, 0.217 s at 64/8
# and 64/16, and 0.259 s at 64/64 (no sub-panels).  96 also keeps the
# tests' widths around 2 * PANEL_WIDTH cheap.
PANEL_WIDTH = 96
SUBPANEL_WIDTH = 16


def vec_gcd(v):
    return math.gcd(*map(int, v))


def primitive(v):
    """Divide an integer vector by the gcd of its entries (0 stays 0)."""
    g = vec_gcd(v)
    if g <= 1:
        return tuple(int(x) for x in v)
    return tuple(int(x) // g for x in v)


def _clear_denominators(v):
    """Integer vector: v times the (positive) lcm of its denominators."""
    if all(isinstance(x, int) for x in v):
        return v
    v = [Fraction(x) for x in v]
    lcm = math.lcm(*(x.denominator for x in v))
    return [x.numerator * (lcm // x.denominator) for x in v]


def dot(u, v):
    return sum(map(operator.mul, u, v))


class IntMatrix:
    """Immutable integer matrix, row-major, arbitrary precision.

    `IntMatrix(rows)` converts every entry with int() and refuses ragged
    rows.  The matrices this module builds itself from Python ints
    (transposes, products, identities, Smith and Hermite factors and
    kernels) come from `_of`, which skips both checks.
    """

    __slots__ = ("rows", "cols", "_r")

    def __init__(self, rows_data, cols=None):
        rows_data = [tuple(int(x) for x in row) for row in rows_data]
        self._r = tuple(rows_data)
        self.rows = len(rows_data)
        if rows_data:
            self.cols = len(rows_data[0])
            if any(len(row) != self.cols for row in rows_data):
                raise ValueError("ragged rows")
        else:
            if cols is None:
                raise ValueError("empty matrix needs explicit column count")
            self.cols = cols
        if cols is not None and rows_data and cols != self.cols:
            raise ValueError("cols mismatch")

    @classmethod
    def _of(cls, rows_data, cols):
        """The matrix of `rows_data`, rows of Python ints all of length
        `cols`, taken as they are."""
        m = object.__new__(cls)
        m._r = tuple(map(tuple, rows_data))
        m.rows = len(m._r)
        m.cols = cols
        return m

    @classmethod
    def identity(cls, n):
        return cls._of([[int(i == j) for j in range(n)] for i in range(n)], n)

    @classmethod
    def zero(cls, rows, cols):
        return cls._of([[0] * cols for _ in range(rows)], cols)

    def row(self, i):
        return self._r[i]

    def col(self, j):
        return tuple(row[j] for row in self._r)

    def row_list(self):
        return [list(row) for row in self._r]

    def __getitem__(self, ij):
        i, j = ij
        return self._r[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._r == other._r
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._r))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self._r]!r})"

    def transpose(self):
        if not self._r:
            return IntMatrix._of([()] * self.cols, 0)
        return IntMatrix._of(zip(*self._r), self.rows)

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            ot = other.transpose()
            return IntMatrix._of([[dot(r, c) for c in ot._r] for r in self._r], other.cols)
        return NotImplemented

    def apply(self, v):
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(dot(r, v) for r in self._r)

    def is_diagonal(self):
        return all(
            self._r[i][j] == 0
            for i in range(self.rows)
            for j in range(self.cols)
            if i != j
        )

    def diagonal(self):
        return tuple(self._r[i][i] for i in range(min(self.rows, self.cols)))


@dataclass(frozen=True)
class SmithDecomposition:
    """U * M * V = D with U, V unimodular and D diagonal, d1 | d2 | ..."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def invariant_factors(self):
        return tuple(d for d in self.D.diagonal() if d != 0)

    @property
    def rank(self):
        return len(self.invariant_factors)


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def smith_normal_form(M: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transformations: U*M*V = D.

    D is diagonal with nonnegative entries, zeros trailing, and each
    diagonal entry divides the next.  Empty matrices are allowed.
    """
    n, m = M.rows, M.cols
    a = M.row_list()
    u = IntMatrix.identity(n).row_list()
    v = IntMatrix.identity(m).row_list()

    def row_op(i, j, q):
        # row i -= q * row j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):
        # col i -= q * col j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def clear_cross(k):
        # zero out column k below row k and row k right of column k,
        # leaving the gcd of the cross at the pivot position
        while True:
            changed = True
            while changed:
                changed = False
                for i in range(k + 1, n):
                    if a[i][k] == 0:
                        continue
                    q = a[i][k] // a[k][k]
                    row_op(i, k, q)
                    if a[i][k] != 0:
                        # remainder is smaller: promote it and continue
                        _swap_rows(a, k, i)
                        _swap_rows(u, k, i)
                        changed = True
            dirty = False
            changed = True
            while changed:
                changed = False
                for j in range(k + 1, m):
                    if a[k][j] == 0:
                        continue
                    q = a[k][j] // a[k][k]
                    col_op(j, k, q)
                    if a[k][j] != 0:
                        _swap_cols(a, k, j)
                        _swap_cols(v, k, j)
                        changed = True
                        dirty = True
            if not dirty and all(a[i][k] == 0 for i in range(k + 1, n)):
                return

    k = 0
    while k < n and k < m:
        piv = next(
            (
                (i, j)
                for i in range(k, n)
                for j in range(k, m)
                if a[i][j] != 0
            ),
            None,
        )
        if piv is None:
            break
        i, j = piv
        _swap_rows(a, k, i)
        _swap_rows(u, k, i)
        _swap_cols(a, k, j)
        _swap_cols(v, k, j)
        clear_cross(k)
        # enforce that the pivot divides every entry of the residual block
        while True:
            bad = next(
                (
                    i
                    for i in range(k + 1, n)
                    for j in range(k + 1, m)
                    if a[i][j] % a[k][k] != 0
                ),
                None,
            )
            if bad is None:
                break
            row_op(k, bad, -1)
            clear_cross(k)
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            u[k] = [-x for x in u[k]]
        k += 1

    return SmithDecomposition(
        U=IntMatrix._of(u, n), D=IntMatrix._of(a, m), V=IntMatrix._of(v, m)
    )


def hermite_normal_form(M: IntMatrix):
    """Row-style Hermite normal form: returns (H, U) with U*M = H.

    Convention: positive pivots in echelon position, entries above each
    pivot reduced into [0, pivot).  Zero rows trail.
    """
    n, m = M.rows, M.cols
    a = M.row_list()
    u = IntMatrix.identity(n).row_list()

    def row_addmul(i, j, q):
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    r = 0
    for c in range(m):
        # gcd-reduce entries of column c in rows r..n-1
        while True:
            nz = [i for i in range(r, n) if a[i][c] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(a[i][c]))
            i0 = nz[0]
            for i in nz[1:]:
                q = a[i][c] // a[i0][c]
                row_addmul(i, i0, q)
        nz = [i for i in range(r, n) if a[i][c] != 0]
        if not nz:
            continue
        i0 = nz[0]
        _swap_rows(a, r, i0)
        _swap_rows(u, r, i0)
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]
        # reduce entries above the pivot into [0, pivot)
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                row_addmul(i, r, q)
        r += 1
        if r == n:
            break
    return IntMatrix._of(a, m), IntMatrix._of(u, n)


def integer_kernel_saturated(M: IntMatrix) -> IntMatrix:
    """Basis of {x in Z^cols : M x = 0} as a saturated sublattice, in
    Hermite normal form.

    With U M^T = H the Hermite form of M^T, the rows of U at the zero rows
    of H span the kernel; they are rows of a unimodular matrix, so the
    quotient of Z^cols by their span is torsion-free.
    """
    h, u = hermite_normal_form(M.transpose())
    rows = [u.row(i) for i in range(h.rows) if not any(h.row(i))]
    if not rows:
        return IntMatrix._of([], M.cols)
    return hermite_normal_form(IntMatrix._of(rows, M.cols))[0]


def lattice_coordinates(B: IntMatrix, vectors):
    """Integer coordinates of each vector in the rows of B.

    For each v, a tuple x with x B = v, or None when v is not an integer
    combination of the rows of B.  One Hermite form H = U B serves every
    vector: v is reduced at the pivots of H, the quotients q must be exact
    and leave nothing, and x = q U.  When the rows of B are dependent, x is
    one of the solutions.
    """
    h, u = hermite_normal_form(B)
    # nonzero rows of H lead and are in echelon form
    pivots = [(row, next(j for j, x in enumerate(row) if x)) for row in h._r if any(row)]
    out = []
    for v in vectors:
        w = [int(x) for x in v]
        x = [0] * B.rows
        for (row, c), urow in zip(pivots, u._r):
            t, r = divmod(w[c], row[c])
            if r:  # w[c] stays nonzero: v is not in the lattice
                break
            if t:
                w = [a - t * b for a, b in zip(w, row)]
                x = [a + t * b for a, b in zip(x, urow)]
        out.append(None if any(w) else tuple(x))
    return out


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _adjugate(rows):
    """(det A, adj A) of the square integer matrix A with these rows, or
    (0, None) when A is singular.  For 2 and 3 rows, the frequent sizes of
    free ranks and fan dimensions, it is a closed form: for rows r1, r2, r3
    the columns of adj A are r2 x r3, r3 x r1 and r1 x r2.  Otherwise
    fraction-free Gauss-Jordan elimination of [A | I] (Bareiss): after
    step k every entry is a minor of order k + 1, so each division by the
    previous pivot is exact, and at the end the left block is d I and the
    right block d A^-1 = adj A, with d the determinant of A with its rows
    swapped as the pivots were found."""
    n = len(rows)
    if n == 2:
        (a, b), (c, d) = rows
        det = a * d - b * c
        return (det, [[d, -b], [-c, a]]) if det else (0, None)
    if n == 3:
        r1, r2, r3 = rows
        cols = [_cross(r2, r3), _cross(r3, r1), _cross(r1, r2)]
        det = dot(r1, cols[0])
        return (det, [list(row) for row in zip(*cols)]) if det else (0, None)
    a = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)]
    prev, sign = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv], sign = a[piv], a[k], -sign
        pk, top = a[k][k], a[k]
        for i in range(n):
            if i != k:
                aik = a[i][k]
                a[i] = [(pk * x - aik * y) // prev for x, y in zip(a[i], top)]
        prev = pk
    return sign * prev, [[sign * x for x in row[n:]] for row in a]


@dataclass(frozen=True)
class ModularLU:
    """The elimination left by `int_rank_mod(rows, p)`.

    `lu` holds the rows of A mod p in the order `perm` (the original index
    of each row), factored in place as A[perm] = L U over GF(p), as int32
    residues in [0, p).  Row i of U is row i of `lu` for i < rank, with its
    pivot at column `pivots[i]`; below the pivots, in the pivot columns,
    sit the multipliers of the unit lower triangular L.
    """

    p: int
    lu: np.ndarray
    perm: np.ndarray
    pivots: tuple

    @property
    def rank(self):
        return len(self.pivots)


def int_rank_mod(rows, p):
    """The GF(p) elimination of an integer matrix, a list of rows, an int
    array or an operator of `certified_nullity`, as a `ModularLU`; its
    `rank` is the rank over GF(p).

    A list or an array is reduced mod p into a new int32 array, so the
    caller's is never changed.  An operator's `residues(p)` are a fresh
    int32 array of residues in [0, p) that nothing else holds, so they are
    eliminated in place and become the factors: no second full-size array.

    p must be a prime below MODULAR_PRIME_LIMIT.  Blocked elimination, one
    panel of PANEL_WIDTH columns at a time, each panel in sub-panels of
    SUBPANEL_WIDTH columns (Dumas, Giorgi and Pernet's finite-field LU):
    `_eliminate_panel` factors the panel and writes it back, with its row
    swaps applied to the rest of A, and `_update_trailing` forward-solves
    the pivot rows to the right of the panel, U12 = L11^-1 A12, and
    updates the trailing block, A22 -= L21 @ U12, as float64 products.
    Each runs in its own call, so one panel's workspace is gone before the
    next panel is copied.  Every float64 value is reduced by `_reduce`
    before it is stored, so A holds residues in [0, p) between panels, and
    the returned factors are residues in [0, p).
    """
    import numpy as np

    if not 1 < p < MODULAR_PRIME_LIMIT:
        raise PreconditionError(f"GF(p) rank needs 1 < p < 2^21, got {p}")
    if hasattr(rows, "residues"):
        A = rows.residues(p)
    elif len(rows) == 0:
        A = np.zeros((0, 0), dtype=np.int32)
    elif isinstance(rows, np.ndarray):
        A = np.remainder(rows, p).astype(np.int32)
    else:
        A = (np.array(rows, dtype=object) % p).astype(np.int32)
    m, n = A.shape
    perm = np.arange(m)
    pivots = []
    for c0 in range(0, n, PANEL_WIDTH):
        r0 = len(pivots)
        if r0 == m:
            break
        c1 = min(c0 + PANEL_WIDTH, n)
        inverses = _eliminate_panel(A, perm, pivots, c0, c1, p)
        if len(pivots) > r0 and c1 < n:
            _update_trailing(A, pivots[r0:], inverses, r0, c1, p)
    return ModularLU(p, A, perm, tuple(pivots))


def _eliminate_panel(A, perm, pivots, c0, c1, p):
    """Factor the panel of columns c0..c1 of `int_rank_mod` over the rows of
    A from r = len(pivots) on, in place: the pivot columns found are
    appended to `pivots`, the panel's row swaps are applied to all of A and
    to `perm`, and the panel is written back reduced.  Returns, per
    sub-panel with a pivot, (its first pivot row less r, the inverse of its
    unit lower block).

    The panel is copied to int64 with its columns as contiguous rows.  A
    sub-panel is eliminated column by column with row pivoting (the first
    nonzero entry is the pivot), keeping the multipliers below its pivots;
    columns without a pivot are skipped.  Its pivot rows in the rest of the
    panel are forward-solved with the inverse of its unit lower block, and
    the rest of the panel is updated as one float64 product.  Entries are
    reduced mod p only when they are read: the pivot column before the
    pivot search, the pivot row before its rank-1 update, and the pivot
    rows before a forward solve; the whole panel once before it is written
    back.  Between reductions an entry takes at most PANEL_WIDTH products
    of residues (below 2^49 in int64).
    """
    import numpy as np

    r0, m = len(pivots), len(A)
    panel = np.ascontiguousarray(A[r0:, c0:c1].T, dtype=np.int64)
    order = np.arange(m - r0)
    inverses = []
    for s0 in range(0, c1 - c0, SUBPANEL_WIDTH):
        s1 = min(s0 + SUBPANEL_WIDTH, c1 - c0)
        rs = len(pivots)
        for c in range(s0, s1):
            r = len(pivots)
            if r == m:
                break
            column = panel[c, r - r0 :]
            column %= p
            first = int((column != 0).argmax())
            if not column[first]:
                continue
            piv = r + first
            if piv != r:
                swap = [r - r0, piv - r0]
                panel[:, swap] = panel[:, swap[::-1]]
                order[swap] = order[swap[::-1]]
            row = panel[c + 1 : s1, r - r0]
            row %= p
            multipliers = panel[c, r - r0 + 1 :]
            multipliers *= pow(int(panel[c, r - r0]), p - 2, p)
            multipliers %= p
            panel[c + 1 : s1, r - r0 + 1 :] -= np.multiply.outer(row, multipliers)
            pivots.append(c0 + c)
        ks = len(pivots) - rs
        if not ks:
            continue
        lower = panel[[c - c0 for c in pivots[rs:]], rs - r0 :].astype(np.float64)
        inverse = _unit_lower_inverse(lower[:, :ks].T, p)
        inverses.append((rs - r0, inverse))
        top = panel[s1:, rs - r0 : rs - r0 + ks]
        upper = _reduce((top % p) @ inverse.T, p)
        top[...] = upper
        rest = panel[s1:, rs - r0 + ks :]
        np.subtract(rest, upper @ lower[:, ks:], out=rest, casting="unsafe")
    panel %= p
    moved = r0 + np.flatnonzero(order != np.arange(m - r0))
    A[moved] = A[r0 + order[moved - r0]]
    perm[moved] = perm[r0 + order[moved - r0]]
    A[r0:, c0:c1] = panel.T
    return inverses


def _update_trailing(A, panel_pivots, inverses, r0, c1, p):
    """The update of `int_rank_mod` after a panel whose k pivots, in the
    columns `panel_pivots`, sit in rows r0..r0+k of A: U12 = L11^-1 A12 on
    the columns from c1 on, then A22 -= L21 @ U12, PANEL_WIDTH rows at a
    time.  L is read from A as it is needed, and one float64 buffer holds
    U12, A12 before it, and each product.  A trailing entry is a residue
    less at most PANEL_WIDTH products of residues below 2^21, below 2^50 in
    absolute value, where `_reduce` is exact.
    """
    import numpy as np

    m, n = A.shape
    k = len(panel_pivots)
    # L11^-1, one sub-panel of rows at a time, from the sub-panel inverses
    inverse11 = np.zeros((k, k))
    for b0, inverse in inverses:
        b1 = b0 + len(inverse)
        coupling = A[r0 + b0 : r0 + b1, panel_pivots[:b0]] @ inverse11[:b0, :b0]
        coupling = _reduce(-coupling, p)
        inverse11[b0:b1, :b0] = _reduce(inverse @ coupling, p)
        inverse11[b0:b1, b0:b1] = inverse
    work = np.empty((k + PANEL_WIDTH, n - c1))
    upper, product = work[:k], work[k:]
    product[:k] = A[r0 : r0 + k, c1:]
    np.matmul(inverse11, product[:k], out=upper)
    A[r0 : r0 + k, c1:] = _reduce(upper, p)
    for i0 in range(r0 + k, m, PANEL_WIDTH):
        trailing = A[i0 : i0 + PANEL_WIDTH, c1:]
        block = product[: len(trailing)]
        np.matmul(A[i0 : i0 + PANEL_WIDTH, panel_pivots].astype(np.float64), upper, out=block)
        np.subtract(trailing, block, out=block)
        trailing[...] = _reduce(block, p)


def _reduce(x, p):
    """The float64 array x of integers below 2^50 in absolute value, reduced
    mod p into [0, p) in place, and returned: x - floor(x (1/p)) p, then
    the one value equal to p set to 0.  An array of more than
    _REDUCE_CHUNK entries is reduced a chunk of rows at a time.

    fl(x fl(1/p)) is within |x| 2^-52 / p < 1/p of x / p, so its floor is
    floor(x / p), or one less when p divides x (which leaves p); the
    product and the difference are exact integers, so the result is
    congruent to x however the quotient rounds.  This is the word-size
    field of FFLAS-FFPACK (Dumas, Giorgi and Pernet, ACM TOMS 2008), about
    ten times faster than np.remainder on float64.
    """
    import numpy as np

    if x.size > _REDUCE_CHUNK and len(x) > 1:
        step = max(1, _REDUCE_CHUNK * len(x) // x.size)
        for i in range(0, len(x), step):
            _reduce(x[i : i + step], p)
        return x
    quotient = x * (1.0 / p)
    np.floor(quotient, out=quotient)
    quotient *= p
    x -= quotient
    x[x == p] = 0
    return x


def _unit_lower_inverse(L, p):
    """The inverse over GF(p) of the unit lower triangular matrix whose
    multipliers are the strictly lower entries of the float64 square L
    (residues; the diagonal and above are ignored), by forward substitution."""
    import numpy as np

    inverse = np.eye(len(L))
    for i in range(1, len(L)):
        inverse[i] -= L[i, :i] @ inverse[:i]
        _reduce(inverse[i], p)
    return inverse


class _PivotSolver:
    """Solves A_PP y = b over GF(p), A_PP the pivot block of a ModularLU
    (its pivot rows and pivot columns, so L U restricted to them).

    It consumes `f.lu`: the pivot columns of its first r rows are written
    as float32 over the first r columns of the same int32 buffer,
    PANEL_WIDTH rows at a time, and that r x r float32 view (row stride
    cols) is the T the solves read, so no second full-size array is made.
    Residues below 2^21 are exact in float32.  `f.lu` holds no factors
    afterwards; `f.perm` and `f.pivots` are separate and unchanged.

    Blocked like the elimination: each diagonal block of PANEL_WIDTH
    columns of L and of U is inverted once, so a solve is a few products
    of at most PANEL_WIDTH terms per block, each term below 2^21 * 2^21,
    taken in float64 (numpy casts the float32 blocks), which keeps every
    value an exact integer below 2^50 for `_reduce`.
    """

    def __init__(self, f: ModularLU):
        import numpy as np

        p, r = f.p, f.rank
        self.p = p
        self.T = f.lu.view(np.float32)[:r, :r]
        self.blocks = [(i, min(i + PANEL_WIDTH, r)) for i in range(0, r, PANEL_WIDTH)]
        for i0, i1 in self.blocks:
            # the gather is read before its rows are overwritten
            self.T[i0:i1] = f.lu[i0:i1, f.pivots]
        self.linv, self.uinv = [], []
        for i0, i1 in self.blocks:
            D = self.T[i0:i1, i0:i1].astype(np.float64)
            up = np.eye(i1 - i0)
            for i in reversed(range(i1 - i0)):
                row = _reduce(up[i] - D[i, i + 1 :] @ up[i + 1 :], p)
                up[i] = _reduce(row * pow(int(D[i, i]), p - 2, p), p)
            self.linv.append(_unit_lower_inverse(D, p))
            self.uinv.append(up)

    def __call__(self, b):
        import numpy as np

        p, T = self.p, self.T
        z = np.array(b, dtype=np.float64)
        for (i0, i1), lo in zip(self.blocks, self.linv):
            z[i0:i1] = _reduce(lo @ z[i0:i1], p)
            if i1 < len(z):
                z[i1:] -= T[i1:, i0:i1] @ z[i0:i1]
                _reduce(z[i1:], p)
        for (i0, i1), up in zip(reversed(self.blocks), reversed(self.uinv)):
            z[i0:i1] = _reduce(up @ z[i0:i1], p)
            if i0:
                z[:i0] -= T[:i0, i0:i1] @ z[i0:i1]
                _reduce(z[:i0], p)
        return z.astype(np.int64)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def default_modular_primes():
    """First 3 primes above 2^20."""
    out = []
    n = MODULAR_PRIME_BOUND + 1
    while len(out) < 3:
        if _is_prime(n):
            out.append(n)
        n += 1
    return out


def modular_primes(primes=None):
    """The candidate primes of `certified_nullity`, checked.

    `primes=None` selects the default primes.  Otherwise there must be at
    least 3 distinct primes, each in (MODULAR_PRIME_BOUND,
    MODULAR_PRIME_LIMIT) = (2^20, 2^21); anything else raises
    PreconditionError.  Returns the
    distinct primes in their given order.  The library passes None: the
    tests force unlucky and invalid primes through this hook.
    """
    if primes is None:
        primes = default_modular_primes()
    primes = list(dict.fromkeys(primes))
    if len(primes) < 3:
        raise PreconditionError("modular mode requires at least 3 distinct primes")
    for p in primes:
        if not (MODULAR_PRIME_BOUND < p < MODULAR_PRIME_LIMIT and _is_prime(p)):
            raise PreconditionError(f"modulus {p} is not a prime in (2^20, 2^21)")
    return primes


class RatMatrix:
    """Immutable exact rational matrix.

    Entries are Fractions (plain ints are accepted and kept as exact
    integers, which avoids per-entry Fraction overhead on large integer
    matrices).
    """

    __slots__ = ("rows", "cols", "_r")

    def __init__(self, rows_data, cols=None):
        norm = []
        for row in rows_data:
            norm.append(
                tuple(x if isinstance(x, int) else Fraction(x) for x in row)
            )
        self._r = tuple(norm)
        self.rows = len(norm)
        if norm:
            self.cols = len(norm[0])
            if any(len(row) != self.cols for row in norm):
                raise ValueError("ragged rows")
        else:
            if cols is None:
                raise ValueError("empty matrix needs explicit column count")
            self.cols = cols

    def row(self, i):
        return self._r[i]

    def __getitem__(self, ij):
        i, j = ij
        return self._r[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and all(
                Fraction(a) == Fraction(b)
                for ra, rb in zip(self._r, other._r)
                for a, b in zip(ra, rb)
            )
        )

    def __repr__(self):
        return f"RatMatrix({self.rows}x{self.cols})"

    def cleared_rows(self):
        """Integer rows: each row times the lcm of its denominators."""
        return [list(_clear_denominators(row)) for row in self._r]


# Lifting stops here: LIFTING_STEP_CAP digits mod p > 2^20 carry more than
# 20,000 bits, room for kernel vectors whose numerators and common
# denominator each have 10,000 bits.  The 200 x 200 order-52 submatrix of
# acceptance criterion 5c needs a few hundred steps.
LIFTING_STEP_CAP = 1000

# Nor does it start when rank_p times the nullity passes this: the
# solution, its digits and its exact check are that many entries, Python
# integers that can have thousands of bits.  The largest tier-1 lifting is
# 321 x 24 = 7,704 entries, criterion 5c's is 184 x 16 and the benchmark's
# 60 x 20; P(11,19,27) at order 75 (rank_p 1914, nullity 937) would lift
# 1.79 million and grew past 6 GB.
LIFTING_ENTRY_CAP = 1 << 16

# Exact integers are held as int64 stacks of balanced limbs: limb j counts
# 2^(21 j) and lies in [-2^20, 2^20), so the product of a limb and a residue
# below 2^21 is below 2^41, and a float64 sum of EXACT_FLOAT_TERMS of them
# is exact.
_LIMB_BITS = 21
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_LIMB_HALF = 1 << (_LIMB_BITS - 1)


def _limbs(values):
    """An integer array as an int64 stack S of balanced limbs: values = the
    sum over j of S[j] 2^(21 j), each S[j] in [-2^20, 2^20), and no all-zero
    top limb (zero has no limbs).  Adding H = 2^20 (1 + 2^21 + 2^42 + ...)
    makes every entry nonnegative, with each limb offset by 2^20, so a limb
    is one mask and one shift of the Python integers."""
    import numpy as np

    values = np.asarray(values, dtype=object)
    top = int(np.abs(values).max(initial=0))
    count = (top.bit_length() + _LIMB_BITS + 1) // _LIMB_BITS
    shifted = values + _LIMB_HALF * ((1 << (_LIMB_BITS * count)) - 1) // _LIMB_MASK
    out = np.empty((count,) + values.shape, dtype=np.int64)
    for j in range(count):
        out[j] = shifted & _LIMB_MASK
        shifted >>= _LIMB_BITS
    out -= _LIMB_HALF
    return _without_zero_top(out)


def _carried(S):
    """The integers of the int64 limb stack S (limb j counts 2^(21 j)) in
    balanced limbs, as `_limbs`: carries move up until every limb is in
    [-2^20, 2^20), a carry out of the top limb making a new one."""
    import numpy as np

    while True:
        carry = (S + _LIMB_HALF) >> _LIMB_BITS
        if not carry.any():
            return _without_zero_top(S)
        S = S - (carry << _LIMB_BITS)
        S[1:] += carry[:-1]
        if carry[-1].any():
            S = np.concatenate((S, carry[-1:]))


def _without_zero_top(S):
    while len(S) and not S[-1].any():
        S = S[:-1]
    return S


def _limb_residues(S, p):
    """The integers of the balanced limb stack S mod p, as int64 residues:
    the sum over j of S[j] (2^(21 j) mod p), reduced once."""
    import numpy as np

    weights = np.array([pow(2, _LIMB_BITS * j, p) for j in range(len(S))], dtype=np.int64)
    return (weights @ S.reshape(len(S), math.prod(S.shape[1:]))).reshape(S.shape[1:]) % p


def _divide_limbs(C, p):
    """The integers of the int64 limb stack C (limbs below 2^62 in absolute
    value, not necessarily balanced), divided by p exactly, as balanced
    limbs.  Long division from the top limb down: rem 2^21 + C[j] gives
    the quotient limb and the next remainder, in [0, p); then the carries
    are normalised from the bottom limb up (`_carried`).  A remainder
    other than 0 at the end means p does not divide C: ArithmeticError."""
    import numpy as np

    q = np.empty_like(C)
    rem = np.zeros(C.shape[1:], dtype=np.int64)
    for j in reversed(range(len(C))):
        q[j], rem = np.divmod((rem << _LIMB_BITS) + C[j], p)
    if rem.any():
        raise ArithmeticError(f"exact division by {p} left a remainder")
    return _carried(q)


@dataclass(frozen=True)
class NullityProof:
    """The nullity of an integer matrix A (rows x cols), with the proof of
    both of its bounds.

    Upper bound: cols - rank_mod_p, since a GF(p) rank is at most the rank
    over Q.  Lower bound: the columns of `kernel`, divided by
    `denominator`, are the identity on the columns `free` (those without a
    pivot mod p), so they are independent, and satisfy A x = 0 exactly over
    Z on every row.  When rank_mod_p = min(rows, cols) no vector is needed: the
    rank over Q cannot exceed min(rows, cols); a nullity of 1 still carries
    its vector.  `steps` counts the p-adic
    lifting steps, `rejected` the primes found unlucky (rank_mod_p below
    the rank over Q) before `prime`.
    """

    nullity: int
    prime: int | None
    rank_mod_p: int
    kernel: tuple = ()
    denominator: int = 1
    free: tuple = ()
    steps: int = 0
    rejected: tuple = ()

    def report(self):
        """The proof as a JSON-ready dict (without the vectors); a returned
        proof has met bounds, so both equal the nullity."""
        return {
            "prime": self.prime,
            "rank_mod_p": self.rank_mod_p,
            "upper_bound": self.nullity,
            "lower_bound": self.nullity,
            "kernel_vectors": len(self.kernel),
            "lifting_steps": self.steps,
            "rejected_primes": list(self.rejected),
        }


class DenseOperator:
    """An integer matrix held as an object array, for `certified_nullity`.

    The pivot block used at every lifting step is split once into balanced
    21-bit limbs, stacked in one float64 array, so its product with a digit
    matrix is one exact float64 product for all limbs, returned as an int64
    limb stack.
    """

    def __init__(self, rows, cols):
        import numpy as np

        self.A = np.asarray(rows, dtype=object).reshape(len(rows), cols)
        self.shape = self.A.shape

    def residues(self, p):
        import numpy as np

        return (self.A % p).astype(np.int32)

    def columns(self, cols):
        return self.A[:, cols]

    def product(self, Z):
        return self.A.dot(Z)

    def pivot_product(self, rows, cols):
        """x -> A[rows, cols] @ x as an int64 limb stack, for int64 digit
        matrices x below 2^21: the block's balanced limbs times x, one exact
        float64 product (limb j of the result is below len(cols) 2^41)."""
        import numpy as np

        limbs = _limbs(self.A[np.ix_(rows, cols)]).astype(np.float64)

        def apply(x):
            return _exact_matmul(limbs, x)

        return apply


def _exact_matmul(a, x):
    """a @ x as int64, for a float64 stack a (..., n) and an int64 x (n, k),
    both of integers below 2^21 in absolute value: one float64 product for
    the whole stack, summed in chunks of EXACT_FLOAT_TERMS terms."""
    import numpy as np

    flat = a.reshape(math.prod(a.shape[:-1]), a.shape[-1])
    xf = x.astype(np.float64)
    out = np.zeros((len(flat), x.shape[1]), dtype=np.int64)
    for s in range(0, a.shape[-1], EXACT_FLOAT_TERMS):
        out += (flat[:, s : s + EXACT_FLOAT_TERMS] @ xf[s : s + EXACT_FLOAT_TERMS]).astype(
            np.int64
        )
    return out.reshape(a.shape[:-1] + x.shape[1:])


def _rational_reconstruction(u, M, bound):
    """n/d = u mod M with |n| <= bound and 0 < d <= bound, or None."""
    r0, r1, s0, s1 = M, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    if s1 < 0:
        r1, s1 = -r1, -s1
    return (r1, s1) if math.gcd(r1, s1) == 1 else None


def _common_denominator(X, M):
    """(d, Y) with Y = d X mod M and every |Y| and d at most sqrt(M / 2),
    or None.  Only entries still large after scaling by the current d are
    reconstructed; d grows by each new denominator, rescaling all entries.
    The first 4 entries are probed, then about 64 spread over all rows, then
    all of them, so an unconverged X fails cheaply; d is the lcm of the
    denominators of all entries either way."""
    import numpy as np

    bound = math.isqrt((M - 1) // 2)
    d = 1
    flat = X.ravel()
    for part in (flat[:4], flat[:: max(1, flat.size // 64)], flat):
        while True:
            Y = part * d % M
            Y = np.where(Y > M // 2, Y - M, Y)
            big = np.flatnonzero(np.abs(Y) > bound)
            if not big.size:
                break
            found = _rational_reconstruction(int(Y[big[0]]) % M, M, bound)
            if found is None or d * found[1] > bound:
                return None
            d *= found[1]
    return d, Y.reshape(X.shape)


def _nullity_mod(op, p, rejected):
    """The NullityProof of `certified_nullity` from the prime p, or None
    when p is unlucky; `rejected` are the primes found unlucky before it."""
    import numpy as np

    m, n = op.shape
    f = int_rank_mod(op, p)
    r = f.rank
    if r == n or (r == m and n - r > 1):
        return NullityProof(n - r, p, r, rejected=rejected)
    rows, piv = f.perm[:r], list(f.pivots)
    free = sorted(set(range(n)) - set(piv))
    k = len(free)
    if r * k > LIFTING_ENTRY_CAP:
        raise PreconditionError(
            f"lifting {k} kernel vectors over rank_p = {r} pivot rows ({r * k} "
            f"entries) passes LIFTING_ENTRY_CAP = {LIFTING_ENTRY_CAP}"
        )
    solve = _PivotSolver(f)  # takes over f.lu as its pivot block
    step = op.pivot_product(rows, piv)
    B = _limbs(-op.columns(free)[rows])
    # X + M * pack is the solution mod M * scale; pack holds the digits
    # of the last steps, at most three, in base p
    X = np.zeros((r, k), dtype=object)
    pack = np.zeros((r, k), dtype=np.int64)
    M, scale = 1, 1
    steps, attempt = 0, 1
    while True:
        if steps == LIFTING_STEP_CAP:
            raise PreconditionError(
                f"p-adic lifting mod {p} passed {LIFTING_STEP_CAP} steps "
                f"without an exact kernel ({k} vectors of {n} entries)"
            )
        x = solve(_limb_residues(B, p))
        pack += x * scale
        scale *= p
        P = step(x)
        C = np.zeros((max(len(B), len(P)), r, k), dtype=np.int64)
        C[: len(B)] = B
        C[: len(P)] -= P
        B = _divide_limbs(C, p)
        steps += 1
        # early termination: reconstruct after steps 1, 2, 3, 4, 6, 8,
        # 11, ..., each time a quarter more steps on
        ready = steps >= attempt
        if ready or scale == p**3:
            X += pack.astype(object) * M
            M *= scale
            pack[...] = 0
            scale = 1
        if not ready:
            continue
        attempt = steps + 1 + steps // 4
        found = _common_denominator(X, M)
        if found is None:
            continue
        d, Y = found
        Z = np.zeros((n, k), dtype=object)
        Z[piv] = Y
        Z[free, np.arange(k)] = d
        bad = np.flatnonzero((op.product(Z) != 0).any(axis=1))
        if not bad.size:
            kernel = tuple(tuple(int(v) for v in col) for col in Z.T)
            return NullityProof(n - r, p, r, kernel, d, tuple(free), steps, rejected)
        if not np.isin(bad, rows).any():
            return None


def certified_nullity(op, primes=None) -> NullityProof:
    """Proved nullity of the integer matrix behind `op`.

    `op` has `shape` = (rows, cols) and exact access to the matrix A:
    `residues(p)` (A mod p, a fresh int32 array of residues in [0, p)
    that the elimination overwrites), `columns(cols)` and `product(Z)`
    (A[:, cols] and A @ Z as object arrays), and `pivot_product(rows,
    cols)`, a function
    x -> A[rows, cols] @ x for int64 digit matrices x with entries below
    2^21, which returns an int64 limb stack (limb j counts 2^(21 j); each
    below 2^61 in absolute value).  The candidate primes are
    `modular_primes(primes)`; `primes` is its test hook.

    One GF(p) elimination gives rank_p, so nullity <= cols - rank_p.  If
    rank_p = cols, or rank_p = rows < cols - 1, the rank over Q cannot
    exceed rank_p either and this is the nullity.  Otherwise, so that a
    nullity of 1 always carries its vector, the k = cols - rank_p kernel
    vectors that are the identity on the free columns solve A_PP X = -A_PF
    (P the pivot rows and columns); X is lifted p-adically (Dixon) from
    the kept L U factors, with rational reconstruction and
    early termination.  The residual B starts as -A_PF and is held as an
    int64 stack of balanced 21-bit limbs: each step solves A_PP x = B mod p
    for the digits x and replaces B by (B - A_PP x) / p, divided exactly
    limb by limb (`_divide_limbs`), so no step does bignum arithmetic.
    Since |B| stays below rank_p max|A|, its limbs hold about
    bits(max|A|) + bits(rank_p) + 1 bits.  The digits are packed three to
    an int64 (p^3 < 2^63) and added to X every third step and before each
    reconstruction.

    A candidate X that makes A [X; I] = 0 exactly on every row proves
    nullity >= k.  If it holds on the pivot rows but not on
    another, X is the unique solution and rank_p < rank_Q: the prime was
    unlucky and the next candidate is tried, once `_nullity_mod` has
    returned and dropped the unlucky prime's factors, so the retry holds
    one full-size array, not two.  Raises PreconditionError when the
    candidates run out, when rank_p times k passes LIFTING_ENTRY_CAP
    (before any lifting), or when the lifting passes LIFTING_STEP_CAP
    steps.
    """
    m, n = op.shape
    if min(m, n) == 0:
        return NullityProof(n, None, 0)
    rejected = []
    for p in modular_primes(primes):
        proof = _nullity_mod(op, p, tuple(rejected))
        if proof is not None:
            return proof
        rejected.append(p)
    raise PreconditionError(
        f"every candidate prime {tuple(rejected)} has a GF(p) rank below the "
        "rational rank; no nullity is proved"
    )


def kernel_dimension(M: RatMatrix, mode="exact", primes=None) -> int:
    """Proved dimension of the rational null space of M.

    Each row is first cleared of denominators and divided by its content
    (the gcd of its entries); scaling a row by a nonzero rational leaves
    the rank over Q unchanged and keeps the integers small.  Rows of plain
    integers need no clearing, and the contents of all rows are divided out
    in one object-array pass.  The nullity is
    then proved by `certified_nullity`: one GF(p) elimination gives the
    upper bound, exactly checked kernel vectors (lifted p-adically from
    it) the lower bound.  The proof sees only the cleared integer rows, so
    a prime dividing an original denominator is harmless.  The candidate
    primes are `modular_primes(primes)`: at least 3 distinct primes in
    (2^20, 2^21); `primes` is their test hook.  Both modes,
    "exact" and "modular", run this proof; the mode stays only because the
    benchmark's `exact-rank` workload passes it.
    """
    import numpy as np

    if mode not in ("exact", "modular"):
        raise ValueError(f"unknown mode {mode!r}")
    integral = set(map(type, itertools.chain.from_iterable(M._r))) <= {int}
    rows = M._r if integral else M.cleared_rows()
    A = np.array(rows, dtype=object).reshape(M.rows, M.cols)
    content = np.gcd.reduce(A, axis=1)
    content[content == 0] = 1
    A //= content[:, None]
    return certified_nullity(DenseOperator(A, M.cols), primes).nullity


def int_inverse_unimodular(M: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix.

    The Hermite normal form of a unimodular matrix is the identity, so the
    transform W with W * M = H is the inverse.  Raises ValueError for a
    matrix that is not square or not unimodular.
    """
    if M.rows != M.cols:
        raise ValueError("not square")
    h, w = hermite_normal_form(M)
    if h != IntMatrix.identity(M.rows):
        raise ValueError("matrix is not unimodular")
    return w
