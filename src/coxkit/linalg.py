"""Arbitrary-precision integer and rational linear algebra.

Provides immutable integer/rational matrices, Smith and Hermite normal
forms with transformation matrices, saturated integer kernels, and exact
or multi-prime modular kernel dimension.  Everything is deterministic.
Modular ranks use primes in (2^20, 2^21) and a blocked GF(p) elimination
whose trailing updates are exact float64 matrix products; a GF(p) rank is
at most the rank over Q, so a modular nullity is an upper bound.
Before a rank computation each rational row is cleared of denominators and
made primitive (divided by the gcd of its entries); elimination over the
integers is then fraction-free (Bareiss) to control entry growth.  gmpy2
bignums are used when gmpy2 is installed, Python ints otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PreconditionError

try:
    from gmpy2 import mpz as _bigint
except ImportError:  # pragma: no cover
    _bigint = int


class PrimeDivideDenominator(PreconditionError):
    pass


# Modular primes lie strictly between these bounds.
MODULAR_PRIME_BOUND = 1 << 20
MODULAR_PRIME_LIMIT = 1 << 21

# Panel width of int_rank_mod.  A trailing-update entry is a residue minus
# a sum of PANEL_WIDTH products of residues below MODULAR_PRIME_LIMIT, so
# its float64 value is exact for any width up to 2^53 / 2^42 = 2^11.  64 was
# the fastest width from 48 to 160 on the 1378 x 1348 order-52 flagship
# matrix (2-core x86, OpenBLAS).
PANEL_WIDTH = 64


def vec_gcd(v):
    g = 0
    for x in v:
        g = math.gcd(g, abs(int(x)))
    return g


def primitive(v):
    """Divide an integer vector by the gcd of its entries (0 stays 0)."""
    g = vec_gcd(v)
    if g <= 1:
        return tuple(int(x) for x in v)
    return tuple(int(x) // g for x in v)


def dot(u, v):
    return sum(int(a) * int(b) for a, b in zip(u, v))


class IntMatrix:
    """Immutable integer matrix, row-major, arbitrary precision."""

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
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zero(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @property
    def entries(self):
        """Row-major flat tuple of entries."""
        return tuple(x for row in self._r for x in row)

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
        return IntMatrix([self.col(j) for j in range(self.cols)], cols=self.rows)

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            ot = other.transpose()
            return IntMatrix(
                [[dot(r, c) for c in ot._r] for r in self._r], cols=other.cols
            )
        return NotImplemented

    def apply(self, v):
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(dot(r, v) for r in self._r)

    def stack(self, other):
        """Rows of self followed by rows of other."""
        if self.cols != other.cols:
            raise ValueError("shape mismatch")
        return IntMatrix(list(self._r) + list(other._r), cols=self.cols)

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
        U=IntMatrix(u, cols=n), D=IntMatrix(a, cols=m), V=IntMatrix(v, cols=m)
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
    pivots = []
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
        pivots.append(c)
        r += 1
        if r == n:
            break
    return IntMatrix(a, cols=m), IntMatrix(u, cols=n)


def integer_kernel_saturated(M: IntMatrix) -> IntMatrix:
    """Basis of {x in Z^cols : M x = 0} as a saturated sublattice.

    Rows of the result form the basis; the quotient of Z^cols by their
    span is torsion-free because they are columns of a unimodular matrix.
    """
    snf = smith_normal_form(M)
    r = snf.rank
    # kernel = span of columns r..cols-1 of V
    rows = [snf.V.col(j) for j in range(r, M.cols)]
    if not rows:
        return IntMatrix([], cols=M.cols)
    h, _ = hermite_normal_form(IntMatrix(rows, cols=M.cols))
    return IntMatrix([row for row in h._r if any(row)], cols=M.cols)


def in_row_lattice(B: IntMatrix, v) -> bool:
    """Is v an integer combination of the rows of B?"""
    if B.rows == 0:
        return not any(v)
    h, _ = hermite_normal_form(B)
    w = [int(x) for x in v]
    for row in h._r:
        piv = next((j for j, x in enumerate(row) if x != 0), None)
        if piv is None:
            continue
        if w[piv] % row[piv] == 0:
            q = w[piv] // row[piv]
            w = [x - q * y for x, y in zip(w, row)]
    return not any(w)


def det(M: IntMatrix):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if M.rows != M.cols:
        raise ValueError("determinant of non-square matrix")
    n = M.rows
    if n == 0:
        return 1
    a = [[_bigint(x) for x in row] for row in M._r]
    sign = 1
    prev = _bigint(1)
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
            rowi[k] = _bigint(0)
        prev = pk
    return sign * int(a[n - 1][n - 1])


def int_rank(rows) -> int:
    """Rank of an integer matrix given as a list of rows (Bareiss)."""
    a = [[_bigint(x) for x in row] for row in rows]
    n = len(a)
    if n == 0:
        return 0
    m = len(a[0])
    rank = 0
    r = 0
    prev = _bigint(1)
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
            rowi[c] = _bigint(0)
        prev = pv
        rank += 1
        r += 1
        if r == n:
            break
    return rank


def int_rank_mod(rows, p) -> int:
    """Rank over GF(p) of an integer matrix: a list of rows or an int array.

    p must be a prime below MODULAR_PRIME_LIMIT.  Blocked elimination, one
    panel of PANEL_WIDTH columns at a time.  A panel is eliminated with row
    pivoting in int64, keeping the multipliers below its pivots; columns
    without a pivot are skipped.  The pivot rows to the right of the panel
    are forward-solved, U12 = L11^-1 A12, and the trailing block is updated
    as one float64 product, A22 -= L21 @ U12, then reduced mod p.  Every
    float64 value is an integer below 2^53, so the result is exact.
    """
    if not 1 < p < MODULAR_PRIME_LIMIT:
        raise PreconditionError(f"GF(p) rank needs 1 < p < 2^21, got {p}")
    if len(rows) == 0:
        return 0
    if isinstance(rows, np.ndarray):
        A = np.remainder(rows, p, dtype=np.int64)
    else:
        A = (np.array(rows, dtype=object) % p).astype(np.int64)
    m, n = A.shape
    r = 0
    for c0 in range(0, n, PANEL_WIDTH):
        if r == m:
            break
        c1 = min(c0 + PANEL_WIDTH, n)
        r0 = r
        panel = A[r0:, c0:c1].copy()
        pivots = []
        for c in range(c1 - c0):
            k = r - r0
            nz = np.flatnonzero(panel[k:, c])
            if not nz.size:
                continue
            piv = k + int(nz[0])
            if piv != k:
                panel[[k, piv]] = panel[[piv, k]]
                A[[r, r0 + piv], c1:] = A[[r0 + piv, r], c1:]
            below = panel[k + 1 :, c:]
            below[:, 0] *= pow(int(panel[k, c]), p - 2, p)
            below[:, 0] %= p
            rest = below[:, 1:]
            rest -= np.multiply.outer(below[:, 0], panel[k, c + 1 :])
            rest %= p
            pivots.append(c)
            r += 1
            if r == m:
                break
        if not pivots or r == m or c1 == n:
            continue
        k = len(pivots)
        lower = panel[:, pivots].astype(np.float64)
        upper = A[r0:r, c1:].astype(np.float64)
        for t in range(1, k):
            upper[t] = (upper[t] - lower[t, :t] @ upper[:t]) % p
        trailing = A[r:, c1:]
        np.subtract(trailing, lower[k:] @ upper, out=trailing, casting="unsafe")
        trailing %= p
    return r


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


def default_modular_primes(avoid=(), count=3):
    """First `count` primes above 2^20 dividing none of `avoid`."""
    avoid = [a for a in avoid if a not in (0, 1, -1)]
    out = []
    n = MODULAR_PRIME_BOUND + 1
    while len(out) < count:
        if _is_prime(n) and all(a % n != 0 for a in avoid):
            out.append(n)
        n += 1
    return out


def modular_primes(primes=None, denominators=()):
    """The primes for a multi-prime GF(p) rank, checked.

    `primes=None` selects the default primes avoiding `denominators`.
    Otherwise there must be at least 3 distinct primes, each in
    (MODULAR_PRIME_BOUND, MODULAR_PRIME_LIMIT) = (2^20, 2^21) and dividing
    no denominator; anything else raises PreconditionError.  Returns the
    distinct primes in their given order.
    """
    if primes is None:
        primes = default_modular_primes(avoid=denominators)
    primes = list(dict.fromkeys(primes))
    if len(primes) < 3:
        raise PreconditionError("modular mode requires at least 3 distinct primes")
    for p in primes:
        if not (MODULAR_PRIME_BOUND < p < MODULAR_PRIME_LIMIT and _is_prime(p)):
            raise PreconditionError(f"modulus {p} is not a prime in (2^20, 2^21)")
        if any(d % p == 0 for d in denominators):
            raise PrimeDivideDenominator(f"prime {p} divides a denominator")
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

    def denominators(self):
        out = set()
        for row in self._r:
            for x in row:
                if not isinstance(x, int):
                    out.add(x.denominator)
        return out or {1}

    def cleared_rows(self):
        """Integer rows after scaling each row by the lcm of denominators."""
        out = []
        for row in self._r:
            lcm = 1
            for x in row:
                if not isinstance(x, int):
                    lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
            if lcm == 1:
                out.append([int(x) for x in row])
            else:
                out.append([int(x * lcm) for x in row])
        return out


def kernel_dimension(M: RatMatrix, mode="exact", primes=None) -> int:
    """Dimension of the rational null space of M.

    Each row is first cleared of denominators and divided by its content
    (the gcd of its entries).  Scaling a row by a nonzero rational leaves
    the rank over Q unchanged, and it keeps the integers small: a row of a
    vanishing matrix is divisible by i!*j!, which would otherwise inflate
    every Bareiss intermediate.

    mode="exact": fraction-free (Bareiss) elimination over Z of these
    primitive rows.  mode="modular": rank over GF(p) (`int_rank_mod`) for
    each prime of `modular_primes(primes, denominators)`, so at least 3
    distinct primes in (2^20, 2^21) dividing no denominator.  A GF(p) rank
    is at most the rank over Q, so each modular nullity is an upper bound
    on the true one; agreement of all primes is taken as the answer, which
    is a heuristic, not a proof.  Disagreement escalates to exact.
    """
    if mode not in ("exact", "modular"):
        raise ValueError(f"unknown mode {mode!r}")
    rows = [primitive(row) for row in M.cleared_rows()]
    if mode == "exact":
        return M.cols - int_rank(rows)
    primes = modular_primes(primes, M.denominators())
    ranks = {int_rank_mod(rows, p) for p in primes}
    if len(ranks) == 1:
        return M.cols - ranks.pop()
    return M.cols - int_rank(rows)


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


def rational_kernel_basis(M: RatMatrix):
    """Exact basis of the rational null space (list of Fraction tuples).

    Gauss-Jordan over Fraction; intended for small matrices.
    """
    a = [[Fraction(x) for x in row] for row in M._r]
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
