import itertools
import math
import random
from fractions import Fraction

import pytest

import numpy as np

from coxkit.errors import PreconditionError
import coxkit.linalg as linalg
from helpers import (
    certified_nullity_by_objects,
    int_rank,
    limb_value,
    rational_kernel_basis,
    rational_solve,
)
from coxkit.linalg import (
    EXACT_FLOAT_TERMS,
    MODULAR_PRIME_LIMIT,
    PANEL_WIDTH,
    SUBPANEL_WIDTH,
    DenseOperator,
    IntMatrix,
    RatMatrix,
    default_modular_primes,
    certified_nullity,
    det,
    hermite_normal_form,
    int_inverse_unimodular,
    int_rank_mod,
    integer_kernel_saturated,
    kernel_dimension,
    lattice_coordinates,
    modular_primes,
    primitive,
    smith_normal_form,
)


# ---------------------------------------------------------------- oracles


def minor_det(rows, row_idx, col_idx):
    """Leibniz determinant of a square submatrix; oracle-side only."""
    sub = [[rows[i][j] for j in col_idx] for i in row_idx]
    n = len(sub)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = 1
        for i in range(n):
            term *= sub[i][perm[i]]
        total += sign * term
    return total


def invariant_factors_oracle(rows, ncols):
    """Invariant factors via gcds of k x k minors."""
    nrows = len(rows)
    out = []
    prev_gcd = 1
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for ri in itertools.combinations(range(nrows), k):
            for ci in itertools.combinations(range(ncols), k):
                g = math.gcd(g, abs(minor_det(rows, ri, ci)))
        if g == 0:
            break
        out.append(g // prev_gcd)
        prev_gcd = g
    return out


def int_rank_mod_oracle(rows, p):
    """Rank over GF(p) by unblocked elimination, one pivot column at a
    time, every row update reduced in int64; oracle-side only.  Returns
    (rank, perm, pivots): the original index of each row in the final row
    order, and the pivot columns."""
    M = np.array(rows, dtype=object).reshape(len(rows), -1) % p
    M = M.astype(np.int64)
    nr, nc = M.shape
    perm = list(range(nr))
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        nz = np.nonzero(M[r:, c])[0]
        if len(nz) == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            M[[r, piv]] = M[[piv, r]]
            perm[r], perm[piv] = perm[piv], perm[r]
        inv = pow(int(M[r, c]), p - 2, p)
        M[r, c:] = (M[r, c:] * inv) % p
        colv = M[r + 1 :, c]
        hit = np.nonzero(colv)[0]
        if len(hit):
            M[r + 1 + hit, c:] = (M[r + 1 + hit, c:] - colv[hit, None] * M[r, c:]) % p
        pivots.append(c)
        r += 1
    return len(pivots), perm, tuple(pivots)


def is_unimodular(M):
    return M.rows == M.cols and abs(det(M)) == 1


def random_int_matrix(rng, nmax=8, lo=-50, hi=50):
    n = rng.randint(1, nmax)
    m = rng.randint(1, nmax)
    return IntMatrix([[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)])


def random_unimodular(rng, n, steps=12):
    rows = IntMatrix.identity(n).row_list()
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-3, 3)
        rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    return IntMatrix(rows)


# ------------------------------------------------------------- smith form


def test_snf_diag_2_3():
    snf = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    assert snf.D == IntMatrix([[1, 0], [0, 6]])
    assert snf.U * IntMatrix([[2, 0], [0, 3]]) * snf.V == snf.D


def test_snf_identity():
    snf = smith_normal_form(IntMatrix.identity(3))
    assert snf.D == IntMatrix.identity(3)


def test_snf_p2_ray_matrix():
    m = IntMatrix([[1, 0], [0, 1], [-1, -1]])
    snf = smith_normal_form(m)
    assert snf.invariant_factors == (1, 1)
    assert snf.D.row(2) == (0, 0)
    # cokernel Z^3 / im = Z: rank 3 - 2 = 1 free, no torsion
    assert invariant_factors_oracle(m.row_list(), 2) == [1, 1]


def test_snf_empty_matrices():
    snf = smith_normal_form(IntMatrix([], cols=3))
    assert snf.D.rows == 0 and snf.D.cols == 3
    snf = smith_normal_form(IntMatrix([[], [], []], cols=0))
    assert snf.D.rows == 3 and snf.D.cols == 0


def test_snf_random_invariants():
    rng = random.Random(101)
    for _ in range(200):
        m = random_int_matrix(rng, nmax=8)
        snf = smith_normal_form(m)
        assert snf.U * m * snf.V == snf.D
        assert is_unimodular(snf.U) and is_unimodular(snf.V)
        assert snf.D.is_diagonal()
        diag = [d for d in snf.D.diagonal()]
        nz = [d for d in diag if d != 0]
        assert all(d >= 0 for d in diag)
        # zeros trail
        assert diag[: len(nz)] == nz
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        # oracle check on small matrices only (minor enumeration blows up)
        if m.rows <= 5 and m.cols <= 5:
            assert list(nz) == invariant_factors_oracle(m.row_list(), m.cols)


# ----------------------------------------------------------- hermite form


def hnf_oracle_2x2(m):
    """Unique HNF of a 2x2 matrix by brute-force search over unimodular U."""
    found = []
    for a, b, c, d in itertools.product(range(-6, 7), repeat=4):
        if a * d - b * c not in (1, -1):
            continue
        u = IntMatrix([[a, b], [c, d]])
        h = u * m
        # row-echelon, positive pivots, entries above reduced into [0, pivot)
        if h[1, 0] != 0:
            continue
        if h[0, 0] > 0 and h[1, 1] > 0:
            if 0 <= h[0, 1] < h[1, 1]:
                found.append(h)
    assert found, "oracle found no HNF candidate"
    first = found[0]
    assert all(f == first for f in found)
    return first


def test_hnf_2x2_example():
    m = IntMatrix([[2, 4], [1, 3]])
    h, u = hermite_normal_form(m)
    assert u * m == h
    assert h == hnf_oracle_2x2(m)
    # frozen value computed by the oracle
    assert h == IntMatrix([[1, 1], [0, 2]])


def test_hnf_identity_and_zero():
    h, u = hermite_normal_form(IntMatrix.identity(4))
    assert h == IntMatrix.identity(4)
    z = IntMatrix.zero(2, 3)
    h, u = hermite_normal_form(z)
    assert h == z


def test_hnf_invariant_under_unimodular():
    rng = random.Random(202)
    for _ in range(60):
        m = random_int_matrix(rng, nmax=5, lo=-9, hi=9)
        h1, u1 = hermite_normal_form(m)
        assert u1 * m == h1
        assert is_unimodular(u1)
        t = random_unimodular(rng, m.rows)
        h2, u2 = hermite_normal_form(t * m)
        assert h1 == h2


# ----------------------------------------------------------------- kernel


def test_kernel_of_weights_12_13_17():
    m = IntMatrix([[12, 13, 17]])
    k = integer_kernel_saturated(m)
    assert k.rows == 2
    for row in k.row_list():
        assert m.apply(row) == (0,)
    # stacking the basis yields all invariant factors 1 (saturation)
    assert smith_normal_form(k).invariant_factors == (1, 1)
    # the stated spanning vectors lie in the computed lattice
    assert None not in lattice_coordinates(k, [(13, -12, 0), (17, 0, -12)])
    # and conversely: saturation of their span equals the kernel lattice
    span = IntMatrix([[13, -12, 0], [17, 0, -12]])
    for row in k.row_list():
        # rows of k are in the rational span, and k is saturated
        assert rational_solve(span.transpose(), row) is not None


def test_kernel_identity_empty():
    assert integer_kernel_saturated(IntMatrix.identity(3)).rows == 0


def test_kernel_lm_projection_matrix():
    pi = IntMatrix([[1, 0, 1, -2, -1, 1, 0], [0, 1, -1, -3, -2, 2, 1]])
    k = integer_kernel_saturated(pi)
    assert k.rows == 5
    v1 = (1, 0, 1, 1, 1, 0, 0)
    v2 = tuple(-x for x in (0, 0, 0, 1, 1, 0, 0))
    v3 = tuple(-x for x in (1, 0, 1, 0, 0, 1, 0))
    combo = tuple(12 * a + 17 * b + 13 * c for a, b, c in zip(v1, v2, v3))
    assert pi.apply(combo) == (0, 0)
    assert lattice_coordinates(k, [combo]) != [None]


def test_kernel_saturation_random():
    rng = random.Random(303)
    for _ in range(60):
        m = random_int_matrix(rng, nmax=6, lo=-7, hi=7)
        k = integer_kernel_saturated(m)
        for row in k.row_list():
            assert all(x == 0 for x in m.apply(row))
        if k.rows:
            assert set(smith_normal_form(k).invariant_factors) <= {1}
        # the lattice is the one the Smith form gives: columns rank.. of V
        snf = smith_normal_form(m)
        want = [snf.V.col(j) for j in range(snf.rank, m.cols)]
        assert k == (hermite_normal_form(IntMatrix(want))[0] if want else IntMatrix([], cols=m.cols))


def test_lattice_coordinates_match_rational_solve():
    """Seeded lattices B = M B0 (independent rows, |det M| >= 1) in
    dimensions 1-5: integer combinations of B are members with exactly the
    oracle's coordinates; integer points y B0 whose coordinates in B are
    not integral, and vectors off the span, are not."""
    rng = random.Random(909)
    kinds = {"member": 0, "non-integral": 0, "off-span": 0}
    for _ in range(150):
        n = rng.randint(1, 5)
        k = rng.randint(1, n)
        b0 = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
        m = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        if int_rank(b0) < k or det(IntMatrix(m)) == 0:
            continue
        B = IntMatrix(m) * IntMatrix(b0)

        def combination(rows):
            cs = [rng.randint(-4, 4) for _ in range(k)]
            return tuple(sum(c * x for c, x in zip(cs, col)) for col in zip(*rows))

        vectors = [combination(B.row_list()) for _ in range(3)]  # members
        vectors += [combination(b0) for _ in range(3)]  # in the span
        vectors += [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(2)]
        got = lattice_coordinates(B, vectors)
        for v, x in zip(vectors, got):
            y = rational_solve(B.transpose(), v)
            if y is None:
                kinds["off-span"] += 1
            elif any(c.denominator != 1 for c in y):
                kinds["non-integral"] += 1
            else:
                kinds["member"] += 1
                assert x == y
                continue
            assert x is None
    assert min(kinds.values()) >= 50, kinds
    assert lattice_coordinates(IntMatrix([], cols=2), [(0, 0), (1, 0)]) == [(), None]
    dependent = IntMatrix([[2, 4], [3, 6], [0, 0]])  # one solution of many
    x, off = lattice_coordinates(dependent, [(1, 2), (1, 1)])
    assert dependent.transpose().apply(x) == (1, 2) and off is None


# --------------------------------------------------------- rank / nullity


def test_kernel_dimension_trivial():
    assert kernel_dimension(RatMatrix([[1 if i == j else 0 for j in range(5)] for i in range(5)])) == 0
    assert kernel_dimension(RatMatrix([[0] * 4 for _ in range(3)])) == 4


def test_kernel_dimension_modes_agree():
    rng = random.Random(404)
    for _ in range(100):
        n = rng.randint(1, 30)
        m = rng.randint(1, 30)
        rows = [
            [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(m)]
            for _ in range(n)
        ]
        mat = RatMatrix(rows)
        assert kernel_dimension(mat, "exact") == kernel_dimension(mat, "modular")


def test_kernel_dimension_scaled_rows():
    """Rows scaled by huge factors (factorials, products of the modular
    primes) keep their rational rank; both modes must see through it."""
    rng = random.Random(4242)
    primes = default_modular_primes()
    prime_product = math.prod(primes)
    for trial in range(40):
        n = rng.randint(1, 12)
        m = rng.randint(1, 12)
        rational = trial % 2 == 1
        rows = []
        for _ in range(n):
            if rng.random() < 0.2:
                rows.append([0] * m)
            elif rational:
                rows.append(
                    [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(m)]
                )
            else:
                rows.append([rng.randint(-9, 9) for _ in range(m)])
        if n > 1 and rng.random() < 0.5:
            rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
        want = len(rational_kernel_basis(RatMatrix(rows, cols=m)))
        factors = (
            math.factorial(rng.randint(20, 60)),
            prime_product,
            prime_product ** 2 * math.factorial(30),
            primes[0],
            -math.factorial(52) * math.factorial(51),
        )
        scaled = []
        for row in rows:
            factor = rng.choice(factors)
            scaled.append([x * factor for x in row])
        scaled = RatMatrix(scaled, cols=m)
        assert kernel_dimension(scaled, "exact") == want
        assert kernel_dimension(scaled, "modular") == want


def test_modular_prime_validation():
    """Rows are cleared of denominators before the GF(p) proof, so a prime
    dividing an original denominator is harmless."""
    mat = RatMatrix([[Fraction(1, 1048583), 1]])
    assert kernel_dimension(mat, "modular", primes=[1048583, 1048589, 1048601]) == 1


def test_modular_primes_rejects_composites():
    """A composite modulus has no inverses; it used to be accepted and gave
    nullity 1 here where the rational nullity is 2."""
    mat = RatMatrix(
        [
            [0, 0, 14, 2, -6],
            [-9, 20, -27, 16, -17],
            [-8, -15, 24, -22, 28],
            [7, 15, -33, 20, -23],
        ]
    )
    assert kernel_dimension(mat, "exact") == 2
    assert kernel_dimension(mat, "modular") == 2
    with pytest.raises(PreconditionError):
        kernel_dimension(mat, "modular", primes=[1048577, 1048581, 1048587])
    with pytest.raises(PreconditionError):
        kernel_dimension(mat, "modular", primes=[1048583, 1048589, 1048581])


def test_modular_primes_rejects_primes_outside_window():
    """Primes above 2^31.5 used to overflow the int64 elimination silently
    (nullity 0 here, rational nullity 3); the window is (2^20, 2^21)."""
    rng = random.Random(31)
    left = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(6)]
    right = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(3)]
    mat = RatMatrix(product(left, right, 6))
    assert kernel_dimension(mat, "exact") == 3
    for primes in (
        [1099511627791, 1099511627803, 1099511627831],  # just above 2^40
        [1048583, 1048589, 2097169],  # 2097169 > 2^21 is prime
        [1048573, 1048583, 1048589],  # 1048573 < 2^20 is prime
        [1048583, 1048589, 1048583],  # two distinct primes only
    ):
        with pytest.raises(PreconditionError):
            kernel_dimension(mat, "modular", primes=primes)
    assert modular_primes([1048583, 1048589, 1048583, 2097143]) == [
        1048583,
        1048589,
        2097143,
    ]


def test_default_primes_deterministic():
    assert default_modular_primes() == [1048583, 1048589, 1048601]


def test_rational_kernel_basis():
    m = RatMatrix([[1, 1, 0], [0, Fraction(1, 2), Fraction(1, 2)]])
    basis = rational_kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    for row in m._r:
        assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0


def test_int_inverse_unimodular():
    rng = random.Random(505)
    for _ in range(20):
        n = rng.randint(1, 5)
        u = random_unimodular(rng, n)
        ui = int_inverse_unimodular(u)
        assert u * ui == IntMatrix.identity(n)


def test_int_inverse_unimodular_rejects():
    for m in (
        IntMatrix([[2, 0], [0, 1]]),  # determinant 2
        IntMatrix([[1, 2], [2, 4]]),  # singular
        IntMatrix([[1, 0, 0], [0, 1, 0]]),  # not square
    ):
        with pytest.raises(ValueError):
            int_inverse_unimodular(m)


def test_primitive():
    assert primitive((4, -6, 2)) == (2, -3, 1)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((0, -5)) == (0, -1)


# ------------------------------------------------------ blocked GF(p) rank

WIDTHS = (
    1,
    SUBPANEL_WIDTH - 1,
    SUBPANEL_WIDTH,
    SUBPANEL_WIDTH + 1,
    PANEL_WIDTH - 1,
    PANEL_WIDTH,
    PANEL_WIDTH + 1,
    PANEL_WIDTH + SUBPANEL_WIDTH + 1,
    2 * PANEL_WIDTH + 3,
)
LARGEST_PRIME = 2097143  # the largest prime below 2^21


def product(left, right, n):
    """left (m x r) times right (r x n); r may be 0."""
    return [
        [sum(a * b[j] for a, b in zip(row, right)) for j in range(n)] for row in left
    ]


def random_rows(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def with_zero_lines(rng, rows, n):
    """Insert a few zero rows and zero columns at random positions."""
    rows = [list(row) for row in rows]
    for _ in range(rng.randint(0, 3)):
        col = rng.randint(0, n)
        rows = [row[:col] + [0] + row[col:] for row in rows]
        n += 1
    for _ in range(rng.randint(0, 3)):
        rows.insert(rng.randint(0, len(rows)), [0] * n)
    return rows


def known_rank(rng, m, n, r):
    """An m x n integer matrix of rank exactly r over Q and every GF(p):
    [[I, X], [Y, Y X]] with rows and columns shuffled."""
    x = random_rows(rng, r, n - r)
    y = random_rows(rng, m - r, r)
    top = [[int(i == j) for j in range(r)] + x[i] for i in range(r)]
    rows = top + product(y, top, n)
    rng.shuffle(rows)
    order = list(range(n))
    rng.shuffle(order)
    return [[row[j] for j in order] for row in rows]


def test_panel_width_keeps_float64_updates_exact():
    assert PANEL_WIDTH * (MODULAR_PRIME_LIMIT - 1) ** 2 + MODULAR_PRIME_LIMIT < 2**53
    assert modular_primes([LARGEST_PRIME, 1048583, 1048589])[0] == LARGEST_PRIME


def test_delayed_reduction_bound():
    """The trailing block sums at most EXACT_FLOAT_TERMS products between
    reductions, and every such sum stays an exact float64 integer."""
    assert EXACT_FLOAT_TERMS * (MODULAR_PRIME_LIMIT - 1) ** 2 + MODULAR_PRIME_LIMIT <= 2**53
    assert PANEL_WIDTH <= EXACT_FLOAT_TERMS


def test_int_rank_mod_delayed_reduction_reaches_the_bound():
    """A[i][j] = min(i, j + 1) - [i <= j] is L U with every stored entry of
    L and U congruent to -1, so without a reduction the trailing sums of
    (p-1)^2 would pass 2^53 after EXACT_FLOAT_TERMS columns."""
    p, n = LARGEST_PRIME, 2200
    assert n > EXACT_FLOAT_TERMS + PANEL_WIDTH
    i = np.arange(n)
    A = np.minimum.outer(i, i + 1) - (i[:, None] <= i[None, :])
    f = int_rank_mod(A, p)
    assert f.rank == n
    assert (f.perm == i).all()
    assert (f.lu == p - 1).all()


def lu_product(f, n):
    """L U of a ModularLU in exact integers: L is unit lower triangular
    with the multipliers stored below the pivots, U is row i of lu from
    column pivots[i] on."""
    m, r = len(f.perm), f.rank
    lower = np.zeros((m, r), dtype=object)
    upper = np.zeros((r, n), dtype=object)
    for j, c in enumerate(f.pivots):
        lower[j, j] = 1
        lower[j + 1 :, j] = [int(x) for x in f.lu[j + 1 :, c]]
        upper[j, c:] = [int(x) for x in f.lu[j, c:]]
    return lower.dot(upper)


def test_int_rank_mod_factors_match_oracle():
    """On seeded low-rank products with zero lines, wide and tall, the
    blocked factors have the unblocked oracle's row order and pivot
    columns, and A[perm] = L U mod p holds in exact integers."""
    rng = random.Random(20261019)
    primes = default_modular_primes() + [LARGEST_PRIME]
    for n in WIDTHS:
        for m in (max(1, n // 2), n + 7):
            r = rng.randint(0, min(m, n, PANEL_WIDTH + 4))
            rows = product(random_rows(rng, m, r), random_rows(rng, r, n), n)
            rows = with_zero_lines(rng, rows, n)
            cols = len(rows[0])
            for p in primes:
                f = int_rank_mod(rows, p)
                rank, perm, pivots = int_rank_mod_oracle(rows, p)
                assert f.perm.tolist() == perm and f.pivots == pivots
                assert ((0 <= f.lu) & (f.lu < p)).all()
                A = np.array(rows, dtype=object)[perm]
                assert ((lu_product(f, cols) - A) % p == 0).all()


def test_int_rank_mod_low_rank_products():
    """Blocked kernel against the unblocked oracle and exact Bareiss, on
    seeded low-rank products with zero rows and columns, at widths around
    the panel width."""
    rng = random.Random(20261018)
    primes = default_modular_primes() + [LARGEST_PRIME]
    for n in WIDTHS:
        for trial in range(3):
            m = rng.choice((1, max(1, n // 2), n, n + 5))
            r = rng.randint(0, min(m, n, 8))
            rows = product(random_rows(rng, m, r), random_rows(rng, r, n), n)
            rows = with_zero_lines(rng, rows, n)
            exact = int_rank(rows)
            assert exact <= r
            for p in primes:
                assert int_rank_mod(rows, p).rank == int_rank_mod_oracle(rows, p)[0] == exact
            assert int_rank_mod(np.array(rows, dtype=np.int64), primes[0]).rank == exact


def test_int_rank_mod_ranks_above_the_panel_width():
    rng = random.Random(7)
    for n in WIDTHS:
        half = max(1, n // 2)
        for m, r in ((n + 4, n), (n + 4, max(0, n - 3)), (half, half - 1)):
            rows = with_zero_lines(rng, known_rank(rng, m, n, r), n)
            for p in (1048583, LARGEST_PRIME):
                assert int_rank_mod(rows, p).rank == r
                assert int_rank_mod_oracle(rows, p)[0] == r


def test_int_rank_mod_pivot_free_panel():
    """The second panel holds combinations of the first panel's columns,
    so it has no pivot; the three columns after it do."""
    rng = random.Random(11)
    b = PANEL_WIDTH
    base = known_rank(rng, b + 10, b + 3, b + 3)
    first = [row[:b] for row in base]
    mix = random_rows(rng, b, b)
    rows = [
        f + c + row[b:] for f, c, row in zip(first, product(first, mix, b), base)
    ]
    assert len(rows[0]) == 2 * b + 3
    for p in (1048583, LARGEST_PRIME):
        assert int_rank_mod(rows, p).rank == int_rank_mod_oracle(rows, p)[0] == b + 3


def test_int_rank_mod_pivot_free_subpanel():
    """The second sub-panel holds combinations of the first sub-panel's
    columns, so it has no pivot; the columns after it, in the same panel
    and in the next, do."""
    rng = random.Random(12)
    s = SUBPANEL_WIDTH
    n = PANEL_WIDTH + s + 1
    base = known_rank(rng, n + 6, n - s, n - s)
    first = [row[:s] for row in base]
    mix = random_rows(rng, s, s)
    rows = [f + c + row[s:] for f, c, row in zip(first, product(first, mix, s), base)]
    assert len(rows[0]) == n
    for p in (1048583, LARGEST_PRIME):
        f = int_rank_mod(rows, p)
        rank, perm, pivots = int_rank_mod_oracle(rows, p)
        assert f.rank == rank == n - s
        assert f.perm.tolist() == perm and f.pivots == pivots
        assert not set(range(s, 2 * s)) & set(f.pivots)


def test_int_rank_mod_one_row_below_a_panel():
    """The trailing update reaches a single row left below a full panel."""
    rng = random.Random(13)
    n = PANEL_WIDTH + 1
    rows = random_rows(rng, n, n)
    for p in (1048583, LARGEST_PRIME):
        f = int_rank_mod(rows, p)
        rank, perm, pivots = int_rank_mod_oracle(rows, p)
        assert f.rank == rank == n
        assert f.perm.tolist() == perm and f.pivots == pivots
        assert ((lu_product(f, n) - np.array(rows, dtype=object)[perm]) % p == 0).all()


def test_int_rank_mod_largest_residues():
    """All-(p-1) entries at the largest admissible prime, and a block
    matrix whose trailing update sums PANEL_WIDTH products (p-1)^2."""
    p, b = LARGEST_PRIME, PANEL_WIDTH
    n = 2 * b + 3
    assert int_rank_mod([[p - 1] * n for _ in range(n)], p).rank == 1
    assert int_rank_mod(np.full((n, n), -1), p).rank == 1
    extra = 5
    rows = [[int(i == j) for j in range(b)] + [p - 1] * extra for i in range(b)]
    rows += [
        [p - 1] * b + [b + int(i == j) for j in range(extra)] for i in range(extra)
    ]
    assert int_rank_mod(rows, p).rank == int_rank_mod_oracle(rows, p)[0] == b + extra


def test_int_rank_mod_degenerate_shapes():
    p = 1048583
    assert int_rank_mod([], p).rank == 0
    assert int_rank_mod([[], []], p).rank == 0
    assert int_rank_mod([[0] * 7 for _ in range(4)], p).rank == 0
    assert int_rank_mod([[p, 2 * p], [3 * p, -p]], p).rank == 0
    assert int_rank_mod([[5]], p).rank == 1


# ------------------------------------------------------ certified nullity


def proved(rows, n, primes=None):
    """certified_nullity of integer rows, checked against Bareiss: the
    kernel vectors are the identity on the free columns and A x = 0."""
    proof = certified_nullity(DenseOperator(rows, n), primes)
    assert proof.nullity == n - int_rank(rows)
    assert proof.kernel == () or len(proof.kernel) == proof.nullity
    for t, vec in enumerate(proof.kernel):
        assert [vec[c] for c in proof.free] == [
            proof.denominator * (s == t) for s in range(len(proof.free))
        ]
        assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)
    return proof


def test_certified_nullity_against_bareiss():
    """Seeded rank-deficient products with zero lines, wide, tall, 1 x 1
    and empty shapes, and ranks above the panel width."""
    rng = random.Random(606)
    lifted = 0
    for trial in range(60):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        r = rng.randint(0, min(m, n))
        lo, hi = rng.choice(((-9, 9), (-10**12, 10**12)))
        rows = product(random_rows(rng, m, r, lo, hi), random_rows(rng, r, n, lo, hi), n)
        rows = with_zero_lines(rng, rows, n)
        proof = proved(rows, len(rows[0]))
        lifted += bool(proof.kernel)
    assert lifted > 20
    for rows, n in (([[5]], 1), ([[0]], 1), ([], 3), ([[], []], 0), ([[0, 0, 0]], 3)):
        assert proved(rows, n).nullity == n - int_rank(rows)
    for m, n, r in ((90, 80, 70), (70, 100, 66), (PANEL_WIDTH + 9, PANEL_WIDTH + 9, PANEL_WIDTH + 1)):
        rows = known_rank(rng, m, n, r)
        assert proved(rows, n).nullity == n - r


def test_certified_nullity_fraction_rows():
    """Rational rows through kernel_dimension, and their kernel vectors
    checked over Q."""
    rng = random.Random(707)
    for trial in range(30):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        rows = [
            [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(n)]
            for _ in range(m)
        ]
        if m > 2:
            rows[-1] = [a - 3 * b for a, b in zip(rows[0], rows[1])]
        mat = RatMatrix(rows)
        want = len(rational_kernel_basis(mat))
        assert kernel_dimension(mat, "exact") == kernel_dimension(mat, "modular") == want
        proof = certified_nullity(DenseOperator(mat.cleared_rows(), n))
        assert proof.nullity == want
        for vec in proof.kernel:
            assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)


def test_certified_nullity_unlucky_prime():
    """Nullity 0 over Q but 1 over GF(1048583): the lifted vector fails
    off the pivot rows and the second prime proves 0."""
    p = 1048583
    mat = RatMatrix([[1, 1], [1, 1 + p]])
    assert kernel_dimension(mat, "modular") == 0
    proof = certified_nullity(DenseOperator([[1, 1], [1, 1 + p]], 2))
    assert proof.rejected == (p,) and proof.prime == 1048589
    assert proof.nullity == 0 and proof.rank_mod_p == 2


def test_certified_nullity_all_primes_unlucky():
    """Every default prime divides the entry's excess, so each sees nullity
    1; three agreeing primes are no proof."""
    entry = 1 + 1048583 * 1048589 * 1048601
    for mode in ("exact", "modular"):
        with pytest.raises(PreconditionError, match="every candidate prime"):
            kernel_dimension(RatMatrix([[1, 1], [1, entry]]), mode)


def test_certified_nullity_step_cap(monkeypatch):
    """A kernel vector with 60-bit entries needs more than one lifting
    step; past the cap the proof is refused."""
    big = 2**60 + 1
    rows = [[1, 0, big], [0, 1, 3 * big], [1, 1, 4 * big]]
    assert certified_nullity(DenseOperator(rows, 3)).steps > 1
    monkeypatch.setattr(linalg, "LIFTING_STEP_CAP", 1)
    with pytest.raises(PreconditionError, match="passed 1 steps"):
        certified_nullity(DenseOperator(rows, 3))


def boundary_values(rng, count, bits):
    """Entries of at most `bits` bits, signed, a third of them next to a
    limb boundary: +-2^(21 j) + e for e in -1, 0, 1."""
    out = []
    for _ in range(count):
        if rng.random() < 1 / 3:
            j = rng.randint(0, max(0, (bits - 1) // 21))
            value = (1 << (21 * j)) + rng.choice((-1, 0, 1))
        else:
            value = rng.getrandbits(rng.randint(1, bits))
        out.append(rng.choice((-1, 1)) * value)
    return out


def test_certified_nullity_matches_object_lifting():
    """The limb residual gives the NullityProof of the object-integer
    lifting, field for field: entries of 1 to 90 bits, negative, at limb
    boundaries, with zero rows and columns, wide and tall, and a prime
    rejected as unlucky."""
    rng = random.Random(1515)
    lifted = 0
    for bits in (1, 2, 20, 21, 22, 41, 42, 43, 63, 64, 84, 90):
        for _ in range(6):
            m, n = rng.randint(1, 10), rng.randint(1, 10)
            r = rng.randint(0, min(m, n))
            left = [boundary_values(rng, r, bits) for _ in range(m)]
            right = [boundary_values(rng, n, bits) for _ in range(r)]
            rows = with_zero_lines(rng, product(left, right, n), n)
            op = DenseOperator(rows, len(rows[0]))
            proof = certified_nullity(op)
            assert proof == certified_nullity_by_objects(op), (bits, rows)
            lifted += proof.steps > 1
    assert lifted > 20
    unlucky = DenseOperator([[1, 1], [1, 1 + 1048583]], 2)
    proof = certified_nullity(unlucky)
    assert proof == certified_nullity_by_objects(unlucky) and proof.rejected == (1048583,)


class Int64Operator(DenseOperator):
    """A DenseOperator over an int64 matrix of entries below 2^21, whose
    residues are one np.remainder, whose pivot product is one int64
    product (a one-limb stack) and whose exact product is one too when Z
    is below 2^20, so that the proof's own arrays dominate what
    tracemalloc sees, and it sees few Python integers."""

    def __init__(self, A):
        super().__init__(A.tolist(), A.shape[1])
        self.small = A

    def residues(self, p):
        return np.remainder(self.small, p)

    def pivot_product(self, rows, cols):
        block = self.small[np.ix_(rows, cols)]
        return lambda x: (block @ x)[None]

    def product(self, Z):
        if np.abs(Z).max(initial=0) < 1 << 20:
            return (self.small @ Z.astype(np.int64)).astype(object)
        return super().product(Z)


def test_certified_nullity_releases_an_unlucky_prime(monkeypatch):
    """A 901 x 900 matrix of rank 900 whose last column is a combination of
    the others mod 1048583 only: the first prime is rejected after its
    lifting, and the second prime's elimination starts with nothing of
    the first left (its factors, its pivot solver and its pivot block
    would hold more than two residue arrays), so the retry peaks under
    1.6 residue arrays, the elimination's panels included."""
    import tracemalloc

    rng = np.random.default_rng(21)
    left = rng.integers(0, 10, (901, 899))
    A = np.column_stack([left, left @ rng.integers(0, 10, 899)])
    A[-1, -1] += 1048583
    op = Int64Operator(A)
    held, peaks = [], []
    eliminate = linalg.int_rank_mod

    def retried(op, p):
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return eliminate(op, p)

    monkeypatch.setattr(linalg, "int_rank_mod", retried)
    tracemalloc.start()
    try:
        proof = certified_nullity(op)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert proof.rejected == (1048583,) and proof.nullity == 0 and len(held) == 2
    assert held[1] < 0.05 * A.nbytes
    assert peaks[0] < 1.6 * A.nbytes
    monkeypatch.undo()
    assert proof == certified_nullity_by_objects(op)


def test_divide_limbs_at_limb_boundaries():
    """(v p) / p = v exactly for v at and next to every limb boundary, from
    balanced limbs and from limbs far outside [-2^20, 2^20); the quotient's
    limbs are balanced with no zero top limb.  A remainder raises."""
    p = 1048583
    values = [0, 1, -1, p, -p]
    for j in range(6):
        for e in (-1, 0, 1):
            values += [(1 << (21 * j)) + e, -(1 << (21 * j)) - e, ((1 << (21 * j)) - 1) << 20]
    v = np.array(values, dtype=object)
    want = linalg._limbs(v)
    assert (limb_value(want) == v).all()
    assert want.min() >= -(1 << 20) and want.max() < 1 << 20 and want[-1].any()
    C = linalg._limbs(v * p)
    assert (linalg._divide_limbs(C, p) == want).all()
    # the same integers with the second limb moved into the first and 3
    # borrowed from a new top limb: limbs up to 2^41 in absolute value
    shifted = np.zeros((len(C) + 1, len(v)), dtype=np.int64)
    shifted[:-1] = C
    shifted[0] += shifted[1] << 21
    shifted[1] = 0
    shifted[-1] = 3
    shifted[-2] -= 3 << 21
    assert (limb_value(shifted) == v * p).all() and np.abs(shifted).max() > 1 << 40
    assert (linalg._divide_limbs(shifted, p) == want).all()
    # a top limb of 2^41, whose quotient 2^41 // p carries out of the top
    shifted[-1] += 1 << 41
    shifted[-2] -= 1 << 62
    assert (linalg._divide_limbs(shifted, p) == want).all()
    C = linalg._limbs(v * p + 1)
    with pytest.raises(ArithmeticError):
        linalg._divide_limbs(C, p)


def test_lifting_residual_limbs_stay_bounded(monkeypatch):
    """Over a lift of more than 100 steps the residual keeps at most
    ceil((bits max|A| + bits r + 2) / 21) + 1 limbs: |B| <= r max|A|."""
    rng = random.Random(33)
    rows = [[rng.randint(-(1 << 40), 1 << 40) for _ in range(31)] for _ in range(30)]
    limbs = []
    divide = linalg._divide_limbs

    def recorded(C, p):
        out = divide(C, p)
        limbs.append(len(out))
        return out

    monkeypatch.setattr(linalg, "_divide_limbs", recorded)
    proof = certified_nullity(DenseOperator(rows, 31))
    assert proof.steps == len(limbs) > 100
    bits = max(abs(x) for row in rows for x in row).bit_length()
    assert max(limbs) <= -(-(bits + proof.rank_mod_p.bit_length() + 2) // 21) + 1


def test_int_rank_mod_leaves_its_input():
    """A list or an array is copied, never changed; an operator's fresh
    residues are eliminated in place, with the same factors."""
    rng = random.Random(44)
    p = 1048583
    rows = random_rows(rng, 30, 25, -(3 * p), 3 * p)
    array = np.array(rows, dtype=np.int64)
    kept = array.copy()
    f = int_rank_mod(array, p)
    assert (array == kept).all() and f.lu is not array
    assert int_rank_mod(rows, p).lu.tolist() == f.lu.tolist()
    assert rows == kept.tolist()
    g = int_rank_mod(DenseOperator(rows, 25), p)
    assert (g.lu == f.lu).all() and (g.perm == f.perm).all() and g.pivots == f.pivots


def gf_p_solve(A, B, p):
    """X with A X = B over GF(p), A square and invertible mod p, by
    Gauss-Jordan elimination of [A | B] in int64; oracle-side only."""
    M = np.concatenate([A % p, B % p], axis=1).astype(np.int64)
    for c in range(len(M)):
        piv = c + int(np.flatnonzero(M[c:, c])[0])
        M[[c, piv]] = M[[piv, c]]
        M[c] = M[c] * pow(int(M[c, c]), p - 2, p) % p
        column = M[:, c].copy()
        column[c] = 0
        M = (M - np.outer(column, M[c])) % p
    return M[:, len(M) :]


def test_pivot_solver_consumes_the_factors():
    """_PivotSolver keeps its pivot block in the buffer of f.lu, leaves
    f.perm and f.pivots as they were, and solves A_PP y = b (A_PP the
    pivot rows and columns of A) as an independent Gauss-Jordan solve over
    GF(p) does: seeded rank-deficient wide and tall matrices with
    dependent rows and columns early, so the pivots are not the leading
    columns and the rank and pivot columns cross PANEL_WIDTH boundaries."""
    rng = np.random.default_rng(20261020)
    for m, n, r in ((150, 260, PANEL_WIDTH + 34), (300, 230, 2 * PANEL_WIDTH + 8)):
        left = rng.integers(-9, 10, (m, r))
        right = rng.integers(-9, 10, (r, n))
        for j in rng.choice(np.arange(1, r), 12, replace=False):
            right[:, j + 1 :] = right[:, j:-1].copy()
            right[:, j] = 3 * right[:, j - 1]
            left[j] = -2 * left[j - 1]
        A = left @ right
        for p in (1048583, LARGEST_PRIME):
            f = int_rank_mod(A, p)
            perm, pivots = f.perm.copy(), f.pivots
            assert f.rank == r and pivots[-1] == r - 1 + 12
            block = A[perm[:r]][:, list(pivots)]
            solve = linalg._PivotSolver(f)
            assert np.shares_memory(solve.T, f.lu)
            assert (f.perm == perm).all() and f.pivots == pivots
            b = rng.integers(0, p, (r, 3))
            assert (solve(b) == gf_p_solve(block, b, p)).all()
            assert (solve(b[:, 0]) == gf_p_solve(block, b[:, :1], p)[:, 0]).all()
