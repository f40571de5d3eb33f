"""Cone decompositions attached to a grading.

Effective and moving cones of a graded polynomial ring, semistable
supports (the inclusion-minimal degree subsets whose cone contains a
class), the chamber containing a given class, full enumeration of
full-dimensional chambers via the hyperplane arrangement spanned by the
degrees, and the two-condition test for a graded polynomial ring being a
Cox ring.

By Caratheodory a minimal support is a linearly independent set of at
most free_rank degrees, so it spans a simplex, and one integer adjugate
decides it: the class must have positive coordinates in it.  No cone is
converted for the supports.  The chamber is one conversion of the facets
of the supports' cones; those of a free_rank support are the rows of its
adjugate, and only a smaller support (the class on a wall) converts its
cone, through `_subset_cone`, as do the effective and drop-one cones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import PreconditionError
from .linalg import IntMatrix, dot, integer_kernel_saturated, primitive, smith_normal_form
from .polyhedra import Cone, _clear_denominators, dd_convert, intersect, zero_cone

DEFINING_SUBSETS_CAP = 10**4


class TooFewGenerators(PreconditionError):
    pass


class NotEffective(PreconditionError):
    pass


class RankTooLarge(PreconditionError):
    pass


@dataclass(frozen=True)
class GradingSpec:
    """Degrees of r variables in Z^free_rank + sum Z/torsion_i.

    Degree vectors list free coordinates first, then torsion coordinates
    (reduced modulo the invariant factor).
    """

    free_rank: int
    torsion: tuple
    degrees: tuple

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple(int(t) for t in self.torsion))
        degs = []
        for w in self.degrees:
            w = tuple(int(x) for x in w)
            if len(w) != self.free_rank + len(self.torsion):
                raise ValueError("degree vector has wrong length")
            w = w[: self.free_rank] + tuple(
                x % t for x, t in zip(w[self.free_rank :], self.torsion)
            )
            degs.append(w)
        if not degs:
            raise ValueError("need at least one degree")
        object.__setattr__(self, "degrees", tuple(degs))

    @classmethod
    def from_class_group(cls, cg):
        return cls(free_rank=cg.rank, torsion=tuple(cg.torsion), degrees=tuple(cg.degrees))

    @classmethod
    def from_columns(cls, matrix_columns, torsion=()):
        """Degrees given as columns of a matrix (free part only)."""
        return cls(
            free_rank=len(matrix_columns[0]),
            torsion=tuple(torsion),
            degrees=tuple(tuple(c) for c in matrix_columns),
        )

    @property
    def r(self):
        return len(self.degrees)

    def free_part(self, i):
        return self.degrees[i][: self.free_rank]


@dataclass(frozen=True)
class Chamber:
    """A chamber: the intersection of all subset cones containing a class."""

    cone: Cone
    supports: tuple  # the minimal supports of the class (`semistable_supports`)

    @property
    def full_dimensional(self):
        return self.cone.dim() == self.cone.ambient_dim


@lru_cache(maxsize=4096)
def _subset_cone(spec: GradingSpec, subset: frozenset) -> Cone:
    gens = [spec.free_part(i) for i in sorted(subset)]
    gens = [g for g in gens if any(g)]
    if not gens:
        return zero_cone(spec.free_rank)
    return dd_convert(generators=gens, ambient_dim=spec.free_rank)


def effective_cone(spec: GradingSpec) -> Cone:
    """Cone spanned by all degrees (in the free part)."""
    return _subset_cone(spec, frozenset(range(spec.r)))


def moving_cone(spec: GradingSpec) -> Cone:
    """Intersection of the r cones that drop one generator each."""
    if spec.r < 2:
        raise TooFewGenerators("moving cone needs at least two generators")
    everything = frozenset(range(spec.r))
    return intersect(*(_subset_cone(spec, everything - {i}) for i in range(spec.r)))


def mori_chamber(spec: GradingSpec, w) -> Chamber:
    """The chamber containing w: intersection of subset cones containing w.

    Every subset I with w in C_I contains a minimal support J of w, and
    C_J lies in C_I, so the chamber is the intersection of the cones of the
    minimal supports (`semistable_supports`), and the sets I are their
    upward closure (`defining_subsets`).  It is one conversion of the
    union of their facets.  A support of free_rank degrees spans a
    simplicial cone whose facets are the rows of its adjugate, which
    `_minimal_supports` has already computed; only a smaller support (w on
    a wall) takes its cone from `_subset_cone`.
    """
    k = spec.free_rank
    found = _minimal_supports(spec, w)
    facets = set()
    for m, rows in found:
        if len(m) == k:
            facets.update(primitive(row) for row in rows)
        else:
            facets.update(_subset_cone(spec, frozenset(m)).facets)
    cone = dd_convert(facets=sorted(facets), ambient_dim=k)
    return Chamber(cone=cone, supports=tuple(m for m, _ in found))


def defining_subsets(supports, r):
    """The index sets of range(r) containing one of `supports` (for a
    chamber's supports: every I with the class in C_I), by size and then
    lexicographically.  Grown one added index at a time, at most r set
    unions per set found; past DEFINING_SUBSETS_CAP sets it raises
    PreconditionError.
    """
    found = {frozenset(m) for m in supports}
    todo = list(found)
    while todo:
        s = todo.pop()
        for t in (s | {i} for i in range(r)):
            if t not in found:
                found.add(t)
                todo.append(t)
        if len(found) > DEFINING_SUBSETS_CAP:
            raise PreconditionError(f"more than {DEFINING_SUBSETS_CAP} defining subsets")
    return sorted((sorted(s) for s in found), key=lambda s: (len(s), s))


def enumerate_chambers(spec: GradingSpec):
    """All full-dimensional chambers, each tagged by an interior class.

    Cuts the effective cone by every hyperplane spanned by free_rank - 1
    degrees (at free rank 1 the point 0), then identifies the chamber of
    one interior point per cell.  Requires free rank at most 3.
    """
    k = spec.free_rank
    if k > 3:
        raise RankTooLarge("chamber enumeration capped at free rank 3")
    eff = effective_cone(spec)
    if eff.dim() < k:
        return []
    directions = {primitive(spec.free_part(i)) for i in range(spec.r)} - {(0,) * k}
    normals = set()
    for span in itertools.combinations(sorted(directions), max(k - 1, 0)):
        kernel = integer_kernel_saturated(IntMatrix(list(span), cols=k))
        if kernel.rows == 1:  # a hyperplane; Hermite form: leading entry > 0
            normals.add(tuple(kernel.row(0)))
    cells = [eff]
    for n in sorted(normals):
        nxt = []
        for cell in cells:
            values = [dot(n, g) for g in cell.generators]
            if min(values) < 0 < max(values):
                # n = 0 meets the interior, so both halves are full-dimensional
                for m in (n, tuple(-x for x in n)):
                    nxt.append(dd_convert(facets=cell.facets + (m,), ambient_dim=k))
            else:
                nxt.append(cell)
        cells = nxt
    chambers = {}
    for cell in cells:
        # a cell's interior meets no wall: a found chamber holding p holds it
        p = cell.relative_interior_point()
        if any(c.cone.contains(p) for c in chambers.values()):
            continue
        ch = mori_chamber(spec, p)
        if ch.full_dimensional:
            chambers.setdefault(ch.cone.facets, ch)
    return [chambers[key] for key in sorted(chambers)]


@dataclass(frozen=True)
class CoxGradingVerdict:
    is_cox: bool
    failed_condition: int | None
    witness: tuple | None

    def __bool__(self):
        return self.is_cox


def _generates_group(spec: GradingSpec, indices) -> bool:
    """Do the degrees at `indices` generate the whole grading group?"""
    k, t = spec.free_rank, len(spec.torsion)
    cols = [list(spec.degrees[i]) for i in indices]
    for j, tor in enumerate(spec.torsion):
        cols.append([0] * (k + j) + [tor] + [0] * (t - j - 1))
    if not cols:
        return k + t == 0
    m = IntMatrix(cols, cols=k + t).transpose()
    snf = smith_normal_form(m)
    return snf.rank == k + t and set(snf.invariant_factors) <= {1}


def is_cox_grading(spec: GradingSpec) -> CoxGradingVerdict:
    """Two-condition test for a graded polynomial ring being a Cox ring.

    Condition 1: every r-1 of the degrees generate the grading group
    (torsion included, via Smith-form subgroup equality).  Condition 2:
    the interiors of every two drop-one cones meet; equivalently each
    pairwise intersection is full-dimensional.  The intersection of all
    drop-one cones (the moving cone) lies in each pairwise one, so when it
    is full-dimensional every pair passes; only otherwise are the pairs
    intersected one by one, to name the first that fails.  Witnesses are
    0-based variable indices.
    """
    r = spec.r
    k = spec.free_rank
    for i in range(r):
        if not _generates_group(spec, [j for j in range(r) if j != i]):
            return CoxGradingVerdict(False, 1, (i,))
    drop = [
        _subset_cone(spec, frozenset(range(r)) - {i}) for i in range(r)
    ]
    if intersect(*drop).dim() == k:
        return CoxGradingVerdict(True, None, None)
    for i in range(r):
        for j in range(i, r):
            if intersect(drop[i], drop[j]).dim() < k:
                return CoxGradingVerdict(False, 2, (i, j))
    return CoxGradingVerdict(True, None, None)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _adjugate(rows):
    """(det A, adj A) of the square integer matrix A with these rows, or
    (0, None) when A is singular.  At free ranks 2 and 3, the frequent
    ones, it is a closed form: for rows r1, r2, r3 the columns of adj A are
    r2 x r3, r3 x r1 and r1 x r2.  Otherwise fraction-free Gauss-Jordan
    elimination of [A | I] (Bareiss): after step k every entry is a minor
    of order k + 1, so each division by the previous pivot is exact, and
    at the end the left block is d I and the right block d A^-1 = adj A,
    with d the determinant of A with its rows swapped as the pivots were
    found."""
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


def _coordinates(gens, k, v):
    """(A, A v) when the vectors `gens` = s_1..s_j of Z^k, j <= k, are
    linearly independent and v lies in their span, else None.  A is the
    j x k integer matrix with A v = d lambda for v = sum lambda_i s_i and
    some d > 0.  With S the k x j matrix whose columns are the s_i: for
    j = k, A = sign(det S) adj S and d = |det S|, so the rows of A are
    inward normals of the facets of the simplicial cone over the s_i (row
    i vanishes on every s_l but s_i); for j < k, A = adj(S^T S) S^T and
    d = det S^T S, and v must satisfy S A v = d v."""
    if len(gens) == k:
        d, adj = _adjugate(list(zip(*gens)))
        if not d:
            return None
        rows = adj if d > 0 else [[-x for x in row] for row in adj]
        return rows, [dot(row, v) for row in rows]
    d, adj = _adjugate([[dot(s, t) for t in gens] for s in gens])
    if not d:
        return None
    rows = [[dot(row, col) for col in zip(*gens)] for row in adj]
    lam = [dot(row, v) for row in rows]
    return (rows, lam) if all(dot(c, lam) == d * x for c, x in zip(zip(*gens), v)) else None


def _minimal_supports(spec: GradingSpec, w):
    """The minimal supports m of w, each with the rows A of `_coordinates`
    of its degrees, as (m, A) in `semistable_supports` order.  Raises NotEffective when there is none.

    The sets of free_rank degrees are tried first.  A smaller support of
    w != 0 extends to free_rank independent degrees, in whose coordinates
    w has a zero, so smaller sets are tried only after such a zero, or
    when no free_rank degrees are independent."""
    w = tuple(Fraction(x) for x in w)
    k = spec.free_rank
    if len(w) != k:
        raise PreconditionError("class vector has wrong length")
    v = _clear_denominators(w)  # a positive multiple: the same supports
    if not any(v):
        return [((), [])]  # every set holds the empty one
    degrees = [spec.free_part(i) for i in range(spec.r)]
    nonzero = [i for i, s in enumerate(degrees) if any(s)]  # 0 is in no independent set

    def spanning(size):
        for m in itertools.combinations(nonzero, size):
            got = _coordinates([degrees[i] for i in m], k, v)
            if got is not None:
                yield m, *got

    full = list(spanning(k))
    found = [(m, rows) for m, rows, lam in full if min(lam) > 0]
    if not full or any(0 in lam for *_, lam in full):
        smaller = [(m, rows) for j in range(1, k) for m, rows, lam in spanning(j) if min(lam) > 0]
        found = smaller + found
    if not found:
        raise NotEffective(f"class {w} is not effective")
    return found


def semistable_supports(spec: GradingSpec, w):
    """Inclusion-minimal index sets I with w in cone(degrees at I).

    A point of the total coordinate space is semistable for w exactly when
    its support contains one of these sets; the family is constant on
    chamber interiors.  The chamber of w is the intersection of their
    cones (`mori_chamber`).

    No cone is converted.  By Caratheodory, w in cone(S) lies in the cone
    of a linearly independent subset of S, so a minimal support S is
    independent, hence has at most free_rank elements, and w = sum
    lambda_i s_i with every lambda_i > 0 (a zero coefficient would leave
    a smaller support).  Conversely, an independent S with w in its span
    and every lambda_i > 0 is minimal: lambda is unique, so no proper
    subset holds w.  The test is exact in integers with the adjugate of
    `_coordinates`: for |S| = free_rank, the signs of adj(S) w against
    det S; below it, adj(S^T S) S^T w > 0 and w in span(S).
    The sets are sorted by size and then lexicographically.  w is
    effective exactly when it has a minimal support; otherwise
    NotEffective is raised.
    """
    return [m for m, _ in _minimal_supports(spec, w)]
