"""Cone decompositions attached to a grading.

Effective and moving cones of a graded polynomial ring, semistable
supports (the inclusion-minimal degree subsets whose cone contains a
class), the chamber containing a given class, full enumeration of
full-dimensional chambers by a walk across their facets, and the
two-condition test for a graded polynomial ring being a Cox ring.

By Caratheodory a minimal support is an independent set of degrees; it
extends to a basis of their span taken from the degrees, in which the
class has nonnegative coordinates, positive exactly on the support.  So
one table of bases with their integer adjugates, built once per walk,
gives every class's supports, with no cone converted.  The chamber is
one conversion of the supports' facets: a free_rank support's are the
rows of its adjugate, and only a smaller one (the class on a wall)
converts its cone, through `_subset_cone`, as do the effective and
drop-one cones.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import PreconditionError
from .linalg import (
    IntMatrix,
    _adjugate,
    _clear_denominators,
    dot,
    primitive,
    smith_normal_form,
)
from .polyhedra import Cone, dd_convert, intersect, zero_cone

DEFINING_SUBSETS_CAP = 10**4
CHAMBER_CAP = 10**3
SUPPORT_SUBSETS_CAP = 4096


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
    (reduced modulo the invariant factor, which must be at least 1).
    """

    free_rank: int
    torsion: tuple
    degrees: tuple

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple(int(t) for t in self.torsion))
        if any(t < 1 for t in self.torsion):
            raise ValueError("torsion orders must be at least 1")
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
    union of their facets.  The supports are read off one table of bases
    of the degrees (`_bases`); a support of free_rank degrees is a base,
    and its simplicial cone's facets are the rows of its adjugate there.
    Only a smaller support (w on a wall) takes its cone from
    `_subset_cone`.
    """
    return _chamber(spec, _bases(spec), w)


def _chamber(spec: GradingSpec, table, w) -> Chamber:
    """`mori_chamber` from a table of `_bases`, built once per walk by
    `enumerate_chambers`."""
    found = _minimal_supports(spec, table, w)
    facets = set()
    for m, rows in found:
        if len(m) == spec.free_rank:
            facets.update(primitive(row) for row in rows)
        else:
            facets.update(_subset_cone(spec, frozenset(m)).facets)
    cone = dd_convert(facets=sorted(facets), ambient_dim=spec.free_rank)
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
    """All full-dimensional chambers, sorted by their facets.

    A walk (the GIT-fan algorithm of Keicher, IJAC 2012) from the chamber
    of a class inside Eff across each facet off Eff's boundary whose
    (inward normal, rays) the chamber beyond has not recorded, so the
    chamber of a class (`mori_chamber`, from one table of `_bases` for the
    whole walk) is found once per chamber.  Hadamard bounds the entries of
    a wall normal by N = (isqrt(max |degree|^2) + 1)^(k-1).  So D q - f,
    q the sum of a facet's rays, f its inward normal, D = k N max|f| + 1,
    is inside the neighbour; and with B = 2N + 1, D0 = k N B^(k-1) + 1,
    the class D0 x + (1, B, ..., B^(k-1)) whose chamber is found for an
    integer x inside a chamber or Eff is inside it too and on no wall.
    Past CHAMBER_CAP chambers it raises PreconditionError.
    """
    k = spec.free_rank
    eff = effective_cone(spec)
    if eff.dim() < k:
        return []
    n = (math.isqrt(max(dot(d[:k], d[:k]) for d in spec.degrees)) + 1) ** max(k - 1, 0)
    b = 2 * n + 1
    d0 = k * n * b ** max(k - 1, 0) + 1
    table, found, recorded, todo = _bases(spec), [], set(), []

    def cross(x):
        if len(found) == CHAMBER_CAP:
            raise PreconditionError(f"more than {CHAMBER_CAP} chambers")
        chamber = _chamber(spec, table, tuple(d0 * a + b**i for i, a in enumerate(x)))
        cone = chamber.cone
        sides = [(f, tuple(g for g in cone.generators if dot(f, g) == 0)) for f in cone.facets]
        found.append(chamber)
        recorded.update(sides)
        todo.extend(sides)

    cross(eff.relative_interior_point())
    while todo:
        f, rays = todo.pop()
        if f in eff.facets or (tuple(-x for x in f), rays) in recorded:
            continue
        d = k * n * max(map(abs, f)) + 1
        cross([d * sum(g[i] for g in rays) - f[i] for i in range(k)])
    return sorted(found, key=lambda c: c.cone.facets)


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


def _bases(spec: GradingSpec):
    """The bases of the degrees' span taken from the nonzero degrees, as
    (m, A, d): the degrees s_i, i in m, are independent and span what all
    degrees span, and A v = d lambda, d > 0, for v = sum lambda_i s_i.
    With S the k x j matrix of the s_i as columns: for j = k = free_rank,
    A = sign(det S) adj S and d = |det S|, so row i of A is the inward
    normal of the facet of cone(S) opposite s_i; for j < k, A = adj(S^T S)
    S^T and d = det S^T S.  Sizes go down from free_rank, a smaller one
    only when no set of the larger is independent; each raises
    PreconditionError before its first adjugate when it has more than
    SUPPORT_SUBSETS_CAP sets to try."""
    k = spec.free_rank
    nonzero = [i for i in range(spec.r) if any(spec.free_part(i))]  # 0 is in no independent set
    for j in range(min(k, len(nonzero)), 0, -1):
        count = math.comb(len(nonzero), j)
        if count > SUPPORT_SUBSETS_CAP:
            raise PreconditionError(
                f"{count} sets of degrees to try, more than {SUPPORT_SUBSETS_CAP}"
            )
        table = []
        for m in itertools.combinations(nonzero, j):
            s = [spec.free_part(i) for i in m]
            d, adj = _adjugate(list(zip(*s)) if j == k else [[dot(x, y) for y in s] for x in s])
            if d:
                a = adj if j == k else [[dot(row, col) for col in zip(*s)] for row in adj]
                table.append((m, a if d > 0 else [[-x for x in row] for row in a], abs(d)))
        if table:
            return table
    return []


def _minimal_supports(spec: GradingSpec, table, w):
    """The minimal supports m of w in `semistable_supports` order, as
    (m, A), A the rows of a base of `table` (`_bases`) holding m, m's own
    when it has free_rank degrees.  Raises NotEffective when there is none.

    Once S A v = d v on one base puts w in the degrees' span, each base
    with A v >= 0 gives the minimal support where A v > 0, and each
    minimal support arises so: within the degrees it extends to a base,
    in whose coordinates w is positive on it and zero elsewhere."""
    w = tuple(Fraction(x) for x in w)
    if len(w) != spec.free_rank:
        raise PreconditionError("class vector has wrong length")
    v = _clear_denominators(w)  # a positive multiple: the same supports
    if not any(v):
        return [((), ())]  # every set holds the empty one
    found = {}
    m, rows, d = table[0] if table else ((), (), 1)  # no base: no support
    lam = [dot(row, v) for row in rows]
    if all(dot(lam, col) == d * y for col, y in zip(zip(*(spec.free_part(i) for i in m)), v)):
        for m, rows, _ in table:
            lam = [dot(row, v) for row in rows]
            if min(lam) >= 0:
                found[tuple(i for i, x in zip(m, lam) if x)] = rows
    if not found:
        raise NotEffective(f"class {w} is not effective")
    return sorted(found.items(), key=lambda s: (len(s[0]), s[0]))


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
    subset holds w.  So the supports are read off the table of `_bases`,
    exactly in integers: the positive coordinates of w in each base in
    which none is negative (for a base of free_rank degrees, the signs of
    adj(S) w against det S), once w is in the degrees' span.
    The sets are sorted by size and then lexicographically.  w is
    effective exactly when it has a minimal support; otherwise
    NotEffective is raised.
    """
    return [m for m, _ in _minimal_supports(spec, _bases(spec), w)]
