"""Cone decompositions attached to a grading.

Effective and moving cones of a graded polynomial ring, semistable
supports (the inclusion-minimal degree subsets whose cone contains a
class; by Caratheodory each has at most free_rank elements), the chamber
containing a given class (one conversion of the facets of its minimal
supports' cones), full enumeration of full-dimensional chambers via the
hyperplane arrangement spanned by the degrees, and the two-condition test
for a graded polynomial ring being a Cox ring.
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
    upward closure (`defining_subsets`).
    """
    supports = tuple(semistable_supports(spec, w))
    cone = intersect(*(_subset_cone(spec, frozenset(m)) for m in supports))
    return Chamber(cone=cone, supports=supports)


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


def semistable_supports(spec: GradingSpec, w):
    """Inclusion-minimal index sets I with w in cone(degrees at I).

    A point of the total coordinate space is semistable for w exactly when
    its support contains one of these sets; the family is constant on
    chamber interiors.  The chamber of w is the intersection of their
    cones (`mori_chamber`), and each set has at most free_rank elements.
    """
    w = tuple(Fraction(x) for x in w)
    if len(w) != spec.free_rank:
        raise PreconditionError("class vector has wrong length")
    v = _clear_denominators(w)  # a positive multiple: the same cones contain it
    if not effective_cone(spec).contains(v):
        raise NotEffective(f"class {w} is not effective")
    minimal = []
    # a minimal support is linearly independent (Caratheodory): size <= free_rank
    for size in range(min(spec.r, spec.free_rank) + 1):
        for subset in itertools.combinations(range(spec.r), size):
            s = set(subset)
            if any(set(m) <= s for m in minimal):
                continue
            if _subset_cone(spec, frozenset(subset)).contains(v):
                minimal.append(tuple(subset))
    return sorted(minimal, key=lambda t: (len(t), t))
