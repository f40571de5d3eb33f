"""Cone decompositions attached to a grading.

Effective and moving cones of a graded polynomial ring, semistable
support families (the inclusion-minimal degree subsets whose cone contains
a class; by Caratheodory each has at most free_rank elements), the chamber
containing a given class (the intersection of the cones of its minimal
supports), full enumeration of full-dimensional chambers via the
hyperplane arrangement spanned by the degrees, and the two-condition test
for a graded polynomial ring being a Cox ring.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

from .errors import PreconditionError
from .linalg import IntMatrix, dot, primitive, smith_normal_form
from .polyhedra import Cone, dd_convert, intersect, zero_cone


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
    family: frozenset  # the index sets I with the class in C_I

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
    out = None
    for i in range(spec.r):
        ci = _subset_cone(spec, frozenset(range(spec.r)) - {i})
        out = ci if out is None else intersect(out, ci)
    return out


def _as_fraction_vec(w, k):
    w = tuple(Fraction(x) for x in w)
    if len(w) != k:
        raise PreconditionError("class vector has wrong length")
    return w


def mori_chamber(spec: GradingSpec, w) -> Chamber:
    """The chamber containing w: intersection of subset cones containing w.

    Every subset I with w in C_I contains a minimal support J of w, and
    C_J lies in C_I, so the chamber is the intersection of the cones of the
    minimal supports (`semistable_supports`) and its family is their
    upward closure.
    """
    minimal = [frozenset(m) for m in semistable_supports(spec, w)]
    cone = reduce(intersect, (_subset_cone(spec, m) for m in minimal))
    family = frozenset(
        frozenset(s)
        for size in range(spec.r + 1)
        for s in itertools.combinations(range(spec.r), size)
        if any(m.issubset(s) for m in minimal)
    )
    return Chamber(cone=cone, family=family)


def enumerate_chambers(spec: GradingSpec):
    """All full-dimensional chambers, each tagged by an interior class.

    Cuts the effective cone by every hyperplane spanned by degree subsets,
    then identifies the chamber of one interior point per cell.  Requires
    free rank at most 3.
    """
    k = spec.free_rank
    if k > 3:
        raise RankTooLarge("chamber enumeration capped at free rank 3")
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
        w = cell.relative_interior_point()
        ch = mori_chamber(spec, w)
        if not ch.full_dimensional:
            continue
        key = ch.cone.facets
        chambers.setdefault(key, ch)
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
    pairwise intersection is full-dimensional.  Witnesses are 0-based
    variable indices.
    """
    r = spec.r
    k = spec.free_rank
    for i in range(r):
        if not _generates_group(spec, [j for j in range(r) if j != i]):
            return CoxGradingVerdict(False, 1, (i,))
    drop = [
        _subset_cone(spec, frozenset(range(r)) - {i}) for i in range(r)
    ]
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
    w = _as_fraction_vec(w, spec.free_rank)
    if not effective_cone(spec).contains(w):
        raise NotEffective(f"class {w} is not effective")
    minimal = []
    # a minimal support is linearly independent (Caratheodory): size <= free_rank
    for size in range(min(spec.r, spec.free_rank) + 1):
        for subset in itertools.combinations(range(spec.r), size):
            s = set(subset)
            if any(set(m) <= s for m in minimal):
                continue
            if _subset_cone(spec, frozenset(subset)).contains(w):
                minimal.append(tuple(subset))
    return sorted(minimal, key=lambda t: (len(t), t))
