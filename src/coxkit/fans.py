"""Fans as combinatorial toric varieties.

A fan stores primitive ray generators and maximal cones as ray-index
sets; faces are derived on demand.  Includes validation, the
complete/simplicial/smooth predicates, normal fans of full-dimensional
lattice polytopes with their ample divisor, the standard constructors
(projective space, Hirzebruch surfaces, weighted projective spaces), and
unimodular equivalence testing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction

from .errors import PreconditionError
from .linalg import (
    IntMatrix,
    det,
    dot,
    hermite_normal_form,
    integer_kernel_saturated,
    rational_solve,
    smith_normal_form,
    vec_gcd,
)
from .polyhedra import Cone, Polytope, dd_convert, intersect, zero_cone


class InvalidFan(PreconditionError):
    pass


class NotFullDimensional(PreconditionError):
    pass


class NonLatticeVertex(PreconditionError):
    pass


class BadWeights(PreconditionError):
    pass


@dataclass(frozen=True)
class Fan:
    """Rays (primitive integer vectors) plus maximal cones as index sets."""

    lattice_dim: int
    rays: tuple
    max_cones: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "rays", tuple(tuple(int(x) for x in r) for r in self.rays)
        )
        object.__setattr__(
            self,
            "max_cones",
            tuple(tuple(sorted(int(i) for i in c)) for c in self.max_cones),
        )

    def cone(self, indices) -> Cone:
        indices = tuple(sorted(indices))
        if not indices:
            return zero_cone(self.lattice_dim)
        return dd_convert(
            generators=[self.rays[i] for i in indices], ambient_dim=self.lattice_dim
        )

    def max_cone_objects(self):
        return [self.cone(c) for c in self.max_cones]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple

    def __bool__(self):
        return self.ok


def _is_face_of(face: Cone, cone: Cone) -> bool:
    """Is `face` a face of `cone`?  Both must already satisfy face ⊆ cone."""
    tight = [
        f
        for f in cone.facets
        if all(dot(f, g) == 0 for g in face.generators)
    ]
    sub_gens = [
        g for g in cone.generators if all(dot(f, g) == 0 for f in tight)
    ]
    if not face.generators:
        return not sub_gens
    if not sub_gens:
        return False
    sub = dd_convert(generators=sub_gens, ambient_dim=cone.ambient_dim)
    return sub == face


def validate_fan(fan: Fan) -> ValidationReport:
    """Check the fan axioms; names the offending cone pair on failure."""
    v = []
    seen = set()
    for i, r in enumerate(fan.rays):
        if not any(r):
            v.append(f"ray {i} is zero")
        elif vec_gcd(r) != 1:
            v.append(f"ray {i} = {r} is not primitive")
        if r in seen:
            v.append(f"ray {i} = {r} is a duplicate")
        seen.add(r)
        if len(r) != fan.lattice_dim:
            v.append(f"ray {i} has wrong dimension")
    if v:
        return ValidationReport(False, tuple(v))

    used = set()
    cones = []
    for ci, idx in enumerate(fan.max_cones):
        if any(i < 0 or i >= len(fan.rays) for i in idx):
            v.append(f"max cone {ci} has an out-of-range ray index")
            continue
        used.update(idx)
        cone = fan.cone(idx)
        cones.append((ci, idx, cone))
        if not cone.is_pointed():
            v.append(f"max cone {ci} = {idx} is not strictly convex")
        gens = set(cone.generators)
        listed = {fan.rays[i] for i in idx}
        if gens != listed:
            v.append(
                f"max cone {ci} = {idx}: listed rays are not its extreme rays"
            )
    missing = set(range(len(fan.rays))) - used
    for i in sorted(missing):
        v.append(f"ray {i} is not used by any maximal cone")
    if v:
        return ValidationReport(False, tuple(v))

    for (ci, idx_i, cone_i), (cj, idx_j, cone_j) in itertools.combinations(cones, 2):
        if set(idx_i) == set(idx_j):
            v.append(f"max cones {ci} and {cj} coincide")
            continue
        inter = intersect(cone_i, cone_j)
        if not _is_face_of(inter, cone_i) or not _is_face_of(inter, cone_j):
            v.append(
                f"intersection of max cones {ci} and {cj} is not a common face"
            )
    return ValidationReport(not v, tuple(v))


@dataclass(frozen=True)
class FanPredicates:
    complete: bool
    simplicial: bool
    smooth: bool


@lru_cache(maxsize=1024)
def fan_predicates(fan: Fan) -> FanPredicates:
    """Complete / simplicial / smooth, for a validated fan.

    Cached per fan (fans are frozen and hashable); an invalid fan raises
    InvalidFan on every call, since exceptions are never cached.
    """
    report = validate_fan(fan)
    if not report.ok:
        raise InvalidFan("; ".join(report.violations))
    d = fan.lattice_dim
    cones = fan.max_cone_objects()

    simplicial = True
    smooth = True
    for idx, cone in zip(fan.max_cones, cones):
        mat = IntMatrix([fan.rays[i] for i in idx], cols=d)
        snf = smith_normal_form(mat)
        if len(idx) != snf.rank:
            simplicial = False
            smooth = False
            continue
        if set(snf.invariant_factors) - {1}:
            smooth = False

    complete = bool(cones) and all(c.is_full_dimensional() for c in cones)
    if complete:
        # every facet of every maximal cone must be shared with exactly one
        # other maximal cone; a closed support without boundary is all of N_Q
        gen_sets = [set(c.generators) for c in cones]
        for k, cone in enumerate(cones):
            for f in cone.facets:
                wall = {g for g in cone.generators if dot(f, g) == 0}
                others = [
                    j
                    for j in range(len(cones))
                    if j != k and wall <= gen_sets[j]
                ]
                if len(others) != 1:
                    complete = False
                    break
            if not complete:
                break
    return FanPredicates(complete=complete, simplicial=simplicial, smooth=smooth)


def normal_fan(poly: Polytope) -> Fan:
    """Normal fan of a full-dimensional polytope with rational vertices.

    Rays are the primitive inward facet normals; maximal cones are the
    normal cones at the vertices.
    """
    d = poly.ambient_dim
    if poly.dim() != d:
        raise NotFullDimensional("polytope must be full-dimensional")
    ineqs = poly.inequalities()
    rays = [u for u, c in ineqs]
    max_cones = []
    for v in poly.vertices:
        tight = [
            i
            for i, (u, c) in enumerate(ineqs)
            if sum(Fraction(ui) * xi for ui, xi in zip(u, v)) + c == 0
        ]
        max_cones.append(tuple(sorted(tight)))
    return Fan(d, tuple(rays), tuple(max_cones))


def normal_fan_with_ample(poly: Polytope):
    """Normal fan of a full-dimensional lattice polytope and its ample divisor.

    The divisor coefficient on the facet with inward normal v_F is
    -min over the polytope of <., v_F>, so the divisor polytope of the
    result reproduces the input.
    """
    if not poly.is_lattice():
        raise NonLatticeVertex("polytope vertices must be integral")
    fan = normal_fan(poly)
    coeffs = tuple(c for u, c in poly.inequalities())
    return fan, coeffs


def projective_space_fan(n: int) -> Fan:
    """Fan of P^n: the n+1 standard rays, maximal cones drop one ray each."""
    if n < 1:
        raise PreconditionError("projective space needs n >= 1")
    rays = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    rays.append(tuple([-1] * n))
    max_cones = [
        tuple(sorted(set(range(n + 1)) - {i})) for i in range(n + 1)
    ]
    return Fan(n, tuple(rays), tuple(max_cones))


def hirzebruch_fan(n: int) -> Fan:
    """Fan of the Hirzebruch surface F_n.

    Ray order (1,0), (-1,n), (0,-1), (0,1) is chosen so the induced Cox
    grading reproduces the standard degree matrix [[1,1,n,0],[0,0,1,1]]
    up to a basis change of the class group.
    """
    if n < 0:
        raise PreconditionError("hirzebruch parameter must be >= 0")
    rays = ((1, 0), (-1, n), (0, -1), (0, 1))
    max_cones = ((0, 3), (1, 3), (1, 2), (0, 2))
    return Fan(2, rays, max_cones)


def weighted_projective_fan(*weights) -> Fan:
    """Fan of P(a_0, ..., a_n) for well-formed weights.

    Requires every n of the n+1 positive weights to be coprime.  Rays are
    the columns of the Hermite-normal-form basis of the kernel of the
    weight vector, which makes the construction canonical; they are
    primitive and satisfy sum a_i v_i = 0.
    """
    a = [int(w) for w in weights]
    if len(a) < 2 or any(w <= 0 for w in a):
        raise BadWeights("need at least two positive weights")
    import math

    for i in range(len(a)):
        g = 0
        for j, w in enumerate(a):
            if j != i:
                g = math.gcd(g, w)
        if g != 1:
            raise BadWeights(
                f"weights dropping index {i} have gcd {g}; any n must be coprime"
            )
    n = len(a) - 1
    kernel = integer_kernel_saturated(IntMatrix([a]))
    basis, _ = hermite_normal_form(kernel)
    rays = [basis.col(j) for j in range(n + 1)]
    for j, r in enumerate(rays):
        if vec_gcd(r) != 1:
            raise BadWeights(f"weights are not well-formed: ray {j} = {r}")
    assert all(
        sum(ai * ri[k] for ai, ri in zip(a, rays)) == 0 for k in range(n)
    )
    max_cones = [tuple(sorted(set(range(n + 1)) - {i})) for i in range(n + 1)]
    return Fan(n, tuple(rays), tuple(max_cones))


def standard_fan(kind: str, *params) -> Fan:
    """Dispatcher: projective_space(n) | hirzebruch(n) | weighted_projective(a...)."""
    if kind == "projective_space":
        return projective_space_fan(*params)
    if kind == "hirzebruch":
        return hirzebruch_fan(*params)
    if kind == "weighted_projective":
        return weighted_projective_fan(*params)
    raise ValueError(f"unknown standard fan kind {kind!r}")


def fans_unimodular_equivalent(f1: Fan, f2: Fan):
    """Lattice isomorphism mapping one fan onto the other, or None.

    Searches assignments of a spanning ray subset of f1 to rays of f2 and
    checks that the induced integral map with determinant +-1 matches ray
    multisets and the maximal cone structure.  Desk scale: few rays only.
    """
    if f1.lattice_dim != f2.lattice_dim or len(f1.rays) != len(f2.rays):
        return None
    if len(f1.max_cones) != len(f2.max_cones):
        return None
    d = f1.lattice_dim
    # first d linearly independent rays of f1
    base = []
    for i, r in enumerate(f1.rays):
        trial = base + [i]
        m = IntMatrix([f1.rays[j] for j in trial], cols=d)
        if smith_normal_form(m).rank == len(trial):
            base = trial
        if len(base) == d:
            break
    if len(base) < d:
        return None
    S = IntMatrix([f1.rays[i] for i in base], cols=d)
    ray_set2 = set(f2.rays)
    cone_family2 = {frozenset(f2.rays[i] for i in c) for c in f2.max_cones}
    for targets in itertools.permutations(range(len(f2.rays)), d):
        tmat = IntMatrix([f2.rays[i] for i in targets], cols=d)
        # T s_k = t_k for the base rays: row j of T solves S x = (t_k[j])_k
        t_rows = []
        ok = True
        for j in range(d):
            x = rational_solve(S, tmat.col(j))
            if x is None or any(Fraction(v).denominator != 1 for v in x):
                ok = False
                break
            t_rows.append([int(v) for v in x])
        if not ok:
            continue
        T = IntMatrix(t_rows, cols=d)
        if abs(det(T)) != 1:
            continue
        if {T.apply(r) for r in f1.rays} != ray_set2:
            continue
        fam1 = {frozenset(T.apply(f1.rays[i]) for i in c) for c in f1.max_cones}
        if fam1 == cone_family2:
            return T
    return None
