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
    _adjugate,
    dot,
    integer_kernel_saturated,
    primitive,
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


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple

    def __bool__(self):
        return self.ok


def _is_face_of(face: Cone, cone: Cone) -> bool:
    """Is `face` a face of `cone`?  Both must already satisfy face ⊆ cone.

    The smallest face of `cone` containing `face` is cut out by the facets
    of `cone` that vanish on `face`, and it is generated by the generators
    of `cone` on which all of those facets vanish; `face` is a face iff it
    contains each of those generators.
    """
    tight = [
        f
        for f in cone.facets
        if all(dot(f, g) == 0 for g in face.generators)
    ]
    return all(
        face.contains(g)
        for g in cone.generators
        if all(dot(f, g) == 0 for f in tight)
    )


def _separated(a: Cone, b: Cone) -> bool:
    """Is there a facet normal f of `a` with f <= 0 on b, such that b has no
    generator on f = 0 or the same ones there as a?  Then a and b meet in a
    common face (Cox, Little and Schenck, Toric Varieties, Lemma 1.2.13)."""
    for f in a.facets:
        values = [dot(f, g) for g in b.generators]
        if all(x <= 0 for x in values):
            on_b = {g for g, x in zip(b.generators, values) if x == 0}
            if not on_b or on_b == {g for g in a.generators if dot(f, g) == 0}:
                return True
    return False


def _check_fan(fan: Fan):
    """Violations of the fan axioms, the maximal cones as Cone objects
    (complete only when there are no violations), and per maximal cone
    (det V, adj V) of the matrix V of its rays, or (0, None).  Only pairs
    of maximal cones that are not `_separated` are intersected.

    A maximal cone of lattice_dim rays with det V != 0 is simplicial and
    full-dimensional, and its Cone needs no conversion: V adj V = det V I,
    so the facets are the primitive columns of sign(det V) adj V.  Every
    other maximal cone is converted."""
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
        return v, [], []

    used = set()
    cones, simplices = [], []
    for ci, idx in enumerate(fan.max_cones):
        if any(i < 0 or i >= len(fan.rays) for i in idx):
            v.append(f"max cone {ci} has an out-of-range ray index")
            continue
        used.update(idx)
        rays = [fan.rays[i] for i in idx]
        det_v, adj = _adjugate(rays) if len(idx) == fan.lattice_dim else (0, None)
        if det_v:
            sign = 1 if det_v > 0 else -1
            facets = sorted(primitive([sign * x for x in col]) for col in zip(*adj))
            cone = Cone(fan.lattice_dim, sorted(rays), facets, 0, fan.lattice_dim)
        else:
            cone = fan.cone(idx)
        cones.append(cone)
        simplices.append((det_v, adj))
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
        return v, cones, simplices

    for (ci, cone_i), (cj, cone_j) in itertools.combinations(enumerate(cones), 2):
        if set(fan.max_cones[ci]) == set(fan.max_cones[cj]):
            v.append(f"max cones {ci} and {cj} coincide")
            continue
        if _separated(cone_i, cone_j) or _separated(cone_j, cone_i):
            continue
        inter = intersect(cone_i, cone_j)
        if not _is_face_of(inter, cone_i) or not _is_face_of(inter, cone_j):
            v.append(
                f"intersection of max cones {ci} and {cj} is not a common face"
            )
    return v, cones, simplices


def validate_fan(fan: Fan) -> ValidationReport:
    """Check the fan axioms; names the offending cone pair on failure."""
    v = _check_fan(fan)[0]
    return ValidationReport(not v, tuple(v))


@dataclass(frozen=True)
class FanPredicates:
    complete: bool
    simplicial: bool
    smooth: bool
    # complete simplicial fans only: (|det V|, C) per maximal cone (`fan_predicates`)
    cramer: tuple = field(default=(), compare=False, repr=False)


@lru_cache(maxsize=1024)
def fan_predicates(fan: Fan) -> FanPredicates:
    """Complete / simplicial / smooth; validates the fan first.

    The maximal cones built by validation are reused.  Cached per fan
    (fans are frozen and hashable); an invalid fan raises InvalidFan,
    whose message starts with "invalid fan: ", on every call, since
    exceptions are never cached.  A maximal cone whose rays V have
    det V != 0 is simplicial, and smooth when |det V| = 1; any other is
    judged by the Smith form of V.  A complete simplicial fan also gets
    the Cramer maps of its maximal cones, once for the positivity
    witnesses of every divisor (`divisors._witnesses`); equality ignores
    them.  The map of a cone is (|det V|, C) with C = -sign(det V) adj V,
    so that C b = |det V| m for the solution m of V m = -b (Cramer's rule).
    """
    violations, cones, simplices = _check_fan(fan)
    if violations:
        raise InvalidFan("invalid fan: " + "; ".join(violations))
    d = fan.lattice_dim

    simplicial = True
    smooth = True
    for idx, (det_v, _) in zip(fan.max_cones, simplices):
        if det_v:
            smooth = smooth and abs(det_v) == 1
            continue
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
    cramer = ()
    if complete and simplicial:
        cramer = tuple(
            (abs(det_v), tuple(tuple(-x if det_v > 0 else x for x in row) for row in adj))
            for det_v, adj in simplices
        )
    return FanPredicates(complete, simplicial, smooth, cramer)


def normal_fan(poly: Polytope) -> Fan:
    """Normal fan of a full-dimensional polytope with rational vertices.

    Rays are the primitive inward facet normals; maximal cones are the
    normal cones at the vertices.  The facets tight at a vertex are read
    off the polytope's cone: the facets (u, c) of its inequalities that
    vanish on the vertex's generator primitive(t x, t), in integers.
    """
    d = poly.ambient_dim
    if poly.dim() != d:
        raise NotFullDimensional("polytope must be full-dimensional")
    cone = poly._homogenized()
    facets = sorted(f for f in cone.facets if any(f[:d]))  # as poly.inequalities()
    lift = {tuple(Fraction(x, g[d]) for x in g[:d]): g for g in cone.generators}
    max_cones = [
        tuple(i for i, f in enumerate(facets) if dot(f, lift[v]) == 0) for v in poly.vertices
    ]
    return Fan(d, tuple(f[:d] for f in facets), tuple(max_cones))


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
    basis = integer_kernel_saturated(IntMatrix([a]))  # already in Hermite form
    rays = [basis.col(j) for j in range(n + 1)]
    for j, r in enumerate(rays):
        if vec_gcd(r) != 1:
            raise BadWeights(f"weights are not well-formed: ray {j} = {r}")
    if any(sum(ai * ri[k] for ai, ri in zip(a, rays)) for k in range(n)):
        raise AssertionError("rays do not satisfy the weight relation")
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

    Searches assignments of d linearly independent rays s_k of f1 to rays
    t_k of f2, the s_k the first d rays in combinations order with D =
    det S != 0 (S the matrix of the s_k).  The map T with T s_k = t_k has
    as row j the coordinates of (t_k[j])_k in the rows of S^T: that vector
    times the adjugate D (S^T)^-1, divided by D.  D and the adjugate come
    from `_adjugate`; there is no T when some quotient is not exact.
    Since det T = det(t_k) / D must be +-1, T is built only for targets
    with det(t_k) = +-D, and kept when it is integral and matches the ray
    sets and the maximal cone structure.  Desk scale: few rays only.
    """
    if f1.lattice_dim != f2.lattice_dim or len(f1.rays) != len(f2.rays):
        return None
    if len(f1.max_cones) != len(f2.max_cones):
        return None
    d = f1.lattice_dim
    # adj S^T = D (S^T)^-1: row k solves x S^T = D e_k
    for base in itertools.combinations(f1.rays, d):
        D, adj = _adjugate(list(zip(*base)))
        if D:
            break
    else:
        return None
    adj = IntMatrix(adj, cols=d)
    ray_set2 = set(f2.rays)
    cone_family2 = {frozenset(f2.rays[i] for i in c) for c in f2.max_cones}
    for targets in itertools.permutations(f2.rays, d):
        if abs(_adjugate(targets)[0]) != abs(D):
            continue
        scaled = (IntMatrix(targets, cols=d).transpose() * adj).row_list()
        if any(x % D for row in scaled for x in row):
            continue
        T = IntMatrix([[x // D for x in row] for row in scaled], cols=d)
        if {T.apply(r) for r in f1.rays} != ray_set2:
            continue
        fam1 = {frozenset(T.apply(f1.rays[i]) for i in c) for c in f1.max_cones}
        if fam1 == cone_family2:
            return T
    return None
