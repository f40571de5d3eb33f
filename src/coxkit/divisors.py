"""Divisor theory on a fan.

Class group and Cox grading via Smith normal form of the ray matrix,
divisor polytopes and section counts, positivity predicates and nef
intersection numbers on surfaces from integer support-function slacks,
irrelevant monomial supports, and Hilbert-basis generators of section
rings and Veronese subalgebras.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .fans import Fan, fan_predicates
from .linalg import (
    IntMatrix,
    dot,
    hermite_normal_form,
    int_inverse_unimodular,
    integer_kernel_saturated,
    primitive,
    smith_normal_form,
)
from .polyhedra import (
    Cone,
    DimensionTooLarge,
    NotPointed,
    Polytope,
    _irredundant,
    _polytope_from_cone,
    dd_convert,
    hilbert_basis,
    lattice_point_count,
    polytope_from_inequalities,
)


class RaysDoNotSpan(PreconditionError):
    pass


class NotComplete(PreconditionError):
    pass


class NotSimplicial(PreconditionError):
    pass


class NotNef(PreconditionError):
    pass


class NotSurface(PreconditionError):
    pass


@dataclass(frozen=True)
class ToricDivisor:
    """Torus-invariant divisor sum(a_i * D_i), one coefficient per ray."""

    coefficients: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", tuple(int(a) for a in self.coefficients)
        )

    def __add__(self, other):
        return ToricDivisor(
            tuple(a + b for a, b in zip(self.coefficients, _coeffs(other)))
        )

    def __rmul__(self, k):
        return ToricDivisor(tuple(int(k) * a for a in self.coefficients))

    def __iter__(self):
        return iter(self.coefficients)

    def __len__(self):
        return len(self.coefficients)


def _coeffs(divisor):
    if isinstance(divisor, ToricDivisor):
        return divisor.coefficients
    return tuple(int(a) for a in divisor)


def _check_divisor(fan, divisor):
    a = _coeffs(divisor)
    if len(a) != len(fan.rays):
        raise PreconditionError(
            f"divisor has {len(a)} coefficients, fan has {len(fan.rays)} rays"
        )
    return a


class ClassGroup:
    """Divisor class group of a fan with its Cox grading data.

    The group is Z^rank + sum Z/torsion_i in a basis fixed by the Smith
    normal form of the ray matrix; class vectors list free coordinates
    first, then torsion coordinates reduced modulo their invariant factor.
    The sign of each free coordinate is normalized so that the first
    variable with a nonzero entry there has a positive one.
    """

    def __init__(self, fan: Fan):
        d = fan.lattice_dim
        r = len(fan.rays)
        ray_matrix = IntMatrix(fan.rays, cols=d)
        snf = smith_normal_form(ray_matrix)
        if snf.rank < d:
            raise RaysDoNotSpan("fan rays do not span the ambient lattice")
        diag = snf.D.diagonal()
        self.fan = fan
        self.rank = r - d
        self._tor_pos = [i for i in range(d) if diag[i] > 1]
        self.torsion = tuple(diag[i] for i in self._tor_pos)
        self._free_pos = list(range(d, r))
        self._U = snf.U
        self._U_inv = int_inverse_unimodular(snf.U)
        # sign normalization per free coordinate
        flips = []
        for t, pos in enumerate(self._free_pos):
            col = [self._U[pos, i] for i in range(r)]
            lead = next((x for x in col if x != 0), 1)
            flips.append(-1 if lead < 0 else 1)
        self._flips = flips
        self.degrees = tuple(
            self.class_of(tuple(1 if j == i else 0 for j in range(r)))
            for i in range(r)
        )

    def class_of(self, divisor):
        """Class of a torus-invariant divisor in the fixed basis."""
        a = _check_divisor(self.fan, divisor)
        y = self._U.apply(a)
        free = tuple(
            self._flips[t] * y[pos] for t, pos in enumerate(self._free_pos)
        )
        tor = tuple(
            y[pos] % self.torsion[t] for t, pos in enumerate(self._tor_pos)
        )
        return free + tor

    def divisor_with_class(self, cls) -> ToricDivisor:
        """Some torus-invariant divisor whose class is `cls`."""
        cls = tuple(int(x) for x in cls)
        if len(cls) != self.rank + len(self.torsion):
            raise PreconditionError("class vector has wrong length")
        r = len(self.fan.rays)
        y = [0] * r
        for t, pos in enumerate(self._free_pos):
            y[pos] = self._flips[t] * cls[t]
        for t, pos in enumerate(self._tor_pos):
            y[pos] = cls[self.rank + t]
        a = self._U_inv.apply(y)
        div = ToricDivisor(a)
        if self.class_of(div) != cls:
            raise AssertionError("divisor_with_class missed the requested class")
        return div


def class_group(fan: Fan) -> ClassGroup:
    return ClassGroup(fan)


def principal_divisor(fan: Fan, m) -> ToricDivisor:
    """div of the character with exponent m: coefficients <m, v_i>."""
    m = tuple(int(x) for x in m)
    if len(m) != fan.lattice_dim:
        raise PreconditionError("character exponent has wrong dimension")
    return ToricDivisor(tuple(sum(mi * vi for mi, vi in zip(m, v)) for v in fan.rays))


def divisor_polytope(fan: Fan, divisor) -> Polytope:
    """The polytope {m : <m, v_i> + a_i >= 0}; requires a complete fan."""
    a = _check_divisor(fan, divisor)
    if not fan_predicates(fan).complete:
        raise NotComplete("divisor polytopes need a complete fan")
    ineqs = [(v, ai) for v, ai in zip(fan.rays, a)]
    return polytope_from_inequalities(ineqs, fan.lattice_dim)


def section_count(fan: Fan, divisor) -> int:
    """dim H^0 = number of lattice points of the divisor polytope, read
    off `_nef_polytope` when it applies and converted otherwise."""
    a = _check_divisor(fan, divisor)
    poly = _nef_polytope(fan, a)
    return lattice_point_count(divisor_polytope(fan, a) if poly is None else poly)


def _nef_polytope(fan: Fan, a):
    """The polytope of a nef divisor on a complete simplicial fan, built
    from `_witnesses` with no conversion, or None.

    It is conv(m_sigma), and each m_sigma is a vertex: the one minimizing
    <., u> for a generic u inside sigma.  So the generators of its cone
    are the distinct primitive (M, delta), and its facets are the
    divisor's own rows (v_i, a_i) that `polyhedra._irredundant` keeps on
    them.  That needs a full-dimensional polytope.  A lower-dimensional
    one is None: the fan refines its normal fan, whose lineality space,
    the orthogonal complement of its span, then holds a ray, and that
    ray's row vanishes on every generator.  So is a divisor that is not
    nef, or one on a fan that is not complete and simplicial.
    """
    preds = fan_predicates(fan)
    if not (preds.complete and preds.simplicial):
        return None
    witnesses = list(_witnesses(fan, a))
    if any(s < 0 for *_, slacks in witnesses for s in slacks):
        return None
    d = fan.lattice_dim
    gens = sorted({primitive((*M, delta)) for _, delta, M, _ in witnesses})
    facets = _irredundant({primitive((*v, x)) for v, x in zip(fan.rays, a)}, gens)
    if facets is None:
        return None
    return _polytope_from_cone(Cone(d + 1, gens, facets, 0, d + 1), d)


@dataclass(frozen=True)
class PositivityRecord:
    basepoint_free: bool
    nef: bool
    ample: bool


def _witnesses(fan: Fan, divisor):
    """Integer witnesses (sigma, delta, M, slacks), one per maximal cone.

    delta = |det V_sigma|, M = delta * m_sigma by Cramer's rule, where
    <m_sigma, v_i> = -a_i on sigma, and slacks[j] = <M, v_j> + delta * a_j.
    delta and the Cramer map come with the fan's predicates, built once per
    fan, so M and the slacks are integer matrix-vector products.
    """
    a = _check_divisor(fan, divisor)
    preds = fan_predicates(fan)
    if not preds.complete:
        raise NotComplete("positivity tests need a complete fan")
    if not preds.simplicial:
        raise NotSimplicial("positivity tests need a simplicial fan")
    for idx, (delta, C) in zip(fan.max_cones, preds.cramer):
        M = [dot(row, [a[i] for i in idx]) for row in C]
        yield idx, delta, M, [dot(M, v) + delta * x for v, x in zip(fan.rays, a)]


def positivity(fan: Fan, divisor) -> PositivityRecord:
    """Basepoint-freeness / nefness / ampleness on a complete simplicial fan.

    With the integer slacks s_sigma_j of `_witnesses`: nef iff every
    s_sigma_j >= 0 (convex support function), bpf iff nef and every m_sigma
    is integral, ample iff bpf and s_sigma_j > 0 for each j outside sigma
    (strictly convex).  Exact, no polytope; Cox, Little and Schenck, Toric
    Varieties, Theorems 6.1.7, 6.1.14 and 6.3.12, on a Cartier multiple.
    Integral witnesses keep ample => bpf on singular fans.
    """
    witnesses = list(_witnesses(fan, divisor))
    nef = all(s >= 0 for _, _, _, slacks in witnesses for s in slacks)
    bpf = nef and all(x % delta == 0 for _, delta, M, _ in witnesses for x in M)
    # nef slacks vanish on sigma; ample wants no other zero
    ample = bpf and all(slacks.count(0) == len(idx) for idx, _, _, slacks in witnesses)
    return PositivityRecord(basepoint_free=bpf, nef=nef, ample=ample)


def intersection_number_nef_surface(fan: Fan, d1, d2) -> Fraction:
    """Intersection number of two nef divisors on a complete toric surface.

    Exactly D1.D2 = sum_j a2_j D1.D_j.  For ray j in the maximal cones sigma
    and tau = {j, q}, D1 - div(chi^m_sigma) meets D_j only in D_q, and
    D_q.D_j = 1 / delta_tau (Cox, Little and Schenck, Toric Varieties, Lemma
    6.4.2), so D1.D_j = s_sigma_q / (delta_sigma delta_tau) (`_witnesses`).
    """
    if fan.lattice_dim != 2:
        raise NotSurface("intersection numbers implemented for surfaces only")
    witnesses = list(_witnesses(fan, d1))
    if not (all(s >= 0 for w in witnesses for s in w[3]) and positivity(fan, d2).nef):
        raise NotNef("intersection numbers require nef divisors")
    total = Fraction(0)
    for j, coeff in enumerate(_check_divisor(fan, d2)):
        sigma, tau = [w for w in witnesses if j in w[0]]
        (q,) = set(tau[0]) - {j}
        total += Fraction(coeff * sigma[3][q], sigma[1] * tau[1])
    return total


def irrelevant_monomials(fan: Fan):
    """Variable supports of the irrelevant ideal: one per maximal cone."""
    fan_predicates(fan)  # raises InvalidFan on an invalid fan
    r = len(fan.rays)
    return [tuple(sorted(set(range(r)) - set(c))) for c in fan.max_cones]


def section_ring_generators(fan: Fan, divisors):
    """Minimal generator degrees of the multigraded section ring.

    divisors is a list of divisor coefficient vectors D_1..D_s; the result
    is the Hilbert basis of the cone {(m, t) : t >= 0, <m, v_i> +
    sum_j t_j a_{ji} >= 0}, returned as (lattice point, multidegree) pairs.
    """
    div_list = [_check_divisor(fan, d) for d in divisors]
    s = len(div_list)
    d = fan.lattice_dim
    if d + s > 4:
        raise DimensionTooLarge("section ring cone capped at total dimension 4")
    if s == 0:
        raise PreconditionError("need at least one divisor")
    facets = []
    for i, v in enumerate(fan.rays):
        facets.append(tuple(v) + tuple(div[i] for div in div_list))
    for j in range(s):
        facets.append((0,) * d + tuple(1 if jj == j else 0 for jj in range(s)))
    cone = dd_convert(facets=facets, ambient_dim=d + s)
    if not cone.is_pointed():
        raise NotPointed("section ring cone is not pointed")
    return [(h[:d], h[d:]) for h in hilbert_basis(cone)]


def veronese_generators(Q: IntMatrix, H: Cone, sublattice=None):
    """Generator exponents of a Veronese subalgebra of a free algebra.

    Q maps exponent vectors to degrees, H is a cone of degrees; the result
    is the Hilbert basis of {x >= 0 : Q x in H}.  An optional `sublattice`
    (an IntMatrix whose rows span a finite-index sublattice L of the
    degree lattice) restricts to degrees lying in L.
    """
    r = Q.cols
    k = Q.rows
    if r > 4:
        raise DimensionTooLarge("veronese cone capped at 4 variables")
    if H.ambient_dim != k:
        raise PreconditionError("degree cone dimension mismatch")
    facets = [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)]
    qt = Q.transpose()
    for h in H.facets:
        facets.append(qt.apply(h))
    facets = [f for f in facets if any(f)]
    cone = dd_convert(facets=facets, ambient_dim=r)
    if not cone.is_pointed():
        raise NotPointed("veronese cone is not pointed")
    if sublattice is None:
        return hilbert_basis(cone)
    L = sublattice
    if L.cols != k:
        raise PreconditionError("sublattice basis has wrong dimension")
    lt = L.transpose()
    block = IntMatrix(
        [list(Q.row(i)) + [-lt[i, j] for j in range(lt.cols)] for i in range(k)],
        cols=r + lt.cols,
    )
    ker = integer_kernel_saturated(block)
    proj = IntMatrix([row[:r] for row in ker.row_list()], cols=r)
    basis, _ = hermite_normal_form(proj)
    rows = [row for row in basis.row_list() if any(row)]
    if len(rows) != r:
        raise PreconditionError("sublattice preimage does not have full rank")
    A = IntMatrix(rows, cols=r)
    at = A.transpose()
    new_facets = [A.apply(f) for f in cone.facets]
    sub_cone = dd_convert(facets=new_facets, ambient_dim=r)
    if not sub_cone.is_pointed():
        raise NotPointed("veronese cone is not pointed")
    return sorted(at.apply(h) for h in hilbert_basis(sub_cone))
