"""Shared test oracles: deliberately simple, independent implementations."""

import itertools
import math
from fractions import Fraction

from coxkit.divisors import (
    NotComplete,
    NotNef,
    NotSimplicial,
    NotSurface,
    PositivityRecord,
    _check_divisor,
    divisor_polytope,
)
from coxkit.fans import fan_predicates, normal_fan
from coxkit.linalg import IntMatrix, det, rational_solve


def find_gl2z(src_cols, dst_cols):
    """Integer 2x2 matrix T with det +-1 and T*src_i = dst_i for all i."""
    pairs = list(zip(src_cols, dst_cols))
    for (s1, d1), (s2, d2) in itertools.combinations(pairs, 2):
        S = IntMatrix([s1, s2])
        if det(S) == 0:
            continue
        rows = []
        ok = True
        for j in range(2):
            x = rational_solve(S, (d1[j], d2[j]))
            if x is None or any(Fraction(v).denominator != 1 for v in x):
                ok = False
                break
            rows.append([int(v) for v in x])
        if not ok:
            continue
        T = IntMatrix(rows)
        if abs(det(T)) != 1:
            continue
        if all(tuple(T.apply(s)) == tuple(d) for s, d in pairs):
            return T
    return None


def shoelace(vertices):
    total = Fraction(0)
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        total += Fraction(x1) * Fraction(y2) - Fraction(x2) * Fraction(y1)
    return abs(total) / 2


def falling(a, i):
    out = 1
    for t in range(i):
        out *= a - t
    return out


def positivity_by_polytope(fan, divisor):
    """Positivity from the divisor polytope and its normal fan.

    Nef when every witness m_sigma (the solution of <m, v_i> = -a_i on
    sigma) lies in the divisor polytope, basepoint free when the witnesses
    are also integral, and ample when it is basepoint free with pairwise
    distinct witnesses and the polytope's normal fan is the fan.
    """
    a = _check_divisor(fan, divisor)
    preds = fan_predicates(fan)
    if not preds.complete:
        raise NotComplete("positivity tests need a complete fan")
    if not preds.simplicial:
        raise NotSimplicial("positivity tests need a simplicial fan")
    poly = divisor_polytope(fan, divisor)
    witnesses = [
        rational_solve([fan.rays[i] for i in idx], [-a[i] for i in idx])
        for idx in fan.max_cones
    ]
    nef = (not poly.is_empty()) and all(poly.contains(m) for m in witnesses)
    bpf = nef and all(Fraction(x).denominator == 1 for m in witnesses for x in m)
    ample = False
    if bpf and len(set(witnesses)) == len(witnesses) and poly.dim() == fan.lattice_dim:
        nf = normal_fan(poly)
        if set(nf.rays) == set(fan.rays):
            fam1 = {frozenset(nf.rays[i] for i in c) for c in nf.max_cones}
            fam2 = {frozenset(fan.rays[i] for i in c) for c in fan.max_cones}
            ample = fam1 == fam2
    return PositivityRecord(basepoint_free=bpf, nef=nef, ample=ample)


def intersection_by_mixed_area(fan, d1, d2):
    """D1.D2 of nef divisors on a complete surface as a mixed area.

    area(P1 + P2) - area(P1) - area(P2) of the divisor polytopes, which
    makes D^2 twice the area of its polytope.
    """
    if fan.lattice_dim != 2:
        raise NotSurface("intersection numbers implemented for surfaces only")
    for d in (d1, d2):
        if not positivity_by_polytope(fan, d).nef:
            raise NotNef("intersection numbers require nef divisors")
    a1 = _check_divisor(fan, d1)
    a2 = _check_divisor(fan, d2)
    total = tuple(x + y for x, y in zip(a1, a2))

    def area_of(div):
        poly = divisor_polytope(fan, div)
        return Fraction(0) if poly.is_empty() else poly.area()

    return area_of(total) - area_of(a1) - area_of(a2)
