"""Exact rational polyhedral cones and lattice polytopes.

Cones carry both a generator and a facet (inward normal) representation,
kept consistent by exact double-description conversion: an incremental
double description over Z (Motzkin et al. 1953) that decides adjacency of
rays combinatorially from their zero sets (Fukuda and Prodon 1996), of
the cone that vectors generate: facet normals cut out its dual.  A
pointed full-dimensional cone takes that one conversion: its irredundant
inputs are read off their zero sets on the output.  Any other cone
converts the output back as well, and one with lineality takes one Smith
normal form more, which lifts the rays to canonical representatives of
the rays of the pointed quotient.  A polytope P is the cone over it,
{(t x, t) : x in P, t >= 0}: one conversion gives both its exact rational
vertices (the generators divided by t) and its facets, and its dimension
and membership are read off that cone; the dilation of a full-dimensional
polytope maps the cone instead of converting it again.  Lattice points are
enumerated column by column, with integer bounds from those facets, so
they can be counted without being listed; a lattice polygon's are counted
by Pick's theorem.
Hilbert bases are computed in integers by triangulating a pointed cone,
listing the points of each simplicial piece's fundamental parallelepiped
from its Smith form (a piece of index above HILBERT_DET_CAP = 10^4 is
refused before its points are listed), and reducing the candidates in
degree order against the basis found so far (Bruns and Ichim 2010).
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .errors import PreconditionError
from .linalg import (
    IntMatrix,
    _clear_denominators,
    dot,
    int_inverse_unimodular,
    integer_kernel_saturated,
    lattice_coordinates,
    primitive,
    smith_normal_form,
)


class EmptyInput(PreconditionError):
    pass


class DimensionMismatch(PreconditionError):
    pass


class DimensionTooLarge(PreconditionError):
    pass


class NotPointed(PreconditionError):
    pass


class DeterminantTooLarge(PreconditionError):
    pass


HILBERT_DET_CAP = 10**4
LATTICE_DIM_CAP = 4


def _scale_primitive(v):
    """Primitive integer vector on the ray through a rational vector v."""
    return primitive(_clear_denominators(v))


def _double_description(normals, dim):
    """Incremental double description of {x : <n, x> >= 0 for all n}.

    Starts from the whole space (no rays, lineality basis e_1..e_dim) and
    adds one normal at a time.  A normal that is nonzero on a lineality
    vector l, oriented so that <n, l> > 0, shrinks the lineality: the
    other lineality vectors and every ray are projected onto n = 0 along
    l, and l becomes a ray.  Otherwise the normal cuts: rays with
    <n, r> < 0 are dropped, and each adjacent pair (p, m) with
    <n, p> > 0 > <n, m> gives the new ray <n, p> m - <n, m> p.  Two rays
    are adjacent when no third ray's zero set (the indices of the normals
    vanishing on it) contains their common zero set; this combinatorial
    test is exact because the rays are the extreme rays of the pointed
    cone modulo the lineality (Fukuda and Prodon, 1996).  Integers only.

    Returns (rays, lineality): primitive extreme rays modulo the lineality
    space and a basis of that space.  With no lineality left the rays are
    the cone's extreme rays.
    """
    lineality = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays = []  # (primitive vector, frozenset of indices of normals zero on it)
    for k, n in enumerate(normals):
        vals = [sum(a * b for a, b in zip(n, l)) for l in lineality]
        pivot = next((i for i, v in enumerate(vals) if v), None)
        if pivot is not None:
            l, a = lineality.pop(pivot), vals.pop(pivot)
            if a < 0:
                l, a = tuple(-x for x in l), -a
            lineality = [
                primitive([a * x - b * y for x, y in zip(w, l)]) if b else w
                for w, b in zip(lineality, vals)
            ]
            projected = []
            for r, z in rays:
                b = sum(x * y for x, y in zip(n, r))
                if b:
                    r = primitive([a * x - b * y for x, y in zip(r, l)])
                projected.append((r, z | {k}))
            projected.append((l, frozenset(range(k))))
            rays = projected
            continue
        kept, pos, neg = [], [], []
        for r, z in rays:
            b = sum(x * y for x, y in zip(n, r))
            if b > 0:
                kept.append((r, z))
                pos.append((r, z, b))
            elif b < 0:
                neg.append((r, z, b))
            else:
                kept.append((r, z | {k}))
        zero_sets = [z for _, z in rays]
        for p, zp, bp in pos:
            for m, zm, bm in neg:
                common = zp & zm
                if sum(1 for z in zero_sets if common <= z) > 2:
                    continue  # a third ray lies on the smallest common face
                r = primitive([bp * x - bm * y for x, y in zip(m, p)])
                kept.append((r, common | {k}))
        rays = kept
    return [r for r, _ in rays], lineality


def _extreme_rays_of_halfspaces(normals, dim):
    """Extreme rays and lineality basis of {x : <n, x> >= 0 for all n}.

    Returns (rays, lineality_rows).  Rays are primitive representatives of
    the extreme rays of the pointed quotient by the lineality space,
    lifted back to Z^dim; together with +/- the lineality rows they
    generate the cone.

    One incremental double description with the combinatorial adjacency
    test finds the rays.  When no lineality remains they are the answer
    and no normal form is computed.  Otherwise the lineality rows are the
    saturated integer kernel of the normals, and the Smith normal form of
    their transpose gives a unimodular U mapping the lineality lattice onto
    Z^s x 0.  A ray r stands for the quotient ray primitive((U r)[s:]),
    whose canonical lift is U^-1 (0, ..., 0, primitive((U r)[s:])).
    """
    normals = [tuple(int(x) for x in n) for n in normals]
    normals = sorted(set(n for n in normals if any(n)))
    rays, lineality = _double_description(normals, dim)
    if not lineality:
        return sorted(rays), []
    lin = integer_kernel_saturated(IntMatrix(normals, cols=dim))
    s = lin.rows
    U = smith_normal_form(lin.transpose()).U
    U_inv = int_inverse_unimodular(U)
    lifted = (U_inv.apply((0,) * s + primitive(U.apply(r)[s:])) for r in rays)
    return sorted(lifted), lin.row_list()


def _with_lineality(rays, lin_rows):
    out = list(rays)
    for row in lin_rows:
        out.append(tuple(row))
        out.append(tuple(-x for x in row))
    return sorted(out)


class Cone:
    """Rational polyhedral cone with generator and facet representations.

    Facets are primitive inward normals.  A lower-dimensional cone's facet
    list contains +/- pairs spanning the orthogonal complement of the
    cone's span, so the facets always cut out the cone exactly.  The
    dimension of the span is known to the conversion and stored.
    """

    __slots__ = ("ambient_dim", "generators", "facets", "lineality_dim", "_dim")

    def __init__(self, ambient_dim, generators, facets, lineality_dim, dim):
        self.ambient_dim = ambient_dim
        self.generators = tuple(tuple(int(x) for x in g) for g in generators)
        self.facets = tuple(tuple(int(x) for x in f) for f in facets)
        self.lineality_dim = lineality_dim
        self._dim = dim

    def __repr__(self):
        return (
            f"Cone(dim={self.ambient_dim}, generators={list(self.generators)}, "
            f"lineality={self.lineality_dim})"
        )

    def __eq__(self, other):
        if not isinstance(other, Cone) or self.ambient_dim != other.ambient_dim:
            return False
        return self.contains_cone(other) and other.contains_cone(self)

    def contains_cone(self, other):
        return all(
            dot(f, g) >= 0 for f in self.facets for g in other.generators
        )

    def membership(self, v):
        """'inside' (ambient interior), 'boundary', or 'outside'."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("point dimension mismatch")
        w = _clear_denominators(v)  # a positive multiple: the same signs
        vals = [dot(f, w) for f in self.facets]
        if any(x < 0 for x in vals):
            return "outside"
        if all(x > 0 for x in vals):
            return "inside"
        return "boundary"

    def contains(self, v):
        return self.membership(v) != "outside"

    def is_pointed(self):
        return self.lineality_dim == 0

    def dim(self):
        return self._dim

    def is_full_dimensional(self):
        return self.dim() == self.ambient_dim

    def relative_interior_point(self):
        """A rational point strictly inside every non-degenerate facet."""
        if not self.generators:
            return (0,) * self.ambient_dim
        return tuple(sum(g[i] for g in self.generators) for i in range(self.ambient_dim))

    def dual(self):
        """The dual cone, generator and facet roles swapped.  It is how
        `dd_convert(facets=F)` reads F: as the dual of the cone F generates."""
        return Cone(
            ambient_dim=self.ambient_dim,
            generators=self.facets,
            facets=self.generators,
            lineality_dim=self.ambient_dim - self._dim,
            dim=self.ambient_dim - self.lineality_dim,
        )


def _irredundant(inputs, rays):
    """The sorted distinct inputs, less those whose zero set on `rays`
    another input's zero set strictly contains, or None when an input
    vanishes on every ray.  `rays` is the output of converting `inputs`,
    with no lineality; when no input vanishes on all of it, the input cone
    is pointed, each zero set cuts out the smallest face holding its input,
    and the inputs kept are exactly the extreme ones."""
    zero = {v: frozenset(i for i, r in enumerate(rays) if dot(v, r) == 0) for v in inputs}
    sets = set(zero.values())
    if any(len(z) == len(rays) for z in sets):
        return None
    return sorted(v for v, z in zero.items() if not any(z < y for y in sets))


def dd_convert(generators=None, facets=None, ambient_dim=None):
    """Build a Cone from generators or from facet normals.

    Exactly one of `generators`/`facets` must be given.  Input vectors
    must be nonzero; an empty facet list describes the whole space, while
    an empty generator list is rejected.

    The cone the vectors generate is converted; the cone facets F cut out
    is its dual (Minkowski-Weyl), and {0} is returned at once.  A pointed
    full-dimensional cone takes one double description and `_irredundant`;
    only one with lineality or of lower dimension takes a second, of the
    output, for the canonical lift of its rays.
    """
    if (generators is None) == (facets is None):
        raise ValueError("exactly one of generators or facets required")
    if ambient_dim is None:
        raise ValueError("ambient_dim required")
    kind, vectors = ("generator", generators) if facets is None else ("facet", facets)
    if facets is None and len(generators) == 0:
        raise EmptyInput("no generators given")
    vectors = [primitive(v) for v in vectors]
    if any(not any(v) for v in vectors):
        raise EmptyInput(f"zero vector among {kind}s")
    if any(len(v) != ambient_dim for v in vectors):
        raise DimensionMismatch(f"{kind} dimension mismatch")
    frays, flin = _extreme_rays_of_halfspaces(vectors, ambient_dim)
    facet_list = _with_lineality(frays, flin)
    if facets is not None and not facet_list:  # the facets generate the whole space
        return zero_cone(ambient_dim)
    grays, glin = None if flin else _irredundant(vectors, frays), []
    if grays is None:
        grays, glin = _extreme_rays_of_halfspaces(facet_list, ambient_dim)
    # flin spans the orthogonal complement of the cone's span
    cone = Cone(ambient_dim, _with_lineality(grays, glin), facet_list, len(glin),
                ambient_dim - len(flin))
    return cone if facets is None else cone.dual()


def zero_cone(ambient_dim):
    """The cone {0}: the facets +/- e_i cut it out exactly."""
    eye = IntMatrix.identity(ambient_dim).row_list()
    return Cone(ambient_dim, (), _with_lineality([], eye), 0, 0)


def intersect(*cones: Cone) -> Cone:
    """Intersection as the cone cut out by the union of the facet lists."""
    dims = {c.ambient_dim for c in cones}
    if len(dims) != 1:
        raise DimensionMismatch("ambient dimensions differ")
    fac = sorted({f for c in cones for f in c.facets})
    return dd_convert(facets=fac, ambient_dim=dims.pop())


# ------------------------------------------------------------- polytopes


class Polytope:
    """Polytope given by exact rational vertices (irredundant).

    In the plane the vertex tuple is stored in counterclockwise order from
    the lexicographically least vertex; in higher dimensions it is sorted
    lexicographically.  Use :func:`polytope_from_points` or
    :func:`polytope_from_inequalities` to build one.  Both keep the
    homogenized cone {(t x, t) : x in P, t >= 0} of their one conversion,
    and the facets, the dimension and membership are read off it; a
    Polytope built from a vertex list by hand converts its cone when one
    of these is first asked for.
    """

    __slots__ = ("ambient_dim", "vertices", "_cone")

    def __init__(self, ambient_dim, vertices):
        self.ambient_dim = ambient_dim
        self.vertices = tuple(tuple(Fraction(x) for x in v) for v in vertices)
        self._cone = None

    def __repr__(self):
        return f"Polytope(dim={self.ambient_dim}, vertices={[tuple(map(str, v)) for v in self.vertices]})"

    def __eq__(self, other):
        return (
            isinstance(other, Polytope)
            and self.ambient_dim == other.ambient_dim
            and sorted(self.vertices) == sorted(other.vertices)
        )

    def _homogenized(self):
        """The cone over the polytope; raises ValueError when it is empty."""
        if self._cone is None:
            if not self.vertices:
                raise ValueError("empty polytope has no inequality description")
            gens = [_scale_primitive([*v, 1]) for v in self.vertices]
            self._cone = dd_convert(generators=gens, ambient_dim=self.ambient_dim + 1)
        return self._cone

    def is_empty(self):
        return not self.vertices

    def is_lattice(self):
        return all(x.denominator == 1 for v in self.vertices for x in v)

    def dim(self):
        if not self.vertices:
            return -1
        return self._homogenized().dim() - 1

    def inequalities(self):
        """Facet inequalities (u, c) meaning <u, x> + c >= 0, primitive.

        Lower-dimensional polytopes include +/- pairs cutting out the
        affine span.  The cone's facet t >= 0 (u = 0) is left out.
        """
        d = self.ambient_dim
        return sorted((f[:d], f[d]) for f in self._homogenized().facets if any(f[:d]))

    def contains(self, point):
        if not self.vertices:
            return False
        return self._homogenized().contains((*point, 1))

    def dilate(self, m):
        """m * P, which is P itself for m = 1.  For an integer m > 1 the
        cone of a full-dimensional polytope is mapped, not converted: its
        generators become primitive(m x, t) and its facets
        primitive(u, m c).  A lower-dimensional cone is not mapped, since
        the +/- rows of its facets are a Smith-form lift that a linear map
        does not preserve."""
        if m == 1:
            return self
        poly = Polytope(
            self.ambient_dim, [tuple(Fraction(m) * x for x in v) for v in self.vertices]
        )
        cone, d = self._cone, self.ambient_dim
        if isinstance(m, int) and m > 1 and cone is not None and cone.is_full_dimensional():
            gens = sorted(primitive([*(m * x for x in g[:d]), g[d]]) for g in cone.generators)
            facets = sorted(primitive([*f[:d], m * f[d]]) for f in cone.facets)
            poly._cone = Cone(d + 1, gens, facets, 0, d + 1)
        return poly

    def translate(self, t):
        return Polytope(
            self.ambient_dim,
            [tuple(x + Fraction(ti) for x, ti in zip(v, t)) for v in self.vertices],
        )

    def area(self):
        """Euclidean area of a planar polytope (shoelace, exact)."""
        if self.ambient_dim != 2:
            raise DimensionMismatch("area is only defined in the plane")
        vs = self.vertices
        if len(vs) < 3:
            return Fraction(0)
        total = Fraction(0)
        for i in range(len(vs)):
            x1, y1 = vs[i]
            x2, y2 = vs[(i + 1) % len(vs)]
            total += x1 * y2 - x2 * y1
        return abs(total) / 2


def _polytope_from_cone(cone, d):
    """The Polytope whose homogenized cone is `cone`, every generator of
    which has t > 0: its vertices are the generators divided by t.  In the
    plane the vertices after the least one (x0, y0) are sorted by the slope
    of their edge from it, a vertical edge last, which is counterclockwise
    order, since every other vertex lies to the right of it or above it."""
    verts = sorted(tuple(Fraction(x, g[d]) for x in g[:d]) for g in cone.generators)
    if d == 2:
        x0, y0 = verts[0]
        verts[1:] = sorted(verts[1:], key=lambda v: (v[0] == x0, (v[1] - y0) / (v[0] - x0 or 1)))
    poly = Polytope(d, verts)
    poly._cone = cone
    return poly


def polytope_from_points(points, ambient_dim=None):
    """Irredundant Polytope from an arbitrary finite point set."""
    points = [tuple(Fraction(x) for x in p) for p in points]
    if ambient_dim is None:
        if not points:
            raise EmptyInput("no points given")
        ambient_dim = len(points[0])
    if not points:
        return Polytope(ambient_dim, [])
    gens = [_scale_primitive([*p, 1]) for p in points]
    cone = dd_convert(generators=gens, ambient_dim=ambient_dim + 1)
    return _polytope_from_cone(cone, ambient_dim)


def polytope_from_inequalities(ineqs, ambient_dim):
    """Polytope {x : <u, x> + c >= 0 for all (u, c)}; must be bounded.

    Returns an empty Polytope when the system is infeasible; raises
    ValueError when unbounded.
    """
    facets = [(*u, c) for u, c in ineqs] + [(0,) * ambient_dim + (1,)]  # and t >= 0
    cone = dd_convert(facets=facets, ambient_dim=ambient_dim + 1)
    if not any(g[ambient_dim] for g in cone.generators):
        return Polytope(ambient_dim, [])
    if any(g[ambient_dim] == 0 for g in cone.generators):
        raise ValueError("inequality system is unbounded")
    return _polytope_from_cone(cone, ambient_dim)


def lattice_columns(poly: Polytope, dilation=1):
    """The integer points of dilation * poly, column by column: yields
    (prefix, lo, hi), in lexicographic order, for each prefix of the first
    d - 1 coordinates over which the points are prefix + (t,) for
    lo <= t <= hi.  In ambient dimension 0 the one point () is the column
    ((), 0, 0).

    For each prefix in the bounding box and s = c + <u', prefix>, each
    integer facet <u, x> + c >= 0 bounds the last coordinate by
    -(s // u_d) from below or s // -u_d from above.
    """
    if poly.ambient_dim > LATTICE_DIM_CAP:
        raise DimensionTooLarge(
            f"lattice point enumeration capped at dimension {LATTICE_DIM_CAP}"
        )
    if dilation < 1:
        raise PreconditionError("dilation must be a positive integer")
    q = poly.dilate(dilation)
    if q.is_empty():
        return
    d = q.ambient_dim
    if d == 0:
        yield (), 0, 0
        return
    boxes = [
        range(math.ceil(min(v[i] for v in q.vertices)),
              math.floor(max(v[i] for v in q.vertices)) + 1)
        for i in range(d)
    ]
    ineqs = q.inequalities()
    for prefix in itertools.product(*boxes[: d - 1]):
        lo, hi = boxes[d - 1].start, boxes[d - 1].stop - 1
        for u, c in ineqs:
            s = c + sum(ui * pi for ui, pi in zip(u, prefix))
            if u[d - 1] > 0:
                lo = max(lo, -(s // u[d - 1]))
            elif u[d - 1] < 0:
                hi = min(hi, s // -u[d - 1])
            elif s < 0:
                break
        else:
            if lo <= hi:
                yield prefix, lo, hi


def lattice_points(poly: Polytope, dilation=1):
    """All integer points of dilation * poly, sorted lexicographically: the
    columns of `lattice_columns` listed point by point."""
    columns = lattice_columns(poly, dilation)
    if poly.ambient_dim == 0:
        return [prefix for prefix, _, _ in columns]
    return [prefix + (t,) for prefix, lo, hi in columns for t in range(lo, hi + 1)]


def lattice_point_count(poly: Polytope, dilation=1):
    """The number of integer points of dilation * poly, listing none: 0 for
    an empty polytope, A + B/2 + 1 for a lattice polygon of area A with B
    boundary points (Pick's theorem; it holds for a lattice segment or point
    in the plane too), else the sum of the column lengths of
    `lattice_columns`."""
    if poly.is_empty():
        return 0
    q = poly.dilate(dilation)
    if q.ambient_dim != 2 or not q.is_lattice():
        return sum(hi - lo + 1 for _, lo, hi in lattice_columns(poly, dilation))
    edges = zip(q.vertices, q.vertices[1:] + q.vertices[:1])
    boundary = sum(math.gcd(int(u[0] - v[0]), int(u[1] - v[1])) for u, v in edges)
    return int(2 * q.area() + boundary) // 2 + 1


# ---------------------------------------------------------- hilbert basis


def _triangulate_pointed(rays, ambient_dim):
    """Pulling triangulation of a pointed cone into simplicial ray subsets."""
    cone = dd_convert(generators=rays, ambient_dim=ambient_dim)
    k = cone.dim()
    gens = list(cone.generators)
    if len(gens) == k:
        return [gens]
    apex = gens[0]
    out = []
    for f in cone.facets:
        if dot(f, apex) == 0:
            continue
        face_rays = [g for g in gens if dot(f, g) == 0]
        if not face_rays:
            continue
        for simplex in _triangulate_pointed(face_rays, ambient_dim):
            out.append(simplex + [apex])
    return out


def _parallelepiped_points(ray_rows, dim):
    """Integer points of the half-open parallelepiped of a simplicial cone.

    ray_rows: dim linearly independent integer vectors; returns all x in
    Z^dim with x = sum lambda_i r_i, 0 <= lambda_i < 1 (including 0).
    With C the matrix whose columns are the rays and U C V = D its Smith
    form, the points are U^-1 t reduced modulo C Z^dim for t in the
    product of the Z/d_i, that is x = C lambda with lambda = V D^-1 t mod 1.
    Over the common denominator delta = d_last this is
    x = C ((V (t_i delta / d_i)) mod delta) / delta, all in integers.
    Raises DeterminantTooLarge before enumerating when the index
    |det C| = prod d_i exceeds HILBERT_DET_CAP.
    """
    C = IntMatrix(ray_rows, cols=dim).transpose()  # columns are the rays
    snf = smith_normal_form(C)
    diag = snf.D.diagonal()
    index = math.prod(diag)
    if index > HILBERT_DET_CAP:
        raise DeterminantTooLarge(
            f"simplicial piece has index {index} > {HILBERT_DET_CAP}"
        )
    delta = diag[-1]
    pts = set()
    for t in itertools.product(*[range(x) for x in diag]):
        lam = snf.V.apply([ti * (delta // di) for ti, di in zip(t, diag)])
        x = C.apply([li % delta for li in lam])
        if any(xi % delta for xi in x):
            raise AssertionError("parallelepiped point is not integral")
        pts.add(tuple(xi // delta for xi in x))
    return pts


def hilbert_basis(cone: Cone):
    """Minimal generating set of the monoid of lattice points of a cone.

    The cone must be pointed and of ambient dimension at most 4; each
    simplicial piece of the triangulation must have index at most
    HILBERT_DET_CAP = 10^4.  The candidates are the cone's generators and
    the parallelepiped points of the pieces.  Each candidate x has facet
    values F(x) = (<f, x>)_f, and they are visited in the order of
    (sum F(x), x); the sum is positive on nonzero points of a pointed
    full-dimensional cone.  x is kept unless F(x) >= F(b) componentwise,
    i.e. x - b lies in the cone, for some b kept before it.  This is exact:
    a reducible x is b + y for a Hilbert basis element b and a nonzero
    monoid element y, so b has strictly smaller degree, is a candidate and
    was kept before x.
    """
    if not cone.is_pointed():
        raise NotPointed("hilbert basis requires a pointed cone")
    if cone.ambient_dim > LATTICE_DIM_CAP:
        raise DimensionTooLarge(
            f"hilbert basis capped at ambient dimension {LATTICE_DIM_CAP}"
        )
    if not cone.generators:
        return []
    d = cone.ambient_dim
    k = cone.dim()
    if k < d:
        # work in the saturated lattice of the cone's span
        G = IntMatrix(cone.generators, cols=d)
        orth = integer_kernel_saturated(G)
        span_basis = integer_kernel_saturated(orth)  # k x d rows
        new_gens = lattice_coordinates(span_basis, cone.generators)
        if None in new_gens:
            raise AssertionError("generator outside the span lattice")
        sub = dd_convert(generators=new_gens, ambient_dim=k)
        hb = hilbert_basis(sub)
        bt = span_basis.transpose()
        return sorted(bt.apply(h) for h in hb)

    candidates = set(cone.generators)
    for simplex in _triangulate_pointed(list(cone.generators), d):
        candidates |= _parallelepiped_points(simplex, d)
    candidates.discard((0,) * d)
    values = {x: tuple(dot(f, x) for f in cone.facets) for x in candidates}
    basis = {}  # element -> its facet values
    for x in sorted(candidates, key=lambda x: (sum(values[x]), x)):
        fx = values[x]
        if not any(all(map(operator.ge, fx, fb)) for fb in basis.values()):
            basis[x] = fx
    return sorted(basis)
