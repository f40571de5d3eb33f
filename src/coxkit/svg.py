"""Deterministic SVG figures: chamber decompositions and polygons.

Pure string templating on a fixed 800x800 canvas with fixed margins; all
coordinates are computed with exact rationals and emitted with two fixed
decimals, so identical inputs give byte-identical output.
"""

from __future__ import annotations

from fractions import Fraction

from .chambers import GradingSpec, RankTooLarge
from .polyhedra import Polytope, lattice_points

CANVAS = 800
MARGIN = 40
CHAMBER_FILLS = ("#c8d8ef", "#e8c9c9", "#cfe8c9", "#e8e3c0", "#d8c9e8", "#c9e8e3")
POINT_COLORS = ("#b02020", "#2030b0", "#108030", "#906010")


def _fmt(x) -> str:
    """Exact fixed-point rendering with two decimals."""
    q = Fraction(x)
    scaled = q * 100
    n = scaled.numerator // scaled.denominator  # floor
    if 2 * (scaled - n) >= 1:
        n += 1
    sign = "-" if n < 0 else ""
    n = abs(n)
    return f"{sign}{n // 100}.{n % 100:02d}"


def _header(title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" '
        f'height="{CANVAS}" viewBox="0 0 {CANVAS} {CANVAS}">',
        f"<title>{title}</title>",
        f'<rect width="{CANVAS}" height="{CANVAS}" fill="#ffffff"/>',
    ]


def _linf(v):
    return max(abs(Fraction(x)) for x in v)


def svg_chambers(spec: GradingSpec, chambers) -> str:
    """Chamber decomposition of the effective cone of a rank-2 grading.

    `chambers` is the list returned by `enumerate_chambers(spec)`.
    Chambers are shaded wedges, degree vectors are dots, chamber walls are
    rays from the origin.
    """
    if spec.free_rank != 2:
        raise RankTooLarge("chamber plots need free rank exactly 2")
    center = Fraction(CANVAS, 2)
    radius = Fraction(CANVAS, 2) - MARGIN

    def to_canvas(v, scale):
        x = center + Fraction(v[0]) * scale
        y = center - Fraction(v[1]) * scale
        return x, y

    def ray_end(v):
        # stretch to the canvas radius in the max norm
        n = _linf(v)
        if n == 0:
            return (Fraction(0), Fraction(0))
        return (Fraction(v[0]) / n * radius, Fraction(v[1]) / n * radius)

    out = _header("chamber decomposition")
    for i, ch in enumerate(chambers):
        gens = sorted(ch.cone.generators)
        if len(gens) < 2:
            continue
        a = ray_end(gens[0])
        b = ray_end(gens[-1])
        mid = (a[0] + b[0], a[1] + b[1])
        m = ray_end(mid) if any(mid) else (Fraction(0), Fraction(0))
        pts = [(Fraction(0), Fraction(0)), a, m, b]
        path = " ".join(
            f"{_fmt(center + px)},{_fmt(center - py)}" for px, py in pts
        )
        fill = CHAMBER_FILLS[i % len(CHAMBER_FILLS)]
        out.append(f'<polygon points="{path}" fill="{fill}" stroke="none"/>')
    wall_rays = sorted({g for ch in chambers for g in ch.cone.generators})
    for g in wall_rays:
        e = ray_end(g)
        out.append(
            f'<line x1="{_fmt(center)}" y1="{_fmt(center)}" '
            f'x2="{_fmt(center + e[0])}" y2="{_fmt(center - e[1])}" '
            f'stroke="#404040" stroke-width="1.5"/>'
        )
    degs = [spec.free_part(i) for i in range(spec.r)]
    maxnorm = max((_linf(w) for w in degs if any(w)), default=Fraction(1))
    scale = radius * Fraction(3, 4) / maxnorm if maxnorm else Fraction(1)
    for w in sorted(set(degs)):
        x, y = to_canvas(w, scale)
        out.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="5" fill="#101010"/>'
        )
    out.append(
        f'<text x="{MARGIN}" y="{CANVAS - 12}" font-size="14" '
        f'fill="#303030">{len(chambers)} full-dimensional chambers</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def svg_polygon(poly: Polytope, highlight_sets=(), show_lattice=True) -> str:
    """A planar polygon with its lattice points and highlighted subsets.

    highlight_sets: list of point lists; each set is drawn as circled dots
    in its own color.
    """
    if poly.ambient_dim != 2:
        raise RankTooLarge("polygon plots are 2-dimensional")
    if poly.is_empty():
        raise ValueError("cannot plot an empty polytope")
    all_pts = [tuple(Fraction(x) for x in v) for v in poly.vertices]
    for hs in highlight_sets:
        all_pts.extend(tuple(Fraction(x) for x in p) for p in hs)
    xmin = min(p[0] for p in all_pts)
    xmax = max(p[0] for p in all_pts)
    ymin = min(p[1] for p in all_pts)
    ymax = max(p[1] for p in all_pts)
    span = max(xmax - xmin, ymax - ymin, Fraction(1))
    scale = Fraction(CANVAS - 2 * MARGIN) / span

    def to_canvas(p):
        x = MARGIN + (Fraction(p[0]) - xmin) * scale
        y = CANVAS - MARGIN - (Fraction(p[1]) - ymin) * scale
        return x, y

    out = _header("polygon")
    path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in map(to_canvas, poly.vertices))
    out.append(
        f'<polygon points="{path}" fill="#eef2f8" stroke="#203050" '
        f'stroke-width="1.5"/>'
    )
    if show_lattice:
        for p in lattice_points(poly, 1):
            x, y = to_canvas(p)
            out.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="1.5" fill="#90a0b0"/>'
            )
    for i, hs in enumerate(highlight_sets):
        color = POINT_COLORS[i % len(POINT_COLORS)]
        for p in sorted(tuple(Fraction(x) for x in q) for q in hs):
            x, y = to_canvas(p)
            out.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="6" fill="none" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            out.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.5" fill="{color}"/>'
            )
    for v in poly.vertices:
        x, y = to_canvas(v)
        out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="#203050"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
