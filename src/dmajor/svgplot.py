"""SVG rendering of 3-dimensional trace-plane polytopes.

Points on the plane {x : x_1 + x_2 + x_3 = T} are drawn in barycentric
coordinates with respect to the scaled simplex with corners T e_1, T e_2,
T e_3; the three corners map to fixed canvas positions and every other
point is placed by affine interpolation, so points outside the simplex
land outside the triangle.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import Permutation, RVec
from .halfspace import VPolytope

CANVAS_W = 800
CANVAS_H = 700
CORNERS = (
    (Fraction(400), Fraction(80)),   # T e_1
    (Fraction(80), Fraction(620)),   # T e_2
    (Fraction(720), Fraction(620)),  # T e_3
)


def project(x: RVec, trace: Fraction) -> tuple[Fraction, Fraction]:
    """Exact barycentric placement of a trace-plane point on the canvas."""
    if len(x) != 3:
        raise ValueError("projection is defined for dimension 3 only")
    if trace == 0:
        raise ValueError("projection needs a nonzero trace value")
    px = py = Fraction(0)
    for i in range(3):
        w = x[i] / trace
        px += w * CORNERS[i][0]
        py += w * CORNERS[i][1]
    return px, py


def _fmt(v: Fraction) -> str:
    return f"{float(v):.2f}"


def _polygon_order(points: list[tuple[Fraction, Fraction]]) -> list[int]:
    if len(points) <= 2:
        return list(range(len(points)))
    cx = sum((p[0] for p in points), Fraction(0)) / len(points)
    cy = sum((p[1] for p in points), Fraction(0)) / len(points)
    return sorted(
        range(len(points)),
        key=lambda i: math.atan2(float(points[i][1] - cy), float(points[i][0] - cx)),
    )


def render_polytope_svg(
    poly: VPolytope,
    labels: list[Permutation],
    trace: Fraction,
    title: str = "",
) -> str:
    """Simplex outline, polytope polygon and labelled vertices as SVG text.

    ``labels[i]`` is the permutation whose corner is ``poly.vertices[i]``.
    """
    projected = [project(v, trace) for v in poly.vertices]
    order = _polygon_order(projected)

    xs = [p[0] for p in projected] + [c[0] for c in CORNERS]
    ys = [p[1] for p in projected] + [c[1] for c in CORNERS]
    pad = Fraction(60)
    min_x, max_x = min(xs) - pad, max(xs) + pad
    min_y, max_y = min(ys) - pad, max(ys) + pad

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_W}" height="{CANVAS_H}" '
        f'viewBox="{_fmt(min_x)} {_fmt(min_y)} {_fmt(max_x - min_x)} {_fmt(max_y - min_y)}">'
    ]
    if title:
        parts.append(
            f'<text x="{_fmt(min_x + pad / 2)}" y="{_fmt(min_y + pad / 2)}" '
            f'font-size="18" font-family="sans-serif">{title}</text>'
        )

    simplex_pts = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in CORNERS)
    parts.append(
        f'<polygon points="{simplex_pts}" fill="none" stroke="#888" stroke-width="1.5"/>'
    )
    corner_names = ("T·e1", "T·e2", "T·e3")
    offsets = ((0, -12), (-34, 18), (10, 18))
    for (px, py), name, (dx, dy) in zip(CORNERS, corner_names, offsets):
        parts.append(
            f'<text x="{_fmt(px + dx)}" y="{_fmt(py + dy)}" font-size="14" '
            f'font-family="sans-serif" fill="#555">{name}</text>'
        )

    poly_pts = " ".join(
        f"{_fmt(projected[i][0])},{_fmt(projected[i][1])}" for i in order
    )
    parts.append(
        f'<polygon points="{poly_pts}" fill="#4a90d9" fill-opacity="0.35" '
        f'stroke="#1c5a99" stroke-width="2"/>'
    )

    for sigma, (px, py) in zip(labels, projected, strict=True):
        parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" fill="#1c5a99"/>')
        parts.append(
            f'<text x="{_fmt(px + 7)}" y="{_fmt(py - 7)}" font-size="12" '
            f'font-family="sans-serif">σ={sigma.one_based()}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts)
