"""Static SVG rendering for shapes and lattice witnesses.

Pure string building, math orientation (y up).  Geometry coordinates are
written with full precision; styling is presentation-only.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

Vec2 = tuple[float, float]


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def polygon_element(vertices: Sequence[Vec2], stroke: str = "#1f77b4") -> str:
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in vertices)
    return (f'<polygon points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_fmt(0.01)}" />')


def points_element(points: Iterable[Vec2], radius: float = 0.02) -> str:
    circles = [f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius)}" '
               f'fill="#d62728" />' for x, y in points]
    return "\n".join(circles)


def document(elements: Sequence[str], bounds: tuple[float, float, float, float]) -> str:
    """Wrap elements in an <svg>, 480 wide, with a y-flipped viewBox around `bounds`.

    `bounds` is (xmin, ymin, xmax, ymax) in math coordinates; a 5% margin is
    added.  The group transform flips y so inputs stay in math orientation.
    """
    xmin, ymin, xmax, ymax = bounds
    w = xmax - xmin
    h = ymax - ymin
    if w <= 0 or h <= 0:
        raise ValueError("bounds must have positive extent")
    m = 0.05 * max(w, h)
    vb = (xmin - m, -(ymax + m), w + 2 * m, h + 2 * m)
    size = 480
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{size}" height="{math.ceil(size * vb[3] / vb[2])}" '
             f'viewBox="{_fmt(vb[0])} {_fmt(vb[1])} {_fmt(vb[2])} {_fmt(vb[3])}">',
             '<g transform="scale(1,-1)">']
    lines.extend(elements)
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def fit_bounds(point_sets: Iterable[Iterable[Vec2]]) -> tuple[float, float, float, float]:
    xs: list[float] = []
    ys: list[float] = []
    for pts in point_sets:
        for x, y in pts:
            xs.append(float(x))
            ys.append(float(y))
    if not xs:
        raise ValueError("no points to bound")
    return min(xs), min(ys), max(xs), max(ys)
