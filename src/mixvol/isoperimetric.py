"""Anisotropic isoperimetric optimizers for segment-generated boundary energies.

Two boundary functionals over convex bodies S, both induced by a family of
segments: the edge energy sums the dilation derivative per segment (minimized
by the zonotope spanned by the family), and the vertex energy uses the union
of the segments as a single structuring set (minimized by the convex hull of
the union, recovered here as a Wulff-type halfspace intersection).  The
figure of merit is the scale-invariant ratio energy / sqrt(area).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geom2d, mixedvol, structuring
from .errors import DegenerateInput, RankDeficient
from .geom2d import ConvexPolygon, Polygon, Vec2, _as_vec2
from .structuring import Segment, StructuringSet


@dataclass(frozen=True)
class SegmentFamily:
    """Nonempty family of nondegenerate segments."""

    segments: tuple[tuple[Vec2, Vec2], ...]

    def __post_init__(self):
        segs = []
        for a, b in self.segments:
            a, b = _as_vec2(a), _as_vec2(b)
            if math.hypot(b[0] - a[0], b[1] - a[1]) <= geom2d.TAU:
                raise ValueError("family segments must have positive length")
            segs.append((a, b))
        if not segs:
            raise ValueError("family needs at least one segment")
        object.__setattr__(self, "segments", tuple(segs))

    def as_structuring_set(self) -> StructuringSet:
        return StructuringSet(tuple(Segment(a, b) for a, b in self.segments))


@dataclass(frozen=True)
class IsoReport:
    """One shape's score against an isoperimetric prediction."""

    functional_value: float
    volume: float
    ratio: float
    predicted_ratio: float


def zonotope(F: SegmentFamily) -> ConvexPolygon:
    """Minkowski sum of the family's segments (a centrally symmetric polygon)
    in closed form.  Its lex-min vertex is the sum of the segments' lex-min
    ends; from there its edges are the 2k vectors +g and -g, g a segment's
    other end minus its lex-min one, in the order of their direction angles
    (a stable sort by `geom2d._pseudo_angle`), summed by `np.cumsum`.
    `ConvexPolygon` merges the collinear vertices of parallel generators.

    Raises RankDeficient when all segments are pairwise parallel.
    """
    vecs = [(b[0] - a[0], b[1] - a[1]) for a, b in F.segments]
    l0 = math.hypot(*vecs[0])
    if all(abs(vecs[0][0] * v[1] - vecs[0][1] * v[0])
           <= geom2d.TAU * l0 * math.hypot(*v) for v in vecs):
        raise RankDeficient("all generating segments are parallel")
    ends = np.array([sorted(s) for s in F.segments])
    g = ends[:, 1] - ends[:, 0]
    E = np.concatenate((g, -g))
    steps = E[np.argsort(geom2d._pseudo_angle(E), kind="stable")]
    start = ends[:, 0].sum(0, keepdims=True)
    return ConvexPolygon(np.cumsum(np.concatenate((start, steps)), axis=0)[:-1])


def _dedupe_close(pts: list[Vec2], tol: float) -> list[Vec2]:
    """Average runs of nearly coincident consecutive vertices (cyclically).

    Support lines that concur at a hull corner intersect pairwise at points
    split only by round-off; collapsing them by distance is the cleanup the
    angular collinearity tolerance cannot do.
    """
    clusters = [[pts[0]]]
    for p in pts[1:]:
        q = clusters[-1][-1]
        if math.hypot(p[0] - q[0], p[1] - q[1]) <= tol:
            clusters[-1].append(p)
        else:
            clusters.append([p])
    if len(clusters) > 1:
        a, b = clusters[0][0], clusters[-1][-1]
        if math.hypot(a[0] - b[0], a[1] - b[1]) <= tol:
            clusters[0] = clusters.pop() + clusters[0]
    return [(sum(p[0] for p in c) / len(c), sum(p[1] for p in c) / len(c))
            for c in clusters]


def wulff_shape(N: StructuringSet, n_dirs: int = 360) -> ConvexPolygon:
    """Intersection of the support halfplanes x.u <= h_N(u) over n_dirs
    uniform directions u.

    Every support line touches hull(N), which lies in every halfplane, and
    neighbouring normals are less than pi apart, so the vertices are the
    crossings of consecutive lines in grid order.  Lines concurring at a hull
    corner repeat a crossing up to round-off; `_dedupe_close` merges those.
    Converges to hull(N) as directions refine; exact (to round-off) whenever
    every hull edge normal lies on the direction grid.
    """
    if n_dirs < 16:
        raise ValueError("need at least 16 directions")
    t = 2.0 * math.pi * np.arange(n_dirs) / n_dirs
    U = np.column_stack((np.cos(t), np.sin(t)))
    h = structuring.support(N, U)
    V, g = np.roll(U, -1, axis=0), np.roll(h, -1)
    # crossing of line j, x.U[j] = h[j], with line j + 1 by Cramer's rule
    det = U[:, 0] * V[:, 1] - V[:, 0] * U[:, 1]
    verts = np.stack(((h * V[:, 1] - g * U[:, 1]) / det,
                      (U[:, 0] * g - V[:, 0] * h) / det), 1)
    verts = _dedupe_close(verts.tolist(), 1e-9 * max(1.0, float(np.abs(verts).max())))
    return geom2d.convex_hull(verts)


def ceip_functional(S: Polygon, F: SegmentFamily) -> float:
    """Edge energy: sum over family segments of the dilation derivative of S."""
    return sum(
        mixedvol.d_boundary_integral(S, StructuringSet((Segment(a, b),))).value
        for a, b in F.segments
    )


def cvip_functional(S: Polygon, N: StructuringSet) -> float:
    """Vertex energy: dilation derivative of S under the full structuring set."""
    return mixedvol.d_boundary_integral(S, N).value


def iso_ratio(S: Polygon, b: float) -> float:
    """Scale-invariant figure of merit b / sqrt(area)."""
    a = geom2d.area(S)
    if a <= 0:
        raise ValueError("shape must have positive area")
    return b / math.sqrt(a)


def random_convex_polygon(rng: np.random.Generator) -> ConvexPolygon:
    """Convex hull of n uniform points in a disc, n drawn from [5, 12]."""
    while True:
        n = int(rng.integers(5, 12 + 1))
        r = np.sqrt(rng.uniform(0.05, 1.0, size=n))
        th = rng.uniform(0.0, 2.0 * math.pi, size=n)
        pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        try:
            return geom2d.convex_hull(pts)
        except DegenerateInput:
            continue  # collinear draw; extremely rare


def shape_suite(seed: int = 2024, count: int = 50) -> tuple[ConvexPolygon, ...]:
    """Deterministic comparison suite: random convex hulls rescaled to unit area."""
    rng = np.random.default_rng(seed)
    shapes = []
    for _ in range(count):
        P = random_convex_polygon(rng)
        s = math.sqrt(1.0 / geom2d.area(P))
        shapes.append(geom2d.scale_polygon(P, s))
    return tuple(shapes)


def evaluate_edge(S: Polygon, F: SegmentFamily,
                  predicted_ratio: float) -> IsoReport:
    b = ceip_functional(S, F)
    return IsoReport(b, geom2d.area(S), iso_ratio(S, b), predicted_ratio)


def evaluate_vertex(S: Polygon, N: StructuringSet,
                    predicted_ratio: float) -> IsoReport:
    b = cvip_functional(S, N)
    return IsoReport(b, geom2d.area(S), iso_ratio(S, b), predicted_ratio)
