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
from .errors import EmptyIntersection, RankDeficient
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
    """Minkowski sum of the family's segments (a centrally symmetric polygon).

    Raises RankDeficient when all segments are pairwise parallel.
    """
    vecs = [(b[0] - a[0], b[1] - a[1]) for a, b in F.segments]
    l0 = math.hypot(*vecs[0])
    if all(abs(vecs[0][0] * v[1] - vecs[0][1] * v[0])
           <= geom2d.TAU * l0 * math.hypot(*v) for v in vecs):
        raise RankDeficient("all generating segments are parallel")
    # orient every generator into the upper half-plane, then walk by angle
    ups = []
    for vx, vy in vecs:
        if vy < 0 or (vy == 0 and vx < 0):
            vx, vy = -vx, -vy
        ups.append((vx, vy))
    ups.sort(key=lambda v: math.atan2(v[1], v[0]))
    cx = sum((a[0] + b[0]) / 2 for a, b in F.segments)
    cy = sum((a[1] + b[1]) / 2 for a, b in F.segments)
    sx = sum(v[0] for v in ups)
    sy = sum(v[1] for v in ups)
    cur = (cx - sx / 2, cy - sy / 2)
    verts = [cur]
    for vx, vy in ups:
        cur = (cur[0] + vx, cur[1] + vy)
        verts.append(cur)
    for vx, vy in ups[:-1]:
        cur = (cur[0] - vx, cur[1] - vy)
        verts.append(cur)
    return ConvexPolygon(tuple(verts))


def _halfplane_intersection(lines: list[tuple[float, float, float]]) -> list[Vec2]:
    """Vertices of the intersection of halfplanes x*u <= h.

    `lines` holds (ux, uy, h) with unit normals sorted by angle and covering
    all directions (bounded intersection).  Deque algorithm, O(n).
    """

    def inter(l1, l2) -> Vec2:
        (a1, b1, c1), (a2, b2, c2) = l1, l2
        det = a1 * b2 - a2 * b1
        if abs(det) <= geom2d.TAU:
            raise EmptyIntersection("parallel support lines cannot close a body")
        return ((c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det)

    def violates(p: Vec2, line) -> bool:
        ux, uy, h = line
        return p[0] * ux + p[1] * uy > h + 1e-9 * max(1.0, abs(h))

    dq: list[tuple[float, float, float]] = []
    for line in lines:
        while len(dq) >= 2 and violates(inter(dq[-2], dq[-1]), line):
            dq.pop()
        while len(dq) >= 2 and violates(inter(dq[0], dq[1]), line):
            dq.pop(0)
        dq.append(line)
    while len(dq) >= 3 and violates(inter(dq[-2], dq[-1]), dq[0]):
        dq.pop()
    while len(dq) >= 3 and violates(inter(dq[0], dq[1]), dq[-1]):
        dq.pop(0)
    if len(dq) < 3:
        raise EmptyIntersection("halfplane intersection has no interior")
    return [inter(dq[i], dq[(i + 1) % len(dq)]) for i in range(len(dq))]


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
    """Intersection of support halfplanes of N over n_dirs uniform directions.

    Converges to hull(N) as directions refine; exact (to round-off) whenever
    every hull edge normal lies on the direction grid.
    """
    if n_dirs < 16:
        raise ValueError("need at least 16 directions")
    angles = [2.0 * math.pi * j / n_dirs for j in range(n_dirs)]
    U = [(math.cos(th), math.sin(th)) for th in angles]
    lines = [(ux, uy, h) for (ux, uy), h in zip(U, structuring.support(N, U).tolist())]
    verts = _halfplane_intersection(lines)
    scale = max(max(abs(x), abs(y)) for x, y in verts)
    verts = _dedupe_close(verts, 1e-9 * max(1.0, scale))
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


def random_convex_polygon(rng: np.random.Generator, n_lo: int = 5,
                          n_hi: int = 12) -> ConvexPolygon:
    """Convex hull of n uniform points in a disc, n drawn from [n_lo, n_hi]."""
    while True:
        n = int(rng.integers(n_lo, n_hi + 1))
        r = np.sqrt(rng.uniform(0.05, 1.0, size=n))
        th = rng.uniform(0.0, 2.0 * math.pi, size=n)
        pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        try:
            return geom2d.convex_hull(pts)
        except Exception:
            continue  # collinear draw; extremely rare


def shape_suite(seed: int = 2024, count: int = 50,
                reference_area: float = 1.0) -> tuple[ConvexPolygon, ...]:
    """Deterministic comparison suite: random convex hulls rescaled to one area."""
    rng = np.random.default_rng(seed)
    shapes = []
    for _ in range(count):
        P = random_convex_polygon(rng)
        s = math.sqrt(reference_area / geom2d.area(P))
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
