"""Structuring sets: finite unions of points, segments, polygons, and discs.

A structuring set is the nonconvex "probe" added in Minkowski dilations.  It
is represented exactly by its generating components; support values, hulls,
diameters, and scalings are all computed from the generators without any
sampling.  Discs are the one curved component and get polygonalized (at a
documented resolution) only where a polygon output is required.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import geom2d
from .errors import DegenerateHull, DegenerateInput, NegativeScale, ZeroDirection
from .geom2d import ConvexPolygon, Polygon, Vec2, _as_vec2

#: Polygonalization resolution for disc components when a polygon is required.
DISC_RESOLUTION = 4096


@functools.lru_cache(maxsize=1)
def _unit_disc() -> np.ndarray:
    """Read-only vertex array of `regular_disc(DISC_RESOLUTION, 1.0)`.  The
    disc of radius r has exactly r times these vertices, so a small disc is
    scaled from it without a polygon of its own to validate."""
    return geom2d.regular_disc(DISC_RESOLUTION, 1.0).array


@dataclass(frozen=True)
class Points:
    """Finite point cloud component."""

    pts: tuple[Vec2, ...]

    def __post_init__(self):
        pts = tuple(_as_vec2(p) for p in self.pts)
        if not pts:
            raise ValueError("point component needs at least one point")
        object.__setattr__(self, "pts", pts)


@dataclass(frozen=True)
class Segment:
    """Closed segment [a, b]; zero length is allowed (degenerate point)."""

    a: Vec2
    b: Vec2

    def __post_init__(self):
        object.__setattr__(self, "a", _as_vec2(self.a))
        object.__setattr__(self, "b", _as_vec2(self.b))


@dataclass(frozen=True)
class Disc:
    center: Vec2
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_vec2(self.center))
        r = float(self.radius)
        if not (math.isfinite(r) and r > 0):
            raise ValueError("disc radius must be positive and finite")
        object.__setattr__(self, "radius", r)


Component = Union[Points, Segment, Polygon, Disc]


@dataclass(frozen=True)
class StructuringSet:
    """Union of components; compact and nonempty by construction."""

    components: tuple[Component, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("structuring set needs at least one component")
        for c in comps:
            if not isinstance(c, (Points, Segment, Polygon, Disc)):
                raise TypeError(f"unsupported component: {type(c).__name__}")
        object.__setattr__(self, "components", comps)


def _component_points(c: Component) -> np.ndarray:
    """Generator points of a component, (n, 2) (disc handled separately by callers)."""
    if isinstance(c, Points):
        return np.array(c.pts)
    if isinstance(c, Segment):
        return np.array((c.a, c.b))
    if isinstance(c, Polygon):
        return c.array
    raise TypeError(type(c).__name__)


def support(N: StructuringSet, u):
    """Support value sup_{x in N} <x, u>; positively homogeneous in u.  `u` is
    one direction (giving a float) or an (m, 2) array of them (m values)."""
    U = np.asarray(u, dtype=float)
    if U.shape[-1:] != (2,) or U.ndim > 2 or not np.isfinite(U).all():
        raise ValueError(f"directions must be finite (x, y) pairs: {u!r}")
    D = U.reshape(-1, 2)
    # np.hypot and math.hypot differ in the last bit on some inputs: np.hypot
    # screens the directions, and math.hypot decides those near TAU
    norm = np.hypot(D[:, 0], D[:, 1])
    near = np.abs(norm - geom2d.TAU) <= 4.0 * np.spacing(geom2d.TAU)
    if (np.count_nonzero((norm <= geom2d.TAU) & ~near)
            or any(math.hypot(x, y) <= geom2d.TAU for x, y in D[near].tolist())):
        raise ZeroDirection("support direction must be nonzero")
    if any(isinstance(c, Disc) for c in N.components):
        # a disc's values take math.hypot's norms
        norm = np.array([math.hypot(x, y) for x, y in D.tolist()])
    best = np.full(len(D), -math.inf)
    for c in N.components:
        if isinstance(c, Disc):
            val = c.center[0] * D[:, 0] + c.center[1] * D[:, 1] + c.radius * norm
        else:  # directions in blocks that keep each product near 2**18 entries
            P = _component_points(c)
            rows = max(1, (1 << 18) // len(P))
            val = np.concatenate([(P[:, 0] * D[k:k + rows, :1] + P[:, 1] * D[k:k + rows, 1:])
                                  .max(axis=1) for k in range(0, len(D), rows)])
        best = np.maximum(best, val)
    return float(best[0]) if U.ndim == 1 else best


def hull(N: StructuringSet) -> ConvexPolygon:
    """Convex hull of the structuring set.

    Disc components are replaced by inscribed DISC_RESOLUTION-gons, so the
    result underestimates curved hulls by O(r / DISC_RESOLUTION^2).  Raises
    DegenerateHull when the set spans less than two dimensions.
    """
    pts = [c.radius * _unit_disc() + c.center if isinstance(c, Disc) else _component_points(c)
           for c in N.components]
    try:
        return geom2d.convex_hull(np.concatenate(pts).tolist())
    except DegenerateInput as exc:
        raise DegenerateHull(str(exc)) from exc


def diameter(N: StructuringSet) -> float:
    """Exact diameter: max pairwise distance between generators, discs as center+radius."""
    gens: list[tuple[Vec2, float]] = []
    for c in N.components:
        if isinstance(c, Disc):
            gens.append((c.center, c.radius))
        else:
            gens.extend((p, 0.0) for p in _component_points(c).tolist())
    return max(math.hypot(p[0] - q[0], p[1] - q[1]) + rp + rq
               for (p, rp), (q, rq) in itertools.combinations_with_replacement(gens, 2))


def scale(N: StructuringSet, factor: float) -> StructuringSet:
    """Homothety x -> factor*x.  factor == 0 collapses to the origin point set."""
    factor = float(factor)
    if factor < 0:
        raise NegativeScale("scale factor must be nonnegative")
    if factor == 0.0:
        return StructuringSet((Points(((0.0, 0.0),)),))
    out: list[Component] = []
    for c in N.components:
        if isinstance(c, Points):
            out.append(Points(tuple((x * factor, y * factor) for x, y in c.pts)))
        elif isinstance(c, Segment):
            out.append(Segment((c.a[0] * factor, c.a[1] * factor),
                               (c.b[0] * factor, c.b[1] * factor)))
        elif isinstance(c, Disc):
            out.append(Disc((c.center[0] * factor, c.center[1] * factor),
                            c.radius * factor))
        else:
            out.append(geom2d.scale_polygon(c, factor))
    return StructuringSet(tuple(out))


def translate_set(N: StructuringSet, t) -> StructuringSet:
    tx, ty = _as_vec2(t)
    out: list[Component] = []
    for c in N.components:
        if isinstance(c, Points):
            out.append(Points(tuple((x + tx, y + ty) for x, y in c.pts)))
        elif isinstance(c, Segment):
            out.append(Segment((c.a[0] + tx, c.a[1] + ty), (c.b[0] + tx, c.b[1] + ty)))
        elif isinstance(c, Disc):
            out.append(Disc((c.center[0] + tx, c.center[1] + ty), c.radius))
        else:
            out.append(geom2d.translate(c, (tx, ty)))
    return StructuringSet(tuple(out))


def recentered(N: StructuringSet) -> StructuringSet:
    """Translate so the measure-weighted centroid sits at the origin.

    Centroids are averaged over the components of the highest dimension
    present (areas beat lengths beat point counts).  This is an explicit
    opt-in; no operation recenters implicitly.
    """
    rows: list[tuple[int, float, Vec2]] = []  # (dim, weight, centroid)
    for c in N.components:
        if isinstance(c, Disc):
            rows.append((2, math.pi * c.radius ** 2, c.center))
        elif isinstance(c, Polygon):
            rows.append((2, geom2d.area(c), geom2d.centroid(c)))
        elif isinstance(c, Segment):
            L = math.hypot(c.b[0] - c.a[0], c.b[1] - c.a[1])
            mid = ((c.a[0] + c.b[0]) / 2, (c.a[1] + c.b[1]) / 2)
            rows.append((1, L, mid) if L > geom2d.TAU else (0, 1.0, mid))
        else:
            k = len(c.pts)
            cx = sum(p[0] for p in c.pts) / k
            cy = sum(p[1] for p in c.pts) / k
            rows.append((0, float(k), (cx, cy)))
    top = max(dim for dim, _, _ in rows)
    wsum = sum(w for dim, w, _ in rows if dim == top)
    cx = sum(w * c[0] for dim, w, c in rows if dim == top) / wsum
    cy = sum(w * c[1] for dim, w, c in rows if dim == top) / wsum
    return translate_set(N, (-cx, -cy))


# ---------------------------------------------------------------------------
# Serialization


def to_dict(N: StructuringSet) -> dict:
    comps = []
    for c in N.components:
        if isinstance(c, Points):
            comps.append({"type": "points", "pts": [[x, y] for x, y in c.pts]})
        elif isinstance(c, Segment):
            comps.append({"type": "segment", "a": list(c.a), "b": list(c.b)})
        elif isinstance(c, Disc):
            comps.append({"type": "disc", "c": list(c.center), "r": c.radius})
        else:
            comps.append({"type": "polygon", "vertices": c.array.tolist()})
    return {"components": comps}


def from_dict(d: dict) -> StructuringSet:
    comps: list[Component] = []
    for item in d["components"]:
        kind = item["type"]
        if kind == "points":
            comps.append(Points(tuple(map(tuple, item["pts"]))))
        elif kind == "segment":
            comps.append(Segment(tuple(item["a"]), tuple(item["b"])))
        elif kind == "disc":
            comps.append(Disc(tuple(item["c"]), item["r"]))
        elif kind == "polygon":
            comps.append(geom2d.polygon_from_dict(item))
        else:
            raise ValueError(f"unknown component type: {kind!r}")
    return StructuringSet(tuple(comps))
