"""Structuring sets: finite unions of points, segments, polygons, and discs.

A structuring set is the nonconvex "probe" added in Minkowski dilations.  It
is represented exactly by its generating components; support values and
hulls are computed from the generators without any sampling.  Discs are
the one curved component and get polygonalized (at a documented
resolution) only where a polygon output is required.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import geom2d
from .errors import DegenerateHull, DegenerateInput, ZeroDirection
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
        try:
            r = float(self.radius)
        except TypeError:  # not a number: refused below, as a nan is
            r = math.nan
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
    """The set `to_dict` wrote; ValueError (or KeyError, for a missing key)
    where `d` is not of that shape."""
    items = d.get("components") if isinstance(d, dict) else None
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise ValueError("a structuring set is {'components': [...]}, a list of objects")
    comps: list[Component] = []
    for item in items:
        kind = item["type"]
        if kind == "points":
            if not isinstance(item["pts"], list):
                raise ValueError(f"'pts' must be a list of points: {item['pts']!r}")
            comps.append(Points(tuple(item["pts"])))
        elif kind == "segment":
            comps.append(Segment(item["a"], item["b"]))
        elif kind == "disc":
            comps.append(Disc(item["c"], item["r"]))
        elif kind == "polygon":
            comps.append(geom2d.polygon_from_dict(item))
        else:
            raise ValueError(f"unknown component type: {kind!r}")
    return StructuringSet(tuple(comps))
