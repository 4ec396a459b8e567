"""Planar polygon kernel: hulls, Minkowski sums, exact union areas, grids.

All coordinates are double-precision floats; orientation and intersection
predicates use the absolute tolerance TAU (scaled by operand magnitude where
the quantity is not scale-free).  Every public type is immutable and every
operation is pure, so values can be shared freely across threads.

Conventions: polygons are simple, wound counterclockwise, with positive area.
Region unions are flat tuples of polygon parts, possibly overlapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DegenerateInput, NumericalDegeneracy, ResolutionTooCoarse

TAU = 1e-12

_EPS_MACH = 2.220446049250313e-16

Vec2 = tuple[float, float]


def _as_vec2(p) -> Vec2:
    x, y = float(p[0]), float(p[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"non-finite coordinate: {p!r}")
    return (x, y)


def _shift(V: np.ndarray, k: int) -> np.ndarray:
    """Rows of V moved by k places: row i of the result is V[(i + k) % n]."""
    return np.concatenate((V[k:], V[:k]))


def _cross(o, a, b):
    """Turn of the corner (o, a, b), positive when it turns left.  Points have
    shape (..., 2) and broadcast; a single corner is the shape-(2,) case."""
    oa, ob = np.subtract(a, o), np.subtract(b, o)
    return oa[..., 0] * ob[..., 1] - oa[..., 1] * ob[..., 0]


def _tol(la, lb, scale):
    """Collinearity threshold for a turn with legs la, lb and coordinates up to
    `scale`: TAU radians, floored by the cross product's round-off noise (which
    grows with the coordinate magnitude, not with the leg lengths)."""
    scale = np.maximum(scale, 1e-30)
    return np.maximum(TAU * la * lb, 64.0 * _EPS_MACH * scale * np.maximum(la, lb))


def _turn_tol(o, a, b):
    """`_tol` of the turn (o, a, b); points broadcast as in `_cross`."""
    oa, ab = np.subtract(a, o), np.subtract(b, a)
    m = np.maximum(np.maximum(np.abs(o), np.abs(a)), np.abs(b))
    return _tol(np.hypot(oa[..., 0], oa[..., 1]), np.hypot(ab[..., 0], ab[..., 1]),
                np.maximum(m[..., 0], m[..., 1]))


def _corners(V: np.ndarray):
    """`_cross` and `_turn_tol` at every corner of the closed vertex array V."""
    W = np.concatenate((V[-1:], V, V[:1]))
    E = W[1:] - W[:-1]
    L = np.hypot(E[:, 0], E[:, 1])
    m = np.abs(W)
    m = np.maximum(m[:, 0], m[:, 1])
    scale = np.maximum(np.maximum(m[:-2], m[1:-1]), m[2:])
    return _cross(W[:-2], V, W[2:]), _tol(L[:-1], L[1:], scale)


def _vertex_array(vertices) -> np.ndarray:
    """Polygon vertices as an (n, 2) float array: finite, with n >= 3."""
    V = np.asarray(vertices, dtype=float)
    if V.ndim != 2 or V.shape[1] != 2 or len(V) < 3:
        raise ValueError("polygon needs at least 3 vertices, each an (x, y) pair")
    if np.count_nonzero(np.isfinite(V)) < V.size:
        raise ValueError("non-finite coordinate")
    return V


def _vertex_tuple(V: np.ndarray) -> tuple[Vec2, ...]:
    return tuple(map(tuple, V.tolist()))


def _signed_area(verts) -> float:
    V = np.asarray(verts, dtype=float)
    W = _shift(V, 1)
    # Python's sum adds left to right; np.sum pairs terms and moves last bits
    return 0.5 * sum((V[:, 0] * W[:, 1] - W[:, 0] * V[:, 1]).tolist())


def _is_simple(verts) -> bool:
    """No two non-adjacent edges cross properly (TAU sign tests on all four
    orientations).  All edge pairs are tested with numpy, in blocks of rows
    that keep each temporary array near 2**18 entries at any n."""
    a = np.asarray(verts, dtype=float)
    b = _shift(a, 1)
    n = len(a)
    j = np.arange(n)

    def straddles(d1, d2):
        return ((d1 > TAU) & (d2 < -TAU)) | ((d1 < -TAU) & (d2 > TAU))

    rows = max(1, (1 << 18) // n)
    for lo in range(0, n, rows):
        i = j[lo:lo + rows, None]
        p1, p2 = a[i], b[i]
        cross = (straddles(_cross(a, b, p1), _cross(a, b, p2))
                 & straddles(_cross(p1, p2, a), _cross(p1, p2, b)))
        # pairs j > i only; edges sharing a vertex never count
        cross &= (j > i + 1) & ~((i == 0) & (j == n - 1))
        if cross.any():
            return False
    return True


@dataclass(frozen=True)
class Polygon:
    """Simple polygon with counterclockwise boundary and positive area."""

    vertices: tuple[Vec2, ...]

    def __post_init__(self):
        V = _vertex_array(self.vertices)
        gap = np.abs(_shift(V, 1) - V)
        if ((gap[:, 0] <= TAU) & (gap[:, 1] <= TAU)).any():
            raise ValueError("consecutive duplicate vertices")
        if _signed_area(V) <= TAU:
            raise ValueError("vertices must wind counterclockwise with positive area")
        if not _is_simple(V):
            raise ValueError("boundary is self-intersecting")
        object.__setattr__(self, "vertices", _vertex_tuple(V))


def _merge_collinear(V: np.ndarray):
    """Drop vertices interior to straight runs, each round testing every
    corner of the last; returns the remaining vertices and their `_corners`."""
    c, tol = _corners(V)
    while len(V) > 3:
        keep = np.abs(c) > tol
        if np.count_nonzero(keep) == len(V):
            break
        V = V[keep]
        c, tol = _corners(V)
    return V, c, tol


def _lex_first(V: np.ndarray) -> np.ndarray:
    """V rotated to start at its lex-min vertex."""
    return _shift(V, int(np.lexsort((V[:, 1], V[:, 0]))[0]))


def _winds_once(R: np.ndarray) -> bool:
    """Whether R, turning left at every corner from its lex-min vertex, winds
    once: its x-coordinates rise, then fall.  A star polygon (five corners or
    more) winds twice or more, and its x-direction reverses more often."""
    if len(R) < 5:
        return True
    s = np.sign(R[1:, 0] - R[:-1, 0])
    s = s[s != 0.0]
    return np.count_nonzero(s[1:] != s[:-1]) <= 1


def _is_convex_position(verts) -> bool:
    """Every corner turns left (within `_turn_tol`) and the boundary winds once
    (read after merging: a vertex just off a vertical edge reverses x twice)."""
    V = np.asarray(verts, dtype=float)
    c, tol = _corners(V)
    M = _merge_collinear(V)[0]  # fewer than 3 left: not a polygon, ConvexPolygon refuses it
    return not np.count_nonzero(c < -tol) and (len(M) < 3 or _winds_once(_lex_first(M)))


@dataclass(frozen=True)
class ConvexPolygon(Polygon):
    """Polygon with every vertex extreme; canonical start at the lex-min vertex."""

    def __post_init__(self):
        V, c, tol = _merge_collinear(_vertex_array(self.vertices))
        if len(V) < 3 or _signed_area(V) <= TAU:
            raise ValueError("vertices must wind counterclockwise with positive area")
        R = _lex_first(V)
        if np.count_nonzero(c < -tol) or not _winds_once(R):
            raise ValueError("vertices are not in convex position")
        object.__setattr__(self, "vertices", _vertex_tuple(R))


@dataclass(frozen=True)
class RegionUnion:
    """Finite union of polygon parts; parts may overlap."""

    parts: tuple[Polygon, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("region union needs at least one part")
        for p in parts:
            if not isinstance(p, Polygon):
                raise TypeError("region parts must be polygons")
        object.__setattr__(self, "parts", parts)


@dataclass(frozen=True, eq=False)
class GridRegion:
    """Axis-aligned occupancy grid over a bounding box (internal, not serialized)."""

    dimension: int
    origin: tuple[float, ...]
    cell: float
    occupancy: np.ndarray  # boolean, shape = cell counts per axis


def area(P: Polygon) -> float:
    """Enclosed area by the shoelace formula (positive for CCW input)."""
    return _signed_area(P.vertices)


def perimeter(P: Polygon) -> float:
    V = np.asarray(P.vertices)
    E = _shift(V, 1) - V
    return sum(np.hypot(E[:, 0], E[:, 1]).tolist())


def centroid(P: Polygon) -> Vec2:
    """Area centroid."""
    V = np.asarray(P.vertices)
    W = _shift(V, 1)
    w = V[:, 0] * W[:, 1] - W[:, 0] * V[:, 1]
    acc = 0.5 * sum(w.tolist())
    cx = sum(((V[:, 0] + W[:, 0]) * w).tolist())
    cy = sum(((V[:, 1] + W[:, 1]) * w).tolist())
    return (cx / (6.0 * acc), cy / (6.0 * acc))


def translate(P: Polygon, t) -> Polygon:
    return type(P)(np.asarray(P.vertices) + _as_vec2(t))


def scale_polygon(P: Polygon, s: float) -> Polygon:
    if s <= 0:
        raise ValueError("scale factor must be positive")
    return type(P)(np.asarray(P.vertices) * s)


def unit_area_centered(P: Polygon) -> Polygon:
    """P scaled to unit area and translated so its centroid is the origin."""
    out = scale_polygon(P, 1.0 / math.sqrt(area(P)))
    cx, cy = centroid(out)
    return translate(out, (-cx, -cy))


def convex_hull(points: Iterable) -> ConvexPolygon:
    """Convex hull by monotone chain; collinear boundary points are merged.

    Raises DegenerateInput when the hull would be a point or segment.
    """
    pts = np.array(sorted({_as_vec2(p) for p in points}))
    if len(pts) < 3:
        raise DegenerateInput("need at least 3 distinct points")

    # no turn's tolerance exceeds twice that of two legs as long as the box
    # diagonal, so only turns between 0 and this bound need their own
    diag = np.hypot(*(pts.max(0) - pts.min(0)))
    bound = 2.0 * _tol(diag, diag, np.abs(pts).max())

    def chain(seq):
        out: list[np.ndarray] = []
        for p in seq:
            while len(out) >= 2 and ((c := _cross(out[-2], out[-1], p)) <= 0.0 or (
                    c <= bound and c <= _turn_tol(out[-2], out[-1], p))):
                out.pop()
            out.append(p)
        return out

    verts = chain(pts)[:-1] + chain(pts[::-1])[:-1]
    if len(verts) < 3:
        raise DegenerateInput("points are collinear; hull is a point or segment")
    return ConvexPolygon(np.array(verts))


# ---------------------------------------------------------------------------
# Minkowski sums


def _rotate_to_bottom(verts: Sequence[Vec2]) -> list[Vec2]:
    k = min(range(len(verts)), key=lambda i: (verts[i][1], verts[i][0]))
    return list(verts[k:]) + list(verts[:k])


def _minkowski_chain(vp: Sequence[Vec2], vq: Sequence[Vec2]) -> list[Vec2]:
    """Vertices of the sum of two convex CCW chains (chains of length 2 allowed).

    Both walks start at their bottom vertex, so their edge directions turn
    monotonically through [0, 2pi) and the two current edges are less than pi
    apart: the sign of their cross product orders them, with no angles.
    Edges parallel within TAU radians are merged when they point the same
    way; an antiparallel pair only arises when vp's edge runs along the
    first half of a length-2 chain vq, so vp's edge goes first.
    """
    vp = _rotate_to_bottom(vp)
    vq = _rotate_to_bottom(vq)
    ep = [(vp[(i + 1) % len(vp)][0] - vp[i][0], vp[(i + 1) % len(vp)][1] - vp[i][1])
          for i in range(len(vp))]
    eq = [(vq[(i + 1) % len(vq)][0] - vq[i][0], vq[(i + 1) % len(vq)][1] - vq[i][1])
          for i in range(len(vq))]
    cur = (vp[0][0] + vq[0][0], vp[0][1] + vq[0][1])
    out = [cur]
    i = j = 0
    while i < len(ep) or j < len(eq):
        if j >= len(eq):
            step = ep[i]; i += 1
        elif i >= len(ep):
            step = eq[j]; j += 1
        else:
            (px, py), (qx, qy) = ep[i], eq[j]
            c = px * qy - py * qx
            parallel = c * c <= TAU * TAU * (px * px + py * py) * (qx * qx + qy * qy)
            if parallel and px * qx + py * qy > 0.0:
                step = (px + qx, py + qy); i += 1; j += 1
            elif parallel or c > 0.0:
                step = ep[i]; i += 1
            else:
                step = eq[j]; j += 1
        cur = (cur[0] + step[0], cur[1] + step[1])
        out.append(cur)
    return out[:-1]  # closing vertex duplicates the start


def minkowski_convex(P: ConvexPolygon, Q: ConvexPolygon) -> ConvexPolygon:
    """Minkowski sum of convex polygons by merging edge fans; O(n+m)."""
    if not isinstance(P, ConvexPolygon) or not isinstance(Q, ConvexPolygon):
        raise TypeError("minkowski_convex expects convex polygons")
    return ConvexPolygon(tuple(_minkowski_chain(P.vertices, Q.vertices)))


def triangulate(P: Polygon) -> list[tuple[Vec2, Vec2, Vec2]]:
    """Ear-clipping triangulation of a simple CCW polygon."""
    V = np.asarray(P.vertices)
    tris: list[tuple[Vec2, Vec2, Vec2]] = []
    while len(V) > 3:
        c, tol = (x.tolist() for x in _corners(V))
        for i in range(len(V)):
            # a straight (or folded) corner is dropped with no triangle
            if abs(c[i]) <= tol[i]:
                break
            if c[i] < 0:
                continue
            # a vertex q blocks the ear T = (o, a, b) when (o, a, q), (a, b, q)
            # and (b, o, q) all turn left, unless q is a copy of o, a or b
            Q = V.take((i - 1, i, i + 1, i - 1), axis=0, mode="wrap")
            T = Q[:3]
            inside = (_cross(T, Q[1:], V[:, None]) >= -tol[i]).all(1)
            inside[[i - 1, i, (i + 1) % len(V)]] = False
            if not np.count_nonzero(inside) or (V[inside][:, None] == T).all(2).any(1).all():
                tris.append(_vertex_tuple(T))
                break
        else:
            raise NumericalDegeneracy("ear clipping failed; polygon may be degenerate")
        V = np.concatenate((V[:i], V[i + 1:]))
    tris.append(_vertex_tuple(V))
    return tris


def convex_parts(P: Polygon) -> list[ConvexPolygon]:
    """P as convex pieces whose union is P: P itself when its vertices are in
    convex position, else its ear-clipping triangles."""
    if isinstance(P, ConvexPolygon):
        return [P]
    if _is_convex_position(P.vertices):
        return [ConvexPolygon(P.vertices)]
    return [ConvexPolygon(t) for t in triangulate(P)]


def minkowski_segment(P: Polygon, a, b) -> RegionUnion:
    """Minkowski sum of a polygon with the segment [a, b], one convex part per
    piece of `convex_parts(P)` (the union of the parts is the exact sum).
    A zero-length segment degenerates to a translation of those pieces.
    """
    a = _as_vec2(a)
    b = _as_vec2(b)
    pieces = convex_parts(P)
    if math.hypot(b[0] - a[0], b[1] - a[1]) <= TAU:
        return RegionUnion(tuple(translate(piece, a) for piece in pieces))
    return RegionUnion(tuple(ConvexPolygon(tuple(_minkowski_chain(piece.vertices, (a, b))))
                             for piece in pieces))


# ---------------------------------------------------------------------------
# Exact union area via slab decomposition of the edge overlay


def _monotone_chains(verts: Sequence[Vec2]):
    """Split a convex CCW polygon into lower/upper chains as functions of x."""
    n = len(verts)
    imin = min(range(n), key=lambda i: verts[i])
    imax = max(range(n), key=lambda i: verts[i])
    lower: list[Vec2] = []
    i = imin
    while True:
        lower.append(verts[i])
        if i == imax:
            break
        i = (i + 1) % n
    upper: list[Vec2] = []
    i = imax
    while True:
        upper.append(verts[i])
        if i == imin:
            break
        i = (i + 1) % n
    upper.reverse()

    def dedup(chain, keep_low):
        out: list[Vec2] = []
        for p in chain:
            if out and abs(p[0] - out[-1][0]) <= TAU:
                if (p[1] < out[-1][1]) == keep_low:
                    out[-1] = p
            else:
                out.append(p)
        return out

    lo = dedup(lower, True)
    hi = dedup(upper, False)
    xs_lo = np.array([p[0] for p in lo])
    ys_lo = np.array([p[1] for p in lo])
    xs_hi = np.array([p[0] for p in hi])
    ys_hi = np.array([p[1] for p in hi])
    return xs_lo, ys_lo, xs_hi, ys_hi


def _chain_crossings(xs1, ys1, xs2, ys2) -> list[float]:
    """x-coordinates where two piecewise-linear chains cross transversally."""
    a = max(xs1[0], xs2[0])
    b = min(xs1[-1], xs2[-1])
    if b - a <= TAU:
        return []
    bp = np.unique(np.clip(np.concatenate([xs1, xs2]), a, b))
    f = np.interp(bp, xs1, ys1) - np.interp(bp, xs2, ys2)
    s = np.sign(f)
    flips = np.nonzero(s[:-1] * s[1:] < 0)[0]
    out = []
    for t in flips:
        denom = f[t] - f[t + 1]
        out.append(float(bp[t] + (bp[t + 1] - bp[t]) * f[t] / denom))
    return out


def _convex_union_area(parts: list[Sequence[Vec2]]) -> float:
    chains = []
    boxes = []
    for verts in parts:
        xs_lo, ys_lo, xs_hi, ys_hi = _monotone_chains(verts)
        chains.append((xs_lo, ys_lo, xs_hi, ys_hi))
        ys = [p[1] for p in verts]
        boxes.append((float(xs_lo[0]), float(xs_lo[-1]), min(ys), max(ys)))

    events = [np.array([p[0] for p in verts]) for verts in parts]
    k = len(parts)
    for i in range(k):
        for j in range(i + 1, k):
            bi, bj = boxes[i], boxes[j]
            if bi[1] <= bj[0] or bj[1] <= bi[0] or bi[3] <= bj[2] or bj[3] <= bi[2]:
                continue
            ci, cj = chains[i], chains[j]
            xs = []
            for c1 in (ci[:2], ci[2:]):
                for c2 in (cj[:2], cj[2:]):
                    xs.extend(_chain_crossings(c1[0], c1[1], c2[0], c2[1]))
            if xs:
                events.append(np.array(xs))

    xs = np.unique(np.concatenate(events))
    if xs.size < 2:
        raise NumericalDegeneracy("union has no horizontal extent")
    mids = 0.5 * (xs[:-1] + xs[1:])
    widths = np.diff(xs)
    S = mids.size
    lo = np.full((S, k), np.inf)
    hi = np.full((S, k), -np.inf)
    for idx, (xs_lo, ys_lo, xs_hi, ys_hi) in enumerate(chains):
        mask = (mids > xs_lo[0]) & (mids < xs_lo[-1])
        if mask.any():
            lo[mask, idx] = np.interp(mids[mask], xs_lo, ys_lo)
            hi[mask, idx] = np.interp(mids[mask], xs_hi, ys_hi)

    order = np.argsort(lo, axis=1)
    lo = np.take_along_axis(lo, order, axis=1)
    hi = np.take_along_axis(hi, order, axis=1)
    acc = np.zeros(S)
    cur = np.full(S, -np.inf)
    with np.errstate(invalid="ignore"):
        for j in range(k):
            start = np.maximum(lo[:, j], cur)
            gain = hi[:, j] - start
            acc += np.where(gain > 0.0, gain, 0.0)
            cur = np.maximum(cur, hi[:, j])
    total = float(np.dot(acc, widths))
    if not math.isfinite(total):
        raise NumericalDegeneracy("union area integration produced non-finite value")
    return total


def union_area(region: RegionUnion) -> float:
    """Exact area of a union of polygon parts.

    The slab decomposition's events are exactly the overlay vertices (part
    vertices plus pairwise edge crossings), so between events the interval
    structure is constant and midpoint evaluation integrates each trapezoid
    exactly.  Nonconvex parts are split by `convex_parts` first.
    """
    return _convex_union_area([piece.vertices for part in region.parts
                               for piece in convex_parts(part)])


# ---------------------------------------------------------------------------
# Grids


def _apply_indicator(indicator: Callable, pts: np.ndarray) -> np.ndarray:
    try:
        res = np.asarray(indicator(pts))
        if res.shape == (pts.shape[0],):
            return res.astype(bool)
    except Exception:
        pass
    return np.fromiter((bool(indicator(p)) for p in pts), dtype=bool, count=len(pts))


def rasterize(indicator: Callable, bounds: Sequence[tuple[float, float]],
              h: float) -> GridRegion:
    """Sample an indicator on cell centers of a uniform grid over `bounds`."""
    if h <= 0:
        raise ValueError("cell size must be positive")
    d = len(bounds)
    if d not in (2, 3):
        raise ValueError("bounds must describe a 2D or 3D box")
    counts = []
    origin = []
    for lo, hi in bounds:
        lo, hi = float(lo), float(hi)
        if not hi > lo:
            raise ValueError("empty bounds")
        counts.append(max(1, int(math.ceil((hi - lo) / h - 1e-9))))
        origin.append(lo)
    axes = [origin[i] + (np.arange(counts[i]) + 0.5) * h for i in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    occ = _apply_indicator(indicator, pts).reshape(counts)
    return GridRegion(d, tuple(origin), h, occ)


def grid_volume(indicator: Callable, bounds: Sequence[tuple[float, float]],
                h: float) -> tuple[float, float]:
    """Monte-Carlo-free volume estimate: occupied cells times cell volume.

    Returns (estimate, error_bound) where the bound is the total volume of
    cells adjacent to an occupancy transition.  Raises ResolutionTooCoarse
    when boundary cells exceed half of the occupied cells.
    """
    grid = rasterize(indicator, bounds, h)
    occ = grid.occupancy
    d = grid.dimension
    cellvol = h ** d
    n_occ = int(occ.sum())
    boundary = np.zeros_like(occ)
    for axis in range(d):
        trans = np.diff(occ, axis=axis) != 0
        idx_lo = [slice(None)] * d
        idx_hi = [slice(None)] * d
        idx_lo[axis] = slice(0, -1)
        idx_hi[axis] = slice(1, None)
        boundary[tuple(idx_lo)] |= trans
        boundary[tuple(idx_hi)] |= trans
    n_bnd = int(boundary.sum())
    if n_occ and n_bnd > 0.5 * (n_occ + n_bnd):
        raise ResolutionTooCoarse(
            f"boundary cells ({n_bnd}) dominate occupied cells ({n_occ}); shrink h"
        )
    return n_occ * cellvol, n_bnd * cellvol


def regular_disc(n: int, r: float) -> ConvexPolygon:
    """Inscribed regular n-gon model of the disc of radius r (area (n/2) r^2 sin(2pi/n))."""
    if n < 3:
        raise ValueError("need at least 3 vertices")
    if r <= 0:
        raise ValueError("radius must be positive")
    verts = tuple(
        (r * math.cos(2.0 * math.pi * k / n), r * math.sin(2.0 * math.pi * k / n))
        for k in range(n)
    )
    return ConvexPolygon(verts)


# ---------------------------------------------------------------------------
# Point queries and distances


def point_in_polygon(p, P: Polygon) -> bool:
    """Even-odd test; boundary points count as inside."""
    p = np.array(_as_vec2(p))
    V = np.asarray(P.vertices)
    W = _shift(V, 1)
    E = W - V
    near = ((np.minimum(V, W) - TAU <= p) & (p <= np.maximum(V, W) + TAU)).all(1)
    on_edge = near & (np.abs(_cross(V, W, p))
                      <= TAU * np.maximum(1.0, np.hypot(E[:, 0], E[:, 1])))
    return bool(on_edge.any() or points_in_polygon(p[None], P)[0])


def points_in_polygon(pts: np.ndarray, P: Polygon) -> np.ndarray:
    """Vectorized even-odd test for an (N, 2) array (boundary not special-cased)."""
    x = pts[:, 0]
    y = pts[:, 1]
    verts = P.vertices
    n = len(verts)
    inside = np.zeros(len(pts), dtype=bool)
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        cond = (y0 > y) != (y1 > y)
        if y1 != y0:
            xi = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
            inside ^= cond & (xi > x)
    return inside


def _point_segment_distance(p: Vec2, a: Vec2, b: Vec2) -> float:
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 <= TAU * TAU:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / L2))
    return math.hypot(px - ax - t * dx, py - ay - t * dy)


def polygon_distance(p, P: Polygon) -> float:
    """Distance from a point to the (filled) polygon; 0 inside."""
    p = _as_vec2(p)
    if point_in_polygon(p, P):
        return 0.0
    verts = P.vertices
    n = len(verts)
    return min(
        _point_segment_distance(p, verts[i], verts[(i + 1) % n]) for i in range(n)
    )


def hausdorff_convex(P: ConvexPolygon, Q: ConvexPolygon) -> float:
    """Exact Hausdorff distance between convex polygons (attained at vertices)."""
    d1 = max(polygon_distance(v, Q) for v in P.vertices)
    d2 = max(polygon_distance(v, P) for v in Q.vertices)
    return max(d1, d2)


def ray_exit(origin, direction, region: RegionUnion) -> float:
    """Largest ray parameter at which the ray still meets the region boundary.

    Returns 0.0 when the ray never meets the region beyond its origin.
    """
    ox, oy = _as_vec2(origin)
    dx, dy = _as_vec2(direction)
    best = 0.0
    for part in region.parts:
        A = np.asarray(part.vertices)
        E = _shift(A, 1) - A
        denom = dx * E[:, 1] - dy * E[:, 0]
        crossing = np.abs(denom) > TAU
        A, E, denom = A[crossing], E[crossing], denom[crossing]
        s = ((A[:, 0] - ox) * E[:, 1] - (A[:, 1] - oy) * E[:, 0]) / denom
        t = (dy * (A[:, 0] - ox) - dx * (A[:, 1] - oy)) / denom
        best = max([best] + s[(-1e-9 <= t) & (t <= 1.0 + 1e-9)].tolist())
    return best


# ---------------------------------------------------------------------------
# Serialization


def polygon_to_dict(P: Polygon) -> dict:
    return {"vertices": [[x, y] for x, y in P.vertices]}


def polygon_from_dict(d: dict) -> Polygon:
    V = _vertex_array(d["vertices"])
    if _is_convex_position(V):
        try:
            return ConvexPolygon(V)
        except ValueError:
            pass
    return Polygon(V)
