"""Planar polygon kernel: hulls, Minkowski sums, exact union areas, grids.

All coordinates are double-precision floats; orientation and intersection
predicates use the absolute tolerance TAU (scaled by operand magnitude where
the quantity is not scale-free).  Every public type is immutable and every
operation is pure, so values can be shared freely across threads.  A
polygon stores only the vertex array it was validated on, read-only, as
`array`, which the kernels and every other module read; `vertices` builds
a tuple from it.

Polygons are validated once, where they enter: by their constructors.  The
private kernels take `(n, 2)` vertex arrays, return arrays or numbers, and
check nothing, so a chain of them, such as `mixedvol.sum_volume`, builds no
polygon: `_convolution` (the indices of the convolution cycle of a polygon
and a convex chain, which winds positively exactly on their sum and bounds
it where the polygon is convex; `_minkowski` gathers it), `_union_areas`
(of each of a list of groups, a group being simple parts and such cycles,
over their x-monotone chains; `_union_area` is the batch of one),
`_ray_exit`, `_points_in` (by winding number) and `_distances`.
`union_area`, `ray_exit` and `hausdorff_convex` read a polygon's `array`
and call them.  `_convex_array` is the check of `ConvexPolygon` on a bare
array.

The union sweep takes groups so that the volumes of an epsilon ladder,
each a small union, share one pass: numpy's fixed cost per call, which
dominates a sweep of a hundred edges, is paid once, not once per epsilon.
Consecutive groups merge while their edges total at most `_PAIR_BLOCK`; a
larger group is swept alone.  Every step keeps a group's edges, events,
super-slabs and block sums to itself and takes them in the order it would
take them alone, so each area is bit-identical to that of its group swept
alone.

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
    try:
        if len(p) != 2:
            raise ValueError(f"a point needs exactly two coordinates: {p!r}")
        x, y = float(p[0]), float(p[1])
    except (TypeError, KeyError):  # p is no sequence, or a coordinate no number
        raise ValueError(f"a point needs exactly two coordinates, each a number: {p!r}") from None
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
    try:
        V = np.asarray(vertices, dtype=float)
    except TypeError:  # a coordinate is no number
        V = np.empty(0)
    if V.ndim != 2 or V.shape[1] != 2 or len(V) < 3:
        raise ValueError("polygon needs at least 3 vertices, each an (x, y) pair")
    if np.count_nonzero(np.isfinite(V)) < V.size:
        raise ValueError("non-finite coordinate")
    return V


def _vertex_tuple(V: np.ndarray) -> tuple[Vec2, ...]:
    return tuple(map(tuple, V.tolist()))


def _keep(P: Polygon, V: np.ndarray) -> None:
    """Store the checked vertices V, an array of P's own, read-only as P's `array`."""
    V.flags.writeable = False
    object.__setattr__(P, "array", V)


def _signed_area(verts) -> float:
    V = np.asarray(verts, dtype=float)
    W = _shift(V, 1)
    # Python's sum adds left to right; np.sum pairs terms and moves last bits
    return 0.5 * sum((V[:, 0] * W[:, 1] - W[:, 0] * V[:, 1]).tolist())


def _straddles(d1, d2):
    return (np.maximum(d1, d2) > TAU) & (np.minimum(d1, d2) < -TAU)


#: Edge pairs `_crossings` tests at a time, and the fewest (edge, super-slab)
#: pairs `_union_area` integrates, or (edge, point) pairs `_points_in` or
#: `_distances` tests, at a time.  A crossing block's traced temporaries peak
#: at 0.36 MiB on the unions of a seed-1 `dilate-convex` pass, and at 1.5 MiB
#: where all of its pairs are near (2**14 raised the union peak of a 4096-gon
#: disc's dilation by a sixth).
_PAIR_BLOCK = 1 << 13


def _by_group(order: np.ndarray, group: np.ndarray | None) -> np.ndarray:
    """`order` made group-major, stably, so that each group keeps its order;
    `group` (uint16, the radix sort's keys) is None where there is one."""
    return order if group is None else order[group.take(order).argsort(kind="stable")]


def _searchsorted_in(a: np.ndarray, a_cuts, v: np.ndarray, v_cuts, side: str) -> np.ndarray:
    """`searchsorted` of each slice v[v_cuts[k]:v_cuts[k + 1]] in the sorted
    slice a[a_cuts[k]:a_cuts[k + 1]], as indices into a."""
    if len(a_cuts) == 2:
        return a.searchsorted(v, side)
    out = np.empty(len(v), dtype=np.intp)
    for lo, hi, vlo, vhi in zip(a_cuts[:-1], a_cuts[1:], v_cuts[:-1], v_cuts[1:]):
        out[vlo:vhi] = a[lo:hi].searchsorted(v[vlo:vhi], side) + lo
    return out


def _crossings(P: np.ndarray, Q: np.ndarray, owner: np.ndarray, cuts: Sequence[int] | None = None
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """x of every proper crossing between edges P[i] -> Q[i] of different
    owners, TAU sign tests on all four orientations, and x of every touch:
    an end of one edge that the same tests put within TAU of the other
    edge, inside its box grown by TAU; and the group of each crossing, then
    of each touch.  Edges cuts[k] .. cuts[k + 1] - 1 are group k, and only
    edges of one group are paired; where there is one group (`cuts` None or
    of length 2), the third array is None.

    One sort-and-sweep over x-extents, with no ordered active set as in
    Shamos and Hoey's sweep: with each group's edges ordered by their x
    minimum, the candidates of an edge are the later edges of its group
    that start before it ends, and those whose y-extents meet too are all
    tested, `_PAIR_BLOCK` at a time.  Edges that share an endpoint never
    cross: its cross product is exactly 0, so they touch there.  A group
    orders, pairs and tests its edges as it would alone, so it gets the
    crossings and touches it would get alone.

    P and Q are read once, into four contiguous columns px, py, qx, qy in
    x0 order.  Every step on the pairs (the owner and y-box filter, the four
    turns, the crossing x and the touch tests) gathers from 1-D columns with
    `take`: gathering rows of an (n, 2) array copies them one at a time.
    """
    cuts = [0, len(P)] if cuts is None else cuts
    gid = None if len(cuts) == 2 else np.repeat(np.arange(len(cuts) - 1, dtype=np.uint16),
                                                np.diff(cuts))
    x0 = np.minimum(P[:, 0], Q[:, 0])
    order = _by_group(x0.argsort(kind="stable"), gid)
    px, py, qx, qy = (c.take(order) for c in (P[:, 0], P[:, 1], Q[:, 0], Q[:, 1]))
    x0, x1, own = x0.take(order), np.maximum(px, qx), owner.take(order)
    ylo, yhi = np.minimum(py, qy), np.maximum(py, qy)
    # edge i's candidate pairs last[i] - count[i] .. last[i] - 1 are the
    # edges i + 1 .. i + count[i], those of its group that start before it ends
    count = _searchsorted_in(x0, cuts, x1, cuts, "right") - np.arange(1, len(P) + 1)
    last = count.cumsum()
    skip = count - last + np.arange(1, len(P) + 1)
    crossings, touches = [np.empty(0)], [np.empty(0)]
    crossed, touched = [np.empty(0, np.uint16)], [np.empty(0, np.uint16)]
    for start in range(0, int(last[-1]), _PAIR_BLOCK):
        stop = min(start + _PAIR_BLOCK, int(last[-1]))
        # the edges with pairs in the block, and how many each has there
        e0, e1 = last.searchsorted((start, stop - 1), side="right") + (0, 1)
        i = np.arange(e0, e1).repeat(np.minimum(last[e0:e1], stop)
                                     - np.maximum(last[e0:e1] - count[e0:e1], start))
        j = np.arange(start, stop) + skip.take(i)
        near = ((own.take(i) != own.take(j)) & (ylo.take(j) <= yhi.take(i))
                & (ylo.take(i) <= yhi.take(j)))
        i, j = i[near], j[near]
        pix, piy, qix, qiy = px.take(i), py.take(i), qx.take(i), qy.take(i)
        pjx, pjy, qjx, qjy = px.take(j), py.take(j), qx.take(j), qy.take(j)
        lix, liy, ljx, ljy = qix - pix, qiy - piy, qjx - pjx, qjy - pjy
        # turn[:2] holds the turns of the ends (P, Q) of edge i off edge j,
        # turn[2:] those of edge j off edge i
        turn = np.empty((4, len(i)))
        d1, d2, d3, d4 = turn
        np.subtract(ljx * (piy - pjy), ljy * (pix - pjx), out=d1)
        np.subtract(ljx * (qiy - pjy), ljy * (qix - pjx), out=d2)
        np.subtract(lix * (pjy - piy), liy * (pjx - pix), out=d3)
        np.subtract(lix * (qjy - piy), liy * (qjx - pix), out=d4)
        hit = _straddles(d1, d2) & _straddles(d3, d4)
        d1, d2 = d1[hit], d2[hit]
        crossings.append(pix[hit] + d1 / (d1 - d2) * lix[hit])
        if gid is not None:
            crossed.append(gid.take(i[hit]))
        # turn c of pair k within TAU: the end of edge i (c = 0, 1) or j
        # (c = 2, 3) in the other edge's box grown by TAU
        c, k = (np.abs(turn) <= TAU).nonzero()
        if not len(c):
            continue
        mine, at_q, i, j = c < 2, c % 2 == 1, i.take(k), j.take(k)
        e, o = np.where(mine, i, j), np.where(mine, j, i)
        x = np.where(at_q, qx.take(e), px.take(e))
        y = np.where(at_q, qy.take(e), py.take(e))
        inside = ((x0.take(o) - TAU <= x) & (x <= x1.take(o) + TAU)
                  & (ylo.take(o) - TAU <= y) & (y <= yhi.take(o) + TAU))
        touches.append(x[inside])
        if gid is not None:
            touched.append(gid.take(i[inside]))
    at = None if gid is None else np.concatenate(crossed + touched)
    return np.concatenate(crossings), np.concatenate(touches), at


def _is_simple(verts) -> bool:
    """No two edges cross properly: `_crossings` with every edge its own owner."""
    a = np.asarray(verts, dtype=float)
    return not _crossings(a, _shift(a, 1), np.arange(len(a)))[0].size


@dataclass(frozen=True, eq=False)
class Polygon:
    """Simple polygon with counterclockwise boundary and positive area.

    Its one field, `array`, is a checked copy of its vertices, read-only,
    (n, 2).  `vertices`, (x, y) tuples built when read, keeps equality,
    hashing and pickles as they were when it was the field.
    """

    array: np.ndarray

    def __post_init__(self):
        V = _vertex_array(self.array)
        gap = np.abs(_shift(V, 1) - V)
        if ((gap[:, 0] <= TAU) & (gap[:, 1] <= TAU)).any():
            raise ValueError("consecutive duplicate vertices")
        if not (TAU < _signed_area(V) < math.inf):  # refuses NaN too
            raise ValueError("vertices must wind counterclockwise with positive area")
        if not _is_simple(V):
            raise ValueError("boundary is self-intersecting")
        _keep(self, V.copy())

    @property
    def vertices(self) -> tuple[Vec2, ...]:
        # asarray: perfbench counts them on polygons __post_init__ refused too
        return _vertex_tuple(np.asarray(self.array, dtype=float))

    def __eq__(self, other):
        same = type(other) is type(self)
        return np.array_equal(self.array, other.array) if same else NotImplemented

    def __hash__(self):
        return hash((self.vertices,))

    def __getstate__(self):
        return {"vertices": self.vertices}

    def __setstate__(self, state):
        _keep(self, np.array(state["vertices"], dtype=float))


def _after(flags: np.ndarray) -> np.ndarray:
    """flags moved one place on: entry k is flags[k - 1], and entry 0 False."""
    return np.concatenate(([False], flags[:-1]))


def _merge_collinear(V: np.ndarray):
    """Drop vertices interior to straight runs, each round testing every
    corner of the last; returns the remaining vertices and their `_corners`.
    A round drops every other corner of a run of straight ones, from its
    first: both ends of an edge within round-off of a point look straight,
    and dropping both would cut off the corner they make together."""
    c, tol = _corners(V)
    while len(V) > 3:
        straight = np.abs(c) <= tol
        if not np.count_nonzero(straight):
            break
        i = np.arange(len(V))
        first = np.maximum.accumulate(np.where(straight & ~_after(straight), i, 0))
        drop = straight & ((i - first) % 2 == 0)
        drop[0] &= not drop[-1]  # a run through the last corner goes on at the first
        V = V[~drop]
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


def _convex_array(V: np.ndarray) -> np.ndarray:
    """The vertices V as `ConvexPolygon` keeps them: straight runs merged and
    rotated to start at the lex-min vertex, in a new array.  Raises
    ValueError where `ConvexPolygon` refuses V."""
    V, c, tol = _merge_collinear(V)
    if len(V) < 3 or not (TAU < _signed_area(V) < math.inf):
        raise ValueError("vertices must wind counterclockwise with positive area")
    R = _lex_first(V)
    if np.count_nonzero(c < -tol) or not _winds_once(R):
        raise ValueError("vertices are not in convex position")
    return R


class ConvexPolygon(Polygon):
    """Polygon with every vertex extreme; canonical start at the lex-min vertex."""

    def __post_init__(self):
        _keep(self, _convex_array(_vertex_array(self.array)))


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


def area(P: Polygon) -> float:
    """Enclosed area by the shoelace formula (positive for CCW input)."""
    return _signed_area(P.array)


def centroid(P: Polygon) -> Vec2:
    """Area centroid."""
    V = P.array
    W = _shift(V, 1)
    w = V[:, 0] * W[:, 1] - W[:, 0] * V[:, 1]
    acc = 0.5 * sum(w.tolist())
    cx = sum(((V[:, 0] + W[:, 0]) * w).tolist())
    cy = sum(((V[:, 1] + W[:, 1]) * w).tolist())
    return (cx / (6.0 * acc), cy / (6.0 * acc))


def translate(P: Polygon, t) -> Polygon:
    return type(P)(P.array + _as_vec2(t))


def scale_polygon(P: Polygon, s: float) -> Polygon:
    if s <= 0:
        raise ValueError("scale factor must be positive")
    return type(P)(P.array * s)


def unit_area_centered(P: Polygon) -> Polygon:
    """P scaled to unit area and translated so its centroid is the origin."""
    out = scale_polygon(P, 1.0 / math.sqrt(area(P)))
    cx, cy = centroid(out)
    return translate(out, (-cx, -cy))


def convex_hull(points: Iterable) -> ConvexPolygon:
    """Convex hull by monotone chain; collinear boundary points are merged.

    Raises DegenerateInput when the hull would be a point or segment, or has
    an area of at most TAU.
    """
    pts = sorted({_as_vec2(p) for p in points})
    if len(pts) < 3:
        raise DegenerateInput("need at least 3 distinct points")

    # no turn's tolerance exceeds twice that of two legs as long as the box
    # diagonal, so only turns between 0 and this bound need their own
    box = np.array(pts)
    diag = np.hypot(*(box.max(0) - box.min(0)))
    bound = 2.0 * _tol(diag, diag, np.abs(box).max())

    # a left turn within tolerance is straight only if it goes on, not back:
    # where x ties up to an ulp, the sorted points can zigzag in y.  The
    # turns are `_cross` on Python floats, which round the same way.
    def chain(seq):
        out: list[Vec2] = []
        for p in seq:
            while len(out) >= 2:
                (ox, oy), (ax, ay), (px, py) = out[-2], out[-1], p
                c = (ax - ox) * (py - oy) - (ay - oy) * (px - ox)
                if c > 0.0 and (c > bound or c > _turn_tol(out[-2], out[-1], p)
                                or (ax - ox) * (px - ax) + (ay - oy) * (py - ay) <= 0.0):
                    break  # a left turn, or a straight one that goes back
                out.pop()
            out.append(p)
        return out

    try:
        return ConvexPolygon(chain(pts)[:-1] + chain(pts[::-1])[:-1])
    except ValueError as exc:  # fewer than 3 corners, or an area of at most TAU
        raise DegenerateInput(f"points are collinear or nearly so: {exc}") from exc


# ---------------------------------------------------------------------------
# Minkowski sums


def _right_half(x, y):
    """Whether directions (x, y) lie in the right half (-pi/2, pi/2]: x > 0,
    or x = 0 and y > 0, as a tuple comparison `(x, y) > (0.0, 0.0)` reads."""
    return (x > 0.0) | ((x == 0.0) & (y > 0.0))


def _pseudo_angle(E: np.ndarray) -> np.ndarray:
    """A key of the edges E, (n, 2), that rises with their direction angle on
    (-pi/2, 3pi/2]: y / (|x| + |y|) in the right half, 2 minus that in the
    left half."""
    x, y = E[:, 0], E[:, 1]
    with np.errstate(invalid="ignore"):  # a zero edge gets NaN, no angle
        t = y / (np.abs(x) + np.abs(y))
    return np.where(_right_half(x, y), t, 2.0 - t)


def _convolution(V: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (a, b) of the convolution cycle of the closed CCW polygon
    V, (n, 2), and a convex CCW chain C, (k, 2), k >= 2, from its lex-min
    vertex: the cycle's vertices are V[a] + C[b], in order.

    Edge i, from V[i] to V[i + 1], is translated by C[b_i], the vertex
    extreme along its outward normal: the one after the b_i edges of C that
    come before edge i in direction.  At corner i, between edges i - 1 and
    i, the cycle runs over C's vertices from b_{i-1} to b_i at V[i],
    forward at a left turn and backward at a right one.  Directions and
    turns are both ranked by `_pseudo_angle` (a key step below 2, mod 4,
    turns left), so a run takes exactly the edges of C whose keys lie
    between its corner's and never wraps round C; C's keys rise from its
    lex-min vertex, and a zero edge takes the key before it.  Keys that tie
    or cross belong to directions a few ulps apart: either order gives the
    same cycle up to a sliver that thin, so a tie puts V's edge first and no
    comparator is needed.  The indices depend on directions only: they
    serve C at every positive scale.

    Where V is convex every corner turns left and the cycle is the boundary
    of V + C, each vertex one rounded sum V[i] + C[j]; an edge of V parallel
    to one of C leaves a collinear vertex, which `ConvexPolygon` merges.

    Let M be the closed polygon V and w(x) the cycle's winding number about
    x off it.  Then w(x) counts the components of M ∩ K, K = x - C, so
    w >= 0, and w > 0 exactly on M + C less the cycle, a null set.  Both
    are 0 far away.  As x moves, the count changes only where ∂M and ∂K
    touch with M and K on opposite sides:
    (1) a vertex x - c of K on edge i, K outside its line, so c is extreme
        along its normal: x is on edge i + C[b_i];
    (2) a convex corner V[i] on an edge x - [C_j, C_j+1] of K, M's edges
        outside K: C_j -> C_j+1 lies between edges i - 1 and i turning
        left, and x is on the forward run at V[i];
    (3) a reflex corner V[i] on such an edge, M's notch inside K: the same,
        turning right, on the backward run.
    At other contacts a wedge straddles a line or lies beyond it, and M ∩ K
    stays connected there.  Crossing a cycle edge to its left adds 1 to w
    and a component: (1) a corner of K enters M through edge i, (2) M's tip
    at V[i] enters K, (3) V[i] leaves K, whose edge cuts the notch's arms
    apart.  They stay apart: a path joining them in M ∩ K, closed round
    V[i], would wind round points of the notch, outside M, so outside every
    loop in the simply connected M.  Crossing to the right undoes each.
    """
    key, ckey = _pseudo_angle(_shift(V, 1) - V), _pseudo_angle(_shift(C, 1) - C)
    k = len(C)
    b = np.searchsorted(np.maximum.accumulate(np.where(np.isnan(ckey), -np.inf, ckey)), key) % k
    before = _shift(b, -1)  # b_{i-1}, the vertex of C that edge i - 1 took
    step = np.where((key - _shift(key, -1)) % 4.0 <= 2.0, 1, -1)
    run = (step * (b - before)) % k + 1  # vertices at each corner, both ends included
    t = np.arange(run.sum()) - np.repeat(np.cumsum(run) - run, run)
    a = np.repeat(np.arange(len(V)), run)
    return a, (np.repeat(before, run) + np.repeat(step, run) * t) % k


def _minkowski(V: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The vertices of the convolution cycle of V and C: V + C for convex V."""
    a, b = _convolution(V, C)
    return V.take(a, 0) + C.take(b, 0)


def minkowski_convex(P: ConvexPolygon, Q: ConvexPolygon) -> ConvexPolygon:
    """Minkowski sum of convex polygons: their convolution cycle."""
    if not isinstance(P, ConvexPolygon) or not isinstance(Q, ConvexPolygon):
        raise TypeError("minkowski_convex expects convex polygons")
    return ConvexPolygon(_minkowski(P.array, Q.array))


def triangulate(P: Polygon) -> list[tuple[Vec2, Vec2, Vec2]]:
    """Ear-clipping triangulation of a simple CCW polygon."""
    V = P.array
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


def _convex_probe(P: Polygon) -> tuple[np.ndarray, bool]:
    """P's vertices as `ConvexPolygon` keeps them and True, or P's own and
    False where `ConvexPolygon` refuses them."""
    if isinstance(P, ConvexPolygon):
        return P.array, True
    try:
        return _convex_array(P.array), True
    except ValueError:
        return P.array, False


def _convex_pieces(P: Polygon) -> list[np.ndarray]:
    """The arrays of `convex_parts(P)`, with no polygon built: each from its
    lex-min vertex.  An ear of area at most TAU (a corner bent by little
    more than TAU radians clips one) is kept, though `ConvexPolygon`
    refuses it: its sum with a chain is no sliver."""
    A, convex = _convex_probe(P)
    return [A] if convex else [_lex_first(np.array(t)) for t in triangulate(P)]


def convex_parts(P: Polygon) -> list[ConvexPolygon]:
    """P as convex pieces whose union is P: P as a ConvexPolygon when that
    accepts its vertices, else its ear-clipping triangles.  Triangles of
    area at most TAU, which `ConvexPolygon` refuses, are left out, so each
    of them moves the union's area by at most TAU."""
    if isinstance(P, ConvexPolygon):
        return [P]
    return [ConvexPolygon(V) for V in _convex_pieces(P) if not _signed_area(V) <= TAU]


def minkowski_segment(P: Polygon, a, b) -> RegionUnion:
    """Minkowski sum of a polygon with the segment [a, b], one convex part per
    piece of `convex_parts(P)` (the union of the parts is the exact sum).
    A zero-length segment degenerates to a translation of those pieces.
    """
    a = _as_vec2(a)
    b = _as_vec2(b)
    pieces = _convex_pieces(P)
    if math.hypot(b[0] - a[0], b[1] - a[1]) <= TAU:
        return RegionUnion(tuple(ConvexPolygon(V + a) for V in pieces))
    seg = np.array((a, b) if a <= b else (b, a))
    return RegionUnion(tuple(ConvexPolygon(_minkowski(V, seg)) for V in pieces))


# ---------------------------------------------------------------------------
# Exact union area by a sweep over the x-monotone chains of all parts


def union_area(region: RegionUnion) -> float:
    """Exact area of a union of simple polygon parts, convex or not
    (`_union_area` of their arrays)."""
    return _union_area([part.array for part in region.parts])


def _union_area(parts: Sequence[np.ndarray], cycles: Sequence[np.ndarray] = ()) -> float:
    """Exact area of the union of simple CCW parts, convex or not, and of
    the sets of positive winding of closed `cycles` (`_convolution`'s),
    given as vertex arrays, which are read, never validated: the batch of
    one of `_union_areas`."""
    return float(_union_areas([(parts, cycles)])[0])


def _union_areas(groups: Iterable[tuple[Sequence[np.ndarray], Sequence[np.ndarray]]]) -> np.ndarray:
    """`_union_area` of each (parts, cycles) group, in order, as a float array.

    Every ring is cut into x-monotone chains, runs of edges that all run
    right or none of which does, and at its start.  The events are the x of
    the chains' ends and of every proper crossing and touch between edges of
    different chains (`_crossings`; two edges of one chain meet at most at
    an end): a touch, a vertex on another chain's edge, is where chains can
    swap places with no proper crossing.  So between two events the active
    chains keep their order in y, which is the order of their integrals over
    that super-slab, sums of their edges' trapezoids clipped to it (chains
    that tie coincide, and either order gives the same area).  A chain that
    runs right adds 1 and one that runs left takes 1 away (a counterclockwise
    part lies left of its edges), so a running sum of these signs in that
    order is, over each stretch, the number of parts plus the winding numbers
    of the cycles; a stretch with a positive sum is covered, and its area is
    the upper chain's integral less the lower's.  A lone part is measured by
    the shoelace formula, a cycle never is.  Super-slabs are taken in blocks
    of at most max(edges, `_PAIR_BLOCK`) (edge, super-slab) pairs, so memory
    grows with the edges.

    Consecutive groups whose edges total at most `_PAIR_BLOCK` are swept
    together, in one pass of `_sweep_areas` (the volumes of an epsilon
    ladder on a small polygon cost numpy's fixed work per call once, not
    once per epsilon); a larger group is swept alone, as soon as it comes,
    so that at most one large group is held.  Raises NumericalDegeneracy
    where an area is not finite.
    """
    areas: list[float] = []
    where: list[int] = []  # the place in `areas` of each group in the batch
    batch: list[list[np.ndarray]] = []

    edges = 0  # in the batch

    def sweep():
        nonlocal edges
        for i, area in zip(where, _sweep_areas(batch)):
            areas[i] = area
        where.clear()
        batch.clear()
        edges = 0

    for parts, cycles in groups:
        if len(parts) == 1 and not len(cycles):
            areas.append(_signed_area(parts[0]))
            continue
        n = sum(map(len, parts)) + sum(map(len, cycles))
        if batch and edges + n > _PAIR_BLOCK:
            sweep()
        where.append(len(areas))
        areas.append(math.nan)
        batch.append([*parts, *cycles])
        edges += n
        del parts, cycles  # a large group is freed once swept, before the next is made
        if edges > _PAIR_BLOCK:
            sweep()
    if batch:
        sweep()
    out = np.array(areas, dtype=float)
    if not np.isfinite(out).all():
        raise NumericalDegeneracy("union area integration produced non-finite value")
    return out


def _rings(arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vertex arrays stacked into one (n, 2) array P, the row where each
    ring starts, and `nxt`, the row of each vertex's successor round its
    ring: P[i] -> P[nxt[i]] are the edges of all rings."""
    P = np.concatenate(arrays)
    n = np.array([len(a) for a in arrays])
    start = n.cumsum() - n
    nxt = np.arange(1, len(P) + 1)
    nxt[start + n - 1] = start
    return P, start, nxt


def _sweep_areas(groups: Sequence[Sequence[np.ndarray]]) -> list[float]:
    """The chain sweep of `_union_areas` over groups of rings, each group
    the vertex arrays of one union, in one vectorized pass.

    The rings of all groups are stacked, and every step keeps each group
    to itself: `_crossings` pairs only edges of one group, and the events
    are sorted by group, then by x, so each group has its own super-slabs
    (an empty one lies between two groups).  Each group splits its
    super-slabs into blocks by its own pair counts, as it would alone, and
    its area is the sum, in order, of one `sum` per block over the same
    values, so it is bit-identical to a sweep of the group alone: a chain's
    integral over a super-slab adds the same trapezoids in the same order
    (by edge) in any batch, and its sorted place is found among its own
    super-slab's integrals only.  For the integration, consecutive blocks
    are taken together while their (edge, super-slab) pairs total at most
    max(edges, `_PAIR_BLOCK`), so memory stays as it is for one group.
    """
    cuts = [0]  # group k's edges are cuts[k] .. cuts[k + 1] - 1
    for g in groups:
        cuts.append(cuts[-1] + sum(map(len, g)))
    P, start, nxt = _rings([a for g in groups for a in g])
    Q = P.take(nxt, 0)
    right = Q[:, 0] > P[:, 0]
    head = np.concatenate(([True], right[1:] != right[:-1]))
    head[start] = True
    heads, chain = head.nonzero()[0], head.cumsum() - 1
    crossings, touches, at = _crossings(P, Q, chain, cuts)
    xs = np.concatenate((P[heads, 0], crossings, touches))
    if at is not None:  # the group of each event
        head_group = np.searchsorted(cuts, heads, side="right") - 1
        at = np.concatenate((head_group.astype(np.uint16), at))
    xs, xcuts = _grouped_events(xs, at, len(groups))
    xl, xr = np.minimum(P[:, 0], Q[:, 0]), np.maximum(P[:, 0], Q[:, 0])
    # edge e overlaps super-slabs first[e] .. last[e] - 1 (a vertical edge one
    # at most); a chain's ends are events, so it spans whole super-slabs
    first = _searchsorted_in(xs, xcuts, xl, cuts, "right") - 1
    last = _searchsorted_in(xs, xcuts, xr, cuts, "left")
    cfirst, clast = np.minimum.reduceat(first, heads), np.maximum.reduceat(last, heads)
    sign = right[heads] * 2 - 1
    # the area under each edge, its trapezoid where it overlaps one super-slab
    whole, cut = (xr - xl) * (P[:, 1] + Q[:, 1]) * 0.5, last - first > 1
    spans = (np.bincount(first, minlength=len(xs)) - np.bincount(last, minlength=len(xs))).cumsum()
    done = np.concatenate(([0], spans[:-1].cumsum()))
    # each group's blocks, of at most max(its edges, `_PAIR_BLOCK`) pairs: one
    # super-slab at least, and at most 2**16, so that ordering the
    # integrals by super-slab is a radix sort of 16-bit keys
    blocks = []
    for g, (s0, end) in enumerate(zip(xcuts[:-1], xcuts[1:])):
        budget = max(cuts[g + 1] - cuts[g], _PAIR_BLOCK)
        while s0 < end - 1:
            s1 = min(int(done.searchsorted(done[s0] + budget, side="right")) - 1, end - 1)
            s1 = min(max(s1, s0 + 1), s0 + (1 << 16))
            blocks.append((s0, s1, g))
            s0 = s1
    totals = [0.0] * len(groups)
    budget = max(len(P), _PAIR_BLOCK)
    b = 0
    while b < len(blocks):
        # blocks b .. b1 - 1, super-slabs lo .. hi - 1, integrated together
        lo, hi = blocks[b][:2]
        b1 = b + 1
        while (b1 < len(blocks) and blocks[b1][1] - lo <= 1 << 16
               and done[blocks[b1][1]] - done[lo] <= budget):
            hi = blocks[b1][1]
            b1 += 1
        a = np.maximum(first, lo)
        k = np.maximum(np.minimum(last, hi) - a, 0)
        e = np.arange(len(P)).repeat(k)
        s = np.arange(len(e)) + (a - k.cumsum() + k).repeat(k)
        ca = np.maximum(cfirst, lo)
        ck = np.maximum(np.minimum(clast, hi) - ca, 0)
        base = ck.cumsum() - ck - ca  # chain c's integral over super-slab s is I[base[c] + s]
        w, c = whole[e], cut[e].nonzero()[0]
        # a cut edge's piece of a super-slab: its width times the edge's y at
        # its middle x, where (x - px) / dx lies in [0, 1] even for a subnormal dx
        ec, sc = e[c], s[c]
        x0, x1 = np.maximum(xs[sc], xl[ec]), np.minimum(xs[sc + 1], xr[ec])
        p = P.take(ec, 0)
        d = Q.take(ec, 0) - p
        w[c] = (x1 - x0) * (p[:, 1] + ((x0 + x1) * 0.5 - p[:, 0]) / d[:, 0] * d[:, 1])
        I = np.bincount(base[chain[e]] + s, w, ck.sum())
        slab = (np.arange(len(I)) - lo - base.repeat(ck)).astype(np.uint16)
        order = I.argsort()
        order = order[slab[order].argsort(kind="stable")]
        I, count = I[order], sign.repeat(ck)[order].cumsum()
        # every super-slab's signs sum to 0, so the count is 0 where a block
        # starts, and a block's covered lengths are its own slice of these
        cover = np.where(count[:-1] > 0, I[1:] - I[:-1], 0.0)
        # the integrals of the chunk's k-th block are I[ends[k]:ends[k + 1]]
        ends = [0, len(I)]
        if b1 > b + 1:
            before = np.concatenate(([0], np.bincount(slab, minlength=hi - lo).cumsum()))
            ends = before.take([u - lo for u, _, _ in blocks[b:b1]] + [hi - lo])
        for (u, v, g), i, j in zip(blocks[b:b1], ends, ends[1:]):
            totals[g] += float(cover[i:max(i, j - 1)].sum())
        b = b1
    return totals


def _grouped_events(xs: np.ndarray, group: np.ndarray | None,
                    n: int) -> tuple[np.ndarray, list[int]]:
    """The events xs of `n` groups (`group` gives each one's, None where n
    is 1), sorted by group, then by x, and each group's repeats dropped;
    and the cuts between groups: group k's are xs[cuts[k]:cuts[k + 1]]."""
    order = _by_group(xs.argsort(), group)
    xs = xs.take(order)
    new = np.concatenate(([True], xs[1:] != xs[:-1]))
    if group is None:
        return xs[new], [0, int(np.count_nonzero(new))]
    group = group.take(order)
    new[1:] |= group[1:] != group[:-1]
    return xs[new], [0, *np.bincount(group[new], minlength=n).cumsum().tolist()]


# ---------------------------------------------------------------------------
# Grids


def _cell_centers(bounds: Sequence[tuple[float, float]], h: float):
    """Cell counts per axis and (N, d) cell centers of a uniform grid over
    `bounds` with cell size h."""
    if h <= 0:
        raise ValueError("cell size must be positive")
    d = len(bounds)
    if d not in (2, 3):
        raise ValueError("bounds must describe a 2D or 3D box")
    counts = []
    axes = []
    for lo, hi in bounds:
        lo, hi = float(lo), float(hi)
        if not hi > lo:
            raise ValueError("empty bounds")
        counts.append(max(1, int(math.ceil((hi - lo) / h - 1e-9))))
        axes.append(lo + (np.arange(counts[-1]) + 0.5) * h)
    mesh = np.meshgrid(*axes, indexing="ij")
    return counts, np.stack([m.ravel() for m in mesh], axis=1)


def grid_volume(indicator: Callable, bounds: Sequence[tuple[float, float]],
                h: float) -> tuple[float, float]:
    """Monte-Carlo-free volume estimate: occupied cells times cell volume.

    The indicator maps the (N, d) array of all cell centers of a uniform
    grid over `bounds` to N truth values.  Returns (estimate, error_bound)
    where the bound is the total volume of cells adjacent to an occupancy
    transition.  Raises ResolutionTooCoarse when boundary cells exceed half
    of the occupied cells.
    """
    counts, pts = _cell_centers(bounds, h)
    occ = np.asarray(indicator(pts))
    if occ.shape != (len(pts),):
        raise ValueError(f"indicator returned shape {occ.shape}, expected ({len(pts)},)")
    occ = occ.astype(bool).reshape(counts)
    d = len(counts)
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


def regular_disc(n: int, r: float, center=(0.0, 0.0)) -> ConvexPolygon:
    """Inscribed regular n-gon model of the disc of radius r about `center`
    (area (n/2) r^2 sin(2pi/n)).

    Vertex k is `center + r (cos t, sin t)` at `t = 2 pi k / n`, from numpy's
    cos and sin; the tests hold them bit-equal to `math`'s.  The centre is
    added before the one validation, so the disc is built and checked once,
    with the vertices of `translate(regular_disc(n, r), center)`."""
    if n < 3:
        raise ValueError("need at least 3 vertices")
    if r <= 0:
        raise ValueError("radius must be positive")
    cx, cy = _as_vec2(center)
    t = 2.0 * math.pi * np.arange(n) / n
    return ConvexPolygon(np.column_stack((r * np.cos(t) + cx, r * np.sin(t) + cy)))


# ---------------------------------------------------------------------------
# Point queries and distances


def _points_in(pts: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Nonzero-winding test of the points pts, (m, 2), against the polygon
    with vertex array V (boundary not special-cased); on a simple polygon
    it is the even-odd test.

    A point (x, y) is inside when the edges (x0, y0) -> (x1, y1) that
    straddle its y, (y0 > y) != (y1 > y), and cross its row to its right,
    x0 + (y - y0) * (x1 - x0) / (y1 - y0) > x, wind round it: those that
    run up outnumber those that run down, or the other way.  On a simple
    polygon that is an odd number of them; a cycle of `_convolution` winds
    0 or more times, and covers its sum where it winds.  With the points
    sorted by y, the points an edge straddles are the run min(y0, y1) <= y
    < max(y0, y1), found by `searchsorted`; the (edge, point) pairs of all
    runs are tested in blocks of max(points, `_PAIR_BLOCK`) pairs, so memory
    grows with the points, not with points x edges.  Each test takes the
    per-edge loop's float operations in its order, so it rounds as that
    loop's does.
    """
    x, y = pts[:, 0], pts[:, 1]
    W = _shift(V, 1)
    order = np.argsort(y, kind="stable")
    ys = y[order]
    first = np.searchsorted(ys, np.minimum(V[:, 1], W[:, 1]))
    count = np.searchsorted(ys, np.maximum(V[:, 1], W[:, 1])) - first
    last = np.cumsum(count)
    winding = np.zeros(len(pts))
    block = max(len(pts), _PAIR_BLOCK)
    for start in range(0, int(last[-1]), block):
        k = np.arange(start, min(start + block, last[-1]))
        e = np.searchsorted(last, k, side="right")
        p = order[k - last[e] + count[e] + first[e]]
        (x0, y0), (x1, y1) = V[e].T, W[e].T
        xi = x0 + (y[p] - y0) * (x1 - x0) / (y1 - y0)
        winding += np.bincount(p, np.where(xi > x[p], np.sign(y1 - y0), 0.0), len(pts))
    return winding != 0.0


def _on_edges(pts: np.ndarray, V: np.ndarray) -> np.ndarray:
    """(m, n) whether point k of pts lies on edge i of V: in the edge's box
    grown by TAU, and within TAU (times its length, if over 1) of its line."""
    W = _shift(V, 1)
    E = W - V
    p = pts[:, None]
    near = ((np.minimum(V, W) - TAU <= p) & (p <= np.maximum(V, W) + TAU)).all(2)
    return near & (np.abs(_cross(V, W, p)) <= TAU * np.maximum(1.0, np.hypot(E[:, 0], E[:, 1])))


def _distances(pts: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Distance from each point of pts, (m, 2), to the filled polygon V: 0
    where `_points_in` or `_on_edges` holds, else the least over edges a -> b of
    |p - a - t (b - a)|, t in [0, 1] nearest p, rounded as the per-edge loop
    did (np.hypot screens, math.hypot, which can differ in the last bit,
    decides near the least), for max(1, `_PAIR_BLOCK` // edges) points at once."""
    out = np.zeros(len(pts))
    rest = (~_points_in(pts, V)).nonzero()[0]
    E = _shift(V, 1) - V
    L2 = E[:, 0] * E[:, 0] + E[:, 1] * E[:, 1]
    step = max(1, _PAIR_BLOCK // len(V))
    for s in range(0, len(rest), step):
        k = rest[s:s + step]
        dx, dy = pts[k, :1] - V[:, 0], pts[k, 1:] - V[:, 1]
        t = np.where(L2 > TAU * TAU, np.clip((dx * E[:, 0] + dy * E[:, 1]) / L2, 0.0, 1.0), 0.0)
        ex, ey = dx - t * E[:, 0], dy - t * E[:, 1]
        h = np.hypot(ex, ey)
        m = h.min(1, keepdims=True)
        i, j = (h <= m + 8 * np.spacing(m)).nonzero()
        d = [math.hypot(x, y) for x, y in zip(ex[i, j].tolist(), ey[i, j].tolist())]
        best = np.minimum.reduceat(d, np.searchsorted(i, np.arange(len(k))))
        out[k] = np.where(_on_edges(pts[k], V).any(1), 0.0, best)
    return out


def hausdorff_convex(P: ConvexPolygon, Q: ConvexPolygon) -> float:
    """Exact Hausdorff distance between convex polygons (attained at vertices)."""
    return float(max(_distances(P.array, Q.array).max(), _distances(Q.array, P.array).max()))


def ray_exit(origin, direction, region: RegionUnion) -> float:
    """Largest ray parameter at which the ray still meets the region boundary.

    Returns 0.0 when the ray never meets the region beyond its origin.
    """
    return _ray_exit(origin, direction, [part.array for part in region.parts])


def _ray_exit(origin, direction, parts: Sequence[np.ndarray]) -> float:
    """`ray_exit` for the region whose parts have the vertex arrays `parts`:
    one pass over the edges of all parts, each ring closed by `nxt` as in
    `_sweep_area`, on contiguous coordinate columns."""
    ox, oy = _as_vec2(origin)
    dx, dy = _as_vec2(direction)
    if not len(parts):
        return 0.0
    P, _, nxt = _rings(parts)
    x, y = P.T.copy()
    ex, ey = x.take(nxt) - x, y.take(nxt) - y
    denom = dx * ey - dy * ex
    crossing = (np.abs(denom) > TAU).nonzero()[0]
    ax, ay = x.take(crossing) - ox, y.take(crossing) - oy
    ex, ey, denom = ex.take(crossing), ey.take(crossing), denom.take(crossing)
    s = (ax * ey - ay * ex) / denom
    t = (dy * ax - dx * ay) / denom
    # max folds left to right with `>`, as the per-part loop did, so a NaN or
    # a -0.0 resolves the same way
    return max([0.0] + s[(-1e-9 <= t) & (t <= 1.0 + 1e-9)].tolist())


# ---------------------------------------------------------------------------
# Serialization


def polygon_to_dict(P: Polygon) -> dict:
    return {"vertices": P.array.tolist()}


def _polygon(V) -> Polygon:
    """V as a ConvexPolygon when that accepts it, else as a Polygon."""
    try:
        return ConvexPolygon(V)
    except ValueError:
        return Polygon(V)


def polygon_from_dict(d: dict) -> Polygon:
    return _polygon(_vertex_array(d["vertices"]))
