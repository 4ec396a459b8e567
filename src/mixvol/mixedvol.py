"""First-order dilation volumetrics for polygons with nonconvex structuring sets.

Two independent estimators of the derivative D(M, N) = d/de |M + e N| at e=0:

* finite differences of exact union areas on a decreasing epsilon schedule,
  extrapolated to zero (Neville tableau on the volume quotients), and
* a boundary integral summing support values of N against the outward edge
  normals of M — exact for polygons, no epsilon involved.

Agreement of the two routes is the package's main cross-check and is wired
into the CLI's exit status.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from . import geom2d, structuring
from .errors import IllConditioned, NonDecreasingSchedule, SingularPoint
from .geom2d import ConvexPolygon, Polygon, RegionUnion
from .structuring import Disc, Points, Segment, StructuringSet

#: Default epsilon ladder: 0.1 * 2^-k for k = 0..6.
DEFAULT_SCHEDULE: tuple[float, ...] = tuple(0.1 * 2.0 ** -k for k in range(7))

FINITE_DIFFERENCE = "finite_difference"
BOUNDARY_INTEGRAL = "boundary_integral"


@dataclass(frozen=True)
class DEstimate:
    """Derivative estimate with its provenance.

    `value` is the first derivative of volume under dilation; the normalized
    variant value/dimension is exposed as the `v1` property.
    """

    value: float
    method: str
    epsilons: tuple[float, ...]
    raw_quotients: tuple[float, ...]
    extrapolation_order: int
    error_estimate: float
    dimension: int = 2

    def __post_init__(self):
        if self.method not in (FINITE_DIFFERENCE, BOUNDARY_INTEGRAL):
            raise ValueError(f"unknown method: {self.method!r}")
        eps = tuple(float(e) for e in self.epsilons)
        if any(e <= 0 for e in eps) or any(a <= b for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilons must be positive and strictly decreasing")
        if len(eps) != len(self.raw_quotients):
            raise ValueError("quotients must align with epsilons")
        if not self.error_estimate >= 0.0:
            raise ValueError("error estimate must be nonnegative")
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "raw_quotients",
                           tuple(float(q) for q in self.raw_quotients))

    @property
    def v1(self) -> float:
        """Derivative normalized by ambient dimension."""
        return self.value / self.dimension

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "error_estimate": self.error_estimate,
            "epsilons": list(self.epsilons),
            "raw_quotients": list(self.raw_quotients),
        }


@dataclass(frozen=True)
class SeriesFit:
    """Least-squares polynomial model of e -> |M + e N|."""

    coefficients: tuple[float, ...]  # ascending powers
    residual_max: float
    eps_grid: tuple[float, ...]


# ---------------------------------------------------------------------------
# Dilation regions and volumes


def _unit_chains(N: StructuringSet) -> list[np.ndarray]:
    """The convex chains of N's components at eps = 1, in order, (k, 2)
    arrays each starting at its lex-min vertex as `geom2d._convolution`
    needs: a point gives one vertex; a segment its two ends in lex order, or
    one vertex when it is at most TAU long; a disc r times
    `structuring._unit_disc()` moved to its centre; a polygon each of its
    `geom2d._convex_pieces`.  The chains of eps * N are eps times these."""
    chains = []
    for c in N.components:
        if isinstance(c, Points):
            chains += list(np.array(c.pts)[:, None])
        elif isinstance(c, Segment):
            short = math.hypot(c.b[0] - c.a[0], c.b[1] - c.a[1]) <= geom2d.TAU
            chains.append(np.array([c.a] if short else sorted((c.a, c.b))))
        elif isinstance(c, Disc):
            chains.append(c.radius * structuring._unit_disc() + c.center)
        else:
            chains += geom2d._convex_pieces(c)
    return chains


def _check_eps(eps: float) -> None:
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"epsilon must be finite and nonnegative: {eps!r}")


def _dilation(M: Polygon, N: StructuringSet) -> Callable:
    """The dilation M + eps*N as a function `at(eps)` of eps >= 0, which
    gives a pair (parts, cycles) of lists of vertex arrays, as
    `geom2d._union_area` takes them: simple CCW parts, and closed cycles
    read by their winding number.

    Let A be M's vertices as `ConvexPolygon` keeps them when it accepts M,
    else M's own (`geom2d._convex_probe`), and U a chain of
    `_unit_chains(N)`.  A one-vertex U gives the part A + eps * U[0], every
    other U the convolution cycle of A and eps * U: for convex M the
    boundary of the part A + eps * U, else a cycle, whose winding number is
    never negative and is positive exactly on M + eps * U
    (`geom2d._convolution` has the proof).  Its indices (a, b) depend on
    directions only, so M is probed and they are made here, once, and each
    eps gathers `A.take(a, 0) + (eps * U).take(b, 0)`, with no running sum:
    the arrays of an eps do not depend on the eps asked for before.  eps = 0
    gives M alone.  Nothing is validated as a polygon at scale eps, so a
    component too small for `ConvexPolygon`'s absolute floors (a disc with
    eps * r below about 6e-7) still adds.
    """
    A, convex = geom2d._convex_probe(M)
    index = [(U, *geom2d._convolution(A, U)) if len(U) > 1 else (U, None, None)
             for U in _unit_chains(N)]

    def at(eps: float) -> tuple[list[np.ndarray], list[np.ndarray]]:
        _check_eps(eps)
        if eps == 0.0:
            return [M.array], []
        parts, cycles = [], []
        for U, a, b in index:
            if a is None:
                parts.append(A + eps * U[0])
            else:
                (parts if convex else cycles).append(A.take(a, 0) + (eps * U).take(b, 0))
        return parts, cycles

    return at


#: The last pair (M, N) that `_dilation_of` was given, and its `_dilation`.
_last_dilation: tuple = (None, None, None)


def _dilation_of(M: Polygon, N: StructuringSet) -> Callable:
    """`_dilation(M, N)`, remembered for the last pair, told by identity: the
    volumes of one pair, from a schedule, the CLI's worker threads or the
    probe, share one probe of M and one index per chain.  The slot is read
    and replaced whole, so a thread always gets its own pair's dilation;
    threads that miss at once each build one, and the last is kept."""
    global _last_dilation
    last = _last_dilation
    if last[0] is not M or last[1] is not N:
        last = _last_dilation = (M, N, _dilation(M, N))
    return last[2]


def sum_region(M: Polygon, N: StructuringSet, eps: float) -> RegionUnion:
    """The dilation M + eps*N as a union of simple parts, each a
    ConvexPolygon when that accepts it, else a Polygon: A + eps * U[0] for
    a one-vertex chain U of `_unit_chains(N)` (A as in `_dilation`), and
    P + eps * U for every other chain and each convex piece P of M
    (`geom2d._convex_pieces`), the convolution cycle of the two, but those
    of area at most TAU (a sliver ear swept along a parallel segment).
    eps = 0 gives M alone.  For convex M these are the parts of `_dilation`
    but for the order of directions parallel within a few ulps, which
    `_dilation` ranks at eps = 1; for nonconvex M it makes cycles, and the
    two agree to round-off.

    For callers outside mixvol: `sum_volume`, `local_expansion_probe` and
    `d_grid` read the arrays of `_dilation` and build no polygon."""
    _check_eps(eps)
    if eps == 0.0:
        return RegionUnion((M,))
    A, convex = geom2d._convex_probe(M)
    pieces = [A] if convex else geom2d._convex_pieces(M)
    parts = []
    for U in _unit_chains(N):
        C = eps * U
        parts += [A + C[0]] if len(C) == 1 else [geom2d._minkowski(P, C) for P in pieces]
    return RegionUnion(tuple(geom2d._polygon(V) for V in parts
                             if not geom2d._signed_area(V) <= geom2d.TAU))


def sum_volume(M: Polygon, N: StructuringSet, eps: float | np.ndarray) -> float | np.ndarray:
    """|M + eps*N| as the exact area of the arrays of `_dilation`, shared by
    the calls on one pair (`_dilation_of`); no polygon is built.  eps = 0
    gives |M|.

    eps is one number, or an array of them, which gives the float array of
    their volumes, each bit-identical to the volume of its eps alone: the
    small dilations of a ladder are swept together (`geom2d._union_areas`).
    Every eps is checked before any is measured."""
    at = _dilation_of(M, N)
    if np.ndim(eps) == 0:
        return geom2d._union_area(*at(eps))
    ladder = np.asarray(eps, dtype=float).tolist()
    for e in ladder:
        _check_eps(e)
    return geom2d._union_areas(map(at, ladder))


# ---------------------------------------------------------------------------
# Extrapolation


def _check_schedule(schedule: Sequence[float]) -> tuple[float, ...]:
    eps = tuple(float(e) for e in schedule)
    if len(eps) < 3:
        raise NonDecreasingSchedule("schedule needs at least 3 epsilons")
    if not all(0 < e < math.inf for e in eps) or any(a <= b for a, b in zip(eps, eps[1:])):
        raise NonDecreasingSchedule(
            "schedule must be positive, finite and strictly decreasing")
    return eps


def _extrapolated(eps: tuple[float, ...], quotients: tuple[float, ...]) -> DEstimate:
    """Finite-difference estimate from quotients on a checked schedule: their
    polynomial extrapolation to e=0 by a Neville tableau, with the gap between
    the last two extrapolants as the error estimate."""
    n = len(eps)
    tab = list(quotients)
    diag = [tab[0]]
    for m in range(1, n):
        for i in range(n - m):
            tab[i] = (eps[i + m] * tab[i] - eps[i] * tab[i + 1]) / (eps[i + m] - eps[i])
        diag.append(tab[0])
    return DEstimate(tab[0], FINITE_DIFFERENCE, eps, quotients, extrapolation_order=n - 1,
                     error_estimate=abs(diag[-1] - diag[-2]))


def d_finite_difference(M: Polygon, N: StructuringSet,
                        schedule: Sequence[float] | None = None,
                        volumes: Sequence[float] | None = None) -> DEstimate:
    """Dilation derivative from the volume quotients (|M+eN| - |M|)/e.

    The quotients are extrapolated to e=0 with a Neville tableau; the error
    estimate is the gap between the last two extrapolants.  `volumes` lets a
    caller reuse precomputed |M+eN| samples for the same schedule.
    """
    eps = _check_schedule(schedule if schedule is not None else DEFAULT_SCHEDULE)
    base = geom2d.area(M)
    if volumes is None:
        volumes = sum_volume(M, N, np.array(eps)).tolist()
    elif len(volumes) != len(eps):
        raise ValueError("volumes must align with the schedule")
    return _extrapolated(eps, tuple((v - base) / e for v, e in zip(volumes, eps)))


def d_boundary_integral(M: Polygon, N: StructuringSet) -> DEstimate:
    """Dilation derivative as the support integral over the boundary of M.

    Sums length(edge) * support(N, outward unit normal) over all edges; the
    unnormalized normal (dy, -dx) folds the edge length into the support
    value, and one support call evaluates every edge.  Exact for polygons,
    so error_estimate is 0.
    """
    V = M.array
    E = geom2d._shift(V, 1) - V
    values = structuring.support(N, np.stack((E[:, 1], -E[:, 0]), axis=1))
    total = sum(values.tolist())  # left to right; np.sum moves the last bits
    return DEstimate(total, BOUNDARY_INTEGRAL, (), (),
                     extrapolation_order=0, error_estimate=0.0)


def local_expansion_probe(M: Polygon, edge_param: tuple[int, float],
                          N: StructuringSet, eps: float) -> float:
    """Normal-ray exit distance T(eps) at a smooth boundary point.

    `edge_param = (i, t)` addresses the point (1-t)*v_i + t*v_{i+1} strictly
    inside edge i.  T(eps)/eps tends to the support of N at the outward
    normal as eps decreases.  Ties (multiple exits) resolve to the farthest.
    """
    i, t = edge_param
    if not 0 <= i < len(M.array):
        raise ValueError("edge index out of range")
    if not geom2d.TAU < t < 1.0 - geom2d.TAU:
        raise SingularPoint("edge parameter addresses a vertex")
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    (x0, y0), (x1, y1) = M.array[[i, (i + 1) % len(M.array)]].tolist()
    y = (x0 + t * (x1 - x0), y0 + t * (y1 - y0))
    L = math.hypot(x1 - x0, y1 - y0)
    normal = ((y1 - y0) / L, -(x1 - x0) / L)
    parts, cycles = _dilation_of(M, N)(eps)
    return geom2d._ray_exit(y, normal, parts + cycles)


def mixed_area(K1: ConvexPolygon, K2: ConvexPolygon) -> float:
    """Symmetric bilinear area form: (|K1+K2| - |K1| - |K2|) / 2."""
    s = geom2d.area(geom2d.minkowski_convex(K1, K2))
    return 0.5 * (s - geom2d.area(K1) - geom2d.area(K2))


def series_fit(M: Polygon, N: StructuringSet, eps_grid: Sequence[float],
               degree: int,
               volumes: Sequence[float] | None = None) -> SeriesFit:
    """Least-squares polynomial fit of e -> |M + e N| over a grid.

    Requires at least degree+3 distinct epsilons; raises IllConditioned when
    the grid spans less than one decade.  `volumes` lets a caller reuse
    precomputed |M + e N| samples aligned with the sorted, deduplicated grid.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    eps = sorted({float(e) for e in eps_grid})
    if not all(0 < e < math.inf for e in eps):
        raise ValueError("epsilons must be positive and finite")
    if len(eps) < degree + 3:
        raise ValueError(f"need at least {degree + 3} distinct epsilons")
    if max(eps) / min(eps) < 10.0:
        raise IllConditioned("epsilon grid spans less than one decade")
    x = np.array(eps)
    if volumes is None:
        vols = np.asarray(sum_volume(M, N, x), dtype=float)
    else:
        if len(volumes) != len(eps):
            raise ValueError("volumes must align with the deduplicated grid")
        vols = np.asarray(volumes, dtype=float)
    coeffs = np.polynomial.polynomial.polyfit(x, vols, degree)
    resid = np.abs(np.polynomial.polynomial.polyval(x, coeffs) - vols)
    return SeriesFit(tuple(float(c) for c in coeffs), float(resid.max()),
                     tuple(eps))


# ---------------------------------------------------------------------------
# Grid-based cross-checks (sanity route, intentionally independent of the
# exact union machinery)


def d_grid(M: Polygon, N: StructuringSet, schedule: Sequence[float],
           h: float) -> DEstimate:
    """Finite-difference estimate with volumes from grid sampling (d=2).

    Deliberately avoids union_area: each |M+eN| is a cell count, so this is a
    coarse but independent check of the exact route (accuracy ~ h * boundary length).
    The grid is taken from the inputs: M's box, grown by 2h and along each
    axis by the support of eps[0] * N, where that is positive, so it holds
    M + e*N for every 0 <= e <= eps[0].
    """
    eps = _check_schedule(schedule)
    reach = eps[0] * np.maximum(
        structuring.support(N, np.array(((1, 0), (0, 1), (-1, 0), (0, -1)))), 0)
    pad = 2 * h
    bounds = tuple(zip((M.array.min(axis=0) - reach[2:] - pad).tolist(),
                       (M.array.max(axis=0) + reach[:2] + pad).tolist()))

    def volume(parts: list[np.ndarray]) -> float:
        """Grid volume of the union of the parts and cycles with vertex
        arrays `parts`, each read by its winding number."""
        return geom2d.grid_volume(
            lambda pts: reduce(np.logical_or, (geom2d._points_in(pts, V) for V in parts)),
            bounds, h)[0]

    base = volume([M.array])
    vols = [volume(parts + cycles) for parts, cycles in map(_dilation_of(M, N), eps)]
    return _extrapolated(eps, tuple((v - base) / e for v, e in zip(vols, eps)))


def box_distance(lo: Sequence[float], hi: Sequence[float]) -> Callable:
    """Euclidean distance field of an axis-aligned box (any dimension)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)

    def dist(pts: np.ndarray) -> np.ndarray:
        gap = np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
        return np.sqrt((gap ** 2).sum(axis=1))

    return dist


def d_grid_distance_field(distance_fn: Callable,
                          bounds: Sequence[tuple[float, float]], h: float,
                          schedule: Sequence[float]) -> DEstimate:
    """Dilation derivative for M + eps*(unit ball) from a distance field of M.

    Works in any dimension the bounds describe (the d=3 sanity path): the
    dilated indicator is distance(x) <= eps and volumes are cell counts.
    Grid quotients carry staircase noise that pointwise extrapolation would
    amplify, so the limit is read off as the constant term of a least-squares
    polynomial of degree 2 in eps (the quotient of a smooth convex dilation
    is polynomial of degree d-1).  The error estimate is the shift of that
    constant when the fit degree is raised by one.
    """
    eps = _check_schedule(schedule)
    if len(eps) < 5:
        raise NonDecreasingSchedule(
            "schedule needs at least 5 epsilons for a degree-2 fit")
    d = len(bounds)
    pts = geom2d._cell_centers(bounds, h)[1]
    dist = np.asarray(distance_fn(pts), dtype=float)
    cellvol = h ** d
    base = float((dist <= 0.0).sum()) * cellvol
    quotients = []
    for e in eps:
        v = float((dist <= e).sum()) * cellvol
        quotients.append((v - base) / e)
    x = np.array(eps)
    q = np.array(quotients)
    value = float(np.polynomial.polynomial.polyfit(x, q, 2)[0])
    refined = float(np.polynomial.polynomial.polyfit(x, q, 3)[0])
    return DEstimate(value, FINITE_DIFFERENCE, eps, tuple(quotients),
                     extrapolation_order=2,
                     error_estimate=abs(value - refined), dimension=d)
