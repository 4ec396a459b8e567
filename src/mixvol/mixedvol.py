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


def sum_region(M: Polygon, N: StructuringSet, eps: float) -> RegionUnion:
    """The dilation M + eps*N as an explicit union of convex parts.

    M is split into convex pieces once (`geom2d.convex_parts`) and every
    component of N is summed against each piece; eps = 0 gives the pieces.
    """
    if eps < 0:
        raise ValueError("epsilon must be nonnegative")
    pieces = geom2d.convex_parts(M)
    if eps == 0.0:
        return RegionUnion(tuple(pieces))
    parts: list[ConvexPolygon] = []
    for comp in N.components:
        if isinstance(comp, Points):
            parts.extend(geom2d.translate(piece, (eps * x, eps * y))
                         for x, y in comp.pts for piece in pieces)
        elif isinstance(comp, Segment):
            a = (eps * comp.a[0], eps * comp.a[1])
            b = (eps * comp.b[0], eps * comp.b[1])
            for piece in pieces:
                parts.extend(geom2d.minkowski_segment(piece, a, b).parts)
        else:
            if isinstance(comp, Disc):
                disc = geom2d.regular_disc(structuring.DISC_RESOLUTION,
                                           eps * comp.radius)
                qs = [geom2d.translate(disc, (eps * comp.center[0],
                                              eps * comp.center[1]))]
            else:  # polygon component
                qs = geom2d.convex_parts(geom2d.scale_polygon(comp, eps))
            parts.extend(geom2d.minkowski_convex(piece, q)
                         for q in qs for piece in pieces)
    return RegionUnion(tuple(parts))


def sum_volume(M: Polygon, N: StructuringSet, eps: float) -> float:
    """|M + eps*N| via the exact union area; eps = 0 gives |M|."""
    if eps == 0.0:
        return geom2d.area(M)
    return geom2d.union_area(sum_region(M, N, eps))


# ---------------------------------------------------------------------------
# Extrapolation


def _neville_to_zero(xs: Sequence[float], ys: Sequence[float]):
    """Polynomial extrapolation of (xs, ys) to x=0; returns (diagonal, value)."""
    n = len(xs)
    tab = list(ys)
    diag = [tab[0]]
    for m in range(1, n):
        for i in range(n - m):
            tab[i] = (xs[i + m] * tab[i] - xs[i] * tab[i + 1]) / (xs[i + m] - xs[i])
        diag.append(tab[0])
    return diag, tab[0]


def _check_schedule(schedule: Sequence[float]) -> tuple[float, ...]:
    eps = tuple(float(e) for e in schedule)
    if len(eps) < 3:
        raise NonDecreasingSchedule("schedule needs at least 3 epsilons")
    if any(e <= 0 for e in eps) or any(a <= b for a, b in zip(eps, eps[1:])):
        raise NonDecreasingSchedule("schedule must be positive and strictly decreasing")
    return eps


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
        volumes = [sum_volume(M, N, e) for e in eps]
    elif len(volumes) != len(eps):
        raise ValueError("volumes must align with the schedule")
    quotients = tuple((v - base) / e for v, e in zip(volumes, eps))
    diag, value = _neville_to_zero(eps, quotients)
    err = abs(diag[-1] - diag[-2])
    return DEstimate(value, FINITE_DIFFERENCE, eps, quotients,
                     extrapolation_order=len(eps) - 1, error_estimate=err)


def d_boundary_integral(M: Polygon, N: StructuringSet) -> DEstimate:
    """Dilation derivative as the support integral over the boundary of M.

    Sums length(edge) * support(N, outward unit normal) over all edges; the
    unnormalized normal (dy, -dx) folds the edge length into the support
    value, and one support call evaluates every edge.  Exact for polygons,
    so error_estimate is 0.
    """
    V = np.asarray(M.vertices)
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
    verts = M.vertices
    if not 0 <= i < len(verts):
        raise ValueError("edge index out of range")
    if not geom2d.TAU < t < 1.0 - geom2d.TAU:
        raise SingularPoint("edge parameter addresses a vertex")
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    x0, y0 = verts[i]
    x1, y1 = verts[(i + 1) % len(verts)]
    y = (x0 + t * (x1 - x0), y0 + t * (y1 - y0))
    L = math.hypot(x1 - x0, y1 - y0)
    normal = ((y1 - y0) / L, -(x1 - x0) / L)
    region = sum_region(M, N, eps)
    return geom2d.ray_exit(y, normal, region)


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
    if any(e <= 0 for e in eps):
        raise ValueError("epsilons must be positive")
    if len(eps) < degree + 3:
        raise ValueError(f"need at least {degree + 3} distinct epsilons")
    if max(eps) / min(eps) < 10.0:
        raise IllConditioned("epsilon grid spans less than one decade")
    if volumes is None:
        vols = np.array([sum_volume(M, N, e) for e in eps])
    else:
        if len(volumes) != len(eps):
            raise ValueError("volumes must align with the deduplicated grid")
        vols = np.asarray(volumes, dtype=float)
    x = np.array(eps)
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
    coarse but independent check of the exact route (accuracy ~ h * perimeter).
    """
    eps = _check_schedule(schedule)
    big = sum_region(M, N, eps[0])
    xs = [v[0] for part in big.parts for v in part.vertices]
    ys = [v[1] for part in big.parts for v in part.vertices]
    pad = 2 * h
    bounds = ((min(xs) - pad, max(xs) + pad), (min(ys) - pad, max(ys) + pad))

    def region_indicator(region: RegionUnion):
        def f(pts: np.ndarray) -> np.ndarray:
            hit = np.zeros(len(pts), dtype=bool)
            for part in region.parts:
                hit |= geom2d.points_in_polygon(pts, part)
            return hit
        return f

    base, _ = geom2d.grid_volume(region_indicator(RegionUnion((M,))), bounds, h)
    quotients = []
    for e in eps:
        v, _ = geom2d.grid_volume(region_indicator(sum_region(M, N, e)), bounds, h)
        quotients.append((v - base) / e)
    diag, value = _neville_to_zero(eps, quotients)
    err = abs(diag[-1] - diag[-2])
    return DEstimate(value, FINITE_DIFFERENCE, eps, tuple(quotients),
                     extrapolation_order=len(eps) - 1, error_estimate=err)


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
                          schedule: Sequence[float],
                          ball_radius: float = 1.0,
                          fit_degree: int = 2) -> DEstimate:
    """Dilation derivative for M + eps*(ball) from a distance field of M.

    Works in any dimension the bounds describe (the d=3 sanity path): the
    dilated indicator is distance(x) <= eps * ball_radius and volumes are
    cell counts.  Grid quotients carry staircase noise that pointwise
    extrapolation would amplify, so the limit is read off as the constant
    term of a least-squares polynomial in eps (the quotient of a smooth
    convex dilation is polynomial of degree d-1).  The error estimate is the
    shift of that constant when the fit degree is raised by one.
    """
    eps = _check_schedule(schedule)
    if len(eps) < fit_degree + 3:
        raise NonDecreasingSchedule(
            f"schedule needs at least {fit_degree + 3} epsilons for a "
            f"degree-{fit_degree} fit")
    d = len(bounds)
    grid = geom2d.rasterize(lambda pts: np.ones(len(pts), bool), bounds, h)
    counts = grid.occupancy.shape
    axes = [grid.origin[i] + (np.arange(counts[i]) + 0.5) * h for i in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    dist = np.asarray(distance_fn(pts), dtype=float)
    cellvol = h ** d
    base = float((dist <= 0.0).sum()) * cellvol
    quotients = []
    for e in eps:
        v = float((dist <= e * ball_radius).sum()) * cellvol
        quotients.append((v - base) / e)
    x = np.array(eps)
    q = np.array(quotients)
    value = float(np.polynomial.polynomial.polyfit(x, q, fit_degree)[0])
    refined = float(np.polynomial.polynomial.polyfit(x, q, fit_degree + 1)[0])
    return DEstimate(value, FINITE_DIFFERENCE, eps, tuple(quotients),
                     extrapolation_order=fit_degree,
                     error_estimate=abs(value - refined), dimension=d)
