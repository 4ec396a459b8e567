import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import closed_form_plus_dilation, near_collinear_convex
from mixvol import geom2d, mixedvol, structuring
from mixvol.errors import (IllConditioned, NonDecreasingSchedule, SingularPoint)
from mixvol.geom2d import ConvexPolygon, Polygon
from mixvol.mixedvol import DEstimate
from mixvol.structuring import Disc, Points, Segment, StructuringSet


SQRT2 = math.sqrt(2)


def random_convex(rng, n=8):
    while True:
        pts = rng.uniform(-1, 1, size=(n, 2))
        try:
            return geom2d.convex_hull(pts)
        except Exception:
            continue


def diamond_polygon():
    return ConvexPolygon(((1, 0), (0, 1), (-1, 0), (0, -1)))


def unit_disc_set():
    return StructuringSet((Disc((0, 0), 1.0),))


# ---------------------------------------------------------------------------
# dilation volumes


def test_sum_volume_square_plus(unit_square, plus_set):
    # union of two 1 x 1.5 rectangles overlapping in the unit square
    assert mixedvol.sum_volume(unit_square, plus_set, 0.25) == \
        pytest.approx(2.0, abs=1e-12)


def test_sum_volume_eps_zero(unit_square, plus_set):
    assert mixedvol.sum_volume(unit_square, plus_set, 0.0) == 1.0


def test_sum_volume_linear_regime(unit_square, plus_set):
    for eps in (0.05, 0.1, 0.2, 0.4):
        assert mixedvol.sum_volume(unit_square, plus_set, eps) == \
            pytest.approx(1.0 + 4 * eps, abs=1e-12)


def test_sum_volume_disc_cross(disc_4096, plus_set):
    got = mixedvol.sum_volume(disc_4096, plus_set, 0.1)
    assert got == pytest.approx(closed_form_plus_dilation(0.1), abs=1e-3)


def test_sum_volume_point_set_translates(unit_square):
    N = StructuringSet((Points(((3.0, -2.0),)),))
    assert mixedvol.sum_volume(unit_square, N, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_sum_region_parts_are_convex():
    L = geom2d.Polygon(((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)))
    N = StructuringSet((
        Points(((0.5, 0.5), (-1.0, 0.0))),
        Segment((0, 0), (1, 2)),
        geom2d.Polygon(((0, 0), (2, 0), (2, 1), (1, 0.5), (0, 1))),
        Disc((0.3, -0.2), 0.5),
    ))
    for eps in (0.0, 0.1):
        region = mixedvol.sum_region(L, N, eps)
        assert all(isinstance(p, ConvexPolygon) for p in region.parts)
    assert geom2d.union_area(mixedvol.sum_region(L, N, 0.0)) == \
        pytest.approx(3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# finite differences


def test_fd_square_plus(unit_square, plus_set):
    est = mixedvol.d_finite_difference(unit_square, plus_set)
    assert est.method == "finite_difference"
    assert est.value == pytest.approx(4.0, abs=1e-9)
    assert est.epsilons == mixedvol.DEFAULT_SCHEDULE
    assert len(est.raw_quotients) == 7


def test_fd_disc_plus(disc_4096, plus_set):
    est = mixedvol.d_finite_difference(disc_4096, plus_set)
    assert est.value == pytest.approx(4 * SQRT2, abs=5e-3)


def test_fd_square_disc(unit_square):
    est = mixedvol.d_finite_difference(unit_square, unit_disc_set())
    assert est.value == pytest.approx(4.0, abs=1e-3)


def test_fd_rejects_bad_schedules(unit_square, plus_set):
    with pytest.raises(NonDecreasingSchedule):
        mixedvol.d_finite_difference(unit_square, plus_set, [0.1, 0.2, 0.3])
    with pytest.raises(NonDecreasingSchedule):
        mixedvol.d_finite_difference(unit_square, plus_set, [0.1, 0.05])
    with pytest.raises(NonDecreasingSchedule):
        mixedvol.d_finite_difference(unit_square, plus_set, [0.1, 0.0, -0.1])


def test_fd_accepts_precomputed_volumes(unit_square, plus_set):
    sched = (0.2, 0.1, 0.05, 0.025)
    vols = [mixedvol.sum_volume(unit_square, plus_set, e) for e in sched]
    est = mixedvol.d_finite_difference(unit_square, plus_set, sched, volumes=vols)
    ref = mixedvol.d_finite_difference(unit_square, plus_set, sched)
    assert est.value == ref.value
    assert est.raw_quotients == ref.raw_quotients


def test_default_schedule_shape():
    assert mixedvol.DEFAULT_SCHEDULE == tuple(0.1 * 2 ** -k for k in range(7))


# ---------------------------------------------------------------------------
# boundary integral


def test_bi_square_plus(unit_square, plus_set):
    est = mixedvol.d_boundary_integral(unit_square, plus_set)
    assert est.method == "boundary_integral"
    assert est.value == 4.0
    assert est.error_estimate == 0.0


def test_bi_square_disc(unit_square):
    est = mixedvol.d_boundary_integral(unit_square, unit_disc_set())
    assert est.value == pytest.approx(4.0, abs=1e-12)


def test_bi_disc_plus(disc_4096, plus_set):
    est = mixedvol.d_boundary_integral(disc_4096, plus_set)
    assert abs(est.value - 4 * SQRT2) < 1e-5


def _d_boundary_integral_reference(M, N):
    """The per-edge loop d_boundary_integral replaced: one support call per
    edge, summed left to right."""
    verts = M.vertices
    total = 0.0
    for i in range(len(verts)):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % len(verts)]
        total += structuring.support(N, (y1 - y0, -(x1 - x0)))
    return total


BI_SETS = (
    StructuringSet((Segment((-1, 0), (1, 0)), Segment((0, -1), (0, 1)))),
    StructuringSet((Disc((0.13, -0.07), 0.37),)),
    StructuringSet((Points(((0.3, 0.7), (-0.2, -0.4), (0.05, 0.1))),
                    Segment((-0.5, 0.2), (0.4, -0.3)))),
    StructuringSet((ConvexPolygon(((0, 0), (0.4, 0.1), (0.2, 0.5))),
                    Disc((-0.3, 0.2), 0.1))),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(near_collinear_convex(), st.sampled_from(BI_SETS))
def test_bi_matches_per_edge_loop(verts, N):
    try:
        M = ConvexPolygon(verts)
    except ValueError:  # a vertex pushed inward: still a simple polygon
        M = Polygon(verts)
    assert mixedvol.d_boundary_integral(M, N).value == _d_boundary_integral_reference(M, N)


@pytest.mark.parametrize("N", BI_SETS)
def test_bi_disc_4096_matches_per_edge_loop(disc_4096, N):
    M = geom2d.translate(disc_4096, (0.25, -0.5))
    assert mixedvol.d_boundary_integral(M, N).value == _d_boundary_integral_reference(M, N)


def test_estimate_v1(unit_square, plus_set):
    est = mixedvol.d_boundary_integral(unit_square, plus_set)
    assert est.v1 == est.value / 2


def test_estimate_validation():
    with pytest.raises(ValueError):
        DEstimate(1.0, "magic", (0.1,), (1.0,), 0, 0.0)
    with pytest.raises(ValueError):
        DEstimate(1.0, "finite_difference", (0.1, 0.2), (1.0, 1.0), 0, 0.0)
    with pytest.raises(ValueError):
        DEstimate(1.0, "finite_difference", (0.1, 0.05), (1.0,), 0, 0.0)
    with pytest.raises(ValueError):
        DEstimate(1.0, "finite_difference", (0.1,), (1.0,), 0, -1e-3)


def test_estimate_to_dict(unit_square, plus_set):
    d = mixedvol.d_finite_difference(unit_square, plus_set).to_dict()
    assert set(d) == {"value", "method", "error_estimate", "epsilons",
                      "raw_quotients"}
    assert len(d["epsilons"]) == len(d["raw_quotients"]) == 7


# ---------------------------------------------------------------------------
# local expansion probe


def test_probe_square_bottom(unit_square, plus_set):
    T = mixedvol.local_expansion_probe(unit_square, (0, 0.5), plus_set, 0.1)
    assert T == pytest.approx(0.1, abs=1e-12)


def test_probe_origin_set(unit_square):
    N = StructuringSet((Points(((0.0, 0.0),)),))
    T = mixedvol.local_expansion_probe(unit_square, (0, 0.5), N, 0.3)
    assert T == pytest.approx(0.0, abs=1e-12)


def test_probe_disc_limit(disc_4096, plus_set):
    # probe the edge whose midpoint is nearest the bottom of the disc
    verts = disc_4096.vertices
    n = len(verts)
    mid = lambda i: ((verts[i][0] + verts[(i + 1) % n][0]) / 2,
                     (verts[i][1] + verts[(i + 1) % n][1]) / 2)
    i0 = min(range(n), key=lambda i: (mid(i)[0] - 0.0) ** 2 + (mid(i)[1] + 1.0) ** 2)
    gaps = []
    for eps in (0.1, 0.05, 0.025):
        T = mixedvol.local_expansion_probe(disc_4096, (i0, 0.5), plus_set, eps)
        gaps.append(abs(T / eps - 1.0))
    assert all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 2e-2


def test_probe_vertex_rejected(unit_square, plus_set):
    with pytest.raises(SingularPoint):
        mixedvol.local_expansion_probe(unit_square, (0, 0.0), plus_set, 0.1)
    with pytest.raises(SingularPoint):
        mixedvol.local_expansion_probe(unit_square, (1, 1.0), plus_set, 0.1)


def test_probe_bad_args(unit_square, plus_set):
    with pytest.raises(ValueError):
        mixedvol.local_expansion_probe(unit_square, (9, 0.5), plus_set, 0.1)
    with pytest.raises(ValueError):
        mixedvol.local_expansion_probe(unit_square, (0, 0.5), plus_set, 0.0)


# ---------------------------------------------------------------------------
# mixed area


def test_mixed_area_self_is_area(unit_square):
    assert mixedvol.mixed_area(unit_square, unit_square) == \
        pytest.approx(1.0, abs=1e-12)


def test_mixed_area_square_diamond(unit_square):
    assert mixedvol.mixed_area(unit_square, diamond_polygon()) == \
        pytest.approx(2.0, abs=1e-12)


def test_mixed_area_symmetric():
    rng = np.random.default_rng(31)
    for _ in range(10):
        K1, K2 = random_convex(rng), random_convex(rng)
        assert mixedvol.mixed_area(K1, K2) == pytest.approx(
            mixedvol.mixed_area(K2, K1), abs=1e-12)


def test_bi_equals_twice_mixed_area():
    rng = np.random.default_rng(32)
    for _ in range(10):
        K1, K2 = random_convex(rng), random_convex(rng)
        d = mixedvol.d_boundary_integral(K1, StructuringSet((K2,))).value
        assert d == pytest.approx(2 * mixedvol.mixed_area(K1, K2), abs=1e-9)


# ---------------------------------------------------------------------------
# series fitting


def test_series_square_plus_exact(unit_square, plus_set):
    grid = np.linspace(0.004, 0.4, 8)
    fit = mixedvol.series_fit(unit_square, plus_set, grid, 2)
    c0, c1, c2 = fit.coefficients
    assert c0 == pytest.approx(1.0, abs=1e-9)
    assert c1 == pytest.approx(4.0, abs=1e-9)
    assert c2 == pytest.approx(0.0, abs=1e-9)
    assert fit.residual_max <= 1e-9


def test_series_convex_control_polynomial(unit_square):
    N = StructuringSet((diamond_polygon(),))
    grid = np.linspace(0.004, 0.4, 8)
    fit = mixedvol.series_fit(unit_square, N, grid, 2)
    assert fit.residual_max <= 1e-9
    assert fit.coefficients[1] == pytest.approx(4.0, abs=1e-8)
    assert fit.coefficients[2] == pytest.approx(2.0, abs=1e-8)


def test_series_disc_cross(disc_4096, plus_set):
    grid = np.linspace(0.01, 0.3, 8)
    fit = mixedvol.series_fit(disc_4096, plus_set, grid, 3)
    c = fit.coefficients
    assert c[0] == pytest.approx(math.pi, abs=1e-3)
    assert c[1] == pytest.approx(4 * SQRT2, abs=1e-2)
    assert c[2] == pytest.approx(2.0, abs=5e-2)
    assert c[3] == pytest.approx(-SQRT2 / 3, abs=1e-1)


def test_series_rejects_narrow_grid(unit_square, plus_set):
    with pytest.raises(IllConditioned):
        mixedvol.series_fit(unit_square, plus_set, np.linspace(0.1, 0.6, 8), 3)


def test_series_rejects_short_grid(unit_square, plus_set):
    with pytest.raises(ValueError):
        mixedvol.series_fit(unit_square, plus_set, (0.01, 0.1, 0.3), 2)


def test_series_accepts_precomputed_volumes(unit_square, plus_set):
    grid = np.linspace(0.004, 0.4, 8)
    vols = [mixedvol.sum_volume(unit_square, plus_set, e) for e in grid]
    fit = mixedvol.series_fit(unit_square, plus_set, grid, 2, volumes=vols)
    ref = mixedvol.series_fit(unit_square, plus_set, grid, 2)
    assert fit.coefficients == ref.coefficients
    with pytest.raises(ValueError):
        mixedvol.series_fit(unit_square, plus_set, grid, 2, volumes=vols[:-1])


# ---------------------------------------------------------------------------
# structural identities


def test_convexification_identity(plus_set):
    rng = np.random.default_rng(33)
    for _ in range(3):
        M = random_convex(rng)
        NH = StructuringSet((structuring.hull(plus_set),))
        a = mixedvol.d_boundary_integral(M, plus_set).value
        b = mixedvol.d_boundary_integral(M, NH).value
        assert a == pytest.approx(b, abs=1e-12)
        fa = mixedvol.d_finite_difference(M, plus_set)
        fb = mixedvol.d_finite_difference(M, NH)
        assert fa.value == pytest.approx(fb.value, abs=1e-3)


def test_minkowski_linearity():
    rng = np.random.default_rng(34)
    for _ in range(5):
        K1, K2, K3 = (random_convex(rng) for _ in range(3))
        d2 = mixedvol.d_boundary_integral(K1, StructuringSet((K2,))).value
        d3 = mixedvol.d_boundary_integral(K1, StructuringSet((K3,))).value
        for alpha, beta in ((1.0, 1.0), (2.0, 0.5), (0.3, 3.0)):
            mixN = geom2d.minkowski_convex(
                ConvexPolygon(geom2d.scale_polygon(K2, alpha).vertices),
                ConvexPolygon(geom2d.scale_polygon(K3, beta).vertices))
            d = mixedvol.d_boundary_integral(K1, StructuringSet((mixN,))).value
            assert d == pytest.approx(alpha * d2 + beta * d3, abs=1e-9)


def test_monotone_in_n(unit_square, plus_set):
    bigger = StructuringSet(plus_set.components + (Points(((1.5, 1.5),)),))
    a = mixedvol.d_boundary_integral(unit_square, plus_set).value
    b = mixedvol.d_boundary_integral(unit_square, bigger).value
    assert b >= a


def test_fd_bi_agreement_small_batch():
    rng = np.random.default_rng(35)
    for _ in range(5):
        M = random_convex(rng)
        segs = []
        for _ in range(int(rng.integers(2, 5))):
            a, b = rng.uniform(-1, 1, size=(2, 2))
            if np.hypot(*(b - a)) < 0.1:
                b = a + (0.5, 0.25)
            segs.append(Segment(tuple(a), tuple(b)))
        N = StructuringSet(tuple(segs))
        fd = mixedvol.d_finite_difference(M, N)
        bi = mixedvol.d_boundary_integral(M, N)
        assert abs(fd.value - bi.value) <= max(1e-3, 3 * fd.error_estimate)


@pytest.mark.parametrize("k", [8, 12, 16])
def test_fd_bi_agreement_regular_star(k, plus_set):
    # vertices at exact multiples of pi/k: its triangles have bottom edges a
    # rounding error off horizontal, which broke the angle-based edge merge
    M = geom2d.Polygon(tuple(((1.0 if i % 2 == 0 else 0.4) * math.cos(math.pi * i / k),
                              (1.0 if i % 2 == 0 else 0.4) * math.sin(math.pi * i / k))
                             for i in range(2 * k)))
    fd = mixedvol.d_finite_difference(M, plus_set)
    bi = mixedvol.d_boundary_integral(M, plus_set)
    assert abs(fd.value - bi.value) <= max(1e-3, 3 * fd.error_estimate)


# ---------------------------------------------------------------------------
# grid-based route


def test_d_grid_square_plus(unit_square, plus_set):
    est = mixedvol.d_grid(unit_square, plus_set, (0.4, 0.2, 0.1, 0.05), 0.02)
    assert est.value == pytest.approx(4.0, abs=0.2)


def test_box_distance():
    dist = mixedvol.box_distance((0, 0, 0), (1, 1, 1))
    pts = np.array([[0.5, 0.5, 0.5], [2.0, 0.5, 0.5], [2.0, 2.0, 0.5]])
    got = dist(pts)
    assert got[0] == 0.0
    assert got[1] == pytest.approx(1.0)
    assert got[2] == pytest.approx(math.sqrt(2))


def test_d_grid_distance_field_cube():
    dist = mixedvol.box_distance((0, 0, 0), (1, 1, 1))
    sched = (0.2, 0.15, 0.1, 0.075, 0.05)
    est = mixedvol.d_grid_distance_field(
        dist, ((-0.35, 1.35),) * 3, 0.025, sched)
    assert est.dimension == 3
    assert est.value == pytest.approx(6.0, abs=0.25)


def test_d_grid_distance_field_needs_points():
    dist = mixedvol.box_distance((0, 0), (1, 1))
    with pytest.raises(NonDecreasingSchedule):
        mixedvol.d_grid_distance_field(dist, ((-0.2, 1.2),) * 2, 0.05,
                                       (0.2, 0.1, 0.05), fit_degree=2)
