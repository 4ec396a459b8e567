"""End-to-end checks of the package's central quantitative claims.

One test per criterion; run with -v to get a pass/fail line for each.  Every
test prints its measured values so the numbers are inspectable either way.
"""

import math
import time

import numpy as np
import pytest

from conftest import closed_form_plus_dilation
from mixvol import geom2d, isoperimetric, lattice, mixedvol, structuring
from mixvol.geom2d import ConvexPolygon
from mixvol.isoperimetric import SegmentFamily
from mixvol.structuring import Segment, StructuringSet
from test_lattice import _solve_full, enumerate_polyominoes

SQRT2 = math.sqrt(2)

PLUS = StructuringSet((Segment((-1.0, 0.0), (1.0, 0.0)),
                       Segment((0.0, -1.0), (0.0, 1.0))))
PLUS_FAMILY = SegmentFamily((((-1, 0), (1, 0)), ((0, -1), (0, 1))))
SQUARE = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
DIAMOND = ConvexPolygon(((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)))
GRID = lattice.grid_graph(2)


def random_convex(rng, n=8):
    while True:
        pts = rng.uniform(-1, 1, size=(n, 2))
        try:
            return geom2d.convex_hull(pts)
        except Exception:
            continue


def random_segment_set(rng, k_lo=2, k_hi=4, min_len=0.1):
    """Random segment union whose hull is nondegenerate."""
    while True:
        k = int(rng.integers(k_lo, k_hi + 1))
        segs = []
        for _ in range(k):
            a = rng.uniform(-1, 1, 2)
            b = a + rng.uniform(-1, 1, 2)
            while np.hypot(*(b - a)) < min_len:
                b = a + rng.uniform(-1, 1, 2)
            segs.append(Segment(tuple(a), tuple(b)))
        N = StructuringSet(tuple(segs))
        try:
            structuring.hull(N)
            return N
        except Exception:
            continue


@pytest.fixture(scope="module")
def fifty_pairs():
    """Seeded (convex M, segment-union N) pairs with both estimates attached."""
    rng = np.random.default_rng(20260817)
    out = []
    t0 = time.perf_counter()
    for _ in range(50):
        M = random_convex(rng)
        N = random_segment_set(rng)
        fd = mixedvol.d_finite_difference(M, N)
        bi = mixedvol.d_boundary_integral(M, N)
        out.append((M, N, fd, bi))
    return out, time.perf_counter() - t0


def test_criterion_01_first_order_derivative(disc_4096):
    t0 = time.perf_counter()
    fd = mixedvol.d_finite_difference(disc_4096, PLUS)
    bi = mixedvol.d_boundary_integral(disc_4096, PLUS)
    dt = time.perf_counter() - t0
    print(f"criterion 01: fd={fd.value:.8f} bi={bi.value:.10f} "
          f"target={4 * SQRT2:.10f} elapsed={dt:.1f}s")
    assert abs(fd.value - 4 * SQRT2) <= 5e-3
    assert abs(bi.value - 4 * SQRT2) <= 1e-5
    assert dt < 10.0


def test_criterion_02_series_coefficients(disc_4096):
    grid = np.linspace(0.01, 0.3, 25)
    fit = mixedvol.series_fit(disc_4096, PLUS, grid, 3)
    c = fit.coefficients
    expect = (math.pi, 4 * SQRT2, 2.0, -SQRT2 / 3)
    tol = (1e-3, 1e-2, 5e-2, 1e-1)
    vol = mixedvol.sum_volume(disc_4096, PLUS, 0.1)
    ref = closed_form_plus_dilation(0.1)
    print(f"criterion 02: coefficients={tuple(round(x, 5) for x in c)} "
          f"volume(0.1)={vol:.8f} closed-form={ref:.8f}")
    for got, want, t in zip(c, expect, tol):
        assert abs(got - want) <= t
    assert abs(vol - ref) <= 1e-3


def test_criterion_03_non_polynomiality(disc_4096):
    grid = np.linspace(0.1, 0.6, 12)

    def best_cubic_residual(M, N):
        vols = np.array([mixedvol.sum_volume(M, N, e) for e in grid])
        coef = np.polynomial.polynomial.polyfit(grid, vols, 3)
        return float(np.abs(
            np.polynomial.polynomial.polyval(grid, coef) - vols).max())

    res = best_cubic_residual(disc_4096, PLUS)
    control = best_cubic_residual(SQUARE, StructuringSet((DIAMOND,)))
    print(f"criterion 03: residual={res:.4g} control={control:.4g} "
          f"ratio={res / max(control, 1e-300):.3g}")
    assert control <= 1e-9
    assert res >= 10 * control


def test_criterion_04_convexification(fifty_pairs):
    pairs, elapsed = fifty_pairs
    worst_bi = 0.0
    worst_fd = 0.0
    for M, N, fd, bi in pairs:
        NH = StructuringSet((structuring.hull(N),))
        bih = mixedvol.d_boundary_integral(M, NH)
        fdh = mixedvol.d_finite_difference(M, NH)
        worst_bi = max(worst_bi, abs(bi.value - bih.value))
        gap = abs(fd.value - fdh.value)
        tol = max(1e-3, 3 * max(fd.error_estimate, fdh.error_estimate))
        worst_fd = max(worst_fd, gap / tol)
        assert abs(bi.value - bih.value) <= 1e-12
        assert gap <= tol
    print(f"criterion 04: worst bi gap={worst_bi:.3g} "
          f"worst fd gap/tol={worst_fd:.3g} pair setup={elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_05_estimator_agreement(fifty_pairs):
    pairs, _ = fifty_pairs
    worst = 0.0
    for M, N, fd, bi in pairs:
        gap = abs(fd.value - bi.value)
        tol = max(1e-3, 3 * fd.error_estimate)
        worst = max(worst, gap / tol)
        assert gap <= tol
    print(f"criterion 05: worst gap/tolerance={worst:.3g} over 50 pairs")


def test_criterion_06_expansion_probe(disc_4096):
    verts = disc_4096.vertices
    n = len(verts)

    def mid(i):
        return ((verts[i][0] + verts[(i + 1) % n][0]) / 2,
                (verts[i][1] + verts[(i + 1) % n][1]) / 2)

    i0 = min(range(n), key=lambda i: mid(i)[0] ** 2 + (mid(i)[1] + 1.0) ** 2)
    qs = [mixedvol.local_expansion_probe(disc_4096, (i0, 0.5), PLUS, e) / e
          for e in (0.1, 0.05, 0.025, 0.0125)]
    gaps = [abs(q - 1.0) for q in qs]
    print(f"criterion 06: T(eps)/eps={['%.9f' % q for q in qs]} "
          f"final gap={gaps[-1]:.3g}")
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 2e-2


def test_criterion_07_linearity():
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for _ in range(20):
        K1, K2, K3 = (random_convex(rng) for _ in range(3))
        d2 = mixedvol.d_boundary_integral(K1, StructuringSet((K2,))).value
        d3 = mixedvol.d_boundary_integral(K1, StructuringSet((K3,))).value
        for alpha, beta in ((1.0, 1.0), (2.0, 0.5), (0.3, 3.0)):
            comb = geom2d.minkowski_convex(
                ConvexPolygon(geom2d.scale_polygon(K2, alpha).vertices),
                ConvexPolygon(geom2d.scale_polygon(K3, beta).vertices))
            d = mixedvol.d_boundary_integral(K1, StructuringSet((comb,))).value
            worst = max(worst, abs(d - (alpha * d2 + beta * d3)))
    print(f"criterion 07: worst linearity defect={worst:.3g}")
    assert worst <= 1e-9


def test_criterion_08_polynomial_expansion():
    rng = np.random.default_rng(20260818)
    lams = np.linspace(0.2, 2.0, 5)
    worst = 0.0
    worst_sym = 0.0
    for _ in range(10):
        K1, K2 = random_convex(rng), random_convex(rng)
        a1, a2 = geom2d.area(K1), geom2d.area(K2)
        V = mixedvol.mixed_area(K1, K2)
        worst_sym = max(worst_sym, abs(V - mixedvol.mixed_area(K2, K1)))
        for l1 in lams:
            for l2 in lams:
                S = geom2d.minkowski_convex(
                    ConvexPolygon(geom2d.scale_polygon(K1, l1).vertices),
                    ConvexPolygon(geom2d.scale_polygon(K2, l2).vertices))
                want = l1 * l1 * a1 + 2 * l1 * l2 * V + l2 * l2 * a2
                worst = max(worst, abs(geom2d.area(S) - want))
    print(f"criterion 08: worst expansion defect={worst:.3g} "
          f"worst symmetry defect={worst_sym:.3g}")
    assert worst <= 1e-9
    assert worst_sym <= 1e-12


def test_criterion_09_edge_minima():
    t0 = time.perf_counter()
    minima = [lattice.solve_exact(GRID, n, "edge").minimum
              for n in range(1, 10)]
    full = [_solve_full(GRID, n, "edge").minimum
            for n in range(1, 7)]
    dt = time.perf_counter() - t0
    print(f"criterion 09: minima={minima} full-search(1..6)={full} "
          f"elapsed={dt:.1f}s")
    assert minima == [4, 6, 8, 8, 10, 10, 12, 12, 12]
    assert full == minima[:6]
    assert dt < 60.0


def test_criterion_10_vertex_minima():
    minima = [lattice.solve_exact(GRID, n, "vertex").minimum
              for n in range(1, 10)]
    brute = [min(lattice.vertex_boundary(p, GRID)
                 for p in enumerate_polyominoes(n)) for n in range(1, 10)]
    full = [_solve_full(GRID, n, "vertex").minimum
            for n in range(1, 7)]
    res5 = lattice.solve_exact(GRID, 5, "vertex")
    print(f"criterion 10: minima={minima} brute={brute} witness(5)="
          f"{res5.witness.to_list()}")
    assert minima == brute
    assert full == minima[:6]
    assert res5.minimum == 8
    # the l1 ball: the plus pentomino, in canonical translation
    assert res5.witness.to_list() == [[0, 0], [1, -1], [1, 0], [1, 1], [2, 0]]


def test_criterion_11_convergence_diagnostics():
    edge_results = [lattice.solve_heuristic(GRID, n, "edge", seed=1)
                    for n in (16, 64, 144)]
    edge_rows = lattice.convergence_diagnostic(
        edge_results, isoperimetric.zonotope(PLUS_FAMILY))
    vert_results = [lattice.solve_heuristic(GRID, n, "vertex", seed=1)
                    for n in (13, 41, 85)]
    vert_rows = lattice.convergence_diagnostic(
        vert_results, structuring.hull(PLUS))
    ed = [r.hausdorff for r in edge_rows]
    vd = [r.hausdorff for r in vert_rows]
    print(f"criterion 11: edge dists={['%.4f' % d for d in ed]} "
          f"vertex dists={['%.4f' % d for d in vd]}")
    assert ed[0] > ed[1] > ed[2]
    assert vd[0] > vd[1] > vd[2]


def test_criterion_12_optimality_margins():
    Z = isoperimetric.zonotope(PLUS_FAMILY)
    rz = isoperimetric.evaluate_edge(Z, PLUS_FAMILY, 0.0).ratio
    H = structuring.hull(PLUS)
    rh = isoperimetric.evaluate_vertex(H, PLUS, 0.0).ratio
    suite = isoperimetric.shape_suite(seed=2024, count=50)
    edge_margin = min(isoperimetric.evaluate_edge(S, PLUS_FAMILY, rz).ratio
                      for S in suite) - rz
    vert_margin = min(isoperimetric.evaluate_vertex(S, PLUS, rh).ratio
                      for S in suite) - rh
    print(f"criterion 12: edge margin={edge_margin:.4f} "
          f"vertex margin={vert_margin:.4f}")
    assert edge_margin >= -1e-9
    assert vert_margin >= -1e-9


def test_criterion_13_wulff_identity_and_refinement():
    # identity clause: unions whose hull-edge normals all land on the
    # 360-direction grid (segments through the origin, endpoints on the
    # unit circle at even-degree angles)
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(10):
        k = int(rng.integers(3, 7))
        degs = rng.choice(180, size=k, replace=False) * 2
        segs = []
        for d in degs:
            th = math.radians(float(d))
            p = (math.cos(th), math.sin(th))
            segs.append(Segment(p, (-p[0], -p[1])))
        N = StructuringSet(tuple(segs))
        worst = max(worst, geom2d.hausdorff_convex(
            isoperimetric.wulff_shape(N, 360), structuring.hull(N)))

    # refinement clause: generic unions, distance roughly halves per doubling
    rng = np.random.default_rng(99)
    r1, r2 = [], []
    for _ in range(10):
        N = random_segment_set(rng, 3, 6, min_len=0.3)
        H = structuring.hull(N)
        d = [geom2d.hausdorff_convex(isoperimetric.wulff_shape(N, nd), H)
             for nd in (90, 180, 360)]
        assert d[0] >= d[1] >= d[2]
        assert d[0] > d[2] > 0
        r1.append(d[0] / d[1])
        r2.append(d[1] / d[2])
    m1, m2 = float(np.mean(r1)), float(np.mean(r2))
    print(f"criterion 13: identity worst={worst:.3g} "
          f"halving ratios={m1:.3f},{m2:.3f}")
    assert worst <= 1e-6
    assert 1.5 <= m1 <= 2.5
    assert 1.5 <= m2 <= 2.5


def test_criterion_14_cube_surface_area():
    t0 = time.perf_counter()
    dist = mixedvol.box_distance((0, 0, 0), (1, 1, 1))
    est = mixedvol.d_grid_distance_field(
        dist, ((-0.45, 1.45),) * 3, 0.01,
        (0.4, 0.35, 0.3, 0.25, 0.2, 0.15, 0.1))
    dt = time.perf_counter() - t0
    print(f"criterion 14: value={est.value:.5f} "
          f"error estimate={est.error_estimate:.3g} elapsed={dt:.1f}s")
    assert abs(est.value - 6.0) <= 0.1
    assert dt < 120.0
