import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import closed_form_plus_dilation, near_collinear_convex
from mixvol import geom2d
from mixvol.errors import DegenerateInput, ResolutionTooCoarse
from mixvol.geom2d import ConvexPolygon, Polygon, RegionUnion


def random_convex(rng, n=8, spread=1.0):
    while True:
        pts = rng.uniform(-spread, spread, size=(n, 2))
        try:
            return geom2d.convex_hull(pts)
        except DegenerateInput:
            continue


# ---------------------------------------------------------------------------
# polygon construction


def test_polygon_rejects_too_few_vertices():
    with pytest.raises(ValueError):
        Polygon(((0, 0), (1, 0)))


def test_polygon_rejects_clockwise():
    with pytest.raises(ValueError):
        Polygon(((0, 0), (0, 1), (1, 1), (1, 0)))


def test_polygon_rejects_duplicate_consecutive():
    with pytest.raises(ValueError):
        Polygon(((0, 0), (1, 0), (1, 0), (0, 1)))


def test_polygon_rejects_bowtie():
    with pytest.raises(ValueError):
        Polygon(((0, 0), (1, 1), (1, 0), (0, 1)))


@pytest.mark.parametrize("n, k", [(80, 10), (1200, 1100)])
def test_polygon_rejects_self_crossing_above_64_vertices(n, k):
    # two swapped neighbours on an n-gon make a small bowtie in its boundary
    verts = [(2.2 * math.cos(2 * math.pi * i / n), 2.2 * math.sin(2 * math.pi * i / n))
             for i in range(n)]
    verts[k], verts[k + 1] = verts[k + 1], verts[k]
    with pytest.raises(ValueError, match="self-intersecting"):
        Polygon(tuple(verts))


def _is_simple_reference(verts):
    """The pairwise loop the numpy check replaced, kept as its reference."""
    def straddles(d1, d2):
        return (d1 > geom2d.TAU and d2 < -geom2d.TAU) or (d1 < -geom2d.TAU and d2 > geom2d.TAU)

    n = len(verts)
    for i in range(n):
        p1, p2 = verts[i], verts[(i + 1) % n]
        for j in range(i + 2, n - 1 if i == 0 else n):
            q1, q2 = verts[j], verts[(j + 1) % n]
            if (straddles(geom2d._cross(q1, q2, p1), geom2d._cross(q1, q2, p2))
                    and straddles(geom2d._cross(p1, p2, q1), geom2d._cross(p1, p2, q2))):
                return False
    return True


def test_is_simple_matches_pairwise_loop():
    rng = np.random.default_rng(7)
    for trial in range(300):
        n = int(rng.integers(3, 30))
        if trial % 2:  # grid points: many collinear and touching edges
            pts = rng.integers(0, 4, size=(n, 2)).astype(float)
        else:
            pts = rng.uniform(-1, 1, size=(n, 2))
        if trial % 3 == 0:  # angular order around the origin: mostly simple
            pts = pts[np.argsort(np.arctan2(pts[:, 1] - 0.1, pts[:, 0] - 0.1))]
        verts = tuple(map(tuple, pts.tolist()))
        assert geom2d._is_simple(verts) == _is_simple_reference(verts)


def test_polygon_accepts_large_simple_star():
    k = 60
    verts = tuple(((1.0 if i % 2 == 0 else 0.5) * math.cos(math.pi * i / k),
                   (1.0 if i % 2 == 0 else 0.5) * math.sin(math.pi * i / k))
                  for i in range(2 * k))
    assert len(Polygon(verts).vertices) == 2 * k


def _signed_area_reference(verts):
    """The per-vertex loops the array kernel replaced, kept as its reference;
    they evaluate the kernel's turn predicate one corner at a time."""
    acc = 0.0
    for i in range(len(verts)):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % len(verts)]
        acc += x0 * y1 - x1 * y0
    return 0.5 * acc


def _merge_collinear_reference(verts):
    out = list(verts)
    changed = True
    while changed and len(out) > 3:
        changed = False
        n = len(out)
        kept = []
        for i in range(n):
            o, a, b = out[i - 1], out[i], out[(i + 1) % n]
            if abs(geom2d._cross(o, a, b)) <= geom2d._turn_tol(o, a, b):
                changed = True
                continue
            kept.append(a)
        out = kept
    return out


def _is_convex_position_reference(verts):
    n = len(verts)
    for i in range(n):
        o, a, b = verts[i - 1], verts[i], verts[(i + 1) % n]
        if geom2d._cross(o, a, b) < -geom2d._turn_tol(o, a, b):
            return False
    return True


def _convex_polygon_reference(verts):
    """ConvexPolygon's vertices as the scalar loops made them (merged, then
    rotated to the lex-min vertex), or None where they refused the input."""
    verts = _merge_collinear_reference(verts)
    if (len(verts) < 3 or _signed_area_reference(verts) <= geom2d.TAU
            or not _is_convex_position_reference(verts)):
        return None
    k = min(range(len(verts)), key=lambda i: verts[i])
    return tuple(verts[k:] + verts[:k])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(near_collinear_convex(), st.booleans())
def test_convex_polygon_matches_scalar_loops(verts, mirror):
    if mirror:  # clockwise input: refused by both
        verts = [(-x, y) for x, y in verts]
    try:
        got = ConvexPolygon(verts).vertices
    except ValueError:
        got = None
    assert got == _convex_polygon_reference(verts)
    assert geom2d._is_convex_position(verts) == _is_convex_position_reference(verts)
    assert geom2d._signed_area(verts) == _signed_area_reference(verts)


def _regular_star(p, q, r=1.0):
    """The star polygon {p/q}: p points on a circle joined q apart, in
    drawing order, so every corner turns left."""
    return tuple((r * math.cos(2 * math.pi * q * k / p), r * math.sin(2 * math.pi * q * k / p))
                 for k in range(p))


@pytest.mark.parametrize("p, q", [(5, 2), (7, 2)])
def test_convex_polygon_rejects_star_polygons(p, q):
    star = _regular_star(p, q)
    assert _is_convex_position_reference(star)  # left turns only
    assert geom2d._signed_area(star) > 0
    with pytest.raises(ValueError, match="convex position"):
        ConvexPolygon(star)
    with pytest.raises(ValueError, match="self-intersecting"):
        geom2d.polygon_from_dict({"vertices": [list(v) for v in star]})


def _triangulate_reference(P):
    """The ear-clipping scan that evaluated the turn predicate one vertex at
    a time, kept as the reference of the array rounds."""
    verts = list(P.vertices)
    tris = []
    while len(verts) > 3:
        n = len(verts)
        for i in range(n):
            o, a, b = verts[i - 1], verts[i], verts[(i + 1) % n]
            c, tol = geom2d._cross(o, a, b), geom2d._turn_tol(o, a, b)
            if abs(c) <= tol:
                del verts[i]
                break
            if c < 0:
                continue
            if not any(q not in (o, a, b) and geom2d._cross(o, a, q) >= -tol
                       and geom2d._cross(a, b, q) >= -tol and geom2d._cross(b, o, q) >= -tol
                       for q in verts):
                tris.append((o, a, b))
                del verts[i]
                break
    tris.append(tuple(verts))
    return tris


@st.composite
def polar_polygon(draw):
    """A simple polygon with vertices at increasing angles, some of them
    exactly regular, and some edges split at their midpoint (straight corners)."""
    n = draw(st.integers(4, 24))
    if draw(st.booleans()):
        angles = [2 * math.pi * k / n for k in range(n)]
        radii = [1.0 if k % 2 == 0 else 0.4 for k in range(n)]
    else:
        angles = sorted(set(draw(st.lists(st.floats(0, 2 * math.pi, exclude_max=True),
                                          min_size=n, max_size=n))))
        radii = draw(st.lists(st.floats(0.3, 1.0), min_size=len(angles), max_size=len(angles)))
    verts = [(r * math.cos(t), r * math.sin(t)) for t, r in zip(angles, radii)]
    for k in sorted(draw(st.sets(st.integers(0, len(verts) - 1), max_size=3)), reverse=True):
        (x0, y0), (x1, y1) = verts[k], verts[(k + 1) % len(verts)]
        verts.insert(k + 1, ((x0 + x1) / 2, (y0 + y1) / 2))
    return verts


@settings(derandomize=True, max_examples=80, deadline=None)
@given(polar_polygon())
def test_triangulate_matches_scalar_scan(verts):
    try:
        P = Polygon(verts)
    except ValueError:  # angles too close together for a positive-area boundary
        return
    assert geom2d.triangulate(P) == _triangulate_reference(P)


def test_triangulate_pinched_polygon():
    # two triangles touching at (1, 1), which the boundary visits twice
    P = Polygon(((0, 0), (2, 0), (1, 1), (2, 2), (0, 2), (1, 1)))
    tris = geom2d.triangulate(P)
    assert tris == _triangulate_reference(P)
    assert sum(geom2d._signed_area(t) for t in tris) == pytest.approx(2.0)


def test_polygon_from_dict_rejects_collinear_points():
    # every corner is straight, so merging leaves no polygon at all
    with pytest.raises(ValueError):
        geom2d.polygon_from_dict({"vertices": [[0, 0], [1, 1], [2, 2], [3, 3]]})


def test_convex_polygon_rejects_reflex():
    with pytest.raises(ValueError):
        ConvexPolygon(((0, 0), (2, 0), (2, 2), (1, 0.5), (0, 2)))


def test_convex_polygon_merges_collinear():
    P = ConvexPolygon(((0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1)))
    assert len(P.vertices) == 4


# ---------------------------------------------------------------------------
# convex hull


def test_hull_drops_interior_point():
    H = geom2d.convex_hull([(0, 0), (1, 0), (0, 1), (0.2, 0.2)])
    assert set(H.vertices) == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}


def test_hull_diamond_keeps_all_extremes():
    H = geom2d.convex_hull([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert set(H.vertices) == {(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}


def test_hull_random_points_extremality():
    rng = np.random.default_rng(11)
    r = np.sqrt(rng.uniform(0, 1, 100))
    th = rng.uniform(0, 2 * math.pi, 100)
    pts = [(ri * math.cos(t), ri * math.sin(t)) for ri, t in zip(r, th)]
    H = geom2d.convex_hull(pts)
    pset = set(pts)
    assert set(H.vertices) <= pset
    # boundary-inclusive containment for every input point
    assert all(geom2d.point_in_polygon(p, H) for p in pts)
    # every hull vertex is genuinely extreme: dropping it shrinks the hull
    for v in H.vertices:
        H2 = geom2d.convex_hull([p for p in pts if p != v])
        assert not geom2d.point_in_polygon(v, H2)


def test_hull_idempotent():
    rng = np.random.default_rng(3)
    P = random_convex(rng, 12)
    H = geom2d.convex_hull(P.vertices)
    assert H.vertices == P.vertices


def _convex_hull_reference(points):
    """The monotone chain with the turn predicate evaluated at every step."""
    pts = sorted({(float(x), float(y)) for x, y in points})

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and geom2d._cross(out[-2], out[-1], p) <= \
                    geom2d._turn_tol(out[-2], out[-1], p):
                out.pop()
            out.append(p)
        return out

    return ConvexPolygon(tuple(chain(pts)[:-1] + chain(pts[::-1])[:-1])).vertices


@settings(derandomize=True, max_examples=100, deadline=None)
@given(near_collinear_convex(), st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
                                         max_size=10))
def test_hull_matches_stepwise_chain(verts, inner):
    points = verts + inner
    assert geom2d.convex_hull(points).vertices == _convex_hull_reference(points)


def test_hull_collinear_raises():
    with pytest.raises(DegenerateInput):
        geom2d.convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])


# ---------------------------------------------------------------------------
# areas


def test_area_unit_square(unit_square):
    assert geom2d.area(unit_square) == 1.0


def test_area_diamond(diamond):
    assert geom2d.area(diamond) == pytest.approx(2.0, abs=1e-15)


def test_area_disc_4096(disc_4096):
    assert abs(geom2d.area(disc_4096) - math.pi) < 1e-5
    # inscribed polygon, so from below, and on the closed form exactly
    assert geom2d.area(disc_4096) < math.pi
    assert geom2d.area(disc_4096) == pytest.approx(
        2048 * math.sin(2 * math.pi / 4096), rel=1e-12)


def test_perimeter_and_centroid(unit_square):
    assert geom2d.perimeter(unit_square) == pytest.approx(4.0)
    assert geom2d.centroid(unit_square) == pytest.approx((0.5, 0.5))


# ---------------------------------------------------------------------------
# Minkowski sums


def test_minkowski_square_square(unit_square):
    S = geom2d.minkowski_convex(unit_square, unit_square)
    assert geom2d.area(S) == pytest.approx(4.0, abs=1e-12)
    xs = [v[0] for v in S.vertices]
    ys = [v[1] for v in S.vertices]
    assert (min(xs), max(xs), min(ys), max(ys)) == (0.0, 2.0, 0.0, 2.0)


def test_minkowski_square_diamond_octagon(unit_square, diamond):
    S = geom2d.minkowski_convex(unit_square, diamond)
    assert len(S.vertices) == 8
    assert geom2d.area(S) == pytest.approx(7.0, abs=1e-12)


def test_minkowski_commutes_and_associates():
    rng = np.random.default_rng(5)
    for _ in range(10):
        P, Q, R = (random_convex(rng) for _ in range(3))
        pq = geom2d.minkowski_convex(P, Q)
        qp = geom2d.minkowski_convex(Q, P)
        assert geom2d.area(pq) == pytest.approx(geom2d.area(qp), rel=1e-12)
        left = geom2d.minkowski_convex(pq, R)
        right = geom2d.minkowski_convex(P, geom2d.minkowski_convex(Q, R))
        assert geom2d.area(left) == pytest.approx(geom2d.area(right), rel=1e-10)


def test_minkowski_translation_invariant():
    rng = np.random.default_rng(6)
    P, Q = random_convex(rng), random_convex(rng)
    Pt = geom2d.translate(P, (3.5, -1.25))
    a = geom2d.area(geom2d.minkowski_convex(P, Q))
    b = geom2d.area(geom2d.minkowski_convex(ConvexPolygon(Pt.vertices), Q))
    assert a == pytest.approx(b, rel=1e-12)


def test_minkowski_bottom_vertex_round_off():
    # the closing edge points 1.2e-16 below the x-axis; an angle merge read it
    # as angle 0 instead of 2pi and produced a non-convex vertex order
    P = ConvexPolygon(((-1, 1.2e-16), (1, 0), (0, 0.5)))
    T = ConvexPolygon(((0, 0), (1, 0), (0, 1)))
    hull = geom2d.convex_hull([(p[0] + q[0], p[1] + q[1])
                               for p in P.vertices for q in T.vertices])
    assert geom2d.area(geom2d.minkowski_convex(P, T)) == \
        pytest.approx(geom2d.area(hull), rel=1e-12)


@st.composite
def nudged_convex(draw):
    """Convex polygon with a horizontal bottom edge, one end of it raised by
    1e-16 to 1e-15: the round-off that reorders edges in an angle merge."""
    left = draw(st.floats(-1.0, -0.2))
    right = draw(st.floats(0.2, 1.0))
    top = draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.1, 1.0)),
                        min_size=1, max_size=6))
    hull = geom2d.convex_hull([(left, 0.0), (right, 0.0)] + top)
    raised = (left, 0.0) if draw(st.booleans()) else (right, 0.0)
    dy = draw(st.floats(1e-16, 1e-15))
    return ConvexPolygon(tuple((x, y + dy) if (x, y) == raised else (x, y)
                               for x, y in hull.vertices))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(nudged_convex(), nudged_convex(), st.booleans())
def test_minkowski_is_hull_of_vertex_sums(P, Q, flip):
    if flip:  # also put the near-tie at the top of Q
        Q = ConvexPolygon(tuple((-x, -y) for x, y in Q.vertices))
    hull = geom2d.convex_hull([(p[0] + q[0], p[1] + q[1])
                               for p in P.vertices for q in Q.vertices])
    assert geom2d.area(geom2d.minkowski_convex(P, Q)) == \
        pytest.approx(geom2d.area(hull), rel=1e-12)


def test_minkowski_segment_square(unit_square):
    R = geom2d.minkowski_segment(unit_square, (0, 0), (0, 1))
    assert geom2d.union_area(R) == pytest.approx(2.0, abs=1e-12)


def test_minkowski_segment_stadium(disc_4096):
    eps = 0.3
    R = geom2d.minkowski_segment(disc_4096, (0, -eps), (0, eps))
    assert geom2d.union_area(R) == pytest.approx(math.pi + 4 * eps, abs=1e-4)


def test_minkowski_segment_degenerate_translates(unit_square):
    R = geom2d.minkowski_segment(unit_square, (2, 3), (2, 3))
    assert len(R.parts) == 1
    assert geom2d.union_area(R) == pytest.approx(1.0, abs=1e-12)
    assert R.parts[0].vertices == geom2d.translate(unit_square, (2, 3)).vertices


def test_minkowski_segment_nonconvex():
    # L-shape swept upward: area grows by width * sweep length exactly
    L = Polygon(((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)))
    R = geom2d.minkowski_segment(L, (0, 0), (0, 0.5))
    assert geom2d.union_area(R) == pytest.approx(3.0 + 2 * 0.5, abs=1e-9)


# ---------------------------------------------------------------------------
# unions


def test_union_overlapping_squares(unit_square):
    shifted = Polygon(geom2d.translate(unit_square, (0.5, 0)).vertices)
    assert geom2d.union_area(RegionUnion((unit_square, shifted))) == \
        pytest.approx(1.5, abs=1e-12)


def test_union_disjoint_squares(unit_square):
    shifted = Polygon(geom2d.translate(unit_square, (5, 0)).vertices)
    assert geom2d.union_area(RegionUnion((unit_square, shifted))) == \
        pytest.approx(2.0, abs=1e-12)


def test_union_disc_cross_dilation(disc_4096):
    # union of the two convex sweeps of the disc along +/- axis segments
    eps = 0.1
    Rh = geom2d.minkowski_segment(disc_4096, (-eps, 0), (eps, 0))
    Rv = geom2d.minkowski_segment(disc_4096, (0, -eps), (0, eps))
    R = RegionUnion(tuple(Rh.parts) + tuple(Rv.parts))
    assert geom2d.union_area(R) == pytest.approx(
        closed_form_plus_dilation(eps), abs=1e-3)


def test_union_monotone_and_subadditive():
    rng = np.random.default_rng(9)
    parts = []
    prev = 0.0
    for _ in range(6):
        P = geom2d.translate(random_convex(rng), tuple(rng.uniform(-1, 1, 2)))
        parts.append(Polygon(P.vertices))
        a = geom2d.union_area(RegionUnion(tuple(parts)))
        assert a >= prev - 1e-12
        assert a <= sum(geom2d.area(p) for p in parts) + 1e-12
        prev = a


def test_union_equals_sum_iff_disjoint(unit_square):
    far = Polygon(geom2d.translate(unit_square, (10, 10)).vertices)
    near = Polygon(geom2d.translate(unit_square, (0.25, 0.25)).vertices)
    assert geom2d.union_area(RegionUnion((unit_square, far))) == \
        pytest.approx(2.0, abs=1e-12)
    overlapped = geom2d.union_area(RegionUnion((unit_square, near)))
    assert overlapped < 2.0 - 1e-9


# ---------------------------------------------------------------------------
# grids


def square_indicator(pts):
    return (pts[:, 0] >= 0) & (pts[:, 0] <= 1) & (pts[:, 1] >= 0) & (pts[:, 1] <= 1)


def test_grid_volume_square():
    est, bound = geom2d.grid_volume(square_indicator, ((-0.2, 1.2), (-0.2, 1.2)), 0.01)
    assert abs(est - 1.0) <= 0.05


def test_grid_volume_disc():
    f = lambda pts: (pts ** 2).sum(axis=1) <= 1.0
    est, bound = geom2d.grid_volume(f, ((-1.1, 1.1), (-1.1, 1.1)), 0.005)
    assert abs(est - math.pi) <= 0.02


def test_grid_volume_ball_3d():
    f = lambda pts: (pts ** 2).sum(axis=1) <= 1.0
    est, bound = geom2d.grid_volume(f, ((-1.05, 1.05),) * 3, 0.02)
    assert abs(est - 4 * math.pi / 3) <= 0.05


def test_grid_volume_error_bound_holds():
    rng = np.random.default_rng(7)
    for _ in range(20):
        P = random_convex(rng, n=9)
        f = lambda pts: geom2d.points_in_polygon(pts, P)
        est, bound = geom2d.grid_volume(f, ((-1.1, 1.1), (-1.1, 1.1)), 0.02)
        assert abs(est - geom2d.area(P)) <= bound


def test_grid_volume_too_coarse():
    f = lambda pts: (pts ** 2).sum(axis=1) <= 1.0
    with pytest.raises(ResolutionTooCoarse):
        geom2d.grid_volume(f, ((-1.5, 1.5), (-1.5, 1.5)), 0.8)


# ---------------------------------------------------------------------------
# regular discs


def test_regular_disc_4():
    D = geom2d.regular_disc(4, 1.0)
    assert len(D.vertices) == 4
    assert geom2d.area(D) == pytest.approx(2.0, abs=1e-12)
    for x, y in D.vertices:
        assert math.hypot(x, y) == pytest.approx(1.0, abs=1e-12)


def test_regular_disc_8_radius_2():
    D = geom2d.regular_disc(8, 2.0)
    assert geom2d.area(D) == pytest.approx(8 * math.sqrt(2), rel=1e-12)


def test_regular_disc_rejects_bad_args():
    with pytest.raises(ValueError):
        geom2d.regular_disc(2, 1.0)
    with pytest.raises(ValueError):
        geom2d.regular_disc(16, 0.0)


# ---------------------------------------------------------------------------
# queries


def test_point_in_polygon(unit_square):
    assert geom2d.point_in_polygon((0.5, 0.5), unit_square)
    assert not geom2d.point_in_polygon((1.5, 0.5), unit_square)


def _point_in_polygon_reference(p, P):
    """The even-odd loop with its on-edge test that point_in_polygon replaced."""
    x, y = p
    verts = P.vertices
    inside = False
    for i in range(len(verts)):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % len(verts)]
        if min(x0, x1) - geom2d.TAU <= x <= max(x0, x1) + geom2d.TAU and \
           min(y0, y1) - geom2d.TAU <= y <= max(y0, y1) + geom2d.TAU:
            if abs(geom2d._cross((x0, y0), (x1, y1), (x, y))) <= geom2d.TAU * max(
                    1.0, math.hypot(x1 - x0, y1 - y0)):
                return True
        if (y0 > y) != (y1 > y):
            xi = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
            if xi > x:
                inside = not inside
    return inside


def test_point_in_polygon_matches_even_odd_loop():
    rng = np.random.default_rng(17)
    k = 7
    star = Polygon(tuple(((1.0 if i % 2 == 0 else 0.45) * math.cos(math.pi * i / k),
                          (1.0 if i % 2 == 0 else 0.45) * math.sin(math.pi * i / k))
                         for i in range(2 * k)))
    for P in (random_convex(rng, 9), star, geom2d.regular_disc(64, 1.0)):
        V = np.array(P.vertices)
        t = rng.uniform(0, 1, size=(len(V), 1))
        on_edges = V + t * (np.roll(V, -1, axis=0) - V)
        for p in np.concatenate([rng.uniform(-1.2, 1.2, size=(300, 2)), V, on_edges]):
            p = tuple(p.tolist())
            assert geom2d.point_in_polygon(p, P) == _point_in_polygon_reference(p, P)


def test_polygon_distance(unit_square):
    assert geom2d.polygon_distance((0.5, 0.5), unit_square) == 0.0
    assert geom2d.polygon_distance((2.0, 0.5), unit_square) == pytest.approx(1.0)
    assert geom2d.polygon_distance((2.0, 2.0), unit_square) == \
        pytest.approx(math.sqrt(2))


def test_hausdorff_convex(unit_square):
    other = ConvexPolygon(geom2d.translate(unit_square, (0.5, 0)).vertices)
    assert geom2d.hausdorff_convex(unit_square, unit_square) == 0.0
    assert geom2d.hausdorff_convex(unit_square, other) == pytest.approx(0.5)


def test_ray_exit(unit_square):
    R = RegionUnion((unit_square,))
    assert geom2d.ray_exit((0.5, 0.5), (0, 1), R) == pytest.approx(0.5)
    assert geom2d.ray_exit((0.5, 0.5), (1, 0), R) == pytest.approx(0.5)


def _ray_exit_reference(origin, direction, region):
    """The per-edge loop ray_exit replaced."""
    (ox, oy), (dx, dy) = origin, direction
    best = 0.0
    for part in region.parts:
        verts = part.vertices
        for i in range(len(verts)):
            ax, ay = verts[i]
            bx, by = verts[(i + 1) % len(verts)]
            ex, ey = bx - ax, by - ay
            denom = dx * ey - dy * ex
            if abs(denom) <= geom2d.TAU:
                continue
            s = ((ax - ox) * ey - (ay - oy) * ex) / denom
            t = (dy * (ax - ox) - dx * (ay - oy)) / denom
            if -1e-9 <= t <= 1.0 + 1e-9 and s > best:
                best = s
    return best


def test_ray_exit_matches_per_edge_loop(unit_square):
    rng = np.random.default_rng(23)
    region = RegionUnion((random_convex(rng, 9), geom2d.translate(unit_square, (0.3, -0.2)),
                          geom2d.regular_disc(64, 0.8)))
    for _ in range(200):
        origin = tuple(rng.uniform(-1, 1, 2).tolist())
        th = rng.uniform(0, 2 * math.pi)
        direction = (math.cos(th), math.sin(th))
        assert geom2d.ray_exit(origin, direction, region) == \
            _ray_exit_reference(origin, direction, region)
    # axis-parallel rays meet the square's edges end-on
    assert geom2d.ray_exit((0.5, 0.0), (1.0, 0.0), region) == \
        _ray_exit_reference((0.5, 0.0), (1.0, 0.0), region)


def test_ray_exit_takes_farthest(unit_square):
    # two overlapping squares: ray exits the union, not the first part
    shifted = Polygon(geom2d.translate(unit_square, (0, 0.75)).vertices)
    R = RegionUnion((unit_square, shifted))
    assert geom2d.ray_exit((0.5, 0.5), (0, 1), R) == pytest.approx(1.25)


# ---------------------------------------------------------------------------
# serialization


def test_polygon_round_trip(unit_square):
    d = geom2d.polygon_to_dict(unit_square)
    assert d == {"vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]}
    back = geom2d.polygon_from_dict(d)
    assert isinstance(back, ConvexPolygon)
    assert back.vertices == unit_square.vertices


def test_polygon_from_dict_nonconvex():
    d = {"vertices": [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]}
    back = geom2d.polygon_from_dict(d)
    assert isinstance(back, Polygon)
    assert not isinstance(back, ConvexPolygon)
