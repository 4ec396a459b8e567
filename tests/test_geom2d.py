import ast
import itertools
import math
import pickle
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (NEAR_STRAIGHT_RUN, closed_form_plus_dilation, minkowski_walk,
                      near_collinear_convex)
from test_cli import MIXED_N, POLY_M
from mixvol import geom2d, isoperimetric, lattice, mixedvol, structuring
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


_HUGE_SQUARE = ((1e200, 1e200), (2e200, 1e200), (2e200, 2e200), (1e200, 2e200))


@pytest.mark.parametrize("make, verts", [
    (ConvexPolygon, ((0, 0), (1e200, 0), (0, 1e200))),
    (Polygon, ((0, 0), (1e200, 0), (1e200, 1e200), (0, 1e200))),
    (Polygon, _HUGE_SQUARE),
    (ConvexPolygon, _HUGE_SQUARE),
], ids=["convex-inf", "polygon-inf", "polygon-nan", "convex-nan"])
def test_polygon_rejects_overflowing_area(make, verts):
    """Finite vertices whose shoelace area overflows to inf, or to NaN where
    two overflowed products cancel, are refused like a zero area."""
    with np.errstate(over="ignore", invalid="ignore"):
        assert not math.isfinite(geom2d._signed_area(np.array(verts, dtype=float)))
        with pytest.raises(ValueError, match="positive area"):
            make(verts)


def _ngon(n):
    return [(2.2 * math.cos(2 * math.pi * i / n), 2.2 * math.sin(2 * math.pi * i / n))
            for i in range(n)]


def _star(k, inner=0.5):
    """A star with k spikes and 2k vertices at angles pi*i/k, radii 1 and inner."""
    return [((1.0 if i % 2 == 0 else inner) * math.cos(math.pi * i / k),
             (1.0 if i % 2 == 0 else inner) * math.sin(math.pi * i / k))
            for i in range(2 * k)]


@pytest.mark.parametrize("verts, k, gap", [
    pytest.param(_ngon(80), 10, 1, id="80-10"),
    pytest.param(_ngon(1200), 1100, 1, id="1200-1100"),
    pytest.param(_star(2048), 3000, 2, id="star4096-3000"),
])
def test_polygon_rejects_self_crossing_above_64_vertices(verts, k, gap):
    # two swapped neighbours on an n-gon make a small bowtie in its boundary;
    # on a star, swapping two spike tips crosses the edges up to the dip between
    verts = list(verts)
    verts[k], verts[k + gap] = verts[k + gap], verts[k]
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
    for k in (60, 2048):
        assert len(Polygon(tuple(_star(k))).vertices) == 2 * k


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
    """Rounds over every corner of the last round's vertices: a straight
    corner goes unless the corner before it went in this round (the first
    corner's is the last)."""
    out = list(verts)
    changed = True
    while changed and len(out) > 3:
        changed = False
        n = len(out)
        drop = [abs(geom2d._cross(out[i - 1], out[i], out[(i + 1) % n]))
                <= geom2d._turn_tol(out[i - 1], out[i], out[(i + 1) % n]) for i in range(n)]
        for i in range(1, n):
            drop[i] = drop[i] and not drop[i - 1]
        drop[0] = drop[0] and not drop[-1]
        changed = any(drop)
        out = [a for a, d in zip(out, drop) if not d]
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
    # ConvexPolygon is the only convexity test: polygon_from_dict returns one
    # exactly when it accepts the vertices
    try:
        from_dict = geom2d.polygon_from_dict({"vertices": verts})
    except ValueError:
        from_dict = None
    assert isinstance(from_dict, ConvexPolygon) == (got is not None)
    assert geom2d._signed_area(verts) == _signed_area_reference(verts)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(near_collinear_convex())
def test_kept_array_is_the_checked_vertices(verts):
    """A polygon's `array` is its vertices after collinear merging and the
    lex-min rotation, read-only."""
    want = _convex_polygon_reference(verts)
    if want is None:  # refused (an inward offset made a reflex corner)
        return
    for P in (ConvexPolygon(verts), ConvexPolygon(np.array(verts)), Polygon(want)):
        assert P.array.shape == (len(want), 2)
        assert P.array.tobytes() == np.array(want).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            P.array[0, 0] = 0.0


@pytest.mark.parametrize("cls", [Polygon, ConvexPolygon])
def test_kept_array_leaves_equality_hashing_and_pickles_alone(cls):
    verts = ((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0))
    V = np.array(verts)
    P, Q = cls(V), cls(verts)
    V[0] = (5.0, 5.0)  # the caller's array is not the kept one
    assert P == Q and hash(P) == hash(Q) and P.array.tobytes() == Q.array.tobytes()
    assert P.__reduce_ex__(2)[2] == {"vertices": verts}  # a pickle holds the tuple alone
    R = pickle.loads(pickle.dumps(P))
    assert R == P and hash(R) == hash(P) and R.array.tobytes() == P.array.tobytes()
    assert not R.array.flags.writeable
    assert hash(P) == hash((P.vertices,))  # the hash of the dataclass with a `vertices` field
    other = ConvexPolygon if cls is Polygon else Polygon
    assert P != other(verts) and other(verts) != P


def test_only_geom2d_reads_vertices():
    """A polygon stores one array: outside geom2d, mixvol reads `array`,
    never the `vertices` tuple built from it."""
    readers = [f"{path.name}:{node.lineno}"
               for path in sorted(Path(geom2d.__file__).parent.glob("*.py"))
               if path.name != "geom2d.py"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "vertices"]
    assert readers == []


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


def test_near_straight_run_splits_into_convex_pieces(plus_set):
    # ConvexPolygon refuses the merged run; the pieces must cover P exactly
    P = geom2d.polygon_from_dict({"vertices": NEAR_STRAIGHT_RUN})
    assert type(P) is Polygon
    with pytest.raises(ValueError, match="convex position"):
        ConvexPolygon(P.vertices)
    pieces = geom2d.convex_parts(P)
    assert all(isinstance(piece, ConvexPolygon) for piece in pieces)
    assert geom2d.union_area(RegionUnion(tuple(pieces))) == pytest.approx(geom2d.area(P), rel=1e-12)
    assert geom2d.union_area(RegionUnion((P,))) == pytest.approx(geom2d.area(P), rel=1e-12)
    # the box [0, 0.8] x [0, 1] plus 0.1 times the axis cross has area 1.16
    assert mixedvol.sum_volume(P, plus_set, 0.1) == pytest.approx(1.16, abs=1e-9)


def test_convex_parts_leave_out_a_sliver_ear():
    """Ear clipping cuts P into triangles of area 0.125, 0.125 and 8.3e-13.
    `ConvexPolygon` refuses the last; `convex_parts` leaves it out, and
    `_convex_pieces` keeps it."""
    P = Polygon(((0, 0), (0.5, -0.75), (0.25, 0.125), (0.12500000000175, 0.5625000000005), (0, 1)))
    pieces = geom2d.convex_parts(P)
    assert len(pieces) == 2 and len(geom2d._convex_pieces(P)) == 3
    assert sum(geom2d.area(piece) for piece in pieces) == pytest.approx(geom2d.area(P), abs=1e-12)


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
    assert all(_point_in_polygon_reference(p, H) for p in pts)
    # every hull vertex is genuinely extreme: dropping it shrinks the hull
    for v in H.vertices:
        H2 = geom2d.convex_hull([p for p in pts if p != v])
        assert not _point_in_polygon_reference(v, H2)


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
            while len(out) >= 2 and (c := geom2d._cross(out[-2], out[-1], p)) <= \
                    geom2d._turn_tol(out[-2], out[-1], p) and (c <= 0.0 or np.dot(
                        np.subtract(out[-1], out[-2]), np.subtract(p, out[-1])) > 0.0):
                out.pop()
            out.append(p)
        return out

    return ConvexPolygon(tuple(chain(pts)[:-1] + chain(pts[::-1])[:-1])).vertices


@settings(derandomize=True, max_examples=100, deadline=None)
@given(near_collinear_convex(), st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
                                         max_size=10))
# two corners an ulp apart, each straight on the edge between them: merging
# both at once left two vertices of a triangle of area 0.25
@example([(0.0, 0.0), (0.5, -0.4999999999999999), (0.0, 1.0)], [(0.5, -0.5)])
def test_hull_matches_stepwise_chain(verts, inner):
    points = verts + inner
    assert geom2d.convex_hull(points).vertices == _convex_hull_reference(points)


def test_hull_keeps_corner_of_zigzag_in_x_ties():
    # sorted by x, corners of a vertical edge whose x differ by ulps zigzag in
    # y; the fold (-2 - u, 1) -> (-2 + u, 0) -> (-2 + 2u, 1) turns left by
    # nearly pi, and its tiny cross product is no straight run to merge
    u = 4.440892098500626e-16
    pts = [(-2 - u, 1.0), (-2.0, 2.0), (-2 + u, 0.0), (-2 + 2 * u, 1.0), (2.0, 0.0), (0.0, 2.0)]
    H = geom2d.convex_hull(pts)
    assert (-2 + u, 0.0) in H.vertices
    assert geom2d.area(H) == pytest.approx(6.0, abs=1e-12)


def test_hull_collinear_raises():
    with pytest.raises(DegenerateInput):
        geom2d.convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])


@pytest.mark.parametrize("pts", [[(0, 0), (1e-6, 0), (5e-7, 1e-6)],
                                 [(0, 0), (1, 0), (0.5, 1e-12)]], ids=["small", "flat"])
def test_hull_sliver_raises(pts):
    # three corners in general position, but an area of at most TAU
    with pytest.raises(DegenerateInput):
        geom2d.convex_hull(pts)


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


def test_centroid(unit_square):
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
    1e-16 to 1e-15: the round-off that reorders edges in an angle merge.
    Maybe also a vertical left edge, one end of it moved in x by as much:
    there the merge's lex-min start meets its round-off."""
    left = draw(st.floats(-1.0, -0.2))
    right = draw(st.floats(0.2, 1.0))
    top = draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.1, 1.0)),
                        min_size=1, max_size=6))
    vertical = draw(st.booleans())
    if vertical:
        top = [(max(x, left), y) for x, y in top] + [(left, draw(st.floats(0.1, 1.0)))]
    hull = geom2d.convex_hull([(left, 0.0), (right, 0.0)] + top)
    raised = (left, 0.0) if draw(st.booleans()) else (right, 0.0)
    dy = draw(st.floats(1e-16, 1e-15))
    verts = [(x, y + dy) if (x, y) == raised else (x, y) for x, y in hull.vertices]
    if vertical:
        k = draw(st.sampled_from([k for k, v in enumerate(verts) if v[0] == left]))
        dx = draw(st.floats(1e-16, 1e-15)) * draw(st.sampled_from((-1.0, 1.0)))
        verts[k] = (left + dx, verts[k][1])
    return ConvexPolygon(tuple(verts))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(nudged_convex(), nudged_convex(), st.booleans())
@example(ConvexPolygon(((-1.0000000000000004, 0.0), (1.0, 4.61555650790947e-16),
                        (0.0, 1.0), (-1.0, 1.0))),
         ConvexPolygon(((-1.0, 1.0), (-0.9999999999999992, 0.0),
                        (1.0, 8.4294640337155e-16), (0.0, 1.0))), False)
def test_minkowski_is_hull_of_vertex_sums(P, Q, flip):
    if flip:  # also put the near-ties at the top and right of Q
        Q = ConvexPolygon(tuple((-x, -y) for x, y in Q.vertices))
    hull = geom2d.convex_hull([(p[0] + q[0], p[1] + q[1])
                               for p in P.vertices for q in Q.vertices])
    assert geom2d.area(geom2d.minkowski_convex(P, Q)) == \
        pytest.approx(geom2d.area(hull), rel=1e-12)


def _chain(verts):
    """A chain as `_convolution` takes it for C: a convex polygon's `array`,
    or a segment's two ends in lex order."""
    if len(verts) == 2:
        return np.array(sorted(map(tuple, verts)), dtype=float)
    return ConvexPolygon(verts).array


def _convex_count(V):
    """The vertex count of `ConvexPolygon(V)`, or None where it refuses V."""
    try:
        return len(ConvexPolygon(V).vertices)
    except ValueError:
        return None


def _sum_matches_walk(A, B):
    """The convolution cycle of the chains A and B has the area of their sum
    by the reference walk, to 1e-12 relative, and `ConvexPolygon` keeps as
    many of its vertices as of the walk's, or refuses both."""
    got, want = geom2d._minkowski(A, B), minkowski_walk(A, B)
    assert geom2d._signed_area(got) == pytest.approx(geom2d._signed_area(want), rel=1e-12)
    assert _convex_count(got) == _convex_count(want)


@st.composite
def segment_along(draw, verts):
    """A segment exactly vertical, exactly horizontal, or along an edge of
    the polygon `verts` (so one of its two edges is parallel to that edge
    and the other antiparallel)."""
    x, y = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    t = draw(st.floats(0.1, 2.0)) * draw(st.sampled_from((-1.0, 1.0)))
    kind = draw(st.sampled_from(("vertical", "horizontal", "edge")))
    if kind == "vertical":
        return [(x, y), (x, y + t)]
    if kind == "horizontal":
        return [(x, y), (x + t, y)]
    k = draw(st.integers(0, len(verts) - 1))
    (x0, y0), (x1, y1) = verts[k], verts[(k + 1) % len(verts)]
    return [(x, y), (x + t * (x1 - x0), y + t * (y1 - y0))]


def _convex_drawn(draw):
    """The vertices of a `near_collinear_convex` draw as `ConvexPolygon`
    stores them, or of its hull where an inward offset made a reflex corner."""
    verts = draw(near_collinear_convex())
    try:
        return list(ConvexPolygon(verts).vertices)
    except ValueError:
        return list(geom2d.convex_hull(verts).vertices)


@st.composite
def chain_pairs(draw):
    """Two chains that a sum meets on the estimators' paths: n-gons with
    near-collinear runs, an n-gon and a segment along one of its edges or
    an axis, two such segments, or an edge of an exactly regular star (the
    one with defect A) with a segment."""
    family = draw(st.sampled_from(("polygons", "segment", "segments", "star")))
    if family == "star":
        star = _star(draw(st.sampled_from((4, 6, 8, 12, 16))), draw(st.sampled_from((0.4, 0.5))))
        k = draw(st.integers(0, len(star) - 1))
        return [star[k], star[(k + 1) % len(star)]], draw(segment_along(star))
    P = _convex_drawn(draw)
    if family == "polygons":
        return P, _convex_drawn(draw)
    seg = draw(segment_along(P))
    return (P, seg) if family == "segment" else (draw(segment_along(P)), seg)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(chain_pairs(), st.booleans())
def test_minkowski_chain_matches_reference_walk(pair, flip):
    """The sum of two chains by the convolution kernel, either one taken as
    the polygon V, against the reference walk."""
    _sum_matches_walk(*(_chain(P) for P in (pair[::-1] if flip else pair)))


@st.composite
def convex_and_chain(draw):
    """A `near_collinear_convex` polygon and a chain: another one, a segment
    along one of its edges or an axis, or a disc chain."""
    P = _convex_drawn(draw)
    kind = draw(st.sampled_from(("polygon", "segment", "disc")))
    if kind == "polygon":
        return P, _convex_drawn(draw)
    if kind == "segment":
        return P, draw(segment_along(P))
    return P, 0.1 * structuring._unit_disc() + (0.01, -0.02)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(convex_and_chain())
def test_convolution_of_convex_chains_walks_their_sum_once(pair):
    """Where V is convex every corner turns left, and the cycle runs once
    round the boundary of the sum: its shoelace area is the reference
    walk's, with near-collinear runs and edges parallel to the chain's alike
    (a run that wrapped round C would add |C| or take it away)."""
    A, B = (_chain(P) for P in pair)
    a, b = geom2d._convolution(A, B)
    assert geom2d._signed_area(A[a] + B[b]) == \
        pytest.approx(geom2d._signed_area(minkowski_walk(A, B)), rel=1e-12)


@pytest.mark.parametrize("n, jitter", [(4096, 0.0), (4096, 0.3), (64, 0.0)])
def test_minkowski_chain_matches_reference_walk_on_disc_chains(n, jitter):
    """An n-gon, regular or jittered on a circle, and the disc chain of
    `sum_region`, in both orders (the exactly regular one is parallel to
    the disc's edges pair by pair)."""
    rng = np.random.default_rng(n)
    theta = 2 * np.pi * (np.arange(n) + rng.uniform(-jitter, jitter, n)) / n
    M = ConvexPolygon(np.stack((1.3 * np.cos(theta), 1.3 * np.sin(theta)), axis=1))
    disc = 0.05 * 0.7 * structuring._unit_disc() + (0.01, -0.02)
    _sum_matches_walk(M.array, disc)
    _sum_matches_walk(disc, M.array)


@pytest.mark.parametrize("B", [((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0)),
                               1e-320 * geom2d.regular_disc(64, 1.0).array,
                               1e-321 * structuring._unit_disc()],
                         ids=["duplicate", "64-gon", "disc"])
def test_minkowski_chain_matches_reference_walk_on_zero_edges(B):
    """Chains C with zero edges (a repeated vertex, or a disc scaled until
    its vertices round together): a zero edge has no key, and takes the one
    before it."""
    _sum_matches_walk(ConvexPolygon(_ngon(9)).array, np.array(B, dtype=float))


def test_minkowski_chain_subnormal_width_edge_warns_not():
    # a left edge 5e-324 wide: its key sees a subnormal x
    P = _chain([(5e-324, -1.0), (1.0, 0.0), (0.0, 1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for other in ([(0.0, -1.0), (0.0, 1.0)], [(-1.0, 0.0), (1.0, 0.0)],
                      [(0.0, -1.0), (5e-324, 1.0)], _ngon(7)):
            _sum_matches_walk(P, _chain(other))
            _sum_matches_walk(_chain(other), P)


def _drifted(V, P, Q):
    """How many rows of V equal no rounded sum P[i] + Q[j]."""
    def key(X):  # each row as one complex number
        return np.ascontiguousarray(X, dtype=float).view(np.complex128).ravel()
    Vs = np.sort(key(V))
    hit = []
    for lo in range(0, len(P), 256):  # the sums in blocks, not len(P) * len(Q) at once
        S = key((P[lo:lo + 256, None] + Q[None]).reshape(-1, 2))
        hit.append(S[Vs[np.minimum(np.searchsorted(Vs, S), len(Vs) - 1)] == S])
    return int(np.count_nonzero(~np.isin(key(V), np.concatenate(hit))))


@pytest.mark.parametrize("P, Q", [
    (ConvexPolygon(1.3 * geom2d.regular_disc(4096, 1.0).array),
     ConvexPolygon(0.05 * 0.7 * structuring._unit_disc() + (0.01, -0.02))),
    (geom2d.regular_disc(64, 1.0), ConvexPolygon(((0, 0), (1, 0), (0, 1)))),
    (geom2d.regular_disc(8, 1.0), ConvexPolygon(((0, 0), (1, 0), (1, 1), (0, 1)))),
], ids=["4096-gon-disc", "64-gon-triangle", "8-gon-square"])
def test_minkowski_convex_vertices_are_single_sums(P, Q):
    """Every vertex of the sum is one rounded P[i] + Q[j], with no running
    sum of edges to drift."""
    S = geom2d.minkowski_convex(P, Q)
    assert _drifted(S.array, P.array, Q.array) == 0


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


def _minkowski_segment_reference(P, a, b):
    """Part vertex arrays of `minkowski_segment` through the polygons of
    `convex_parts` and the reference walk, a `translate` of each for a
    zero-length segment."""
    pieces = geom2d.convex_parts(P)
    if a == b:
        return [geom2d.translate(piece, a).array for piece in pieces]
    return [ConvexPolygon(minkowski_walk(piece.array, sorted((a, b)))).array for piece in pieces]


@pytest.mark.parametrize("P", [
    geom2d.regular_disc(64, 1.0),
    Polygon(((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2))),
    Polygon(((0, 0), (1, 0), (1, 1), (0.5, 1), (0, 1))),
], ids=["convex", "L", "polygon-with-straight-corner"])
@pytest.mark.parametrize("a, b", [((0, 0), (0, 0.5)), ((0.3, -0.2), (-0.1, 0.4)),
                                  ((2, 3), (2, 3))], ids=["vertical", "oblique", "zero"])
def test_minkowski_segment_parts_match_reference(P, a, b):
    """The parts are the walk's up to its running sum's round-off, and each
    vertex is one sum of a piece's vertex and an end."""
    got = [part.array for part in geom2d.minkowski_segment(P, a, b).parts]
    want = _minkowski_segment_reference(P, a, b)
    assert [V.shape for V in got] == [V.shape for V in want]
    assert all(np.abs(V - W).max() <= 1e-15 for V, W in zip(got, want))
    ends = np.array((a, b), dtype=float)
    assert [_drifted(V, piece.array, ends) for V, piece in zip(got, geom2d.convex_parts(P))] == \
        [0] * len(got)


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


def _monotone_chains_reference(verts):
    """Lower and upper chains of a convex part, as functions of x, for the
    pair loop below."""
    n = len(verts)
    imin = min(range(n), key=lambda i: verts[i])
    imax = max(range(n), key=lambda i: verts[i])
    lower = []
    i = imin
    while True:
        lower.append(verts[i])
        if i == imax:
            break
        i = (i + 1) % n
    upper = []
    i = imax
    while True:
        upper.append(verts[i])
        if i == imin:
            break
        i = (i + 1) % n
    upper.reverse()

    def dedup(chain, keep_low):
        out = []
        for p in chain:
            if out and abs(p[0] - out[-1][0]) <= geom2d.TAU:
                if (p[1] < out[-1][1]) == keep_low:
                    out[-1] = p
            else:
                out.append(p)
        return out

    lo = dedup(lower, True)
    hi = dedup(upper, False)
    return (np.array([p[0] for p in lo]), np.array([p[1] for p in lo]),
            np.array([p[0] for p in hi]), np.array([p[1] for p in hi]))


def _chain_crossings_reference(xs1, ys1, xs2, ys2):
    a = max(xs1[0], xs2[0])
    b = min(xs1[-1], xs2[-1])
    if b - a <= geom2d.TAU:
        return []
    bp = np.unique(np.clip(np.concatenate([xs1, xs2]), a, b))
    f = np.interp(bp, xs1, ys1) - np.interp(bp, xs2, ys2)
    s = np.sign(f)
    flips = np.nonzero(s[:-1] * s[1:] < 0)[0]
    return [float(bp[t] + (bp[t + 1] - bp[t]) * f[t] / (f[t] - f[t + 1])) for t in flips]


def _convex_union_area_reference(parts):
    """The union area with its events from a Python loop over part pairs."""
    chains = []
    boxes = []
    for verts in parts:
        xs_lo, ys_lo, xs_hi, ys_hi = _monotone_chains_reference(verts)
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
                    xs.extend(_chain_crossings_reference(c1[0], c1[1], c2[0], c2[1]))
            if xs:
                events.append(np.array(xs))

    xs = np.unique(np.concatenate(events))
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
    return float(np.dot(acc, widths))


def _slab_sweep_reference(parts, cycles):
    """The slab sweep `geom2d._union_area` ran before its chain sweep: every
    vertex and crossing is an event, and each edge is evaluated on the
    midline of every slab it spans."""
    arrays = [*parts, *cycles]
    P = np.concatenate(arrays)
    n = np.array([len(part) for part in arrays])
    start = np.cumsum(n) - n
    nxt = np.arange(1, len(P) + 1)
    nxt[start + n - 1] = start
    Q = P[nxt]
    owner = np.repeat(np.arange(len(n)), n)
    first_cycle = int(n[:len(parts)].sum())
    owner[first_cycle:] = len(n) + np.arange(len(P) - first_cycle)
    xs = np.unique(np.concatenate((P[:, 0], geom2d._crossings(P, Q, owner)[0])))
    mids = 0.5 * (xs[:-1] + xs[1:])
    # a slab too narrow for a midline strictly inside it is measured at its
    # left end: where parts share vertices up to an ulp such slabs are many,
    # and together they hold about 1e-13 of the area
    mids = np.where((xs[:-1] < mids) & (mids < xs[1:]), mids, xs[:-1])
    widths = np.diff(xs)
    dx, dy = Q[:, 0] - P[:, 0], Q[:, 1] - P[:, 1]
    sign = np.where(dx > 0.0, 1, -1)
    # edge e spans slabs first[e] .. last[e] - 1, those whose midline has
    # x0 <= mid < x1 for the edge's ends x0 < x1: at a left end that takes
    # the edges that start there and not those that end there, so every part
    # is still entered as often as it is left
    first = np.searchsorted(mids, np.minimum(P[:, 0], Q[:, 0]))
    last = np.searchsorted(mids, np.maximum(P[:, 0], Q[:, 0]))
    spans = np.cumsum(np.bincount(first, minlength=len(mids) + 1)
                      - np.bincount(last, minlength=len(mids) + 1))
    done = np.concatenate(([0], np.cumsum(spans[:-1])))
    budget = max(len(P), geom2d._PAIR_BLOCK)
    total = 0.0
    s0 = 0
    while s0 < len(mids):
        # one slab at least, and at most 2**16, so that ordering the spans by
        # slab is a radix sort of 16-bit keys
        s1 = int(np.searchsorted(done, done[s0] + budget, side="right")) - 1
        s1 = min(max(s1, s0 + 1), s0 + (1 << 16))
        e = np.flatnonzero((first < s1) & (last > s0))
        a = np.maximum(first[e], s0)
        k = np.minimum(last[e], s1) - a
        e = np.repeat(e, k)
        s = np.arange(len(e)) + np.repeat(a - np.cumsum(k) + k, k)
        # (mid - x0) / dx lies in [0, 1) even where dx is subnormal
        y = P[e, 1] + (mids[s] - P[e, 0]) / dx[e] * dy[e]
        s -= s0
        order = np.argsort(y)
        order = order[np.argsort(s.astype(np.uint16)[order], kind="stable")]
        y, s, count = y[order], s[order], np.cumsum(sign[e[order]])
        # a slab's covered length is summed before its width weighs it, so
        # the total rounds once per slab, not once per span
        covered = np.bincount(s[:-1], np.where(count[:-1] > 0, y[1:] - y[:-1], 0.0), s1 - s0)
        total += float(np.sum(covered * widths[s0:s1]))
        s0 = s1
    return total


def _crossings_reference(P, Q, owner):
    """The crossing kernel `geom2d._crossings` ran before it read coordinate
    columns: strided (n, 2) rows, a stacked box array, (2K, 2, 2) end arrays
    and 2-D fancy indexes."""
    x0, x1 = np.minimum(P[:, 0], Q[:, 0]), np.maximum(P[:, 0], Q[:, 0])
    order = x0.argsort(kind="stable")
    ybox = np.stack((np.minimum(P[:, 1], Q[:, 1]), np.maximum(P[:, 1], Q[:, 1]),
                     owner)).take(order, 1)
    # in x0 order, edge i's candidate pairs last[i] - count[i] .. last[i] - 1
    # are the edges i + 1 .. i + count[i], those that start before it ends
    count = x0[order].searchsorted(x1[order], side="right") - np.arange(1, len(P) + 1)
    last = count.cumsum()
    skip = count - last + np.arange(1, len(P) + 1)
    crossings, touches = [np.empty(0)], [np.empty(0)]
    for start in range(0, int(last[-1]), geom2d._PAIR_BLOCK):
        stop = min(start + geom2d._PAIR_BLOCK, int(last[-1]))
        # the edges with pairs in the block, and how many each has there
        e0, e1 = last.searchsorted((start, stop - 1), side="right") + (0, 1)
        i = np.arange(e0, e1).repeat(np.minimum(last[e0:e1], stop)
                                     - np.maximum(last[e0:e1] - count[e0:e1], start))
        j = np.arange(start, stop) + skip[i]
        (ilo, ihi, iown), (jlo, jhi, jown) = ybox.take(i, 1), ybox.take(j, 1)
        near = (iown != jown) & (jlo <= ihi) & (ilo <= jhi)
        i, j = order[i[near]], order[j[near]]
        # the turns of the ends (P, Q) of edge i off edge j, then of edge j
        # off edge i: turn[:K] is (d1, d2), turn[K:] is (d3, d4)
        ij, ji = np.concatenate((i, j)), np.concatenate((j, i))
        ends = np.concatenate((P.take(ij, 0), Q.take(ij, 0)), 1).reshape(-1, 2, 2)
        o = P.take(ji, 0)
        L, W = Q.take(ji, 0) - o, ends - o[:, None]
        turn = L[:, 0, None] * W[..., 1] - L[:, 1, None] * W[..., 0]
        d = turn.reshape(2, -1, 2)
        hit = np.logical_and(*geom2d._straddles(d[..., 0], d[..., 1]))
        a, d1, d2 = i[hit], d[0, hit, 0], d[0, hit, 1]
        crossings.append(P[a, 0] + d1 / (d1 - d2) * (Q[a, 0] - P[a, 0]))
        r, c = (np.abs(turn) <= geom2d.TAU).nonzero()
        pt, p, q = ends[r, c], P.take(ji[r], 0), Q.take(ji[r], 0)
        inside = (np.minimum(p, q) - geom2d.TAU <= pt) & (pt <= np.maximum(p, q) + geom2d.TAU)
        touches.append(pt[inside[:, 0] & inside[:, 1], 0])
    return np.concatenate(crossings), np.concatenate(touches)


def _chain_edges(parts, cycles):
    """The edges P[e] -> Q[e] of the rings of `parts` and `cycles` and the
    x-monotone chain of each, as `geom2d._sweep_area` hands them to
    `geom2d._crossings`."""
    arrays = [*parts, *cycles]
    P = np.concatenate(arrays)
    n = np.array([len(part) for part in arrays])
    start = np.cumsum(n) - n
    nxt = np.arange(1, len(P) + 1)
    nxt[start + n - 1] = start
    Q = P[nxt]
    right = Q[:, 0] > P[:, 0]
    head = np.concatenate(([True], right[1:] != right[:-1]))
    head[start] = True
    return P, Q, np.cumsum(head) - 1


def assert_crossings_match_reference(parts, cycles=()):
    """`geom2d._crossings` gives the reference's crossings and touches, as
    sorted arrays with their multiplicity, with chain owners as the union
    sweep takes them and with every edge its own owner as `_is_simple`
    takes them; and the union area is the reference's bit for bit."""
    P, Q, chain = _chain_edges(parts, cycles)
    for owner in (chain, np.arange(len(P))):
        for got, want in zip(geom2d._crossings(P, Q, owner), _crossings_reference(P, Q, owner)):
            assert np.array_equal(np.sort(got), np.sort(want))
    area = geom2d._sweep_area(parts, cycles)
    with mock.patch.object(geom2d, "_crossings", _crossings_reference):
        assert geom2d._sweep_area(parts, cycles) == area


@st.composite
def bulged_box(draw):
    """A box whose vertical edges bulge out through one to four extra
    vertices, by up to 1e-16 to 1e-9 times the edge: runs of vertices within
    TAU of each other in x, with less and more than TAU between their ends."""
    w, h = draw(st.floats(0.1, 2.0)), draw(st.floats(0.1, 2.0))

    def side(x, y0, y1, out):
        m = draw(st.integers(1, 4))
        bulge = out * abs(y1 - y0) * draw(st.sampled_from((1e-16, 3e-13, 1e-12, 3e-12, 1e-9)))
        return [(x + 4 * bulge * t * (1 - t), y0 + t * (y1 - y0))
                for t in ((i + 1) / (m + 1) for i in range(m))]

    return [(0.0, 0.0), (w, 0.0)] + side(w, 0.0, h, 1) + [(w, h), (0.0, h)] + side(0.0, h, 0.0, -1)


def _drawn_star(draw):
    """A star with 3 to 12 spikes, jittered or exactly regular."""
    k = draw(st.integers(3, 12))
    jitter = 0.0 if draw(st.booleans()) else 0.2
    ang = [math.pi * (i + draw(st.floats(-jitter, jitter))) / k for i in range(2 * k)]
    rad = [1.0 if i % 2 == 0 else 0.4 for i in range(2 * k)]
    return Polygon(tuple((r * math.cos(t), r * math.sin(t)) for t, r in zip(ang, rad)))


def _star_parts(draw):
    """The `sum_region` parts of a star, jittered or exactly regular, with
    one to three segments: each ear-clipping triangle swept along each
    segment, parts that overlap along shared edges."""
    M = _drawn_star(draw)
    coord = st.floats(-0.3, 0.3)
    segs = draw(st.lists(st.tuples(coord, coord, coord, coord), min_size=1, max_size=3))
    N = structuring.StructuringSet(tuple(structuring.Segment((ax, ay), (bx, by))
                                         for ax, ay, bx, by in segs))
    return list(mixedvol.sum_region(M, N, draw(st.sampled_from((0.01, 0.1, 0.5)))).parts)


def _box_parts(draw):
    """Axis-aligned boxes on an integer grid, so edges and corners coincide."""
    cell = st.integers(0, 3)
    boxes = draw(st.lists(st.tuples(cell, cell, st.integers(1, 2), st.integers(1, 2)),
                          min_size=2, max_size=6))
    s = draw(st.sampled_from((1.0, 0.1, 3.7)))
    return [ConvexPolygon(((s * x, s * y), (s * (x + w), s * y),
                           (s * (x + w), s * (y + h)), (s * x, s * (y + h))))
            for x, y, w, h in boxes]


def _duplicated_parts(draw):
    """A convex part several times over, and a translate of it."""
    pts = draw(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=3, max_size=8))
    try:
        P = geom2d.convex_hull(pts)
    except DegenerateInput:
        P = geom2d.regular_disc(5, 1.0)
    shift = draw(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)))
    return [P] * draw(st.integers(2, 3)) + [geom2d.translate(P, shift)]


def _triangle_at(o, t):
    """The triangle with corner o and unit sides at angles t and t + 0.8."""
    return ConvexPolygon((o, (o[0] + math.cos(t), o[1] + math.sin(t)),
                          (o[0] + math.cos(t + 0.8), o[1] + math.sin(t + 0.8))))


def _touching_triangles(draw):
    """Triangles that meet at one vertex, each copy of it nudged by 1e-16 to 1e-13."""
    nudge = st.sampled_from((1e-16, -1e-16, 1e-15, -1e-15, 1e-14, -1e-14, 1e-13, -1e-13, 0.0))
    return [_triangle_at((draw(nudge), draw(nudge)), t)
            for t in draw(st.lists(st.floats(0, 2 * math.pi), min_size=2, max_size=4))]


def _disc_with_small_parts(draw):
    """A 1024-gon and small triangles across its boundary."""
    parts = [geom2d.regular_disc(1024, 1.0)]
    for t in draw(st.lists(st.floats(0, 2 * math.pi), min_size=1, max_size=5)):
        c = (math.cos(t), math.sin(t))
        parts.append(ConvexPolygon(((c[0] - 0.05, c[1] - 0.05), (c[0] + 0.05, c[1] - 0.05),
                                    (c[0], c[1] + 0.05))))
    return parts


def _star_and_translate(draw):
    M = _drawn_star(draw)
    shift = st.floats(-0.5, 0.5)
    return [M, geom2d.translate(M, (draw(shift), draw(shift)))]


def _star_edge_parts(draw):
    """A star and the `sum_region` parts of a segment from the origin: its
    triangles swept along the segment, each of which holds its triangle, so
    their edges run along the star's own."""
    coord = st.floats(-0.3, 0.3)
    N = structuring.StructuringSet((structuring.Segment((0.0, 0.0), (draw(coord), draw(coord))),))
    M = _drawn_star(draw)
    return [M] + list(mixedvol.sum_region(M, N, draw(st.sampled_from((0.01, 0.1, 0.5)))).parts)


def _l_shapes(draw):
    """Two L-shapes that share part of an edge, running the same way or
    opposite ways."""
    s = draw(st.sampled_from((1.0, 0.1, 3.7)))
    L = Polygon(tuple((s * x, s * y) for x, y in ((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2))))
    t = draw(st.sampled_from((0.25, 0.5, 1.0, 1.5)))
    shift = draw(st.sampled_from(((2.0, t), (2.0, -t), (t, 0.0), (-t, 2.0), (1.0, t))))
    return [L, geom2d.translate(L, (s * shift[0], s * shift[1]))]


def _bulged_boxes(draw):
    """A bulged box, a translate of it and a box on the same bottom line."""
    A = ConvexPolygon(draw(bulged_box()))
    (x0, y0), (x1, y1) = np.min(A.vertices, 0), np.max(A.vertices, 0)
    w, h = x1 - x0, y1 - y0
    shift = (w * draw(st.floats(0.2, 0.8)), h * draw(st.floats(-0.8, 0.8)))
    box = ConvexPolygon(((x0 + w / 3, y0), (x0 + 2 * w, y0), (x0 + 2 * w, y0 + h / 2),
                         (x0 + w / 3, y0 + h / 2)))
    return [A, geom2d.translate(A, shift), box]


@st.composite
def union_parts(draw):
    family = draw(st.sampled_from((_star_parts, _box_parts, _duplicated_parts,
                                   _touching_triangles, _disc_with_small_parts,
                                   _star_and_translate, _star_edge_parts, _l_shapes,
                                   _bulged_boxes)))
    return family(draw)


#: Edges that coincide up to round-off, crossed by a third part at a shallow
#: angle: four nudged copies of one triangle, one turned by 2**-24 rad, and a
#: regular star with two segments 2e-8 rad from antiparallel.  An area summed
#: over the union's boundary alone (Green's theorem), with each edge's
#: crossings computed on their own, leaves gaps there: 7.6e-8 and 1.8e-9
#: relative.
_NUDGED_TRIANGLES = [_triangle_at((1e-16, 1e-15), 2.0 ** -24), _triangle_at((1e-13, -1e-14), 0.0),
                     _triangle_at((-1e-16, -1e-14), 0.0), _triangle_at((1e-13, -1e-15), 0.0)]
_NEAR_PARALLEL_SEGMENTS = structuring.StructuringSet((structuring.Segment((-0.2, 1e-9), (-0.1, 0.0)),
                                                      structuring.Segment((-0.1, 1e-9), (-0.2, 0.0))))


#: Four parts that share vertices: one vertex of each lies on another's
#: edge, where chains meet with no proper crossing between them.  Their
#: exact union area is 1.0435606115602487.
_SHARED_VERTEX_PARTS = [ConvexPolygon(V) for V in (
    ((0.20000000000000007, -0.34641016151377546), (0.20250000000000007, -0.34641016151377546),
     (1.0025, 0), (0.20250000000000007, 0.34641016151377546),
     (0.20000000000000007, 0.34641016151377546)),
    ((-0.4999999999999998, 0.8660254037844387), (0.20000000000000007, -0.34641016151377546),
     (0.20250000000000007, -0.34641016151377546), (0.20250000000000007, 0.34641016151377546),
     (-0.4974999999999998, 0.8660254037844387)),
    ((-0.4999999999999998, 0.8660254037844387), (-0.4, 4.898587196589413e-17),
     (0.20000000000000007, -0.34641016151377546), (0.20250000000000007, -0.34641016151377546),
     (-0.4974999999999998, 0.8660254037844387)),
    ((-0.5000000000000004, -0.8660254037844384), (-0.49750000000000044, -0.8660254037844384),
     (0.20250000000000007, -0.34641016151377546), (-0.3975, 4.898587196589413e-17),
     (-0.4, 4.898587196589413e-17)))]

#: A nonconvex ring that starts inside the run (0, 0) -> (1, -0.5) -> (2, 0)
#: of edges that all run right, so its first and last edges run the same
#: way; and a box on its right edge, x = 2.
_MID_RUN_START = [Polygon(((1, -0.5), (2, 0), (2, 1), (1, 0.5), (0, 1), (0, 0))),
                  ConvexPolygon(((2, 0), (3, 0), (3, 1), (2, 1)))]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(union_parts())
@example(_NUDGED_TRIANGLES)
@example(list(mixedvol.sum_region(Polygon(tuple(_star(6, 0.4))), _NEAR_PARALLEL_SEGMENTS, 0.5).parts))
@example(_SHARED_VERTEX_PARTS)
@example(_MID_RUN_START)
def test_union_area_matches_pair_loop(parts):
    """Against the exact area of up to four convex pieces, else the pair loop.
    The pair loop merges vertices within TAU of each other in x, so a
    near-vertical run moves its area by up to TAU times the run's height."""
    pieces = [q.vertices for p in parts for q in geom2d.convex_parts(p)]
    want = (_exact_union_area(pieces) if len(pieces) <= 4
            else _convex_union_area_reference(pieces))
    assert geom2d.union_area(RegionUnion(tuple(parts))) == pytest.approx(want, rel=1e-12)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(union_parts())
def test_crossings_match_reference_on_union_parts(parts):
    assert_crossings_match_reference([p.array for p in parts])


def test_crossings_match_reference_on_a_4096_vertex_star():
    assert_crossings_match_reference([np.array(_star(2048))])


def _clip(A, B):
    """A clipped by each edge of the convex CCW polygon B (Sutherland and
    Hodgman, 1974); exact when the coordinates are Fractions."""
    out = list(A)
    for p, q in zip(B, B[1:] + B[:1]):
        pts, out = out, []
        for s, e in zip(pts[-1:] + pts[:-1], pts):
            ds = (q[0] - p[0]) * (s[1] - p[1]) - (q[1] - p[1]) * (s[0] - p[0])
            de = (q[0] - p[0]) * (e[1] - p[1]) - (q[1] - p[1]) * (e[0] - p[0])
            if (ds < 0) != (de < 0):
                t = ds / (ds - de)
                out.append((s[0] + t * (e[0] - s[0]), s[1] + t * (e[1] - s[1])))
            if de >= 0:
                out.append(e)
        if not out:
            break
    return out


def _clip_area(A, B):
    """|A ∩ B| for convex CCW vertex lists: `_clip`, then the shoelace formula."""
    return _signed_area_reference(_clip(A, B))


def _exact_union_area(parts):
    """|union of convex CCW vertex lists| by inclusion and exclusion over
    intersections clipped in rational arithmetic."""
    parts = [[(Fraction(x), Fraction(y)) for x, y in verts] for verts in parts]
    total = Fraction(0)
    for r in range(1, len(parts) + 1):
        for combo in itertools.combinations(parts, r):
            I = combo[0]
            for B in combo[1:]:
                I = _clip(I, B)
            twice = sum((u[0] * v[1] - v[0] * u[1] for u, v in zip(I[-1:] + I[:-1], I)), Fraction(0))
            total += (-1) ** (r + 1) * twice / 2
    return float(total)


@st.composite
def convex_part(draw):
    if draw(st.booleans()):  # axis-aligned: parallel and collinear edges
        x0, y0 = draw(st.floats(-1, 1)), draw(st.floats(-1, 1))
        x1, y1 = x0 + draw(st.floats(0.1, 2)), y0 + draw(st.floats(0.1, 2))
        return ConvexPolygon(((x0, y0), (x1, y0), (x1, y1), (x0, y1)))
    pts = draw(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=3, max_size=10))
    try:
        return geom2d.convex_hull(pts)
    except DegenerateInput:
        return ConvexPolygon(((0, 0), (1, 0), (1, 1), (0, 1)))


_SQUARE = ConvexPolygon(((0, 0), (1, 0), (1, 1), (0, 1)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(convex_part(), convex_part())
@example(_SQUARE, geom2d.translate(_SQUARE, (0.5, 0.0)))  # edges on edges or parallel
# B's middle vertex lies on A's bottom edge, 8.4e-107 above it: B's right
# chain goes from below that edge to above it with no proper crossing
@example(_SQUARE, ConvexPolygon(((0, -0.5), (0.5, 8.409940216282044e-107), (1, 1))))
def test_union_of_two_convex_parts_is_inclusion_exclusion(A, B):
    want = geom2d.area(A) + geom2d.area(B) - _clip_area(list(A.vertices), list(B.vertices))
    assert geom2d.union_area(RegionUnion((A, B))) == pytest.approx(want, rel=1e-12)


#: Three points and a segment, the components of `dilate-convex`'s
#: points_segment ops, which sum with a 4096-gon to four long parts.
_POINTS_SEGMENT = structuring.StructuringSet((
    structuring.Points(((0.1, 0.2), (-0.3, 0.1), (0.25, -0.35))),
    structuring.Segment((-0.4, 0.1), (0.3, -0.2))))


def _union_area_peak(disc_4096, plus_set, shape):
    """Part count and traced peak bytes of a second `union_area` call on the
    eps 0.1 sum region of `shape`."""
    M = Polygon(tuple(_star(24, 0.4))) if shape == "star24" else disc_4096
    N = _POINTS_SEGMENT if shape == "disc_points_segment" else plus_set
    region = mixedvol.sum_region(M, N, 0.1)
    geom2d.union_area(region)  # first call outside the trace
    tracemalloc.start()
    try:
        geom2d.union_area(region)
        return len(region.parts), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The bounds of the slab sweep with the pair-block crossing search.
@pytest.mark.parametrize("shape, parts, limit_mb", [
    ("disc", 2, 3.0),
    ("star24", 92, 8.0),  # the 46 triangles of M, each swept along each segment
    ("disc_points_segment", 4, 3.12),  # the slab sweep's peak: 3.11 MiB
])
def test_union_area_peak_memory(disc_4096, plus_set, shape, parts, limit_mb):
    n_parts, peak = _union_area_peak(disc_4096, plus_set, shape)
    assert n_parts == parts
    assert peak <= limit_mb * 2 ** 20


# Each bound is the traced peak of the crossing kernel on (n, 2) rows,
# rounded up to the next 0.01 MiB: 1.85, 2.19 and 2.82 MiB.
@pytest.mark.parametrize("shape, limit_mb", [
    ("disc", 1.86),
    ("star24", 2.20),
    ("disc_points_segment", 2.83),
])
def test_union_area_crossing_kernel_peak_memory(disc_4096, plus_set, shape, limit_mb):
    assert _union_area_peak(disc_4096, plus_set, shape)[1] <= limit_mb * 2 ** 20


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
        f = lambda pts: geom2d._points_in(pts, P.array)
        est, bound = geom2d.grid_volume(f, ((-1.1, 1.1), (-1.1, 1.1)), 0.02)
        assert abs(est - geom2d.area(P)) <= bound


@pytest.mark.parametrize("indicator, match", [
    (lambda pts: True, "indicator returned shape"),
    (lambda p: p[0] < 0.5, "indicator returned shape"),
    (lambda p: 1.0 if p[0] < 0.5 else 0.0, "ambiguous"),  # its own error propagates
], ids=["scalar", "first-row", "per-point"])
def test_grid_volume_refuses_non_array_indicator(indicator, match):
    # an indicator maps all cell centres at once; it is never called per point
    with pytest.raises(ValueError, match=match):
        geom2d.grid_volume(indicator, ((0, 1), (0, 1)), 0.1)


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


def _regular_disc_reference(n, r):
    """The disc as `regular_disc` built it from `math.cos` / `math.sin`, one
    vertex at a time."""
    return ConvexPolygon(tuple(
        (r * math.cos(2.0 * math.pi * k / n), r * math.sin(2.0 * math.pi * k / n))
        for k in range(n)))


_DISC_SIZES = [*range(3, 65), 255, 256, 1000, 4095, 4096, 8192]
_DISC_RADII = [1e-3, 0.3, 1.0, 1.37, 10.0]


def _same_bits(A, B):
    return A.shape == B.shape and A.tobytes() == B.tobytes()


@pytest.mark.parametrize("r", _DISC_RADII)
def test_regular_disc_matches_reference_bit_for_bit(r):
    # Artifacts of disc commands follow these bytes: a platform where the
    # vectorized cos/sin round differently from math's fails here first.
    for n in _DISC_SIZES:
        assert _same_bits(geom2d.regular_disc(n, r).array,
                          _regular_disc_reference(n, r).array), n


@pytest.mark.parametrize("r", _DISC_RADII)
def test_centred_regular_disc_matches_translated_reference(r):
    # Centres as cli-pipeline draws them, in [-1, 1]^2, and far ones.
    rng = np.random.default_rng(round(1000 * r))
    centres = [*rng.uniform(-1.0, 1.0, size=(4, 2)).tolist(),
               *rng.uniform(-1e3, 1e3, size=(2, 2)).tolist(),
               (0.41, -0.73), (-1e3, 1e3)]
    for n in _DISC_SIZES:
        for c in centres:
            want = geom2d.translate(_regular_disc_reference(n, r), c).array
            assert _same_bits(geom2d.regular_disc(n, r, c).array, want), (n, c)


@pytest.mark.parametrize("c", [(0.0, 0.0, 0.0), (0.0,), (math.nan, 0.0),
                               (0.0, math.inf), (-math.inf, 1.0)])
def test_regular_disc_rejects_bad_centre(c):
    with pytest.raises(ValueError):
        geom2d.regular_disc(16, 1.0, c)


# ---------------------------------------------------------------------------
# queries


def test_point_in_polygon(unit_square):
    pts = np.array([(0.5, 0.5), (1.5, 0.5)])
    assert geom2d._points_in(pts, unit_square.array).tolist() == [True, False]


def _point_in_polygon_reference(p, P):
    """The even-odd loop with its on-edge test that `_points_in` and
    `_on_edges` replaced."""
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
        pts = np.concatenate([rng.uniform(-1.2, 1.2, size=(300, 2)), V, on_edges])
        inside = geom2d._on_edges(pts, P.array).any(1) | geom2d._points_in(pts, P.array)
        assert inside.tolist() == [_point_in_polygon_reference(p, P) for p in pts.tolist()]


def _points_in_reference(pts, V):
    """The per-edge loop `_points_in` replaced, counting signs: edge ends as
    Python floats, each edge's crossing of all points' rows at once, +1
    where it runs up and -1 where it runs down.  The winding numbers."""
    x, y = pts[:, 0], pts[:, 1]
    winding = np.zeros(len(pts), dtype=int)
    for (x0, y0), (x1, y1) in zip(V.tolist(), geom2d._shift(V, 1).tolist()):
        cond = (y0 > y) != (y1 > y)
        if y1 != y0:
            xi = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
            winding += np.where(cond & (xi > x), 1 if y1 > y0 else -1, 0)
    return winding


#: The convolution cycle of a six-spike star and a segment wider than its
#: notches: the sweeps of neighbouring spikes overlap, and there it winds twice.
_STAR_CYCLE = mixedvol._dilation(
    Polygon(tuple(_star(6, 0.4))),
    structuring.StructuringSet((structuring.Segment((-0.6, 0.1), (0.6, 0.1)),)))(1.0)[1][0]


@pytest.mark.parametrize("V", [
    pytest.param(np.array(_star(7, 0.45)), id="star"),
    pytest.param(ConvexPolygon(((0, 0), (1, 0), (1, 1), (0, 1))).array, id="square"),
    pytest.param(Polygon(NEAR_STRAIGHT_RUN).array, id="near-straight"),
    pytest.param(geom2d.regular_disc(1024, 0.9).array, id="disc1024"),
    pytest.param(minkowski_walk(sorted(_star(6, 0.4)[:2]),
                                0.15 * structuring._unit_disc() + (0.05, 0.0)),
                 id="edge-part"),
    pytest.param(_STAR_CYCLE, id="cycle"),
])
def test_points_in_matches_per_edge_loop(V):
    """Bit-identical to the loop's nonzero winding on random points, on a
    grid through the vertices' own coordinates (points on edges and at
    vertex heights), and on points of equal y (many per edge band).  On
    the simple polygons that is the loop's even-odd test too; the cycle
    never winds negatively, and twice on some points."""
    rng = np.random.default_rng(len(V))
    lo, hi = V.min(0) - 0.1, V.max(0) + 0.1
    grid = np.stack(np.meshgrid(np.linspace(lo[0], hi[0], 41), np.unique(V[:, 1])[::7]),
                    axis=-1).reshape(-1, 2)
    W = geom2d._shift(V, 1)
    t = rng.uniform(0, 1, size=(len(V), 1))
    for pts in (rng.uniform(lo, hi, size=(5000, 2)), grid, V, V + t * (W - V),
                np.empty((0, 2))):
        winding = _points_in_reference(pts, V)
        assert np.array_equal(geom2d._points_in(pts, V), winding != 0)
        if V is _STAR_CYCLE:
            assert (winding >= 0).all()
        else:
            assert np.array_equal(winding != 0, winding % 2 == 1)
    winding = _points_in_reference(rng.uniform(lo, hi, size=(5000, 2)), V)
    assert winding.max() == (2 if V is _STAR_CYCLE else 1)


def test_polygon_distance(unit_square):
    d = geom2d._distances(np.array([(0.5, 0.5), (2.0, 0.5), (2.0, 2.0)]), unit_square.array)
    assert d[0] == 0.0
    assert d[1] == pytest.approx(1.0)
    assert d[2] == pytest.approx(math.sqrt(2))


def test_hausdorff_convex(unit_square):
    other = ConvexPolygon(geom2d.translate(unit_square, (0.5, 0)).vertices)
    assert geom2d.hausdorff_convex(unit_square, unit_square) == 0.0
    assert geom2d.hausdorff_convex(unit_square, other) == pytest.approx(0.5)


def _point_segment_distance_reference(p: tuple, a: tuple, b: tuple) -> float:
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 <= geom2d.TAU * geom2d.TAU:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / L2))
    return math.hypot(px - ax - t * dx, py - ay - t * dy)


def _polygon_distance_reference(p, P):
    """The per-edge loop `_distances` replaced: 0 where the even-odd
    reference with its on-edge test holds, else the least point-segment
    distance over the edges."""
    p = (float(p[0]), float(p[1]))
    if _point_in_polygon_reference(p, P):
        return 0.0
    verts = P.vertices
    n = len(verts)
    return min(
        _point_segment_distance_reference(p, verts[i], verts[(i + 1) % n]) for i in range(n)
    )


def _hausdorff_convex_reference(P, Q):
    d1 = max(_polygon_distance_reference(v, Q) for v in P.vertices)
    d2 = max(_polygon_distance_reference(v, P) for v in Q.vertices)
    return max(d1, d2)


def _lattice_shapes():
    """The unit-area shapes `cmd_lattice` hands `convergence_diagnostic` on
    Z^2 and king: zonotopes for edge mode, Wulff shapes for vertex mode."""
    shapes = []
    for G in (lattice.grid_graph(2), lattice.validate_plg([(1, 0), (0, 1), (1, 1), (1, -1)])):
        family = isoperimetric.SegmentFamily(tuple(
            ((-float(a), -float(b)), (float(a), float(b))) for a, b in G.edge_vectors
            if (a, b) > (0, 0)))
        shapes += [geom2d.unit_area_centered(isoperimetric.zonotope(family)),
                   geom2d.unit_area_centered(
                       isoperimetric.wulff_shape(family.as_structuring_set(), 360))]
    return shapes


def _distance_probes(V, rng, k=48):
    """Points inside and around the polygon V: uniform in its grown box, on
    k of its edges, at k of its vertices, within TAU outside those edges
    and vertices, and far away."""
    W = geom2d._shift(V, 1)
    pick = rng.choice(len(V), min(len(V), k), replace=False)
    A, E = V[pick], (W - V)[pick]
    on = A + rng.uniform(0, 1, (len(A), 1)) * E
    out = np.stack((E[:, 1], -E[:, 0]), 1) / np.hypot(E[:, 0], E[:, 1])[:, None]
    lo, hi = V.min(0), V.max(0)
    box = rng.uniform(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo), (200, 2))
    return np.concatenate([box, on, A, on + rng.uniform(0, geom2d.TAU, (len(A), 1)) * out,
                           A + rng.uniform(-geom2d.TAU, geom2d.TAU, A.shape),
                           rng.uniform(-1e3, 1e3, (20, 2))])


_DISTANCE_POLYGONS = [
    pytest.param(lambda rng: random_convex(rng, 9), id="convex9"),
    pytest.param(lambda rng: random_convex(rng, 40, 30.0), id="convex40"),
    pytest.param(lambda rng: Polygon(tuple(_star(7, 0.45))), id="star7"),
    pytest.param(lambda rng: Polygon(tuple(_star(24, 0.4))), id="star24"),
    pytest.param(lambda rng: Polygon(NEAR_STRAIGHT_RUN), id="near-straight"),
    pytest.param(lambda rng: geom2d.regular_disc(4096, 1.0), id="disc4096"),
    *(pytest.param(lambda rng, i=i: _lattice_shapes()[i], id=name) for i, name in
      enumerate(("z2-zonotope", "z2-wulff", "king-zonotope", "king-wulff"))),
]


@pytest.mark.parametrize("make", _DISTANCE_POLYGONS)
def test_polygon_distance_matches_per_edge_loop_bit_for_bit(make):
    rng = np.random.default_rng(29)
    P = make(rng)
    pts = _distance_probes(P.array, rng)
    assert geom2d._distances(pts, P.array).tolist() == \
        [_polygon_distance_reference(p, P) for p in pts.tolist()]


def test_hausdorff_convex_memory_stays_in_blocks():
    """Two 4096-gons apart: every vertex of each is outside the other, so all
    2 x 4096 x 4096 (point, edge) pairs are measured, a block at a time."""
    P, Q = geom2d.regular_disc(4096, 1.0), geom2d.regular_disc(4096, 1.0, (3.0, 0.0))
    tracemalloc.start()
    try:
        d = geom2d.hausdorff_convex(P, Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d == pytest.approx(3.0)
    assert peak <= 2 * 2 ** 20  # 1.05 MiB; one dense (4096, 4096) float array is 128 MiB


def test_hausdorff_convex_matches_per_edge_loop_bit_for_bit():
    rng = np.random.default_rng(31)
    shapes = _lattice_shapes()
    disc = geom2d.regular_disc(4096, 1.0)
    pairs = [(random_convex(rng, 9), random_convex(rng, 12)) for _ in range(20)]
    pairs += [(P, Q) for P in shapes for Q in shapes]
    pairs += [(disc, random_convex(rng, 8)), (geom2d.regular_disc(4096, 0.5, (0.1, 0.2)),
                                               ConvexPolygon(shapes[3].array * 1.3))]
    for P, Q in pairs:
        assert geom2d.hausdorff_convex(P, Q) == _hausdorff_convex_reference(P, Q)


def test_ray_exit(unit_square):
    R = RegionUnion((unit_square,))
    assert geom2d.ray_exit((0.5, 0.5), (0, 1), R) == pytest.approx(0.5)
    assert geom2d.ray_exit((0.5, 0.5), (1, 0), R) == pytest.approx(0.5)


def _ray_exit_reference(origin, direction, parts):
    """The per-edge loop `_ray_exit` replaced, over the parts' vertex arrays."""
    (ox, oy), (dx, dy) = origin, direction
    best = 0.0
    for A in parts:
        verts = A.tolist()
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
    arrays = [part.array for part in region.parts]
    for _ in range(200):
        origin = tuple(rng.uniform(-1, 1, 2).tolist())
        th = rng.uniform(0, 2 * math.pi)
        direction = (math.cos(th), math.sin(th))
        assert geom2d.ray_exit(origin, direction, region) == \
            _ray_exit_reference(origin, direction, arrays)
    # axis-parallel rays meet the square's edges end-on
    assert geom2d.ray_exit((0.5, 0.0), (1.0, 0.0), region) == \
        _ray_exit_reference((0.5, 0.0), (1.0, 0.0), arrays)


def _probe_ray(M, i, t):
    """The normal ray `local_expansion_probe` casts from inside edge i of M."""
    (x0, y0), (x1, y1) = M.array[[i, (i + 1) % len(M.array)]].tolist()
    L = math.hypot(x1 - x0, y1 - y0)
    return (x0 + t * (x1 - x0), y0 + t * (y1 - y0)), ((y1 - y0) / L, -(x1 - x0) / L)


def test_ray_exit_matches_per_edge_loop_on_probe_inputs():
    """Bit for bit, on the arrays the probe passes: a disc dilated by points
    and a segment (parts of unequal length) and a nonconvex polygon's
    convolution cycles."""
    disc = geom2d.regular_disc(4096, 1.37, (0.41, -0.73))
    points_segment = structuring.from_dict({"components": [
        {"type": "points", "pts": [[0.41, 0.38], [-0.27, -0.33]]},
        {"type": "segment", "a": [-0.61, 0.17], "b": [0.48, -0.29]}]})
    cases = [(disc, points_segment, range(0, 4096, 293)),
             (geom2d.polygon_from_dict(POLY_M), structuring.from_dict(MIXED_N), range(5))]
    for M, N, edges in cases:
        for eps in (0.1, 0.0125, 0.1 * 0.5 ** 6):
            parts, cycles = mixedvol._dilation(M, N)(eps)
            arrays = parts + cycles
            if M is disc:
                assert len({len(a) for a in arrays}) > 1
            else:
                assert cycles
            for i, t in itertools.product(edges, (0.37, 0.5)):
                ray = _probe_ray(M, i, t)
                want = _ray_exit_reference(*ray, arrays)
                assert want > 0.0
                assert geom2d._ray_exit(*ray, arrays).hex() == want.hex()
                assert mixedvol.local_expansion_probe(M, (i, t), N, eps).hex() == want.hex()
            # rays aimed at vertices, where t rounds to either side of 0 and 1
            o, V = M.array.mean(0), np.concatenate(arrays)
            for v in V[::len(V) // 16 + 1]:
                ray = tuple(o.tolist()), tuple(((v - o) / math.hypot(*(v - o))).tolist())
                assert geom2d._ray_exit(*ray, arrays).hex() == \
                    _ray_exit_reference(*ray, arrays).hex()
            # a ray whose line misses every edge
            assert geom2d._ray_exit((10.0, 10.0), (1.0, 0.0), arrays) == \
                _ray_exit_reference((10.0, 10.0), (1.0, 0.0), arrays) == 0.0
    assert geom2d._ray_exit((0.5, 0.5), (0.0, 1.0), []) == 0.0


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
