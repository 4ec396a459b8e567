import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mixvol import geom2d, isoperimetric, structuring
from mixvol.errors import DegenerateInput, RankDeficient
from mixvol.geom2d import ConvexPolygon
from mixvol.isoperimetric import SegmentFamily
from mixvol.structuring import Disc, Points, Segment, StructuringSet


SQRT2 = math.sqrt(2)

PLUS_FAMILY = SegmentFamily((((-1, 0), (1, 0)), ((0, -1), (0, 1))))


def random_family(rng, k=None):
    k = k or int(rng.integers(2, 6))
    segs = []
    for _ in range(k):
        a = rng.uniform(-1, 1, 2)
        v = rng.uniform(-1, 1, 2)
        while np.hypot(*v) < 0.2:
            v = rng.uniform(-1, 1, 2)
        segs.append((tuple(a), tuple(a + v)))
    try:
        fam = SegmentFamily(tuple(segs))
        isoperimetric.zonotope(fam)  # probe for rank deficiency
        return fam
    except Exception:
        return random_family(rng, k)


# ---------------------------------------------------------------------------
# zonotopes


def test_zonotope_plus_family():
    Z = isoperimetric.zonotope(PLUS_FAMILY)
    assert set(Z.vertices) == {(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)}
    assert geom2d.area(Z) == pytest.approx(4.0, abs=1e-12)


def test_zonotope_three_generators_hexagon():
    F = SegmentFamily((((0, 0), (1, 0)), ((0, 0), (0, 1)), ((0, 0), (1, 1))))
    Z = isoperimetric.zonotope(F)
    assert len(Z.vertices) == 6
    assert geom2d.area(Z) == pytest.approx(3.0, abs=1e-12)


def test_zonotope_single_segment_rank_deficient():
    with pytest.raises(RankDeficient):
        isoperimetric.zonotope(SegmentFamily((((0, 0), (1, 0)),)))


def test_zonotope_parallel_segments_rank_deficient():
    F = SegmentFamily((((0, 0), (1, 1)), ((2, 0), (4, 2))))
    with pytest.raises(RankDeficient):
        isoperimetric.zonotope(F)


def test_zonotope_area_identity():
    rng = np.random.default_rng(41)
    for _ in range(8):
        F = random_family(rng)
        vecs = [(b[0] - a[0], b[1] - a[1]) for a, b in F.segments]
        expect = sum(
            abs(vecs[i][0] * vecs[j][1] - vecs[i][1] * vecs[j][0])
            for i in range(len(vecs)) for j in range(i + 1, len(vecs)))
        assert geom2d.area(isoperimetric.zonotope(F)) == \
            pytest.approx(expect, abs=1e-9)


@st.composite
def segment_families(draw):
    """Two to five generators of length 0.05 to 2, each drawn free, exactly
    vertical, or parallel or antiparallel to an earlier one."""
    coord = st.floats(-1.0, 1.0)
    segs = []
    for _ in range(draw(st.integers(2, 5))):
        a = (draw(coord), draw(coord))
        kind = draw(st.sampled_from(("free", "vertical", "parallel", "antiparallel")))
        if kind == "vertical":
            v = (0.0, draw(st.floats(0.05, 2.0)) * draw(st.sampled_from((-1.0, 1.0))))
        elif kind != "free" and segs:
            (x0, y0), (x1, y1) = draw(st.sampled_from(segs))
            s = draw(st.floats(0.2, 2.0)) * (1.0 if kind == "parallel" else -1.0)
            v = (s * (x1 - x0), s * (y1 - y0))
        else:
            v = (draw(coord), draw(coord))
        assume(math.hypot(*v) >= 0.05)
        segs.append((a, (a[0] + v[0], a[1] + v[1])))
    return SegmentFamily(tuple(segs))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(segment_families())
# two parallel generators: a fold of pairwise sums makes theirs a
# back-and-forth "polygon" and reads area 1.0, not 2.5
@example(SegmentFamily((((0, 0), (1, -0.27355298871738787)),
                        ((0, 0), (1.5, -0.4103294830760818)), ((0, 0), (0, 1)))))
def test_zonotope_is_hull_of_endpoint_sums(F):
    try:
        Z = isoperimetric.zonotope(F)
    except RankDeficient:
        assume(False)
    sums = [(sum(p[0] for p in ends), sum(p[1] for p in ends))
            for ends in itertools.product(*F.segments)]
    H = geom2d.convex_hull(sums)
    assert geom2d.area(Z) == pytest.approx(geom2d.area(H), abs=1e-12)
    assert len(Z.vertices) == len(H.vertices)
    # the lex-min start may differ where a vertical edge's ends tie up to an ulp
    gap = np.abs(np.array(Z.vertices)[:, None] - np.array(H.vertices)[None]).max(2)
    assert gap.min(0).max() <= 1e-12 and gap.min(1).max() <= 1e-12


def test_zonotope_nearly_vertical_generators_of_opposite_tilt():
    # in lex order (0, 1) and (1e-13, -1) both lie in the right half and are
    # antiparallel within TAU; the sign of their cross product puts the
    # second first, as its direction is nearer -pi/2
    F = SegmentFamily((((0, 0), (0, 1)), ((0, 0), (1e-13, -1)), ((0, 0), (1, 0))))
    assert geom2d.area(isoperimetric.zonotope(F)) == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Wulff shapes


def test_wulff_plus_is_diamond(plus_set):
    W = isoperimetric.wulff_shape(plus_set, 360)
    H = structuring.hull(plus_set)
    assert geom2d.hausdorff_convex(W, H) <= 1e-6


def test_wulff_disc_is_ngon():
    N = StructuringSet((structuring.Disc((0, 0), 1.0),))
    W = isoperimetric.wulff_shape(N, 90)
    assert len(W.vertices) == 90
    # circumscribed polygon of the disc: area slightly above pi
    assert geom2d.area(W) == pytest.approx(90 * math.tan(math.pi / 90), rel=1e-9)


def test_wulff_square_vertices():
    N = StructuringSet((Points(((0, 0), (1, 0), (1, 1), (0, 1))),))
    W = isoperimetric.wulff_shape(N, 360)
    H = structuring.hull(N)
    assert geom2d.hausdorff_convex(W, H) <= 1e-6


def test_wulff_directions_match_math_cos_sin(plus_set, monkeypatch):
    """wulff_shape takes numpy's cos and sin of 2 pi j / n_dirs as columns;
    they are bit-equal to the `math.cos` / `math.sin` list it once built."""
    seen = []
    support = structuring.support
    monkeypatch.setattr(structuring, "support", lambda N, U: seen.append(U) or support(N, U))
    for n_dirs in range(16, 721):
        isoperimetric.wulff_shape(plus_set, n_dirs)
        angles = [2.0 * math.pi * j / n_dirs for j in range(n_dirs)]
        want = np.array([(math.cos(th), math.sin(th)) for th in angles])
        assert seen.pop().tobytes() == want.tobytes(), n_dirs


def test_wulff_needs_enough_directions(plus_set):
    with pytest.raises(ValueError):
        isoperimetric.wulff_shape(plus_set, 8)


def _halfplane_intersection_reference(lines):
    """The deque algorithm wulff_shape used before it took the crossings of
    consecutive lines, kept as their reference: vertices of the intersection
    of halfplanes x*u <= h over (ux, uy, h) sorted by angle."""

    def inter(l1, l2):
        (a1, b1, c1), (a2, b2, c2) = l1, l2
        det = a1 * b2 - a2 * b1
        if abs(det) <= geom2d.TAU:
            raise ValueError("parallel support lines cannot close a body")
        return ((c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det)

    def violates(p, line):
        ux, uy, h = line
        return p[0] * ux + p[1] * uy > h + 1e-9 * max(1.0, abs(h))

    dq = []
    for line in lines:
        while len(dq) >= 2 and violates(inter(dq[-2], dq[-1]), line):
            dq.pop()
        while len(dq) >= 2 and violates(inter(dq[0], dq[1]), line):
            dq.pop(0)
        dq.append(line)
    while len(dq) >= 3 and violates(inter(dq[-2], dq[-1]), dq[0]):
        dq.pop()
    while len(dq) >= 3 and violates(inter(dq[0], dq[1]), dq[-1]):
        dq.pop(0)
    if len(dq) < 3:
        raise ValueError("halfplane intersection has no interior")
    return [inter(dq[i], dq[(i + 1) % len(dq)]) for i in range(len(dq))]


# small integers put hull edge normals on the direction grid, so support
# lines concur at hull corners and the crossings repeat
coord = st.one_of(st.integers(-3, 3).map(float), st.floats(-2.0, 2.0))
point = st.tuples(coord, coord)


@st.composite
def wulff_structuring_set(draw):
    comps = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["points", "segment", "symmetric", "disc", "polygon"]))
        if kind == "points":
            comps.append(Points(tuple(draw(st.lists(point, min_size=1, max_size=6)))))
        elif kind == "segment":
            comps.append(Segment(draw(point), draw(point)))
        elif kind == "symmetric":
            x, y = draw(point)
            comps.append(Segment((x, y), (-x, -y)))
        elif kind == "disc":
            comps.append(Disc(draw(point), draw(st.floats(0.01, 2.0))))
        else:
            P = geom2d.regular_disc(draw(st.integers(3, 8)), draw(st.floats(0.1, 2.0)))
            comps.append(geom2d.translate(P, draw(point)))
    return StructuringSet(tuple(comps))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(wulff_structuring_set(),
       st.one_of(st.sampled_from([16, 17, 24, 36, 90, 180, 360, 720]), st.integers(16, 720)))
def test_wulff_matches_halfplane_deque(N, n_dirs):
    angles = [2.0 * math.pi * j / n_dirs for j in range(n_dirs)]
    U = [(math.cos(th), math.sin(th)) for th in angles]
    lines = [(ux, uy, h) for (ux, uy), h in zip(U, structuring.support(N, U).tolist())]
    verts = _halfplane_intersection_reference(lines)
    assert len(verts) == n_dirs  # every support line carries an edge
    scale = max(max(abs(x), abs(y)) for x, y in verts)
    try:
        want = geom2d.convex_hull(isoperimetric._dedupe_close(verts, 1e-9 * max(1.0, scale)))
    except DegenerateInput:  # N is a point or a segment
        with pytest.raises(DegenerateInput):
            isoperimetric.wulff_shape(N, n_dirs)
        return
    assert isoperimetric.wulff_shape(N, n_dirs).vertices == want.vertices


def test_wulff_halving_toward_hull():
    rng = np.random.default_rng(99)
    for _ in range(3):
        segs = []
        for _ in range(3):
            a = rng.uniform(-1, 1, 2)
            b = a + rng.uniform(-1, 1, 2)
            while np.hypot(*(b - a)) < 0.3:
                b = a + rng.uniform(-1, 1, 2)
            segs.append(Segment(tuple(a), tuple(b)))
        N = StructuringSet(tuple(segs))
        try:
            H = structuring.hull(N)
        except Exception:
            continue
        dists = [geom2d.hausdorff_convex(isoperimetric.wulff_shape(N, nd), H)
                 for nd in (90, 180, 360)]
        assert dists[0] > dists[1] > dists[2] > 0


# ---------------------------------------------------------------------------
# boundary functionals


def test_ceip_square_plus(unit_square):
    assert isoperimetric.ceip_functional(unit_square, PLUS_FAMILY) == \
        pytest.approx(4.0, abs=1e-12)


def test_ceip_diamond_plus(diamond):
    # each axis segment contributes 4 on the diamond's diagonal normals
    assert isoperimetric.ceip_functional(diamond, PLUS_FAMILY) == \
        pytest.approx(8.0, abs=1e-12)


def test_cvip_diamond_plus(diamond, plus_set):
    assert isoperimetric.cvip_functional(diamond, plus_set) == \
        pytest.approx(4.0, abs=1e-12)


def test_cvip_square_plus(unit_square, plus_set):
    assert isoperimetric.cvip_functional(unit_square, plus_set) == \
        pytest.approx(4.0, abs=1e-12)


def test_cvip_below_ceip(plus_set):
    # union support is a max, the family functional a sum
    for S in isoperimetric.shape_suite(seed=5, count=10):
        assert isoperimetric.cvip_functional(S, plus_set) <= \
            isoperimetric.ceip_functional(S, PLUS_FAMILY) + 1e-12


def test_iso_ratio_scale_invariant(unit_square, plus_set):
    base = isoperimetric.iso_ratio(
        unit_square, isoperimetric.cvip_functional(unit_square, plus_set))
    for lam in (0.5, 2.0, 7.0):
        S = ConvexPolygon(geom2d.scale_polygon(unit_square, lam).vertices)
        r = isoperimetric.iso_ratio(S, isoperimetric.cvip_functional(S, plus_set))
        assert r == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# optimality spot checks


def test_zonotope_minimizes_edge_ratio():
    Z = isoperimetric.zonotope(PLUS_FAMILY)
    best = isoperimetric.evaluate_edge(Z, PLUS_FAMILY, 0.0).ratio
    for S in isoperimetric.shape_suite(seed=2024, count=20):
        assert isoperimetric.evaluate_edge(S, PLUS_FAMILY, best).ratio >= \
            best - 1e-9


def test_hull_minimizes_vertex_ratio(plus_set):
    H = structuring.hull(plus_set)
    best = isoperimetric.evaluate_vertex(H, plus_set, 0.0).ratio
    for S in isoperimetric.shape_suite(seed=2024, count=20):
        assert isoperimetric.evaluate_vertex(S, plus_set, best).ratio >= \
            best - 1e-9


def test_square_beats_diamond_for_edge_energy(unit_square, diamond):
    rs = isoperimetric.evaluate_edge(unit_square, PLUS_FAMILY, 4.0)
    rd = isoperimetric.evaluate_edge(diamond, PLUS_FAMILY, 4.0)
    assert rs.ratio == pytest.approx(4.0, abs=1e-12)
    assert rd.ratio == pytest.approx(8.0 / SQRT2, abs=1e-12)
    assert rs.ratio < rd.ratio


def test_diamond_beats_square_for_vertex_energy(unit_square, diamond, plus_set):
    rs = isoperimetric.evaluate_vertex(unit_square, plus_set, 0.0)
    rd = isoperimetric.evaluate_vertex(diamond, plus_set, 0.0)
    assert rd.ratio == pytest.approx(4.0 / SQRT2, abs=1e-12)
    assert rs.ratio == pytest.approx(4.0, abs=1e-12)
    assert rd.ratio < rs.ratio


def test_shape_suite_deterministic():
    a = isoperimetric.shape_suite(seed=2024, count=5)
    b = isoperimetric.shape_suite(seed=2024, count=5)
    assert [s.vertices for s in a] == [s.vertices for s in b]
    for s in a:
        assert geom2d.area(s) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("exc, retried", [(DegenerateInput, True), (TypeError, False)])
def test_random_convex_polygon_retries_only_degenerate_draws(monkeypatch, exc, retried):
    real, calls = geom2d.convex_hull, []

    def hull_failing_once(pts):
        calls.append(len(pts))
        if len(calls) == 1:
            raise exc("injected")
        return real(pts)

    monkeypatch.setattr(geom2d, "convex_hull", hull_failing_once)
    rng = np.random.default_rng(7)
    if retried:
        assert isinstance(isoperimetric.random_convex_polygon(rng), ConvexPolygon)
        assert len(calls) == 2
    else:
        with pytest.raises(TypeError, match="injected"):
            isoperimetric.random_convex_polygon(rng)
