import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (NEAR_STRAIGHT_RUN, closed_form_plus_dilation, minkowski_walk,
                      near_collinear_convex)
from test_geom2d import (_convex_union_area_reference, _points_in_reference,
                         _slab_sweep_reference, assert_crossings_match_reference, polar_polygon,
                         segment_along, union_parts)
from mixvol import cli, geom2d, mixedvol, structuring
from mixvol.errors import (DegenerateHull, DegenerateInput, IllConditioned, NonDecreasingSchedule,
                           NumericalDegeneracy, SingularPoint)
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


@pytest.mark.parametrize("eps", [-0.1, math.nan, math.inf])
def test_sum_volume_rejects_bad_eps(unit_square, plus_set, eps):
    # no polygon checks the parts any more, so a NaN eps must not reach them
    with pytest.raises(ValueError, match="epsilon"):
        mixedvol.sum_volume(unit_square, plus_set, eps)
    with pytest.raises(ValueError, match="epsilon"):
        mixedvol.sum_region(unit_square, plus_set, eps)


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


def _convex_decomposition(M, N, eps):
    """M + eps*N as `sum_region` built it before it kept M whole: every
    convex piece of M summed with every component of N, a disc as eps times
    its chain at eps = 1 (`mixedvol._unit_chains`)."""
    parts = []
    for piece in geom2d.convex_parts(M):
        for comp in N.components:
            if isinstance(comp, Points):
                parts += [geom2d.translate(piece, (eps * x, eps * y)) for x, y in comp.pts]
            elif isinstance(comp, Segment):
                a = (eps * comp.a[0], eps * comp.a[1])
                parts += geom2d.minkowski_segment(piece, a, (eps * comp.b[0], eps * comp.b[1])).parts
            elif isinstance(comp, Disc):
                disc = eps * (comp.radius * structuring._unit_disc() + comp.center)
                parts.append(geom2d.minkowski_convex(piece, ConvexPolygon(disc)))
            else:
                parts += [geom2d.minkowski_convex(piece, q)
                          for q in geom2d.convex_parts(geom2d.scale_polygon(comp, eps))]
    return parts


_L_SHAPE = Polygon(((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)))
_MIXED_N = StructuringSet((
    Points(((0.5, 0.5), (-1.0, 0.0))),
    Segment((0, 0), (1, 2)),
    Polygon(((0, 0), (2, 0), (2, 1), (1, 0.5), (0, 1))),
    Disc((0.3, -0.2), 0.5),
))


_SEGMENT_DISC = StructuringSet((Segment((-1, 0), (1, 0)), Disc((0, 0), 0.5)))
_FAR_POINT = StructuringSet((Points(((1e10, 0.0),)),))


@pytest.mark.parametrize("M, N, eps", [
    (_L_SHAPE, _SEGMENT_DISC, 1e155),
    (_L_SHAPE, _SEGMENT_DISC, 1e300),
    (_L_SHAPE, _FAR_POINT, 1e300),
    (ConvexPolygon(((0, 0), (1, 0), (1, 1), (0, 1))), _FAR_POINT, 1e300),
], ids=["L-disc-1e155", "L-disc-1e300", "L-point", "square-point"])
def test_sum_volume_raises_where_the_area_overflows(M, N, eps):
    """An overflowed part has a NaN area: it is neither dropped as thin nor
    summed, and a one-part union is checked as a sweep is."""
    with np.errstate(all="ignore"), pytest.raises(NumericalDegeneracy):
        mixedvol.sum_volume(M, N, eps)


def test_sum_volume_of_a_huge_segment_dilation():
    with np.errstate(all="ignore"):
        got = mixedvol.sum_volume(_L_SHAPE, StructuringSet((Segment((-1, 0), (1, 0)),)), 1e300)
    assert got == pytest.approx(4e300, rel=1e-12)


@st.composite
def star_dilations(draw):
    """A star, jittered or exactly regular, with one to three segments (the
    first axis-parallel), and maybe points and a triangle."""
    k = draw(st.integers(3, 12))
    jitter = 0.0 if draw(st.booleans()) else 0.2
    ang = [math.pi * (i + draw(st.floats(-jitter, jitter))) / k for i in range(2 * k)]
    M = Polygon(tuple(((1.0 if i % 2 == 0 else 0.4) * math.cos(t),
                       (1.0 if i % 2 == 0 else 0.4) * math.sin(t)) for i, t in enumerate(ang)))
    coord = st.floats(-0.3, 0.3)
    x, y, length = draw(coord), draw(coord), draw(st.floats(0.05, 0.5))
    comps = [Segment((x, y), (x + length, y)) if draw(st.booleans())
             else Segment((x, y), (x, y + length))]
    comps += [Segment((draw(coord), draw(coord)), (draw(coord), draw(coord)))
              for _ in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        comps.append(Points(((draw(coord), draw(coord)), (draw(coord), draw(coord)))))
    if draw(st.booleans()):
        comps.append(ConvexPolygon(((0.0, 0.0), (0.3, 0.0), (0.1, 0.2))))
    return M, StructuringSet(tuple(comps)), draw(st.sampled_from((0.01, 0.1, 0.5)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.one_of(star_dilations(), st.just((_L_SHAPE, _MIXED_N, 0.1))), st.data())
def test_sum_region_matches_convex_decomposition(case, data):
    M, N, eps = case
    assert mixedvol.sum_region(M, N, 0.0).parts == (M,)
    want = _convex_decomposition(M, N, eps)
    got = mixedvol.sum_region(M, N, eps)
    assert geom2d.union_area(got) == \
        pytest.approx(_convex_union_area_reference([p.vertices for p in want]), rel=1e-12)
    if M is _L_SHAPE:
        return
    i = data.draw(st.integers(0, len(M.vertices) - 1))
    t = data.draw(st.floats(0.01, 0.99))
    (x0, y0), (x1, y1) = M.vertices[i], M.vertices[(i + 1) % len(M.vertices)]
    L = math.hypot(x1 - x0, y1 - y0)
    ray = ((x0 + t * (x1 - x0), y0 + t * (y1 - y0)), ((y1 - y0) / L, -(x1 - x0) / L))
    probe = mixedvol.local_expansion_probe(M, (i, t), N, eps)
    assert probe == pytest.approx(geom2d.ray_exit(*ray, got), rel=1e-12)
    assert probe == pytest.approx(geom2d.ray_exit(*ray, geom2d.RegionUnion(tuple(want))),
                                  rel=1e-12)


@pytest.mark.parametrize("M", [geom2d.regular_disc(64, 1.0),
                               ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.5, 0.25)))])
def test_sum_region_of_convex_m_is_the_convex_decomposition(M):
    """For convex M, `sum_region` keeps the parts it always had, vertex for vertex."""
    assert [p.vertices for p in mixedvol.sum_region(M, _MIXED_N, 0.1).parts] == \
        [p.vertices for p in _convex_decomposition(M, _MIXED_N, 0.1)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(star_dilations())
def test_sum_volume_is_the_union_area_of_sum_region_on_stars(case):
    """The cycles of `sum_volume` and the convex parts of `sum_region`, two
    constructions of one set, give one area up to round-off."""
    M, N, eps = case
    assert mixedvol.sum_volume(M, N, eps) == \
        pytest.approx(geom2d.union_area(mixedvol.sum_region(M, N, eps)), rel=1e-12)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(near_collinear_convex(), st.sampled_from((0.01, 0.1, 0.5)))
def test_sum_volume_is_the_union_area_of_sum_region_near_collinear(verts, eps):
    """`ConvexPolygon` merges corners straight within 1e-12 radians, which the
    raw arrays keep, so the two paths may part in the last bits (2 of 300
    examples, by up to 6e-16).  Two thirds of these M are nonconvex, and
    their parts with the disc of `_MIXED_N` make each example slow."""
    M = geom2d.polygon_from_dict({"vertices": verts})
    want = geom2d.union_area(mixedvol.sum_region(M, _MIXED_N, eps))
    assert mixedvol.sum_volume(M, _MIXED_N, eps) == pytest.approx(want, rel=1e-14)


def _chains_reference(comp, eps):
    """The chains of one component of N at eps > 0, each from its lex-min
    vertex, as the dilation built them at eps before it scaled them from
    eps = 1: a disc its own vertices at eps, a segment a point where it is
    at most TAU long at eps."""
    if isinstance(comp, Points):
        return list(eps * np.array(comp.pts)[:, None])
    if isinstance(comp, Segment):
        a = (eps * comp.a[0], eps * comp.a[1])
        b = (eps * comp.b[0], eps * comp.b[1])
        if math.hypot(b[0] - a[0], b[1] - a[1]) <= geom2d.TAU:
            return [np.array([a])]
        return [np.array((a, b) if a <= b else (b, a))]
    if isinstance(comp, Disc):
        centre = (eps * comp.center[0], eps * comp.center[1])
        return [eps * comp.radius * structuring._unit_disc() + centre]
    return [eps * V for V in geom2d._convex_pieces(comp)]


def _every_edge_part(A, C):
    """e + C for every edge e of A, each the reference walk of the edge's
    ends in lex order with C, but those of area at most TAU."""
    parts = []
    for v, w in zip(A.tolist(), geom2d._shift(A, 1).tolist()):
        Z = minkowski_walk(sorted((v, w)), C)
        if not geom2d._signed_area(Z) <= geom2d.TAU:
            parts.append(Z)
    return parts


def _edge_parts_reference(M, N, eps):
    """The parts of M + eps*N as the dilation made them when it took one
    epsilon and made no cycles: for nonconvex M, M + C[0] and the parts
    e + C of every edge e, as before it kept only the front edges."""
    if eps == 0.0:
        return [M.array]
    try:
        A = M.array if isinstance(M, ConvexPolygon) else geom2d._convex_array(M.array)
        convex = True
    except ValueError:
        A, convex = M.array, False
    parts = []
    for comp in N.components:
        for C in _chains_reference(comp, eps):
            if len(C) == 1:
                parts.append(A + C[0])
            elif convex:
                parts.append(minkowski_walk(A, C))
            else:
                parts.append(A + C[0])
                parts.extend(_every_edge_part(A, C))
    return parts


@st.composite
def polygon_dilations(draw):
    """A random simple polygon (`polar_polygon`) with one to three
    components, segments in either lex order along an axis or an edge of M
    (`segment_along`), triangles or points, and in one draw of six a disc."""
    verts = draw(polar_polygon())
    try:
        M = Polygon(verts)
    except ValueError:  # angles too close together for a positive-area boundary
        assume(False)
    coord = st.floats(-0.5, 0.5)
    comps = []
    for kind in draw(st.lists(st.sampled_from(("segment", "segment", "triangle", "points")),
                              min_size=1, max_size=3)):
        if kind == "segment":
            comps.append(Segment(*draw(segment_along(verts))))
        elif kind == "triangle":
            try:
                comps.append(geom2d.convex_hull([(draw(coord), draw(coord)) for _ in range(3)]))
            except DegenerateInput:
                assume(False)
        else:
            comps.append(Points(tuple((draw(coord), draw(coord))
                                      for _ in range(draw(st.integers(1, 3))))))
    if draw(st.integers(0, 5)) == 0:  # a disc's 4096 vertices make each edge part slow
        comps.append(Disc((draw(coord), draw(coord)), draw(st.floats(0.05, 0.5))))
    return M, StructuringSet(tuple(comps)), draw(st.sampled_from((0.01, 0.1, 0.5)))


def _probe_ray(M, data):
    """A drawn point inside an edge of M, as `local_expansion_probe` takes
    it, and the normal ray from there."""
    i = data.draw(st.integers(0, len(M.vertices) - 1))
    t = data.draw(st.floats(0.01, 0.99))
    (x0, y0), (x1, y1) = M.vertices[i], M.vertices[(i + 1) % len(M.vertices)]
    L = math.hypot(x1 - x0, y1 - y0)
    return (i, t), ((x0 + t * (x1 - x0), y0 + t * (y1 - y0)), ((y1 - y0) / L, -(x1 - x0) / L))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(star_dilations(), polygon_dilations()), st.data())
def test_cycles_match_every_edge_parts(case, data):
    """The convolution cycles give the area and the normal-ray probe of
    M + C[0] and the parts e + C of every edge e."""
    M, N, eps = case
    want = _edge_parts_reference(M, N, eps)
    assert mixedvol.sum_volume(M, N, eps) == pytest.approx(geom2d._union_area(want), rel=1e-12)
    edge, ray = _probe_ray(M, data)
    assert mixedvol.local_expansion_probe(M, edge, N, eps) == \
        pytest.approx(geom2d._ray_exit(*ray, want), rel=1e-12)


def _arrays(parts):
    return [p.array for p in parts], []


def _dilated(case):
    M, N, eps = case
    return mixedvol._dilation(M, N)(eps)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(union_parts().map(_arrays), star_dilations().map(_dilated),
                 polygon_dilations().map(_dilated)))
def test_union_area_matches_slab_sweep(arrays):
    """The union area agrees with the slab sweep it replaced, on parts and
    on convolution cycles."""
    parts, cycles = arrays
    assert geom2d._union_area(parts, cycles) == \
        pytest.approx(_slab_sweep_reference(parts, cycles), rel=1e-13)


@pytest.mark.parametrize("eps", mixedvol.DEFAULT_SCHEDULE)
def test_union_area_matches_slab_sweep_on_a_dilated_4096_gon(disc_4096, eps):
    """Long chains and few events: the parts of a `dilate-convex` op."""
    N = StructuringSet((Points(((0.1, 0.2), (-0.3, 0.1))), Segment((-0.4, 0.1), (0.3, -0.2))))
    parts, cycles = mixedvol._dilation(disc_4096, N)(eps)
    assert geom2d._union_area(parts, cycles) == \
        pytest.approx(_slab_sweep_reference(parts, cycles), rel=1e-14)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(star_dilations().map(_dilated), polygon_dilations().map(_dilated)))
def test_crossings_match_reference_on_dilations(arrays):
    assert_crossings_match_reference(*arrays)


@pytest.mark.parametrize("eps", mixedvol.DEFAULT_SCHEDULE)
def test_crossings_match_reference_on_a_dilated_4096_gon(disc_4096, eps):
    N = StructuringSet((Points(((0.1, 0.2), (-0.3, 0.1))), Segment((-0.4, 0.1), (0.3, -0.2))))
    assert_crossings_match_reference(*mixedvol._dilation(disc_4096, N)(eps))


def _far_from_edges(pts, arrays, tol):
    """Which points lie more than tol from every edge of the closed arrays."""
    far = np.ones(len(pts), dtype=bool)
    for V in arrays:
        for lo in range(0, len(V), 1024):
            P, Q = V[lo:lo + 1024], geom2d._shift(V, 1)[lo:lo + 1024]
            D = Q - P
            t = np.clip(((pts[:, None] - P) * D).sum(2) / np.maximum((D * D).sum(1), 1e-300), 0, 1)
            far &= (np.hypot(*np.moveaxis(pts[:, None] - P - t[..., None] * D, 2, 0)) > tol).all(1)
    return far


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.one_of(star_dilations(), polygon_dilations()), st.data())
def test_cycles_wind_positively_exactly_on_the_dilation(case, data):
    """At random points more than 1e-9 from every edge, the signed crossing
    count of each cycle (`_points_in_reference`, a loop over its edges) is
    never negative, and some part or cycle covers a point exactly where a
    part of every edge reference does."""
    M, N, eps = case
    parts, cycles = mixedvol._dilation(M, N)(eps)
    want = _edge_parts_reference(M, N, eps)
    box = np.concatenate(want)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    pts = rng.uniform(box.min(0) - 0.05, box.max(0) + 0.05, size=(300, 2))
    pts = pts[_far_from_edges(pts, parts + cycles + want, 1e-9)]
    windings = [_points_in_reference(pts, C) for C in cycles]
    assert all((w >= 0).all() for w in windings)
    got = np.zeros(len(pts), dtype=bool)
    for w in windings + [_points_in_reference(pts, V) for V in parts]:
        got |= w > 0
    covered = np.zeros(len(pts), dtype=bool)
    for V in want:
        covered |= _points_in_reference(pts, V) != 0
    assert np.array_equal(got, covered)


#: A U whose notch, 1 wide, is bridged by a segment 1.5 long: the dilation
#: is 4.5 x 2, and the cycle winds twice over the 0.5 x 1 where the
#: sweeps of the two prongs overlap.
_U_SHAPE = Polygon(((0, 0), (3, 0), (3, 2), (2, 2), (2, 1), (1, 1), (1, 2), (0, 2)))


def test_a_cycle_that_winds_twice_is_swept():
    N = StructuringSet((Segment((0, 0), (1.5, 0)),))
    parts, (cycle,) = mixedvol._dilation(_U_SHAPE, N)(1.0)
    assert parts == []
    assert geom2d._signed_area(cycle) == pytest.approx(9.5, rel=1e-12)  # the overlap twice
    assert _points_in_reference(np.array([[2.25, 1.5], [0.5, 0.5]]), cycle).tolist() == [2, 1]
    assert mixedvol.sum_volume(_U_SHAPE, N, 1.0) == pytest.approx(9.0, rel=1e-12)
    # an even-odd grid test would leave out the twice-wound 0.5 and read 3.5
    assert mixedvol.d_grid(_U_SHAPE, N, (1.0, 0.5, 0.25), 0.05).raw_quotients[0] == \
        pytest.approx(9.0 - 5.0, abs=0.2)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.one_of(star_dilations(), polygon_dilations()), st.data())
def test_schedule_parts_match_one_eps_at_a_time(case, data):
    """One `_dilation`, asked for a schedule in any order, with eps = 0 and
    an eps at which every segment is shorter than TAU, gives each eps the
    parts and cycles of a fresh `_dilation` asked for that eps alone, bit
    for bit and in order, though it makes each cycle's indices once."""
    M, N, eps = case
    schedule = data.draw(st.permutations((eps, 0.0, 1e-13, eps / 3, 0.5)))
    at = mixedvol._dilation(M, N)
    for e in schedule:
        parts, cycles = at(e)
        want_parts, want_cycles = mixedvol._dilation(M, N)(e)
        for arrays, want in ((parts, want_parts), (cycles, want_cycles)):
            assert len(arrays) == len(want)
            assert all(a.shape == b.shape and a.tobytes() == b.tobytes()
                       for a, b in zip(arrays, want))


_STAR4 = Polygon(tuple(((1.0 if i % 2 == 0 else 0.4) * math.cos(math.pi * i / 4),
                        (1.0 if i % 2 == 0 else 0.4) * math.sin(math.pi * i / 4))
                       for i in range(8)))


_DILATION_CALLERS = (
    ("", lambda M: mixedvol.d_finite_difference(M, _MIXED_N)),
    ("probe-", lambda M: mixedvol.local_expansion_probe(M, (0, 0.5), _MIXED_N, 0.1)),
    ("grid-", lambda M: mixedvol.d_grid(M, _MIXED_N, (0.1, 0.05, 0.025), 0.05)),
)


@pytest.mark.parametrize("call, M", [
    pytest.param(call, M, id=prefix + name)
    for prefix, call in _DILATION_CALLERS
    for name, M in (("disc64", geom2d.regular_disc(64, 1.0)), ("star4", _STAR4))])
def test_fd_builds_no_polygon(call, M, monkeypatch):
    """Polygons are validated where they enter; the finite-difference
    estimator, the normal-ray probe and the grid check read the kernel's
    vertex arrays of M + eps*N and build no polygon."""
    structuring._unit_disc()  # cached once per process
    built = []
    for cls in (Polygon, ConvexPolygon):
        def counted(self, init=cls.__dict__["__post_init__"]):
            built.append(type(self).__name__)
            init(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    call(M)
    assert built == []


#: `d_finite_difference` on a 24-spike star with a segment and a disc, in a
#: fresh interpreter, so that no earlier test moves its tracemalloc peak.
_FD_PEAK_SCRIPT = """
import math, tracemalloc
from mixvol import mixedvol, structuring
from mixvol.geom2d import Polygon
from mixvol.structuring import Disc, Segment, StructuringSet
M = Polygon(tuple(((1.0 if i % 2 == 0 else 0.5) * math.cos(math.pi * i / 24),
                   (1.0 if i % 2 == 0 else 0.5) * math.sin(math.pi * i / 24)) for i in range(48)))
N = StructuringSet((Segment((-0.2, 0.0), (0.2, 0.1)), Disc((0.1, -0.05), 0.3)))
structuring._unit_disc()
tracemalloc.start()
mixedvol.d_finite_difference(M, N, (0.1, 0.05, 0.025))
print(tracemalloc.get_traced_memory()[1])
"""

#: The script's peak in bytes where each epsilon built its own parts (the
#: largest of five runs; they spread by 2 kB).  Where the disc's parts of
#: the whole schedule are made at once it reads about 47.3e6.  The bound,
#: 44 MiB (46.1e6), lies between the two, far from allocator noise.
_FD_PEAK_ONE_EPS = 41_009_736
_FD_PEAK_BOUND = 44 << 20


def test_fd_holds_the_parts_of_one_eps_at_a_time():
    """The disc's edge parts (about 3 MB an epsilon here) are summed and
    measured one epsilon at a time; only the segment's parts of the whole
    schedule (a few kB) are held at once."""
    src = str(Path(mixedvol.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", _FD_PEAK_SCRIPT], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert _FD_PEAK_ONE_EPS < _FD_PEAK_BOUND
    assert int(out) <= _FD_PEAK_BOUND


# ---------------------------------------------------------------------------
# finite differences


@pytest.mark.parametrize("M", [ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))),
                               _L_SHAPE], ids=["square", "L"])
@pytest.mark.parametrize("comp, rel", [
    pytest.param(Disc((0, 0), 3e-4), 1e-6, id="disc3e-4"),
    pytest.param(Disc((0, 0), 1e-4), 1e-6, id="disc1e-4"),
    pytest.param(ConvexPolygon(((0.0, 0.0), (2e-4, 0.0), (0.0, 2e-4))), 1e-6, id="triangle"),
    # ConvexPolygon would merge away every vertex of M + C's rounded corners
    pytest.param(Disc((0, 0), 1e-6), 1e-5, id="disc1e-6"),
])
def test_fd_of_small_component_matches_bi(M, comp, rel):
    # at eps = 0.1/64 these components are far below ConvexPolygon's area floor
    N = StructuringSet((comp,))
    fd = mixedvol.d_finite_difference(M, N)
    bi = mixedvol.d_boundary_integral(M, N)
    assert fd.value == pytest.approx(bi.value, rel=rel)


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


def test_fd_rejects_non_finite_schedules(unit_square, plus_set):
    with pytest.raises(NonDecreasingSchedule):
        mixedvol.d_finite_difference(unit_square, plus_set, (math.nan,) * 3,
                                     volumes=(1, 1.5, 1.2))
    with pytest.raises(NonDecreasingSchedule):
        mixedvol.d_finite_difference(unit_square, plus_set, (math.inf, 0.1, 0.05))


def test_fd_accepts_precomputed_volumes(unit_square, plus_set):
    sched = (0.2, 0.1, 0.05, 0.025)
    vols = [mixedvol.sum_volume(unit_square, plus_set, e) for e in sched]
    est = mixedvol.d_finite_difference(unit_square, plus_set, sched, volumes=vols)
    ref = mixedvol.d_finite_difference(unit_square, plus_set, sched)
    assert est.value == ref.value
    assert est.raw_quotients == ref.raw_quotients


def _count_dilations(monkeypatch) -> list:
    """Forget the remembered dilation, and list the pairs that
    `mixedvol._dilation` is called on from here on."""
    real, built = mixedvol._dilation, []
    monkeypatch.setattr(mixedvol, "_last_dilation", (None, None, None))
    monkeypatch.setattr(mixedvol, "_dilation", lambda M, N: (built.append((M, N)), real(M, N))[1])
    return built


@pytest.mark.parametrize("M", [_L_SHAPE, ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)))],
                         ids=["L", "triangle"])
def test_schedule_volumes_go_through_sum_volume(M, plus_set, monkeypatch):
    # one `_dilation` per schedule, and every volume still from `sum_volume`
    sched = (0.2, 0.1, 0.05, 0.025)
    want = [mixedvol.sum_volume(M, plus_set, e) for e in sched]
    real_volume = mixedvol.sum_volume
    seen = []
    monkeypatch.setattr(mixedvol, "sum_volume",
                        lambda M, N, e: (seen.append(e), real_volume(M, N, e) + 1.0)[1])
    built = _count_dilations(monkeypatch)
    est = mixedvol.d_finite_difference(M, plus_set, sched)
    ref = mixedvol.d_finite_difference(M, plus_set, sched, volumes=[v + 1.0 for v in want])
    assert built == [(M, plus_set)] and seen == list(sched)
    assert est.raw_quotients == ref.raw_quotients
    built = _count_dilations(monkeypatch)
    seen.clear()
    mixedvol.series_fit(M, plus_set, (0.01, 0.02, 0.05, 0.1), 1)
    assert built == [(M, plus_set)] and seen == [0.01, 0.02, 0.05, 0.1]


def test_calls_on_one_pair_share_one_dilation(monkeypatch):
    """Seven stand-alone `sum_volume` calls on one pair build one
    `_dilation`, which makes the convolution indices of each chain of two or
    more vertices once; so do seven probes, and the CLI's worker threads
    build at most one each."""
    real_convolution, convolved = geom2d._convolution, []
    monkeypatch.setattr(geom2d, "_convolution",
                        lambda V, C: (convolved.append(len(C)), real_convolution(V, C))[1])
    built = _count_dilations(monkeypatch)
    vols = [mixedvol.sum_volume(_STAR4, _MIXED_N, e) for e in mixedvol.DEFAULT_SCHEDULE]
    assert built == [(_STAR4, _MIXED_N)]
    assert len(convolved) == sum(len(U) > 1 for U in mixedvol._unit_chains(_MIXED_N)) == 5
    built = _count_dilations(monkeypatch)
    for e in mixedvol.DEFAULT_SCHEDULE:
        mixedvol.local_expansion_probe(_STAR4, (0, 0.5), _MIXED_N, e)
    assert built == [(_STAR4, _MIXED_N)]
    built = _count_dilations(monkeypatch)
    assert cli._volumes(_STAR4, _MIXED_N, mixedvol.DEFAULT_SCHEDULE) == vols
    assert 1 <= len(built) <= cli._workers()


def test_threads_that_alternate_pairs_get_their_own_volumes(unit_square):
    """More threads than cores, switching often, each alternate between two
    pairs, which keep replacing each other in the one remembered slot: each
    volume is still that of the pair asked for (a translate of M here, so
    cheap that the calls spend their time at the slot)."""
    N = StructuringSet((Points(((0.5, 0.25),)),))
    pairs = [(unit_square, N), (_L_SHAPE, N)]
    want = [mixedvol.sum_volume(M, N, 0.1) for M, N in pairs]
    assert want == pytest.approx([1.0, 3.0])

    def volumes(t):
        return [mixedvol.sum_volume(*pairs[(t + i) % 2], 0.1) for i in range(400)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2 * min(os.cpu_count() or 1, 8)) as pool:
            futures = [pool.submit(volumes, t) for t in range(32)]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == [[want[(t + i) % 2] for i in range(400)] for t in range(32)]


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


def test_series_rejects_non_finite_grid_before_the_fit(unit_square, plus_set, capfd):
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            mixedvol.series_fit(unit_square, plus_set, [1e-3, 1e-2, bad, 0.1], 1, volumes=[1] * 4)
    assert capfd.readouterr() == ("", "")


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


#: A nonconvex N for the explicit examples: two crossing segments, a point
#: and a triangle.
_SPARSE_N = StructuringSet((
    Segment((-0.2, 0.0), (0.2, 0.0)),
    Segment((0.1, -0.2), (0.1, 0.25)),
    Points(((0.2, 0.2),)),
    ConvexPolygon(((0.0, 0.0), (0.3, 0.0), (0.1, 0.2))),
))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(star_dilations())
@example((Polygon(NEAR_STRAIGHT_RUN), _SPARSE_N, None))
@example((_L_SHAPE, _SPARSE_N, None))
def test_convexification_identity_nonconvex_m(case):
    """The paper's main theorem on nonconvex M: D_N(M) = D_conv(N)(M)."""
    M, N, _ = case
    try:
        NH = StructuringSet((structuring.hull(N),))
    except DegenerateHull:
        assume(False)
    bi, bih = mixedvol.d_boundary_integral(M, N), mixedvol.d_boundary_integral(M, NH)
    assert abs(bi.value - bih.value) <= 1e-12
    fd, fdh = mixedvol.d_finite_difference(M, N), mixedvol.d_finite_difference(M, NH)
    assert abs(fd.value - bi.value) <= max(1e-3, 3 * fd.error_estimate)
    assert abs(fd.value - fdh.value) <= max(1e-3, 3 * max(fd.error_estimate, fdh.error_estimate))


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


#: `d_grid` value and quotients at (M, N, h) on the schedule (0.1, 0.05,
#: 0.025), on a grid over M's box grown by the support of 0.1 * N along the
#: axes and by 2h.
_D_GRID_REPRS = {
    ("square", "plus", 0.02): "(1.8666666666666762, (4.000000000000001, 3.999999999999999, "
                              "3.200000000000003))",
    ("square", "plus", 0.05): "(4.000000000000011, (4.000000000000001, 3.999999999999999, "
                              "4.0000000000000036))",
    ("square", "mixed", 0.02): "(6.445333333333339, (5.880000000000001, 5.352000000000001, "
                               "5.696000000000003))",
    ("square", "mixed", 0.05): "(7.983333333333337, (5.750000000000002, 5.100000000000002, "
                               "6.100000000000003))",
    ("L", "plus", 0.02): "(5.4013333333333415, (7.9, 7.128000000000005, 6.3840000000000074))",
    ("L", "plus", 0.05): "(8.06666666666667, (7.900000000000005, 7.950000000000008, "
                         "8.000000000000007))",
    ("L", "mixed", 0.02): "(10.604, (11.379999999999999, 10.504000000000007, "
                          "10.432000000000006))",
    ("L", "mixed", 0.05): "(15.883333333333338, (11.150000000000006, 10.050000000000008, "
                          "12.100000000000009))",
}


@pytest.mark.parametrize("m, n, h", sorted(_D_GRID_REPRS))
def test_d_grid_values_are_unchanged(m, n, h, unit_square, plus_set):
    M = {"square": unit_square, "L": _L_SHAPE}[m]
    N = {"plus": plus_set, "mixed": _MIXED_N}[n]
    est = mixedvol.d_grid(M, N, (0.1, 0.05, 0.025), h)
    assert repr((est.value, est.raw_quotients)) == _D_GRID_REPRS[m, n, h]


def test_d_grid_covers_m_where_n_lies_off_the_origin(unit_square):
    """A far point translates M, so every quotient is 0; a grid over the
    first dilation alone would leave part of M out of the base volume."""
    N = StructuringSet((Points(((5.0, 0.0),)),))
    est = mixedvol.d_grid(unit_square, N, (0.1, 0.05, 0.025), 0.05)
    assert est.raw_quotients == (0.0, 0.0, 0.0)


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
        mixedvol.d_grid_distance_field(dist, ((-0.2, 1.2),) * 2, 0.05, (0.2, 0.1, 0.05))
