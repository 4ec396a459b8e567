import math

import numpy as np
import pytest

from mixvol import geom2d, structuring
from mixvol.errors import DegenerateHull, ZeroDirection
from mixvol.structuring import Disc, Points, Segment, StructuringSet


SQRT2 = math.sqrt(2)


def mixed_set():
    return StructuringSet((
        Segment((-1, 0), (1, 0)),
        Points(((0.3, 0.7), (-0.2, -0.4))),
        Disc((0.1, 0.0), 0.5),
    ))


def test_support_plus_axis(plus_set):
    assert structuring.support(plus_set, (1, 0)) == 1.0
    assert structuring.support(plus_set, (0, -1)) == 1.0


def test_support_plus_diagonal(plus_set):
    u = (1 / SQRT2, 1 / SQRT2)
    assert structuring.support(plus_set, u) == pytest.approx(1 / SQRT2, abs=1e-12)


def test_support_disc():
    N = StructuringSet((Disc((0, 0), 1.0),))
    for th in np.linspace(0, 2 * math.pi, 17):
        assert structuring.support(N, (math.cos(th), math.sin(th))) == \
            pytest.approx(1.0, abs=1e-12)


def test_support_zero_direction(plus_set):
    with pytest.raises(ZeroDirection):
        structuring.support(plus_set, (0, 0))


def _support_reference(N, u):
    """The per-direction loop that support's array evaluation replaced."""
    ux, uy = u
    norm = math.hypot(ux, uy)
    best = -math.inf
    for c in N.components:
        if isinstance(c, Disc):
            val = c.center[0] * ux + c.center[1] * uy + c.radius * norm
        else:
            pts = c.pts if isinstance(c, Points) else (
                (c.a, c.b) if isinstance(c, Segment) else c.vertices)
            val = max(p[0] * ux + p[1] * uy for p in pts)
        best = max(best, val)
    return best


def test_support_over_directions_matches_scalar_loop(plus_set):
    rng = np.random.default_rng(8)
    U = np.concatenate([rng.normal(size=(300, 2)) * rng.uniform(0.01, 100, size=(300, 1)),
                        [[1, 0], [0, -1], [-3, 0], [1e-9, 2e-9]]])
    poly = StructuringSet((geom2d.regular_disc(7, 0.4), Points(((1, 1),))))
    for N in (plus_set, mixed_set(), poly):
        values = structuring.support(N, U)
        assert values.shape == (len(U),)
        assert values.tolist() == [_support_reference(N, u) for u in U.tolist()]
        one = structuring.support(N, tuple(U[0]))
        assert isinstance(one, float) and one == values[0]


def test_support_over_directions_in_blocks():
    # 70000 points leave room for 3 directions per block of 2**18 products
    rng = np.random.default_rng(4)
    N = StructuringSet((Points(tuple(map(tuple, rng.normal(size=(70000, 2)).tolist()))),))
    U = rng.normal(size=(10, 2))
    assert structuring.support(N, U).tolist() == [_support_reference(N, u) for u in U.tolist()]


def test_support_of_discs_matches_scalar_loop():
    """A disc's values use math.hypot's norms, bit for bit."""
    rng = np.random.default_rng(6)
    N = StructuringSet((Disc((0.1, -0.2), 0.7), Points(((0.3, 0.9), (-1.0, 0.2))),
                        Disc((-0.3, 0.05), 0.25)))
    U = rng.normal(size=(4096, 2)) * 10.0 ** rng.integers(-11, 12, size=(4096, 1))
    assert structuring.support(N, U).tolist() == [_support_reference(N, u) for u in U.tolist()]


def test_support_zero_direction_is_math_hypots_verdict(plus_set):
    """Directions within a few ulps of TAU in norm are refused exactly where
    math.hypot puts them at TAU or below, also where np.hypot disagrees."""
    rng = np.random.default_rng(5)
    t = rng.uniform(0.0, 2.0 * math.pi, 4000)
    r = geom2d.TAU * (1.0 + rng.integers(-3, 4, 4000) * 2.0 ** -52)
    U = np.stack((r * np.cos(t), r * np.sin(t)), 1)
    zero = [math.hypot(x, y) <= geom2d.TAU for x, y in U.tolist()]
    assert zero != (np.hypot(U[:, 0], U[:, 1]) <= geom2d.TAU).tolist()
    for u, z in zip(U, zero):
        if z:
            with pytest.raises(ZeroDirection):
                structuring.support(plus_set, u)
        else:
            assert structuring.support(plus_set, u) > 0.0
    with pytest.raises(ZeroDirection):
        structuring.support(plus_set, U)


def test_support_rejects_bad_directions(plus_set):
    with pytest.raises(ZeroDirection):
        structuring.support(plus_set, [[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        structuring.support(plus_set, [[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        structuring.support(plus_set, [[1.0, math.nan]])


def test_support_homogeneous(plus_set):
    rng = np.random.default_rng(21)
    for _ in range(50):
        u = rng.normal(size=2)
        if math.hypot(*u) < 1e-6:
            continue
        lam = float(rng.uniform(0.1, 9.0))
        assert structuring.support(plus_set, lam * u) == pytest.approx(
            lam * structuring.support(plus_set, u), rel=1e-12)


def test_support_subadditive():
    N = mixed_set()
    rng = np.random.default_rng(22)
    for _ in range(200):
        u = rng.normal(size=2)
        v = rng.normal(size=2)
        w = u + v
        if min(math.hypot(*u), math.hypot(*v), math.hypot(*w)) < 1e-6:
            continue
        hu = structuring.support(N, u)
        hv = structuring.support(N, v)
        hw = structuring.support(N, w)
        assert hw <= hu + hv + 1e-12


def test_support_sees_only_hull(plus_set):
    H = structuring.hull(plus_set)
    NH = StructuringSet((H,))
    for k in range(720):
        th = 2 * math.pi * k / 720
        u = (math.cos(th), math.sin(th))
        assert structuring.support(plus_set, u) == pytest.approx(
            structuring.support(NH, u), abs=1e-12)


def test_hull_plus_is_diamond(plus_set):
    H = structuring.hull(plus_set)
    assert set(H.vertices) == {(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)}


def test_hull_single_segment_degenerate():
    N = StructuringSet((Segment((0, 0), (1, 1)),))
    with pytest.raises(DegenerateHull):
        structuring.hull(N)


@pytest.mark.parametrize("pts", [((0, 0), (1e-6, 0), (5e-7, 1e-6)),
                                 ((0, 0), (1, 0), (0.5, 1e-12))], ids=["small", "flat"])
def test_hull_sliver_degenerate(pts):
    # three points in general position whose hull has an area of at most TAU
    with pytest.raises(DegenerateHull):
        structuring.hull(StructuringSet((Points(pts),)))


def test_hull_square_vertices():
    N = StructuringSet((Points(((0, 0), (1, 0), (1, 1), (0, 1))),))
    H = structuring.hull(N)
    assert set(H.vertices) == {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}


def test_json_round_trip():
    N = StructuringSet((
        Segment((-1, 0), (1, 0)),
        Points(((0.125, -0.5),)),
        geom2d.ConvexPolygon(((0, 0), (1, 0), (0.5, 1))),
        Disc((0.25, 0.25), 0.75),
    ))
    d = structuring.to_dict(N)
    back = structuring.from_dict(d)
    assert structuring.to_dict(back) == d
    for th in np.linspace(0.05, 6.2, 40):
        u = (math.cos(th), math.sin(th))
        assert structuring.support(back, u) == structuring.support(N, u)


def test_from_dict_rejects_unknown_type():
    with pytest.raises((ValueError, KeyError)):
        structuring.from_dict({"components": [{"type": "blob", "x": 1}]})


@pytest.mark.parametrize("item", [
    {"type": "segment", "a": [0, 0, 5], "b": [1, 0]},
    {"type": "points", "pts": [[1, 2, 3]]},
    {"type": "disc", "c": [0, 0, 9], "r": 1},
], ids=["segment", "points", "disc"])
def test_from_dict_rejects_third_coordinate(item):
    with pytest.raises(ValueError, match="exactly two coordinates"):
        structuring.from_dict({"components": [item]})


def test_hull_of_disc_is_its_regular_polygon():
    # the disc's points are r times the cached unit polygon's, moved to c
    H = structuring.hull(StructuringSet((Disc((0.25, -2.0), 0.3),)))
    disc = geom2d.translate(geom2d.regular_disc(structuring.DISC_RESOLUTION, 0.3), (0.25, -2.0))
    assert H.vertices == disc.vertices
