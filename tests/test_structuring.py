import math

import numpy as np
import pytest

from mixvol import geom2d, structuring
from mixvol.errors import DegenerateHull, NegativeScale, ZeroDirection
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


def test_hull_square_vertices():
    N = StructuringSet((Points(((0, 0), (1, 0), (1, 1), (0, 1))),))
    H = structuring.hull(N)
    assert set(H.vertices) == {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}


def test_diameter_plus(plus_set):
    assert structuring.diameter(plus_set) == 2.0


def test_diameter_disc():
    assert structuring.diameter(StructuringSet((Disc((3, -2), 1.0),))) == 2.0


def test_diameter_point():
    assert structuring.diameter(StructuringSet((Points(((4, 5),)),))) == 0.0


def test_diameter_matches_hull():
    N = StructuringSet((
        Segment((-1, 0.2), (1, 0)),
        Points(((0.3, 0.9), (-0.6, -0.8), (0.1, 0.1))),
    ))
    H = structuring.hull(N)
    hd = structuring.diameter(StructuringSet((H,)))
    assert structuring.diameter(N) == pytest.approx(hd, abs=1e-12)


def test_diameter_matches_hull_with_disc():
    N = mixed_set()
    H = structuring.hull(N)  # disc polygonalized, so only near-equality
    hd = structuring.diameter(StructuringSet((H,)))
    assert structuring.diameter(N) == pytest.approx(hd, abs=1e-6)


def test_scale_half(plus_set):
    S = structuring.scale(plus_set, 0.5)
    seg = S.components[0]
    assert seg.a == (-0.5, 0.0) and seg.b == (0.5, 0.0)
    for th in np.linspace(0.1, 6.0, 25):
        u = (math.cos(th), math.sin(th))
        assert structuring.support(S, u) == pytest.approx(
            0.5 * structuring.support(plus_set, u), rel=1e-12)


def test_scale_identity(plus_set):
    assert structuring.scale(plus_set, 1.0) == plus_set


def test_scale_zero(plus_set):
    S = structuring.scale(plus_set, 0.0)
    assert structuring.diameter(S) == 0.0
    assert structuring.support(S, (0.37, -0.92)) == 0.0


def test_scale_negative(plus_set):
    with pytest.raises(NegativeScale):
        structuring.scale(plus_set, -0.1)


def test_scale_disc_radius():
    N = StructuringSet((Disc((2, 0), 1.0),))
    S = structuring.scale(N, 0.25)
    d = S.components[0]
    assert d.center == (0.5, 0.0)
    assert d.radius == 0.25


def test_recentered(plus_set):
    shifted = structuring.translate_set(plus_set, (3.0, -1.0))
    back = structuring.recentered(shifted)
    for th in np.linspace(0.0, 6.28, 30):
        u = (math.cos(th), math.sin(th))
        assert structuring.support(back, u) == pytest.approx(
            structuring.support(plus_set, u), abs=1e-9)


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
