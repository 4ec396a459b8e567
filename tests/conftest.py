import math

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from mixvol import geom2d, structuring
from mixvol.errors import DegenerateInput


@pytest.fixture
def unit_square():
    return geom2d.ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))


@pytest.fixture
def diamond():
    return geom2d.ConvexPolygon(((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)))


@pytest.fixture
def plus_set():
    # two unit-length axis segments through the origin
    return structuring.StructuringSet((
        structuring.Segment((-1.0, 0.0), (1.0, 0.0)),
        structuring.Segment((0.0, -1.0), (0.0, 1.0)),
    ))


@pytest.fixture(scope="session")
def disc_4096():
    return geom2d.regular_disc(4096, 1.0)


def closed_form_plus_dilation(eps: float) -> float:
    """Exact area of the unit disc dilated by eps times the axis cross.

    Decomposes the union of the two stadium-like parts into circular
    segments and triangles; valid for 0 < eps < 1.
    """
    e = eps
    s = math.sqrt(2.0 - e * e)
    return (
        math.pi
        + 2.0 * e * e
        + 2.0 * s * e
        + 0.5 * math.sqrt(2.0 - 2.0 * s * e) * e
        + 0.5 * math.sqrt(2.0 * s * e + 2.0) * e
        + 0.5 * s * math.sqrt(2.0 - 2.0 * s * e)
        - 0.5 * s * math.sqrt(2.0 * s * e + 2.0)
        + 2.0 * math.asin(0.5 * (e - s))
        + 2.0 * math.asin(0.5 * (s + e))
    )


#: Offsets, as a share of the edge, of the vertices `near_collinear_convex`
#: inserts: exactly on the edge, at round-off, around the collinearity
#: tolerance (1e-12 radians) and well away from it, outward (+) and inward (-).
EDGE_OFFSETS = (0.0, 1e-16, -1e-16, 3e-13, -3e-13, 1e-12, -1e-12,
                3e-12, -3e-12, 1e-9, -1e-9)


@st.composite
def near_collinear_convex(draw):
    """Vertex list of a convex polygon with extra vertices along its edges,
    each pushed off its edge by one of EDGE_OFFSETS, and its lowest vertex
    raised by 1e-16 to 1e-15."""
    pts = draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                        min_size=3, max_size=8))
    try:
        hull = geom2d.convex_hull(pts).vertices
    except (DegenerateInput, ValueError):
        assume(False)
    verts = []
    for i, (x0, y0) in enumerate(hull):
        x1, y1 = hull[(i + 1) % len(hull)]
        verts.append((x0, y0))
        for t in sorted(draw(st.lists(st.floats(0.05, 0.95), max_size=3, unique=True))):
            off = draw(st.sampled_from(EDGE_OFFSETS))
            verts.append((x0 + t * (x1 - x0) + off * (y1 - y0),
                          y0 + t * (y1 - y0) - off * (x1 - x0)))
    k = min(range(len(verts)), key=lambda i: (verts[i][1], verts[i][0]))
    x, y = verts[k]
    verts[k] = (x, y + draw(st.floats(1e-16, 1e-15)))
    return verts
