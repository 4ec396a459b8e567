"""Fixtures, strategies and references shared by the test modules.

The property tests are derandomized, yet their draws do not follow from the
test code alone.  Hypothesis (as of 6.155) mines the literals of the local
non-test modules it has loaded, `src/mixvol` among them, and draws some
values from that pool.  So adding or removing a numeric literal in
`src/mixvol` can hand a test new examples, though no test changed (short
string literals join the pool too, but only string draws read them, and
this suite makes none).  `test_surface.py` pins the numbers of
`hypothesis.internal.constants_ast.constants_from_module(m)` over the
`mixvol` modules m: where they agree, so do the draws, and a change that
moves them fails there, naming the literal that came or went.  Writing a
value as an int (1 for 1.0) keeps it out of the pool, which skips ints
between -100 and 100.
"""

import math

import numpy as np
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


#: A 0.8 x 1 box whose bottom edge is a run of nearly straight corners
#: turning by (-0.9, -0.9, -0.9, +1.5, -0.9, -0.9, -0.9) times their tolerance:
#: merging the run keeps only the corner near (0.4, 0), which then turns
#: reflex (-1.2 times its tolerance), so ConvexPolygon refuses the polygon.
NEAR_STRAIGHT_RUN = [
    [0, 0], [0.1, 0], [0.2, -9.000000000000001e-14], [0.30000000000000004, -2.7e-13],
    [0.4, -5.4e-13], [0.5, -6.6e-13], [0.6, -8.7e-13], [0.7, -1.17e-12],
    [0.7999999999999999, -1.56e-12], [0.7999999999999999, 1], [0, 1]]


def minkowski_walk(A, B) -> np.ndarray:
    """The sum of two convex CCW chains as a walk over (x, y) tuples, one
    edge pair at a time, the tests' reference for Minkowski sums: A and B
    each start at their lex-min vertex (a convex polygon's vertices, or a
    segment's two ends in lex order), and so does the sum.  Edges parallel
    within TAU radians and pointing the same way make one step; an
    antiparallel pair goes right half first, others by their cross product.
    The steps are summed one at a time from the sum of the two starts."""
    TAU = geom2d.TAU
    vp, vq = ([tuple(v) for v in np.asarray(V, dtype=float).tolist()] for V in (A, B))
    ep = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(vp, vp[1:] + vp[:1])]
    eq = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(vq, vq[1:] + vq[:1])]
    cur = (vp[0][0] + vq[0][0], vp[0][1] + vq[0][1])
    out = [cur]
    i = j = 0
    while i < len(ep) or j < len(eq):
        if j >= len(eq):
            step = ep[i]; i += 1
        elif i >= len(ep):
            step = eq[j]; j += 1
        else:
            (px, py), (qx, qy) = ep[i], eq[j]
            c = px * qy - py * qx
            parallel = c * c <= TAU * TAU * (px * px + py * py) * (qx * qx + qy * qy)
            if parallel and px * qx + py * qy > 0.0:
                step = (px + qx, py + qy); i += 1; j += 1
            else:
                if parallel:  # antiparallel: the right half goes first
                    c = (ep[i] > (0.0, 0.0)) - (eq[j] > (0.0, 0.0)) or c
                if c > 0.0:
                    step = ep[i]; i += 1
                else:
                    step = eq[j]; j += 1
        cur = (cur[0] + step[0], cur[1] + step[1])
        out.append(cur)
    return np.array(out[:-1])  # the closing vertex repeats the start


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
    except DegenerateInput:
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
