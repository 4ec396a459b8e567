"""The benchmark's tracer (`perfbench/tracing.py`) wraps mixvol's functions
by module attribute and name.  Renaming or removing one of them in `src/`
breaks the traced benchmark run; these tests catch that in the main suite.
The harness file is only read, never changed."""

import importlib.util
import json
from pathlib import Path

import pytest

from mixvol import cli, geom2d
from mixvol.errors import DegenerateInput

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = _tracing()
    tracer = tracing.Tracer()
    saved = tracer.install()
    try:
        assert all(getattr(owner, attr) is not value for owner, attr, value in saved)
        square = geom2d.ConvexPolygon(((0, 0), (1, 0), (1, 1), (0, 1)))
        assert geom2d.union_area(geom2d.RegionUnion((square,))) == 1.0
    finally:
        tracing.Tracer.uninstall(saved)
    assert all(getattr(owner, attr) is value for owner, attr, value in saved)
    counts = {name: n for _, name, *_, n, _ in tracer.spans}
    assert counts == {"geom2d.validate": 4, "geom2d.union_area": 1}


def test_tracer_sees_the_cli_pool_and_its_callers(tmp_path):
    """`cli.pool_parallelism` times the pool by swapping `cli.ThreadPoolExecutor`:
    the volumes run on it, the lattice sizes on the command's own thread, and
    the probe reads the kernel's arrays without validating a polygon."""
    def put(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    m = put("m.json", {"disc": {"c": [0, 0], "r": 1}})
    n = put("n.json", {"components": [{"type": "segment", "a": [-1, 0], "b": [1, 0]},
                                      {"type": "disc", "c": [0, 0], "r": 0.5}]})
    graph = put("graph.json", {"dim": 2, "edges": [[1, 0], [0, 1]]})
    out = ["--out-dir", str(tmp_path / "out")]
    tracing = _tracing()
    tracer = tracing.Tracer()
    saved = tracer.install()
    try:
        assert cli.main(["estimate", "--m", m, "--n", n, "--resolution", "64"] + out) == 0
        assert cli.main(["probe", "--m", m, "--n", n, "--resolution", "64"] + out) == 0
        assert cli.main(["lattice", "--graph", graph, "--n", "1..3", "--exact"] + out) == 0
    finally:
        tracing.Tracer.uninstall(saved)
    name = {sid: span_name for sid, span_name, *_ in tracer.spans}
    parent = {sid: p for sid, _, _, _, p, *_ in tracer.spans}

    def ancestors(sid):
        while parent[sid] is not None:
            sid = parent[sid]
            yield name[sid]

    def spans(span_name):
        found = [sid for sid, s in name.items() if s == span_name]
        assert found, span_name
        return found

    assert all(name[parent[sid]] == "cli.pool" for sid in spans("mixedvol.sum_volume"))
    assert all(name[parent[sid]] == "cli.lattice" for sid in spans("lattice.solve_exact"))
    spans("mixedvol.local_expansion_probe")
    assert not [sid for sid in spans("geom2d.validate")
                if "mixedvol.local_expansion_probe" in ancestors(sid)]


def test_tracer_counts_the_vertices_of_refused_polygons():
    """The validate span counts `len(polygon.vertices)` after `__post_init__`
    returns or raises; a refused argument, here the list `convex_hull` passes
    for collinear points, still gives a count, and the refusal its own error."""
    tracing = _tracing()
    tracer = tracing.Tracer()
    saved = tracer.install()
    try:
        with pytest.raises(DegenerateInput):
            geom2d.convex_hull([(0, 0), (1, 1), (2, 2), (3, 3.000000000001)])
    finally:
        tracing.Tracer.uninstall(saved)
    assert [(name, n, err) for _, name, *_, n, err in tracer.spans] == \
        [("geom2d.validate", 2, "ValueError"), ("geom2d.convex_hull", 0, "DegenerateInput")]
