"""The benchmark's tracer (`perfbench/tracing.py`) wraps mixvol's functions
by module attribute and name.  Renaming or removing one of them in `src/`
breaks the traced benchmark run; these tests catch that in the main suite.
The harness file is only read, never changed."""

import importlib.util
from pathlib import Path

from mixvol import geom2d

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
