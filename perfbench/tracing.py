"""Spans around calls into mixvol's modules, installed at run time from the
benchmark's own files, and the per-layer metrics computed from them.

Wrapping replaces module attributes (and the `__post_init__` of the two
polygon classes, which is where construction validates).  mixvol calls
between and within modules through these attributes, so nested calls reach
the wrappers too.  The CLI's worker pool does not carry context into its
threads, so the pool is swapped for one that hands each task the operation
id and parent span explicitly.

A span is (id, name, start, end, parent id, operation id, count, error
class).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

from mixvol import cli, geom2d, isoperimetric, lattice, mixedvol, structuring, svgout

LAYERS = ("geom2d", "structuring", "mixedvol", "isoperimetric", "lattice", "cli",
          "svgout", "bench")


def _result_nodes(args, kwargs, result):
    return result.nodes_explored if result is not None else 0


# (module, attribute, span name, count(args, kwargs, result) or None)
WRAPPED = (
    (geom2d, "minkowski_convex", "geom2d.minkowski", None),
    (geom2d, "minkowski_segment", "geom2d.minkowski", None),
    (geom2d, "union_area", "geom2d.union_area", lambda a, k, r: len(a[0].parts)),
    (geom2d, "triangulate", "geom2d.triangulate", None),
    (geom2d, "convex_hull", "geom2d.convex_hull", None),
    (geom2d, "ray_exit", "geom2d.ray_exit", None),
    (structuring, "support", "structuring.support", None),
    (structuring, "hull", "structuring.hull", None),
    (mixedvol, "sum_region", "mixedvol.sum_region", None),
    (mixedvol, "sum_volume", "mixedvol.sum_volume", None),
    (mixedvol, "d_finite_difference", "mixedvol.d_finite_difference", None),
    (mixedvol, "d_boundary_integral", "mixedvol.d_boundary_integral", None),
    (mixedvol, "series_fit", "mixedvol.series_fit", None),
    (mixedvol, "local_expansion_probe", "mixedvol.local_expansion_probe", None),
    (isoperimetric, "zonotope", "isoperimetric.zonotope", None),
    (isoperimetric, "wulff_shape", "isoperimetric.wulff_shape", None),
    (lattice, "solve_heuristic", "lattice.solve_heuristic", _result_nodes),
    (lattice, "solve_exact", "lattice.solve_exact", _result_nodes),
    (lattice, "convergence_diagnostic", "lattice.convergence_diagnostic", None),
    (cli, "_build_parser", "cli.args", None),
    (cli, "_resolve", "cli.args", None),
    (cli, "_load_json", "cli.load", None),
    (cli, "_load_region", "cli.load", None),
    (cli, "write_json", "cli.write", None),
    (cli, "write_csv", "cli.write", None),
    (svgout, "document", "svgout.document", None),
    (svgout, "polygon_element", "svgout.element", None),
    (svgout, "points_element", "svgout.element", None),
)

CLI_COMMANDS = ("estimate", "series", "lattice", "shapes", "probe")


class Tracer:
    """Records spans; `install()` wraps mixvol until `uninstall()` undoes it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.pool_cpu: list[tuple[int, float]] = []  # (pool span id, task CPU s)
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- span bookkeeping ---------------------------------------------------

    def _ctx(self):
        ctx = getattr(self._local, "ctx", None)
        if ctx is None:
            ctx = self._local.ctx = {"stack": [], "op": None, "root": None}
        return ctx

    def begin_op(self, op_id: int) -> None:
        ctx = self._ctx()
        ctx["op"], ctx["root"] = op_id, None

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = tracer._ctx()
            stack = ctx["stack"]
            parent = stack[-1] if stack else ctx["root"]
            sid = next(tracer._ids)
            stack.append(sid)
            result = err = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                n = count(args, kwargs, result) if count is not None else 0
                tracer.spans.append((sid, name, t0, t1, parent, ctx["op"], n, err))

        return wrapper

    def pool_class(self):
        """A ThreadPoolExecutor whose `map` is a span and whose tasks carry
        the caller's operation id and span as their explicit parent.

        Each task's thread CPU time is kept too: a task waiting for the
        interpreter lock still has its span open, so summed span time would
        count the wait as parallel work."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                caller = tracer._ctx()

                def task(sid, *args):
                    ctx = tracer._ctx()
                    ctx["op"], ctx["root"] = caller["op"], sid
                    cpu = time.thread_time()
                    try:
                        return fn(*args)
                    finally:
                        tracer.pool_cpu.append((sid, time.thread_time() - cpu))
                        ctx["op"] = ctx["root"] = None

                def run_all():
                    sid = caller["stack"][-1]
                    return list(super(TracedPool, self).map(
                        functools.partial(task, sid), *iterables, **kwargs))

                return iter(tracer.wrap("cli.pool", run_all)())

        return TracedPool

    # -- installation -------------------------------------------------------

    def install(self) -> list[tuple]:
        """Wrap everything in WRAPPED; return what `uninstall` restores."""
        saved = []
        for module, attr, name, count in WRAPPED:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, count))
        for cls in (geom2d.Polygon, geom2d.ConvexPolygon):
            fn = cls.__dict__["__post_init__"]
            saved.append((cls, "__post_init__", fn))
            setattr(cls, "__post_init__", self.wrap(
                "geom2d.validate", fn, lambda a, k, r: len(a[0].vertices)))
        saved.append((cli, "ThreadPoolExecutor", cli.ThreadPoolExecutor))
        cli.ThreadPoolExecutor = self.pool_class()
        saved.append((cli, "_COMMANDS", cli._COMMANDS))
        cli._COMMANDS = {k: self.wrap(f"cli.{k}", fn) for k, fn in cli._COMMANDS.items()}
        return saved

    @staticmethod
    def uninstall(saved: list[tuple]) -> None:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# Per-layer metrics


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children = defaultdict(list)
    for sid, _, t0, t1, parent, *_ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    return {sid: (t1 - t0) - _covered(children[sid], t0, t1)
            for sid, _, t0, t1, *_ in spans}


def failure_layers(spans) -> dict[int, str]:
    """Operation id -> layer of the innermost span its exception came from.

    From each failed operation's span, follow the child that raised last
    (the one whose exception propagated) down to a span with no raising
    child.
    """
    raised = defaultdict(list)
    for s in spans:
        if s[7] is not None and s[4] is not None:
            raised[s[4]].append(s)
    out = {}
    for s in spans:
        if s[1] == "bench.op" and s[7] is not None:
            cur = s
            while raised[cur[0]]:
                cur = max(raised[cur[0]], key=lambda c: c[3])
            out[s[5]] = cur[1].split(".")[0]
    return out


def layer_metrics(spans, pool_cpu, passes: int) -> dict[str, float]:
    """Per-layer metrics from one traced run, per pass over the op list.

    Counts and self times are totals divided by the number of passes, so on
    one seed they repeat exactly (counts) or up to timing noise (times).
    Layer shares are each layer's self time over all self time.
    `cli.pool_parallelism` is the thread CPU time of the pool tasks that
    compute volumes over the wall time of their `pool.map` calls: about 1
    when the interpreter lock serializes the workers.
    """
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    count = defaultdict(int)
    max_count = defaultdict(int)
    for sid, name, t0, t1, parent, op, n, err in spans:
        calls[name] += 1
        self_s[name] += own[sid]
        incl_s[name] += t1 - t0
        count[name] += n
        max_count[name] = max(max_count[name], n)
    by_layer = defaultdict(float)
    for name, s in self_s.items():
        by_layer[name.split(".")[0]] += s
    total = sum(by_layer.values()) or 1.0

    vol_pools = {s[4] for s in spans if s[1] == "mixedvol.sum_volume"}
    pool_wall = sum(s[3] - s[2] for s in spans
                    if s[1] == "cli.pool" and s[0] in vol_pools)
    pool_cpu = sum(cpu for sid, cpu in pool_cpu if sid in vol_pools)

    p = float(passes)
    ms = 1e3 / p
    m = {
        "geom2d.validate.calls": calls["geom2d.validate"] / p,
        "geom2d.validate.vertices": count["geom2d.validate"] / p,
        "geom2d.validate.self_ms": self_s["geom2d.validate"] * ms,
        "geom2d.minkowski.calls": calls["geom2d.minkowski"] / p,
        "geom2d.minkowski.self_ms": self_s["geom2d.minkowski"] * ms,
        "geom2d.union_area.calls": calls["geom2d.union_area"] / p,
        "geom2d.union_area.parts": count["geom2d.union_area"] / p,
        "geom2d.union_area.max_parts": float(max_count["geom2d.union_area"]),
        "geom2d.union_area.self_ms": self_s["geom2d.union_area"] * ms,
        "geom2d.triangulate.calls": calls["geom2d.triangulate"] / p,
        "geom2d.triangulate.self_ms": self_s["geom2d.triangulate"] * ms,
        "structuring.support.calls": calls["structuring.support"] / p,
        "structuring.support.self_ms": self_s["structuring.support"] * ms,
        "mixedvol.sum_volume.calls": calls["mixedvol.sum_volume"] / p,
        "mixedvol.sum_region.self_ms": self_s["mixedvol.sum_region"] * ms,
        "mixedvol.d_finite_difference.self_ms": self_s["mixedvol.d_finite_difference"] * ms,
        "mixedvol.d_boundary_integral.self_ms": self_s["mixedvol.d_boundary_integral"] * ms,
        "lattice.anneal_steps": count["lattice.solve_heuristic"] / p,
        "lattice.anneal_steps_per_s": (count["lattice.solve_heuristic"]
                                       / incl_s["lattice.solve_heuristic"]
                                       if incl_s["lattice.solve_heuristic"] else 0.0),
        "lattice.solve_heuristic.self_ms": self_s["lattice.solve_heuristic"] * ms,
        "lattice.exact_nodes": count["lattice.solve_exact"] / p,
        "lattice.exact_nodes_per_s": (count["lattice.solve_exact"]
                                      / incl_s["lattice.solve_exact"]
                                      if incl_s["lattice.solve_exact"] else 0.0),
        "lattice.solve_exact.self_ms": self_s["lattice.solve_exact"] * ms,
        "lattice.convergence_diagnostic.self_ms":
            self_s["lattice.convergence_diagnostic"] * ms,
        "isoperimetric.wulff_shape.self_ms": self_s["isoperimetric.wulff_shape"] * ms,
        "isoperimetric.zonotope.self_ms": self_s["isoperimetric.zonotope"] * ms,
    }
    for sub in CLI_COMMANDS:
        m[f"cli.{sub}.self_ms"] = self_s[f"cli.{sub}"] * ms
    m["cli.write.self_ms"] = self_s["cli.write"] * ms
    m["svgout.document.self_ms"] = self_s["svgout.document"] * ms
    m["cli.pool_parallelism"] = pool_cpu / pool_wall if pool_wall else 0.0
    failed = defaultdict(int)
    for layer in failure_layers(spans).values():
        failed[layer] += 1
    for layer in LAYERS:
        m[f"{layer}.share"] = 100.0 * by_layer[layer] / total
        m[f"{layer}.failed_ops"] = failed[layer] / p
    return m
