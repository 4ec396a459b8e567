#!/usr/bin/env python3
"""mixvol benchmark: one closed-loop client drives the public API and CLI.

    python3 perfbench/run.py --workload dilate-convex --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; mixvol is imported from its `src/`
(nothing is installed).  The client sends its next operation only after the
previous one returns.  Operations repeat in whole passes over the workload's
seeded op list, as many as fit in `--seconds`.  Every operation is checked;
an exception or a violated oracle is a failure, and time spent on failed
operations stays out of the timing metrics.  A workload's known defects are
probed once per run, untimed and outside the counts, and reported by outcome.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs passes untraced
for half the time, then the same number of passes with spans around every
call into mixvol's modules, and prints the per-layer metrics and the tracing
overhead.  The last line of stdout is one JSON object; the lines before it
are the human-readable report.  A full record (and, when traced, the spans)
goes to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("dilate-convex", "dilate-nonconvex", "lattice-anneal", "cli-pipeline")

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_LAYER_METRICS = (
    ("geom2d.validate.calls", "count"), ("geom2d.validate.vertices", "count"),
    ("geom2d.validate.self_ms", "ms"),
    ("geom2d.minkowski.calls", "count"), ("geom2d.minkowski.self_ms", "ms"),
    ("geom2d.union_area.calls", "count"), ("geom2d.union_area.parts", "count"),
    ("geom2d.union_area.max_parts", "count"), ("geom2d.union_area.self_ms", "ms"),
    ("geom2d.triangulate.calls", "count"), ("geom2d.triangulate.self_ms", "ms"),
    ("structuring.support.calls", "count"), ("structuring.support.self_ms", "ms"),
    ("mixedvol.sum_volume.calls", "count"), ("mixedvol.sum_region.self_ms", "ms"),
    ("mixedvol.d_finite_difference.self_ms", "ms"),
    ("mixedvol.d_boundary_integral.self_ms", "ms"),
    ("lattice.anneal_steps", "count"), ("lattice.anneal_steps_per_s", "1/s"),
    ("lattice.solve_heuristic.self_ms", "ms"),
    ("lattice.exact_nodes", "count"), ("lattice.exact_nodes_per_s", "1/s"),
    ("lattice.solve_exact.self_ms", "ms"),
    ("lattice.convergence_diagnostic.self_ms", "ms"),
    ("isoperimetric.wulff_shape.self_ms", "ms"),
    ("isoperimetric.zonotope.self_ms", "ms"),
    ("cli.estimate.self_ms", "ms"), ("cli.series.self_ms", "ms"),
    ("cli.lattice.self_ms", "ms"), ("cli.shapes.self_ms", "ms"),
    ("cli.probe.self_ms", "ms"), ("cli.write.self_ms", "ms"),
    ("cli.artifact_bytes", "B"), ("svgout.document.self_ms", "ms"),
    ("cli.pool_parallelism", "ratio"),
) + tuple((f"{layer}.share", "%") for layer in (
    "geom2d", "structuring", "mixedvol", "isoperimetric", "lattice", "cli",
    "svgout", "bench")) + tuple((f"{layer}.failed_ops", "count") for layer in (
    "geom2d", "structuring", "mixedvol", "isoperimetric", "lattice", "cli",
    "svgout", "bench")) + (
    ("mixedvol.fd_bi_tol_share_max", "share"),
    ("lattice.anneal_boundary_mean", "count"),
    ("bench.trace_overhead", "ratio"),
    ("bench.known_defect_failed", "count"),
)
_HIGHER = {"lattice.anneal_steps_per_s", "lattice.exact_nodes_per_s",
           "cli.pool_parallelism"}
PER_LAYER = tuple((name, unit, "higher" if name in _HIGHER else "lower")
                  for name, unit in _LAYER_METRICS)

#: op_tail_ms is this percentile of the successful executions' typical
#: times: the highest one with at least ten executions beyond it in a 25 s
#: run on the seed commit (2-core Xeon VM).  It is fixed so runs stay comparable
#: when a change alters how many operations fit in the run.  Because every
#: execution counts at its operation's median, the tail is in effect the
#: operation of a fixed rank within a pass (32nd of 35, 15th of 20, 34th of
#: 36 and 8th of 9), whatever the number of passes.
TAIL_PERCENTILE = {
    "dilate-convex": 90,
    "dilate-nonconvex": 75,
    "lattice-anneal": 94,
    "cli-pipeline": 88,
}

#: setup_s is the median of this many set-ups in fresh processes plus the
#: run's own set-up.
SETUP_PROBES = 8

#: On a shared 2-core Xeon VM the same work ran up to 1.6x slower for
#: minutes at a time.  So a fixed pure-Python reference loop is timed after every
#: operation, and every reported time is calibrated: wall time times
#: REF_SECONDS over the median of the REF_WINDOW reference times nearest to
#: the operation (half before it, half after).  That is the time on a
#: machine where the loop takes REF_SECONDS, which is about that VM when
#: it is quiet.  Raw wall times stay in the record.
REF_ITERATIONS = 40_000
REF_SECONDS = 3.0e-3
REF_WINDOW = 8


def reference_time() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


#: Set-up is calibrated against the median of this many reference times
#: taken just before it and as many just after.
SETUP_REFS = 5

#: What mixvol imports from outside on the seed commit.  They are imported
#: before set-up is timed: on that VM their import time (numpy's above all,
#: about 0.1 s) moved by up to 2x within minutes, apart from the reference
#: loop, and it is not mixvol's to change.  The timed import is mixvol's own
#: modules and whatever they import beyond these.
DEPENDENCIES = ("numpy", "concurrent.futures", "csv")


def calibrate(seconds: float, refs: list) -> float:
    return seconds * REF_SECONDS / statistics.median(refs)


class SetupError(RuntimeError):
    pass


def load_mixvol():
    """Import mixvol from this checkout's src/ and nowhere else."""
    if not (SRC / "mixvol" / "__init__.py").is_file():
        raise SetupError(f"no mixvol sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mixvol
    if Path(mixvol.__file__).resolve().parent != (SRC / "mixvol").resolve():
        raise SetupError(f"mixvol imported from {mixvol.__file__}, not {SRC}")
    return mixvol


def setup(workload: str, seed: int, workdir: Path, tiny: bool = False):
    """Import mixvol (its outside dependencies first, untimed), then
    generate and construct the workload's inputs.

    Returns (workload object, op list, seconds importing, seconds building)."""
    for name in DEPENDENCIES:
        importlib.import_module(name)
    t0 = time.perf_counter()
    load_mixvol()
    import workloads
    t1 = time.perf_counter()
    w = workloads.make(workload, workdir)
    ops = w.build(seed, tiny)
    return w, ops, t1 - t0, time.perf_counter() - t1


# ---------------------------------------------------------------------------
# The closed loop


@dataclass
class Tally:
    execs: list = field(default_factory=list)    # (op index, wall s, succeeded)
    refs: list = field(default_factory=list)     # reference times: before, after each
    attempted: int = 0
    failed: int = 0
    wrong: int = 0                               # ops whose output was wrong
    failures: Counter = field(default_factory=Counter)
    quality: dict = field(default_factory=lambda: defaultdict(list))
    passes: int = 0
    wall: float = 0.0

    def times(self, calibrated: bool = True) -> dict:
        """Op index -> times of its successful executions, in seconds."""
        out = defaultdict(list)
        half = REF_WINDOW // 2
        for j, (i, dt, ok) in enumerate(self.execs):
            if ok:
                near = self.refs[max(0, j - half + 1):j + half + 1]
                out[i].append(dt * REF_SECONDS / statistics.median(near)
                              if calibrated else dt)
        return out


def _exc_class(exc: BaseException) -> str:
    mod = type(exc).__module__
    return type(exc).__name__ if mod == "builtins" else f"{mod}.{type(exc).__name__}"


def measure(w, ops, *, seconds: float | None = None, passes: int | None = None,
            first: dict | None = None, tracer=None) -> Tally:
    """Run whole passes over `ops`: as many as fit in `seconds` (at least one;
    the next pass is expected to take as long as the mean pass so far), or
    exactly `passes` of them.  `first` maps op index -> fingerprint of its
    first result; a later result that differs is a failure."""
    first = {} if first is None else first
    call = w.run if tracer is None else tracer.wrap("bench.op", w.run)
    tally = Tally()
    start = time.perf_counter()
    tally.refs.append(reference_time())
    while True:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op(tally.attempted)
            tally.attempted += 1
            exc = None
            t0 = time.perf_counter()
            try:
                out = call(op)
            except Exception as e:  # the failure is the measurement
                exc = e
            dt = time.perf_counter() - t0
            tally.refs.append(reference_time())
            tally.execs.append((i, dt, False))
            if exc is not None:
                tally.failed += 1
                tally.failures[_exc_class(exc)] += 1
                continue
            bad = w.check(op, out)
            fp = w.fingerprint(out)
            if fp is not None and first.setdefault(i, fp) != fp:
                bad.append("oracle:not_repeatable")
            if bad:
                tally.failed += 1
                tally.wrong += 1
                tally.failures.update(bad)
                continue
            tally.execs[-1] = (i, dt, True)
            if tally.passes == 0:
                for k, v in w.quality(op, out).items():
                    tally.quality[k].append(v)
        tally.passes += 1
        tally.wall = time.perf_counter() - start
        if passes is not None and tally.passes >= passes:
            break
        if passes is None and tally.wall * (tally.passes + 1) / tally.passes > (seconds or 0.0):
            break
    return tally


def probe_defects(w, seed: int) -> dict:
    """Run the workload's known-defect probe once, untimed and outside any
    tally.  Label -> "ok", "wrong: <violated oracles>" or the class of the
    exception raised."""
    outcome = {}
    for op in w.known_defects(seed) if hasattr(w, "known_defects") else ():
        try:
            out = w.run(op)
        except Exception as exc:  # the defect is the measurement
            outcome[op.label] = _exc_class(exc)
            continue
        bad = w.check(op, out)
        outcome[op.label] = "wrong: " + ",".join(bad) if bad else "ok"
    return outcome


def tail(times: list, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and how many values lie beyond it."""
    s = sorted(times)
    k = max(1, math.ceil(pct / 100.0 * len(s)))
    return s[k - 1], len(s) - k


def typical_times(op_times: dict) -> list:
    """One time per successful execution: its operation's median over the
    run, so what is left of the machine's drift after calibration is
    dropped while each execution still counts once."""
    return sorted(statistics.median(ts) for ts in op_times.values() for _ in ts)


def timings(op_times: dict, workload: str) -> dict:
    t = typical_times(op_times)
    if not t:
        return {"ops_per_s": 0.0, "op_p50_ms": 0.0, "op_tail_ms": 0.0}
    return {
        "ops_per_s": len(t) / sum(t),
        "op_p50_ms": 1e3 * statistics.median(t),
        "op_tail_ms": 1e3 * tail(t, TAIL_PERCENTILE[workload])[0],
    }


def end_to_end(tally: Tally, workload: str, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        **timings(tally.times(), workload),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace_overhead(untraced: Tally, traced: Tally) -> float:
    """Calibrated time of a traced pass over that of an untraced one (means
    over passes).  The first untraced pass, which runs cold, is left out
    when there are others."""
    def per_pass(tally, skip):
        total = sum(sum(ts[skip:]) for ts in tally.times().values())
        return total / max(1, tally.passes - skip)
    skip = 1 if untraced.passes > 1 else 0
    return per_pass(traced, 0) / per_pass(untraced, skip)


def quality(tally: Tally) -> dict:
    """Quality figures that apply to the workload (first pass only)."""
    q = {"failed_frac": tally.failed / tally.attempted}
    if tally.quality.get("fd_bi_tol_share"):
        q["fd_bi_tol_share_max"] = max(tally.quality["fd_bi_tol_share"])
    if tally.quality.get("boundary"):
        q["anneal_boundary_mean"] = statistics.fmean(tally.quality["boundary"])
    if tally.quality.get("artifact_bytes"):
        q["artifact_bytes"] = sum(tally.quality["artifact_bytes"])
    return q


# ---------------------------------------------------------------------------
# Environment stamp


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "mixvol").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def stamp(workload: str, seed: int) -> dict:
    import numpy
    from mixvol import cli
    workers = getattr(cli, "_workers", None)
    return {
        "workload": workload,
        "seed": seed,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "cli_workers": workers() if workers is not None else None,
        "MIXVOL_THREADS": os.environ.get("MIXVOL_THREADS"),
    }


# ---------------------------------------------------------------------------
# Entry point


def _probe_setup(workload: str, seed: int) -> list:
    """Calibrated [import, build] seconds of a set-up in a fresh process,
    which pays for importing mixvol."""
    r = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                        "--workload", workload, "--seed", str(seed)],
                       cwd=ROOT, capture_output=True, text=True, timeout=170)
    if r.returncode != 0:
        raise SetupError(f"setup probe failed: {r.stderr.strip()}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        refs = [reference_time() for _ in range(SETUP_REFS)]
        w, ops, import_s, build_s = setup(args.workload, args.seed, workdir)
        refs += [reference_time() for _ in range(SETUP_REFS)]
        sample = [calibrate(import_s, refs), calibrate(build_s, refs)]
        if args.setup_probe:
            print(json.dumps(sample))
            return 0
        return _run(args, w, ops, sample)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, w, ops, setup_sample: list) -> int:
    first: dict = {}
    record = {"stamp": stamp(args.workload, args.seed), "ops_per_pass": len(ops)}
    if args.trace:
        from tracing import Tracer, layer_metrics
        untraced = measure(w, ops, seconds=args.seconds / 2, first=first)
        tracer = Tracer()
        saved = tracer.install()
        try:
            tally = measure(w, ops, passes=untraced.passes, first=first, tracer=tracer)
        finally:
            Tracer.uninstall(saved)
        defects = probe_defects(w, args.seed)
        q = quality(tally)
        values = layer_metrics(tracer.spans, tracer.pool_cpu, tally.passes)
        values["mixedvol.fd_bi_tol_share_max"] = q.get("fd_bi_tol_share_max", 0.0)
        values["lattice.anneal_boundary_mean"] = q.get("anneal_boundary_mean", 0.0)
        values["cli.artifact_bytes"] = float(q.get("artifact_bytes", 0))
        values["bench.trace_overhead"] = trace_overhead(untraced, tally)
        values["bench.failed_ops"] = tally.wrong / tally.passes
        values["bench.known_defect_failed"] = sum(o != "ok" for o in defects.values())
        declared = PER_LAYER
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(
            {"fields": ["id", "name", "start", "end", "parent", "op", "count", "error"],
             "spans": tracer.spans}))
        record["spans"] = spans_path.name
    else:
        tally = measure(w, ops, seconds=args.seconds, first=first)
        defects = probe_defects(w, args.seed)
        samples = [setup_sample] + [_probe_setup(args.workload, args.seed)
                                    for _ in range(SETUP_PROBES)]
        values = end_to_end(tally, args.workload, statistics.median(map(sum, samples)))
        q = quality(tally)
        declared = END_TO_END
        record["setup_samples_s"] = {"import": [s[0] for s in samples],
                                     "build": [s[1] for s in samples]}
        record["raw"] = timings(tally.times(calibrated=False), args.workload)
        t = typical_times(tally.times())
        if t:
            _, beyond = tail(t, TAIL_PERCENTILE[args.workload])
            record["tail"] = {"percentile": TAIL_PERCENTILE[args.workload],
                              "beyond": beyond, "successful": len(t)}

    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit, _ in declared}
    cal, raw = tally.times(), tally.times(calibrated=False)
    record["per_op"] = [{"label": op.label, "ms": [1e3 * t for t in cal.get(i, ())],
                         "raw_ms": [1e3 * t for t in raw.get(i, ())]}
                        for i, op in enumerate(ops)]
    refs = sorted(tally.refs)
    record["reference_ms"] = {"nominal": 1e3 * REF_SECONDS,
                              "p10": 1e3 * refs[len(refs) // 10],
                              "p50": 1e3 * statistics.median(refs),
                              "p90": 1e3 * refs[9 * len(refs) // 10]}
    record.update(passes=tally.passes, wall_s=tally.wall, quality=q,
                  failures=dict(tally.failures), known_defects=defects,
                  metrics=metrics)
    wrong = tally.wrong + sum(o.startswith("wrong") for o in defects.values())
    result = {"correct": wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"# mixvol benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    for k, v in record["stamp"].items():
        print(f"# {k}: {v}")
    print(f"# {tally.passes} passes of {len(ops)} ops in {tally.wall:.2f} s; "
          f"{tally.attempted} attempted, {tally.failed} failed")
    r = record["reference_ms"]
    print(f"# reference loop {r['p50']:.3f} ms median ({r['p10']:.3f} p10, "
          f"{r['p90']:.3f} p90); times are calibrated to {r['nominal']:.3f} ms")
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    units = {"failed_frac": "share", "fd_bi_tol_share_max": "share",
             "anneal_boundary_mean": "count", "artifact_bytes": "B"}
    for name, v in q.items():
        print(f"{name:42s} {v:.6g} {units[name]}")
    for cls, n in sorted(tally.failures.items()):
        print(f"# failure {cls}: {n}")
    for label, outcome in defects.items():
        print(f"# known-defect probe {label}: {outcome}")
    for name, v in record.get("raw", {}).items():
        print(f"# uncalibrated {name}: {v:.6g}")
    if "tail" in record:
        t = record["tail"]
        print(f"# op_tail_ms is p{t['percentile']}: {t['beyond']} of "
              f"{t['successful']} successful ops lie beyond it")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
