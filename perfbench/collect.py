#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/collect.py --seeds 1-10 --seconds 25 --out .bench_out/seeds.json
    python3 perfbench/collect.py --workloads lattice-anneal --seeds 11 --trace 1

Each (workload, seed) runs as its own `run.py` process, one after another.
For every metric the summary gives the median, the quartiles from
`statistics.quantiles(values, n=4)`, and the spread (Q3 - Q1) / median.
`--out` writes the summary with every run's result line and record as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import OUT, WORKLOADS  # noqa: E402


def seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    r = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", str(trace)],
                       cwd=ROOT, capture_output=True, text=True, timeout=900)
    if r.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {r.returncode}\n{r.stderr}")
    result = json.loads(r.stdout.strip().splitlines()[-1])
    record = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"seed": seed, "result": result, "record": record}


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None, "values": values}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    report = {}
    for workload in args.workloads.split(","):
        runs = [run_one(workload, s, args.seconds, args.trace) for s in seeds(args.seeds)]
        summary = summarize(runs)
        report[workload] = {"summary": summary, "runs": runs}
        print(f"{workload}: seeds {args.seeds}, "
              f"failed {sum(r['result']['failed'] for r in runs)}"
              f"/{sum(r['result']['attempted'] for r in runs)}")
        for name, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:42s} median {s['median']:<12.6g} spread {spread}")
        sys.stdout.flush()
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
