"""Tests of the benchmark itself (not of mixvol):

    python3 -m pytest -q perfbench

Tiny versions of every workload run end to end; the printed metric names
must match BENCHMARK.json; planted wrong outputs must count as failures; the
known-defect probe stays outside the counts but not outside the correctness
check.
"""

import functools
import json

import pytest

import run

run.load_mixvol()

import tracing  # noqa: E402
import workloads  # noqa: E402
from mixvol import cli, mixedvol  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name, tmp_path, seed=3):
    w, ops, *_ = run.setup(name, seed, tmp_path, tiny=True)
    return w, ops


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_pass_of_each_workload(name, tmp_path):
    w, ops = tiny(name, tmp_path)
    tally = run.measure(w, ops, passes=2)
    assert tally.attempted == 2 * len(ops)
    assert tally.wrong == 0, tally.failures
    assert tally.times()
    exceptions = [c for c in tally.failures if not c.startswith("oracle:")]
    assert sum(tally.failures[c] for c in exceptions) == tally.failed


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_printed_metrics_match_benchmark_json(name, trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "setup", functools.partial(run.setup, tiny=True))
    assert run.main(["--workload", name, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert result["attempted"] >= 1 and result["correct"]


def test_declared_metrics_are_the_harness_metrics():
    for key, ours in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[key]] == \
            [tuple(m) for m in ours]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_planted_wrong_volume_is_a_failure(tmp_path, monkeypatch):
    w, ops = tiny("dilate-convex", tmp_path)
    real = mixedvol.sum_volume
    monkeypatch.setattr(mixedvol, "sum_volume", lambda M, N, e: real(M, N, e) + 0.05)
    tally = run.measure(w, ops, passes=1)
    # the 256-gon's closed-form tolerance is below 0.01; the octagon's is not
    assert tally.failures["oracle:plus_disc_closed_form"] == 1
    assert tally.wrong > 0 and tally.failed == tally.wrong


def test_planted_artifact_byte_is_a_failure(tmp_path, monkeypatch):
    w, ops = tiny("cli-pipeline", tmp_path)
    first = run.measure(w, ops, passes=1)
    assert first.failed == 0
    real = cli.write_json
    monkeypatch.setattr(cli, "write_json",
                        lambda path, value: (real(path, value), open(path, "a").write(" ")))
    again = run.measure(w, ops, passes=1)
    assert again.failures["oracle:artifact_bytes"] == len(ops)
    assert again.wrong == len(ops)


def test_known_defects_are_probed_outside_the_counts(tmp_path, monkeypatch, capsys):
    w, ops = tiny("dilate-nonconvex", tmp_path)
    assert run.measure(w, ops, passes=1).failed == 0
    outcome = run.probe_defects(w, 3)
    assert set(outcome) == {f"regular{k}+seg2" for k in w.DEFECT_SPIKES}
    assert not any(o.startswith("wrong") for o in outcome.values())
    # a probe that stops raising but returns a wrong result makes the run incorrect
    monkeypatch.setattr(w, "run", lambda op: {"fd": 1.0, "fd_error": 0.0, "bi": 2.0,
                                              "epsilons": (), "quotients": (),
                                              "area": 1.0})
    assert set(run.probe_defects(w, 3).values()) == {"wrong: oracle:fd_bi_agreement"}
    monkeypatch.setattr(run, "setup", functools.partial(run.setup, tiny=True))
    monkeypatch.setattr(run, "probe_defects", lambda w, seed: {"x": "wrong: planted"})
    assert run.main(["--workload", "dilate-nonconvex", "--seed", "5", "--seconds", "0",
                     "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["failed"] == 0 and not result["correct"]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, "bench.op", 0.0, 10.0, None, 0, 0, None),
        (2, "cli.pool", 1.0, 9.0, 1, 0, 0, None),
        (3, "mixedvol.sum_volume", 2.0, 6.0, 2, 0, 0, None),
        (4, "mixedvol.sum_volume", 4.0, 8.0, 2, 0, 0, None),   # overlaps 3
    ]
    own = tracing.self_times(spans)
    assert own == {1: 2.0, 2: 2.0, 3: 4.0, 4: 4.0}


def test_failure_layer_is_where_the_exception_started():
    spans = [
        (3, "geom2d.validate", 1.0, 2.0, 2, 7, 0, "ValueError"),
        (2, "geom2d.minkowski", 0.5, 2.5, 1, 7, 0, "ValueError"),
        (1, "bench.op", 0.0, 3.0, None, 7, 0, "ValueError"),
    ]
    assert tracing.failure_layers(spans) == {7: "geom2d"}


def test_tail_percentile_counts_what_lies_beyond():
    times = list(range(1, 101))
    assert run.tail(times, 90) == (90, 10)
    assert run.tail(times, 50) == (50, 50)


def test_oracles_agree_with_known_values():
    assert workloads.z2_edge_minimum(36) == 24
    assert workloads.z2_edge_minimum(37) == 26
    square = [(x, y) for x in range(3) for y in range(3)]
    assert workloads.independent_boundary(square, [(1, 0), (0, 1), (-1, 0), (0, -1)],
                                          "edge") == 12
    assert workloads.closed_form_plus_dilation(1e-9) == pytest.approx(3.141592653589793)
