"""The benchmark's own tests: tiny-size smoke runs of every workload,
the must-fail checks, and the ledger arithmetic.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostclock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


MANIFEST = run.load_manifest()


def test_manifest_names_every_workload():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(run.WORKLOADS)


def test_figure_metrics_cover_the_registry():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.experiments.registry import runners

    figures = [m["name"][len("figures."):-len("_s")]
               for m in MANIFEST["per_layer"]
               if m["name"].startswith("figures.")
               and m["name"] != "figures.self_s"]
    assert figures == list(runners())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    result = result_of(bench("--workload", workload, "--seed", "3",
                             "--seconds", "1", "--trace", str(trace),
                             "--size", "tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"]
              for m in MANIFEST["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    assert set(metrics) == set(wanted)
    for name, unit in wanted.items():
        assert metrics[name]["unit"] == unit
        assert isinstance(metrics[name]["value"], (int, float))
    if trace:
        books = sum(metrics[f"{layer}.self_s"]["value"]
                    for layer in run.LAYERS)
        books += metrics["ledger.unattributed_s"]["value"]
        assert books == pytest.approx(
            metrics["ledger.traced_wall_s"]["value"], rel=1e-6)
        assert metrics["trace.dropped_spans"]["value"] == 0
    else:
        assert metrics["wall_s"]["value"] > 0
        assert metrics["setup_s"]["value"] > 0


@pytest.mark.parametrize("workload", ["fleet_replay", "service_stream"])
def test_perturbed_digest_counts_as_failure(workload):
    result = result_of(bench("--workload", workload, "--seconds", "1",
                             "--trace", "1", "--size", "tiny",
                             "--perturb-digest"))
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["metrics"]["error_rate"]["value"] > 0


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "spec_churn", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_uses_the_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(1, 2001))) == (1980, 99)
    assert run.tail(list(range(1, 101))) == (90, 90)
    assert run.tail([5.0]) == (5.0, 50)
    assert run.tail([]) == (0.0, 0)


def test_end_to_end_scales_each_pass_to_the_reference_speed():
    def one_pass(wall, speed, error=None):
        return {"setup_s": 0.5, "setup_speed": speed, "wall_s": wall,
                "speed": speed, "epochs": 100, "peak_rss_mb": 50.0,
                "ops": [{"op_id": "a", "latency_s": wall / 2, "error": None},
                        {"op_id": "b", "latency_s": wall / 2,
                         "error": error}]}

    # The same work in a slow, a fast and a middling spell of the host.
    passes = [one_pass(4.0, 0.5), one_pass(1.0, 2.0), one_pass(3.0, 1.0)]
    m = run.end_to_end(passes)
    assert m["wall_s"] == pytest.approx(2.0)
    assert m["setup_s"] == pytest.approx(0.5)
    assert m["epochs_per_s"] == pytest.approx(50.0)
    raised = [one_pass(4.0, 1.0, error="swap exhausted")] * 3
    # Time spent in a raised operation counts in the wall, not the rate.
    assert run.end_to_end(raised)["wall_s"] == pytest.approx(4.0)
    assert run.end_to_end(raised)["epochs_per_s"] == pytest.approx(50.0)
    nothing = [dict(p, ops=[dict(op, error="boom") for op in p["ops"]])
               for p in raised]
    assert run.end_to_end(nothing) is None


def test_speed_is_the_reference_over_the_mean_slice(monkeypatch):
    slices = [(1.0, 0.001), (2.0, 0.003), (5.0, 0.010)]
    monkeypatch.setattr(hostclock, "_slices", slices)
    ref = hostclock.REFERENCE_SLICE_S
    assert hostclock.speed(0.0, 3.0) == pytest.approx(ref / 0.002)
    assert hostclock.speed(4.0, 9.0) == pytest.approx(ref / 0.010)
    assert hostclock.speed(3.0, 4.0) is None


def test_operations_count_once_however_many_passes_ran():
    short, longer = (result_of(bench("--workload", "spec_churn", "--seed",
                                     "3", "--seconds", seconds, "--trace",
                                     "0", "--size", "tiny"))
                     for seconds in ("1", "6"))
    assert short["attempted"] == longer["attempted"] > 0


def test_ledger_self_times_close_the_books():
    root = ["a.run", 0, 100, None]
    child = ["b.call", 10, 40, root]
    grandchild = ["c.leaf", 20, 25, child]
    later = ["b.call", 120, 130, None]
    ledger = tracing.ledger([root, child, grandchild, later], 0, 200)
    assert ledger["self.a"] == pytest.approx(70e-9)
    assert ledger["self.b"] == pytest.approx(35e-9)
    assert ledger["self.c"] == pytest.approx(5e-9)
    assert ledger["unattributed_s"] == pytest.approx(90e-9)
    assert ledger["calls.b.call"] == 2
    assert ledger["closes"] == 1 and ledger["dropped"] == 0


def test_ledger_catches_time_counted_twice():
    first = ["a.run", 0, 100, None]
    overlapping = ["a.run", 90, 150, None]
    ledger = tracing.ledger([first, overlapping], 0, 200)
    # The roots cover 150 ns of the window; their self times sum to 160.
    assert ledger["unattributed_s"] == pytest.approx(50e-9)
    assert ledger["closes"] == 0


def test_ledger_self_time_subtracts_the_union_of_children():
    root = ["a.run", 0, 100, None]
    spans = [root, ["b.call", 10, 50, root], ["b.call", 30, 60, root]]
    ledger = tracing.ledger(spans, 0, 100)
    assert ledger["self.a"] == pytest.approx(50e-9)
    assert ledger["closes"] == 0  # the children overlap each other


def test_ledger_reports_spans_cut_by_the_window():
    spans = [["a.run", 0, 100, None], ["a.run", 150, 250, None],
             ["a.run", 320, 400, None], ["a.run", 330, 0, None],
             ["a.run", 400, 500, None]]
    ledger = tracing.ledger(spans, 50, 350)
    assert ledger["dropped"] == 3  # cut at each edge, and never ended
    assert ledger["spans"] == 1


def test_a_traced_pass_whose_books_do_not_close_is_a_problem():
    books = {"self.os": 1.0, "unattributed_s": 0.5, "wall_s": 1.5,
             "closes": 1.0, "dropped": 0}
    result = {"wall_s": 1.5, "ledger": books,
              "setup_ledger": dict(books)}
    assert run.ledger_problems(result) == []
    result["ledger"] = dict(books, closes=0.0)
    result["setup_ledger"] = dict(books, dropped=2)
    assert len(run.ledger_problems(result)) == 2


def test_every_span_belongs_to_a_ledger_layer():
    for _module, _path, name, _count in tracing.TARGETS:
        if isinstance(name, str):
            assert name.split(".", 1)[0] in tracing.LAYERS, name
