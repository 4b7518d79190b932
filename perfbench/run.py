"""The repository benchmark: one workload, measured for a fixed time.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run first computes the workload's reference outputs (in a child
process, outside every timed region), then starts one fresh interpreter
per measured pass (``child.py``) until ``--seconds`` are used up, checks
every pass's outputs against the reference, and prints one JSON object
as the last line of standard output.  ``--trace 0`` reports the
end-to-end metrics (medians over untraced passes, scaled to a reference
CPU speed, see ``hostclock.py``); ``--trace 1``
alternates untraced and traced passes and reports the per-layer ledger
(see README.md).  Metric names, units and the run length come from
``BENCHMARK.json``.  The orchestrator itself never imports the program.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

# Only the standard library runs at import time here: the benchmark's
# modules import the program lazily, inside the child processes.
from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: The benchmark's definition: workloads, metric names, units, bounds.
MANIFEST_PATH = os.path.join(ROOT, "BENCHMARK.json")


def load_manifest() -> dict:
    with open(MANIFEST_PATH) as handle:
        return json.load(handle)


# --- passes ----------------------------------------------------------------------


def spawn(config: dict, timeout_s: float = 170.0) -> Optional[dict]:
    """Run ``child.py`` with *config*; its JSON result, or None on failure."""
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    out = os.path.join(ROOT, ".perfbench", f"child-{os.getpid()}.json")
    if os.path.exists(out):
        os.remove(out)
    config = dict(config, out=out, spawn_ns=time.monotonic_ns())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # A process group of its own, so a hung pass is killed together with any
    # server process it started.
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(config)],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        status = process.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        print(f"perfbench: {config['mode']} pass timed out", file=sys.stderr)
        return None
    if status != 0 or not os.path.exists(out):
        print(f"perfbench: {config['mode']} pass exited {status}",
              file=sys.stderr)
        return None
    with open(out) as handle:
        result = json.load(handle)
    os.remove(out)
    return result


def judge(result: dict, reference: Dict[str, object]) -> List[dict]:
    """Mark each op failed/ok against *reference*; returns the ops.

    A reference key naming one of the pass's operations fails that
    operation on a mismatch; any other key is one check operation.
    """
    ops = [dict(op) for op in result["ops"]]
    by_id = {op["op_id"]: op for op in ops}
    checks = result.get("checks", {})
    for key, expected in reference.items():
        ok = key in checks and checks[key] == expected
        op = by_id.get(key)
        if op is None:
            op = {"op_id": key, "kind": "check", "latency_s": 0.0,
                  "error": None}
            ops.append(op)
        if not ok and op["error"] is None:
            op["error"] = "output differs from the reference path"
            op["mismatch"] = True
    return ops


def tail(values: List[float], percentile: int = 99) -> Tuple[float, int]:
    """(value, percentile) at the highest percentile up to *percentile*
    that has at least ten samples beyond it (nearest rank)."""
    if not values:
        return 0.0, 0
    ordered = sorted(values)
    n = len(ordered)
    for p in (percentile, 98, 95, 90, 75, 50):
        rank = max(1, -(-p * n // 100))
        if n - rank >= 10 or p == 50:
            return ordered[rank - 1], p
    raise AssertionError("unreachable")


def end_to_end(passes: List[dict]) -> Optional[Dict[str, float]]:
    """The end-to-end metrics over a run's untraced passes: medians over
    the passes, each pass's times scaled to the reference CPU speed by
    the calibration slices it ran (``hostclock``).

    ``epochs_per_s`` divides a pass's simulated epochs by its wall less
    the operations that raised (a raised operation adds no epochs);
    None when every operation raised in every pass.
    """
    walls, setups, rates = [], [], []
    for p in passes:
        raised = sum(op["latency_s"] for op in p["ops"]
                     if op["error"] is not None and not op.get("mismatch"))
        completed = (p["wall_s"] - raised) * p["speed"]
        walls.append(p["wall_s"] * p["speed"])
        setups.append(p["setup_s"] * p["setup_speed"])
        if completed > 0:
            rates.append(p["epochs"] / completed)
    if not rates:
        return None
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "epochs_per_s": statistics.median(rates),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer(names: List[str], untraced: List[dict], traced: List[dict],
              attempted: int, failed: int) -> Dict[str, float]:
    """The traced ledger (means over traced passes) plus the service's
    client-side latencies (from untraced passes).  *names* are the
    manifest's per-layer metrics; the service ops and experiments are
    read off them."""
    def led(key: str) -> float:
        return _mean([p["ledger"].get(key, 0.0) for p in traced])

    def count(key: str) -> float:
        return _mean([p["counters"].get(key, 0.0) for p in traced])

    def setup(key: str) -> float:
        return _mean([p["setup_ledger"].get(key, 0.0) for p in traced])

    m: Dict[str, float] = {f"{layer}.self_s": led(f"self.{layer}")
                           for layer in LAYERS}
    m.update({
        "kernel.epochs_stepped": count("kernel.epochs_stepped"),
        "kernel.epochs_fast_forwarded": count("kernel.epochs_fast_forwarded"),
        "kernel.epochs_batched": count("kernel.epochs_batched"),
        "kernel.ff_windows": count("kernel.windows"),
        "kernel.stable_spans": count("kernel.spans_stable"),
        "kernel.samples_retained": count("kernel.samples_retained"),
        "soa.emit_s": led("self.soa.emit"),
        "soa.samples_emitted": count("soa.samples_emitted"),
        "plan.horizon_s": led("self.plan"),
        "plan.horizon_calls": led("plan.attempts"),
        "workloads.apply_s": led("self.workloads.apply"),
        "workloads.apply_calls": led("calls.workloads.apply"),
        "workloads.generate_s": (led("self.workloads.generate")
                                 + setup("self.workloads.generate")),
        "os.alloc_s": led("self.os.alloc"),
        "os.alloc_calls": led("calls.os.alloc"),
        "os.alloc_pages": count("os.alloc_pages"),
        "os.free_s": led("self.os.free"),
        "os.free_calls": led("calls.os.free"),
        "os.swap_s": led("self.os.swap"),
        "os.migrate_s": led("self.os.migrate"),
        "os.migrate_calls": led("calls.os.migrate"),
        "hotplug.offline_s": led("self.hotplug.offline"),
        "hotplug.online_s": led("self.hotplug.online"),
        "policy.step_s": led("self.policy.step"),
        "policy.steps": led("calls.policy.step"),
        "power.eval_s": led("self.power"),
        "power.calls": count("power.calls"),
        "snapshot.capture_s": led("self.snapshot.capture"),
        "snapshot.restore_s": led("self.snapshot.restore"),
        "ksm.step_s": led("self.ksm.step"),
        "memctrl.run_s": led("self.memctrl.run"),
        "memctrl.requests": count("memctrl.requests"),
        "ledger.traced_wall_s": led("wall_s"),
        "ledger.unattributed_s": led("unattributed_s"),
        "trace.spans": led("spans"),
        "trace.dropped_spans": sum(p[window]["dropped"] for p in traced
                                   for window in ("ledger", "setup_ledger")),
    })
    attempts = m["plan.horizon_calls"]
    m["plan.useful_ratio"] = ((m["kernel.ff_windows"]
                               + m["kernel.stable_spans"]) / attempts
                              if attempts else 0.0)
    offlines = count("hotplug.offlines")
    busy = count("hotplug.offline_busy")
    m["hotplug.offline_success_ratio"] = (offlines / (offlines + busy)
                                          if offlines + busy else 0.0)
    calls = m["power.calls"]
    m["power.cache_hit_rate"] = (count("power.cache_hits") / calls
                                 if calls else 0.0)
    captures = count("snapshot.captures")
    m["snapshot.bytes"] = (count("snapshot.bytes") / captures
                           if captures else 0.0)
    prefix = "service.call_s."
    for op in [n[len(prefix):] for n in names if n.startswith(prefix)]:
        call_s = led(f"incl.service.call.{op}")
        client_s = _mean([sum(o["latency_s"] for o in p["ops"]
                              if o["kind"] == op) for p in traced])
        m[f"service.call_s.{op}"] = call_s
        m[f"http.self_s.{op}"] = client_s - call_s if client_s else 0.0
    for name in names:
        if name.startswith("figures.") and name != "figures.self_s":
            m[name] = led("incl." + name[:-len("_s")])

    def latencies(*kinds: str) -> List[float]:
        return [o["latency_s"] * 1e3 for p in untraced for o in p["ops"]
                if o["kind"] in kinds and o["error"] is None]

    advance = latencies("advance")
    control = latencies("ingest", "status", "server")
    m["advance_p50_ms"] = tail(advance, 50)[0]
    m["advance_p99_ms"], m["advance.tail_pct"] = tail(advance)
    m["advance.samples"] = len(advance)
    m["control_p99_ms"], m["control.tail_pct"] = tail(control)
    m["control.samples"] = len(control)
    m["snapshot_p50_ms"] = tail(latencies("snapshot"), 50)[0]
    m["restore_p50_ms"] = tail(latencies("restore"), 50)[0]
    sizes = [b for p in untraced for b in p["extra"].get("snapshot_bytes", [])]
    m["snapshot_bytes"] = statistics.median(sizes) if sizes else 0.0
    m["error_rate"] = failed / attempted
    m["trace.overhead_s"] = (_mean([p["wall_s"] for p in traced])
                             - _mean([p["wall_s"] for p in untraced]))
    return m


def ledger_problems(result: dict) -> List[str]:
    """Why a traced pass's books do not close (empty when they do).

    The ledger computes its unattributed time on its own, as the part of
    the window no root span covers, so the layer self times plus that
    remainder equal the traced wall only when no time is counted twice.
    Spans cut by a window edge are left out of the books and reported.
    """
    problems = []
    for window in ("ledger", "setup_ledger"):
        books = result[window]
        layers = sum(books.get(f"self.{layer}", 0.0) for layer in LAYERS)
        total = layers + books["unattributed_s"]
        if not books["closes"] or abs(total - books["wall_s"]) > 1e-6:
            problems.append(f"{window}: self times plus unattributed "
                            f"{total:.9f} s != wall {books['wall_s']:.9f} s")
        if books["dropped"]:
            problems.append(f"{window}: {books['dropped']:.0f} spans cut "
                            f"by the window edges")
    if abs(result["ledger"]["wall_s"] - result["wall_s"]) > 1e-6:
        problems.append("ledger window differs from the pass's wall")
    return problems


def measure(args: argparse.Namespace) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no program sources (src/repro) next to the "
              "benchmark", file=sys.stderr)
        return 2
    base = {"workload": args.workload, "seed": args.seed, "size": args.size}
    reference: Dict[str, object] = {}
    if WORKLOADS[args.workload].HAS_REFERENCE:
        ref = spawn(dict(base, mode="reference", trace=0))
        if ref is None:
            print("perfbench: the reference run failed", file=sys.stderr)
            return 1
        reference = ref["reference"]
        if args.perturb_digest:
            reference = {key: f"perturbed:{value}"
                         for key, value in reference.items()}

    untraced: List[dict] = []
    traced: List[dict] = []
    # Every pass repeats the same operations on the same inputs, so an
    # operation counts once however many passes ran it, and fails if it
    # failed in any of them: attempted and failed depend on the seed,
    # not on how many passes fitted in the run.
    failures: Dict[str, bool] = {}
    correct = True
    min_untraced = 3 if not args.trace else 1
    started = time.monotonic()
    last = 0.0
    crashed = 0
    while True:
        elapsed = time.monotonic() - started
        enough = (len(untraced) >= min_untraced
                  and (not args.trace or len(traced) >= 1))
        if enough and elapsed + last > args.seconds:
            break
        if elapsed > 150.0:
            break
        trace_this = bool(args.trace) and len(traced) < len(untraced)
        t0 = time.monotonic()
        result = spawn(dict(base, mode="pass", trace=int(trace_this)))
        last = time.monotonic() - t0
        if result is None:
            crashed += 1
            failures[f"pass{crashed}"] = True
            if not untraced and crashed >= 3:
                break
            continue
        ops = judge(result, reference)
        result["ops"] = ops
        for op in ops:
            failures[op["op_id"]] = (failures.get(op["op_id"], False)
                                     or op["error"] is not None)
        if any(op.get("mismatch") for op in ops):
            correct = False
        if trace_this:
            problems = ledger_problems(result)
            for problem in problems:
                print(f"perfbench: traced ledger: {problem}", file=sys.stderr)
            failures["ledger"] = (failures.get("ledger", False)
                                  or bool(problems))
            correct = correct and not problems
            traced.append(result)
        else:
            untraced.append(result)
    attempted = len(failures)
    failed = sum(failures.values())
    if not untraced or (args.trace and not traced):
        print("perfbench: no pass completed", file=sys.stderr)
        return 1

    metrics = args.manifest["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in metrics}
    if args.trace:
        values = per_layer(list(units), untraced, traced, attempted, failed)
    else:
        values = end_to_end(untraced)
    if values is None:
        print("perfbench: every operation failed", file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"{args.workload:14s} {name:34s} {values[name]:>16.6g} {unit}")
    print(f"{args.workload:14s} {'passes':34s} {len(untraced):>16d} "
          f"untraced, {len(traced)} traced; {failed}/{attempted} ops failed")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's "
                             "DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the benchmark's own tests")
    parser.add_argument("--perturb-digest", action="store_true",
                        help="corrupt the reference outputs (must-fail check)")
    args = parser.parse_args(argv)
    if args.workload is None:
        parser.error("--workload is required")
    args.manifest = load_manifest()
    if args.seconds is None:
        args.seconds = args.manifest["run_seconds"]
    if args.seed is None:
        args.seed = WORKLOADS[args.workload].DEFAULT_SEED
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
