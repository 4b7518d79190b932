"""One benchmark pass (or reference run) in a fresh interpreter.

Usage: ``python3 perfbench/child.py CONFIG_JSON``; the config names the
workload, seed, size, mode (``pass`` or ``reference``), whether to
trace, the orchestrator's spawn time (``time.monotonic_ns``) and the
file to write the result to.  The orchestrator (``run.py``) starts one
of these per measured repetition, so memoized results, process-global
counters and the memory high-water mark never carry from one pass into
the next.  Each pass runs on one CPU; an untraced pass samples that
CPU's speed while it runs (``hostclock``).
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import hostclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def main(config: dict) -> dict:
    hostclock.pin()
    recorder = None
    if config["trace"]:
        recorder = tracing.Recorder()
        tracing.install(recorder)
    elif config["mode"] == "pass":
        hostclock.start()
    workload = workloads.WORKLOADS[config["workload"]](
        config["seed"], config["size"], traced=bool(config["trace"]))
    setup_start = time.perf_counter_ns()
    workload.prepare()
    if config["mode"] == "reference":
        return {"reference": workload.reference()}
    try:
        workload.start()
        start = time.perf_counter_ns()
        setup_s = ((time.monotonic_ns() - config["spawn_ns"]) / 1e9
                   - hostclock.spent())
        setup_slices = hostclock.spent()
        result = workload.run()
        end = time.perf_counter_ns()
        run_slices = hostclock.spent() - setup_slices
        result.peak_rss_mb = workload.peak_rss_mb()
    finally:
        hostclock.stop()
        workload.stop()
    out = dataclasses.asdict(result)
    out["setup_s"] = setup_s
    out["wall_s"] = (end - start) / 1e9 - run_slices
    # Untraced passes are scaled to the reference CPU speed (see
    # hostclock); a window too short to hold a slice takes the pass's.
    out["speed"] = (hostclock.speed(start / 1e9, end / 1e9)
                    or hostclock.speed(0.0, end / 1e9) or 1.0)
    out["setup_speed"] = hostclock.speed(0.0, start / 1e9) or out["speed"]
    if recorder is not None:
        spans, counters = workload.traced_spans(recorder)
        out["ledger"] = tracing.ledger(spans, start, end)
        out["setup_ledger"] = tracing.ledger(spans, setup_start, start)
        out["counters"] = counters
        tracing.dump(spans, counters, os.path.join(
            ROOT, ".perfbench", f"spans-{config['workload']}.jsonl"))
    return out


if __name__ == "__main__":
    cfg = json.loads(sys.argv[1])
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    payload = main(cfg)
    with open(cfg["out"], "w") as handle:
        json.dump(payload, handle)
