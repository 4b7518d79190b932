"""The four benchmark workloads, run inside one fresh interpreter each.

Every workload makes its inputs from the seed it is given (traces, call
schedules, profile orders) and hands only those inputs to the program.
Each has a ``prepare`` step (set-up: input generation and anything else
before the first measured epoch or request), a ``run`` step (the
measured region), and, where the program has one, a ``reference`` step
that computes the same outputs on the reference path for the
correctness check.

One *operation* is one simulation run (``spec_churn``; in
``fleet_replay`` one server of a fleet), one HTTP request or one end-of-run energy check
(``service_stream``), or one figure check (``figure_suite``).

The program is imported inside the methods, so the orchestrator
(``run.py``) reads these definitions without importing it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import resource
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import hostclock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


@dataclass
class Op:
    """One operation's outcome: its id, kind, latency and any error."""

    op_id: str
    kind: str
    latency_s: float
    error: Optional[str] = None


@dataclass
class PassResult:
    """What one measured pass reports to the orchestrator."""

    ops: List[Op] = field(default_factory=list)
    epochs: int = 0
    peak_rss_mb: float = 0.0
    #: Outputs to compare with the reference path, by check id.  An id
    #: that names an operation fails that operation on a mismatch; any
    #: other id is one check operation of its own.
    checks: Dict[str, object] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)


def _guarded(op_id: str, kind: str, fn) -> Tuple[Op, object]:
    """Run *fn* as one operation; an exception fails only this op.  Its
    latency leaves out the calibration slices that ran during it."""
    t0 = hostclock.clock()
    try:
        value = fn()
    except Exception as err:  # noqa: BLE001 - counted, not fatal
        return Op(op_id, kind, hostclock.clock() - t0,
                  error=f"{type(err).__name__}: {err}"), None
    return Op(op_id, kind, hostclock.clock() - t0), value


class Workload:
    """What every workload shares; subclasses define the inputs and runs.

    ``prepare`` makes the inputs (set-up), ``start`` brings up anything
    the measured region talks to, ``run`` is the measured region, and
    ``reference`` returns the reference path's outputs keyed like
    ``PassResult.checks``.
    """

    #: The seed used when ``--seed`` is not given.
    DEFAULT_SEED = 1
    #: Input sizes: ``full`` for measuring, ``tiny`` for the smoke tests.
    SIZES: Dict[str, object] = {}
    #: Whether ``reference`` computes anything (the orchestrator skips
    #: the reference child otherwise).
    HAS_REFERENCE = True

    def __init__(self, seed: int, size: str, traced: bool = False):
        self.seed = seed
        self.params = self.SIZES[size]
        self.traced = traced

    def prepare(self) -> None:
        raise NotImplementedError

    def start(self) -> None:
        pass

    def run(self) -> PassResult:
        raise NotImplementedError

    def stop(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        """High-water resident memory of the simulating process, MiB."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def traced_spans(self, recorder) -> Tuple[List[list], Dict[str, float]]:
        """Every span and counter of the pass, across its processes."""
        return recorder.spans, dict(recorder.counters)

    def reference(self) -> Dict[str, object]:
        return {}


class BatchWorkload(Workload):
    """A list of simulation runs, checked against the per-epoch path."""

    def _ops(self, out: PassResult) -> None:
        raise NotImplementedError

    def run(self) -> PassResult:
        out = PassResult()
        self._ops(out)
        return out

    def reference(self) -> Dict[str, object]:
        from repro.sim.kernel import fast_forward_scope

        out = PassResult()
        with fast_forward_scope(False):
            self._ops(out)
        return out.checks


# --- fleet_replay --------------------------------------------------------------


class FleetReplay(BatchWorkload):
    """Serial fleet replays of several multi-day sharded Azure-like traces.

    Why: most 5 s epochs of a VM trace are quiescent, so kernel replay
    and sample retention dominate; allocator work comes in a few large
    bursts (VM arrival, departure, block migration).

    Settings: four 16 GiB servers per fleet, 96 simulated hours, and
    otherwise the ``repro fleet``/``repro serve`` defaults (5 s epochs,
    pinned churn off, fast path on).  A pass replays three fleets, whose
    traces come from the seed.  The work per epoch varies with the
    trace, so the metrics spread about 10% across seeds (IQR over
    median), against 3% for repeated passes of one seed; more or shorter
    fleets per pass did not narrow that.  Each server of a fleet is one
    operation: ``run_fleet_server`` over ``FleetSource.jobs()``, which is
    what ``run_fleet(source, workers=1)`` runs, one job after another.
    The Azure-like generator admits VMs against the fleet's total
    capacity and the shards deal them round-robin, so on some seeds one
    server gets more than its RAM plus swap and raises "swap exhausted"
    (about a quarter of 96 h fleets).  That is a defect of the program,
    not of the input: such a server counts as one failed operation, and
    ``epochs_per_s`` is taken over the servers that completed.
    """

    SIZES = {"full": {"fleets": 3, "servers": 4, "hours": 96.0},
             "tiny": {"fleets": 1, "servers": 2, "hours": 6.0}}

    def prepare(self) -> None:
        from repro.sim.fleet import FleetSource

        p = self.params
        self.jobs = [
            (k, job)
            for k in range(p["fleets"])
            for job in FleetSource(num_servers=p["servers"],
                                   duration_s=p["hours"] * 3600.0,
                                   seed=self.seed * 100 + k).jobs()]

    @staticmethod
    def _digest(s) -> str:
        return _digest([s.index, s.dram_energy_j.hex(),
                        s.baseline_dram_energy_j.hex(),
                        s.mean_offline_blocks.hex(), s.max_offline_blocks,
                        s.mean_dpd_fraction.hex(), s.emergency_onlines,
                        s.epochs, s.vm_events])

    def _ops(self, out: PassResult) -> None:
        from repro.sim.fleet import run_fleet_server

        for k, job in self.jobs:
            op, server = _guarded(f"fleet{k}.server{job.index}", "server",
                                  lambda: run_fleet_server(job))
            if server is not None:
                out.checks[op.op_id] = self._digest(server)
                out.epochs += server.epochs
            out.ops.append(op)


# --- spec_churn ----------------------------------------------------------------


class SpecChurn(BatchWorkload):
    """The Figure 9-11 daemon path: every evaluation profile alone and
    every adjacent pair co-located, on fresh default spec servers.

    Why: footprint ramps and pinned-page churn make ``os`` serve tens of
    thousands of small allocations and frees and make the daemon and
    hot-plug act every monitor period; replay does comparatively little.
    Paper defaults: 1 s epochs, 30 s warmup, pinned churn on.  The seed
    picks each sweep's profile order (and so the pairs) and the server
    seeds.
    """

    SIZES = {"full": {"sweeps": 4, "profiles": None},
             "tiny": {"sweeps": 1, "profiles": 3}}

    def prepare(self) -> None:
        from repro.workloads.registry import EVALUATION_SET, profile_by_name

        self.jobs = []
        for sweep in range(self.params["sweeps"]):
            base = self.seed * 100 + sweep
            names = random.Random(base).sample(EVALUATION_SET,
                                               len(EVALUATION_SET))
            names = names[:self.params["profiles"] or len(names)]
            for i, name in enumerate(names):
                self.jobs.append((f"s{sweep}.{name}", base * 100 + i,
                                  [profile_by_name(name)]))
            for i, pair in enumerate(zip(names, names[1:])):
                self.jobs.append((f"s{sweep}.{pair[0]}+{pair[1]}",
                                  base * 100 + 50 + i,
                                  [profile_by_name(n) for n in pair]))

    @staticmethod
    def _one(system_seed: int, profiles) -> Tuple[str, int]:
        from repro.core.system import GreenDIMMSystem
        from repro.sim.server import ServerSimulator

        simulator = ServerSimulator(GreenDIMMSystem(seed=system_seed),
                                    seed=system_seed)
        if len(profiles) == 1:
            r = simulator.run_workload(profiles[0])
            payload = [r.dram_energy_j.hex(), r.baseline_dram_energy_j.hex(),
                       r.overhead_fraction.hex(), len(r.samples),
                       r.offline_events, r.online_events, r.ebusy_failures,
                       r.eagain_failures, r.swap_shortfall_pages]
        else:
            r = simulator.run_mix(profiles)
            payload = [r.dram_energy_j.hex(), r.baseline_dram_energy_j.hex(),
                       r.swap_stall_s.hex(), len(r.samples),
                       r.offline_events, r.online_events,
                       sorted((k, v.hex())
                              for k, v in r.overhead_by_profile.items())]
        return _digest(payload), len(r.samples)

    def _ops(self, out: PassResult) -> None:
        for op_id, system_seed, profiles in self.jobs:
            kind = "alone" if len(profiles) == 1 else "mix"
            op, value = _guarded(op_id, kind,
                                 lambda: self._one(system_seed, profiles))
            if value is not None:
                out.checks[op.op_id], epochs = value
                out.epochs += epochs
            out.ops.append(op)



# --- service_stream ------------------------------------------------------------


class ServiceStream(Workload):
    """``repro serve`` in a child process, driven over HTTP in a closed loop.

    Why: the only workload with HTTP, ``exact=True`` bounded kernel
    slices, snapshot and restore, and writes (ingest, restore) next to
    reads (status).  One client, one connection at a time, waits for
    each reply: every tick it ingests the arrivals due (the batch
    fleet's own trace: same generator, same capacity), advances the
    fleet clock, and reads ``status`` and one server; every few ticks it
    snapshots and restores one server.  Served with the ``repro serve``
    defaults (four servers, two worker shards, 5 s epochs), for 32
    simulated hours: shorter streams vary more in work from seed to
    seed.  The stream is not shaped to avoid a server running out of
    swap: a refused or failed request counts as a failure.
    """

    SIZES = {"full": {"servers": 4, "hours": 32.0, "tick_s": 300.0,
                      "snapshot_every": 8},
             "tiny": {"servers": 2, "hours": 1.0, "tick_s": 300.0,
                      "snapshot_every": 4}}
    EPOCH_S = 5.0
    #: Where a traced server writes its spans when it shuts down.
    SPANS_PATH = os.path.join(ROOT, ".perfbench", "server-spans.jsonl")

    def __init__(self, seed: int, size: str, traced: bool = False):
        super().__init__(seed, size, traced)
        self.process: Optional[subprocess.Popen] = None

    # --- inputs -------------------------------------------------------------

    def schedule(self) -> List[Tuple[str, object]]:
        """The client's whole call sequence, derived from the seed."""
        from repro.sim.fleet import FleetSource

        p = self.params
        duration = p["hours"] * 3600.0
        trace = FleetSource(num_servers=p["servers"], duration_s=duration,
                            seed=self.seed).trace
        arrivals = sorted((e for e in trace.events if e.kind == "arrive"),
                          key=lambda e: (e.time_s, e.instance.vm_id))
        calls: List[Tuple[str, object]] = []
        cursor = 0
        ticks = int(round(duration / p["tick_s"]))
        for k in range(1, ticks + 1):
            until = k * p["tick_s"]
            while cursor < len(arrivals) and arrivals[cursor].time_s < until:
                vm = arrivals[cursor].instance
                calls.append(("ingest", {
                    "vm_id": vm.vm_id,
                    "memory_bytes": vm.vm_type.memory_bytes,
                    "time_s": arrivals[cursor].time_s,
                    "lifetime_s": vm.departure_s - vm.arrival_s,
                    "vcpus": vm.vm_type.vcpus,
                    "image_id": vm.vm_type.image_id}))
                cursor += 1
            calls.append(("advance", until))
            calls.append(("status", None))
            calls.append(("server", k % p["servers"]))
            if k % p["snapshot_every"] == 0:
                index = (k // p["snapshot_every"]) % p["servers"]
                calls.append(("snapshot", index))
                calls.append(("restore", index))
        return calls

    def prepare(self) -> None:
        self.calls = self.schedule()

    def _server_argv(self) -> List[str]:
        serve = ["serve", "--servers", str(self.params["servers"]),
                 "--port", "0", "--seed", str(self.seed)]
        if self.traced:
            return [sys.executable, os.path.join(HERE, "servehost.py"),
                    self.SPANS_PATH] + serve
        return [sys.executable, "-m", "repro"] + serve

    def start(self) -> None:
        """Start the server process; returns once it accepts requests."""
        if os.path.exists(self.SPANS_PATH):
            os.remove(self.SPANS_PATH)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.process = subprocess.Popen(
            self._server_argv(), stdout=subprocess.PIPE, cwd=ROOT, env=env)
        deadline = time.monotonic() + 60.0
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            ready, _, _ = select.select([self.process.stdout], [], [],
                                        max(0.0, left))
            if not ready:
                raise RuntimeError("service did not start within 60 s")
            chunk = os.read(self.process.stdout.fileno(), 1)
            if not chunk:
                raise RuntimeError("service exited during start-up")
            line += chunk
        match = re.search(rb"http://([\d.]+):(\d+)", line)
        if not match:
            raise RuntimeError(f"unexpected service banner {line!r}")
        from repro.service.client import ControlClient

        self.client = ControlClient(
            f"http://{match.group(1).decode()}:{match.group(2).decode()}",
            timeout_s=120.0)

    # --- the closed loop ------------------------------------------------------

    @staticmethod
    def _call(target, kind: str, arg, http: bool):
        """Make one scheduled call on the HTTP client or the service."""
        if kind == "ingest":
            return target.ingest(**arg)
        if kind == "advance":
            return target.advance(until_s=arg)
        if kind == "status":
            return target.status()
        if kind == "server":
            return target.server(arg) if http else target.server_status(arg)
        if kind == "snapshot":
            return target.snapshot(arg)
        raise ValueError(kind)

    def run(self) -> PassResult:
        out = PassResult()
        blob = None
        for n, (kind, arg) in enumerate(self.calls):
            if kind == "restore":
                op, _ = _guarded(f"{n}", kind,
                                 lambda: self.client.restore(arg, blob))
            else:
                op, value = _guarded(
                    f"{n}", kind,
                    lambda: self._call(self.client, kind, arg, True))
                if kind == "snapshot":
                    blob = value
                    if value is not None:
                        out.extra.setdefault("snapshot_bytes",
                                             []).append(len(value))
            out.ops.append(op)
        op, servers = _guarded("final", "servers", self.client.servers)
        out.ops.append(op)
        for server in servers or []:
            epochs = int(round(server["now_s"] / self.EPOCH_S))
            out.epochs += epochs
            out.checks[f"server{server['server']}"] = [
                server["dram_energy_j"].hex(),
                server["baseline_dram_energy_j"].hex(), epochs]
        return out

    def peak_rss_mb(self) -> float:
        """The server process's high-water mark (it does the simulating)."""
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Shut the server down and wait for it (kill if it hangs)."""
        process = self.process
        if process is None:
            return
        try:
            if process.poll() is None:
                try:
                    self.client.shutdown()
                except Exception:  # noqa: BLE001 - killed below if needed
                    pass
                process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        finally:
            process.stdout.close()
            self.process = None

    def traced_spans(self, recorder) -> Tuple[List[list], Dict[str, float]]:
        import tracing

        spans, counters = super().traced_spans(recorder)
        server_spans, server_counters = tracing.load(self.SPANS_PATH)
        for key, value in server_counters.items():
            counters[key] = counters.get(key, 0.0) + value
        return spans + server_spans, counters

    def reference(self) -> Dict[str, object]:
        """Drive an in-process ``FleetService`` with the same schedule."""
        from repro.service import FleetService

        service = FleetService(num_servers=self.params["servers"],
                               seed=self.seed, epoch_s=self.EPOCH_S)
        blob = None
        for kind, arg in self.calls:
            try:
                if kind == "restore":
                    service.restore(arg, blob)
                else:
                    value = self._call(service, kind, arg, False)
                    if kind == "snapshot":
                        blob = value
            except Exception:  # noqa: BLE001 - the HTTP side sees it too
                pass
        return {f"server{i}": [service.server(i).state.dram_energy.hex(),
                               service.server(i).state.baseline_energy.hex(),
                               int(round(service.server(i).state.now_s
                                         / self.EPOCH_S))]
                for i in range(self.params["servers"])}


# --- figure_suite --------------------------------------------------------------


class FigureSuite(Workload):
    """``figures.run_suite`` over every registered figure: check, fast,
    one worker.

    Why: this is what a reproducer waits on, and the only workload that
    reaches ``memctrl``/``dram`` (fig3, gem5-staircase) and ``ksm``
    (fig1).  Its inputs are the committed expectation pins, so the seed
    changes nothing; the pins are the correctness check.
    """

    SIZES = {"full": None, "tiny": ("tab1", "fig2", "fig3")}
    HAS_REFERENCE = False

    def prepare(self) -> None:
        from repro.experiments.registry import runners
        from repro.runner.metrics import MetricsBus

        self.all_names = list(runners())
        self.names = list(self.params or self.all_names)
        self.report_dir = os.path.join(ROOT, ".perfbench", "reports")
        # The suite drains the process-global perf counters into each
        # job's job_end event; keep them to count simulated epochs.
        self.jobs: List[Tuple[str, float, Dict[str, int]]] = []
        record = MetricsBus.job_end
        jobs = self.jobs

        def job_end(bus, experiment, wall_s, *args, **kwargs):
            jobs.append((experiment, wall_s, kwargs.get("perf") or {}))
            return record(bus, experiment, wall_s, *args, **kwargs)

        MetricsBus.job_end = job_end

    def run(self) -> PassResult:
        from repro import figures

        out = PassResult()
        op, suite = _guarded("suite", "suite", lambda: figures.run_suite(
            self.names, action="check", fast=True,
            report_dir=self.report_dir, all_names=self.all_names,
            workers=1))
        if suite is None:
            out.ops.append(op)
            return out
        walls = {name: wall for name, wall, _ in self.jobs}
        for outcome in suite.outcomes:
            status = outcome.status()
            out.ops.append(Op(outcome.name, "figure",
                              walls.get(outcome.name, 0.0),
                              error=None if status == "ok" else status))
        if suite.stale:
            out.ops.append(Op("stale", "figure", 0.0,
                              error=f"{len(suite.stale)} stale pins"))
        out.epochs = sum(perf.get("epochs_stepped", 0)
                         + perf.get("epochs_fast_forwarded", 0)
                         for _, _, perf in self.jobs)
        return out


WORKLOADS = {
    "fleet_replay": FleetReplay,
    "spec_churn": SpecChurn,
    "service_stream": ServiceStream,
    "figure_suite": FigureSuite,
}
