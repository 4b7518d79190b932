"""Span tracing for the benchmark's traced runs, installed from outside.

The program itself is never edited: :func:`install` replaces the public
functions of each layer (see :data:`TARGETS`) with timing wrappers, in
the process that is about to run a workload.  Each call records one span
``[name, start_ns, end_ns, parent]``; the parent is whatever span was
open when the call began, carried in a :class:`contextvars.ContextVar`
so that the service's ``asyncio.to_thread`` hand-offs keep their parent
(the thread inherits the request task's context).

Spans stay in memory until the run ends.  :func:`ledger` then turns them
into per-layer self times (a span's duration minus its children's), and
:func:`dump` writes them out.  A layer is the part of a span name before
the first dot.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_now = time.perf_counter_ns


class Recorder:
    """All spans and argument-derived counters of one traced process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)

    def wrap(self, fn: Callable, name, count=None) -> Callable:
        """A wrapper that records a span named *name* around *fn*.

        *name* may be a callable of the call's arguments (the figure
        layer names spans after the experiment).  *count*, when given,
        adds argument- or result-derived counts (see the hooks below).
        """
        spans = self.spans
        current = self._current
        counters = self.counters
        dynamic = callable(name)

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                record = [name(args, kwargs) if dynamic else name,
                          _now(), 0, current.get()]
                spans.append(record)
                token = current.set(record)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    current.reset(token)
                    record[2] = _now()
                return result
            if count is not None:
                raise ValueError("counter hooks need a synchronous target")
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name(args, kwargs) if dynamic else name,
                      _now(), 0, current.get()]
            spans.append(record)
            token = current.set(record)
            try:
                if count is None:
                    return fn(*args, **kwargs)
                state = count(counters, args, kwargs, None)
                result = fn(*args, **kwargs)
            finally:
                current.reset(token)
                record[2] = _now()
            count(counters, args, kwargs, (state, result))
            return result
        return wrapper


# --- argument/result-derived counters ----------------------------------------
#
# A counter hook runs twice: before the call (``result`` None; whatever
# it returns is handed back as ``state``) and after it (``result`` is the
# ``(state, value)`` pair).  Spans themselves already give call counts.


def _count_alloc(counters, args, kwargs, result):
    if result is not None:
        n_pages = args[2] if len(args) > 2 else kwargs.get("n_pages", 0)
        counters["os.alloc_pages"] += n_pages
    return None


def _count_emit(counters, args, kwargs, result):
    if result is not None:
        times = args[1] if len(args) > 1 else kwargs["times"]
        counters["soa.samples_emitted"] += len(times)
    return None


def _count_capture(counters, args, kwargs, result):
    if result is not None:
        counters["snapshot.bytes"] += len(result[1])
        counters["snapshot.captures"] += 1
    return None


def _count_offline(counters, args, kwargs, result):
    if result is not None:
        outcome = result[1]
        if outcome.success:
            counters["hotplug.offlines"] += 1
        elif outcome.errno_name in ("EBUSY", "EAGAIN"):
            counters["hotplug.offline_busy"] += 1
    return None


def _count_power(counters, args, kwargs, result):
    model = args[0]
    if result is None:
        return model.cache_stats.hits
    counters["power.calls"] += 1
    if model.cache_stats.hits > result[0]:
        counters["power.cache_hits"] += 1
    return None


_FF_FIELDS = ("epochs_stepped", "epochs_fast_forwarded", "epochs_batched",
              "windows", "spans_stable")


def _count_advance(counters, args, kwargs, result):
    kernel, state = args[0], args[1]
    stats = kernel.sim.ff_stats
    if result is None:
        return ([getattr(stats, f) for f in _FF_FIELDS], len(state.samples))
    (before, samples_before), _ = result
    for field, old in zip(_FF_FIELDS, before):
        counters["kernel." + field] += getattr(stats, field) - old
    counters["kernel.samples_retained"] += len(state.samples) - samples_before
    return None


def _count_memctrl(counters, args, kwargs, result):
    if result is not None:
        requests = args[1] if len(args) > 1 else kwargs["requests"]
        counters["memctrl.requests"] += len(requests)
    return None


def _figure_name(args, kwargs):
    return "figures." + (args[0] if args else kwargs["name"])


#: (module, attribute path, span name, counter hook).  A dotted path
#: patches a class attribute; a bare name patches a module function
#: where its callers look it up.
TARGETS: Tuple[Tuple[str, str, object, Optional[Callable]], ...] = (
    # workloads: input generation and per-epoch event application
    ("repro.workloads.azure", "AzureTraceGenerator.generate",
     "workloads.generate", None),
    ("repro.sim.fleet", "FleetSource.shard", "workloads.generate", None),
    ("repro.sim.kernel", "ProfileSource.apply", "workloads.apply", None),
    ("repro.sim.kernel", "TraceSource.apply", "workloads.apply", None),
    ("repro.sim.kernel", "MixSource.apply", "workloads.apply", None),
    ("repro.service.stream", "StreamSource.apply", "workloads.apply", None),
    # sim.kernel: the epoch loop
    ("repro.sim.kernel", "EpochKernel.begin", "kernel.begin", None),
    ("repro.sim.kernel", "EpochKernel.advance", "kernel.advance",
     _count_advance),
    ("repro.sim.kernel", "EpochKernel.finish", "kernel.finish", None),
    # plan: span planning (system and workload horizons)
    ("repro.sim.kernel", "quiescent_horizon", "plan.quiescent_horizon",
     None),
    ("repro.sim.kernel", "EpochKernel._plan_stable_span", "plan.span", None),
    ("repro.sim.kernel", "ProfileSource.horizon", "plan.source_horizon",
     None),
    ("repro.sim.kernel", "TraceSource.horizon", "plan.source_horizon", None),
    ("repro.sim.kernel", "MixSource.horizon", "plan.source_horizon", None),
    ("repro.service.stream", "StreamSource.horizon", "plan.source_horizon",
     None),
    ("repro.sim.kernel", "ProfileSource.stable_until", "plan.stable_until",
     None),
    ("repro.sim.kernel", "TraceSource.stable_until", "plan.stable_until",
     None),
    ("repro.sim.kernel", "MixSource.stable_until", "plan.stable_until",
     None),
    ("repro.service.stream", "StreamSource.stable_until",
     "plan.stable_until", None),
    # soa: replicated sample emission in replayed windows
    ("repro.sim.kernel", "emit_replicated", "soa.emit", _count_emit),
    # core: building a whole GreenDIMM server
    ("repro.core.system", "GreenDIMMSystem.__init__", "core.build", None),
    # os: the physical memory manager and swap
    ("repro.os.mm", "PhysicalMemoryManager.allocate", "os.alloc",
     _count_alloc),
    ("repro.os.mm", "PhysicalMemoryManager.free_pages_of", "os.free", None),
    # free_all frees extent by extent through free_extent, its only
    # caller; one span per free_all keeps the traced overhead bounded.
    ("repro.os.mm", "PhysicalMemoryManager.free_all", "os.free", None),
    ("repro.os.mm", "PhysicalMemoryManager.migrate_block_out", "os.migrate",
     None),
    ("repro.os.swap", "SwapSpace.swap_out", "os.swap", None),
    ("repro.os.swap", "SwapSpace.swap_in", "os.swap", None),
    ("repro.os.swap", "SwapSpace.drop", "os.swap", None),
    ("repro.os.swap", "SwapSpace.release", "os.swap", None),
    # hotplug: memory-block off/on-lining
    ("repro.os.hotplug", "MemoryBlockManager.offline_block",
     "hotplug.offline", _count_offline),
    ("repro.os.hotplug", "MemoryBlockManager.online_block", "hotplug.online",
     None),
    # policy: one epoch of KSM + the active power policy
    ("repro.core.system", "GreenDIMMSystem.step", "policy.step", None),
    # power: DRAM power-model evaluations (GreenDIMMSystem.dram_power and
    # baseline_dram_power are one-line forwards to busy_power_cached)
    ("repro.power.model", "DRAMPowerModel.busy_power_cached", "power.eval",
     _count_power),
    # snapshot: checkpoint and restore
    ("repro.sim.snapshot", "capture", "snapshot.capture", _count_capture),
    ("repro.sim.snapshot", "restore", "snapshot.restore", None),
    # service: the resident fleet's control surface
    ("repro.service.fleet_service", "FleetService.__init__",
     "service.call.build", None),
    ("repro.service.fleet_service", "FleetService.ingest",
     "service.call.ingest", None),
    ("repro.service.fleet_service", "FleetService.depart",
     "service.call.depart", None),
    ("repro.service.fleet_service", "FleetService.advance",
     "service.call.advance", None),
    ("repro.service.fleet_service", "FleetService.status",
     "service.call.status", None),
    ("repro.service.fleet_service", "FleetService.servers",
     "service.call.servers", None),
    ("repro.service.fleet_service", "FleetService.server_status",
     "service.call.server", None),
    ("repro.service.fleet_service", "FleetService.snapshot",
     "service.call.snapshot", None),
    ("repro.service.fleet_service", "FleetService.restore",
     "service.call.restore", None),
    # http: the control plane's request handling, from reading the
    # request to the response body (not the socket close after it,
    # which overlaps the client's next request)
    ("repro.service.http", "ControlPlane._respond", "http.respond", None),
    # ksm and memctrl: reached only by the figure suite
    ("repro.ksm.daemon", "KSMDaemon.step", "ksm.step", None),
    ("repro.memctrl.controller", "MemoryController.run", "memctrl.run",
     _count_memctrl),
    # figures: the registry's experiment runners
    ("repro.experiments.registry", "run_experiment", _figure_name, None),
)


def install(recorder: Recorder) -> int:
    """Wrap every :data:`TARGETS` entry; returns how many were wrapped."""
    for module_name, path, name, count in TARGETS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        fn = inspect.getattr_static(owner, attr)
        setattr(owner, attr, recorder.wrap(fn, name, count))
    return len(TARGETS)


# --- the ledger ----------------------------------------------------------------

#: Every span name starts with one of these (see TARGETS).
LAYERS = ("workloads", "kernel", "plan", "soa", "core", "os", "hotplug",
          "policy", "power", "snapshot", "service", "http", "ksm", "memctrl",
          "figures")


def covered_ns(intervals: List[Tuple[int, int]]) -> int:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0
    run_start = run_end = None
    for begin, end in sorted(intervals):
        if run_end is None or begin > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = begin, end
        elif end > run_end:
            run_end = end
    if run_end is not None:
        total += run_end - run_start
    return total


def ledger(spans: List[list], start_ns: int, end_ns: int) -> Dict[str, float]:
    """Self and inclusive times of the spans inside ``[start, end]``.

    A span's self time is its duration minus the part of its interval
    that its child spans cover.  Returns ``self.<name>``/``incl.<name>``/
    ``calls.<name>`` per span name, ``self.<layer>`` per layer, and the
    books, each computed on its own: ``wall_s`` (the window),
    ``attributed_s`` (the sum of every self time), ``unattributed_s``
    (the part of the window no root span covers), ``closes`` (1 when
    attributed plus unattributed equals the window to the nanosecond,
    which fails if spans overlap and so count time twice) and
    ``dropped`` (spans that straddle a window edge or never ended, left
    out of the books).
    """
    inside = []
    dropped = 0
    for span in spans:
        begin, end = span[1], span[2]
        if begin >= start_ns and 0 < end <= end_ns:
            inside.append(span)
        elif begin < end_ns and (end == 0 or end > start_ns):
            dropped += 1
    kept = {id(span) for span in inside}
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    roots: List[Tuple[int, int]] = []
    for span in inside:
        parent = span[3]
        if parent is not None and id(parent) in kept:
            children[id(parent)].append(
                (max(span[1], parent[1]), min(span[2], parent[2])))
        else:
            roots.append((span[1], span[2]))
    out: Dict[str, float] = defaultdict(float)
    attributed = 0
    for span in inside:
        name = span[0]
        duration = span[2] - span[1]
        own = duration - covered_ns(children.get(id(span), []))
        attributed += own
        out["self." + name] += own / 1e9
        out["self." + name.split(".", 1)[0]] += own / 1e9
        out["incl." + name] += duration / 1e9
        if span[3] is None or span[3][0] != name:
            out["calls." + name] += 1  # outermost calls only
    wall_ns = end_ns - start_ns
    unattributed = wall_ns - covered_ns(roots)
    out["wall_s"] = wall_ns / 1e9
    out["attributed_s"] = attributed / 1e9
    out["unattributed_s"] = unattributed / 1e9
    out["closes"] = float(attributed + unattributed == wall_ns)
    out["dropped"] = dropped
    out["spans"] = len(inside)
    # Planning attempts: workload horizons the kernel itself asked for
    # (stable_until implementations may consult horizon again).
    out["plan.attempts"] = sum(
        1 for s in inside if s[0] == "plan.source_horizon"
        and (s[3] is None or not s[3][0].startswith("plan.")))
    return dict(out)


def dump(spans: List[list], counters: Dict[str, float], path: str) -> None:
    """Write the counters as one JSON line, then every span as a line
    of name, start_ns, end_ns and parent index."""
    index = {id(span): i for i, span in enumerate(spans)}
    with open(path, "w") as handle:
        handle.write(json.dumps(dict(counters)) + "\n")
        for span in spans:
            parent = index.get(id(span[3])) if span[3] is not None else None
            handle.write(json.dumps([span[0], span[1], span[2], parent])
                         + "\n")


def load(path: str) -> Tuple[List[list], Dict[str, float]]:
    """Read what :func:`dump` wrote: spans (parents re-linked) and
    counters."""
    spans: List[list] = []
    with open(path) as handle:
        counters = json.loads(handle.readline())
        for line in handle:
            name, start, end, parent = json.loads(line)
            spans.append([name, start, end, parent])
    for span in spans:
        if span[3] is not None:
            span[3] = spans[span[3]]
    return spans, counters
