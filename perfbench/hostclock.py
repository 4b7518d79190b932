"""Host-speed calibration for the measured passes.

The benchmark runs on shared virtual CPUs whose speed changes from one
moment to the next: the same pass of the same program runs up to 1.8x
slower while a neighbour loads the physical core, in spells of seconds
to minutes.  So an untraced pass samples the speed of its CPU while it
runs: a timer interrupts the program every ``INTERVAL_S`` seconds of
wall time and runs one *calibration slice*, a fixed pure-Python loop
that is not part of the program and so does not change when the
program does.  Each slice's thread CPU time says how fast the CPU ran
at that moment.

Times reported by a pass are taken with :func:`clock`, which leaves the
slices out, and then scaled by :func:`speed`: the reference slice time
over the mean slice time in the same window.  The result is the
program's host seconds at the reference CPU speed (one slice in
``REFERENCE_SLICE_S`` of CPU time), so a pass in a slow spell and one
in a fast spell report nearly the same time, while a change to the
program still moves it.

Call :func:`pin` first: a pass and any process it starts then share one
CPU, so the slices sample the CPU that does the work.
"""

from __future__ import annotations

import os
import signal
import time
from typing import List, Optional, Tuple

#: Wall seconds between calibration slices.
INTERVAL_S = 0.05
#: Thread CPU seconds one slice takes at the reference CPU speed; the
#: median slice of this benchmark on a 2-vCPU shared VM (Intel Xeon).
REFERENCE_SLICE_S = 0.002
#: Iterations of the calibration loop in one slice.
SLICE_LOOPS = 10_000

_spent = 0.0
#: (perf_counter at the slice's start, its thread CPU seconds).
_slices: List[Tuple[float, float]] = []


def calibration_slice() -> None:
    """The fixed unit of work whose CPU time measures the host's speed."""
    table: dict = {}
    for i in range(SLICE_LOOPS):
        key = i % 500
        table[key] = table.get(key, 0) + i


def _sample(signum, frame) -> None:
    global _spent
    start = time.perf_counter()
    cpu = time.thread_time()
    calibration_slice()
    cpu = time.thread_time() - cpu
    _spent += cpu
    _slices.append((start, cpu))


def pin() -> None:
    """Bind this process, and the processes it starts, to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def start() -> None:
    """Start sampling: one calibration slice every ``INTERVAL_S``."""
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def spent() -> float:
    """CPU seconds spent in calibration slices so far."""
    return _spent


def clock() -> float:
    """``time.perf_counter()`` less the time spent in slices so far."""
    return time.perf_counter() - _spent


def speed(start: float, end: float) -> Optional[float]:
    """``REFERENCE_SLICE_S`` over the mean slice that began in
    [*start*, *end*) (``perf_counter`` seconds); None without a slice.
    Multiply a time measured in that window by it."""
    cpu = [c for t, c in _slices if start <= t < end]
    if not cpu:
        return None
    return REFERENCE_SLICE_S / (sum(cpu) / len(cpu))
