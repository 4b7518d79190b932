"""Quiescence fast-forward support for the epoch-stepped simulator.

The :class:`~repro.sim.server.ServerSimulator` steps the whole
OS/KSM/daemon/power stack once per epoch even when nothing can happen.
This module supplies the pieces that let it recognize such *quiescent
windows* — spans of epochs in which no trace event, footprint change,
daemon threshold crossing, or fault-plan window boundary can occur — and
advance through them in a tight loop that synthesizes the identical
:class:`~repro.sim.server.EpochSample` stream.

Bit-for-bit equivalence is the contract, which shapes the design:

* energy is still accumulated one ``+= power * epoch_s`` per epoch (a
  closed-form ``power * epoch_s * n`` would re-associate the float sum);
* the simulated clock advances through :class:`SimClock` with the same
  ``now_s += epoch_s`` op sequence in both paths;
* the daemon's monitor timer ticks via
  :meth:`~repro.core.daemon.GreenDIMMDaemon.tick_quiescent`, a bit-exact
  mirror of its ``step`` arithmetic;
* pinned-churn epochs still call the real churn routine (preserving the
  RNG stream); the window closes the moment churn perturbs memory;
* the fast path never opens a window while a fault-plan rule is live
  (:meth:`~repro.faults.injector.FaultInjector.quiescent_until`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:
    from repro.core.system import GreenDIMMSystem


@dataclass
class SimClock:
    """The run loop's epoch clock.

    Fast and slow paths share one instance, so the accumulated ``now_s``
    goes through the identical sequence of float additions regardless of
    which path executed each epoch.
    """

    epoch_s: float
    now_s: float = 0.0

    def tick(self) -> None:
        """Advance by one epoch (the only way time moves in a run)."""
        self.now_s += self.epoch_s


#: Why a stepped epoch did not fast-forward, one counter each:
#: ``workload_event`` (the source's horizon is now: an event, a ramp or a
#: resize is due), ``monitor_armed`` (the policy's monitor would act),
#: ``ksm`` (KSM has regions to scan or just finished a pass),
#: ``fault_window`` (a fault rule is live) and ``short_window`` (the
#: quiescent window ahead ends within one epoch).
VETO_REASONS = ("workload_event", "monitor_armed", "ksm", "fault_window",
                "short_window")


@dataclass
class FastForwardStats:
    """Per-run accounting of the fast-forward and span-planner layers."""

    windows: int = 0
    epochs_fast_forwarded: int = 0
    epochs_stepped: int = 0
    #: Stable stepped spans the span planner executed as one batch.
    spans_stable: int = 0
    #: Epochs executed inside stable spans.  These are *also* counted in
    #: ``epochs_stepped`` — a batched epoch is a stepped epoch that was
    #: evaluated in bulk, not a skipped one — which keeps ``as_dict()``
    #: (pinned by the golden kernel recordings) unchanged by batching.
    epochs_batched: int = 0
    #: Stepped epochs per veto reason (see :data:`VETO_REASONS`), counted
    #: only where a run could fast-forward at all; a stable span counts
    #: all its epochs under the reason that vetoed the window it
    #: replaced.  Their sum is at most ``epochs_stepped``: epochs a
    #: churn perturbation pulled out of a window are not classified.
    veto_workload_event: int = 0
    veto_monitor_armed: int = 0
    veto_ksm: int = 0
    veto_fault_window: int = 0
    veto_short_window: int = 0

    @property
    def epochs_total(self) -> int:
        return self.epochs_fast_forwarded + self.epochs_stepped

    @property
    def fast_forward_fraction(self) -> float:
        total = self.epochs_total
        return self.epochs_fast_forwarded / total if total else 0.0

    @property
    def epochs_dynamic(self) -> int:
        """Epochs that truly stepped the full stack one at a time."""
        return self.epochs_stepped - self.epochs_batched

    def note_veto(self, reason: str, epochs: int) -> None:
        """Count *epochs* stepped epochs under veto *reason*."""
        name = "veto_" + reason
        setattr(self, name, getattr(self, name) + epochs)

    def vetoes(self) -> Dict[str, int]:
        """The veto counters, keyed ``veto_<reason>``."""
        return {"veto_" + reason: getattr(self, "veto_" + reason)
                for reason in VETO_REASONS}

    def as_dict(self) -> Dict[str, int]:
        return {"windows": self.windows,
                "epochs_fast_forwarded": self.epochs_fast_forwarded,
                "epochs_stepped": self.epochs_stepped}

    def span_counters(self) -> Dict[str, int]:
        """The span-planner view: quiescent / batched / dynamic / vetoed.

        The ``veto_<reason>`` counters say why the stepped epochs did
        not fast-forward.  All of it is kept out of :meth:`as_dict`
        deliberately — that dict's keys and values are pinned
        bit-for-bit by the golden kernel recordings.
        """
        counters = {"spans_quiescent": self.windows,
                    "spans_stable": self.spans_stable,
                    "epochs_batched": self.epochs_batched,
                    "epochs_dynamic": self.epochs_dynamic}
        counters.update(self.vetoes())
        return counters


def _busy_reason(system: "GreenDIMMSystem") -> Optional[str]:
    """The first fault-independent check vetoing a window, or ``None``."""
    if not system.policy.monitor_is_noop():
        return "monitor_armed"
    ksm = system.ksm
    if ksm is not None and (ksm.pass_just_completed or ksm.registry.regions()):
        return "ksm"
    return None


def quiescent_horizon(system: "GreenDIMMSystem", now_s: float) -> float:
    """How far the *system side* of the simulation is steady, from *now_s*.

    Returns *now_s* itself when the system is not quiescent right now:
    the active policy's monitor would act (for the daemon: free memory
    above the hysteresis band, or below it with a block offline to
    bring back), KSM has registered regions to scan (or a just-completed
    pass that would kick the monitor), or a fault rule is live.
    Otherwise returns the earliest future time system activity could
    resume — the next fault-rule start, or ``inf``.

    Callers intersect this with their own workload-side horizon (next
    trace event, end of the footprint's flat run).
    """
    if _busy_reason(system) is not None:
        return now_s
    injector = system.fault_injector
    if injector is None:
        return math.inf
    return injector.quiescent_until(now_s)


def system_veto(system: "GreenDIMMSystem") -> str:
    """Why :func:`quiescent_horizon` just returned its *now_s*.

    Re-runs its checks in the same order without consulting the fault
    injector again: once the monitor and KSM pass, only a live fault
    rule can have vetoed the window.
    """
    return _busy_reason(system) or "fault_window"
