"""Process-global simulation-performance counters.

The fast-forward layer and the memoized power model count their work
here (cache hits/misses, epochs stepped vs analytically skipped).  The
counters are plain module state, mirroring the fault-injection context:
each pool worker accumulates its own, and the runner drains them at the
process that ran the job so they survive the trip back from workers and
land in the ``job_end`` JSONL metrics events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class PerfCounters:
    """Cheap integer counters on the simulation hot path."""

    power_cache_hits: int = 0
    power_cache_misses: int = 0
    epochs_stepped: int = 0
    epochs_fast_forwarded: int = 0
    fast_forward_windows: int = 0
    #: Stepped epochs the span planner executed in bulk (a subset of
    #: ``epochs_stepped``) and the stable spans that batched them.
    epochs_batched: int = 0
    stable_spans: int = 0
    #: Stepped epochs per fast-forward veto reason, keyed ``veto_<reason>``
    #: (:data:`repro.sim.fastforward.VETO_REASONS`).
    vetoes: Dict[str, int] = field(default_factory=dict)

    def add_vetoes(self, vetoes: Dict[str, int]) -> None:
        """Accumulate one run's ``veto_<reason>`` counters."""
        for key, value in vetoes.items():
            self.vetoes[key] = self.vetoes.get(key, 0) + value

    def as_dict(self) -> Dict[str, int]:
        """Non-zero counters only, so quiet jobs emit nothing.

        The veto counters are the exception within their group: once
        any is non-zero all of them are emitted, so a reader always sees
        the full split of the job's vetoed epochs.
        """
        fields = {
            "power_cache_hits": self.power_cache_hits,
            "power_cache_misses": self.power_cache_misses,
            "epochs_stepped": self.epochs_stepped,
            "epochs_fast_forwarded": self.epochs_fast_forwarded,
            "fast_forward_windows": self.fast_forward_windows,
            "epochs_batched": self.epochs_batched,
            "stable_spans": self.stable_spans,
        }
        counters = {key: value for key, value in fields.items() if value}
        if any(self.vetoes.values()):
            counters.update(self.vetoes)
        return counters

    def reset(self) -> None:
        self.power_cache_hits = 0
        self.power_cache_misses = 0
        self.epochs_stepped = 0
        self.epochs_fast_forwarded = 0
        self.fast_forward_windows = 0
        self.epochs_batched = 0
        self.stable_spans = 0
        self.vetoes = {}


#: The process-wide accumulator the hot paths increment directly.
GLOBAL = PerfCounters()


def drain_perf_counters() -> Dict[str, int]:
    """Snapshot and clear the process counters (one job's worth)."""
    snapshot = GLOBAL.as_dict()
    GLOBAL.reset()
    return snapshot
