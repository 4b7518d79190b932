"""The span planner's bit-for-bit contract.

The planner (:mod:`repro.sim.kernel`) batches *stable stepped* spans —
runs of epochs where the workload provably no-ops and the monitor timer
cannot fire — on top of the older quiescent fast-forward.  Its promise
is the same: callers cannot tell which path executed.  Every test here
runs one seeded scenario twice, span planning on and off (``fast_forward``
False forces the reference per-epoch loop), and demands exact equality
of samples, energies, daemon statistics, and fault-injector streams.

The scenarios are chosen so spans actually form: the monitor period
stays at its 1 s default while epochs shrink to 0.2 s, and a staircase
footprint (big flat drop) keeps the monitor *armed* for long stretches —
precisely the regime quiescent fast-forward cannot touch (its windows
require ``monitor_is_noop``) but stable spans batch.
"""

import math
import random

import pytest

from repro import perfcounters
from repro.core.config import GreenDIMMConfig
from repro.core.system import GreenDIMMSystem
from repro.dram.organization import DDR4_4GB_X8, MemoryOrganization
from repro.faults.plan import FaultPlan, FaultRule, storm_plan
from repro.sim.server import ServerSimulator
from repro.soa import (
    accumulate_energy,
    batched_times,
    monitor_timer_after,
)
from repro.sim.calendar import intersect_horizons
from repro.units import GIB, MIB
from repro.workloads.profiles import Suite, WorkloadProfile
from repro.workloads.trace import FootprintTrace


def small_system(**kwargs):
    organization = MemoryOrganization(device=DDR4_4GB_X8, channels=1,
                                      dimms_per_channel=2, ranks_per_dimm=1)
    defaults = dict(organization=organization,
                    config=GreenDIMMConfig(block_bytes=128 * MIB),
                    kernel_boot_bytes=512 * MIB,
                    transient_failure_probability=0.5, seed=7)
    defaults.update(kwargs)
    return GreenDIMMSystem(**defaults)


def staircase_profile(levels=((0.0, 4.5), (60.0, 4.5), (70.0, 1.5),
                              (300.0, 1.5)), name="staircase"):
    """A big flat drop: the monitor spends tens of periods off-lining the
    surplus one block at a time, keeping itself armed (not no-op) while
    the workload is perfectly stable — the span planner's home turf."""
    return WorkloadProfile(
        name=name, suite=Suite.SPEC2006, duration_s=levels[-1][0],
        footprint=FootprintTrace.of(
            [(t, gib * GIB) for t, gib in levels]),
        mpki=15.0)


def run_pair(profile, epoch_s, churn, plan=None, mix_with=None,
             system_kwargs=None):
    """Run the scenario with the planner on and off; returns
    ``[(result, sim), (result, sim)]`` as (slow, fast)."""
    runs = []
    for fast in (False, True):
        kwargs = dict(system_kwargs or {})
        if plan is not None:
            kwargs["fault_plan"] = plan
        sim = ServerSimulator(small_system(**kwargs), seed=5,
                              fast_forward=fast)
        if mix_with is not None:
            result = sim.run_mix([profile, mix_with], epoch_s=epoch_s,
                                 pinned_churn=churn)
        else:
            result = sim.run_workload(profile, epoch_s=epoch_s,
                                      pinned_churn=churn)
        runs.append((result, sim))
    return runs


def assert_identical(slow, fast):
    result_a, sim_a = slow
    result_b, sim_b = fast
    assert result_a.samples == result_b.samples
    assert result_a.dram_energy_j == result_b.dram_energy_j
    assert result_a.baseline_dram_energy_j == result_b.baseline_dram_energy_j
    assert sim_a.system.daemon.stats == sim_b.system.daemon.stats
    assert (list(sim_a.system.daemon.event_log)
            == list(sim_b.system.daemon.event_log))
    inj_a = sim_a.system.fault_injector
    inj_b = sim_b.system.fault_injector
    if inj_a is not None or inj_b is not None:
        assert inj_a.stats.as_dict() == inj_b.stats.as_dict()
        assert inj_a.events == inj_b.events
    # The reference path must never have batched anything.
    assert sim_a.ff_stats.epochs_batched == 0
    assert sim_a.ff_stats.epochs_fast_forwarded == 0


class TestStableSpans:
    def test_staircase_batches_and_is_identical(self):
        slow, fast = run_pair(staircase_profile(), epoch_s=0.2, churn=False)
        assert_identical(slow, fast)
        stats = fast[1].ff_stats
        assert stats.spans_stable > 0
        assert stats.epochs_batched > 0
        # Batched epochs are stepped epochs: fast-path coverage (skipped
        # plus stepped) must equal the reference path's epoch count.
        assert (stats.epochs_fast_forwarded + stats.epochs_stepped
                == slow[1].ff_stats.epochs_stepped)

    def test_span_counters_reach_process_counters(self):
        perfcounters.drain_perf_counters()
        _, fast = run_pair(staircase_profile(), epoch_s=0.2, churn=False)
        drained = perfcounters.drain_perf_counters()
        stats = fast[1].ff_stats
        assert stats.epochs_batched > 0
        # Both runs of the pair published; the fast one contributed all
        # batched epochs and stable spans.
        assert drained["epochs_batched"] == stats.epochs_batched
        assert drained["stable_spans"] == stats.spans_stable
        assert stats.span_counters() == {
            "spans_quiescent": stats.windows,
            "spans_stable": stats.spans_stable,
            "epochs_batched": stats.epochs_batched,
            "epochs_dynamic": stats.epochs_stepped - stats.epochs_batched,
            **stats.vetoes(),
        }
        # Only the fast run classifies vetoes, so it owns the totals; a
        # stable span counts every batched epoch under one reason.
        vetoes = stats.vetoes()
        assert {key: drained[key] for key in vetoes} == vetoes
        assert stats.epochs_batched <= sum(vetoes.values()) \
            <= stats.epochs_stepped

    def test_churn_spans_preserve_rng_stream(self):
        # Pinned churn runs for real inside a span; the arrival/expiry
        # RNG draws must land on the same epochs either way.
        slow, fast = run_pair(staircase_profile(), epoch_s=0.2, churn=True)
        assert_identical(slow, fast)
        assert fast[1].ff_stats.epochs_batched > 0

    def test_mix_small_epoch_identical(self):
        # A second staircase whose flat runs overlap the first one's:
        # the mix is only stable where *every* owner is, so overlapping
        # flats are what lets spans form at all.
        partner = staircase_profile(levels=((0.0, 2.0), (60.0, 2.0),
                                            (70.0, 1.0), (300.0, 1.0)),
                                    name="staircase-b")
        slow, fast = run_pair(staircase_profile(),
                              epoch_s=0.2, churn=False,
                              mix_with=partner)
        assert_identical(slow, fast)
        assert fast[1].ff_stats.epochs_batched > 0

    def test_fault_window_opening_mid_span_truncates(self):
        # The fault-free run batches one span at t=70.2..70.8, between
        # the ramp's end and the monitor pass that offlines the surplus.
        # This rule opens at 70.5 — inside that would-be span — so the
        # planner must cut the span at the window edge and the blocked
        # offline attempts must land on identical epochs in both paths.
        plan = FaultPlan(name="mid-span", seed=11, rules=(
            FaultRule(op="offline", error="EBUSY",
                      start_s=70.5, end_s=76.0),))
        slow, fast = run_pair(staircase_profile(), epoch_s=0.2,
                              churn=False, plan=plan)
        assert_identical(slow, fast)
        assert fast[1].ff_stats.epochs_batched > 0
        assert fast[1].system.fault_injector.stats.total > 0

    def test_tracer_toggled_mid_run_emits_span_events(self):
        from repro.obs.tracer import GLOBAL_TRACER

        sim = ServerSimulator(small_system(), seed=5, fast_forward=True)
        original = sim._pinned_churn

        def churn_then_enable(t, epoch_s):
            result = original(t, epoch_s)
            if t > 40.0 and not GLOBAL_TRACER.enabled:
                GLOBAL_TRACER.enable()
            return result

        sim._pinned_churn = churn_then_enable
        try:
            result = sim.run_workload(staircase_profile(), epoch_s=0.2,
                                      pinned_churn=True)
            assert GLOBAL_TRACER.enabled
            events = GLOBAL_TRACER.snapshot()["events"]
            enters = [e for e in events if e["kind"] == "span.enter"]
            exits = [e for e in events if e["kind"] == "span.exit"]
        finally:
            GLOBAL_TRACER.disable()
            GLOBAL_TRACER.drain()
        assert result.samples
        assert sim.ff_stats.epochs_batched > 0
        # Spans kept forming after the mid-run toggle, and every traced
        # entry saw its exit.
        assert enters and len(enters) == len(exits)


class TestRandomizedEquivalence:
    """Randomized scenario sweep: footprint staircases, churn, fault
    storms, and sub-period epochs drawn per seed; every draw must be
    bit-for-bit identical across the two paths."""

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_runs_identical(self, seed):
        rng = random.Random(0xC0FFEE + seed)
        levels = [(0.0, rng.uniform(3.0, 5.0))]
        t = 0.0
        for _ in range(rng.randint(2, 4)):
            t += rng.uniform(20.0, 60.0)
            levels.append((t, levels[-1][1]))  # flat run
            t += rng.uniform(5.0, 15.0)
            levels.append((t, rng.uniform(1.0, 5.0)))  # ramp to new level
        t += rng.uniform(40.0, 80.0)
        levels.append((t, levels[-1][1]))
        profile = staircase_profile(levels=levels, name=f"rand{seed}")
        epoch_s = rng.choice((0.2, 0.25, 0.125))
        churn = rng.random() < 0.5
        plan = (storm_plan(seed, intensity=rng.choice((0.5, 1.0)),
                           duration_s=100.0, num_blocks=60)
                if rng.random() < 0.5 else None)
        slow, fast = run_pair(profile, epoch_s=epoch_s, churn=churn,
                              plan=plan)
        assert_identical(slow, fast)


class TestBatchedHelpers:
    """The soa batching helpers against their scalar references."""

    @pytest.mark.parametrize("seed", range(8))
    def test_monitor_timer_after_matches_scalar_chain(self, seed):
        rng = random.Random(seed)
        period = rng.choice((1.0, 2.0, 0.7))
        step = rng.choice((0.2, 0.25, 1.0 / 3.0, 0.5))
        since = rng.uniform(0.0, period)
        n = rng.randint(1, 400)
        expected = since
        for _ in range(n):
            expected += step
            if expected >= period:
                expected = 0.0
        got = monitor_timer_after(since, step, period, n)
        assert got.hex() == expected.hex()

    @pytest.mark.parametrize("seed", range(4))
    def test_batched_times_and_energy_match_scalar_chains(self, seed):
        rng = random.Random(100 + seed)
        start = rng.uniform(0.0, 500.0)
        step = rng.choice((0.2, 0.25, 0.1))
        n = rng.randint(1, 300)
        times, final = batched_times(start, step, n)
        now = start
        for k in range(n):
            assert times[k].hex() == now.hex()
            now += step
        assert final.hex() == now.hex()
        initial = rng.uniform(0.0, 1e4)
        inc = rng.uniform(0.1, 30.0)
        expected = initial
        for _ in range(n):
            expected += inc
        assert accumulate_energy(initial, inc, n).hex() == expected.hex()

    def test_intersect_horizons_veto_and_min(self):
        assert intersect_horizons(10.0) == math.inf
        assert intersect_horizons(10.0, 20.0, 15.0, 30.0) == 15.0
        assert intersect_horizons(10.0, 20.0, 10.0) == 10.0  # veto
        assert intersect_horizons(10.0, 5.0, 20.0) == 10.0   # past veto
