"""Exactness oracle for every policy's ``monitor_is_noop`` predicate.

The fast-forward layer replaces a policy's ``step`` with
``tick_quiescent`` whenever ``monitor_is_noop()`` holds, so the predicate
must never claim a no-op for a monitor pass that would change anything.
These tests drive each registered policy through random memory states
(free memory below, inside and above the daemon's hysteresis band; with
and without offline blocks; with and without the fault wrappers) and,
after every operation, force one monitor fire and compare the whole
simulator state tree before and after it — counters, event logs,
hot-plug and power-control state, the fault injector's budgets and every
RNG state.

For the GreenDIMM daemon the converse is checked too: a fire the
predicate calls acting must act.  Below the band that means a changed
state (an offline block was tried); above it the fire always re-reads
sysfs into the selector's stale view, which is the action the predicate
cannot rule out without a clock (a retry embargo may expire), so there
the check is that the view was refreshed.
"""

import math
import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import GreenDIMMConfig
from repro.core.system import GreenDIMMSystem
from repro.dram.device import DDR4_4GB_X8
from repro.dram.organization import MemoryOrganization
from repro.faults.plan import STICKY, FaultPlan, FaultRule
from repro.policies.registry import policy_names
from repro.sim.server import ServerSimulator
from repro.units import MIB

EPOCH_S = 1.0

#: Live from t=0 (or soon after) so every acting fire consults them.
FAULTS = FaultPlan(name="oracle", seed=1, rules=(
    FaultRule(op="offline", error="EBUSY", count=3),
    FaultRule(op="offline", error="EAGAIN", start_s=8.0, count=STICKY),
    FaultRule(op="online", error="EINVAL", count=2),
    FaultRule(op="prepare_online", error="ETIMEDOUT", count=2),
    FaultRule(op="allocate", error="ENOMEM", start_s=4.0, count=2),
    FaultRule(op="migration", error="STALL", count=3,
              extra_latency_s=1e-3),
))


def build(policy, faults):
    organization = MemoryOrganization(device=DDR4_4GB_X8, channels=1,
                                      dimms_per_channel=1, ranks_per_dimm=2)
    system = GreenDIMMSystem(
        organization=organization,
        config=GreenDIMMConfig(block_bytes=64 * MIB),
        kernel_boot_bytes=256 * MIB, transient_failure_probability=0.5,
        fault_plan=FAULTS if faults else None, policy=policy, seed=3)
    return ServerSimulator(system, seed=5)


def fingerprint(sim):
    return pickle.dumps(sim.state_dict())


def fire(sim, now_s):
    """Force one monitor pass at *now_s*; report what it did.

    Returns ``(noop, changed, refreshed)``: the predicate's verdict
    beforehand, whether the simulator's state tree changed, and whether
    the GreenDIMM selector re-read its sysfs view.
    """
    system = sim.system
    policy = system.policy
    system.advance_time(now_s)
    noop = policy.monitor_is_noop()
    # The timer is the one thing a fire must move: pin it to the value a
    # fire leaves behind, so equal trees mean nothing else moved.
    policy.monitor_timer = 0.0
    before = fingerprint(sim)
    view = system.daemon.selector._snapshot
    policy.monitor_timer = math.inf
    policy.step(now_s, EPOCH_S)
    assert policy.monitor_timer == 0.0, "the forced step did not fire"
    changed = fingerprint(sim) != before
    refreshed = system.daemon.selector._snapshot is not view
    return noop, changed, refreshed


def assert_exact(sim, now_s):
    """The oracle proper; returns the daemon band the fire started in."""
    daemon = sim.system.daemon
    free = daemon.mm.free_pages
    band = ("below" if free < daemon.low_water_pages
            else "above" if free > daemon.reserve_pages + daemon.mm.block_pages
            else "inside")
    offline = daemon.offline_block_count
    noop, changed, refreshed = fire(sim, now_s)
    if noop:
        assert not changed, (
            f"{sim.system.policy.name}: predicate said no-op but the fire "
            f"changed state (free {free}, band {band}, offline {offline})")
    elif sim.system.policy.name == "greendimm":
        if band == "below":
            assert offline and changed, (band, offline)
        else:
            assert band == "above" and refreshed, (band, offline)
    return band, offline, noop


OPS = st.one_of(
    # Grow or shrink one of three owners to a share of installed memory:
    # past the free reserve it spills to swap (or, with emergency set,
    # asks the policy to on-line blocks first).  Three owners at 0.9
    # overcommit the server well into swap without exhausting it.
    st.tuples(st.just("resize"), st.integers(0, 2),
              st.floats(0.0, 0.9), st.booleans()),
    # Let the system run: the monitor acts on whatever it finds.
    st.tuples(st.just("step"), st.integers(1, 6)),
)


@pytest.mark.parametrize("policy", policy_names())
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(faults=st.booleans(), ops=st.lists(OPS, min_size=1, max_size=10))
def test_noop_predicate_is_exact(policy, faults, ops):
    sim = build(policy, faults)
    mm = sim.system.mm
    now = 0.0
    assert_exact(sim, now)
    for op in ops:
        now += EPOCH_S
        sim.system.advance_time(now)
        if op[0] == "resize":
            _, owner, share, emergency = op
            sim.resize_owner(f"owner{owner}", int(share * mm.total_pages),
                             now, emergency=emergency)
        else:
            for _ in range(op[1]):
                sim.system.step(now, EPOCH_S)
                now += EPOCH_S
        assert_exact(sim, now)


def test_greendimm_reaches_every_branch():
    """One scripted walk through all four daemon states, faults on."""
    sim = build("greendimm", faults=True)
    system = sim.system
    mm = system.mm
    now = 0.0
    seen = []

    def check():
        seen.append(assert_exact(sim, now))
        return seen[-1]

    # Mostly idle memory: above the band, so the fire off-lines blocks.
    assert check()[0] == "above"
    for _ in range(12):
        now += EPOCH_S
        system.step(now, EPOCH_S)
    band, offline, noop = check()
    assert offline > 0
    # Demand jumps past everything online: below the band with blocks
    # offline, so the fire must bring some back.  (The plan's injected
    # ENOMEMs push a whole request to swap, so ask until one lands.)
    while mm.free_pages >= system.daemon.low_water_pages:
        now += EPOCH_S
        system.advance_time(now)
        sim.resize_owner("vm", mm.owner_pages("vm") + mm.free_pages + 64,
                         now)
    band, offline, noop = check()
    assert (band, noop) == ("below", False) and offline > 0
    # Keep refilling until every block is back, then overcommit into
    # swap: below the band with nothing offline is a no-op.
    while system.daemon.offline_block_count:
        now += EPOCH_S
        sim.resize_owner("vm", mm.owner_pages("vm") + mm.free_pages + 64,
                         now)
        system.step(now, EPOCH_S)
    band, offline, noop = check()
    assert (band, offline, noop) == ("below", 0, True)
    # Give back a slice (swap slots go first): inside the band, a no-op.
    daemon = system.daemon
    need = (daemon.low_water_pages + daemon.reserve_pages) // 2 \
        - mm.free_pages
    now += EPOCH_S
    sim.resize_owner("vm", mm.owner_pages("vm") - need, now)
    band, offline, noop = check()
    assert (band, offline, noop) == ("inside", 0, True)
    assert {band for band, _, _ in seen} == {"above", "inside", "below"}
