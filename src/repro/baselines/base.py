"""Shared plumbing for the baseline power-management policies."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:
    from repro.policies.schema import PolicyRow

from repro.dram.organization import MemoryOrganization
from repro.errors import ConfigurationError
from repro.power.model import RankPowerProfile
from repro.power.states import PowerState
from repro.units import GIB


def resident_ranks_for(footprint_bytes: int,
                       organization: MemoryOrganization,
                       interleaved: bool,
                       kernel_bytes: int = 2 * GIB) -> int:
    """Ranks that hold data and therefore keep receiving requests.

    With interleaving every rank holds a slice of every footprint —
    that is the whole problem (Section 3.3).  Without interleaving a
    footprint occupies the minimum number of whole ranks.
    """
    if interleaved:
        return organization.total_ranks
    total = footprint_bytes + kernel_bytes
    ranks = math.ceil(total / organization.rank_capacity_bytes)
    return max(1, min(organization.total_ranks, ranks))


@dataclass
class BaselineEstimate:
    """What a policy achieves for one workload at one operating point."""

    policy: str
    interleaved: bool
    rank_profiles: List[RankPowerProfile]
    runtime_factor: float = 1.0  # multiplier on the workload's runtime
    extra_power_w: float = 0.0   # e.g. migration traffic (RAMZzz)
    notes: str = ""

    def to_row(self, scenario: Optional[str] = None) -> "PolicyRow":
        """Flatten into the shared policy-row schema.

        An estimate is an operating point, not a finished run, so the
        energy fields stay zero; the shape factors travel as extras so
        report tables and figure expectations can still surface them.
        """
        from repro.policies.schema import PolicyRow
        return PolicyRow(
            policy=self.policy,
            scenario=scenario or ("intlv" if self.interleaved
                                  else "no-intlv"),
            extras={"runtime_factor": self.runtime_factor,
                    "extra_power_w": self.extra_power_w},
            notes=self.notes)


def busy_residency(utilization: float) -> Dict[PowerState, float]:
    """Residency of a rank actively serving requests."""
    if not 0.0 <= utilization <= 1.0:
        raise ConfigurationError("utilization must be in [0, 1]")
    return {PowerState.ACTIVE_STANDBY: utilization,
            PowerState.PRECHARGE_STANDBY: 1.0 - utilization}


def idle_residency(selfrefresh_fraction: float,
                   powerdown_fraction: float = 0.0) -> Dict[PowerState, float]:
    """Residency of a rank that holds no (hot) data."""
    rest = 1.0 - selfrefresh_fraction - powerdown_fraction
    if rest < -1e-9:
        raise ConfigurationError("residencies exceed 1")
    residency = {PowerState.PRECHARGE_STANDBY: max(0.0, rest)}
    if selfrefresh_fraction:
        residency[PowerState.SELF_REFRESH] = selfrefresh_fraction
    if powerdown_fraction:
        residency[PowerState.POWER_DOWN] = powerdown_fraction
    return residency
