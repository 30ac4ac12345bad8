"""Shared machinery of the communication-aware strategy family.

The paper's strategies (§4.3) see only the capacity vector of
``slist``; placement relative to the *network between the selected
hosts* is ignored.  Bender et al., "Communication-Aware Processor
Allocation for Supercomputers", show that optimising pairwise
communication cost can dominate both published strategies.  The family
implemented on top of this module —

* :class:`~repro.alloc.bandwidth_spread.BandwidthSpreadStrategy`
  (``bandwidth_spread``),
* :class:`~repro.alloc.diameter_concentrate.DiameterConcentrateStrategy`
  (``diameter_concentrate``),
* :class:`~repro.alloc.topo_block.TopoBlockStrategy` (``topo_block``)

— scores host sets by pairwise RTT and bottleneck bandwidth.  When run
through the middleware the real :class:`~repro.net.topology.Topology`
is bound before planning (the MPD knows its own network view); used
standalone the strategies fall back to what ``slist`` alone reveals:
the measured RTT of every host *to the submitter* plus site labels,
which yields the hub approximation ``rtt(a, b) = rtt(a) + rtt(b)``
and a coarse site-local/remote bandwidth split.

Determinism contract: every greedy choice breaks ties by slist
position (ascending submitter latency, the middleware's canonical
order), so equal metrics can never make two runs diverge.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.alloc.base import ReservedHost, Strategy
from repro.net.contention import WAN_CONTENTION_FACTOR
from repro.net.topology import (DEFAULT_LAN_BW_BPS, DEFAULT_LAN_RTT_MS,
                                Host, Topology)

__all__ = ["CommAwareStrategy", "WAN_CONTENTION_FACTOR",
           "contended_pair_bw_bps", "dominant_group_size"]

#: Fallback cross-site bandwidth when no topology is bound (bit/s).
#: Deliberately below the LAN default so the greedy orderings prefer
#: site-local pairs, which is the only robust unbound signal.
FALLBACK_WAN_BW_BPS = DEFAULT_LAN_BW_BPS / 10.0


def contended_pair_bw_bps(topology: Topology, a: Host, b: Host) -> float:
    """Placement score: bandwidth a host pair can expect under load.

    Intra-site pairs keep the switched LAN rate to themselves;
    inter-site pairs divide the site backbone with the rest of the
    job's traffic.  A strategy scoring candidates mid-construction has
    no placement to count flows from, so the **deprecated** fixed
    :data:`~repro.net.contention.WAN_CONTENTION_FACTOR` divisor
    applies.  Any factor above the backbone/LAN ratio still ranks
    LAN > fast WAN > bordeaux WAN (the §5.2 IS ordering), which is all
    a before-the-plan score can honestly claim.  Completed plans are
    scored by :meth:`repro.net.contention.PlanContention.pair_bw_bps`,
    whose divisor is the plan's own crossing flows.
    """
    if a.name == b.name:
        return float("inf")
    if a.site == b.site:
        return topology.lan_bw_bps
    return topology.backbone_bandwidth_bps(a, b) / WAN_CONTENTION_FACTOR


def dominant_group_size(n: int) -> int:
    """Dominant collective group size for an ``n``-process communicator.

    Recursive-doubling/halving collectives (the MPJ runtime's allreduce
    and alltoall building block) work in power-of-two stages; the stage
    granularity that dominates traffic volume sits near ``sqrt(n)``.
    We use the largest power of two not exceeding ``sqrt(n)`` (at least
    1), e.g. 8 for ``n=100``, 16 for ``n=512``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    group = 1
    while (group * 2) ** 2 <= n:
        group *= 2
    return group


class CommAwareStrategy(Strategy):
    """Base for strategies scoring placements by inter-host metrics.

    Subclasses call :meth:`pair_rtt_ms` / :meth:`pair_bw_bps` and never
    touch the topology directly, so one bound/unbound fallback rule
    serves the whole family.
    """

    needs_topology = True

    def __init__(self, topology: Optional[Topology] = None) -> None:
        self.topology = topology

    # -- pairwise metrics ----------------------------------------------
    def pair_rtt_ms(self, a: ReservedHost, b: ReservedHost) -> float:
        """Round-trip time between two reserved hosts, ms."""
        if a.host.name == b.host.name:
            return 0.0
        if self.topology is not None:
            return self.topology.base_rtt_ms(a.host, b.host)
        if a.host.site == b.host.site:
            return DEFAULT_LAN_RTT_MS
        # Hub approximation through the submitter (the only vantage
        # point slist latencies were measured from).
        return a.latency_ms + b.latency_ms

    def pair_bw_bps(self, a: ReservedHost, b: ReservedHost) -> float:
        """Expected under-load bandwidth between two reserved hosts.

        Strategies call this *while building* a plan, so no placement
        exists yet to count crossing pairs from: the score rides the
        deprecated fixed-divisor fallback of
        :func:`contended_pair_bw_bps`.  Completed plans are re-scored
        plan-dependently by the experiment packs.
        """
        if a.host.name == b.host.name:
            return float("inf")
        if self.topology is not None:
            return contended_pair_bw_bps(self.topology, a.host, b.host)
        return (DEFAULT_LAN_BW_BPS if a.host.site == b.host.site
                else FALLBACK_WAN_BW_BPS)

    # -- helpers shared by the family ----------------------------------
    @staticmethod
    def active_indices(capacities: Sequence[int]) -> List[int]:
        """Slist positions that can hold at least one process."""
        return [i for i, cap in enumerate(capacities) if cap > 0]
