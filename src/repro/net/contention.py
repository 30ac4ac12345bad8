"""Plan-dependent WAN contention: who shares which backbone, and how.

The paper's testbed gives every host a private 1 Gb/s NIC, so the raw
path bottleneck is identical for every pair and cannot rank placements.
What differs between placements is how the *shared* site backbones
divide: Grid'5000 sites interconnect over RENATER links whose capacity
is pooled across every flow the job drives through them (the platform
paper in PAPERS.md documents exactly this shared-backbone regime).

Earlier revisions approximated that division with a hard-coded
``WAN_CONTENTION_FACTOR = 16`` — wrong for every plan whose crossing
count is not 16.  This module derives the divisor from the plan itself:

* a *plan* is the multiset of hosts carrying the job's process copies
  (one entry per copy; duplicates mean co-located processes);
* for each WAN backbone (site pair) the model counts the
  **concurrently crossing communicating pairs**: in any round of the
  pairwise / recursive-doubling collectives the MPJ runtime uses, each
  process drives at most one flow at a time, so at most
  ``min(n_a, n_b)`` flows cross the a<->b backbone simultaneously
  (``n_s`` = process copies placed in site ``s``);
* each crossing pair's contended bandwidth is its share of that
  backbone, clamped by the NIC-limited path rate a single flow could
  reach anyway.

This module is the one home of that rule.  Two module-level helpers
carry it: :func:`sum_link_loads` adds each site pair's
``min(n_a, n_b)`` flows onto every link of its shortest-RTT route, and
:func:`narrowest_share_bps` gives a pair the narrowest per-flow slice
along its route.  :class:`PlanContention` scores a placement plan
with them for the communication-aware strategies and the experiment
packs, and the execution-time model (:mod:`repro.mpi.costmodel`,
``wan_contention`` mode ``"plan"``) prices its collectives with the
same two helpers, so what the allocator optimises is what the
simulated application experiences.

Routed topologies (DESIGN.md §14) load *traversed links*, so links
shared by several routes (router chords) accumulate their loads.  The
flat testbed is the exact 1-hop special case: every site pair owns
its private link, so per-link loads coincide with the crossing-pair
counts bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.net.topology import Host, Topology

__all__ = ["WAN_CONTENTION_FACTOR", "LinkContention", "PlanContention",
           "ContentionModel", "sum_link_loads", "narrowest_share_bps"]

#: The deprecated fixed divisor (the pre-calibration constant).  Kept
#: as the fallback for scoring *before a plan exists* — a strategy
#: ranking candidate hosts mid-construction has no placement to count
#: crossing pairs from — and as the ``"fixed"`` cost-model mode the
#: fig4 calibration suite pins the regression guard against.
WAN_CONTENTION_FACTOR = 16.0


@dataclass(frozen=True)
class LinkContention:
    """One WAN backbone's load under a concrete plan."""

    link: Tuple[str, str]
    backbone_bps: float
    crossing_pairs: int

    @property
    def per_pair_bps(self) -> float:
        """Each crossing pair's share of the backbone."""
        return self.backbone_bps / max(1, self.crossing_pairs)


@dataclass(frozen=True)
class PlanContention:
    """Contention state of one placement plan (immutable snapshot).

    Built by :meth:`ContentionModel.plan`; exposes per-link crossing
    counts and the per-pair contended bandwidth score.
    """

    topology: Topology
    site_counts: Tuple[Tuple[str, int], ...]
    crossing: Tuple[Tuple[Tuple[str, str], int], ...]

    def counts(self) -> Dict[str, int]:
        return dict(self.site_counts)

    def crossing_pairs(self) -> Dict[Tuple[str, str], int]:
        return dict(self.crossing)

    @cached_property
    def _link_load_map(self) -> Dict[Tuple[str, str], int]:
        """Concurrent flows per physical backbone link (flat mode: one
        private link per site pair, so this is the crossing map)."""
        return sum_link_loads(self.topology, self.crossing)

    def link_loads(self) -> Dict[Tuple[str, str], int]:
        """Concurrent crossing flows per physical backbone link."""
        return dict(self._link_load_map)

    def links(self) -> List[LinkContention]:
        """Per-backbone load, in canonical (sorted link key) order."""
        out = []
        for link in sorted(self._link_load_map):
            out.append(LinkContention(
                link=link,
                backbone_bps=self.topology.link_bandwidth_bps(link),
                crossing_pairs=self._link_load_map[link]))
        return out

    def max_crossing_pairs(self) -> int:
        """The most loaded backbone link's crossing count (0 if
        none).  Routed mode counts per traversed link, so a router
        chord shared by several site pairs reports their sum."""
        return max(self._link_load_map.values(), default=0)

    def pair_bw_bps(self, a: Host, b: Host) -> float:
        """Bandwidth the ``a``<->``b`` pair can expect under this plan.

        Symmetric in pair order.  Intra-site pairs keep the NIC-clamped
        path rate (a plan crossing no backbone reduces to
        :meth:`~repro.net.topology.Topology.bandwidth_bps` exactly);
        inter-site pairs get their share of the backbone, clamped by
        the NIC-limited path a single flow could reach anyway — so one
        lone crossing flow also reduces to the NIC-clamped rate, and
        the share is monotonically non-increasing in the crossing-pair
        count.
        """
        if a.name == b.name:
            return float("inf")
        path = self.topology.bandwidth_bps(a, b)
        if a.site == b.site:
            return path
        return min(path, narrowest_share_bps(
            self.topology, self._link_load_map, a.site, b.site))


def sum_link_loads(topology: Topology,
                   crossing: Iterable[Tuple[Tuple[str, str], int]]
                   ) -> Dict[Tuple[str, str], int]:
    """Concurrent flows per backbone link: each ``((site_a, site_b),
    flows)`` entry loads every link on the pair's route, and links
    shared by several routes accumulate the sum."""
    out: Dict[Tuple[str, str], int] = {}
    for (a, b), flows in crossing:
        if not flows:
            continue
        for link in topology.route_links(a, b):
            out[link] = out.get(link, 0) + flows
    return out


def narrowest_share_bps(topology: Topology,
                        link_loads: Mapping[Tuple[str, str], int],
                        site_a: str, site_b: str) -> float:
    """Backbone share of one ``site_a``<->``site_b`` flow: the
    narrowest per-flow slice along the route, where each link divides
    its capacity among all flows loading it (divisor never below 1, so
    a lone flow gets the whole link)."""
    return min(
        topology.link_bandwidth_bps(link) / max(1, link_loads.get(link, 0))
        for link in topology.route_links(site_a, site_b))


class ContentionModel:
    """Counts WAN-crossing communicating pairs per backbone link.

    The counting rule is the dominant-collective concurrency bound: a
    pairwise exchange keeps every process in at most one flow per
    round, so the a<->b backbone carries at most ``min(n_a, n_b)``
    concurrent flows.  (The total *distinct* communicating pairs of an
    alltoall is ``n_a * n_b``, but those never occupy the wire at
    once — dividing by it would overcount contention by the round
    count.)
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology

    def plan(self, hosts: Sequence[Host]) -> PlanContention:
        """Snapshot the contention state of a placement plan (one
        ``hosts`` entry per process copy)."""
        counts: Dict[str, int] = {}
        for host in hosts:
            counts[host.site] = counts.get(host.site, 0) + 1
        names = sorted(counts)
        return PlanContention(
            topology=self.topology,
            site_counts=tuple((s, counts[s]) for s in names),
            crossing=tuple(((a, b), min(counts[a], counts[b]))
                           for i, a in enumerate(names)
                           for b in names[i + 1:]))
