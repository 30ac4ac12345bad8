"""``topo_block``: fill whole clusters in collective-group units.

Bender et al.'s MC allocation assigns jobs to *contiguous blocks* of
the machine so that communicating groups never straddle a slow
boundary.  The grid analogue of a contiguous block is a (site,
cluster) — homogeneous hosts behind one switch — and the natural block
unit is the MPI communicator's dominant collective group size ``g``
(:func:`~repro.alloc.commaware.dominant_group_size`: the power-of-two
stage granularity of recursive-doubling collectives, ~``sqrt(n)``).

The strategy walks clusters in submitter-latency order (order of first
appearance in ``slist``) and gives each cluster as many *whole* groups
of ``g`` processes as its remaining capacity and the remaining demand
allow, concentrating within the cluster.  The sub-``g`` remainder is
then placed concentrate-style over the full latency order.  Every
cluster therefore carries a multiple of ``g`` processes (plus at most
one remainder tail), so collective groups fall cleanly inside cluster
boundaries.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.alloc.base import (AllocationError, ReservedHost,
                              register_strategy)
from repro.alloc.commaware import CommAwareStrategy, dominant_group_size
from repro.alloc.mixed import BlockStrategy
from repro.net.topology import Topology

__all__ = ["TopoBlockStrategy"]


@register_strategy
class TopoBlockStrategy(CommAwareStrategy):
    """Cluster-granular block fill in units of the collective group.

    Parameters
    ----------
    group:
        Block unit; ``None`` (default) derives it from ``n`` via
        :func:`~repro.alloc.commaware.dominant_group_size`.
    """

    name = "topo_block"

    def __init__(self, group: Optional[int] = None,
                 topology: Optional[Topology] = None) -> None:
        if group is not None and group < 1:
            raise ValueError("group must be >= 1")
        super().__init__(topology=topology)
        self.group = group

    def group_size(self, n: int) -> int:
        return self.group if self.group is not None else dominant_group_size(n)

    # -- capacity-only fallback ----------------------------------------
    def distribute(self, capacities: Sequence[int], n: int, r: int) -> List[int]:
        """Without hosts there are no cluster boundaries: plain block."""
        return BlockStrategy(block=self.group_size(n)).distribute(
            capacities, n, r)

    # -- the real entry point ------------------------------------------
    def distribute_over(self, slist: Sequence[ReservedHost],
                        capacities: Sequence[int], n: int, r: int) -> List[int]:
        total = n * r
        g = self.group_size(n)
        u = [0] * len(capacities)
        d = 0

        # Pass 1: whole g-sized blocks, cluster by cluster in latency
        # order, concentrating within each cluster.
        for indices in self._clusters(slist, capacities):
            cluster_cap = sum(capacities[i] for i in indices)
            blocks = min(cluster_cap // g, (total - d) // g)
            need = blocks * g
            for idx in indices:
                take = min(capacities[idx] - u[idx], need)
                u[idx] += take
                need -= take
                d += take
                if need == 0:
                    break
            if d == total:
                break

        # Pass 2: the sub-g remainder (and any demand the block pass
        # could not fit) concentrates over the plain latency order.
        if d < total:
            for idx, cap in enumerate(capacities):
                take = min(cap - u[idx], total - d)
                u[idx] += take
                d += take
                if d == total:
                    break
        if d < total:
            raise AllocationError(
                f"topo_block(g={g}): capacity exhausted at d={d} < {total}")
        return u

    # -- helpers --------------------------------------------------------
    @staticmethod
    def _clusters(slist: Sequence[ReservedHost],
                  capacities: Sequence[int]) -> List[List[int]]:
        """Usable slist indices grouped by (site, cluster), in order of
        the cluster's first (lowest-latency) appearance."""
        order: List[Tuple[str, str]] = []
        groups: Dict[Tuple[str, str], List[int]] = {}
        for idx, reserved in enumerate(slist):
            if capacities[idx] <= 0:
                continue
            key = (reserved.host.site, reserved.host.cluster)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(idx)
        return [groups[key] for key in order]
