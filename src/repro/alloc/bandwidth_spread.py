"""``bandwidth_spread``: spread over a bandwidth-coherent host set.

Plain *spread* round-robins over **all** selected hosts, so one
600-process run happily straddles the 1 Gb/s bordeaux link while
10 Gb/s paths sit idle.  ``bandwidth_spread`` keeps spread's one-
process-per-pass balance but first chooses *which* hosts to spread
over, greedily maximising the minimum pairwise bandwidth of the
selection:

1. seed the selection with ``slist[0]`` (the lowest-latency host);
2. repeatedly add the host whose worst link into the current selection
   is widest (max-min bandwidth), breaking ties by slist position;
3. stop as soon as the selection satisfies §4.2 feasibility —
   ``|selection| >= r`` and ``sum c_i >= n*r`` — because every further
   host can only narrow the worst link;
4. round-robin one process per pass over the selection, in selection
   order.

Hosts outside the selection get ``u_i = 0`` and their reservations are
cancelled by the ordinary §4.3 rank-assignment path.

Pair bandwidths are the before-the-plan score of
:meth:`~repro.alloc.commaware.CommAwareStrategy.pair_bw_bps`: no plan
exists while the selection grows, so a bound topology's backbones use
the fixed-divisor fallback.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.alloc.base import (AllocationError, ReservedHost,
                              register_strategy)
from repro.alloc.commaware import CommAwareStrategy
from repro.alloc.spread import SpreadStrategy

__all__ = ["BandwidthSpreadStrategy"]


@register_strategy
class BandwidthSpreadStrategy(CommAwareStrategy):
    """Greedy max-min-bandwidth selection, then spread round-robin."""

    name = "bandwidth_spread"

    # -- capacity-only fallback ----------------------------------------
    def distribute(self, capacities: Sequence[int], n: int, r: int) -> List[int]:
        """Without hosts in view there is nothing to score: pure spread."""
        return SpreadStrategy().distribute(capacities, n, r)

    # -- the real entry point ------------------------------------------
    def distribute_over(self, slist: Sequence[ReservedHost],
                        capacities: Sequence[int], n: int, r: int) -> List[int]:
        total = n * r
        candidates = self.active_indices(capacities)
        if not candidates:
            raise AllocationError(
                f"bandwidth_spread: no usable host for n*r={total}")

        selected = [candidates[0]]
        remaining = candidates[1:]
        capacity = capacities[selected[0]]
        # Prim-style: cache each remaining host's worst link into the
        # selection and fold in only the newly added host per round —
        # O(k^2) pair lookups instead of O(k^3), identical output
        # (pinned against the naive greedy in the test suite).
        worst_into = {idx: self.pair_bw_bps(slist[idx], slist[selected[0]])
                      for idx in remaining}
        while remaining and (capacity < total or len(selected) < r):
            best = None
            best_bw = -1.0
            for idx in remaining:
                # Strict > keeps the lowest slist index on equal
                # bandwidth: determinism under ties.
                if worst_into[idx] > best_bw:
                    best, best_bw = idx, worst_into[idx]
            selected.append(best)
            remaining.remove(best)
            capacity += capacities[best]
            for idx in remaining:
                worst_into[idx] = min(worst_into[idx],
                                      self.pair_bw_bps(slist[idx],
                                                       slist[best]))
        if capacity < total or len(selected) < r:
            raise AllocationError(
                f"bandwidth_spread: capacity exhausted at {capacity} "
                f"< n*r={total} over {len(selected)} hosts")

        # Spread's pass loop, walked in selection order.
        u = [0] * len(capacities)
        d = 0
        while d < total:
            progressed = False
            for idx in selected:
                if u[idx] < capacities[idx]:
                    u[idx] += 1
                    d += 1
                    progressed = True
                if d == total:
                    break
            if d < total and not progressed:  # pragma: no cover - guarded above
                raise AllocationError(
                    f"bandwidth_spread: capacity exhausted at d={d} < {total}")
        return u
