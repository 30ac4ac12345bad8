"""``diameter_concentrate``: concentrate under a latency-diameter bound.

*Concentrate* fills hosts in submitter-latency order, which bounds the
distance of every host to the **submitter** but not between the chosen
hosts themselves — 250 processes from nancy land on nancy + lyon, and
lyon-rennes style pairs appear as demand grows.  For collective-heavy
codes the cost driver is the *diameter* of the allocation (the slowest
link a collective must cross), so this strategy packs hosts while
keeping every pairwise RTT at or below a bound ``D``:

1. walk ``slist`` in latency order, admitting a host iff its RTT to
   every already-admitted host is ``<= D``;
2. if the admitted subset fails §4.2 feasibility ((a) ``>= r`` hosts,
   (b) ``sum c_i >= n*r``), relax ``D`` to the next distinct pairwise
   RTT present among the candidates and retry — the *only* time the
   bound moves, per the paper's feasibility-first contract;
3. concentrate (fill to capacity, latency order) within the subset.

Because relaxation eventually reaches the full-slist diameter, the
strategy succeeds whenever plain concentrate would, and the §4.2
global feasibility check has already guaranteed that.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.alloc.base import (AllocationError, ReservedHost,
                              register_strategy)
from repro.alloc.commaware import CommAwareStrategy
from repro.alloc.concentrate import ConcentrateStrategy
from repro.net.topology import Topology

__all__ = ["DEFAULT_DIAMETER_MS", "DiameterConcentrateStrategy"]

#: Default bound: generous enough for one WAN hop from the submitter
#: (every paper site is < 18 ms from nancy) while rejecting the long
#: overlap-corrected site-to-site detours (lyon-sophia and friends).
DEFAULT_DIAMETER_MS = 12.0


@register_strategy
class DiameterConcentrateStrategy(CommAwareStrategy):
    """Concentrate constrained to a pairwise-RTT diameter bound."""

    name = "diameter_concentrate"

    def __init__(self, diameter_ms: float = DEFAULT_DIAMETER_MS,
                 topology: Optional[Topology] = None) -> None:
        if diameter_ms < 0:
            raise ValueError("diameter_ms must be >= 0")
        super().__init__(topology=topology)
        self.diameter_ms = diameter_ms
        #: The bound actually used by the last distribution (== the
        #: configured one unless feasibility forced a relaxation).
        self.effective_diameter_ms = diameter_ms

    # -- capacity-only fallback ----------------------------------------
    def distribute(self, capacities: Sequence[int], n: int, r: int) -> List[int]:
        """Without hosts in view the bound is unevaluable: concentrate."""
        return ConcentrateStrategy().distribute(capacities, n, r)

    # -- the real entry point ------------------------------------------
    def distribute_over(self, slist: Sequence[ReservedHost],
                        capacities: Sequence[int], n: int, r: int) -> List[int]:
        total = n * r
        candidates = self.active_indices(capacities)
        if not candidates:
            raise AllocationError(
                f"diameter_concentrate: no usable host for n*r={total}")

        # The relaxation ladder costs O(k^2) pair lookups; build it
        # lazily — the configured bound is feasible in the common case.
        bounds: Optional[List[float]] = None
        bound = self.diameter_ms
        while True:
            subset = self._admit(slist, candidates, bound)
            if (len(subset) >= r
                    and sum(capacities[i] for i in subset) >= total):
                break
            if bounds is None:
                bounds = self._relaxation_ladder(slist, candidates)
            tighter = [b for b in bounds if b > bound]
            if not tighter:
                raise AllocationError(
                    f"diameter_concentrate: infeasible even on the full "
                    f"slist ({len(subset)} hosts, "
                    f"{sum(capacities[i] for i in subset)} < n*r={total})")
            bound = tighter[0]
        self.effective_diameter_ms = bound

        u = [0] * len(capacities)
        d = 0
        for idx in subset:
            take = min(capacities[idx], total - d)
            u[idx] = take
            d += take
            if d == total:
                break
        return u

    # -- helpers --------------------------------------------------------
    def _admit(self, slist: Sequence[ReservedHost],
               candidates: Sequence[int], bound: float) -> List[int]:
        """Latency-order greedy subset with pairwise RTT <= bound."""
        subset: List[int] = []
        for idx in candidates:
            if all(self.pair_rtt_ms(slist[idx], slist[j]) <= bound
                   for j in subset):
                subset.append(idx)
        return subset

    def _relaxation_ladder(self, slist: Sequence[ReservedHost],
                           candidates: Sequence[int]) -> List[float]:
        """Distinct pairwise RTTs, ascending: the candidate bounds."""
        values = set()
        for pos, i in enumerate(candidates):
            for j in candidates[pos + 1:]:
                values.add(self.pair_rtt_ms(slist[i], slist[j]))
        return sorted(values)
