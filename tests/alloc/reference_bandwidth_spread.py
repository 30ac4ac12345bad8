"""Naive max-min reference of ``bandwidth_spread``'s host selection.

:func:`reference_bandwidth_spread` is the textbook O(k³) greedy: every
round recomputes each remaining candidate's worst link into the whole
selection from scratch, with
:meth:`~repro.alloc.commaware.CommAwareStrategy.pair_bw_bps`, and takes
the widest (strict ``>``, so the lowest slist index wins a tie).  It
then round-robins one process per pass over the selection, in
selection order.  It is the equivalence oracle of
``tests/alloc/test_bandwidth_spread_equivalence.py``; the production
Prim-style loop caches each candidate's worst link and must return the
same ``u`` vector.
"""

from typing import List, Sequence, Tuple

from repro.alloc.base import AllocationError, ReservedHost
from repro.alloc.commaware import CommAwareStrategy


def reference_bandwidth_spread(strategy: CommAwareStrategy,
                               slist: Sequence[ReservedHost],
                               capacities: Sequence[int], n: int,
                               r: int) -> Tuple[List[int], int]:
    """``(u, ties)``: the placement, and how many selection rounds had
    more than one candidate sharing the widest worst link."""
    total = n * r
    candidates = [i for i, cap in enumerate(capacities) if cap > 0]
    if not candidates:
        raise AllocationError("no usable host")
    selected = [candidates[0]]
    remaining = candidates[1:]
    capacity = capacities[selected[0]]
    ties = 0
    while remaining and (capacity < total or len(selected) < r):
        worst = {idx: min(strategy.pair_bw_bps(slist[idx], slist[j])
                          for j in selected)
                 for idx in remaining}
        best_bw = max(worst.values())
        best = [idx for idx in remaining if worst[idx] == best_bw]
        ties += len(best) > 1
        selected.append(best[0])
        remaining.remove(best[0])
        capacity += capacities[best[0]]
    if capacity < total or len(selected) < r:
        raise AllocationError("capacity exhausted")
    u = [0] * len(capacities)
    d = 0
    while d < total:
        for idx in selected:
            if d < total and u[idx] < capacities[idx]:
                u[idx] += 1
                d += 1
    return u, ties
