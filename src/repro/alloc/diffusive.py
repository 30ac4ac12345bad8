"""Diffusive rebalancing: neighbor maps, move selection, strategy.

The placement strategies in this package decide where a job *starts*;
under churn that decision rots as hosts die, rejoin and pick up other
work.  The diffusive scheme (after "Diffusive Load Balancing of
Loosely-Synchronous Parallel Programs over Peer-to-Peer Networks")
instead keeps trading work between *neighboring* hosts: each tick,
every overloaded host may push one running copy to its least-loaded
near neighbor when the load gap exceeds a threshold.  Locality comes
from the neighbor map (k nearest hosts by path RTT), so rebalancing
never needs a global view — exactly the property that makes the scheme
viable on a P2P overlay.  Path RTT between two distinct hosts depends
only on their two sites, so the map is ranked once per site over the
site RTT matrix rather than once per host pair (see
:func:`neighbor_map`).

This module holds the *pure* decision functions (deterministic, easily
property-tested) plus the :class:`DiffusiveStrategy` placement entry in
the registry; the sim-side controller that executes the moves lives in
:mod:`repro.ft.migration`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.alloc.base import register_strategy
from repro.alloc.spread import SpreadStrategy
from repro.net.topology import Topology

__all__ = [
    "DiffusivePolicy",
    "DiffusiveStrategy",
    "diffusive_moves",
    "neighbor_map",
]


@dataclass(frozen=True)
class DiffusivePolicy:
    """Tuning knobs for the diffusive controller.

    Attributes
    ----------
    period_s:
        Controller tick interval.
    neighbor_k:
        Neighborhood size (k nearest hosts by RTT).
    threshold:
        Minimum copies-per-core load gap before a move is worth its
        checkpoint-transfer cost.
    max_moves_per_tick:
        Global cap on migrations per tick (damping; an undamped
        diffusion oscillates on small grids).
    """

    period_s: float = 30.0
    neighbor_k: int = 3
    threshold: float = 0.75
    max_moves_per_tick: int = 2

    def __post_init__(self) -> None:
        # A zero period would tick on sim.timeout(0) forever: simulated
        # time never advances and the cell never ends.
        if self.period_s <= 0:
            raise ValueError(f"period_s must be > 0, got {self.period_s}")
        for field in ("neighbor_k", "threshold", "max_moves_per_tick"):
            value = getattr(self, field)
            if value < 0:
                raise ValueError(f"{field} must be >= 0, got {value}")


def neighbor_map(
    topology: Topology,
    host_names: Iterable[str],
    k: int,
) -> Dict[str, List[str]]:
    """k-nearest-neighbor map over ``host_names`` by path RTT.

    Deterministic: ties break on host name.  Hosts unknown to the
    topology raise ``KeyError`` — a neighbor map over phantom hosts is
    a bug upstream, not something to paper over.

    Ranked per site, not per host pair: between two distinct hosts the
    path RTT is ``lan_rtt_ms`` within a site and the site pair's
    :meth:`~repro.net.topology.Topology.site_path_metrics` RTT across
    sites, so every candidate's ``(rtt, name)`` key depends only on the
    *ranking* host's site.  Each live site ranks the k+1 smallest keys
    once (S² site lookups instead of H² host pairs); dropping the host
    itself from its site's list leaves exactly its k smallest, ties
    still broken on name.
    """
    site_of = {name: topology.host(name).site for name in host_names}
    names = sorted(site_of)
    sites = sorted(set(site_of.values()))
    ranked: Dict[str, List[Tuple[float, str]]] = {}
    for site in sites:
        rtt = {other: topology.lan_rtt_ms if other == site
               else topology.site_path_metrics(site, other).rtt_ms
               for other in sites}
        ranked[site] = heapq.nsmallest(
            k + 1, ((rtt[site_of[name]], name) for name in names))
    return {name: [other for _rtt, other in ranked[site_of[name]]
                   if other != name][:k]
            for name in names}


def diffusive_moves(
    loads: Mapping[str, float],
    neighbors: Mapping[str, Sequence[str]],
    threshold: float,
    max_moves: int,
) -> List[Tuple[str, str]]:
    """One tick of diffusion: ``[(src_host, dst_host), ...]``.

    ``loads`` maps host name to its normalized load (copies per core).
    Hosts are visited hottest-first; each may emit at most one move, to
    its least-loaded in-``loads`` neighbor, and only when the gap is at
    least ``threshold``.  Chosen destinations have their load bumped in
    a working copy so two hot hosts do not dogpile the same sink within
    a tick, and a host that received a copy this tick never turns
    around and sheds one — without that, a pair of near-equal hosts
    ping-pongs the same copy back and forth inside a single tick.
    Fully deterministic (name tie-breaks), which is what keeps the
    campaign reports byte-identical across ``--jobs``.
    """
    moves: List[Tuple[str, str]] = []
    if max_moves <= 0:
        return moves
    working = dict(loads)
    received: set = set()
    for src in sorted(working, key=lambda h: (-working[h], h)):
        if len(moves) >= max_moves:
            break
        if src in received:
            continue
        candidates = [nb for nb in neighbors.get(src, ()) if nb in working]
        if not candidates:
            continue
        dst = min(candidates, key=lambda h: (working[h], h))
        if working[src] - working[dst] < threshold:
            continue
        moves.append((src, dst))
        received.add(dst)
        working[src] -= 1.0
        working[dst] += 1.0
    return moves


@register_strategy
class DiffusiveStrategy(SpreadStrategy):
    """Initial placement for migration-enabled jobs.

    The *initial* distribution is exactly spread's round-robin — the
    diffusive scheme corrects placement continuously at run time, so
    spending effort on a clever start is wasted.  The distinct registry
    name lets a submitter opt a job into rebalancing, and
    ``needs_topology`` makes the middleware bind its network view so
    the controller inherits route knowledge from the plan.
    """

    name = "diffusive"
    needs_topology = True
