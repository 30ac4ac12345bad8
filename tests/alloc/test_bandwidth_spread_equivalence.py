"""``bandwidth_spread``'s Prim-style selection against the naive greedy.

The production loop keeps each remaining candidate's worst link into
the selection and folds in only the newly selected host per round:
O(k²) pair lookups instead of the O(k³) of recomputing every worst
link from scratch.  The two must pick the same hosts in the same
order, ties included, so the ``u`` vectors are equal with ``==``.
Checked on random slists over the flat paper testbed (where same-site
and same-site-pair links tie constantly) and a routed scale_free
federation.
"""

import random

import pytest

from repro.alloc.bandwidth_spread import BandwidthSpreadStrategy
from repro.alloc.base import AllocationError, ReservedHost
from repro.grid5000.builder import build_topology
from repro.net.families import scale_free_topology
from tests.alloc.reference_bandwidth_spread import reference_bandwidth_spread

TOPOLOGIES = {
    "grid5000": build_topology,
    "scale_free": lambda: scale_free_topology(sites=12, topo_seed=3),
}


def random_case(rng, topology):
    """A random slist over 1-4 sites, with capacities (some zero) and
    a demand that is sometimes infeasible."""
    sites = rng.sample(sorted(topology.sites),
                       k=min(rng.randint(1, 4), len(topology.sites)))
    pool = [h for s in sites for h in topology.hosts_in_site(s)]
    hosts = rng.sample(pool, k=min(rng.randint(1, 30), len(pool)))
    latencies = sorted(rng.uniform(0.0, 20.0) for _ in hosts)
    slist = [ReservedHost(host=h, p_limit=h.cores, latency_ms=lat)
             for h, lat in zip(hosts, latencies)]
    capacities = [rng.randint(0, 4) for _ in hosts]
    r = rng.randint(1, 3)
    n = rng.randint(1, max(1, sum(capacities) // r + 2))
    return slist, capacities, n, r


@pytest.mark.parametrize("family", sorted(TOPOLOGIES))
def test_selection_matches_naive_greedy(family):
    topology = TOPOLOGIES[family]()
    strategy = BandwidthSpreadStrategy(topology=topology)
    rng = random.Random(2024)
    checked = ties = 0
    for _case in range(200):
        slist, capacities, n, r = random_case(rng, topology)
        try:
            want, case_ties = reference_bandwidth_spread(
                strategy, slist, capacities, n, r)
        except AllocationError:
            with pytest.raises(AllocationError):
                strategy.distribute_over(slist, capacities, n, r)
            continue
        assert strategy.distribute_over(slist, capacities, n, r) == want
        checked += 1
        ties += case_ties
    assert checked >= 100
    assert ties > 0  # the tie-break path is exercised, not assumed
