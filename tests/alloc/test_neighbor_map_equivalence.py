"""Per-site :func:`neighbor_map` against the pairwise reference.

The site-level ranking is exact, not approximate (DESIGN.md §17): on
every registered topology family, flat and routed, over the full host
set and seeded random live subsets, for small and saturating k, it
must return the same map as :func:`reference_neighbor_map`, with the
keys in the same order.  A work-bound test pins why it exists: no
host-pair ``path_metrics`` calls, at most S² site lookups.
"""

import random
from functools import lru_cache

import pytest

from repro.alloc.diffusive import neighbor_map
from repro.cluster import family_names, get_family
from tests.alloc.reference_neighbor_map import reference_neighbor_map
from tests.conftest import make_small_topology

#: Live-set shapes: everyone, churn-thinned, and a sparse survivor set.
LIVE_FRACTIONS = (1.0, 0.9, 0.25)


@lru_cache(maxsize=None)
def family_topology(name):
    return get_family(name).build(seed=0, boot=False).topology


def live_names(topology, fraction, seed):
    """All host names, or a seeded random subset in shuffled order."""
    names = [h.name for h in topology.all_hosts()]
    if fraction >= 1.0:
        return names
    return random.Random(seed).sample(names, max(1, int(len(names)
                                                        * fraction)))


@pytest.mark.parametrize("fraction", LIVE_FRACTIONS)
@pytest.mark.parametrize("family", family_names())
def test_matches_pairwise_reference(family, fraction):
    topology = family_topology(family)
    names = live_names(topology, fraction, seed=f"{family}:{fraction}")
    for k in (0, 1, 3, 8, len(names)):
        got = neighbor_map(topology, names, k)
        want = reference_neighbor_map(topology, names, k)
        assert got == want, (family, fraction, k)
        assert list(got) == list(want), (family, fraction, k)


@pytest.mark.parametrize("lan_rtt_ms", (10.0, 22.0, 30.0))
def test_matches_reference_when_lan_is_not_nearest(lan_rtt_ms):
    """A LAN tied with (10 ms) or slower than some WAN paths: same-site
    peers no longer rank first, and cross-site ties break on name."""
    topology = make_small_topology(lan_rtt_ms=lan_rtt_ms)
    names = [h.name for h in topology.all_hosts()]
    for k in (1, 3, 5, len(names)):
        got = neighbor_map(topology, names, k)
        assert got == reference_neighbor_map(topology, names, k)


def test_work_is_bounded_by_site_pairs(monkeypatch):
    """grid5000, 350 hosts, k=3: zero host-pair lookups and at most
    S² = 36 site-pair lookups, so the O(H²) cannot creep back."""
    topology = get_family("grid5000").build(seed=0, boot=False).topology
    calls = {"path_metrics": 0, "site_path_metrics": 0}

    def counting(method):
        original = getattr(topology, method)

        def wrapper(*args, **kwargs):
            calls[method] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(topology, method, wrapper)

    counting("path_metrics")
    counting("site_path_metrics")
    names = [h.name for h in topology.all_hosts()]
    assert len(names) == 350
    nmap = neighbor_map(topology, names, 3)
    assert len(nmap) == 350
    assert calls["path_metrics"] == 0
    assert 0 < calls["site_path_metrics"] <= len(topology.sites) ** 2 == 36
