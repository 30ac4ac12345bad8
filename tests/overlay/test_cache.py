"""Peer cache bookkeeping."""

import pytest

from repro.net.latency import LatencyEstimate
from repro.overlay.cache import PeerCache
from tests.conftest import make_small_topology


@pytest.fixture
def topo():
    return make_small_topology()


@pytest.fixture
def cache(topo):
    return PeerCache(owner="a1-1.alpha")


def est(host, value):
    return LatencyEstimate(host=host, value_ms=value, n_samples=3)


class TestCache:
    def test_add_and_contains(self, topo, cache):
        host = topo.host("b1-1.beta")
        cache.add(host)
        assert host.name in cache
        assert len(cache) == 1

    def test_merge_counts_new_only(self, topo, cache):
        peers = {h.name: h for h in topo.all_hosts()[:5]}
        assert cache.merge_peers(peers) == 5
        assert cache.merge_peers(peers) == 0

    def test_set_latency(self, topo, cache):
        host = topo.host("b1-1.beta")
        cache.add(host)
        cache.set_latency(host.name, est(host, 9.5), now=1.0)
        entry = cache.entry(host.name)
        assert entry.latency_ms == 9.5
        assert entry.measured
        assert entry.n_samples == 3

    def test_sorted_by_latency(self, topo, cache):
        names = ["b1-1.beta", "a1-2.alpha", "g1-1.gamma"]
        values = [10.0, 0.1, 20.0]
        for name, value in zip(names, values):
            host = topo.host(name)
            cache.add(host)
            cache.set_latency(name, est(host, value), now=0.0)
        ordered = [e.host.name for e in cache.sorted_by_latency()]
        assert ordered == ["a1-2.alpha", "b1-1.beta", "g1-1.gamma"]

    def test_unmeasured_excluded_from_sort(self, topo, cache):
        cache.add(topo.host("b1-1.beta"))
        assert cache.sorted_by_latency() == []
        assert len(cache.unmeasured()) == 1

    def test_tie_breaks_by_name(self, topo, cache):
        for name in ("b1-2.beta", "b1-1.beta"):
            host = topo.host(name)
            cache.add(host)
            cache.set_latency(name, est(host, 5.0), now=0.0)
        ordered = [e.host.name for e in cache.sorted_by_latency()]
        assert ordered == ["b1-1.beta", "b1-2.beta"]

    def test_mark_dead_hides_entry(self, topo, cache):
        host = topo.host("b1-1.beta")
        cache.add(host)
        cache.mark_dead(host.name)
        assert host.name not in cache
        assert len(cache) == 0

    def test_drop_dead_removes(self, topo, cache):
        host = topo.host("b1-1.beta")
        cache.add(host)
        cache.mark_dead(host.name)
        assert cache.drop_dead() == [host.name]

    def test_revive_keeps_measurement(self, topo, cache):
        host = topo.host("b1-1.beta")
        cache.add(host)
        cache.set_latency(host.name, est(host, 9.0), now=0.0)
        cache.mark_dead(host.name)
        cache.add(host)  # revive
        assert cache.entry(host.name).latency_ms == 9.0

    def test_mark_dead_unknown_is_noop(self, cache):
        cache.mark_dead("ghost.host")
