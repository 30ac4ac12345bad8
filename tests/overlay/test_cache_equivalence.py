"""Seeded equivalence of the membership-only PeerCache against an eager
reference that builds one entry per member up front."""

import random
from typing import Dict, List, Optional

import pytest

from repro.net.latency import LatencyEstimate
from repro.overlay.cache import CacheEntry, PeerCache
from tests.conftest import make_small_topology


class EagerCache:
    """Reference: one CacheEntry per member, created on insertion."""

    def __init__(self) -> None:
        self.entries: Dict[str, CacheEntry] = {}

    def __len__(self) -> int:
        return sum(1 for e in self.entries.values() if not e.dead)

    def __contains__(self, name: str) -> bool:
        entry = self.entries.get(name)
        return entry is not None and not entry.dead

    def add(self, host) -> CacheEntry:
        entry = self.entries.setdefault(host.name, CacheEntry(host=host))
        entry.dead = False
        return entry

    def merge(self, hosts) -> int:
        added = 0
        for host in hosts:
            added += host.name not in self.entries
            self.add(host)
        return added

    def set_latency(self, name, estimate, now) -> None:
        entry = self.entries[name]
        entry.latency_ms = estimate.value_ms
        entry.n_samples += estimate.n_samples
        entry.last_update = now

    def fold_latency(self, name, sample_ms, now,
                     ewma_alpha: Optional[float] = None) -> float:
        entry = self.entries[name]
        if entry.latency_ms is None or ewma_alpha is None:
            entry.latency_ms = sample_ms
        else:
            entry.latency_ms += ewma_alpha * (sample_ms - entry.latency_ms)
        entry.n_samples += 1
        entry.last_update = now
        return entry.latency_ms

    def mark_dead(self, name) -> None:
        if name in self.entries:
            self.entries[name].dead = True

    def drop_dead(self) -> List[str]:
        dead = [n for n, e in self.entries.items() if e.dead]
        for name in dead:
            del self.entries[name]
        return dead

    def live_entries(self) -> List[CacheEntry]:
        return [e for e in self.entries.values() if not e.dead]

    def unmeasured(self) -> List[CacheEntry]:
        return [e for e in self.live_entries() if not e.measured]

    def sorted_by_latency(self) -> List[CacheEntry]:
        measured = [e for e in self.live_entries() if e.measured]
        return sorted(measured, key=lambda e: (e.latency_ms, e.host.name))

    def hosts(self):
        return [e.host for e in self.live_entries()]


def view(entry: CacheEntry) -> tuple:
    return (entry.host.name, entry.latency_ms, entry.n_samples,
            entry.last_update, entry.dead)


def views(entries) -> List[tuple]:
    return [view(e) for e in entries]


def step(rng: random.Random, hosts, lazy: PeerCache, eager: EagerCache,
         now: float) -> None:
    """Apply one random operation to both caches; results must agree."""
    op = rng.choice(["add", "merge", "merge", "mark_dead", "drop_dead",
                     "set_latency", "fold_latency"])
    host = rng.choice(hosts)
    name = host.name
    if op == "add":
        assert view(lazy.add(host)) == view(eager.add(host))
    elif op == "merge":
        batch = rng.sample(hosts, rng.randint(0, len(hosts)))
        batch += rng.sample(batch, min(len(batch), rng.randint(0, 2)))
        assert lazy.merge(iter(batch)) == eager.merge(batch)
    elif op == "mark_dead":
        lazy.mark_dead(name)
        eager.mark_dead(name)
    elif op == "drop_dead":
        assert lazy.drop_dead() == eager.drop_dead()
    elif op == "set_latency":
        estimate = LatencyEstimate(host=host, value_ms=rng.uniform(0.1, 50),
                                   n_samples=rng.randint(1, 3))
        outcomes = []
        for cache in (lazy, eager):
            try:
                cache.set_latency(name, estimate, now)
                outcomes.append("ok")
            except KeyError:
                outcomes.append("KeyError")
        assert outcomes[0] == outcomes[1]
    else:
        sample = round(rng.uniform(0.1, 50), 3)
        alpha = rng.choice([None, 0.25])
        outcomes = []
        for cache in (lazy, eager):
            try:
                outcomes.append(cache.fold_latency(name, sample, now, alpha))
            except KeyError:
                outcomes.append("KeyError")
        assert outcomes[0] == outcomes[1]


def agree(lazy: PeerCache, eager: EagerCache, names) -> None:
    assert len(lazy) == len(eager)
    assert [n in lazy for n in names] == [n in eager for n in names]
    assert [h.name for h in lazy.hosts()] == [h.name for h in eager.hosts()]
    assert views(lazy.sorted_by_latency()) == \
        views(eager.sorted_by_latency())
    assert views(lazy.unmeasured()) == views(eager.unmeasured())
    assert views(lazy.live_entries()) == views(eager.live_entries())


@pytest.mark.parametrize("seed", range(8))
def test_matches_eager_reference_after_every_step(seed):
    rng = random.Random(seed)
    hosts = make_small_topology().all_hosts()
    names = [h.name for h in hosts] + ["nosuch.host"]
    lazy, eager = PeerCache(owner="o"), EagerCache()
    for i in range(300):
        step(rng, hosts, lazy, eager, now=float(i))
        agree(lazy, eager, names)


@pytest.mark.parametrize("seed", range(8))
def test_matches_eager_reference_without_intermediate_queries(seed):
    """Queries create entries; here none run until the end, so the ops
    also meet members that never got one."""
    rng = random.Random(1000 + seed)
    hosts = make_small_topology().all_hosts()
    lazy, eager = PeerCache(owner="o"), EagerCache()
    for i in range(60):
        step(rng, hosts, lazy, eager, now=float(i))
    agree(lazy, eager, [h.name for h in hosts])


def test_boot_merge_creates_no_entries():
    hosts = make_small_topology().all_hosts()
    cache = PeerCache(owner="o")
    assert cache.merge(hosts + hosts[:2]) == len(hosts)
    assert len(cache) == len(hosts) and cache._entries == {}
