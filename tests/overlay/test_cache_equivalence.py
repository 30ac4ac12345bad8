"""Seeded equivalence of the membership-only PeerCache against two
references: an eager cache that builds one entry per member up front,
and the per-name merge loop that seeded the cache from a list of names
before supernode replies carried ``Host`` maps."""

import random
from types import SimpleNamespace
from typing import Dict, List, Optional

import pytest

from repro.net.latency import LatencyEstimate
from repro.overlay.cache import CacheEntry, PeerCache
from repro.overlay.peer import PeerDaemon
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
        peers = {h.name: h for h in batch}
        assert lazy.merge_peers(peers) == eager.merge(batch)
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
    assert cache.merge_peers({h.name: h for h in hosts + hosts[:2]}) \
        == len(hosts)
    assert len(cache) == len(hosts) and cache._entries == {}


class NameLoopCache(PeerCache):
    """Reference: the per-name merge of a reply listing names, which
    dropped the owner and looked each name up in the topology."""

    def merge_names(self, names, topology) -> int:
        members, dead = self._hosts, self._dead
        before = len(members)
        for name in names:
            if name == self.owner:
                continue
            host = topology.host(name)
            if name not in members:
                members[name] = host
            elif name in dead:
                self._revive(name)
        return len(members) - before


@pytest.mark.parametrize("seed", range(8))
def test_reply_merge_matches_the_per_name_loop(seed):
    """Replies (with the owner's own name and duplicate names), deaths,
    drops, single adds and revivals: the map merge keeps the loop's
    order and counts after every step."""
    rng = random.Random(2000 + seed)
    topo = make_small_topology()
    hosts = topo.all_hosts()
    owner = hosts[0]
    new, old = PeerCache(owner=owner.name), NameLoopCache(owner=owner.name)
    daemon = SimpleNamespace(host=owner, cache=new)
    for _ in range(200):
        op = rng.choice(["reply", "reply", "reply", "mark_dead",
                         "drop_dead", "add"])
        if op == "reply":
            names = [h.name for h in rng.choices(hosts, k=rng.randint(0, 14))]
            if rng.random() < 0.5:
                names.insert(rng.randint(0, len(names)), owner.name)
            reply = {name: topo.host(name) for name in names}
            assert PeerDaemon._merge_reply(daemon, reply) == \
                old.merge_names(names, topo)
        elif op == "mark_dead":
            name = rng.choice(hosts).name
            new.mark_dead(name)
            old.mark_dead(name)
        elif op == "drop_dead":
            assert new.drop_dead() == old.drop_dead()
        else:
            host = rng.choice(hosts)
            assert new.add(host).host is old.add(host).host
        assert [h.name for h in new.hosts()] == [h.name for h in old.hosts()]
        assert len(new) == len(old)
        assert new._dead == old._dead
