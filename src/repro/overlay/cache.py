"""The MPD's cached host list with latency values (§4.1).

"Each MPD maintains a local cache of the supernode host list, called
cached list ... To each host in the cache list is associated a network
latency value."  The booking step sorts this cache by ascending
latency (§4.2 step 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from repro.net.latency import LatencyEstimate
from repro.net.topology import Host

__all__ = ["CacheEntry", "PeerCache"]


@dataclass
class CacheEntry:
    """One cached peer."""

    host: Host
    latency_ms: Optional[float] = None
    n_samples: int = 0
    last_update: float = 0.0
    dead: bool = False

    @property
    def measured(self) -> bool:
        return self.latency_ms is not None


class PeerCache:
    """Insertion-ordered peer cache with latency bookkeeping.

    Membership is one ordered name -> :class:`Host` map; a
    :class:`CacheEntry` is only created when a peer is measured, marked
    dead or handed out by a query.  Most MPDs never measure anyone, so
    their boot-time merge of the supernode's host list only fills the
    map and creates no entries at all.
    """

    def __init__(self, owner: str) -> None:
        self.owner = owner
        #: Every member, dead or alive, in insertion order.
        self._hosts: Dict[str, Host] = {}
        #: Entries created so far (a subset of ``_hosts``).
        self._entries: Dict[str, CacheEntry] = {}
        #: Members marked dead and not yet dropped.
        self._dead: Set[str] = set()

    def __len__(self) -> int:
        return len(self._hosts) - len(self._dead)

    def __contains__(self, host_name: str) -> bool:
        return host_name in self._hosts and host_name not in self._dead

    def _entry(self, name: str) -> CacheEntry:
        entry = self._entries.get(name)
        if entry is None:
            entry = self._entries[name] = CacheEntry(host=self._hosts[name])
        return entry

    def _revive(self, name: str) -> None:
        self._dead.discard(name)
        self._entries[name].dead = False

    # -- updates ------------------------------------------------------------
    def add(self, host: Host) -> CacheEntry:
        """Insert or revive a peer; keeps existing measurements."""
        name = host.name
        if name not in self._hosts:
            self._hosts[name] = host
        elif name in self._dead:
            self._revive(name)
        return self._entry(name)

    def merge(self, hosts: Iterable[Host]) -> int:
        """Add many peers; returns the number of new entries."""
        members, dead = self._hosts, self._dead
        before = len(members)
        for host in hosts:
            name = host.name
            if name not in members:
                members[name] = host
            elif name in dead:
                self._revive(name)
        return len(members) - before

    def set_latency(self, host_name: str, estimate: LatencyEstimate,
                    now: float) -> None:
        entry = self._entry(host_name)
        entry.latency_ms = estimate.value_ms
        entry.n_samples += estimate.n_samples
        entry.last_update = now

    def fold_latency(self, host_name: str, sample_ms: float, now: float,
                     ewma_alpha: Optional[float] = None) -> float:
        """Fold one new probe into the cached value.

        With ``ewma_alpha`` the cache keeps an exponential moving
        average across ping rounds (the paper's future-work smoothing);
        without it the newest sample replaces the old value (the
        published behaviour: the cache holds the last measurement).
        """
        entry = self._entry(host_name)
        if entry.latency_ms is None or ewma_alpha is None:
            entry.latency_ms = sample_ms
        else:
            entry.latency_ms += ewma_alpha * (sample_ms - entry.latency_ms)
        entry.n_samples += 1
        entry.last_update = now
        return entry.latency_ms

    def mark_dead(self, host_name: str) -> None:
        if host_name in self._hosts:
            self._entry(host_name).dead = True
            self._dead.add(host_name)

    def drop_dead(self) -> List[str]:
        """Remove dead entries entirely; returns their names."""
        if not self._dead:
            return []
        dead = [name for name in self._hosts if name in self._dead]
        for name in dead:
            del self._hosts[name]
            del self._entries[name]
        self._dead.clear()
        return dead

    # -- queries -----------------------------------------------------------
    def entry(self, host_name: str) -> CacheEntry:
        return self._entry(host_name)

    def live_entries(self) -> List[CacheEntry]:
        dead = self._dead
        return [self._entry(name) for name in self._hosts
                if name not in dead]

    def unmeasured(self) -> List[CacheEntry]:
        return [e for e in self.live_entries() if not e.measured]

    def sorted_by_latency(self) -> List[CacheEntry]:
        """Live, measured entries by ascending latency (booking order).

        Ties (extremely unlikely with continuous latencies) break by
        host name for determinism.
        """
        entries, dead = self._entries, self._dead
        measured = [e for name, e in entries.items()
                    if name not in dead and e.measured]
        return sorted(measured, key=lambda e: (e.latency_ms, e.host.name))

    def hosts(self) -> List[Host]:
        dead = self._dead
        return [host for name, host in self._hosts.items()
                if name not in dead]
