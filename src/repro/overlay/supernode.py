"""The supernode: bootstrap entry point and peer registry (§3.2).

The supernode maintains the *host list*: "Each list element simply is
the host IP and its services ports plus a 'last seen' time stamp."
Peers register on boot and send periodic alive signals; stale peers are
pruned lazily whenever the list is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List

from repro.net.transport import Message, Network
from repro.overlay.messages import (
    SIZE_CONTROL,
    SIZE_PEERLIST_ENTRY,
    SUPERNODE_PORT,
)

__all__ = ["PeerRecord", "Supernode"]


@dataclass
class PeerRecord:
    """One host-list entry.

    ``seq`` is the highest per-origin gossip sequence applied so far
    (see :mod:`repro.overlay.gossip`); updates carrying an older or
    equal ``seq`` are reordered/duplicated deliveries and are dropped
    rather than rolling ``last_seen`` backwards.
    """

    host_name: str
    last_seen: float
    seq: int = 0

    def stale(self, now: float, horizon: float) -> bool:
        return (now - self.last_seen) > horizon


class Supernode:
    """Registry service bound to one host.

    Parameters
    ----------
    network:
        Transport used for replies.
    host_name:
        Host the supernode runs on (its inbox must be registered).
    stale_after_s:
        A peer that has not been seen for this long is dropped from
        the host list on the next read.
    """

    def __init__(self, network: Network, host_name: str,
                 stale_after_s: float = 300.0) -> None:
        self.network = network
        self.host_name = host_name
        self.stale_after_s = stale_after_s
        self.records: Dict[str, PeerRecord] = {}
        #: A lower bound on every record's ``last_seen``, set by each
        #: :meth:`prune` scan; it stays one because simulated time only
        #: grows, so later records and touches are newer.
        self._oldest_seen = float("-inf")
        #: Diagnostics counters.
        self.registrations = 0
        self.alive_signals = 0
        self.peer_queries = 0
        self.stale_updates = 0

    # -- registry ------------------------------------------------------------
    def _touch(self, peer: str, now: float, seq: int = 0) -> bool:
        """Apply one membership update; False if dropped as stale.

        A ``seq`` of 0 means the sender predates sequence stamping
        (or the message kind carries none) — always applied, matching
        the pre-seq behaviour.
        """
        rec = self.records.get(peer)
        if rec is None:
            self.records[peer] = PeerRecord(peer, now, seq)
            return True
        if seq and seq <= rec.seq:
            self.stale_updates += 1
            return False
        rec.last_seen = now
        if seq:
            rec.seq = seq
        return True

    def prune(self, now: float) -> List[str]:
        """Drop stale records; returns the dropped names."""
        if now - self._oldest_seen <= self.stale_after_s:
            return []  # even the oldest record is still fresh
        dead = [
            name for name, rec in self.records.items()
            if rec.stale(now, self.stale_after_s)
        ]
        for name in dead:
            del self.records[name]
        self._oldest_seen = min(
            (rec.last_seen for rec in self.records.values()), default=now)
        return dead

    def peer_list(self, now: float) -> List[str]:
        """Current live host list, registration-order deterministic."""
        self.prune(now)
        return list(self.records)

    def drop(self, peer: str) -> None:
        """Explicitly remove a peer (used when an MPD reports a death)."""
        self.records.pop(peer, None)

    # -- service process -------------------------------------------------------
    def service(self) -> Generator:
        """Simulated process answering supernode-port traffic forever."""
        sim = self.network.sim
        while True:
            msg: Message = yield self.network.receive(self.host_name, SUPERNODE_PORT)
            now = sim.now
            if msg.kind == "REGISTER":
                self.registrations += 1
                self._touch(msg.src, now, msg.payload.get("seq", 0))
                peers = self.peer_list(now)
                self.network.send(
                    self.host_name, msg.src,
                    port=msg.payload["reply_port"], kind="REGISTER_ACK",
                    payload={"peers": peers},
                    size_bytes=SIZE_CONTROL + SIZE_PEERLIST_ENTRY * len(peers),
                )
            elif msg.kind == "ALIVE":
                self.alive_signals += 1
                self._touch(msg.src, now, msg.payload.get("seq", 0))
            elif msg.kind == "GET_PEERS":
                self.peer_queries += 1
                self._touch(msg.src, now)
                peers = self.peer_list(now)
                self.network.send(
                    self.host_name, msg.src,
                    port=msg.payload["reply_port"], kind="PEERS",
                    payload={"peers": peers},
                    size_bytes=SIZE_CONTROL + SIZE_PEERLIST_ENTRY * len(peers),
                )
            elif msg.kind == "REPORT_DEAD":
                for name in msg.payload["peers"]:
                    self.drop(name)
            # Unknown kinds are ignored (forward compatibility).
