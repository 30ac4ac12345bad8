"""Peer membership daemon: the overlay half of the MPD (§3.2).

``mpiboot`` starts an MPD whose overlay duties are:

* join the overlay by registering with a known supernode;
* send periodic alive signals;
* maintain the cached host list and its latency values;
* answer latency probes (ping responder).

The job-coordination half (reservation, allocation, launch) lives in
:mod:`repro.middleware.mpd`, which composes this class.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.net.latency import LatencyModel
from repro.net.ping import PingService
from repro.net.topology import Host, Topology
from repro.net.transport import Network
from repro.overlay.cache import PeerCache
from repro.overlay.messages import SIZE_CONTROL, SUPERNODE_PORT, Ports
from repro.sim.core import Simulator

__all__ = ["PeerDaemon"]


class PeerDaemon:
    """Overlay membership state machine for one host.

    Parameters
    ----------
    sim, network, topology:
        Simulation substrate.
    host:
        The local host.
    supernode_host:
        Well-known supernode location (boot-strap entry point).
    latency_model:
        Shared model from which ping estimates are drawn.
    alive_period_s:
        Heartbeat period.
    ping_samples:
        Probes averaged per latency estimate.
    ewma_alpha:
        Optional smoothing factor for repeated estimates (future-work
        knob; ``None`` = plain mean, the paper's behaviour).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        topology: Topology,
        host: Host,
        supernode_host: str,
        latency_model: LatencyModel,
        alive_period_s: float = 60.0,
        ping_samples: int = 3,
        ewma_alpha: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.topology = topology
        self.host = host
        self.supernode_host = supernode_host
        self.latency_model = latency_model
        self.alive_period_s = alive_period_s
        self.ping_samples = ping_samples
        self.ewma_alpha = ewma_alpha
        self.cache = PeerCache(owner=host.name)
        self.ping = PingService(network, latency_model, host)
        self.joined = False
        self._procs: List = []
        #: Bumped on every (re-)join; stale alive loops notice and exit.
        self._alive_generation = 0
        #: Per-origin gossip sequence: every membership update this peer
        #: emits (REGISTER, ALIVE) carries a fresh monotonically rising
        #: ``seq`` so receivers can drop reordered/duplicated state (see
        #: :mod:`repro.overlay.gossip`).
        self._state_seq = 0

    def next_seq(self) -> int:
        """Stamp the next outgoing state update."""
        self._state_seq += 1
        return self._state_seq

    # -- lifecycle ---------------------------------------------------------
    def boot(self) -> Generator:
        """Join the overlay: register and seed the cache (``mpiboot``)."""
        yield from self._register()
        # Background services.
        self._procs.append(self.sim.process(self.ping.responder()))
        self._alive_generation += 1
        self._procs.append(
            self.sim.process(self._alive_loop(self._alive_generation)))
        return len(self.cache)

    def rejoin(self) -> Generator:
        """Re-join after a revival: a crashed host lost its supernode
        registration (missed alive signals, REPORT_DEAD), so it must
        register again and restart the alive loop.  The ping responder
        and service loops survived the outage (they only ever block on
        receives, and a down host receives nothing), so only the
        membership half is redone.
        """
        yield from self._register()
        self._alive_generation += 1
        self._procs.append(
            self.sim.process(self._alive_loop(self._alive_generation)))
        return len(self.cache)

    def _register(self) -> Generator:
        reply_port = Ports.supernode_reply(self.host.name)
        self.network.send(
            self.host.name, self.supernode_host, port=SUPERNODE_PORT,
            kind="REGISTER",
            payload={"reply_port": reply_port, "seq": self.next_seq()},
            size_bytes=SIZE_CONTROL,
        )
        msg = yield self.network.receive(self.host.name, reply_port, "REGISTER_ACK")
        self._merge_reply(msg.payload["peers"])
        self.joined = True

    def _alive_loop(self, generation: int) -> Generator:
        while True:
            yield self.sim.timeout(self.alive_period_s)
            if generation != self._alive_generation:
                return  # superseded by a rejoin's fresh loop
            if self.network.is_down(self.host.name):
                return
            self.network.send(
                self.host.name, self.supernode_host, port=SUPERNODE_PORT,
                kind="ALIVE", payload={"seq": self.next_seq()},
                size_bytes=SIZE_CONTROL,
            )

    # -- cache maintenance -----------------------------------------------------
    def _merge_reply(self, peers: Dict[str, Host]) -> int:
        """Seed the cache from a supernode reply (a fresh copy, so it is
        ours to edit) minus this host itself."""
        peers.pop(self.host.name, None)
        return self.cache.merge_peers(peers)

    def refresh_cache(self) -> Generator:
        """Ask the supernode for recently registered peers (§4.2 step 2)."""
        reply_port = Ports.supernode_reply(self.host.name)
        self.network.send(
            self.host.name, self.supernode_host, port=SUPERNODE_PORT,
            kind="GET_PEERS", payload={"reply_port": reply_port},
            size_bytes=SIZE_CONTROL,
        )
        msg = yield self.network.receive(self.host.name, reply_port, "PEERS")
        return self._merge_reply(msg.payload["peers"])

    def measure_latencies(self, only_unmeasured: bool = True) -> int:
        """Estimate RTT to cached peers (analytic fast path).

        Returns the number of peers measured.  The local host itself is
        cached implicitly by the middleware with its LAN latency, so it
        participates in its own allocations like any peer.
        """
        entries = (
            self.cache.unmeasured() if only_unmeasured else self.cache.live_entries()
        )
        for entry in entries:
            est = self.ping.estimate(
                entry.host, samples=self.ping_samples, ewma_alpha=self.ewma_alpha
            )
            self.cache.set_latency(entry.host.name, est, self.sim.now)
        return len(entries)

    def probe_latency(self, target: Host) -> Generator:
        """Message-level probe (used by protocol tests); ms or None."""
        rtt = yield from self.ping.probe(target)
        return rtt

    def periodic_ping(self, period_s: float = 30.0) -> Generator:
        """§4.1: "each neighbor in the cache is periodically ping'ed to
        assess network latency to it".

        Each round draws one probe per live cached peer and folds it
        into the cache (EWMA-smoothed when ``ewma_alpha`` is set).
        Runs until the local host dies or a rejoin supersedes it (the
        restarted ``mpiboot`` spawns a fresh loop).
        """
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        generation = self._alive_generation
        while True:
            yield self.sim.timeout(period_s)
            if generation != self._alive_generation:
                return  # superseded by a rejoin's fresh loop
            if self.network.is_down(self.host.name):
                return
            now = self.sim.now
            for entry in self.cache.live_entries():
                est = self.ping.estimate(entry.host, samples=1)
                self.cache.fold_latency(entry.host.name, est.value_ms, now,
                                        ewma_alpha=self.ewma_alpha)

    def report_dead(self, names: List[str]) -> None:
        """Tell the supernode about peers that failed to answer."""
        for name in names:
            self.cache.mark_dead(name)
        self.cache.drop_dead()
        if names:
            self.network.send(
                self.host.name, self.supernode_host, port=SUPERNODE_PORT,
                kind="REPORT_DEAD", payload={"peers": list(names)},
                size_bytes=SIZE_CONTROL,
            )
