"""Message transport between simulated hosts.

Every host that registers with the :class:`Network` gets an
:class:`~repro.net.inbox.Inbox` with one FIFO per port, so a receive
only ever looks at its own port's traffic.  ``send`` computes the
delivery time from the latency model, the payload size and the
bandwidth allocator, then schedules delivery into the destination
inbox.  Failed (dead) hosts silently drop traffic,
which is exactly what a crashed MPD does from the sender's viewpoint —
the reservation protocol's timeouts are what detect it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.bandwidth import BandwidthAllocator
from repro.net.inbox import Inbox, MatchFn, Receive
from repro.net.latency import LatencyModel
from repro.net.topology import Host, Topology
from repro.sim.core import Simulator

__all__ = ["Message", "Network"]

#: Fixed per-message software overhead in seconds (marshalling, syscall).
DEFAULT_SW_OVERHEAD_S = 20e-6


@dataclass
class Message:
    """A delivered network message.

    Attributes
    ----------
    src, dst:
        Host names.
    port:
        Logical service name at the destination (``"mpd"``, ``"rs"``,
        ``"mpi:<job>:<slot>"`` ...).
    kind:
        Message type tag (protocol-specific).
    payload:
        Arbitrary picklable-equivalent content.
    size_bytes:
        Wire size used for the bandwidth term.
    sent_at / delivered_at:
        Simulation timestamps.
    """

    src: str
    dst: str
    port: str
    kind: str
    payload: Any = None
    size_bytes: int = 0
    sent_at: float = 0.0
    delivered_at: float = 0.0
    msg_id: int = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Message #{self.msg_id} {self.kind} {self.src}->{self.dst}"
                f":{self.port} {self.size_bytes}B>")


class Network:
    """Delivers messages between registered host inboxes.

    Parameters
    ----------
    sim:
        The simulator.
    topology:
        Static site/host/link description.
    latency:
        Latency model; if omitted a noiseless model on the simulator's
        ``net.latency`` stream is built.
    sw_overhead_s:
        Fixed per-message software overhead.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        latency: Optional[LatencyModel] = None,
        sw_overhead_s: float = DEFAULT_SW_OVERHEAD_S,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.latency = latency or LatencyModel(
            topology, sim.rng.stream("net.latency"), noise_sigma_ms=0.0
        )
        self.bandwidth = BandwidthAllocator(topology)
        self.sw_overhead_s = sw_overhead_s
        self._inboxes: Dict[str, Inbox] = {}
        self._down: Dict[str, bool] = {}
        self._msg_ids = count(1)
        #: (host, port) -> host the port moved to (rank migration).
        self._redirects: Dict[Tuple[str, str], str] = {}
        #: (host, port) -> arrival predicate; a False verdict drops the
        #: message at delivery time (stale-duplicate suppression).
        self._port_filters: Dict[Tuple[str, str], Callable[[Message], bool]] = {}
        #: Delivered-message counter (diagnostics).
        self.messages_delivered = 0
        self.messages_dropped = 0
        #: Messages that landed through a port redirect.
        self.messages_forwarded = 0
        #: Messages a port filter rejected on arrival.
        self.messages_filtered = 0

    # -- membership -----------------------------------------------------
    def register(self, host_name: str) -> Inbox:
        """Create (or return) the inbox for ``host_name``."""
        if host_name not in self.topology.hosts:
            raise KeyError(f"unknown host {host_name!r}")
        inbox = self._inboxes.get(host_name)
        if inbox is None:
            inbox = Inbox(self.sim)
            self._inboxes[host_name] = inbox
            self._down[host_name] = False
        return inbox

    def inbox(self, host_name: str) -> Inbox:
        return self._inboxes[host_name]

    def set_down(self, host_name: str, down: bool = True) -> None:
        """Mark a host dead (drops all traffic to it) or alive again."""
        if host_name not in self._inboxes:
            raise KeyError(f"host {host_name!r} never registered")
        self._down[host_name] = down

    def is_down(self, host_name: str) -> bool:
        return self._down.get(host_name, False)

    # -- port mobility (rank migration) ---------------------------------
    def redirect_port(self, old_host: str, port: str, new_host: str) -> None:
        """Re-register ``port``: traffic addressed to ``old_host`` lands
        at ``new_host`` from now on.

        Senders that look placements up before every send switch over on
        their own; the redirect catches messages already scheduled for
        delivery (and senders still holding the stale address).  Entries
        are path-compressed on every install, so chains (A→B→C) resolve
        in one hop and a copy migrating *back* (A→B then B→A) cannot
        form a cycle — the target of a new redirect is a live endpoint,
        so any stale entry claiming it moved is deleted first.
        """
        self._redirects.pop((new_host, port), None)
        self._redirects[(old_host, port)] = new_host
        for key in [k for k in self._redirects if k[1] == port]:
            hop = self._redirects[key]
            seen = {key[0]}
            while (hop, port) in self._redirects and hop not in seen:
                seen.add(hop)
                hop = self._redirects[(hop, port)]
            self._redirects[key] = hop

    def resolve_port(self, host_name: str, port: str) -> str:
        """The host currently serving ``port`` for ``host_name``."""
        return self._redirects.get((host_name, port), host_name)

    def move_queued(self, old_host: str, port: str, new_host: str) -> int:
        """Move ``port``'s queued inbox items between hosts; returns count.

        Used together with :meth:`redirect_port` when a (rank, replica)
        copy migrates: messages that already arrived but were not yet
        consumed follow the copy so no logical message is lost.
        """
        src = self._inboxes.get(old_host)
        if src is None:
            return 0
        moved = src.discard(port)
        dst = self.register(new_host)
        for msg in moved:
            dst.deliver(msg)
        return len(moved)

    # -- arrival filters -------------------------------------------------
    def set_port_filter(self, host_name: str, port: str,
                        predicate: Callable[[Message], bool]) -> None:
        """Install an arrival predicate for ``(host, port)``.

        Messages failing the predicate are counted in
        :attr:`messages_filtered` and never enter the inbox — the
        mechanism the replicated-MPI layer uses to stop stale duplicate
        copies from accumulating after their logical delivery.
        """
        self._port_filters[(host_name, port)] = predicate

    def clear_port_filter(self, host_name: str, port: str) -> None:
        self._port_filters.pop((host_name, port), None)

    # -- sending -----------------------------------------------------------
    def transfer_time_s(self, src: Host, dst: Host, size_bytes: int) -> float:
        """Latency + serialization time for one message, with contention."""
        delay = self.latency.one_way_delay_s(src, dst) + self.sw_overhead_s
        if size_bytes > 0 and src.name != dst.name:
            bw = self.bandwidth.effective_bandwidth_bps(src, dst)
            delay += size_bytes * 8.0 / bw
        return delay

    def send(
        self,
        src: str,
        dst: str,
        port: str,
        kind: str,
        payload: Any = None,
        size_bytes: int = 0,
    ) -> Message:
        """Fire-and-forget message; returns the (scheduled) message.

        Delivery is silently dropped if the destination is down or was
        never registered — like TCP connect timeouts to a dead peer,
        the *caller's* protocol timeout is the detection mechanism.
        """
        src_host = self.topology.host(src)
        dst_host = self.topology.host(dst)
        msg = Message(
            src=src,
            dst=dst,
            port=port,
            kind=kind,
            payload=payload,
            size_bytes=size_bytes,
            sent_at=self.sim.now,
            msg_id=next(self._msg_ids),
        )
        if self._down.get(src, False):
            # A dead host cannot send either.
            self.messages_dropped += 1
            return msg
        route = self.resolve_port(dst, port)
        if self._inboxes.get(route) is None or self._down.get(route, False):
            self.messages_dropped += 1
            return msg

        delay = self.transfer_time_s(src_host, dst_host, size_bytes)
        uses_bw = size_bytes > 0 and src != dst
        if uses_bw:
            self.bandwidth.acquire(src_host, dst_host)

        def _deliver(_event) -> None:
            if uses_bw:
                self.bandwidth.release(src_host, dst_host)
            # Resolve again at delivery time: the port may have migrated
            # while this message was in flight.
            landing = self.resolve_port(dst, port)
            box = self._inboxes.get(landing)
            if box is None or self._down.get(landing, False):
                self.messages_dropped += 1
                return
            accept = self._port_filters.get((landing, port))
            if accept is not None and not accept(msg):
                self.messages_filtered += 1
                return
            if landing != dst:
                self.messages_forwarded += 1
            msg.delivered_at = self.sim.now
            self.messages_delivered += 1
            box.deliver(msg)

        evt = self.sim.event(name=f"deliver:{msg.msg_id}")
        evt.callbacks.append(_deliver)
        evt.succeed(delay=delay)
        return msg

    # -- receiving helpers ---------------------------------------------------
    def receive(self, host_name: str, port: str, kind: Optional[str] = None,
                match: Optional[MatchFn] = None) -> Receive:
        """Event yielding the next message for ``port`` at ``host_name``
        with ``kind`` (if given) that ``match`` accepts (if given).

        Call :meth:`Receive.cancel` on it when a deadline wins, so the
        receive does not stay queued on the port.
        """
        return self._inboxes[host_name].receive(port, kind, match)

    def discard(self, host_name: str, port: str,
                predicate: Optional[MatchFn] = None) -> List[Message]:
        """Remove and return ``port``'s queued messages at ``host_name``
        that satisfy ``predicate`` (all of them without one)."""
        return self._inboxes[host_name].discard(port, predicate)
