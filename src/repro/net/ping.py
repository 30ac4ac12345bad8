"""Application-level RTT probes (the paper's non-ICMP "ping").

Two implementations with identical statistics:

* :meth:`PingService.probe` — a real round trip over the transport
  (PING/PONG messages through the peer's MPD port).  Used in protocol
  correctness tests.
* :meth:`PingService.estimate` — a direct draw from the latency model
  (no events).  Used by MPDs at scale, where 350 peers x k samples per
  allocation would otherwise dominate the event count.

``tests/net/test_ping.py`` cross-validates the two paths.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.net.latency import LatencyEstimate, LatencyModel
from repro.net.topology import Host
from repro.net.transport import Message, Network

__all__ = ["PingService", "PING_PORT"]

#: Port on which every MPD answers latency probes.
PING_PORT = "ping"


class PingService:
    """Round-trip measurement helper bound to one local host."""

    def __init__(self, network: Network, latency: LatencyModel, host: Host) -> None:
        self.network = network
        self.latency = latency
        self.host = host
        self._seq = 0

    # -- responder ------------------------------------------------------------
    def responder(self) -> Generator:
        """Simulated process answering PINGs forever; run per MPD."""
        while True:
            msg: Message = yield self.network.receive(self.host.name, PING_PORT, "PING")
            self.network.send(
                self.host.name, msg.src, port=msg.payload["reply_port"],
                kind="PONG", payload={"seq": msg.payload["seq"]},
            )

    # -- message-level probe -----------------------------------------------------
    def probe(self, target: Host, timeout_s: float = 5.0) -> Generator:
        """Process body measuring one RTT; returns ms or None on timeout."""
        self._seq += 1
        seq = self._seq
        reply_port = f"pong:{self.host.name}:{seq}"
        start = self.network.sim.now
        self.network.send(
            self.host.name, target.name, port=PING_PORT, kind="PING",
            payload={"seq": seq, "reply_port": reply_port},
        )
        reply = self.network.receive(self.host.name, reply_port, "PONG")
        deadline = self.network.sim.timeout(timeout_s)
        fired = yield self.network.sim.any_of([reply, deadline])
        if reply in fired:
            return (self.network.sim.now - start) * 1000.0
        reply.cancel()
        return None

    # -- analytic probe ------------------------------------------------------------
    def estimate(
        self,
        target: Host,
        samples: int = 3,
        ewma_alpha: Optional[float] = None,
    ) -> LatencyEstimate:
        """Draw a measured-RTT estimate directly from the latency model.

        Matches the statistics of :meth:`probe` (same noise stream
        family) at zero event cost; the constant software overhead of a
        real round trip is added for fidelity.
        """
        est = self.latency.estimate(self.host, target, samples=samples,
                                    ewma_alpha=ewma_alpha)
        est.value_ms += 2_000.0 * self.network.sw_overhead_s
        return est
