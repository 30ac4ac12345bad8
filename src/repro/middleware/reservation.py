"""The Reservation Service (RS), §3.2/§4.2.

One RS runs beside every MPD.  On the submitter side it performs the
RS→RS brokering (step 3); on the remote side it answers RESERVE
requests against the gatekeeper (step 4) and remembers the hash key so
the MPD can verify START requests (step 7).  Unused reservations expire
after a TTL so overbooked keys cannot starve the host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List

from repro.middleware.gatekeeper import Gatekeeper
from repro.net.transport import Message, Network
from repro.overlay.messages import RS_PORT, SIZE_CONTROL
from repro.sim.core import Simulator

__all__ = ["Reservation", "ReservationService"]


@dataclass
class Reservation:
    """A held booking on the remote side."""

    key: str
    job_id: str
    submitter: str
    made_at: float
    expires_at: float
    consumed: bool = False


class ReservationService:
    """RS for one host.

    Parameters
    ----------
    sim, network:
        Substrate.
    host_name:
        Local host.
    gatekeeper:
        The co-located admission policy.
    ttl_s:
        Reservation time-to-live.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        host_name: str,
        gatekeeper: Gatekeeper,
        ttl_s: float = 60.0,
    ) -> None:
        self.sim = sim
        self.network = network
        self.host_name = host_name
        self.gatekeeper = gatekeeper
        self.ttl_s = ttl_s
        self.reservations: Dict[str, Reservation] = {}

    # -- remote side -----------------------------------------------------------
    def _expire(self) -> None:
        now = self.sim.now
        for key in [k for k, r in self.reservations.items()
                    if not r.consumed and r.expires_at <= now]:
            self.reservations.pop(key)
            self.gatekeeper.release_hold(key)

    def handle_reserve(self, msg: Message) -> None:
        """§4.2 step 4: accept or refuse a reservation request.

        Admission goes through the gatekeeper's atomic
        :meth:`~repro.middleware.gatekeeper.Gatekeeper.try_admit` — the
        policy check and the ``J``-slot pin are one indivisible step,
        so interleaved RESERVE traffic (concurrent submitters racing
        for the same host) can never overshoot the owner's limit.
        """
        self._expire()
        payload = msg.payload
        key: str = payload["key"]
        submitter: str = payload["submitter"]
        if self.gatekeeper.try_admit(key, submitter):
            self.reservations[key] = Reservation(
                key=key,
                job_id=payload["job_id"],
                submitter=submitter,
                made_at=self.sim.now,
                expires_at=self.sim.now + self.ttl_s,
            )
            self.network.send(
                self.host_name, msg.src, port=payload["reply_port"],
                kind="RESERVE_OK",
                payload={"p_limit": self.gatekeeper.prefs.p_limit},
                size_bytes=SIZE_CONTROL,
            )
        else:
            # try_admit counted the refusal in the gatekeeper ledger.
            self.network.send(
                self.host_name, msg.src, port=payload["reply_port"],
                kind="RESERVE_NOK", payload={"reason": "J exceeded or denied"},
                size_bytes=SIZE_CONTROL,
            )

    def handle_cancel(self, msg: Message) -> None:
        self.cancel(msg.payload["key"])

    def cancel(self, key: str) -> bool:
        res = self.reservations.pop(key, None)
        if res is not None and not res.consumed:
            self.gatekeeper.release_hold(key)
            return True
        return False

    # -- key verification (step 7) ------------------------------------------------
    def holds_key(self, key: str) -> bool:
        self._expire()
        res = self.reservations.get(key)
        return res is not None and not res.consumed

    def consume(self, key: str) -> Reservation:
        """Mark the reservation used by a START; returns it."""
        res = self.reservations[key]
        res.consumed = True
        return res

    def finish(self, key: str) -> None:
        """Forget a consumed reservation once its application ended."""
        self.reservations.pop(key, None)

    # -- service loop ----------------------------------------------------------------
    def service(self) -> Generator:
        """Process handling RS-port traffic forever."""
        while True:
            msg: Message = yield self.network.receive(self.host_name, RS_PORT)
            if msg.kind == "RESERVE":
                self.handle_reserve(msg)
            elif msg.kind == "CANCEL":
                self.handle_cancel(msg)
            # Unknown kinds ignored.

    # -- submitter-side brokering (step 3) ----------------------------------------------
    def broadcast_reserve(
        self,
        targets: List[str],
        key: str,
        job_id: str,
        reply_port: str,
    ) -> None:
        """Send RESERVE to every target RS with the unique hash key."""
        for target in targets:
            self.network.send(
                self.host_name, target, port=RS_PORT, kind="RESERVE",
                payload={
                    "key": key,
                    "job_id": job_id,
                    "submitter": self.host_name,
                    "reply_port": reply_port,
                },
                size_bytes=SIZE_CONTROL,
            )
