"""Well-known service ports and message kinds of the overlay protocols.

Message *kinds* (string tags on :class:`repro.net.transport.Message`):

Supernode protocol (port ``supernode``):
    ``REGISTER`` -> ``REGISTER_ACK`` (payload ``peers``: the host list)
    ``ALIVE`` (periodic heartbeat)
    ``GET_PEERS`` -> ``PEERS`` (payload ``peers``: the host list)
    ``REPORT_DEAD`` (payload ``peers``: a list of names)

    The host list in ``REGISTER_ACK`` and ``PEERS`` is an ordered
    ``name -> Host`` map, in registration order, and a fresh copy per
    reply that the receiver may edit.  Its wire size is
    ``SIZE_CONTROL`` plus ``SIZE_PEERLIST_ENTRY`` per entry.

Reservation protocol (port ``rs``), §4.2 steps 3-5:
    ``RESERVE`` -> ``RESERVE_OK`` (payload: P) | ``RESERVE_NOK``
    ``CANCEL``

Job execution (port ``mpd``), §4.2 steps 6-8:
    ``START`` -> ``STARTED`` | ``START_REFUSED``
    ``DONE`` (process completion back to submitter)
    ``ABORT``
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SUPERNODE_PORT", "MPD_PORT", "RS_PORT", "Ports",
           "SIZE_CONTROL", "SIZE_PEERLIST_ENTRY"]

SUPERNODE_PORT = "supernode"
MPD_PORT = "mpd"
RS_PORT = "rs"

#: Wire size of a small control message (headers + a few fields).
SIZE_CONTROL = 256
#: Wire size per peer entry in a PEERS payload.
SIZE_PEERLIST_ENTRY = 48


@dataclass(frozen=True)
class Ports:
    """Reply-port naming helpers (unique per request)."""

    @staticmethod
    def rs_reply(key: str) -> str:
        return f"rs-reply:{key}"

    @staticmethod
    def start_reply(job_id: str) -> str:
        return f"start-reply:{job_id}"

    @staticmethod
    def done(job_id: str) -> str:
        return f"done:{job_id}"

    @staticmethod
    def supernode_reply(host: str) -> str:
        return f"sn-reply:{host}"

    @staticmethod
    def mpi(job_id: str, rank: int, replica: int) -> str:
        return f"mpi:{job_id}:{rank}:{replica}"
