"""Per-host admission control ("gatekeeper", §3.2/§4.1).

The MPD "acts as a gatekeeper of the resource by controlling how many
processes and applications can be run simultaneously".  The gatekeeper
tracks both *held reservations* and *running applications* against the
owner's ``J`` limit, and validates process counts against ``P`` when an
application actually starts.

Admission is **atomic**: :meth:`Gatekeeper.try_admit` checks the owner
policy and pins the ``J`` slot in one indivisible step, so concurrent
submitters (the asyncio control plane of
:mod:`repro.middleware.controlplane`, or any interleaved RS traffic)
can never both pass the check and together exceed ``J``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set

from repro.middleware.config import OwnerPrefs

__all__ = ["AdmissionError", "Gatekeeper"]


class AdmissionError(RuntimeError):
    """Raised when a start violates the owner policy."""


@dataclass
class Gatekeeper:
    """Admission state for one host."""

    host_name: str
    prefs: OwnerPrefs
    #: Reservation keys currently held but not yet started.
    held: Set[str] = field(default_factory=set)
    #: job_id -> local process count for running applications.
    running: Dict[str, int] = field(default_factory=dict)
    #: Admissions :meth:`try_admit` refused (denied submitter or ``J``
    #: reached).
    refused: int = 0
    #: Reservation keys :meth:`try_admit` newly pinned to a ``J`` slot.
    admitted: int = 0

    # -- queries --------------------------------------------------------------
    @property
    def applications_in_flight(self) -> int:
        """Held reservations + running apps, compared against ``J``."""
        return len(self.held) + len(self.running)

    @property
    def busy_processes(self) -> int:
        """Total busy process slots (exported as the "load" the latency
        probes observe)."""
        return sum(self.running.values())

    # -- reservation lifecycle ---------------------------------------------------
    def try_admit(self, key: str, submitter: str) -> bool:
        """Atomically admit reservation ``key`` for ``submitter``.

        The §4.2 step-4 decision (``J`` not exceeded, submitter not
        denied) as one indivisible operation: the owner policy is
        validated at the instant the slot is pinned, so interleaved
        admissions can never exceed ``J``.

        Re-admitting a key that is already held is idempotent: the slot
        stays pinned once, no counter moves, and ``True`` is returned
        (the reservation this key names is in place either way).

        Returns
        -------
        bool
            ``True`` if the key holds a ``J`` slot after the call,
            ``False`` if the admission was refused (also counted in
            :attr:`refused`).
        """
        if key in self.held:
            return True
        if (not self.prefs.allows(submitter)
                or self.applications_in_flight >= self.prefs.j_limit):
            self.refused += 1
            return False
        self.held.add(key)
        self.admitted += 1
        return True

    def release_hold(self, key: str) -> bool:
        """Drop a held reservation (cancel/expiry); True if it existed."""
        if key in self.held:
            self.held.discard(key)
            return True
        return False

    # -- application lifecycle -----------------------------------------------------
    def start_application(self, key: str, job_id: str, n_processes: int) -> None:
        """Convert a held reservation into a running application.

        Raises
        ------
        AdmissionError
            If the key is not held or ``n_processes`` exceeds ``P``.
        """
        if key not in self.held:
            raise AdmissionError(
                f"{self.host_name}: start without held reservation"
            )
        if n_processes < 1 or n_processes > self.prefs.p_limit:
            raise AdmissionError(
                f"{self.host_name}: {n_processes} processes exceeds P="
                f"{self.prefs.p_limit}"
            )
        if job_id in self.running:
            raise AdmissionError(f"{self.host_name}: job {job_id} already running")
        self.held.discard(key)
        self.running[job_id] = n_processes

    def end_application(self, job_id: str) -> None:
        if job_id not in self.running:
            raise AdmissionError(f"{self.host_name}: job {job_id} not running")
        del self.running[job_id]

    # -- rank migration --------------------------------------------------------
    def adopt_process(self, job_id: str) -> None:
        """Account one migrated-in process joining a job already running
        here: the copy shares the job's existing ``J`` slot, only the
        process count (and thus :attr:`busy_processes`) moves.
        """
        if job_id not in self.running:
            raise AdmissionError(f"{self.host_name}: job {job_id} not running")
        self.running[job_id] += 1

    def release_process(self, job_id: str) -> None:
        """Account one process leaving a running job (migration out or
        an adopted copy completing); the application slot closes when
        the local count reaches zero.
        """
        if job_id not in self.running:
            raise AdmissionError(f"{self.host_name}: job {job_id} not running")
        self.running[job_id] -= 1
        if self.running[job_id] <= 0:
            del self.running[job_id]
