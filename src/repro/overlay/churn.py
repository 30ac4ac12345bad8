"""Failure/churn injection.

Grid failures are "far more frequent than on supercomputers" (§3.2) —
this module schedules host crashes (and optional revivals) so the
fault-tolerance layer and the reservation timeouts can be exercised
deterministically.

Two schedule families exist:

* :meth:`ChurnInjector.first_failure_schedule` — at most one failure
  per host, drawn as an exponential time-to-first-failure.  Sweeping
  its ``rate`` is really a sweep of *P(fail before horizon)*; use it
  for one-shot survival probes (the §3.2 replication ablation).
* :meth:`ChurnInjector.sustained_schedule` — an ongoing Poisson
  failure process per host over the whole horizon, optionally with a
  fixed repair downtime (alternating renewal process).  This is the
  mode whose ``rate`` is an honest events-per-second axis, and the one
  the churn-under-load campaign sweeps.

A :class:`SurvivalLedger` can be attached to an injector to record
what actually happened: every applied crash/revival, plus (fed by the
experiment driver) the per-job outcome — which replicas died, which
jobs completed degraded and which failed outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Sequence

import numpy as np

from repro.net.transport import Network
from repro.sim.core import Simulator

__all__ = ["FailureEvent", "ChurnInjector", "JobSurvival", "SurvivalLedger"]


@dataclass(frozen=True)
class FailureEvent:
    """One scheduled state change."""

    time: float
    host_name: str
    down: bool  # True = crash, False = revive


#: Statuses of jobs that actually launched (their replicas were exposed
#: to churn); LAUNCH_FAILED/INFEASIBLE jobs never started any copy.
_LAUNCHED_STATUSES = ("success", "degraded", "ranks_lost")


@dataclass(frozen=True)
class JobSurvival:
    """Per-job outcome entry of a :class:`SurvivalLedger`."""

    job_id: str
    submitter: str
    strategy: str
    status: str
    copies_planned: int
    copies_done: int
    ranks_lost: int
    hosts_used: int
    submitted_at: float
    finished_at: float
    #: Copy moves observed while the job ran (cooperative migrations /
    #: crash resurrections); informational, never part of copies_done.
    copies_migrated: int = 0
    copies_rejoined: int = 0

    @property
    def copies_lost(self) -> int:
        return self.copies_planned - self.copies_done

    @property
    def completion_s(self) -> float:
        return self.finished_at - self.submitted_at

    @property
    def completed(self) -> bool:
        """Did the job deliver a result (possibly with replicas lost)?"""
        return self.status in ("success", "degraded")

    @property
    def launched(self) -> bool:
        return self.status in _LAUNCHED_STATUSES


class SurvivalLedger:
    """What churn did to a round: applied events + per-job outcomes.

    The injector appends every crash/revival it applies; the experiment
    driver appends one :class:`JobSurvival` per finished submission.
    The derived metrics answer the §3.2 questions directly:
    *availability* (jobs that delivered a result / jobs submitted) and
    *replica survival* (process copies that completed / copies planned,
    over jobs that actually launched).
    """

    def __init__(self) -> None:
        self.crashes: List[FailureEvent] = []
        self.revivals: List[FailureEvent] = []
        self.jobs: List[JobSurvival] = []

    # -- recording ---------------------------------------------------------
    def record_event(self, event: FailureEvent) -> None:
        (self.crashes if event.down else self.revivals).append(event)

    def record_job(self, submitter: str, result) -> JobSurvival:
        """Derive and append the ledger entry for one JobResult.

        Migration-aware: only genuine completion payloads (``event`` is
        ``"done"`` or absent) count as done copies, so a rank that
        moved hosts mid-run and then completed is counted exactly once
        — MIGRATED/REJOINED notices can neither inflate ``copies_done``
        nor hide a rank as lost.  The moves themselves are tallied
        separately from ``result.migrations``.
        """
        plan = result.plan
        done = {key for key, payload in result.completions.items()
                if (payload or {}).get("event", "done") == "done"}
        moves = getattr(result, "migrations", [])
        entry = JobSurvival(
            job_id=result.job_id,
            submitter=submitter,
            strategy=result.request.strategy,
            status=result.status.value,
            copies_planned=(0 if plan is None else plan.total_processes),
            copies_done=len(done),
            ranks_lost=(0 if plan is None else
                        plan.n - len({r for r, _c in done})),
            hosts_used=(0 if plan is None else len(plan.used_hosts())),
            submitted_at=result.timings.submitted_at,
            finished_at=result.timings.finished_at,
            copies_migrated=sum(1 for m in moves
                                if m.get("event") == "migrated"),
            copies_rejoined=sum(1 for m in moves
                                if m.get("event") == "rejoined"),
        )
        self.jobs.append(entry)
        return entry

    # -- derived metrics ---------------------------------------------------
    @property
    def jobs_submitted(self) -> int:
        return len(self.jobs)

    @property
    def jobs_completed(self) -> int:
        return sum(1 for j in self.jobs if j.completed)

    @property
    def jobs_degraded(self) -> int:
        return sum(1 for j in self.jobs if j.status == "degraded")

    @property
    def jobs_failed(self) -> int:
        return sum(1 for j in self.jobs if not j.completed)

    def availability(self) -> Optional[float]:
        """Fraction of submitted jobs that delivered a result."""
        if not self.jobs:
            return None
        return self.jobs_completed / self.jobs_submitted

    def replica_survival(self) -> Optional[float]:
        """Completed copies / planned copies over launched jobs."""
        planned = sum(j.copies_planned for j in self.jobs if j.launched)
        if planned == 0:
            return None
        done = sum(j.copies_done for j in self.jobs if j.launched)
        return done / planned

    def statuses(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for job in self.jobs:
            out[job.status] = out.get(job.status, 0) + 1
        return dict(sorted(out.items()))

    def mean_completion_s(self) -> Optional[float]:
        """Mean submitted-to-finished time over completed jobs."""
        times = [j.completion_s for j in self.jobs if j.completed]
        if not times:
            return None
        return sum(times) / len(times)

    def summary(self) -> Dict[str, object]:
        """JSON-able round summary (floats rounded: store-stable)."""
        availability = self.availability()
        survival = self.replica_survival()
        mean_completion = self.mean_completion_s()
        return {
            "jobs": self.jobs_submitted,
            "completed": self.jobs_completed,
            "degraded": self.jobs_degraded,
            "failed": self.jobs_failed,
            "statuses": self.statuses(),
            "availability": (None if availability is None
                             else round(availability, 6)),
            "copies_planned": sum(j.copies_planned for j in self.jobs
                                  if j.launched),
            "copies_done": sum(j.copies_done for j in self.jobs
                               if j.launched),
            "replica_survival": (None if survival is None
                                 else round(survival, 6)),
            "mean_completion_s": (None if mean_completion is None
                                  else round(mean_completion, 6)),
            "migrations": sum(j.copies_migrated for j in self.jobs),
            "rejoins": sum(j.copies_rejoined for j in self.jobs),
            "crashes": len(self.crashes),
            "revivals": len(self.revivals),
        }


class ChurnInjector:
    """Applies a deterministic schedule of host crashes/revivals.

    Parameters
    ----------
    sim, network:
        Substrate; crashes are applied via ``network.set_down``.
    on_change:
        Optional hook ``(host_name, down) -> None`` so higher layers
        (MPD tables, gatekeeper) can react.
    ledger:
        Optional :class:`SurvivalLedger` recording every applied event
        (may also be attached later via the attribute).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        on_change: Optional[Callable[[str, bool], None]] = None,
        ledger: Optional[SurvivalLedger] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.on_change = on_change
        self.ledger = ledger
        self.applied: List[FailureEvent] = []

    # -- schedule construction ---------------------------------------------
    @staticmethod
    def first_failure_schedule(
        hosts: Sequence[str],
        rate_per_host_s: float,
        horizon_s: float,
        rng: np.random.Generator,
        revive_after_s: Optional[float] = None,
    ) -> List[FailureEvent]:
        """Independent exponential time-to-*first*-failure per host.

        Each host crashes **at most once**: the draw is a single
        exponential sample, so the effective knob is the probability
        ``1 - exp(-rate * horizon)`` of failing within the horizon, not
        a sustained event rate.  For an honest rate axis (ongoing
        failures over the horizon) use :meth:`sustained_schedule`.
        """
        events: List[FailureEvent] = []
        for name in hosts:
            t = float(rng.exponential(1.0 / rate_per_host_s))
            if t < horizon_s:
                events.append(FailureEvent(t, name, True))
                if revive_after_s is not None and t + revive_after_s < horizon_s:
                    events.append(FailureEvent(t + revive_after_s, name, False))
        events.sort(key=lambda e: (e.time, e.host_name))
        return events

    @staticmethod
    def sustained_schedule(
        hosts: Sequence[str],
        rate_per_host_s: float,
        horizon_s: float,
        rng: np.random.Generator,
        downtime_s: Optional[float] = None,
    ) -> List[FailureEvent]:
        """Ongoing failures over the whole horizon (the sustained mode).

        Each host runs an independent alternating renewal process: up
        intervals are exponential with the given rate, down intervals
        last exactly ``downtime_s`` before the host revives and becomes
        eligible to fail again.  With ``downtime_s=None`` a crashed
        host never revives, so the first crash is also the last (the
        remaining draws are consumed by no one — the per-host sequence
        simply stops).

        Events are generated host by host in the order given (one rng
        consumption order), then time-sorted; a fixed seed therefore
        yields a byte-stable schedule regardless of later re-sorting.
        """
        if rate_per_host_s <= 0:
            raise ValueError("rate_per_host_s must be > 0")
        if horizon_s <= 0:
            raise ValueError("horizon_s must be > 0")
        if downtime_s is not None and downtime_s <= 0:
            raise ValueError("downtime_s must be > 0 (or None)")
        events: List[FailureEvent] = []
        for name in hosts:
            t = 0.0
            while True:
                t += float(rng.exponential(1.0 / rate_per_host_s))
                if t >= horizon_s:
                    break
                events.append(FailureEvent(t, name, True))
                if downtime_s is None:
                    break  # permanent death: no revival, no further draws
                t += downtime_s
                if t >= horizon_s:
                    break
                events.append(FailureEvent(t, name, False))
        events.sort(key=lambda e: (e.time, e.host_name))
        return events

    @staticmethod
    def kill_at(times_hosts: Sequence[tuple]) -> List[FailureEvent]:
        """Explicit schedule: iterable of ``(time, host_name)``."""
        return sorted(
            (FailureEvent(t, h, True) for t, h in times_hosts),
            key=lambda e: (e.time, e.host_name),
        )

    # -- execution ------------------------------------------------------------
    def run(self, schedule: Sequence[FailureEvent]) -> Generator:
        """Process body applying the schedule in order."""
        last = 0.0
        for event in schedule:
            if event.time < last:
                raise ValueError("schedule must be time-sorted")
            if event.time > self.sim.now:
                yield self.sim.timeout(event.time - self.sim.now)
            last = event.time
            self.network.set_down(event.host_name, event.down)
            self.applied.append(event)
            if self.ledger is not None:
                self.ledger.record_event(event)
            if self.on_change is not None:
                self.on_change(event.host_name, event.down)

    def start(self, schedule: Sequence[FailureEvent]):
        """Spawn the injector as a simulation process."""
        return self.sim.process(self.run(schedule))
