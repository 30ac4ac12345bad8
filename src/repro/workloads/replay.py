"""Replay a job stream against a cluster and collect operator metrics."""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.cluster import P2PMPICluster
from repro.middleware.jobs import JobResult
from repro.sim.resources import Resource
from repro.workloads.generator import TimedJob

__all__ = ["ReplayStats", "replay_stream"]


@dataclass
class ReplayStats:
    """Aggregated outcome of one stream replay."""

    outcomes: List[Tuple[TimedJob, JobResult]] = field(default_factory=list)

    @property
    def n_jobs(self) -> int:
        return len(self.outcomes)

    @property
    def accepted(self) -> int:
        return sum(1 for _job, res in self.outcomes if res.ok)

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.n_jobs if self.n_jobs else 1.0

    def status_histogram(self) -> Dict[str, int]:
        return dict(Counter(res.status.value for _j, res in self.outcomes))

    def reservation_times(self) -> np.ndarray:
        return np.array([res.timings.reservation_s
                         for _j, res in self.outcomes if res.ok])

    def mean_reservation_s(self) -> float:
        times = self.reservation_times()
        return float(times.mean()) if times.size else 0.0

    def total_retries(self) -> int:
        return sum(max(0, res.attempts - 1) for _j, res in self.outcomes)

    def cores_served_by_site(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for _job, res in self.outcomes:
            if res.plan is not None and res.ok:
                for site, cores in res.plan.cores_by_site().items():
                    out[site] += cores
        return dict(out)

    def summary(self) -> str:
        hist = ", ".join(f"{k}:{v}" for k, v in
                         sorted(self.status_histogram().items()))
        return (f"{self.n_jobs} jobs, acceptance "
                f"{self.acceptance_rate * 100:.1f}% [{hist}], "
                f"mean reservation {self.mean_reservation_s() * 1e3:.1f} ms, "
                f"{self.total_retries()} retries")


def replay_stream(cluster: P2PMPICluster,
                  jobs: Sequence[TimedJob]) -> ReplayStats:
    """Replay submissions at their arrival times.

    One MPD serialises its own submissions (the real daemon handles
    one ``p2pmpirun`` negotiation at a time), so same-submitter jobs
    queue behind each other while different submitters race freely —
    the contention the gatekeeper and retry machinery must absorb.
    """
    cluster.boot()
    sim = cluster.sim
    locks: Dict[str, Resource] = {}
    stats = ReplayStats()
    procs = []

    def one_job(job: TimedJob):
        if job.at_s > sim.now:
            yield sim.timeout(job.at_s - sim.now)
        lock = locks.setdefault(
            job.submitter, Resource(sim, capacity=1,
                                    name=f"submit:{job.submitter}"))
        grant = lock.request()
        yield grant
        try:
            result = yield from cluster.mpds[job.submitter].submit_job(
                job.request)
        finally:
            lock.release(grant)
        stats.outcomes.append((job, result))
        return result

    for job in jobs:
        procs.append(sim.process(one_job(job)))
    if procs:
        sim.run_until_complete(sim.all_of(procs))
    stats.outcomes.sort(key=lambda pair: pair[0].at_s)
    return stats
