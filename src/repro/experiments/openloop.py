"""Open-loop rounds: Poisson job streams against a churning grid.

The paper runs its campaigns on a shared, failure-prone Grid'5000
(§3.2, §5): users submit whenever they like, and worker hosts crash and
come back while jobs are in flight.  :func:`run_open_loop` is that round,
once, for every campaign that needs it (``churnload``, ``migration``).
A campaign supplies only what differs: the request each arrival submits
and, optionally, a controller started beside the round.

Random streams, all from the cluster simulator's generator:

* ``<prefix>.failures`` — the sustained churn schedule;
* ``<prefix>.arrivals.<host>`` — one Poisson arrival stream per
  submitter.

Processes are created in a fixed order — churn, then ``beside()``, then
the submitters in ``submitters`` order — so every draw and every event
of a round is a function of the cell seed alone.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.cluster import P2PMPICluster
from repro.middleware.jobs import JobRequest
from repro.overlay.churn import ChurnInjector, SurvivalLedger

__all__ = ["run_open_loop"]


def run_open_loop(
    cluster: P2PMPICluster,
    submitters: Sequence[str],
    make_request: Callable[[str], JobRequest],
    *,
    stream_prefix: str,
    horizon_s: float,
    arrival_rate_s: float,
    failure_rate_s: float,
    downtime_s: Optional[float],
    beside: Optional[Callable[[], object]] = None,
) -> SurvivalLedger:
    """One sustained round of competing submitters under churn.

    Each submitter runs an independent Poisson arrival process
    (``arrival_rate_s`` jobs/s) over ``horizon_s`` and submits
    ``make_request(tag)`` at each arrival, tagged ``<host>#<i>``.  One
    MPD serialises its own submissions, so a job arriving while the
    previous one is in flight queues up (backlog) instead of being
    dropped.  Every host that is neither a submitter nor the supernode
    anchor suffers sustained churn (``failure_rate_s`` crashes/host/s,
    fixed ``downtime_s`` repair; ``None`` = crashed hosts stay dead);
    crashes flow through the cluster's ``on_change`` hook for real.

    ``beside`` is called once the overlay is up and churn is scheduled,
    before the first submitter exists; it may spawn simulator processes
    (a controller loop) and must stop them itself after this returns.

    Returns the round's :class:`SurvivalLedger`.
    """
    cluster.boot()
    sim = cluster.sim
    ledger = SurvivalLedger()
    cluster.churn.ledger = ledger

    # Submitters and the supernode anchor are sheltered: killing the
    # bookkeeping endpoints measures protocol breakdown, not the §3.2
    # worker-failure story the rounds quantify.
    protected = set(submitters) | {cluster.supernode_host}
    victims = sorted(name for name in cluster.mpds if name not in protected)
    if failure_rate_s > 0.0 and victims:
        schedule = ChurnInjector.sustained_schedule(
            victims, failure_rate_s, horizon_s,
            sim.rng.stream(f"{stream_prefix}.failures"),
            downtime_s=downtime_s)
        cluster.churn.start(schedule)

    if beside is not None:
        beside()

    def stream(submitter: str, mpd, arrivals):
        next_arrival = 0.0
        index = 0
        while True:
            next_arrival += float(arrivals.exponential(1.0 / arrival_rate_s))
            if next_arrival >= horizon_s:
                return index
            if next_arrival > sim.now:
                yield sim.timeout(next_arrival - sim.now)
            result = yield from mpd.submit_job(
                make_request(f"{submitter}#{index}"))
            ledger.record_job(submitter, result)
            index += 1

    procs = []
    for submitter in submitters:
        arrivals = sim.rng.stream(f"{stream_prefix}.arrivals.{submitter}")
        procs.append(sim.process(
            stream(submitter, cluster.mpds[submitter], arrivals)))
    sim.run_until_complete(sim.all_of(procs))
    cluster.churn.ledger = None
    return ledger
