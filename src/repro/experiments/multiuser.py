"""Multi-user contention experiments.

§4 motivates the owner policies with "the grid is a multi-user
platform".  This driver submits several jobs *concurrently* from
different peers and verifies what the gatekeeper (``J`` limits) and the
hash-keyed reservations guarantee: no host ever runs more concurrent
applications than its owner allows, and with ``J=1`` the allocations of
simultaneously-running jobs are disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster import ClusterSpec, P2PMPICluster
from repro.experiments.engine import (CellContext, ExperimentSpec,
                                      make_spec, run_sweep)
from repro.middleware.jobs import JobRequest, JobResult

__all__ = ["MultiUserOutcome", "run_multiuser_experiment",
           "multiuser_cell", "multiuser_spec"]


@dataclass
class MultiUserOutcome:
    """Results of one concurrent-submission round."""

    results: Dict[str, JobResult] = field(default_factory=dict)

    @property
    def statuses(self) -> Dict[str, str]:
        return {sub: res.status.value for sub, res in self.results.items()}

    def used_hosts(self, submitter: str) -> Set[str]:
        res = self.results[submitter]
        if res.plan is None:
            return set()
        return {h.name for h in res.plan.used_hosts()}

    def overlaps(self) -> List[Tuple[str, str, Set[str]]]:
        """Host sets shared by pairs of allocated jobs (any time)."""
        out = []
        subs = [s for s, r in self.results.items() if r.plan is not None]
        for i, a in enumerate(subs):
            for b in subs[i + 1:]:
                shared = self.used_hosts(a) & self.used_hosts(b)
                if shared:
                    out.append((a, b, shared))
        return out

    def concurrent_overlaps(self) -> List[Tuple[str, str, Set[str]]]:
        """Shared hosts whose execution windows actually intersected.

        A host reused by job B *after* job A finished is legitimate
        (the gatekeeper freed the ``J`` slot); only temporally
        overlapping co-residency violates ``J=1``.
        """
        out = []
        for a, b, shared in self.overlaps():
            ta, tb = self.results[a].timings, self.results[b].timings
            if (ta.launched_at < tb.finished_at
                    and tb.launched_at < ta.finished_at):
                out.append((a, b, shared))
        return out

    def max_attempts(self) -> int:
        return max((r.attempts for r in self.results.values()), default=1)

    def total_refusals(self) -> int:
        return sum(len(r.refusals) for r in self.results.values())


def run_multiuser_experiment(
    cluster: P2PMPICluster,
    submitters: Sequence[str],
    requests: Optional[Sequence[JobRequest]] = None,
    n: int = 8,
    strategy: str = "spread",
    stagger_s: float = 0.0,
) -> MultiUserOutcome:
    """Submit one job per submitter, all in flight together.

    ``stagger_s`` separates the submission instants (0 = simultaneous);
    the RS brokering of the competing jobs then interleaves on the
    wire, which is precisely the race the hash keys and gatekeeper
    serialise.
    """
    cluster.boot()
    if requests is None:
        requests = [JobRequest(n=n, strategy=strategy, tag=f"user-{i}")
                    for i in range(len(submitters))]
    if len(requests) != len(submitters):
        raise ValueError("one request per submitter required")

    sim = cluster.sim
    procs = {}
    for i, (submitter, request) in enumerate(zip(submitters, requests)):
        mpd = cluster.mpds[submitter]

        def delayed(mpd=mpd, request=request, delay=i * stagger_s):
            if delay:
                yield sim.timeout(delay)
            result = yield from mpd.submit_job(request)
            return result

        procs[submitter] = sim.process(delayed())

    sim.run_until_complete(sim.all_of(list(procs.values())))
    outcome = MultiUserOutcome()
    for submitter, proc in procs.items():
        outcome.results[submitter] = proc.value
    return outcome


def default_submitters(cluster: P2PMPICluster, users: int) -> List[str]:
    """Deterministic contention setup: one submitter per site, round
    robin over the site's hosts when ``users`` exceeds the site count."""
    topology = cluster.topology
    sites = list(topology.sites)
    out: List[str] = []
    round_ = 0
    while len(out) < users:
        for site in sites:
            hosts = topology.hosts_in_site(site)
            if round_ < len(hosts):
                out.append(hosts[round_].name)
            if len(out) == users:
                break
        round_ += 1
        if round_ > max(len(topology.hosts_in_site(s)) for s in sites):
            raise ValueError(f"cannot place {users} submitters")
    return out


def multiuser_cell(ctx: CellContext) -> Dict:
    """Engine cell: one concurrent round of ``users`` submissions.

    A whole round is one cell (the competing jobs must share a
    simulator), so the sweep axes scan round-level parameters: user
    count, per-job demand, strategy.
    """
    cluster = ctx.cluster
    submitters = default_submitters(cluster, ctx.params["users"])
    outcome = run_multiuser_experiment(
        cluster, submitters=submitters,
        n=ctx.params["n"], strategy=ctx.params["strategy"],
        stagger_s=ctx.meta.get("stagger_s", 0.0),
    )
    total_cores = sum(
        sum(res.plan.cores_by_site().values())
        for res in outcome.results.values() if res.plan is not None
    )
    return {
        "statuses": dict(sorted(outcome.statuses.items())),
        "concurrent_overlap_count": len(outcome.concurrent_overlaps()),
        "total_refusals": outcome.total_refusals(),
        "max_attempts": outcome.max_attempts(),
        "total_cores": total_cores,
    }


def multiuser_spec(
    users: Sequence[int] = (2, 3),
    demands: Sequence[int] = (50, 150),
    strategies: Sequence[str] = ("spread",),
    stagger_s: float = 0.0,
    seed: int = 0,
    cluster_spec: Optional[ClusterSpec] = None,
    name: str = "multiuser",
) -> ExperimentSpec:
    """Contention rounds as a declarative spec."""
    return make_spec(
        name=name,
        axes={"users": tuple(users), "n": tuple(demands),
              "strategy": tuple(strategies)},
        runner=multiuser_cell,
        cluster=cluster_spec or ClusterSpec(),
        master_seed=seed,
        meta={"stagger_s": stagger_s},
    )


# ----------------------------------------------------------------------
# CLI registration (multiuser)
# ----------------------------------------------------------------------
def _cli_specs(args) -> List[ExperimentSpec]:
    return [multiuser_spec(seed=args.seed)]


def _cli_run(args, store) -> None:
    from repro.experiments.cliutil import report_sweep

    spec = multiuser_spec(seed=args.seed)
    sweep = run_sweep(spec, jobs=args.jobs, store=store, force=args.force,
                      shard=args.shard)
    report_sweep(sweep, store)
    if args.shard:
        return
    for cell in sweep.cells:
        v = cell.value
        print(f"users={cell.params['users']} n={cell.params['n']} "
              f"{cell.params['strategy']:<12} statuses={v['statuses']} "
              f"overlaps={v['concurrent_overlap_count']} "
              f"refusals={v['total_refusals']}")


def _register() -> None:
    from repro.experiments import registry

    registry.register(registry.Experiment(
        name="multiuser",
        cli_run=_cli_run,
        specs=_cli_specs,
    ))


_register()
