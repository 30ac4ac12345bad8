"""Churn-under-load campaign: sustained-load availability sweeps.

The paper's §3.2 argument is that grid failures are far more frequent
than on supercomputers and that the replication degree ``r`` is the
knob that buys job survival.  The repo's earlier churn coverage only
killed hosts in isolated one-shot tests; this campaign composes the
multi-user contention round with :meth:`ChurnInjector.sustained_schedule`
into the sweep the paper's story actually needs:

    job arrival rate x per-host failure rate x replication degree
    x allocation strategy

Every cell runs one *sustained round*: several competing submitters
each feed a Poisson stream of jobs into a shared simulated grid while
an ongoing churn process crashes (and, after a fixed downtime, revives)
the worker hosts mid-flight.  The round's :class:`SurvivalLedger`
yields the two §3.2 metrics — job availability and replica survival —
which the report tabulates per strategy, exposing e.g. what
``bandwidth_spread``'s shrunken host sets do to replica survival
versus plain ``spread`` (fewer hosts = more correlated copy deaths).

Cells are ordinary engine cells (private per-cell cluster, seed derived
from the spec), so ``--jobs N`` fan-out, the JSONL result store and
``.partial`` checkpoint resume all work unchanged, and the report is
byte-deterministic across execution modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster import ClusterSpec, P2PMPICluster
from repro.experiments.engine import (CellContext, ExperimentSpec,
                                      SweepResult, make_spec, run_sweep)
from repro.experiments.multiuser import default_submitters
from repro.experiments.openloop import run_open_loop
from repro.experiments.report import format_metric_comparison
from repro.middleware.jobs import JobRequest
from repro.overlay.churn import SurvivalLedger

__all__ = ["FixedWorkApp", "CHURNLOAD_STRATEGIES", "run_churnload_round",
           "churnload_cell", "churnload_spec", "churnload_report"]

#: Default strategy roster: the two published strategies plus the
#: communication-aware one whose shrunken host sets §3.2 worries about.
CHURNLOAD_STRATEGIES: Tuple[str, ...] = (
    "spread", "concentrate", "bandwidth_spread")


@dataclass(frozen=True)
class FixedWorkApp:
    """Synthetic application: every process copy runs ``duration_s``.

    The hostname probe's zero-duration jobs leave churn no execution
    window to hit; a fixed, deterministic duration gives every cell the
    same exposure regardless of placement, so survival differences are
    attributable to the allocation alone.
    """

    duration_s: float = 30.0
    name: str = "fixedwork"

    def predicted_rank_times(self, plan, env) -> Dict[tuple, float]:
        return {(p.rank, p.replica): self.duration_s
                for p in plan.placements}


def run_churnload_round(
    cluster: P2PMPICluster,
    submitters: Sequence[str],
    horizon_s: float = 240.0,
    arrival_rate_s: float = 0.05,
    n: int = 4,
    r: int = 2,
    strategy: str = "spread",
    failure_rate_s: float = 0.0,
    downtime_s: Optional[float] = 60.0,
    work_s: float = 30.0,
) -> SurvivalLedger:
    """One sustained round of competing submitters under churn.

    Every arrival submits an ``n``-process, ``r``-replicated job of
    :class:`FixedWorkApp` (``work_s`` per copy) with ``strategy``; the
    arrivals, the churn and the sheltered hosts are
    :func:`~repro.experiments.openloop.run_open_loop`'s, on the
    ``churnload.*`` random streams.

    Returns the round's :class:`SurvivalLedger`.
    """
    app = FixedWorkApp(duration_s=work_s)
    return run_open_loop(
        cluster, submitters,
        lambda tag: JobRequest(n=n, r=r, strategy=strategy, app=app,
                               tag=tag),
        stream_prefix="churnload", horizon_s=horizon_s,
        arrival_rate_s=arrival_rate_s, failure_rate_s=failure_rate_s,
        downtime_s=downtime_s)


def churnload_cell(ctx: CellContext) -> Dict:
    """Engine cell: one sustained round on a private cluster.

    A whole round is one cell (the competing jobs and the churn process
    must share a simulator); the axes scan round-level parameters.
    """
    params = ctx.params
    cluster = ctx.cluster
    submitters = default_submitters(cluster, int(ctx.meta["users"]))
    ledger = run_churnload_round(
        cluster, submitters,
        horizon_s=float(ctx.meta["horizon_s"]),
        arrival_rate_s=float(params["arrival"]),
        n=int(ctx.meta["n"]),
        r=int(params["r"]),
        strategy=params["strategy"],
        failure_rate_s=float(params["fail"]),
        downtime_s=ctx.meta.get("downtime_s"),
        work_s=float(ctx.meta["work_s"]),
    )
    value = ledger.summary()
    value["mean_hosts_used"] = (
        None if not any(j.launched for j in ledger.jobs) else
        round(sum(j.hosts_used for j in ledger.jobs if j.launched)
              / sum(1 for j in ledger.jobs if j.launched), 6))
    return value


def churnload_spec(
    arrivals: Sequence[float] = (0.05,),
    failures: Sequence[float] = (0.0, 0.002, 0.006),
    replications: Sequence[int] = (1, 2),
    strategies: Sequence[str] = CHURNLOAD_STRATEGIES,
    users: int = 2,
    n: int = 4,
    horizon_s: float = 240.0,
    downtime_s: Optional[float] = 60.0,
    work_s: float = 30.0,
    seed: int = 0,
    cluster_spec: Optional[ClusterSpec] = None,
    name: str = "churnload",
) -> ExperimentSpec:
    """The availability sweep as a declarative spec.

    Axes: arrival rate (jobs/s per submitter) x per-host failure rate
    (crashes/s) x replication degree x strategy.  Round constants
    (user count, demand, horizon, repair downtime, per-copy work) ride
    in ``meta`` and are part of the store's content hash.
    """
    return make_spec(
        name=name,
        axes={"arrival": tuple(arrivals), "fail": tuple(failures),
              "r": tuple(replications), "strategy": tuple(strategies)},
        runner=churnload_cell,
        cluster=cluster_spec or ClusterSpec(kind="small"),
        master_seed=seed,
        meta={"users": users, "n": n, "horizon_s": horizon_s,
              "downtime_s": downtime_s, "work_s": work_s},
    )


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def churnload_report(sweep: SweepResult) -> str:
    """Availability matrix + replica-survival-by-strategy tables.

    Deterministic byte for byte: no timings, no paths — ``--jobs 1``
    and ``--jobs 2`` runs (and cache replays) render identical text.
    """
    spec = sweep.spec
    axes = dict(spec.axes)
    arrivals = list(axes["arrival"])
    failures = [f"{v:g}" for v in axes["fail"]]
    replications = list(axes["r"])

    downtime = spec.meta.get("downtime_s")
    downtime_txt = "never" if downtime is None else f"{downtime:g}s"
    parts: List[str] = []
    parts.append("== churn under load: "
                 f"{spec.meta['users']} users, n={spec.meta['n']}, "
                 f"horizon={spec.meta['horizon_s']:g}s, "
                 f"work={spec.meta['work_s']:g}s/copy, "
                 f"downtime={downtime_txt} ==")
    for arrival in arrivals:
        for r in replications:
            parts.append("")
            parts.append(f"-- arrival={arrival:g} jobs/s/user, r={r} --")
            parts.append(format_metric_comparison(
                "avail@fail", failures,
                sweep.metric_rows("strategy", "availability",
                                  arrival=arrival, r=r),
                fmt=".4f"))
            parts.append("")
            parts.append(format_metric_comparison(
                "survival@fail", failures,
                sweep.metric_rows("strategy", "replica_survival",
                                  arrival=arrival, r=r),
                fmt=".4f"))
            parts.append("")
            parts.append(format_metric_comparison(
                "jobs@fail", failures,
                sweep.metric_rows("strategy", "jobs", arrival=arrival, r=r),
                fmt="g"))
    return "\n".join(parts)


# ----------------------------------------------------------------------
# CLI registration (churnload)
# ----------------------------------------------------------------------
def _cli_spec(args) -> ExperimentSpec:
    from repro.experiments.cliutil import csv_values

    small = args.cluster == "small"
    if args.horizon <= 0:
        raise SystemExit("error: --horizon must be > 0")
    if args.users < 1:
        raise SystemExit("error: --users must be >= 1")
    overrides = {}
    if args.failures is not None:
        overrides["failures"] = csv_values("--failures", args.failures,
                                           float, nonnegative=True)
    return churnload_spec(
        seed=args.seed,
        users=args.users,
        horizon_s=args.horizon,
        # The 28-core smoke grid saturates around n*r=8; the full
        # testbed gets a demand that actually straddles sites.
        n=4 if small else 16,
        cluster_spec=ClusterSpec(kind="small" if small else "grid5000"),
        **overrides,
    )


def _cli_run(args, store) -> None:
    """The sustained-load availability campaign.  Output is the
    deterministic ledger report only (no engine timings), so
    ``--jobs 1`` and ``--jobs 2`` runs diff clean byte for byte.
    """
    from repro.experiments.cliutil import report_sweep

    spec = _cli_spec(args)
    sweep = run_sweep(spec, jobs=args.jobs, store=store, force=args.force,
                      shard=args.shard)
    if args.shard:
        report_sweep(sweep, store)
        return
    print(churnload_report(sweep))


def _register() -> None:
    from repro.experiments import registry

    registry.register(registry.Experiment(
        name="churnload",
        cli_run=_cli_run,
        specs=lambda args: [_cli_spec(args)],
        cli_axes=("cluster", "churn"),
    ))


_register()
