"""Rank-migration campaign: diffusive rebalancing vs static placement.

The churnload campaign measures what churn does to *frozen* placements
— the §3.2 story, where replication is the only defence.  This
campaign measures what mobility buys on top: every cell runs the same
sustained multi-submitter round (Poisson arrivals x sustained host
churn), but the jobs are **migratable** (checkpointing
:class:`~repro.ft.migration.MigratableWorkApp` copies) and the sweep's
``mode`` axis flips the :class:`~repro.ft.migration.DiffusiveBalancer`
on and off:

* ``static`` — placement frozen at submit time (plain ``spread``); a
  host crash kills its copies for good, exactly like churnload.
* ``diffusive`` — a periodic controller trades copies between
  RTT-neighboring hosts to flatten load *and* resurrects copies
  stranded on crashed hosts from their last checkpoint.

The report tabulates availability, mean completion time and observed
moves per (arrival, failure-rate) cell and then pins the diffusive
deltas explicitly (``win availability ...`` / ``win completion ...``
lines), which is what CI greps for.  Cells are ordinary engine cells
(private per-cell cluster, derived seeds), so ``--jobs N`` fan-out,
shard/merge and cache replay stay byte-identical.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.alloc.diffusive import DiffusivePolicy
from repro.cluster import ClusterSpec, P2PMPICluster
from repro.experiments.engine import (CellContext, ExperimentSpec,
                                      SweepResult, make_spec, run_sweep)
from repro.experiments.multiuser import default_submitters
from repro.experiments.openloop import run_open_loop
from repro.experiments.report import format_metric_comparison
from repro.ft.migration import DiffusiveBalancer, MigratableWorkApp
from repro.middleware.config import OwnerPrefs
from repro.middleware.jobs import JobRequest

__all__ = ["MIGRATION_MODES", "run_migration_round", "migration_cell",
           "migration_spec", "migration_report"]

#: The two placement regimes the sweep compares.
MIGRATION_MODES: Tuple[str, ...] = ("static", "diffusive")


def run_migration_round(
    cluster: P2PMPICluster,
    submitters: Sequence[str],
    horizon_s: float = 240.0,
    arrival_rate_s: float = 0.04,
    n: int = 4,
    mode: str = "static",
    failure_rate_s: float = 0.0,
    downtime_s: Optional[float] = 60.0,
    work_s: float = 40.0,
    quantum_s: float = 5.0,
    j_limit: int = 2,
    policy: Optional[DiffusivePolicy] = None,
):
    """One sustained round of migratable jobs under churn.

    The churnload round (:func:`~repro.experiments.openloop.run_open_loop`
    on the ``migration.*`` random streams), but the submitted
    application checkpoints every ``quantum_s`` and, in ``diffusive``
    mode, a :class:`DiffusiveBalancer` runs beside the round.  Owner
    prefs are widened to ``j_limit`` applications per host first, booted
    cluster or not, so hosts can adopt migrated copies next to work
    they already run.

    Returns ``(ledger, balancer)``; ``balancer`` is ``None`` in static
    mode.
    """
    if mode not in MIGRATION_MODES:
        raise ValueError(f"unknown migration mode {mode!r}")
    for name, mpd in cluster.mpds.items():
        prefs = OwnerPrefs.for_cores(
            cluster.topology.host(name).cores, j_limit=j_limit)
        mpd.prefs = prefs
        mpd.gatekeeper.prefs = prefs

    balancer: Optional[DiffusiveBalancer] = None
    if mode == "diffusive":
        balancer = DiffusiveBalancer(cluster, policy or DiffusivePolicy())
    strategy = "diffusive" if mode == "diffusive" else "spread"
    app = MigratableWorkApp(duration_s=work_s, quantum_s=quantum_s)
    ledger = run_open_loop(
        cluster, submitters,
        lambda tag: JobRequest(n=n, r=1, strategy=strategy, app=app,
                               tag=tag),
        stream_prefix="migration", horizon_s=horizon_s,
        arrival_rate_s=arrival_rate_s, failure_rate_s=failure_rate_s,
        downtime_s=downtime_s,
        beside=None if balancer is None else balancer.start)
    if balancer is not None:
        balancer.stop()
    return ledger, balancer


def migration_cell(ctx: CellContext) -> Dict:
    """Engine cell: one sustained migratable round on a private cluster."""
    params = ctx.params
    cluster = ctx.cluster
    submitters = default_submitters(cluster, int(ctx.meta["users"]))
    policy = DiffusivePolicy(
        period_s=float(ctx.meta["rebalance_period_s"]),
        neighbor_k=int(ctx.meta["neighbor_k"]),
        threshold=float(ctx.meta["threshold"]),
        max_moves_per_tick=int(ctx.meta["max_moves"]),
    )
    ledger, balancer = run_migration_round(
        cluster, submitters,
        horizon_s=float(ctx.meta["horizon_s"]),
        arrival_rate_s=float(params["arrival"]),
        n=int(ctx.meta["n"]),
        mode=params["mode"],
        failure_rate_s=float(params["fail"]),
        downtime_s=ctx.meta.get("downtime_s"),
        work_s=float(ctx.meta["work_s"]),
        quantum_s=float(ctx.meta["quantum_s"]),
        j_limit=int(ctx.meta["j_limit"]),
        policy=policy,
    )
    value = ledger.summary()
    value["moves"] = 0 if balancer is None else balancer.moves
    value["rejoins_applied"] = 0 if balancer is None else balancer.rejoins
    value["failed_moves"] = 0 if balancer is None else balancer.failed_moves
    return value


def migration_spec(
    arrivals: Sequence[float] = (0.04,),
    failures: Sequence[float] = (0.0, 0.004, 0.01),
    modes: Sequence[str] = MIGRATION_MODES,
    users: int = 2,
    n: int = 4,
    horizon_s: float = 240.0,
    downtime_s: Optional[float] = 60.0,
    work_s: float = 40.0,
    quantum_s: float = 5.0,
    j_limit: int = 2,
    rebalance_period_s: float = 10.0,
    neighbor_k: int = 3,
    threshold: float = 0.6,
    max_moves: int = 2,
    seed: int = 0,
    cluster_spec: Optional[ClusterSpec] = None,
    name: str = "migration",
) -> ExperimentSpec:
    """The migration-vs-static sweep as a declarative spec.

    Axes: arrival rate x per-host failure rate x placement mode.  The
    round constants (demand, horizon, quantum, controller policy, owner
    ``J`` limit) ride in ``meta`` and are part of the content hash.
    The controller policy is built here once, so a bad knob (say a
    zero rebalance period) fails at spec build, not inside a cell.
    """
    policy = DiffusivePolicy(period_s=rebalance_period_s,
                             neighbor_k=neighbor_k, threshold=threshold,
                             max_moves_per_tick=max_moves)
    return make_spec(
        name=name,
        axes={"arrival": tuple(arrivals), "fail": tuple(failures),
              "mode": tuple(modes)},
        runner=migration_cell,
        cluster=cluster_spec or ClusterSpec(kind="small", boot=False),
        master_seed=seed,
        meta={"users": users, "n": n, "horizon_s": horizon_s,
              "downtime_s": downtime_s, "work_s": work_s,
              "quantum_s": quantum_s, "j_limit": j_limit,
              "rebalance_period_s": policy.period_s,
              "neighbor_k": policy.neighbor_k,
              "threshold": policy.threshold,
              "max_moves": policy.max_moves_per_tick},
    )


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def _cell_value(sweep: SweepResult, arrival: float, fail: float,
                mode: str) -> Dict:
    cells = sweep.select(arrival=arrival, fail=fail, mode=mode)
    return cells[0].value if cells else {}


def migration_report(sweep: SweepResult) -> str:
    """Mode-vs-failure matrices plus pinned diffusive deltas.

    Deterministic byte for byte: no timings, no paths — the acceptance
    diff across ``--jobs`` / shard / cache-replay runs depends on it.
    """
    spec = sweep.spec
    axes = dict(spec.axes)
    arrivals = list(axes["arrival"])
    failures = list(axes["fail"])
    fail_cols = [f"{v:g}" for v in failures]
    modes = list(axes["mode"])

    downtime = spec.meta.get("downtime_s")
    downtime_txt = "never" if downtime is None else f"{downtime:g}s"
    parts: List[str] = []
    parts.append("== rank migration under churn: "
                 f"{spec.meta['users']} users, n={spec.meta['n']}, "
                 f"horizon={spec.meta['horizon_s']:g}s, "
                 f"work={spec.meta['work_s']:g}s/copy, "
                 f"quantum={spec.meta['quantum_s']:g}s, "
                 f"downtime={downtime_txt}, J={spec.meta['j_limit']} ==")
    for arrival in arrivals:
        parts.append("")
        parts.append(f"-- arrival={arrival:g} jobs/s/user --")
        parts.append(format_metric_comparison(
            "avail@fail", fail_cols,
            sweep.metric_rows("mode", "availability", arrival=arrival),
            fmt=".4f"))
        parts.append("")
        parts.append(format_metric_comparison(
            "completion_s@fail", fail_cols,
            sweep.metric_rows("mode", "mean_completion_s", arrival=arrival),
            fmt=".2f"))
        parts.append("")
        parts.append(format_metric_comparison(
            "jobs@fail", fail_cols,
            sweep.metric_rows("mode", "jobs", arrival=arrival), fmt="g"))
        parts.append("")
        parts.append(format_metric_comparison(
            "moves@fail", fail_cols,
            sweep.metric_rows("mode", "moves", arrival=arrival), fmt="g"))

    # -- pinned deltas: what mobility bought -----------------------------
    if "static" in modes and "diffusive" in modes:
        parts.append("")
        parts.append("-- diffusive vs static --")
        wins = 0
        for arrival in arrivals:
            for fail in failures:
                static = _cell_value(sweep, arrival, fail, "static")
                diff = _cell_value(sweep, arrival, fail, "diffusive")
                a_s, a_d = static.get("availability"), diff.get("availability")
                if (a_s is not None and a_d is not None
                        and a_d - a_s >= 1e-4):
                    wins += 1
                    parts.append(
                        f"win availability arrival={arrival:g} "
                        f"fail={fail:g}: diffusive {a_d:.4f} vs static "
                        f"{a_s:.4f} ({a_d - a_s:+.4f})")
                c_s = static.get("mean_completion_s")
                c_d = diff.get("mean_completion_s")
                if (c_s is not None and c_d is not None
                        and c_s - c_d >= 0.01):
                    wins += 1
                    parts.append(
                        f"win completion arrival={arrival:g} "
                        f"fail={fail:g}: diffusive {c_d:.2f}s vs static "
                        f"{c_s:.2f}s ({c_d - c_s:+.2f}s)")
        if wins == 0:
            parts.append("no diffusive win recorded on this grid")
    return "\n".join(parts)


# ----------------------------------------------------------------------
# CLI registration (migration)
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
    if getattr(args, "modes", None) is not None:
        modes = csv_values("--modes", args.modes, str)
        for mode in modes:
            if mode not in MIGRATION_MODES:
                raise SystemExit(f"error: unknown --modes value {mode!r} "
                                 f"(choose from {', '.join(MIGRATION_MODES)})")
        overrides["modes"] = modes
    return migration_spec(
        seed=args.seed,
        users=args.users,
        horizon_s=args.horizon,
        n=4 if small else 8,
        cluster_spec=ClusterSpec(kind="small" if small else "grid5000",
                                 boot=False),
        **overrides,
    )


def _cli_run(args, store) -> None:
    """The rank-migration campaign.  Output is the deterministic
    ledger/delta report only, so ``--jobs 1`` and ``--jobs 2`` runs
    diff clean byte for byte.
    """
    from repro.experiments.cliutil import report_sweep

    spec = _cli_spec(args)
    sweep = run_sweep(spec, jobs=args.jobs, store=store, force=args.force,
                      shard=args.shard)
    if args.shard:
        report_sweep(sweep, store)
        return
    print(migration_report(sweep))


def _register() -> None:
    from repro.experiments import registry

    registry.register(registry.Experiment(
        name="migration",
        cli_run=_cli_run,
        specs=lambda args: [_cli_spec(args)],
        cli_axes=("cluster", "churn", "migration"),
    ))


_register()
