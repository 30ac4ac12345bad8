"""Open-loop multi-tenant campaign on the asyncio control plane.

Where :mod:`repro.experiments.multiuser` checks the gatekeeper's
*invariants* (few submitters, one concurrent round inside the DES) and
:mod:`repro.experiments.churnload` feeds a few DES submitters through
:mod:`repro.experiments.openloop`,
``multiuser2`` runs *genuinely concurrent* submitters: every tenant is
an asyncio task on the virtual-time loop of
:mod:`repro.middleware.controlplane`, racing its RESERVE walk against
everyone else's and pinning ``J`` slots only through the atomic
``Gatekeeper.try_admit``.

The sweep scans arrival rate × tenant count (up to thousands of
concurrent submitters) × allocation strategy, and the report renders
the fairness ledger — saturation, per-tenant slowdown spread,
admission-latency percentiles — as deterministic text: byte-identical
across ``--jobs`` settings and cache replays.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster import ClusterSpec
from repro.experiments.engine import (CellContext, ExperimentSpec,
                                      SweepResult, make_spec, run_sweep)
from repro.experiments.report import format_metric_comparison
from repro.middleware.controlplane import run_multi_tenant

__all__ = ["multiuser2_cell", "multiuser2_spec", "multiuser2_report"]

DEFAULT_TENANTS: Tuple[int, ...] = (10, 50, 200)
DEFAULT_RATES: Tuple[float, ...] = (0.01, 0.05)
DEFAULT_STRATEGIES: Tuple[str, ...] = ("spread", "bandwidth_spread")


def multiuser2_cell(ctx: CellContext) -> Dict:
    """Engine cell: one open-loop round at (rate, tenants, strategy).

    The cluster is used as a *static* testbed — topology, owner prefs
    and per-host gatekeepers — while time is the control plane's
    virtual clock, not the DES simulator (no boot, no message traffic).
    """
    cluster = ctx.cluster
    gatekeepers = {name: mpd.gatekeeper
                   for name, mpd in cluster.mpds.items()}
    return run_multi_tenant(
        cluster.topology, gatekeepers, cluster.default_submitter,
        tenants=ctx.params["tenants"],
        rate_hz=ctx.params["rate"],
        strategy_name=ctx.params["strategy"],
        jobs_per_tenant=ctx.meta.get("jobs_per_tenant", 2),
        n=ctx.meta.get("n", 4),
        work_s=ctx.meta.get("work_s", 20.0),
        seed=ctx.seed,
    )


def multiuser2_spec(
    tenants: Sequence[int] = DEFAULT_TENANTS,
    rates: Sequence[float] = DEFAULT_RATES,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    jobs_per_tenant: int = 2,
    n: int = 4,
    work_s: float = 20.0,
    seed: int = 0,
    cluster_spec: Optional[ClusterSpec] = None,
    name: str = "multiuser2",
) -> ExperimentSpec:
    """The control-plane fairness campaign as a declarative spec.

    Whatever ``cluster_spec`` says, the cells build it unbooted: they
    read its topology, gatekeepers and submitter only, never the DES
    overlay a boot would start.
    """
    return make_spec(
        name=name,
        axes={"rate": tuple(rates), "tenants": tuple(tenants),
              "strategy": tuple(strategies)},
        runner=multiuser2_cell,
        cluster=dataclasses.replace(cluster_spec or ClusterSpec(kind="small"),
                                    boot=False),
        master_seed=seed,
        meta={"jobs_per_tenant": jobs_per_tenant, "n": n,
              "work_s": work_s},
    )


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def multiuser2_report(sweep: SweepResult) -> str:
    """Fairness ledger tables, deterministic byte for byte.

    One panel block per arrival rate: saturation (refused fraction),
    per-tenant slowdown spread (the fairness gap), mean slowdown, and
    the p95 admission latency, each with one row per strategy and one
    column per tenant count.  Closes with the headline fairness gap
    between ``spread`` and ``bandwidth_spread`` at the most loaded
    sweep point, when both strategies are present.
    """
    spec = sweep.spec
    axes = dict(spec.axes)
    rates = list(axes["rate"])
    tenants = list(axes["tenants"])
    strategies = list(axes["strategy"])
    meta = spec.meta

    parts: List[str] = []
    parts.append("== multi-tenant control plane: "
                 f"{meta['jobs_per_tenant']} jobs/tenant, n={meta['n']}, "
                 f"work={meta['work_s']:g}s ==")
    for rate in rates:
        parts.append("")
        parts.append(f"-- arrival rate {rate:g} jobs/s/tenant --")
        parts.append(format_metric_comparison(
            "saturation@tenants", tenants,
            sweep.metric_rows("strategy", "saturation", rate=rate),
            fmt=".4f"))
        parts.append("")
        parts.append(format_metric_comparison(
            "slowdown-spread@tenants", tenants,
            sweep.metric_rows("strategy", "tenant_slowdown_spread", rate=rate),
            fmt=".4f"))
        parts.append("")
        parts.append(format_metric_comparison(
            "slowdown-mean@tenants", tenants,
            sweep.metric_rows("strategy", "slowdown_mean", rate=rate),
            fmt=".4f"))
        parts.append("")
        parts.append(format_metric_comparison(
            "admit-p95-ms@tenants", tenants,
            sweep.metric_rows("strategy", "admit_p95_ms", rate=rate),
            fmt=".3f"))
    if "spread" in strategies and "bandwidth_spread" in strategies:
        rate, count = max(rates), max(tenants)
        sat = {
            s: sweep.select(rate=rate, tenants=count, strategy=s)[0]
            .value["saturation"]
            for s in ("spread", "bandwidth_spread")
        }
        parts.append("")
        parts.append(
            f"fairness gap @ rate={rate:g}, tenants={count}: "
            f"saturation spread={sat['spread']:.4f} "
            f"bandwidth_spread={sat['bandwidth_spread']:.4f} "
            f"delta={sat['spread'] - sat['bandwidth_spread']:+.4f}")
    return "\n".join(parts)


# ----------------------------------------------------------------------
# CLI registration (multiuser2)
# ----------------------------------------------------------------------
def _cli_spec(args) -> ExperimentSpec:
    from repro.experiments.cliutil import csv_values

    overrides = {}
    if getattr(args, "tenants", None) is not None:
        overrides["tenants"] = csv_values("--tenants", args.tenants, int)
    if getattr(args, "rates", None) is not None:
        overrides["rates"] = csv_values("--rates", args.rates, float)
    return multiuser2_spec(
        seed=args.seed,
        cluster_spec=ClusterSpec(kind=args.cluster
                                 if args.cluster == "small" else "grid5000"),
        **overrides,
    )


def _cli_run(args, store) -> None:
    """The multi-tenant fairness campaign.  Output is the deterministic
    ledger report only, so ``--jobs 1`` and ``--jobs 2`` runs diff
    clean byte for byte.
    """
    from repro.experiments.cliutil import report_sweep

    spec = _cli_spec(args)
    sweep = run_sweep(spec, jobs=args.jobs, store=store, force=args.force,
                      shard=args.shard)
    if args.shard:
        report_sweep(sweep, store)
        return
    print(multiuser2_report(sweep))


def _register() -> None:
    from repro.experiments import registry

    registry.register(registry.Experiment(
        name="multiuser2",
        cli_run=_cli_run,
        specs=lambda args: [_cli_spec(args)],
        cli_axes=("cluster", "controlplane"),
    ))


_register()
