"""The applatency campaign: execution time along the hierarchy axis.

The commaware pack's latency-ratio sweep measures *placement quality*
only (diameter, contended bandwidth).  This campaign closes the loop
the ROADMAP asks for — "run EP/IS through the same axis to show where
communication-aware placement buys execution time as the hierarchy
deepens": every cell reshapes the Grid'5000 testbed to an intra/inter-
site latency ratio (``grid5000-latratio``), submits EP or IS class B
under one strategy, and records the modelled wall-clock under the
plan-dependent WAN contention model (DESIGN.md §10).

Grid: ratio x strategy x n, one sweep per application.  The report is
byte-deterministic (no timings, no paths): ``--jobs 1``, ``--jobs 2``
and cache-replayed runs render identical text, which is what the
determinism regression suite and the CI smoke job diff.

The module also hosts the fig4 *crossover calibration*
(:func:`fig4_crossover`): IS class B on 2x64 (two sites, 64 copies
each) against 1x128 (one site), evaluated under the plan-dependent and
the deprecated fixed-16 contention modes.  Only the plan-dependent
model reproduces the paper's ordering — leaving the site must cost
wall-clock for communication-bound IS — because the fixed divisor
credits 64 crossing flows with 4x the backbone that exists.  The
tier-1 suite pins both directions (test_applatency.py), and the
campaign report prints the measured numbers.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.base import AppEnv, Application
from repro.apps.ep import EPBenchmark
from repro.apps.is_bench import ISBenchmark
from repro.cluster import DEFAULT_COST_PARAMS, ClusterSpec
from repro.experiments.commaware import LATENCY_RATIOS, ratio_cluster
from repro.experiments.engine import (CellContext, ExperimentSpec,
                                      ResultStore, SweepResult,
                                      demand_cost_key, make_spec, run_sweep)
from repro.experiments.report import format_metric_comparison
from repro.middleware.jobs import JobRequest, JobStatus
from repro.mpi.costmodel import CollectiveCostModel, CostParams
from repro.net.contention import ContentionModel

__all__ = ["APPLATENCY_STRATEGIES", "APPLATENCY_NS", "AppLatencyCampaign",
           "applatency_cell", "applatency_spec", "applatency_apps",
           "run_applatency_campaign", "applatency_report",
           "fig4_crossover"]

#: The strategy roster the ROADMAP item names: the two paper baselines
#: plus the communication-aware pair that should pay off as the
#: hierarchy deepens.
APPLATENCY_STRATEGIES: Tuple[str, ...] = (
    "spread", "concentrate", "bandwidth_spread", "topo_block")

#: Process counts: the fig4 IS panel range, where the paper's
#: crossover lives (EP's 256/512 tail adds nothing to the latency-
#: ratio question and would triple the campaign).
APPLATENCY_NS: Tuple[int, ...] = (32, 64, 128)


def applatency_apps(nas_class: str = "B") -> Tuple[Application, ...]:
    """The campaign's two fig4 applications."""
    return (EPBenchmark(nas_class), ISBenchmark(nas_class))


def _comm_seconds(cluster, plan, app: Application) -> float:
    """Modelled synchronised-communication seconds of replica 0.

    Mirrors :meth:`repro.apps.base.Application.run_time`: the layout's
    contention counts cover *every* co-located process copy, so the
    value matches the communication share of the recorded makespan.
    """
    hosts = Application._replica_hosts(plan, 0)
    layout = cluster.app_env.costmodel.layout(hosts)
    colocated = Counter(p.host.name for p in plan.placements)
    layout.colocated = np.array([colocated[h.name] for h in hosts])
    layout.apply_copy_counts(colocated)
    return app.comm_time(layout, plan.n, cluster.app_env)


def applatency_cell(ctx: CellContext) -> Dict:
    """One (ratio, strategy, n) execution of the cell's application,
    on the testbed reshaped to the cell's ratio
    (:func:`~repro.experiments.commaware.ratio_cluster`): wall-clock
    plus the plan's contention fingerprint."""
    ratio = float(ctx.params["ratio"])
    strategy = ctx.params["strategy"]
    n = int(ctx.params["n"])
    app: Application = ctx.meta["app"]
    cluster = ctx.cluster
    result = cluster.submit_and_run(
        JobRequest(n=n, strategy=strategy, app=app,
                   tag=f"applatency-{app.name}-{ratio:g}")
    )
    if result.status not in (JobStatus.SUCCESS, JobStatus.DEGRADED):
        raise RuntimeError(
            f"{app.name} {strategy} ratio={ratio:g} n={n} failed: "
            f"{result.summary()}")
    plan = result.allocation
    copies = [p.host for p in plan.placements]
    contention = ContentionModel(cluster.topology).plan(copies)
    return {
        "app": app.name,
        "status": result.status.value,
        "time_s": round(result.timings.makespan_s, 9),
        "comm_s": round(_comm_seconds(cluster, plan, app), 9),
        "total_hosts": len(plan.used_hosts()),
        "sites_used": len({h.site for h in plan.used_hosts()}),
        "max_crossing_pairs": contention.max_crossing_pairs(),
    }


def applatency_spec(
    app: Optional[Application] = None,
    ratios: Iterable[float] = LATENCY_RATIOS,
    strategies: Sequence[str] = APPLATENCY_STRATEGIES,
    ns: Iterable[int] = APPLATENCY_NS,
    seed: int = 0,
    name: Optional[str] = None,
) -> ExperimentSpec:
    """One application's panel: ratio x strategy x n."""
    app = app or ISBenchmark("B")
    return make_spec(
        name=name or f"applatency-{app.name}",
        axes={"ratio": tuple(float(r) for r in ratios),
              "strategy": tuple(strategies),
              "n": tuple(int(n) for n in ns)},
        runner=applatency_cell,
        cluster=ClusterSpec(kind="grid5000-latratio"),
        master_seed=seed,
        meta={"app": app},
        cost_key=demand_cost_key,
        cell_cluster=ratio_cluster,
    )


@dataclass
class AppLatencyCampaign:
    """Both application panels, ready for reporting."""

    apps: Dict[str, SweepResult]
    ratios: Tuple[float, ...]
    strategies: Tuple[str, ...]
    ns: Tuple[int, ...]

    def sweeps(self) -> List[SweepResult]:
        return [self.apps[k] for k in sorted(self.apps)]


def run_applatency_campaign(
    seed: int = 0,
    ratios: Iterable[float] = LATENCY_RATIOS,
    strategies: Sequence[str] = APPLATENCY_STRATEGIES,
    ns: Iterable[int] = APPLATENCY_NS,
    nas_class: str = "B",
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    force: bool = False,
    shard: Optional[Tuple[int, int]] = None,
) -> AppLatencyCampaign:
    """Run both panels through the engine (CLI ``run applatency``);
    ``shard`` slices every panel the same way."""
    ratios = tuple(float(r) for r in ratios)
    strategies = tuple(strategies)
    ns = tuple(int(n) for n in ns)
    apps: Dict[str, SweepResult] = {}
    for app in applatency_apps(nas_class):
        apps[app.name] = run_sweep(
            applatency_spec(app, ratios=ratios, strategies=strategies,
                            ns=ns, seed=seed),
            jobs=jobs, store=store, force=force, shard=shard)
    return AppLatencyCampaign(apps=apps, ratios=ratios,
                              strategies=strategies, ns=ns)


# ----------------------------------------------------------------------
# fig4 crossover calibration
# ----------------------------------------------------------------------
def fig4_crossover(cost_params: Optional[CostParams] = None) -> Dict:
    """The calibration measurement pinning the contention model.

    IS class B at n=128 on the paper testbed, 4 copies per host (the
    paper's ``P`` = cores): ``2x64`` spans nancy+lyon (64 copies each,
    64 concurrent crossing pairs on the 10 Gb/s backbone), ``1x128``
    stays inside nancy.  For each contention mode the measurement
    returns

    * ``wire`` — the slowest rank's bytes-on-the-wire seconds of one
      IS key-redistribution alltoallv
      (:meth:`~repro.mpi.costmodel.CollectiveCostModel.alltoallv_transfer_time`):
      the bandwidth-dependent component, where the backbone share — and
      nothing else — differs between modes;
    * ``comm`` / ``total`` — the full modelled IS communication time
      (all iterations, latency and runtime overheads included) and the
      IS makespan with compute;
    * ``ep_comm`` / ``ep_total`` — the same for EP (four 8-byte
      allreduces), the placement-indifference control: its totals must
      stay within a few percent whichever site the copies land on.

    Under ``"plan"`` the wire ordering reproduces the paper: 2x64 is
    strictly slower (each crossing pair gets 10G/64 ≈ 156 Mb/s, less
    than its NIC-shared LAN rate).  Under ``"fixed"`` the ordering
    *fails*: backbone/16 = 625 Mb/s exceeds the 250 Mb/s NIC share, so
    the constant predicts that leaving the site is free.  The tier-1
    suite asserts both directions; DESIGN.md §10 quotes the numbers.
    """
    from repro.grid5000.builder import build_topology

    base = cost_params or DEFAULT_COST_PARAMS
    topology = build_topology()
    nancy = topology.hosts_in_site("nancy")
    lyon = topology.hosts_in_site("lyon")
    copies_per_host = 4
    layouts = {
        "1x128": [h for h in nancy[:32] for _ in range(copies_per_host)],
        "2x64": ([h for h in nancy[:16] for _ in range(copies_per_host)]
                 + [h for h in lyon[:16] for _ in range(copies_per_host)]),
    }
    n = 128
    is_b = ISBenchmark("B")
    ep_b = EPBenchmark("B")
    keys_per_pair = max(1, int(4 * is_b.total_keys / (n * n)))
    out: Dict = {"n": n, "keys_per_pair": keys_per_pair, "modes": {}}
    for mode in ("plan", "fixed"):
        params = dataclasses.replace(base, wan_contention=mode)
        model = CollectiveCostModel(topology, params)
        env = AppEnv(topology=topology, cost_params=params)
        rows: Dict[str, Dict[str, float]] = {}
        for label, hosts in layouts.items():
            layout = model.layout(hosts)
            rows[label] = {
                "wire": model.alltoallv_transfer_time(layout, keys_per_pair),
                "comm": is_b.comm_time(layout, n, env),
                "total": is_b.run_time(list(hosts), n, env),
                "ep_comm": ep_b.comm_time(layout, n, env),
                "ep_total": ep_b.run_time(list(hosts), n, env),
            }
        out["modes"][mode] = rows
    return out


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def _time_rows(sweep: SweepResult, ratio: float, strategies: Sequence[str],
               metric: str = "time_s") -> Dict[str, List]:
    rows: Dict[str, List] = {}
    for strategy in strategies:
        rows[strategy] = [c.value[metric]
                          for c in sweep.select(ratio=ratio,
                                                strategy=strategy)]
    return rows


def applatency_report(campaign: AppLatencyCampaign) -> str:
    """The campaign report, deterministic byte for byte.

    One block per (application, ratio) with wall-clock per strategy,
    then the deepest-hierarchy speedup panel — where communication-
    aware placement must buy IS time and leave EP indifferent — and
    the fig4 crossover calibration numbers.
    """
    parts: List[str] = []
    ns = list(campaign.ns)
    strategies = list(campaign.strategies)
    for app_name in sorted(campaign.apps):
        sweep = campaign.apps[app_name]
        parts.append(f"== applatency: {app_name.upper()} wall-clock (s) "
                     "by hierarchy depth ==")
        for ratio in campaign.ratios:
            parts.append(format_metric_comparison(
                f"r={ratio:g} t@n", ns,
                _time_rows(sweep, ratio, strategies), fmt=".2f"))
            parts.append("")

    deepest = max(campaign.ratios)
    # Baseline for the speedup panel: the paper's spread when swept,
    # else the campaign's first strategy (custom rosters stay valid).
    baseline = "spread" if "spread" in strategies else strategies[0]
    parts.append(f"== deepest hierarchy (ratio {deepest:g}): "
                 f"speedup over {baseline} ==")
    for app_name in sorted(campaign.apps):
        sweep = campaign.apps[app_name]
        base = _time_rows(sweep, deepest, [baseline])[baseline]
        rows: Dict[str, List] = {}
        for strategy in strategies:
            times = _time_rows(sweep, deepest, [strategy])[strategy]
            rows[strategy] = [
                None if t == 0 else round(b / t, 4)
                for b, t in zip(base, times)]
        parts.append(format_metric_comparison(
            f"{app_name} speedup@n", ns, rows, fmt=".2f"))
        parts.append("")

    cal = fig4_crossover()
    parts.append("== fig4 crossover calibration (IS class B, "
                 f"n={cal['n']}, {cal['keys_per_pair']} B/pair) ==")
    for mode in ("plan", "fixed"):
        rows = cal["modes"][mode]
        ratio = rows["2x64"]["wire"] / rows["1x128"]["wire"]
        parts.append(
            f"{mode:>5}: wire 2x64={rows['2x64']['wire'] * 1e3:.1f} ms "
            f"vs 1x128={rows['1x128']['wire'] * 1e3:.1f} ms "
            f"(ratio {ratio:.2f})  "
            f"IS total {rows['2x64']['total']:.2f} vs "
            f"{rows['1x128']['total']:.2f} s  "
            f"EP total {rows['2x64']['ep_total']:.2f} vs "
            f"{rows['1x128']['ep_total']:.2f} s")
    return "\n".join(parts)


# ----------------------------------------------------------------------
# CLI registration (applatency)
# ----------------------------------------------------------------------
def _cli_overrides(args) -> Dict:
    """--demands/--ratios reshape the panels; --cluster does not apply
    (the latency-ratio testbed is the campaign's subject)."""
    from repro.experiments.cliutil import csv_values

    overrides = {}
    if args.demands is not None:
        overrides["ns"] = csv_values("--demands", args.demands, int,
                                     positive=True)
    if args.ratios is not None:
        overrides["ratios"] = csv_values("--ratios", args.ratios, float,
                                         positive=True)
    return overrides


def _cli_specs(args) -> List[ExperimentSpec]:
    """Mirror of :func:`run_applatency_campaign`'s spec construction
    (the orchestrator contract: same kwargs, same hashes)."""
    overrides = _cli_overrides(args)
    ratios = tuple(float(r)
                   for r in overrides.get("ratios", LATENCY_RATIOS))
    ns = tuple(int(n) for n in overrides.get("ns", APPLATENCY_NS))
    return [applatency_spec(app, ratios=ratios,
                            strategies=APPLATENCY_STRATEGIES, ns=ns,
                            seed=args.seed)
            for app in applatency_apps(args.nas_class)]


def _cli_run(args, store) -> None:
    """The EP/IS latency-ratio execution campaign.  Output is the
    deterministic report only (no engine timings), so ``--jobs 1`` and
    ``--jobs 2`` runs diff clean byte for byte.
    """
    from repro.experiments.cliutil import report_sweep

    campaign = run_applatency_campaign(
        seed=args.seed, nas_class=args.nas_class, jobs=args.jobs,
        store=store, force=args.force, shard=args.shard,
        **_cli_overrides(args))
    if args.shard:
        for sweep in campaign.sweeps():
            report_sweep(sweep, store)
        return
    print(applatency_report(campaign))


def _register() -> None:
    from repro.experiments import registry

    registry.register(registry.Experiment(
        name="applatency",
        cli_run=_cli_run,
        specs=_cli_specs,
        cli_axes=("demands", "ratios", "nas_class"),
    ))


_register()
