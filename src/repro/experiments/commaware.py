"""Communication-aware allocation scenario pack (campaign scale).

Re-sweeps the paper's grids with the communication-aware strategy
family (:mod:`repro.alloc.commaware`) side by side with the published
strategies:

* **fig2/fig3 grid** — the §5.1 co-allocation sweep (100..600
  processes), six strategies instead of two, with two placement-quality
  metrics the paper never measured: the latency *diameter* of the
  allocated host set and its minimum pairwise *bandwidth*;
* **fig4 grids** — the EP and IS timing sweeps under all six
  strategies, exposing when communication-aware placement actually
  buys execution time;
* **latency-heterogeneity axis** — a new grid: the intra/inter-site
  latency ratio of the testbed is swept from "one big LAN" to "deep
  site hierarchy" (:func:`repro.cluster.build_latratio_cluster`) at a
  fixed demand, showing where the strategy families diverge.

Every sweep is an ordinary engine spec — parallelisable with ``--jobs``
and cacheable with ``--out`` — and the whole pack is wired into the CLI
as ``p2pmpirun run commaware``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.apps.ep import EPBenchmark
from repro.apps.is_bench import ISBenchmark
from repro.cluster import ClusterSpec
from repro.experiments.applications import (app_series_from_sweep,
                                            application_spec)
from repro.experiments.coallocation import PAPER_DEMANDS
from repro.experiments.engine import (Cell, CellContext, ExperimentSpec,
                                      ResultStore, SweepResult,
                                      demand_cost_key, make_spec, run_sweep)
from repro.experiments.report import (format_metric_comparison,
                                      format_series_table)
from repro.middleware.jobs import JobRequest, JobStatus
from repro.net.contention import ContentionModel

__all__ = ["PAPER_STRATEGIES", "COMMAWARE_STRATEGIES", "ALL_STRATEGIES",
           "LATENCY_RATIOS", "LATRATIO_DEMAND", "CommawareCampaign",
           "commaware_cell", "latratio_cell", "ratio_cluster",
           "commaware_alloc_spec",
           "commaware_app_spec", "latratio_spec", "run_commaware_campaign",
           "commaware_report"]

#: The paper's §4.3 strategies (block is its future-work mixed family).
PAPER_STRATEGIES: Tuple[str, ...] = ("concentrate", "spread", "block")

#: The communication-aware pack (Bender et al. spirit).
COMMAWARE_STRATEGIES: Tuple[str, ...] = (
    "bandwidth_spread", "diameter_concentrate", "topo_block")

ALL_STRATEGIES: Tuple[str, ...] = PAPER_STRATEGIES + COMMAWARE_STRATEGIES

#: The latency-heterogeneity axis: intra/inter-site latency ratio.
#: 1 = WAN-flat LAN (locality is free), 121.6 = the paper's measured
#: Grid'5000 setting (10.576 ms to lyon / 0.087 ms LAN), 1000 = deep
#: hierarchy (think transcontinental federation over campus LANs).
LATENCY_RATIOS: Tuple[float, ...] = (1.0, 10.0, 121.6, 1000.0)

#: Fixed demand for the latency-ratio sweep: mid-grid, where fig2/fig3
#: show the strategies already straddling several sites.
LATRATIO_DEMAND = 200


def _placement_metrics(cluster, plan) -> Dict:
    """The two Bender-style placement-quality numbers for a plan.

    Bandwidth is the *contended* estimate
    (:meth:`repro.net.contention.PlanContention.pair_bw_bps`): the raw
    NIC-clamped bottleneck is 1 Gb/s for every pair of the paper's
    testbed and would rank all placements equal.  A completed plan
    carries its own placement, so the score is plan-dependent — each
    backbone divides by *this* plan's concurrent crossing pairs
    (DESIGN.md §10), not the deprecated fixed divisor.
    """
    used = plan.used_hosts()
    topo = cluster.topology
    # One plan entry per process copy: co-located copies load the NIC,
    # crossing copies load the backbone.
    copies = [p.host for p in plan.placements]
    contention = ContentionModel(topo).plan(copies)
    # Site-level reduction (see Topology.site_representatives): the
    # contended score depends only on the site pair.
    reps, same_site_pair = topo.site_representatives(used)
    min_bw = topo.lan_bw_bps if same_site_pair else float("inf")
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            min_bw = min(min_bw, contention.pair_bw_bps(a, b))
    return {
        "latency_diameter_ms": round(topo.latency_diameter_ms(used), 6),
        # inf (single-host allocation) is not valid strict JSON: None.
        "min_bandwidth_bps": (None if min_bw == float("inf") else min_bw),
        "sites_used": len({h.site for h in used}),
        "max_crossing_pairs": contention.max_crossing_pairs(),
    }


def commaware_cell(ctx: CellContext) -> Dict:
    """One (strategy, n) submission plus placement-quality metrics."""
    strategy = ctx.params["strategy"]
    n = ctx.params["n"]
    result = ctx.cluster.submit_and_run(
        JobRequest(n=n, strategy=strategy, tag=f"commaware-{strategy}")
    )
    if result.status not in (JobStatus.SUCCESS, JobStatus.DEGRADED):
        raise RuntimeError(f"{strategy} n={n} failed: {result.summary()}")
    plan = result.allocation
    value = {
        "status": result.status.value,
        "hosts_by_site": plan.hosts_by_site(),
        "cores_by_site": plan.cores_by_site(),
        "reservation_s": result.timings.reservation_s,
        "total_hosts": len(plan.used_hosts()),
        "total_cores": plan.total_processes,
    }
    value.update(_placement_metrics(ctx.cluster, plan))
    return value


def ratio_cluster(spec: ExperimentSpec, cell: Cell) -> ClusterSpec:
    """``cell_cluster``: the testbed reshaped to the cell's ratio."""
    return spec.cluster.with_params(
        latency_ratio=float(cell.param_dict()["ratio"]))


def latratio_cell(ctx: CellContext) -> Dict:
    """One (ratio, strategy) cell, on :func:`ratio_cluster`'s testbed."""
    ratio = float(ctx.params["ratio"])
    strategy = ctx.params["strategy"]
    n = int(ctx.meta["n"])
    cluster = ctx.cluster
    result = cluster.submit_and_run(
        JobRequest(n=n, strategy=strategy, tag=f"latratio-{ratio:g}")
    )
    if result.status not in (JobStatus.SUCCESS, JobStatus.DEGRADED):
        raise RuntimeError(
            f"{strategy} ratio={ratio:g} n={n} failed: {result.summary()}")
    plan = result.allocation
    value = {
        "status": result.status.value,
        "total_hosts": len(plan.used_hosts()),
        "reservation_s": result.timings.reservation_s,
    }
    value.update(_placement_metrics(cluster, plan))
    return value


def commaware_alloc_spec(
    seed: int = 0,
    demands: Iterable[int] = PAPER_DEMANDS,
    strategies: Sequence[str] = ALL_STRATEGIES,
    cluster_spec: Optional[ClusterSpec] = None,
    name: str = "commaware-alloc",
) -> ExperimentSpec:
    """The fig2/fig3 grid widened to the full strategy roster."""
    return make_spec(
        name=name,
        axes={"strategy": tuple(strategies), "n": tuple(demands)},
        runner=commaware_cell,
        cluster=cluster_spec or ClusterSpec(),
        master_seed=seed,
        cost_key=demand_cost_key,
    )


def commaware_app_spec(app, seed: int = 0,
                       strategies: Sequence[str] = ALL_STRATEGIES,
                       process_counts: Optional[Iterable[int]] = None,
                       cluster_spec: Optional[ClusterSpec] = None,
                       ) -> ExperimentSpec:
    """One fig4 panel under the full roster (EP or IS)."""
    return application_spec(
        app, process_counts=process_counts, strategies=tuple(strategies),
        seed=seed, cluster_spec=cluster_spec,
        name=f"commaware-fig4-{app.name}")


def latratio_spec(
    seed: int = 0,
    ratios: Iterable[float] = LATENCY_RATIOS,
    strategies: Sequence[str] = ALL_STRATEGIES,
    n: int = LATRATIO_DEMAND,
    name: str = "commaware-latratio",
) -> ExperimentSpec:
    """The latency-heterogeneity grid: ratio x strategy at fixed n."""
    return make_spec(
        name=name,
        axes={"ratio": tuple(ratios), "strategy": tuple(strategies)},
        runner=latratio_cell,
        cluster=ClusterSpec(kind="grid5000-latratio"),
        master_seed=seed,
        meta={"n": n},
        cell_cluster=ratio_cluster,
    )


@dataclass
class CommawareCampaign:
    """The pack's three sweep groups, ready for reporting."""

    alloc: SweepResult
    apps: Dict[str, SweepResult]
    latratio: Optional[SweepResult]
    strategies: Tuple[str, ...]
    demands: Tuple[int, ...]

    def sweeps(self) -> List[SweepResult]:
        """Every sweep the campaign ran, in execution order."""
        out = [self.alloc] + [self.apps[k] for k in sorted(self.apps)]
        if self.latratio is not None:
            out.append(self.latratio)
        return out


def run_commaware_campaign(
    seed: int = 0,
    demands: Iterable[int] = PAPER_DEMANDS,
    strategies: Sequence[str] = ALL_STRATEGIES,
    cluster_spec: Optional[ClusterSpec] = None,
    with_apps: bool = True,
    with_latratio: bool = True,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    force: bool = False,
    shard: Optional[Tuple[int, int]] = None,
) -> CommawareCampaign:
    """Run the whole pack through the engine.

    ``cluster_spec`` reshapes the alloc/app grids (tests use the small
    testbed); the latency-ratio sweep always runs on the
    ``grid5000-latratio`` kind since the ratio *is* its subject.
    ``shard`` slices every sweep's grid the same way (CLI ``--shard``);
    sharded sweeps persist to ``.partial`` files for a later merge.
    """
    demands = tuple(demands)
    strategies = tuple(strategies)
    alloc = run_sweep(
        commaware_alloc_spec(seed=seed, demands=demands,
                             strategies=strategies,
                             cluster_spec=cluster_spec),
        jobs=jobs, store=store, force=force, shard=shard)
    apps: Dict[str, SweepResult] = {}
    if with_apps:
        for app in (EPBenchmark("B"), ISBenchmark("B")):
            apps[app.name] = run_sweep(
                commaware_app_spec(app, seed=seed, strategies=strategies,
                                   cluster_spec=cluster_spec),
                jobs=jobs, store=store, force=force, shard=shard)
    latratio = None
    if with_latratio:
        latratio = run_sweep(
            latratio_spec(seed=seed, strategies=strategies),
            jobs=jobs, store=store, force=force, shard=shard)
    return CommawareCampaign(alloc=alloc, apps=apps, latratio=latratio,
                             strategies=strategies, demands=demands)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def _metric_rows(sweep: SweepResult, strategies: Sequence[str],
                 metric: str, scale: float = 1.0) -> Dict[str, List]:
    """strategy -> metric values in grid order along the other axis."""
    rows: Dict[str, List] = {}
    for strategy in strategies:
        values = []
        for cell in sweep.select(strategy=strategy):
            v = cell.value.get(metric)
            values.append(None if v is None else v * scale)
        rows[strategy] = values
    return rows


def commaware_report(campaign: CommawareCampaign) -> str:
    """The comparison report, deterministic byte for byte.

    No timings, no paths: two runs of the same campaign — serial,
    parallel or cache-replayed — must render identical text.
    """
    parts: List[str] = []
    demands = list(campaign.demands)
    strategies = list(campaign.strategies)

    parts.append("== fig2/fig3 grid: placement quality by strategy ==")
    parts.append(format_metric_comparison(
        "hosts@n", demands,
        _metric_rows(campaign.alloc, strategies, "total_hosts"), fmt="g"))
    parts.append("")
    parts.append(format_metric_comparison(
        "sites@n", demands,
        _metric_rows(campaign.alloc, strategies, "sites_used"), fmt="g"))
    parts.append("")
    parts.append(format_metric_comparison(
        "diam_ms@n", demands,
        _metric_rows(campaign.alloc, strategies, "latency_diameter_ms"),
        fmt=".3f"))
    parts.append("")
    parts.append(format_metric_comparison(
        "minbw_gbps@n", demands,
        _metric_rows(campaign.alloc, strategies, "min_bandwidth_bps",
                     scale=1e-9),
        fmt=".2f"))

    for app_name, sweep in campaign.apps.items():
        series = app_series_from_sweep(sweep)
        parts.append("")
        parts.append(f"== fig4 grid: {app_name.upper()} class B ==")
        parts.append(format_series_table(series, title=app_name))

    if campaign.latratio is not None:
        ratios = [f"{v:g}" for v in campaign.latratio.spec.axes[0][1]]
        parts.append("")
        parts.append("== latency-heterogeneity axis "
                     f"(n={campaign.latratio.spec.meta['n']}, "
                     "inter/intra-site RTT ratio) ==")
        diam_rows: Dict[str, List] = {}
        bw_rows: Dict[str, List] = {}
        for strategy in strategies:
            cells = campaign.latratio.select(strategy=strategy)
            diam_rows[strategy] = [c.value["latency_diameter_ms"]
                                   for c in cells]
            bw_rows[strategy] = [
                None if c.value["min_bandwidth_bps"] is None
                else c.value["min_bandwidth_bps"] * 1e-9 for c in cells]
        parts.append(format_metric_comparison(
            "diam_ms@ratio", ratios, diam_rows, fmt=".3f"))
        parts.append("")
        parts.append(format_metric_comparison(
            "minbw_gbps@ratio", ratios, bw_rows, fmt=".2f"))
    return "\n".join(parts)


# ----------------------------------------------------------------------
# CLI registration (commaware)
# ----------------------------------------------------------------------
def _cli_specs(args) -> List[ExperimentSpec]:
    """The campaign's sweep grids for these flags, nothing executed.

    Must mirror :func:`run_commaware_campaign`'s spec construction
    exactly — same kwargs, same order — or the orchestrator would plan
    shards against hashes its workers never write.
    """
    from repro.experiments.cliutil import grid_overrides

    small = args.cluster == "small"
    overrides = grid_overrides(args)
    demands = tuple(overrides.get("demands", PAPER_DEMANDS))
    cluster_spec = overrides.get("cluster_spec")
    specs = [commaware_alloc_spec(seed=args.seed, demands=demands,
                                  strategies=ALL_STRATEGIES,
                                  cluster_spec=cluster_spec)]
    if not small:
        for app in (EPBenchmark("B"), ISBenchmark("B")):
            specs.append(commaware_app_spec(
                app, seed=args.seed, strategies=ALL_STRATEGIES,
                cluster_spec=cluster_spec))
        specs.append(latratio_spec(seed=args.seed,
                                   strategies=ALL_STRATEGIES))
    return specs


def _cli_run(args, store) -> None:
    """The communication-aware pack.  Output is deterministic byte for
    byte (no timings), so ``--jobs 1`` and ``--jobs 2`` runs diff clean.
    """
    from repro.experiments.cliutil import grid_overrides, report_sweep

    small = args.cluster == "small"
    campaign = run_commaware_campaign(
        seed=args.seed,
        # The fig4/latratio panels assume the full testbed's demand
        # range; on the smoke grid only the alloc comparison makes sense.
        with_apps=not small,
        with_latratio=not small,
        jobs=args.jobs, store=store, force=args.force, shard=args.shard,
        **grid_overrides(args))
    if args.shard:
        for sweep in campaign.sweeps():
            report_sweep(sweep, store)
        return
    print(commaware_report(campaign))


def _register() -> None:
    from repro.experiments import registry

    registry.register(registry.Experiment(
        name="commaware",
        cli_run=_cli_run,
        specs=_cli_specs,
        cli_axes=("cluster", "demands"),
    ))


_register()
