"""Figures 2 and 3: where processes land, per strategy.

"The experiment consists in running the hostname program, requesting
from 100 to 600 processes by steps of 50."  For each (strategy, n) we
submit through the full middleware stack and record allocated hosts and
cores per site — the two panels of each figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster import ClusterSpec
from repro.experiments.engine import (CellContext, ExperimentSpec,
                                      ResultStore, SweepResult,
                                      demand_cost_key, make_spec, run_sweep)
from repro.middleware.jobs import JobRequest, JobStatus

__all__ = ["PAPER_DEMANDS", "CoallocationPoint", "CoallocationSeries",
           "coallocation_cell", "coallocation_spec", "series_from_sweep",
           "run_coallocation_experiment"]

#: The paper's x axis: 100..600 step 50.
PAPER_DEMANDS: Tuple[int, ...] = tuple(range(100, 601, 50))


@dataclass
class CoallocationPoint:
    """One (strategy, n) submission's outcome."""

    strategy: str
    n: int
    status: str
    hosts_by_site: Dict[str, int]
    cores_by_site: Dict[str, int]
    reservation_s: float
    total_hosts: int
    total_cores: int

    def hosts(self, site: str) -> int:
        return self.hosts_by_site.get(site, 0)

    def cores(self, site: str) -> int:
        return self.cores_by_site.get(site, 0)

    @property
    def sites_used(self) -> List[str]:
        return sorted(s for s, c in self.cores_by_site.items() if c > 0)


@dataclass
class CoallocationSeries:
    """All points of one strategy's sweep (one paper figure)."""

    strategy: str
    demands: List[int] = field(default_factory=list)
    points: List[CoallocationPoint] = field(default_factory=list)

    def point(self, n: int) -> CoallocationPoint:
        for pt in self.points:
            if pt.n == n:
                return pt
        raise KeyError(f"no point for n={n}")

    def hosts_series(self, site: str) -> List[int]:
        """Figure left panel: allocated hosts at ``site`` vs demand."""
        return [pt.hosts(site) for pt in self.points]

    def cores_series(self, site: str) -> List[int]:
        """Figure right panel: allocated cores at ``site`` vs demand."""
        return [pt.cores(site) for pt in self.points]

    # -- §5.1 narrative checks -------------------------------------------------
    def only_site_until(self, site: str) -> int:
        """Largest demand served exclusively by ``site`` (0 if none)."""
        best = 0
        for pt in self.points:
            if pt.sites_used == [site]:
                best = max(best, pt.n)
        return best


def coallocation_cell(ctx: CellContext) -> Dict:
    """Engine cell: one (strategy, n) submission through the stack."""
    strategy = ctx.params["strategy"]
    n = ctx.params["n"]
    result = ctx.cluster.submit_and_run(
        JobRequest(n=n, strategy=strategy, tag=f"fig-{strategy}")
    )
    if result.status not in (JobStatus.SUCCESS, JobStatus.DEGRADED):
        raise RuntimeError(f"{strategy} n={n} failed: {result.summary()}")
    plan = result.allocation
    return {
        "status": result.status.value,
        "hosts_by_site": plan.hosts_by_site(),
        "cores_by_site": plan.cores_by_site(),
        "reservation_s": result.timings.reservation_s,
        "total_hosts": len(plan.used_hosts()),
        "total_cores": plan.total_processes,
    }


def coallocation_spec(
    seed: int = 0,
    demands: Iterable[int] = PAPER_DEMANDS,
    strategies: Sequence[str] = ("concentrate", "spread"),
    cluster_spec: Optional[ClusterSpec] = None,
    name: str = "coallocation",
) -> ExperimentSpec:
    """The §5.1 sweep as a declarative spec (strategy-major order)."""
    return make_spec(
        name=name,
        axes={"strategy": tuple(strategies), "n": tuple(demands)},
        runner=coallocation_cell,
        cluster=cluster_spec or ClusterSpec(),
        master_seed=seed,
        # Pool runs start the largest-demand cells first.
        cost_key=demand_cost_key,
    )


def series_from_sweep(sweep: SweepResult) -> Dict[str, CoallocationSeries]:
    """Assemble the legacy per-strategy series from engine cells."""
    out: Dict[str, CoallocationSeries] = {}
    for cell in sweep.cells:
        strategy = cell.params["strategy"]
        n = cell.params["n"]
        series = out.setdefault(strategy,
                                CoallocationSeries(strategy=strategy))
        series.demands.append(n)
        series.points.append(CoallocationPoint(
            strategy=strategy, n=n, status=cell.value["status"],
            hosts_by_site=dict(cell.value["hosts_by_site"]),
            cores_by_site=dict(cell.value["cores_by_site"]),
            reservation_s=cell.value["reservation_s"],
            total_hosts=cell.value["total_hosts"],
            total_cores=cell.value["total_cores"],
        ))
    return out


def run_coallocation_experiment(
    seed: int = 0,
    demands: Iterable[int] = PAPER_DEMANDS,
    strategies: Sequence[str] = ("concentrate", "spread"),
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    force: bool = False,
) -> Dict[str, CoallocationSeries]:
    """Run the §5.1 sweep; returns one series per strategy.

    Every cell boots a private testbed from a seed derived per cell,
    as ``p2pmpirun run coallocation`` does, so the sweep is
    parallelisable (``jobs``) and cacheable (``store``).
    """
    spec = coallocation_spec(seed=seed, demands=demands,
                             strategies=strategies)
    sweep = run_sweep(spec, jobs=jobs, store=store, force=force)
    return series_from_sweep(sweep)


# ----------------------------------------------------------------------
# CLI registration (fig2 / fig3 / coallocation)
# ----------------------------------------------------------------------
def _figure_strategies(name: str) -> Tuple[str, ...]:
    if name == "fig2":
        return ("concentrate",)
    if name == "fig3":
        return ("spread",)
    return ("concentrate", "spread")


def _figure_spec(args, name: str) -> ExperimentSpec:
    from repro.experiments.cliutil import grid_overrides

    return coallocation_spec(seed=args.seed,
                             strategies=_figure_strategies(name),
                             name=name, **grid_overrides(args))


def _print_series(series: CoallocationSeries, plot: bool) -> None:
    from repro.experiments.report import format_site_table

    print(format_site_table(series, value="hosts"))
    print()
    print(format_site_table(series, value="cores"))
    if plot:
        from repro.experiments.figures import ascii_plot
        from repro.experiments.report import legend_order

        sites = legend_order(
            sorted({s for pt in series.points for s in pt.cores_by_site}))
        print()
        print(ascii_plot(
            series.demands,
            {site: series.cores_series(site) for site in sites},
            title=f"{series.strategy}: allocated cores per site",
            y_label="cores",
        ))


def _cli_run_figure(args, store, name: str) -> None:
    from repro.experiments.cliutil import report_sweep

    spec = _figure_spec(args, name)
    sweep = run_sweep(spec, jobs=args.jobs, store=store, force=args.force,
                      shard=args.shard)
    report_sweep(sweep, store)
    if args.shard:
        return  # a shard's slice cannot fill the report tables
    strategy = _figure_strategies(name)[0]
    _print_series(series_from_sweep(sweep)[strategy], args.plot)


def _cli_run_combined(args, store) -> None:
    """The §5.1 sweep with both published strategies in one grid."""
    from repro.experiments.cliutil import report_sweep
    from repro.experiments.report import format_site_table

    spec = _figure_spec(args, "coallocation")
    sweep = run_sweep(spec, jobs=args.jobs, store=store, force=args.force,
                      shard=args.shard)
    report_sweep(sweep, store)
    if args.shard:
        return
    for _strategy, series in sorted(series_from_sweep(sweep).items()):
        print(format_site_table(series, value="hosts"))
        print()
        print(format_site_table(series, value="cores"))
        print()


def _register() -> None:
    from repro.experiments import registry

    axes = ("cluster", "demands", "plot")
    for name in ("fig2", "fig3", "coallocation"):
        run = (_cli_run_combined if name == "coallocation"
               else (lambda args, store, name=name:
                     _cli_run_figure(args, store, name)))
        registry.register(registry.Experiment(
            name=name,
            cli_run=run,
            specs=lambda args, name=name: [_figure_spec(args, name)],
            cli_axes=axes,
        ))


_register()
