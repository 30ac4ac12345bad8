"""Figure 4: NAS EP and IS execution times per strategy.

"As a concrete example of allocation strategy impact, we run the
benchmark EP from 32 to 512 processes" (left panel) and IS from 32 to
128 (right panel), class B, under both strategies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.apps.base import Application
from repro.apps.ep import EPBenchmark
from repro.apps.is_bench import ISBenchmark
from repro.cluster import ClusterSpec
from repro.experiments.engine import (CellContext, ExperimentSpec,
                                      ResultStore, SweepResult,
                                      demand_cost_key, make_spec, run_sweep)
from repro.middleware.jobs import JobRequest, JobStatus

__all__ = ["EP_PROCESS_COUNTS", "IS_PROCESS_COUNTS", "AppTimePoint",
           "AppTimeSeries", "application_cell", "application_spec",
           "app_series_from_sweep", "run_application_experiment"]

#: Paper x axes.
EP_PROCESS_COUNTS: Tuple[int, ...] = (32, 64, 128, 256, 512)
IS_PROCESS_COUNTS: Tuple[int, ...] = (32, 64, 128)


@dataclass
class AppTimePoint:
    """One (app, strategy, n) measurement."""

    app: str
    strategy: str
    n: int
    time_s: float
    status: str


@dataclass
class AppTimeSeries:
    """One strategy's curve for one application."""

    app: str
    strategy: str
    points: List[AppTimePoint] = field(default_factory=list)

    @property
    def ns(self) -> List[int]:
        return [pt.n for pt in self.points]

    @property
    def times(self) -> List[float]:
        return [pt.time_s for pt in self.points]

    def time_at(self, n: int) -> float:
        for pt in self.points:
            if pt.n == n:
                return pt.time_s
        raise KeyError(f"no point for n={n}")

    def is_monotone_decreasing(self, tolerance: float = 0.05) -> bool:
        """True if the curve never rises by more than ``tolerance``."""
        times = self.times
        return all(b <= a * (1 + tolerance) for a, b in zip(times, times[1:]))

    def flatness(self) -> float:
        """max/min ratio over the curve (1.0 = perfectly flat)."""
        times = self.times
        return max(times) / min(times)


def application_cell(ctx: CellContext) -> Dict:
    """Engine cell: one (strategy, n) run of the application model."""
    app: Application = ctx.meta["app"]
    strategy = ctx.params["strategy"]
    n = ctx.params["n"]
    result = ctx.cluster.submit_and_run(
        JobRequest(n=n, strategy=strategy, app=app, tag=f"fig4-{app.name}")
    )
    if result.status not in (JobStatus.SUCCESS, JobStatus.DEGRADED):
        raise RuntimeError(
            f"{app.name} {strategy} n={n} failed: {result.summary()}"
        )
    return {
        "app": app.name,
        "time_s": result.timings.makespan_s,
        "status": result.status.value,
    }


def application_spec(
    app: Optional[Application] = None,
    process_counts: Optional[Iterable[int]] = None,
    strategies: Sequence[str] = ("concentrate", "spread"),
    seed: int = 0,
    cluster_spec: Optional[ClusterSpec] = None,
    name: Optional[str] = None,
) -> ExperimentSpec:
    """One Figure-4 panel as a declarative spec.

    The application model rides in ``spec.meta`` (pickled by value
    into pool workers, canonicalised for the store hash).
    """
    app = app or EPBenchmark("B")
    if process_counts is None:
        process_counts = (
            IS_PROCESS_COUNTS if isinstance(app, ISBenchmark)
            else EP_PROCESS_COUNTS
        )
    return make_spec(
        name=name or f"fig4-{app.name}",
        axes={"strategy": tuple(strategies), "n": tuple(process_counts)},
        runner=application_cell,
        cluster=cluster_spec or ClusterSpec(),
        master_seed=seed,
        meta={"app": app},
        # Pool runs start the dominating n=512 cells first.
        cost_key=demand_cost_key,
    )


def app_series_from_sweep(sweep: SweepResult) -> Dict[str, AppTimeSeries]:
    """Assemble the legacy per-strategy series from engine cells."""
    out: Dict[str, AppTimeSeries] = {}
    for cell in sweep.cells:
        strategy = cell.params["strategy"]
        series = out.setdefault(
            strategy, AppTimeSeries(app=cell.value["app"], strategy=strategy))
        series.points.append(AppTimePoint(
            app=cell.value["app"], strategy=strategy, n=cell.params["n"],
            time_s=cell.value["time_s"], status=cell.value["status"],
        ))
    return out


def run_application_experiment(
    app: Optional[Application] = None,
    process_counts: Optional[Iterable[int]] = None,
    strategies: Sequence[str] = ("concentrate", "spread"),
    seed: int = 0,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    force: bool = False,
) -> Dict[str, AppTimeSeries]:
    """Run one application's Figure-4 sweep; series per strategy.

    Defaults reproduce the EP panel; pass ``ISBenchmark()`` and
    ``IS_PROCESS_COUNTS`` for the right panel.  Every cell boots its
    own testbed, so the cells run independently (parallelisable,
    cacheable).
    """
    spec = application_spec(app=app, process_counts=process_counts,
                            strategies=strategies, seed=seed)
    sweep = run_sweep(spec, jobs=jobs, store=store, force=force)
    return app_series_from_sweep(sweep)


# ----------------------------------------------------------------------
# CLI registration (fig4)
# ----------------------------------------------------------------------
def _fig4_apps(args) -> Tuple[Application, ...]:
    return (EPBenchmark(args.nas_class), ISBenchmark(args.nas_class))


def _fig4_specs(args) -> List[ExperimentSpec]:
    return [application_spec(app, seed=args.seed)
            for app in _fig4_apps(args)]


def _cli_run_fig4(args, store) -> None:
    from repro.experiments.cliutil import report_sweep
    from repro.experiments.report import format_series_table

    panels = {}
    for app in _fig4_apps(args):
        spec = application_spec(app, seed=args.seed)
        sweep = run_sweep(spec, jobs=args.jobs, store=store,
                          force=args.force, shard=args.shard)
        report_sweep(sweep, store)
        panels[app.name] = app_series_from_sweep(sweep)
    if args.shard:
        return
    for label, series in panels.items():
        print()
        print(format_series_table(series, title=label.upper()))
    if args.plot:
        from repro.experiments.figures import ascii_plot

        for label, series in panels.items():
            print()
            print(ascii_plot(
                series["spread"].ns,
                {name: s.times for name, s in series.items()},
                title=f"{label} total time",
                y_label="s",
            ))


def _register() -> None:
    from repro.experiments import registry

    registry.register(registry.Experiment(
        name="fig4",
        cli_run=_cli_run_fig4,
        specs=_fig4_specs,
        cli_axes=("nas_class", "plot"),
    ))


_register()
