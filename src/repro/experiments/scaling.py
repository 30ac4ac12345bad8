"""Co-allocation latency scaling.

The paper's main objective is "to assess the allocation mechanism
effects at the scale of applications composed of hundreds of
processes"; besides *where* processes land, an operator cares how
*long* the reservation machinery takes as the request grows.  This
driver measures the simulated booking/launch milestones of
:class:`~repro.middleware.jobs.JobTimings` across demand sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.cluster import ClusterSpec
from repro.experiments.engine import (CellContext, ExperimentSpec,
                                      ResultStore, SweepResult, make_spec,
                                      run_sweep)
from repro.middleware.jobs import JobRequest

__all__ = ["ScalingPoint", "ScalingSeries", "scaling_cell", "scaling_spec",
           "scaling_series_from_sweep", "run_scaling_experiment"]


@dataclass
class ScalingPoint:
    """Timing milestones of one submission."""

    n: int
    strategy: str
    reservation_s: float
    launch_s: float
    total_s: float
    booked_hosts: int
    attempts: int


@dataclass
class ScalingSeries:
    strategy: str
    points: List[ScalingPoint] = field(default_factory=list)

    @property
    def ns(self) -> List[int]:
        return [p.n for p in self.points]

    def reservation_series(self) -> List[float]:
        return [p.reservation_s for p in self.points]

    def launch_series(self) -> List[float]:
        return [p.launch_s for p in self.points]


def scaling_cell(ctx: CellContext) -> Dict:
    """Engine cell: timing milestones of one sized submission."""
    strategy = ctx.meta["strategy"]
    n = ctx.params["n"]
    result = ctx.cluster.submit_and_run(
        JobRequest(n=n, strategy=strategy, tag="scaling"))
    if not result.ok:
        raise RuntimeError(result.summary())
    return {
        "reservation_s": result.timings.reservation_s,
        "launch_s": result.timings.launch_s,
        "total_s": result.timings.total_s,
        "booked_hosts": len(result.allocation.slist),
        "attempts": result.attempts,
    }


def scaling_spec(
    demands: Iterable[int] = (50, 100, 200, 400, 600),
    strategy: str = "spread",
    seed: int = 0,
    cluster_spec: Optional[ClusterSpec] = None,
    name: str = "scaling",
) -> ExperimentSpec:
    """The reservation-latency sweep as a declarative spec."""
    return make_spec(
        name=name,
        axes={"n": tuple(demands)},
        runner=scaling_cell,
        cluster=cluster_spec or ClusterSpec(),
        master_seed=seed,
        meta={"strategy": strategy},
    )


def scaling_series_from_sweep(sweep: SweepResult) -> ScalingSeries:
    """Assemble the legacy series from engine cells."""
    strategy = sweep.spec.meta["strategy"]
    series = ScalingSeries(strategy=strategy)
    for cell in sweep.cells:
        series.points.append(ScalingPoint(
            n=cell.params["n"], strategy=strategy,
            reservation_s=cell.value["reservation_s"],
            launch_s=cell.value["launch_s"],
            total_s=cell.value["total_s"],
            booked_hosts=cell.value["booked_hosts"],
            attempts=cell.value["attempts"],
        ))
    return series


def run_scaling_experiment(
    demands: Iterable[int] = (50, 100, 200, 400, 600),
    strategy: str = "spread",
    seed: int = 0,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    force: bool = False,
) -> ScalingSeries:
    """Measure co-allocation latency over a demand sweep."""
    spec = scaling_spec(demands=demands, strategy=strategy, seed=seed)
    sweep = run_sweep(spec, jobs=jobs, store=store, force=force)
    return scaling_series_from_sweep(sweep)


# ----------------------------------------------------------------------
# CLI registration (scaling)
# ----------------------------------------------------------------------
def _cli_strategy(args) -> str:
    strategy = args.alloc
    if strategy == "block":
        import sys

        print("warning: run scaling does not sweep the block "
              "strategy; using spread", file=sys.stderr)
        strategy = "spread"
    return strategy


def _cli_specs(args) -> List[ExperimentSpec]:
    return [scaling_spec(seed=args.seed, strategy=_cli_strategy(args))]


def _cli_run(args, store) -> None:
    from repro.experiments.cliutil import report_sweep

    spec = scaling_spec(seed=args.seed, strategy=_cli_strategy(args))
    sweep = run_sweep(spec, jobs=args.jobs, store=store, force=args.force,
                      shard=args.shard)
    report_sweep(sweep, store)
    if args.shard:
        return
    series = scaling_series_from_sweep(sweep)
    print(f"strategy: {series.strategy}")
    for p in series.points:
        print(f"n={p.n:<4} reservation={p.reservation_s * 1e3:7.1f} ms  "
              f"launch={p.launch_s * 1e3:7.1f} ms  booked={p.booked_hosts}  "
              f"attempts={p.attempts}")


def _register() -> None:
    from repro.experiments import registry

    registry.register(registry.Experiment(
        name="scaling",
        cli_run=_cli_run,
        specs=_cli_specs,
        cli_axes=("alloc",),
    ))


_register()
