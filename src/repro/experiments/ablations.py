"""Ablation studies on the design choices DESIGN.md calls out.

1. **Latency-measurement noise** (§5.1 / future work): how measurement
   noise degrades the cached-list ranking, quantified with Kendall's
   tau against the true base-RTT order.
2. **EWMA smoothing / sample count**: the paper's future-work item
   "improving the accuracy of our latency measurement".
3. **Overbooking factor** under churn: booking exactly ``n*r`` hosts
   versus overbooking when peers die between booking and launch.
4. **Replication degree**: job survival probability vs. ``r`` under
   i.i.d. host failures.
5. **Block (mixed) strategies**: the spread<->concentrate continuum on
   the application models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.apps.base import Application
from repro.cluster import ClusterSpec
from repro.experiments.engine import (Cell, CellContext, ExperimentSpec,
                                      derive_cell_seed, make_spec, run_sweep)
from repro.ft.replication import survival_probability
from repro.grid5000.builder import build_topology
from repro.middleware.config import MiddlewareConfig
from repro.middleware.jobs import JobRequest, JobStatus
from repro.net.latency import LatencyModel
from repro.net.topology import Topology

__all__ = ["kendall_tau", "latency_noise_ablation", "smoothing_ablation",
           "overbooking_ablation", "replication_ablation",
           "block_strategy_ablation", "noise_cell", "smoothing_cell",
           "overbooking_cell", "overbooking_cluster", "overbooking_spec",
           "replication_cell", "block_cell"]


def kendall_tau(a: Sequence[float], b: Sequence[float]) -> float:
    """Kendall rank correlation between two score vectors (O(n^2)).

    +1 = identical ranking, -1 = reversed.  Ties count as discordant
    half-weight (tau-a over strict pairs); adequate for continuous
    latencies.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("kendall_tau needs two equal-length vectors")
    n = len(a)
    if n < 2:
        return 1.0
    da = np.sign(a[:, None] - a[None, :])
    db = np.sign(b[:, None] - b[None, :])
    upper = np.triu_indices(n, k=1)
    prod = da[upper] * db[upper]
    return float(prod.sum() / prod.size)


@dataclass
class NoisePoint:
    noise_sigma_ms: float
    samples: int
    ewma_alpha: Optional[float]
    tau: float


def _ranking_tau(topology: Topology, noise_sigma_ms: float, samples: int,
                 ewma_alpha: Optional[float], seed: int) -> float:
    """Kendall tau of measured-vs-true RTT ranking from the submitter."""
    rng = np.random.default_rng(seed)
    model = LatencyModel(topology, rng, noise_sigma_ms=noise_sigma_ms)
    src = topology.host("grelon-1.nancy")
    hosts = [h for h in topology.all_hosts() if h.name != src.name]
    true_rtt = [topology.base_rtt_ms(src, h) for h in hosts]
    measured = [
        model.estimate(src, h, samples=samples, ewma_alpha=ewma_alpha).value_ms
        for h in hosts
    ]
    return kendall_tau(true_rtt, measured)


def noise_cell(ctx: CellContext) -> dict:
    """Engine cell: ranking tau at one noise level (no cluster needed)."""
    tau = _ranking_tau(build_topology(), ctx.params["sigma_ms"],
                       ctx.meta["samples"], None, ctx.seed)
    return {"tau": tau}


def latency_noise_ablation(
    sigmas_ms: Iterable[float] = (0.0, 0.35, 0.8, 1.2, 2.5, 5.0),
    samples: int = 3,
    seed: int = 0,
    jobs: int = 1,
    store=None,
    force: bool = False,
) -> List[NoisePoint]:
    """Ranking quality vs. per-probe noise (paper's §5.1 effect)."""
    spec = make_spec("ablation-noise", {"sigma_ms": tuple(sigmas_ms)},
                     noise_cell, master_seed=seed, fixed_seed=True,
                     meta={"samples": samples})
    sweep = run_sweep(spec, jobs=jobs, store=store, force=force)
    return [
        NoisePoint(cell.params["sigma_ms"], samples, None, cell.value["tau"])
        for cell in sweep.cells
    ]


def smoothing_cell(ctx: CellContext) -> dict:
    """Engine cell: ranking tau for one (sample count, smoothing)."""
    tau = _ranking_tau(build_topology(), ctx.meta["noise_sigma_ms"],
                       ctx.params["samples"], ctx.params["ewma_alpha"],
                       ctx.seed)
    return {"tau": tau}


def smoothing_ablation(
    noise_sigma_ms: float = 1.2,
    sample_counts: Iterable[int] = (1, 3, 10, 30),
    ewma_alpha: Optional[float] = 0.2,
    seed: int = 0,
    jobs: int = 1,
) -> List[NoisePoint]:
    """More probes / EWMA vs. ranking quality (the future-work fix)."""
    spec = make_spec(
        "ablation-smoothing",
        {"samples": tuple(sample_counts), "ewma_alpha": (None, ewma_alpha)},
        smoothing_cell, master_seed=seed, fixed_seed=True,
        meta={"noise_sigma_ms": noise_sigma_ms})
    sweep = run_sweep(spec, jobs=jobs)
    return [
        NoisePoint(noise_sigma_ms, cell.params["samples"],
                   cell.params["ewma_alpha"], cell.value["tau"])
        for cell in sweep.cells
    ]


@dataclass
class OverbookPoint:
    overbook_factor: float
    killed_hosts: int
    status: str
    dead_detected: int
    allocated: int


def overbooking_cluster(spec: ExperimentSpec, cell: Cell) -> ClusterSpec:
    """``cell_cluster``: hosts overbook by the cell's factor."""
    return spec.cluster.with_config(MiddlewareConfig(
        overbook_factor=cell.param_dict()["factor"], overbook_extra=0,
        rs_timeout_s=1.0))


def overbooking_cell(ctx: CellContext) -> dict:
    """Engine cell: one overbooking factor against freshly-dead peers,
    on the cluster :func:`overbooking_cluster` configures."""
    cluster = ctx.cluster
    victims = [h for h in sorted(cluster.mpds)
               if h.startswith(ctx.meta["victim_prefix"])
               and h != cluster.default_submitter][:ctx.meta["kill_count"]]
    cluster.kill_hosts(victims)
    result = cluster.submit_and_run(
        JobRequest(n=ctx.meta["n"], strategy="spread"))
    return {
        "killed_hosts": len(victims),
        "status": result.status.value,
        "dead_detected": len(result.dead_peers),
        "allocated": (result.plan.total_processes if result.plan else 0),
    }


def overbooking_spec(
    factors: Iterable[float] = (1.0, 1.1, 1.2, 1.5),
    n: int = 120,
    kill_count: int = 12,
    seed: int = 3,
    cluster_spec: Optional[ClusterSpec] = None,
    victim_prefix: str = "grelon",
) -> ExperimentSpec:
    """One cell per factor, killing ``kill_count`` ``victim_prefix*``s."""
    return make_spec(
        "ablation-overbooking", {"factor": tuple(factors)},
        overbooking_cell, cluster=cluster_spec or ClusterSpec(),
        master_seed=seed, fixed_seed=True,
        meta={"n": n, "kill_count": kill_count,
              "victim_prefix": victim_prefix},
        cell_cluster=overbooking_cluster)


def overbooking_ablation(
    factors: Iterable[float] = (1.0, 1.1, 1.2, 1.5),
    n: int = 120,
    kill_count: int = 12,
    seed: int = 3,
    jobs: int = 1,
) -> List[OverbookPoint]:
    """Book exactly vs. overbook while ``kill_count`` booked peers die.

    Hosts are killed *after boot, before submission*, so their silent
    RESERVE timeouts are what the overbooking margin must absorb.
    """
    sweep = run_sweep(overbooking_spec(factors, n, kill_count, seed),
                      jobs=jobs)
    return [
        OverbookPoint(
            overbook_factor=cell.params["factor"],
            killed_hosts=cell.value["killed_hosts"],
            status=cell.value["status"],
            dead_detected=cell.value["dead_detected"],
            allocated=cell.value["allocated"],
        )
        for cell in sweep.cells
    ]


@dataclass
class ReplicationPoint:
    r: int
    p_host_fail: float
    survival: float


def replication_cell(ctx: CellContext) -> dict:
    """Engine cell: survival at one replication degree.

    Runs on the sweep's shared cluster (the legacy sequence of
    submissions); the Monte-Carlo stream is derived per cell so the
    estimate is independent of execution order.
    """
    r = ctx.params["r"]
    result = ctx.cluster.submit_and_run(
        JobRequest(n=ctx.meta["n"], r=r, strategy="spread"))
    if result.status is not JobStatus.SUCCESS:
        raise RuntimeError(result.summary())
    rng = np.random.default_rng(
        derive_cell_seed(ctx.seed, f"replication-survival:r={r}"))
    survival = survival_probability(result.allocation,
                                    ctx.meta["p_host_fail"], rng,
                                    trials=ctx.meta["trials"])
    return {"survival": survival}


def replication_ablation(
    replication_degrees: Iterable[int] = (1, 2, 3),
    p_host_fail: float = 0.05,
    n: int = 60,
    seed: int = 1,
    trials: int = 4000,
    store=None,
    force: bool = False,
) -> List[ReplicationPoint]:
    """Survival probability vs. replication degree (§3.2 rationale)."""
    spec = make_spec(
        "ablation-replication", {"r": tuple(replication_degrees)},
        replication_cell, master_seed=seed, fixed_seed=True,
        shared_cluster=True,
        meta={"n": n, "p_host_fail": p_host_fail, "trials": trials})
    sweep = run_sweep(spec, store=store, force=force)
    return [
        ReplicationPoint(r=cell.params["r"], p_host_fail=p_host_fail,
                         survival=cell.value["survival"])
        for cell in sweep.cells
    ]


@dataclass
class BlockPoint:
    block: int
    app: str
    n: int
    time_s: float


def block_cell(ctx: CellContext) -> dict:
    """Engine cell: one block size of the mixed-strategy continuum."""
    app: Application = ctx.meta["app"]
    result = ctx.cluster.submit_and_run(JobRequest(
        n=ctx.meta["n"], strategy="block",
        strategy_kwargs={"block": ctx.params["block"]}, app=app,
    ))
    if result.status is not JobStatus.SUCCESS:
        raise RuntimeError(result.summary())
    return {"app": app.name, "time_s": result.timings.makespan_s}


def block_strategy_ablation(
    app: Application,
    n: int = 64,
    blocks: Iterable[int] = (1, 2, 4),
    seed: int = 0,
) -> List[BlockPoint]:
    """The mixed-strategy continuum: block=1 is spread, block>=max(P)
    behaves like concentrate; intermediate blocks trade contention for
    locality on the application models."""
    spec = make_spec(
        "ablation-block", {"block": tuple(blocks)},
        block_cell, master_seed=seed, fixed_seed=True, shared_cluster=True,
        meta={"app": app, "n": n})
    sweep = run_sweep(spec)
    return [
        BlockPoint(block=cell.params["block"], app=cell.value["app"], n=n,
                   time_s=cell.value["time_s"])
        for cell in sweep.cells
    ]


# ----------------------------------------------------------------------
# CLI registration (ablations)
# ----------------------------------------------------------------------
def _cli_run(args, store) -> None:
    print("Latency noise vs ranking quality (Kendall tau):")
    for p in latency_noise_ablation(seed=args.seed, jobs=args.jobs,
                                    store=store, force=args.force):
        print(f"  sigma={p.noise_sigma_ms:5.2f} ms  tau={p.tau:.4f}")
    print("\nReplication degree vs survival (5% host failures):")
    for p in replication_ablation(seed=args.seed or 1, store=store,
                                  force=args.force):
        print(f"  r={p.r}  P(survive)={p.survival:.4f}")


def _register() -> None:
    from repro.experiments import registry

    registry.register(registry.Experiment(
        name="ablations",
        cli_run=_cli_run,
        shardable=False,
    ))


_register()
