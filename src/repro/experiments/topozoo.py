"""The topozoo campaign: strategy ranking across topology families.

Every prior campaign ranks co-allocation strategies on *one* graph —
the paper's 6-site Grid'5000 federation (plus its latency-ratio
reshapes).  This campaign asks whether that ranking is a property of
the strategies or of the testbed: it sweeps the full 6-strategy roster
over the generated complex-network families of
:mod:`repro.net.families` (``scale_free``, ``small_world``,
``fat_sites``) alongside the flat paper testbed, runs IS class B under
the routed per-link contention model, and names the winning strategy
per (family, size) cell.  The closing "topology dependence" block
lists every generated cell whose winner differs from the paper
testbed's — the campaign's headline claim, pinned by the tier-1 suite.

Determinism: the generated topology of a (family, sites) cell is built
from the campaign ``master_seed`` (carried in spec ``meta`` as
``topo_seed``), *not* from the per-cell seed — per-cell seeds differ
per strategy, and the winner comparison is only meaningful when every
strategy places onto the same graph.  The report is byte-deterministic
(no timings, no paths): ``--jobs 1``, ``--jobs 2`` and cache-replayed
runs render identical text, which is what CI diffs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.apps.is_bench import ISBenchmark
from repro.cluster import ClusterSpec
from repro.experiments.applatency import _comm_seconds
from repro.experiments.commaware import ALL_STRATEGIES
from repro.experiments.engine import (Cell, CellContext, ExperimentSpec,
                                      ResultStore, SweepResult, make_spec,
                                      run_sweep)
from repro.experiments.report import format_metric_comparison
from repro.middleware.jobs import JobRequest, JobStatus
from repro.net.contention import ContentionModel
from repro.net.families import GENERATED_FAMILIES

__all__ = ["TOPOZOO_FAMILIES", "TOPOZOO_SITES", "TopozooCampaign",
           "topozoo_cell", "topozoo_spec", "sized_cluster",
           "run_topozoo_campaign",
           "topozoo_winners", "topozoo_report"]

#: Campaign roster: the paper testbed first (the ranking baseline the
#: dependence block compares against), then the generated families.
TOPOZOO_FAMILIES: Tuple[str, ...] = ("grid5000",) + GENERATED_FAMILIES

#: Default site counts swept per generated family.  Two sizes bound
#: the small/large regimes while keeping the default campaign minutes-
#: scale; ``--sites 200`` stretches any family to paper-scale federations.
TOPOZOO_SITES: Tuple[int, ...] = (16, 48)


def _campaign_n(topology) -> int:
    """Process count for one cell: a third of the federation's cores.

    Large enough that every strategy must leave its first site (the
    regime where placements differ), small enough that ``concentrate``
    still has slack to pick dense sites.  Derived from the topology, so
    all strategies of one (family, sites) cell group get the same job.
    """
    return max(4, topology.n_cores // 3)


def sized_cluster(spec: ExperimentSpec, cell: Cell) -> ClusterSpec:
    """``cell_cluster``: the family at the cell's ``sites``, built on
    the campaign-constant ``topo_seed``."""
    return spec.cluster.with_params(
        sites=int(cell.param_dict()["sites"]),
        topo_seed=int(spec.meta["topo_seed"]))


def topozoo_cell(ctx: CellContext) -> Dict:
    """One (family[, sites], strategy) IS class B submission.

    A generated family's cell runs on the graph :func:`sized_cluster`
    declares; the paper testbed's on the panel's own cluster.
    """
    family = ctx.meta["family"]
    strategy = ctx.params["strategy"]
    cluster = ctx.cluster
    topology = cluster.topology
    n = _campaign_n(topology)
    app = ISBenchmark(str(ctx.meta["nas_class"]))
    result = cluster.submit_and_run(
        JobRequest(n=n, strategy=strategy, app=app,
                   tag=f"topozoo-{family}"))
    if result.status not in (JobStatus.SUCCESS, JobStatus.DEGRADED):
        raise RuntimeError(
            f"{family} {strategy} n={n} failed: {result.summary()}")
    plan = result.allocation
    copies = [p.host for p in plan.placements]
    contention = ContentionModel(topology).plan(copies)
    used = plan.used_hosts()
    reps, same_site_pair = topology.site_representatives(used)
    min_bw = topology.lan_bw_bps if same_site_pair else float("inf")
    max_hops = 0
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            min_bw = min(min_bw, contention.pair_bw_bps(a, b))
            max_hops = max(max_hops,
                           len(topology.route_links(a.site, b.site)))
    return {
        "family": family,
        "status": result.status.value,
        "n": n,
        "time_s": round(result.timings.makespan_s, 9),
        "comm_s": round(_comm_seconds(cluster, plan, app), 9),
        "total_hosts": len(used),
        "sites_used": len({h.site for h in used}),
        "latency_diameter_ms": round(topology.latency_diameter_ms(used), 6),
        # inf (single-host allocation) is not valid strict JSON: None.
        "min_bandwidth_bps": (None if min_bw == float("inf") else min_bw),
        "max_link_load": contention.max_crossing_pairs(),
        "max_route_hops": max_hops,
    }


def topozoo_spec(
    family: str,
    sizes: Iterable[int] = TOPOZOO_SITES,
    strategies: Sequence[str] = ALL_STRATEGIES,
    nas_class: str = "B",
    seed: int = 0,
) -> ExperimentSpec:
    """One family's panel: [sites x] strategy.

    The fixed paper testbed has no size axis; generated families sweep
    ``sites``.  ``topo_seed`` rides in ``meta`` (hashed, campaign-wide)
    so every strategy of a cell group scores the same generated graph.
    """
    axes: Dict[str, Tuple] = {}
    if family in GENERATED_FAMILIES:
        axes["sites"] = tuple(int(s) for s in sizes)
    axes["strategy"] = tuple(strategies)
    return make_spec(
        name=f"topozoo-{family}",
        axes=axes,
        runner=topozoo_cell,
        cluster=ClusterSpec(kind=family),
        master_seed=seed,
        meta={"family": family, "topo_seed": seed, "nas_class": nas_class},
        cell_cluster=sized_cluster if "sites" in axes else None,
    )


@dataclass
class TopozooCampaign:
    """Every family panel, ready for reporting."""

    families: Dict[str, SweepResult]  # keyed by family, roster order
    sizes: Tuple[int, ...]
    strategies: Tuple[str, ...]

    def sweeps(self) -> List[SweepResult]:
        return [self.families[k] for k in self.families]


def run_topozoo_campaign(
    seed: int = 0,
    families: Sequence[str] = TOPOZOO_FAMILIES,
    sizes: Iterable[int] = TOPOZOO_SITES,
    strategies: Sequence[str] = ALL_STRATEGIES,
    nas_class: str = "B",
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    force: bool = False,
    shard: Optional[Tuple[int, int]] = None,
) -> TopozooCampaign:
    """Run the selected family panels through the engine (CLI
    ``p2pmpirun run topozoo``); ``shard`` slices every panel the same
    way."""
    sizes = tuple(int(s) for s in sizes)
    strategies = tuple(strategies)
    unknown = [f for f in families if f not in TOPOZOO_FAMILIES]
    if unknown:
        raise ValueError(f"unknown topozoo families {unknown} "
                         f"(choose from {TOPOZOO_FAMILIES})")
    swept: Dict[str, SweepResult] = {}
    for family in TOPOZOO_FAMILIES:
        if family not in families:
            continue
        swept[family] = run_sweep(
            topozoo_spec(family, sizes=sizes, strategies=strategies,
                         nas_class=nas_class, seed=seed),
            jobs=jobs, store=store, force=force, shard=shard)
    return TopozooCampaign(families=swept, sizes=sizes,
                           strategies=strategies)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def _cell_labels(campaign: TopozooCampaign, family: str) -> List[Dict]:
    """Selector kwargs for each cell group of one family panel, in
    sweep order (the paper testbed has exactly one group)."""
    if family in GENERATED_FAMILIES:
        return [{"sites": s} for s in campaign.sizes]
    return [{}]


def _comm_value(sweep: SweepResult, strategy: str, group: Dict) -> float:
    return sweep.value(strategy=strategy, **group)["comm_s"]


def topozoo_winners(campaign: TopozooCampaign) -> Dict[str, str]:
    """Winning strategy per cell group, keyed ``family`` or
    ``family[sites=N]`` — minimum modelled IS communication seconds,
    ties resolved by roster order (deterministic)."""
    winners: Dict[str, str] = {}
    for family, sweep in campaign.families.items():
        for group in _cell_labels(campaign, family):
            best = min(
                campaign.strategies,
                key=lambda s: (_comm_value(sweep, s, group),
                               campaign.strategies.index(s)))
            label = (f"{family}[sites={group['sites']}]" if group
                     else family)
            winners[label] = best
    return winners


def topozoo_report(campaign: TopozooCampaign) -> str:
    """The campaign report, deterministic byte for byte.

    One comm-seconds table per family (strategy rows, size columns),
    the winner per cell group, then the topology-dependence block: the
    generated cells whose winner differs from the paper testbed's.
    """
    parts: List[str] = []
    parts.append("== topozoo: IS comm seconds by topology family ==")
    for family, sweep in campaign.families.items():
        groups = _cell_labels(campaign, family)
        columns = ([g["sites"] for g in groups] if groups[0]
                   else ["testbed"])
        rows: Dict[str, List] = {}
        for strategy in campaign.strategies:
            rows[strategy] = [_comm_value(sweep, strategy, g)
                              for g in groups]
        parts.append(format_metric_comparison(
            f"{family} comm_s@sites", columns, rows, fmt=".4f"))
        hops = max(c.value["max_route_hops"] for c in sweep.cells)
        loads = max(c.value["max_link_load"] for c in sweep.cells)
        parts.append(f"  routes: max hops {hops}, max link load {loads}")
        parts.append("")

    winners = topozoo_winners(campaign)
    parts.append("== winning strategy (min comm_s, ties -> roster) ==")
    for label, strategy in winners.items():
        parts.append(f"{label:>24}: {strategy}")
    parts.append("")

    parts.append("== topology dependence ==")
    if "grid5000" not in campaign.families:
        parts.append("paper testbed not swept; no baseline to compare")
        return "\n".join(parts)
    baseline = winners["grid5000"]
    differing = [f"{label} -> {strategy}"
                 for label, strategy in winners.items()
                 if label != "grid5000" and strategy != baseline]
    parts.append(f"paper testbed winner: {baseline}")
    if differing:
        parts.append("cells ranking strategies differently: "
                     + ", ".join(differing))
    else:
        parts.append("no generated cell changes the winner")
    return "\n".join(parts)


# ----------------------------------------------------------------------
# CLI registration (topozoo)
# ----------------------------------------------------------------------
def _cli_overrides(args) -> Dict:
    """--family restricts the roster, --sites reshapes the generated
    size axis; --cluster does not apply (the families are the
    campaign's subject)."""
    from repro.experiments.cliutil import csv_values

    overrides: Dict = {}
    family = getattr(args, "family", None)
    if family is not None:
        picked = tuple(csv_values("--family", family, str))
        unknown = [f for f in picked if f not in TOPOZOO_FAMILIES]
        if unknown:
            raise SystemExit(
                f"p2pmpirun: --family: unknown families {unknown} "
                f"(choose from {', '.join(TOPOZOO_FAMILIES)})")
        overrides["families"] = picked
    sites = getattr(args, "sites", None)
    if sites is not None:
        overrides["sizes"] = csv_values("--sites", sites, int,
                                        positive=True)
    return overrides


def _cli_specs(args) -> List[ExperimentSpec]:
    """Mirror of :func:`run_topozoo_campaign`'s spec construction
    (the orchestrator contract: same kwargs, same hashes)."""
    overrides = _cli_overrides(args)
    families = overrides.get("families", TOPOZOO_FAMILIES)
    sizes = tuple(int(s) for s in overrides.get("sizes", TOPOZOO_SITES))
    return [topozoo_spec(family, sizes=sizes, strategies=ALL_STRATEGIES,
                         nas_class=args.nas_class, seed=args.seed)
            for family in TOPOZOO_FAMILIES if family in families]


def _cli_run(args, store) -> None:
    """The topology-family strategy-ranking campaign.  Output is the
    deterministic report only (no engine timings), so ``--jobs 1`` and
    ``--jobs 2`` runs diff clean byte for byte."""
    from repro.experiments.cliutil import report_sweep

    campaign = run_topozoo_campaign(
        seed=args.seed, nas_class=args.nas_class, jobs=args.jobs,
        store=store, force=args.force, shard=args.shard,
        **_cli_overrides(args))
    if args.shard:
        for sweep in campaign.sweeps():
            report_sweep(sweep, store)
        return
    print(topozoo_report(campaign))


def _register() -> None:
    from repro.experiments import registry

    registry.register(registry.Experiment(
        name="topozoo",
        cli_run=_cli_run,
        specs=_cli_specs,
        cli_axes=("topozoo", "nas_class"),
    ))


_register()
