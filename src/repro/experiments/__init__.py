"""Experiment drivers regenerating every table and figure of the paper.

* :mod:`~repro.experiments.engine` — the unified sweep engine every
  driver is built on: declarative :class:`ExperimentSpec` grids, a
  :class:`SweepRunner` with serial / process-pool / shared-cluster
  modes, and a content-hash-keyed JSONL :class:`ResultStore`.
* :mod:`~repro.experiments.registry` — the lazy experiment catalogue:
  each driver registers its ``(name, spec builder, CLI entry, axes)``
  record once; the CLI and the orchestrator enumerate campaigns from
  it without importing every driver up front.
* :mod:`~repro.experiments.orchestrator` — the campaign daemon behind
  ``p2pmpirun orchestrate``: shard dispatch to worker processes,
  heartbeat-based stall detection, retries, continuous merge.
* :mod:`~repro.experiments.coallocation` — Figures 2 and 3 (hosts and
  cores per site vs. demanded processes, per strategy) plus the §5.1
  narrative checks.
* :mod:`~repro.experiments.applications` — Figure 4 (EP and IS class B
  execution times per strategy).
* :mod:`~repro.experiments.openloop` — the open-loop round shared by
  the churn campaigns: Poisson submitters against sustained churn.
* :mod:`~repro.experiments.ablations` — design-choice studies: latency
  noise vs. ranking quality, EWMA smoothing, overbooking factor under
  churn, replication survival.
* :mod:`~repro.experiments.report` — ASCII/CSV emitters in the paper's
  series format.
* :mod:`~repro.experiments.aggregate` — distributed result
  aggregation: merge shard/checkpoint stores into one canonical file
  and roll a store directory into a campaign-level summary.

The package is import-lazy (PEP 562): ``from repro.experiments import
coallocation_spec`` resolves — and pays for — only the owning
submodule, which is what keeps ``p2pmpirun --help`` fast.  Every
campaign runs its spec through :func:`run_sweep` directly.
"""

from __future__ import annotations

import importlib

#: symbol -> owning submodule, replacing the old eager import blocks.
_EXPORTS = {name: module for module, symbols in {
    "engine": (
        "Cell", "CellContext", "CellResult", "ExperimentSpec", "Heartbeat",
        "ResultStore", "SweepResult", "SweepRunner", "derive_cell_seed",
        "make_spec", "parse_shard", "resolve_jobs", "run_sweep",
    ),
    "aggregate": (
        "CellConflict", "MergeConflictError", "MergedStore", "StoreMerger",
        "SweepConflict", "aggregate_report", "read_store_file",
        "render_aggregate", "scan_store_root",
    ),
    "coallocation": (
        "CoallocationPoint", "CoallocationSeries", "coallocation_spec",
        "run_coallocation_experiment", "series_from_sweep",
    ),
    "applications": (
        "AppTimePoint", "AppTimeSeries", "app_series_from_sweep",
        "application_spec", "run_application_experiment",
    ),
    "ablations": (
        "kendall_tau", "latency_noise_ablation", "overbooking_ablation",
        "replication_ablation", "smoothing_ablation",
        "block_strategy_ablation",
    ),
    "applatency": (
        "APPLATENCY_STRATEGIES", "AppLatencyCampaign", "applatency_report",
        "applatency_spec", "fig4_crossover", "run_applatency_campaign",
    ),
    "churnload": (
        "CHURNLOAD_STRATEGIES", "FixedWorkApp", "churnload_report",
        "churnload_spec", "run_churnload_round",
    ),
    "commaware": (
        "ALL_STRATEGIES", "COMMAWARE_STRATEGIES", "CommawareCampaign",
        "commaware_alloc_spec", "commaware_app_spec", "commaware_report",
        "latratio_spec", "run_commaware_campaign",
    ),
    "report": (
        "format_metric_comparison", "format_series_table",
        "format_site_table", "series_to_csv",
    ),
    "multiuser": (
        "MultiUserOutcome", "multiuser_spec", "run_multiuser_experiment",
    ),
    "figures": ("ascii_plot",),
    "scaling": (
        "ScalingPoint", "ScalingSeries", "run_scaling_experiment",
        "scaling_spec",
    ),
    "orchestrator": (
        "ExecutionStrategy", "LocalProcessStrategy", "OrchestrationReport",
        "Orchestrator",
    ),
}.items() for name in symbols}

#: plain submodules reachable as attributes too (`repro.experiments.engine`).
_SUBMODULES = frozenset(
    set(_EXPORTS.values())
    | {"cliutil", "inventory", "registry", "orchestrator"})

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
        value = getattr(module, name)
        globals()[name] = value  # cache: next access skips __getattr__
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
