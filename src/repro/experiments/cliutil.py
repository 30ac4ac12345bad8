"""Shared CLI-side helpers for the registered experiment drivers.

Each campaign's CLI entry point lives in its owning driver module (see
:mod:`repro.experiments.registry`); the idioms those entry points share —
comma-separated grid flags, the small-testbed overrides, the one
``[engine]`` summary line — live here so the drivers do not import the
CLI (which would be a cycle) or each other.

Deliberately import-light: the engine and the cluster recipe only.
Nothing here runs a sweep.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.cluster import ClusterSpec
from repro.experiments.engine import ResultStore, SweepResult

__all__ = ["csv_values", "grid_overrides", "report_sweep"]


def csv_values(flag: str, text: str, cast, nonnegative: bool = False,
               positive: bool = False) -> Tuple:
    """Parse a comma-separated grid flag; the one shared error idiom
    for ``--demands`` / ``--failures`` / ``--ratios``."""
    try:
        values = tuple(cast(part) for part in text.split(",") if part)
    except ValueError:
        raise SystemExit(f"error: bad {flag} {text!r}")
    if not values:
        raise SystemExit(f"error: {flag} needs at least one value")
    if positive and any(v <= 0 for v in values):
        raise SystemExit(f"error: {flag} values must be > 0")
    if nonnegative and any(v < 0 for v in values):
        raise SystemExit(f"error: {flag} rates must be >= 0")
    return values


def grid_overrides(args: Any) -> dict:
    """Only the sweep-shape kwargs the user explicitly set, so the
    figure drivers keep their spec functions' own defaults otherwise."""
    overrides = {}
    if args.demands is not None:
        overrides["demands"] = csv_values("--demands", args.demands, int)
    if args.cluster == "small":
        overrides["cluster_spec"] = ClusterSpec(kind="small")
        if args.demands is None:
            # The paper's 100..600 grid is infeasible on the 28-core
            # smoke testbed; default to a grid that fits it.
            overrides["demands"] = (4, 8, 16)
    return overrides


def report_sweep(sweep: SweepResult, store: Optional[ResultStore]) -> None:
    """The one ``[engine]`` line every driver prints per sweep."""
    line = f"[engine] {sweep.summary()}"
    if store is not None:
        # Sharded runs persist to the .partial checkpoint (the merge
        # input); only complete sweeps own the canonical file.  A shard
        # served entirely from cache checkpoints nothing — pointing a
        # later `merge` at a nonexistent path would only confuse.
        path = (store.partial_path_for(sweep.spec) if sweep.shard
                else store.path_for(sweep.spec))
        if sweep.shard and not path.exists():
            line += " (all cells cached; no checkpoint written)"
        else:
            line += f" -> {path}"
    print(line)
