"""The experiment registry: one lazy catalogue of every campaign.

The CLI never imports a driver it does not run, so ``p2pmpirun
--help`` stays cheap (no numpy/networkx).  The mapping is split in two
layers:

* :data:`MANIFEST` — a static name -> module table.  Importing this
  module costs nothing (stdlib only), so parser construction and
  ``--help`` stay lazy; :func:`names` and :func:`is_shardable` answer
  from the table alone.
* :class:`Experiment` — the behavioural record a driver module
  registers at import time via :func:`register`: its spec builder (what
  grids the campaign spans, for the orchestrator), its CLI entry point
  (run + report), and the CLI axis groups whose flags it consumes
  (what ``orchestrate`` forwards to worker processes).

:func:`get` bridges the two: it imports the manifest module on first
use — the import runs the module's ``register`` call — and returns the
registered record.  The ``all`` composite lives here (it is pure glue
over other entries) and resolves its parts through :func:`get`, so even
it imports nothing until executed.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["MANIFEST", "Experiment", "ExperimentRef", "get",
           "is_shardable", "names", "register"]


@dataclass(frozen=True)
class ExperimentRef:
    """Manifest row: where an experiment's driver lives.

    ``shardable`` is manifest metadata (not behaviour) so the CLI can
    validate ``--shard``/``orchestrate`` targets without importing the
    driver; :func:`register` cross-checks it against the registered
    record.
    """

    module: str
    shardable: bool = True


#: Every experiment name the CLI accepts, in ``run``'s choices order.
MANIFEST: Dict[str, ExperimentRef] = {
    "fig2": ExperimentRef("repro.experiments.coallocation"),
    "fig3": ExperimentRef("repro.experiments.coallocation"),
    "fig4": ExperimentRef("repro.experiments.applications"),
    "table1": ExperimentRef("repro.experiments.inventory", shardable=False),
    "ablations": ExperimentRef("repro.experiments.ablations",
                               shardable=False),
    "scaling": ExperimentRef("repro.experiments.scaling"),
    "multiuser": ExperimentRef("repro.experiments.multiuser"),
    "coallocation": ExperimentRef("repro.experiments.coallocation"),
    "commaware": ExperimentRef("repro.experiments.commaware"),
    "churnload": ExperimentRef("repro.experiments.churnload"),
    "applatency": ExperimentRef("repro.experiments.applatency"),
    "multiuser2": ExperimentRef("repro.experiments.multiuser2"),
    "topozoo": ExperimentRef("repro.experiments.topozoo"),
    "migration": ExperimentRef("repro.experiments.migration"),
    "all": ExperimentRef("repro.experiments.registry"),
}


@dataclass(frozen=True)
class Experiment:
    """What a driver module registers for one experiment name.

    Attributes
    ----------
    name:
        The CLI name; must appear in :data:`MANIFEST`.
    cli_run:
        ``(args, store) -> None`` — run the campaign and print its
        report (``p2pmpirun run NAME``).  ``store`` is ``None`` without
        ``--out``.
    specs:
        ``(args) -> [ExperimentSpec, ...]`` — the campaign's sweep
        grids for the given CLI flags, *without running anything*.
        This is the orchestrator's contract: shard planning, progress
        accounting and canonical-store promotion all derive from these
        specs, so a builder must mirror its ``cli_run``'s grids
        exactly (the registry tests pin the store paths to it).
        ``None`` for table/ablation entries that have no engine sweep.
    cli_axes:
        The CLI flag groups this experiment consumes (``"cluster"``,
        ``"demands"``, ``"ratios"``, ``"churn"``, ``"nas_class"``,
        ``"alloc"``, ``"plot"``); ``orchestrate`` forwards exactly
        these groups' flags to its worker processes.
    shardable:
        Whether ``--shard K/N`` (and hence ``orchestrate``) applies.
    """

    name: str
    cli_run: Callable[[Any, Optional[Any]], None]
    specs: Optional[Callable[[Any], List[Any]]] = None
    cli_axes: Tuple[str, ...] = ()
    shardable: bool = True


_REGISTRY: Dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    """Driver modules call this once per experiment name at import.

    Re-registration with the same name overwrites (harmless on module
    reload); a name missing from :data:`MANIFEST` or disagreeing with
    its ``shardable`` metadata is a programming error worth failing
    loudly on.
    """
    ref = MANIFEST.get(experiment.name)
    if ref is None:
        raise ValueError(
            f"experiment {experiment.name!r} is not in the manifest; "
            f"add it to repro.experiments.registry.MANIFEST first")
    if ref.shardable != experiment.shardable:
        raise ValueError(
            f"experiment {experiment.name!r}: manifest says "
            f"shardable={ref.shardable}, registration says "
            f"{experiment.shardable}")
    _REGISTRY[experiment.name] = experiment
    return experiment


def names() -> Tuple[str, ...]:
    """Every experiment name, manifest order — import-free."""
    return tuple(MANIFEST)


def is_shardable(name: str) -> bool:
    """Whether ``--shard``/``orchestrate`` applies — import-free."""
    return MANIFEST[name].shardable


def shardable_names() -> Tuple[str, ...]:
    """The orchestratable subset of :func:`names`, manifest order."""
    return tuple(n for n, ref in MANIFEST.items() if ref.shardable)


def get(name: str) -> Experiment:
    """Resolve a name to its registered :class:`Experiment`.

    Imports the driver module on first use (the import side effect is
    the registration), so the cost of a campaign's dependency tree is
    paid only by invocations that actually run it.
    """
    ref = MANIFEST.get(name)
    if ref is None:
        raise KeyError(f"unknown experiment {name!r} "
                       f"(choose from {', '.join(MANIFEST)})")
    if name not in _REGISTRY:
        importlib.import_module(ref.module)
    if name not in _REGISTRY:
        raise RuntimeError(
            f"module {ref.module} did not register experiment {name!r}")
    return _REGISTRY[name]


# ----------------------------------------------------------------------
# the `all` composite: the full paper campaign, glued from other entries
# ----------------------------------------------------------------------
_ALL_PARTS: Tuple[str, ...] = ("fig2", "fig3", "fig4", "scaling",
                               "multiuser")


def _all_specs(args: Any) -> List[Any]:
    out: List[Any] = []
    for part in _ALL_PARTS:
        builder = get(part).specs
        if builder is not None:
            out.extend(builder(args))
    return out


def _all_cli_run(args: Any, store: Optional[Any]) -> None:
    # A `== name ==` banner per part, blank line between parts.
    for i, part in enumerate(_ALL_PARTS):
        print(f"== {part} ==")
        get(part).cli_run(args, store)
        if i < len(_ALL_PARTS) - 1:
            print()


register(Experiment(
    name="all",
    cli_run=_all_cli_run,
    specs=_all_specs,
    cli_axes=("cluster", "demands", "nas_class", "alloc", "plot"),
))
