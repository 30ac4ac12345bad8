"""The engine owns every cell's cluster.

A cell's cluster comes from one place: :attr:`CellContext.cluster`,
which builds the recipe :meth:`ExperimentSpec.cluster_for` declares
(``spec.cluster``, or the spec's ``cell_cluster`` hook) with the cell
seed.  Runners only read ``ctx.cluster``; these tests keep it so.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro.experiments
from repro.apps.ep import EPBenchmark
from repro.cluster import ClusterSpec
from repro.experiments.ablations import overbooking_spec
from repro.experiments.applatency import applatency_spec
from repro.experiments.commaware import latratio_spec
from repro.experiments.engine import SweepRunner, _execute_cell, make_spec
from repro.experiments.topozoo import topozoo_spec

EXPERIMENTS = Path(repro.experiments.__file__).resolve().parent


def build_sites():
    """``(module, enclosing def)`` of every ``.build(`` call and every
    ``.cluster_spec`` read under ``repro/experiments``."""
    builds, reads = set(), set()
    for path in sorted(EXPERIMENTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def walk(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                    inner = f"{scope}.{child.name}" if scope else child.name
                if (isinstance(child, ast.Call)
                        and isinstance(child.func, ast.Attribute)
                        and child.func.attr == "build"):
                    builds.add((path.stem, scope))
                if (isinstance(child, ast.Attribute)
                        and child.attr == "cluster_spec"):
                    reads.add((path.stem, scope))
                walk(child, inner)

        walk(tree, "")
    return builds, reads


def test_only_the_engine_builds_clusters():
    builds, reads = build_sites()
    assert builds == {("engine", "CellContext.cluster"),
                      ("engine", "SweepRunner._run_shared")}
    assert reads == set()


SMALL = ClusterSpec(kind="small")


def tiny_specs():
    """One single-cell spec per runner whose cluster varies per cell."""
    return {
        "applatency": applatency_spec(EPBenchmark("B"), ratios=(10.0,),
                                      strategies=("spread",), ns=(4,)),
        "commaware-latratio": latratio_spec(
            ratios=(10.0,), strategies=("bandwidth_spread",), n=4),
        "topozoo-scale_free": topozoo_spec("scale_free", sizes=(16,),
                                           strategies=("block",)),
        "topozoo-grid5000": topozoo_spec("grid5000", strategies=("spread",)),
        "ablation-overbooking": overbooking_spec(
            factors=(1.2,), n=4, kill_count=1, seed=0, cluster_spec=SMALL,
            victim_prefix="b"),
    }


@pytest.mark.parametrize("name", sorted(tiny_specs()))
def test_cell_builds_exactly_its_declared_cluster(name, monkeypatch):
    spec = tiny_specs()[name]
    cell = spec.cells()[0]
    built = []
    real_build = ClusterSpec.build

    def counting_build(self, seed=0):
        built.append((self, seed))
        return real_build(self, seed=seed)

    monkeypatch.setattr(ClusterSpec, "build", counting_build)
    _execute_cell(spec, cell)
    assert built == [(spec.cluster_for(cell), cell.seed)]


@pytest.mark.parametrize("name", sorted(tiny_specs()))
def test_hook_names_no_view_and_no_pool_entry(name):
    """The hook is code plus already-hashed inputs: dropping it renames
    no view and moves no pooled cell."""
    spec = tiny_specs()[name]
    bare = dataclasses.replace(spec, cell_cluster=None)
    assert bare.content_hash() == spec.content_hash()
    assert bare.pool_addresses(bare.cells()) == \
        spec.pool_addresses(spec.cells())


def _params_cell(ctx):
    return ctx.params


def _small_cluster(spec, cell):
    return SMALL


def test_shared_cluster_rejects_a_cell_cluster():
    spec = make_spec("shared", {"a": (1,)}, _params_cell,
                     shared_cluster=True, cell_cluster=_small_cluster)
    with pytest.raises(ValueError, match="cell_cluster"):
        SweepRunner(spec)
