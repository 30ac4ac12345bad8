"""The content-addressed cell pool and the code fingerprint it keys on.

Each finished cell is pooled under its runner, the raw source of every
module of the package a cell can run, its cluster, seed, parameters
and meta.
These tests prove the fingerprint covers the code cells actually run,
that edits invalidate exactly the cells they can affect, that specs
sharing a cell compute it once, and that the pool is invisible to
everything that scans a store root.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.apps.ep import EPBenchmark
from repro.cli import build_run_parser, main
from repro.cluster import ClusterSpec
from repro.experiments import registry
from repro.experiments.ablations import (block_cell, noise_cell,
                                         overbooking_spec, replication_cell,
                                         smoothing_cell)
from repro.experiments.aggregate import aggregate_report, scan_store_root
from repro.experiments.applatency import applatency_spec
from repro.experiments.applications import application_spec
from repro.experiments.churnload import churnload_spec
from repro.experiments.coallocation import coallocation_spec
from repro.experiments.commaware import commaware_alloc_spec, latratio_spec
from repro.experiments.engine import (REPORT_ONLY_MODULES, ResultStore,
                                      SweepRunner, _execute_cell,
                                      encode_store_line, fingerprint_sources,
                                      make_spec, run_sweep)
from repro.experiments.migration import migration_spec
from repro.experiments.multiuser import multiuser_spec
from repro.experiments.multiuser2 import multiuser2_spec
from repro.experiments.orchestrator import Orchestrator
from repro.experiments.scaling import scaling_spec
from repro.experiments.topozoo import topozoo_spec
from tests.experiments.test_orchestrator import HangStrategy

SMALL = ClusterSpec(kind="small")
PACKAGE = Path(repro.__file__).resolve().parent
SRC = PACKAGE.parent
SMOKE = ("--cluster", "small", "--demands", "4,8")


def run_args(*argv):
    return build_run_parser().parse_args(list(argv))


def tiny_specs():
    """One single-cell spec per cell runner of every registered
    campaign (``table1`` has no sweep)."""
    app = EPBenchmark("B")
    return {
        "coallocation": coallocation_spec(
            demands=(4,), strategies=("spread",), cluster_spec=SMALL),
        "fig4": application_spec(app, process_counts=(4,),
                                 strategies=("spread",), cluster_spec=SMALL),
        "scaling": scaling_spec(demands=(4,), cluster_spec=SMALL),
        "multiuser": multiuser_spec(users=(2,), demands=(4,),
                                    cluster_spec=SMALL),
        "commaware-alloc": commaware_alloc_spec(
            demands=(4,), strategies=("topo_block",), cluster_spec=SMALL),
        "commaware-latratio": latratio_spec(
            ratios=(10.0,), strategies=("bandwidth_spread",), n=4),
        "churnload": churnload_spec(
            failures=(0.006,), replications=(2,), strategies=("spread",),
            horizon_s=60.0, cluster_spec=SMALL),
        "applatency": applatency_spec(app, ratios=(1.0,),
                                      strategies=("diameter_concentrate",),
                                      ns=(4,)),
        "multiuser2": multiuser2_spec(tenants=(5,), rates=(0.05,),
                                      strategies=("bandwidth_spread",)),
        "topozoo": topozoo_spec("scale_free", sizes=(16,),
                                strategies=("block",)),
        "migration": migration_spec(
            failures=(0.01,), modes=("diffusive",), horizon_s=30.0,
            work_s=10.0, n=4, cluster_spec=ClusterSpec(kind="small",
                                                       boot=False)),
        "ablation-noise": make_spec(
            "ablation-noise", {"sigma_ms": (0.8,)}, noise_cell,
            fixed_seed=True, meta={"samples": 2}),
        "ablation-smoothing": make_spec(
            "ablation-smoothing", {"samples": (2,), "ewma_alpha": (0.2,)},
            smoothing_cell, fixed_seed=True, meta={"noise_sigma_ms": 1.2}),
        "ablation-overbooking": overbooking_spec(
            factors=(1.2,), n=4, kill_count=1, seed=0, cluster_spec=SMALL,
            victim_prefix="b"),
        "ablation-replication": make_spec(
            "ablation-replication", {"r": (2,)}, replication_cell,
            cluster=SMALL, fixed_seed=True, shared_cluster=True,
            meta={"n": 4, "p_host_fail": 0.05, "trials": 50}),
        "ablation-block": make_spec(
            "ablation-block", {"block": (2,)}, block_cell, cluster=SMALL,
            fixed_seed=True, shared_cluster=True, meta={"app": app, "n": 4}),
    }


def _local_cell(ctx):
    return {"seed": ctx.seed}


def module_of(filename):
    """``repro.a.b`` for a file under the package, else None."""
    try:
        rel = Path(filename).resolve().relative_to(PACKAGE)
    except ValueError:
        return None
    parts = rel.with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(("repro",) + parts)


class TestFingerprintCoverage:
    @pytest.mark.parametrize("name", sorted(tiny_specs()))
    def test_cell_runs_only_fingerprinted_code(self, name):
        spec = tiny_specs()[name]
        ran = set()

        def profile(frame, event, arg):
            if event == "call":
                ran.add(frame.f_code.co_filename)

        sys.setprofile(profile)
        try:
            result = _execute_cell(spec, spec.cells()[0])
        finally:
            sys.setprofile(None)
        modules = {module_of(f) for f in ran} - {None}
        covered = set(fingerprint_sources(spec.runner))
        assert modules, "the profiler saw no repro code"
        assert not modules & REPORT_ONLY_MODULES
        assert modules <= covered, sorted(modules - covered)
        # A pooled value must re-encode to the bytes a computed one
        # does, or views assembled from the pool would differ.
        line = encode_store_line(result.record())
        assert encode_store_line(json.loads(line)) == line

    def test_every_registered_runner_is_covered(self):
        runners = {spec.runner for spec in tiny_specs().values()}
        for name in registry.names():
            experiment = registry.get(name)
            if experiment.specs is None:
                continue
            for spec in experiment.specs(run_args(name, "--cluster",
                                                  "small")):
                assert spec.runner in runners, (name, spec.runner)

    def test_scope_is_the_package_minus_reports(self):
        package = {module_of(path) for path in PACKAGE.rglob("*.py")}
        assert REPORT_ONLY_MODULES < package
        for spec in (migration_spec(), coallocation_spec()):
            sources = fingerprint_sources(spec.runner)
            assert set(sources) == package - REPORT_ONLY_MODULES

    def test_runner_outside_the_package_adds_its_module(self):
        sources = fingerprint_sources(_local_cell)
        assert set(sources) - set(fingerprint_sources(noise_cell)) == {
            __name__}


class TestSharedCells:
    def test_specs_share_cells(self):
        def addresses(name, *flags):
            out = set()
            for spec in registry.get(name).specs(run_args(name, *flags)):
                out |= set(spec.pool_addresses(spec.cells()).values())
            return out

        figures = addresses("fig2") | addresses("fig3")
        assert len(figures & addresses("coallocation")) == 22
        assert len(addresses("fig4") & addresses("commaware")) == 16

    def test_run_all_then_coallocation_executes_nothing(self, tmp_path,
                                                        capsys):
        out = str(tmp_path)
        assert main(["run", "all", *SMOKE, "--out", out]) == 0
        capsys.readouterr()
        assert main(["run", "coallocation", *SMOKE, "--out", out]) == 0
        assert "(0 executed, 4 cached)" in capsys.readouterr().out
        # The view assembled from the figures' cells is the one a
        # direct run writes.
        direct = tmp_path / "direct"
        assert main(["run", "coallocation", *SMOKE,
                     "--out", str(direct)]) == 0
        name = next(direct.glob("coallocation-*.jsonl")).name
        assert ((tmp_path / name).read_bytes()
                == (direct / name).read_bytes())

    def test_orchestrate_assembles_pooled_campaign(self, tmp_path, capsys):
        out = tmp_path / "store"
        for name in ("fig2", "fig3"):
            assert main(["run", name, *SMOKE, "--out", str(out)]) == 0
        ref = tmp_path / "ref"
        assert main(["run", "coallocation", *SMOKE, "--out", str(ref)]) == 0
        capsys.readouterr()
        specs = registry.get("coallocation").specs(
            run_args("coallocation", *SMOKE))
        strategy = HangStrategy()  # would hang if any worker launched
        report = Orchestrator(
            "coallocation", specs, out, workers=2, poll_interval_s=0.01,
            strategy=strategy, echo=lambda line: None).run()
        assert report.ok and strategy.launched == 0
        name = next(ref.glob("coallocation-*.jsonl")).name
        assert (out / name).read_bytes() == (ref / name).read_bytes()


class TestUnreadableRunner:
    def test_runner_without_source_file_never_caches(self, tmp_path):
        module = type(sys)("cellpool_scratch_runner")  # no __file__
        exec("def cell(ctx):\n    return {'seed': ctx.seed}\n",
             module.__dict__)
        sys.modules[module.__name__] = module
        try:
            spec = make_spec("unreadable", {"a": (1, 2)}, module.cell)
            assert fingerprint_sources(module.cell) is None
            assert spec.pool_addresses(spec.cells()) == {}
            store = ResultStore(tmp_path)
            first = SweepRunner(spec, store=store).run()
            again = SweepRunner(spec, store=store).run()
        finally:
            del sys.modules[module.__name__]
        assert first.executed == again.executed == 2
        assert again.cached == 0
        assert not (tmp_path / ResultStore.POOL_DIR).exists()
        assert store.load(spec) == {}
        assert store.path_for(spec).exists()  # the view is still written


class TestScannersIgnoreThePool:
    @pytest.fixture
    def root(self, tmp_path):
        root = tmp_path / "root"
        for name in ("fig2", "fig3", "coallocation"):
            assert main(["run", name, *SMOKE, "--out", str(root)]) == 0
        # A fresh seed: the pool would serve the same cells otherwise,
        # and a shard that executes nothing checkpoints nothing.
        SweepRunner(coallocation_spec(seed=9, demands=(4,),
                                      cluster_spec=SMALL, name="pending"),
                    store=ResultStore(root), shard=(1, 2)).run()
        assert any((root / ResultStore.POOL_DIR).iterdir())
        bare = tmp_path / "bare"
        shutil.copytree(root, bare,
                        ignore=shutil.ignore_patterns(ResultStore.POOL_DIR))
        return root, bare

    def test_entries(self, root):
        pooled, bare = root
        names = [(Path(e["path"]).name, e["hash"])
                 for e in ResultStore(pooled).entries()]
        assert names == [(Path(e["path"]).name, e["hash"])
                         for e in ResultStore(bare).entries()]
        assert len(names) == 3

    def test_scan_store_root(self, root):
        pooled, bare = root
        sweeps, conflicts = scan_store_root(pooled)
        assert conflicts == []
        assert ([(s.name, s.hash, s.complete) for s in sweeps]
                == [(s.name, s.hash, s.complete)
                    for s in scan_store_root(bare)[0]])
        assert len(sweeps) == 4
        assert aggregate_report(pooled) == aggregate_report(bare)

    def test_cli_aggregate(self, root, capsys):
        pooled, bare = root
        capsys.readouterr()
        assert main(["aggregate", str(pooled)]) == 0
        text = capsys.readouterr().out
        assert main(["aggregate", str(bare)]) == 0
        assert text == capsys.readouterr().out
        assert "4 sweep(s)" in text

    def test_orchestrate_plans_no_shard_after_run(self, root):
        pooled, _bare = root
        specs = registry.get("coallocation").specs(
            run_args("coallocation", *SMOKE))
        orchestrator = Orchestrator("coallocation", specs, pooled,
                                    echo=lambda line: None)
        assert all(st.status == "done" for st in orchestrator._plan())


class TestMergeCarriesThePool:
    def test_run_after_merge_executes_nothing(self, tmp_path, capsys):
        for k in (1, 2):
            assert main(["run", "coallocation", *SMOKE, "--shard", f"{k}/2",
                         "--out", str(tmp_path / f"shard{k}")]) == 0
        shards = sorted(str(p) for p in tmp_path.glob("shard*/*.partial"))
        merged = tmp_path / "merged"
        assert main(["merge", *shards, "--out", str(merged),
                     "--require-complete"]) == 0
        capsys.readouterr()
        assert main(["run", "coallocation", *SMOKE,
                     "--out", str(merged)]) == 0
        assert "(0 executed, 4 cached)" in capsys.readouterr().out


class TestCheckpointIsNotACache:
    def test_partial_alone_serves_nothing(self, tmp_path):
        # A checkpoint is keyed on the view hash, which leaves the code
        # out: without pooled cells behind it, everything recomputes.
        spec = coallocation_spec(demands=(4, 8), cluster_spec=SMALL)
        store = ResultStore(tmp_path)
        full = run_sweep(spec, store=store)
        canonical = store.path_for(spec).read_bytes()
        shutil.rmtree(tmp_path / ResultStore.POOL_DIR)
        store.path_for(spec).unlink()
        store.append_partial(spec, full.cells[:3])
        resumed = run_sweep(spec, store=store)
        assert resumed.executed == 4 and resumed.cached == 0
        assert store.path_for(spec).read_bytes() == canonical
        assert not store.partial_path_for(spec).exists()

    def test_runner_edit_after_checkpoint_recomputes(self, tmp_path):
        # A run killed after one cell leaves it pooled and checkpointed;
        # an edit to the runner's module before the resume must
        # recompute that cell, not replay it from the checkpoint.
        runner = tmp_path / "mod" / "edited_runner.py"
        runner.parent.mkdir()
        runner.write_text(_EDITED_RUNNER.format(value=1))
        store = tmp_path / "store"
        assert _run_edited(runner, store, "1/2") == [1, []]
        assert list(store.glob("*.partial"))
        runner.write_text(_EDITED_RUNNER.format(value=2))
        assert _run_edited(runner, store, "") == [2, [2, 2]]


_EDITED_RUNNER = """
def cell(ctx):
    return {{"value": {value}}}
"""

_RUN_EDITED = """
import json, sys
from edited_runner import cell
from repro.experiments.engine import (ResultStore, make_spec, parse_shard,
                                      run_sweep)

spec = make_spec("edited", {"a": (1, 2)}, cell)
store = ResultStore(sys.argv[1])
shard = parse_shard(sys.argv[2]) if sys.argv[2] else None
sweep = run_sweep(spec, store=store, shard=shard, checkpoint_every=1)
view = store.path_for(spec)
values = ([json.loads(line)["value"]["value"]
           for line in view.read_text().splitlines()[1:]]
          if view.exists() else [])
print(json.dumps([sweep.executed, values]))
"""


def _run_edited(runner, store, shard):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(runner.parent), str(SRC)]))
    done = subprocess.run([sys.executable, "-c", _RUN_EDITED, str(store),
                           shard], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


def _tree_copy(tmp_path):
    """A throwaway copy of the ``repro`` package to edit."""
    copy = tmp_path / "src"
    shutil.copytree(PACKAGE, copy / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return copy


_PROBE = """
import contextlib, io, json, sys
from repro.cli import main
from repro.cluster import ClusterSpec
from repro.experiments.coallocation import coallocation_spec
from repro.experiments.engine import ResultStore, run_sweep
from repro.experiments.migration import migration_spec
from repro.experiments.multiuser2 import multiuser2_spec

small = ClusterSpec(kind="small")
specs = {
    "migration": migration_spec(failures=(0.01,), horizon_s=30.0,
                                work_s=10.0, n=4,
                                cluster_spec=ClusterSpec(kind="small",
                                                         boot=False)),
    "coallocation": coallocation_spec(demands=(4,), cluster_spec=small),
    "multiuser2": multiuser2_spec(tenants=(5,), rates=(0.05,)),
}
store = ResultStore(sys.argv[1])
out = {}
for name, spec in specs.items():
    sweep = run_sweep(spec, store=store)
    path = store.path_for(spec)
    out[name] = [sweep.executed, path.name, path.read_text()]
table1 = io.StringIO()
with contextlib.redirect_stdout(table1):
    main(["run", "table1", "--out", sys.argv[1]])
out["table1"] = table1.getvalue()
out["views"] = sorted(p.name for p in store.root.iterdir())
print(json.dumps(out))
"""


def _probe(src, store):
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", _PROBE, str(store)],
                          env=env, check=True, capture_output=True,
                          text=True)
    return json.loads(done.stdout)


def _replayed(first):
    """``first`` as a run that found every cell pooled reports it."""
    return {k: ([0] + v[1:] if isinstance(v, list) and k in SWEEPS else v)
            for k, v in first.items()}


SWEEPS = ("migration", "coallocation", "multiuser2")


class TestCodeEditsInvalidate:
    """A code edit recomputes cells but renames no view.

    The fingerprint covers the whole package, so a ``ReplicatedComm``
    edit recomputes every sweep's cells, migration's included, and the
    views keep their names and, as results do not move, their bytes.
    ``table1`` is a static render with no sweep and no cells: the edit
    leaves nothing of it to invalidate.  A report edit recomputes
    nothing.
    """

    def test_edits(self, tmp_path):
        store = tmp_path / "store"
        first = _probe(SRC, store)
        assert [first[k][0] for k in SWEEPS] == [2, 2, 2]
        assert "nancy" in first["table1"]
        assert not any("table1" in name for name in first["views"])
        assert _probe(SRC, store) == _replayed(first)

        edited = _tree_copy(tmp_path)
        comm = edited / "repro" / "ft" / "replicated_mpi.py"
        text = comm.read_text()
        anchor = "class ReplicatedComm"
        at = text.index("    def ", text.index(anchor))
        body = text.index("\n", text.index(":\n", at) + 1)
        comm.write_text(text[:body] + "\n        pass" + text[body:])
        after = _probe(edited, store)
        assert {k: v[1:] for k, v in after.items() if k in SWEEPS} == {
            k: v[1:] for k, v in first.items() if k in SWEEPS}
        assert after["migration"][0] == 2
        assert after["table1"] == first["table1"]

        report = edited / "repro" / "experiments" / "report.py"
        report.write_text(report.read_text() + "\n# edited\n")
        assert _probe(edited, store) == _replayed(after)
