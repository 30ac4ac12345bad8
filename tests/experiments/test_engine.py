"""The unified experiment engine: spec grids, runner modes, store.

The determinism contract proved here is the engine's reason to exist:
per-cell sweeps are bit-identical between serial and process-pool
execution, stored results are replayable, and caching is exact.
"""

import gc
import json
import weakref

import pytest

from repro.cluster import ClusterSpec, P2PMPICluster
from repro.experiments.coallocation import (
    coallocation_cell,
    coallocation_spec,
    series_from_sweep,
)
from repro.experiments.aggregate import read_store_file
from repro.experiments.engine import (
    CellContext,
    ResultStore,
    SweepRunner,
    _execute_cell,
    code_fingerprint,
    derive_cell_seed,
    fingerprint_sources,
    make_spec,
    parse_shard,
    resolve_jobs,
)
from tests.conftest import simulate_kill

SMALL = ClusterSpec(kind="small")


def small_spec(seed: int = 5, demands=(4, 8),
               strategies=("spread", "concentrate"), name="eng-test"):
    return coallocation_spec(seed=seed, demands=demands,
                             strategies=strategies, cluster_spec=SMALL,
                             name=name)


def probe_cell(ctx: CellContext) -> dict:
    """Clusterless runner: echoes what the engine handed the cell."""
    return {"params": ctx.params, "seed": ctx.seed,
            "meta_x": ctx.meta.get("x")}


def nested_cell(ctx: CellContext) -> dict:
    """Runs a whole serial sweep inside one cell."""
    inner = SweepRunner(make_spec("inner", {"b": (1, 2)}, probe_cell)).run()
    return {"inner_cells": len(inner.cells),
            "still_frozen": gc.get_freeze_count() > 0}


class _Cycle:
    pass


#: Weak references to the cycles that cyclic_cell left in this process.
_CYCLES: list = []


def cyclic_cell(ctx: CellContext) -> dict:
    """Leaves a reference cycle and a built cluster behind and reports
    whether the previous cell's (in the same process) are still alive."""
    previous = [ref() for ref in _CYCLES[-2:]]
    node = _Cycle()
    node.self = node
    _CYCLES.extend([weakref.ref(node), weakref.ref(ctx.cluster)])
    return {"previous_alive": any(obj is not None for obj in previous)}


def gc_state_cell(ctx: CellContext) -> dict:
    """Reports whether the cyclic collector runs inside the cell."""
    return {"gc_enabled": gc.isenabled()}


def raising_cell(ctx: CellContext) -> dict:
    assert not gc.isenabled()
    raise RuntimeError("cell failed")


def live_clusters() -> int:
    return sum(isinstance(obj, P2PMPICluster) for obj in gc.get_objects())


class TestSpecGrid:
    def test_cells_row_major_order(self):
        spec = make_spec("t", {"a": (1, 2), "b": ("x", "y")}, probe_cell)
        keys = [c.key for c in spec.cells()]
        assert keys == ["a=1,b='x'", "a=1,b='y'", "a=2,b='x'", "a=2,b='y'"]
        assert [c.index for c in spec.cells()] == [0, 1, 2, 3]

    def test_shape_and_count(self):
        spec = make_spec("t", {"a": (1, 2, 3), "b": (0,)}, probe_cell)
        assert spec.shape == (3, 1)
        assert spec.cell_count() == 3

    def test_seeds_derived_per_cell(self):
        spec = make_spec("t", {"a": (1, 2)}, probe_cell, master_seed=9)
        seeds = [c.seed for c in spec.cells()]
        assert len(set(seeds)) == 2
        assert seeds[0] == derive_cell_seed(9, "a=1")
        # Stable across enumerations and processes.
        assert seeds == [c.seed for c in spec.cells()]

    def test_fixed_seed_mode(self):
        spec = make_spec("t", {"a": (1, 2)}, probe_cell, master_seed=9,
                         fixed_seed=True)
        assert [c.seed for c in spec.cells()] == [9, 9]

    def test_content_hash_sensitivity(self):
        base = small_spec()
        assert base.content_hash() == small_spec().content_hash()
        assert (small_spec(seed=6).content_hash()
                != base.content_hash())
        assert (small_spec(demands=(4, 8, 12)).content_hash()
                != base.content_hash())
        other_cluster = coallocation_spec(seed=5, demands=(4, 8),
                                          name="eng-test")
        assert other_cluster.content_hash() != base.content_hash()

    def test_hash_stable_for_object_meta(self):
        from repro.apps import EPBenchmark

        a = make_spec("t", {"n": (1,)}, probe_cell,
                      meta={"app": EPBenchmark("B")})
        b = make_spec("t", {"n": (1,)}, probe_cell,
                      meta={"app": EPBenchmark("B")})
        assert a.content_hash() == b.content_hash()
        c = make_spec("t", {"n": (1,)}, probe_cell,
                      meta={"app": EPBenchmark("A")})
        assert c.content_hash() != a.content_hash()


class TestDeterminism:
    def test_serial_and_parallel_stores_byte_identical(self, tmp_path):
        spec = small_spec()
        serial = ResultStore(tmp_path / "serial")
        parallel = ResultStore(tmp_path / "parallel")
        res_s = SweepRunner(spec, jobs=1, store=serial).run()
        res_p = SweepRunner(spec, jobs=2, store=parallel).run()
        assert res_s.executed == res_p.executed == spec.cell_count()
        assert (serial.path_for(spec).read_bytes()
                == parallel.path_for(spec).read_bytes())
        assert res_s.values() == res_p.values()

    def test_second_run_hits_cache(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path)
        first = SweepRunner(spec, store=store).run()
        again = SweepRunner(spec, store=store).run()
        assert first.executed == spec.cell_count() and first.cached == 0
        assert again.executed == 0
        assert again.cached == spec.cell_count()
        assert again.values() == first.values()

    def test_force_reexecutes(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path)
        SweepRunner(spec, store=store).run()
        forced = SweepRunner(spec, store=store, force=True).run()
        assert forced.executed == spec.cell_count()
        assert forced.cached == 0

    def test_changed_spec_misses_cache(self, tmp_path):
        store = ResultStore(tmp_path)
        SweepRunner(small_spec(), store=store).run()
        other = SweepRunner(small_spec(seed=6), store=store).run()
        assert other.executed == other.spec.cell_count()


class TestStore:
    def test_roundtrip(self, tmp_path):
        spec = make_spec("t", {"a": (1, 2)}, probe_cell, meta={"x": 3})
        store = ResultStore(tmp_path)
        result = SweepRunner(spec, store=store).run()
        loaded = store.load(spec)
        assert set(loaded) == {c.key for c in spec.cells()}
        assert all(res.cached for res in loaded.values())
        assert loaded["a=1"].value == result.cells[0].value

    def test_hash_mismatch_is_cache_miss(self, tmp_path):
        # The pool is the cache: an entry at a cell's address that
        # records another cell, or a torn one, is a miss.
        spec = make_spec("t", {"a": (1, 2)}, probe_cell)
        store = ResultStore(tmp_path)
        SweepRunner(spec, store=store).run()
        addresses = spec.pool_addresses(spec.cells())
        foreign = store.pool_path(addresses["a=1"])
        foreign.write_text(foreign.read_text().replace('"a=1"', '"a=2"'))
        torn = store.pool_path(addresses["a=2"])
        torn.write_bytes(torn.read_bytes()[:-5])
        assert store.load(spec) == {}

    def test_view_header_does_not_gate_the_pool(self, tmp_path):
        # The view is a name and an ordered copy, not the cache: a
        # tampered header misses nothing, and the next run rewrites it.
        spec = make_spec("t", {"a": (1,)}, probe_cell)
        store = ResultStore(tmp_path)
        SweepRunner(spec, store=store).run()
        path = store.path_for(spec)
        canonical = path.read_bytes()
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["hash"] = "0" * 64
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        assert set(store.load(spec)) == {"a=1"}
        assert SweepRunner(spec, store=store).run().executed == 0
        assert path.read_bytes() == canonical

    def test_invalidate(self, tmp_path):
        spec = make_spec("t", {"a": (1,)}, probe_cell)
        store = ResultStore(tmp_path)
        SweepRunner(spec, store=store).run()
        assert store.invalidate(spec) is True
        assert store.invalidate(spec) is False
        assert store.load(spec) == {}

    def test_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        SweepRunner(make_spec("one", {"a": (1,)}, probe_cell),
                    store=store).run()
        SweepRunner(make_spec("two", {"a": (1,)}, probe_cell),
                    store=store).run()
        names = {e["spec"]["name"] for e in store.entries()}
        assert names == {"one", "two"}


class TestCheckpointResume:
    """Incremental store writes: .partial flush, resume, promotion."""

    def test_partial_written_and_promoted(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path)
        result = SweepRunner(spec, store=store, checkpoint_every=1).run()
        # Completion promotes the checkpoint into the canonical file.
        assert store.path_for(spec).exists()
        assert not store.partial_path_for(spec).exists()
        assert result.executed == spec.cell_count()

    def test_resume_from_partial_executes_only_missing(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path)
        full = SweepRunner(spec, store=store).run()
        # Simulate a kill after 3 of 4 cells: no view, 3 cells landed.
        simulate_kill(store, spec, full.cells[:3])
        resumed = SweepRunner(spec, store=store).run()
        assert resumed.executed == 1
        assert resumed.cached == 3
        assert resumed.values() == full.values()
        # The resume promoted the sweep: canonical back, partial gone.
        assert store.path_for(spec).exists()
        assert not store.partial_path_for(spec).exists()

    def test_resume_only_partial_no_recompute_promotes(self, tmp_path):
        """A checkpoint covering every cell promotes without executing."""
        spec = small_spec()
        store = ResultStore(tmp_path)
        full = SweepRunner(spec, store=store).run()
        canonical = store.path_for(spec).read_bytes()
        store.path_for(spec).unlink()
        store.append_partial(spec, full.cells)
        resumed = SweepRunner(spec, store=store).run()
        assert resumed.executed == 0 and resumed.cached == spec.cell_count()
        assert store.path_for(spec).read_bytes() == canonical
        assert not store.partial_path_for(spec).exists()

    def test_canonical_file_independent_of_checkpoint_cadence(self, tmp_path):
        spec = small_spec()
        one = ResultStore(tmp_path / "one")
        many = ResultStore(tmp_path / "many")
        SweepRunner(spec, store=one, checkpoint_every=1).run()
        SweepRunner(spec, store=many, checkpoint_every=100).run()
        assert (one.path_for(spec).read_bytes()
                == many.path_for(spec).read_bytes())

    def test_parallel_run_checkpoints(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path)
        SweepRunner(spec, jobs=2, store=store, checkpoint_every=1).run()
        assert store.path_for(spec).exists()
        assert not store.partial_path_for(spec).exists()

    def test_torn_tail_dropped(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path)
        full = SweepRunner(spec, store=store).run()
        store.path_for(spec).unlink()
        store.append_partial(spec, full.cells)
        partial = store.partial_path_for(spec)
        partial.write_bytes(partial.read_bytes()[:-20])
        loaded = read_store_file(store.partial_path_for(spec)).cells
        assert len(loaded) == spec.cell_count() - 1

    def test_append_after_torn_tail_preserves_new_records(self, tmp_path):
        """A resumed run appending after a mid-write kill must not merge
        its first record into the torn fragment."""
        spec = small_spec()
        store = ResultStore(tmp_path)
        full = SweepRunner(spec, store=store).run()
        store.path_for(spec).unlink()
        store.append_partial(spec, full.cells[:2])
        partial = store.partial_path_for(spec)
        partial.write_bytes(partial.read_bytes()[:-15])  # tear 2nd cell
        store.append_partial(spec, full.cells[2:])
        loaded = read_store_file(store.partial_path_for(spec)).cells
        # Only the torn cell is lost; the post-tear appends all survive.
        assert len(loaded) == spec.cell_count() - 1
        assert full.cells[2].key in loaded and full.cells[3].key in loaded

    def test_stale_partial_is_cache_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        old = small_spec(seed=5)
        full = SweepRunner(old, store=store).run()
        store.path_for(old).unlink()
        store.append_partial(old, full.cells)
        renamed = store.partial_path_for(old).rename(
            store.partial_path_for(small_spec(seed=6)))
        assert renamed.exists()
        assert SweepRunner(small_spec(seed=6), store=store).run().cached == 0

    def test_failure_flushes_completed_cells(self, tmp_path):
        # Demand 2000 is infeasible on the small testbed: the sweep
        # raises, but the first (feasible) cells must reach the partial.
        spec = small_spec(demands=(4, 2000))
        store = ResultStore(tmp_path)
        with pytest.raises(RuntimeError):
            SweepRunner(spec, store=store, checkpoint_every=1).run()
        assert not store.path_for(spec).exists()
        flushed = read_store_file(store.partial_path_for(spec)).cells
        assert {key.split(",")[1] for key in flushed} == {"n=4"}

    def test_invalidate_clears_partial(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path)
        full = SweepRunner(spec, store=store).run()
        store.append_partial(spec, full.cells[:1])
        assert store.invalidate(spec) is True
        assert not store.partial_path_for(spec).exists()

    def test_bad_checkpoint_every_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(small_spec(), checkpoint_every=0)


class TestShard:
    """--shard K/N: deterministic grid partitioning, partial-only writes."""

    def test_parse_shard(self):
        assert parse_shard("1/3") == (1, 3)
        assert parse_shard("3/3") == (3, 3)
        for bad in ("0/3", "4/3", "1/0", "x/3", "1", "1/3/5", "-1/3"):
            with pytest.raises(ValueError):
                parse_shard(bad)

    def test_shards_partition_the_grid(self):
        spec = small_spec(demands=(4, 8, 12))  # 6 cells
        full = {c.key for c in spec.cells()}
        seen = []
        for k in (1, 2, 3):
            seen.append({c.key for c in spec.shard_cells((k, 3))})
        assert set.union(*seen) == full
        for i in range(3):
            for j in range(i + 1, 3):
                assert not seen[i] & seen[j]
        # Deterministic across enumerations.
        assert ({c.key for c in spec.shard_cells((2, 3))} == seen[1])

    def test_shard_shares_seed_schedule_with_full_grid(self):
        spec = small_spec()
        by_key = {c.key: c.seed for c in spec.cells()}
        for cell in spec.shard_cells((2, 2)):
            assert cell.seed == by_key[cell.key]

    def test_oversized_shard_count_gives_empty_slices(self):
        spec = small_spec()  # 4 cells
        assert spec.shard_cells((6, 6)) == []
        result = SweepRunner(spec, shard=(6, 6)).run()
        assert result.cells == [] and result.executed == 0

    def test_shard_writes_partial_never_canonical(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path)
        result = SweepRunner(spec, store=store, shard=(1, 2)).run()
        assert result.shard == (1, 2)
        assert result.executed == len(spec.shard_cells((1, 2)))
        assert not store.path_for(spec).exists()
        flushed = read_store_file(store.partial_path_for(spec)).cells
        assert set(flushed) == {c.key for c in spec.shard_cells((1, 2))}

    def test_shard_union_resumes_to_canonical(self, tmp_path):
        # Both shards into one store, then an unsharded invocation:
        # nothing left to execute, the checkpoint promotes, and the
        # canonical file equals a direct full run's byte for byte.
        spec = small_spec()
        direct = ResultStore(tmp_path / "direct")
        SweepRunner(spec, store=direct).run()
        store = ResultStore(tmp_path / "sharded")
        SweepRunner(spec, store=store, shard=(1, 2)).run()
        SweepRunner(spec, store=store, shard=(2, 2)).run()
        assert not store.path_for(spec).exists()
        promoted = SweepRunner(spec, store=store).run()
        assert promoted.executed == 0
        assert promoted.cached == spec.cell_count()
        assert (store.path_for(spec).read_bytes()
                == direct.path_for(spec).read_bytes())

    def test_shard_skips_cells_cached_in_canonical(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path)
        SweepRunner(spec, store=store).run()
        again = SweepRunner(spec, store=store, shard=(1, 2)).run()
        assert again.executed == 0
        assert again.cached == len(spec.shard_cells((1, 2)))

    def test_shard_summary_mentions_slice(self):
        result = SweepRunner(small_spec(), shard=(2, 2)).run()
        assert "[shard 2/2]" in result.summary()

    def test_bad_shards_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(small_spec(), shard=(0, 3))
        with pytest.raises(ValueError):
            SweepRunner(small_spec(), shard=(4, 3))
        shared = small_spec()
        shared.shared_cluster = True
        with pytest.raises(ValueError):
            SweepRunner(shared, shard=(1, 2))

    def test_shard_with_force_rejected(self, tmp_path):
        # force invalidates the WHOLE store, including the .partial
        # cells other shards checkpointed into the same directory.
        with pytest.raises(ValueError, match="force"):
            SweepRunner(small_spec(), store=ResultStore(tmp_path),
                        force=True, shard=(1, 2))


class TestResolveJobs:
    def test_passthrough(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7

    def test_zero_auto_sizes_from_cpu_count(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 5)
        assert resolve_jobs(0) == 5
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert resolve_jobs(0) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestRunnerModes:
    def test_meta_and_seed_reach_cells(self):
        spec = make_spec("t", {"a": (1, 2)}, probe_cell, master_seed=4,
                         meta={"x": 42})
        result = SweepRunner(spec).run()
        assert [c.value["meta_x"] for c in result.cells] == [42, 42]
        assert [c.value["seed"] for c in result.cells] == \
            [derive_cell_seed(4, "a=1"), derive_cell_seed(4, "a=2")]

    def test_series_follow_grid_order(self):
        spec = small_spec()
        result = SweepRunner(spec).run()
        series = series_from_sweep(result)
        assert set(series) == {"spread", "concentrate"}
        assert series["spread"].demands == [4, 8]
        # One process per host while hosts remain (spread invariant).
        assert series["spread"].point(4).total_hosts == 4

    def test_shared_cluster_cache_is_all_or_nothing(self, tmp_path):
        spec = small_spec()
        spec.shared_cluster = True
        store = ResultStore(tmp_path)
        first = SweepRunner(spec, store=store).run()
        assert first.executed == spec.cell_count()
        again = SweepRunner(spec, store=store).run()
        assert again.executed == 0
        assert again.cached == spec.cell_count()
        # Drop one pooled cell: the rest must not be replayed.
        last = spec.cells()[-1].key
        store.pool_path(spec.pool_addresses(spec.cells())[last]).unlink()
        third = SweepRunner(spec, store=store).run()
        assert third.executed == spec.cell_count()

    def test_cell_failure_propagates(self, tmp_path):
        spec = small_spec(demands=(4, 2000))  # 2000 is infeasible
        with pytest.raises(RuntimeError):
            SweepRunner(spec, store=ResultStore(tmp_path)).run()
        with pytest.raises(RuntimeError):
            SweepRunner(spec, jobs=2).run()

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(small_spec(), jobs=0)

    def test_hash_covers_runner_source(self):
        # The runner's source is covered per cell, by the code
        # fingerprint in its pool address, not by the view's name.
        spec = small_spec()
        blob = spec.to_jsonable()
        assert "runner_src" not in blob
        assert blob["runner"].endswith("coallocation_cell")
        sources = fingerprint_sources(coallocation_cell)
        assert "repro.experiments.coallocation" in sources
        assert len(code_fingerprint(coallocation_cell)) == 64
        assert len(set(spec.pool_addresses(spec.cells()).values())) == 4

    def test_result_selectors(self):
        spec = make_spec("t", {"a": (1, 2), "b": (3,)}, probe_cell)
        result = SweepRunner(spec).run()
        assert result.value(a=1, b=3)["params"] == {"a": 1, "b": 3}
        assert len(result.select(b=3)) == 2
        with pytest.raises(KeyError):
            result.value(a=99)
        with pytest.raises(KeyError):
            result.value(b=3)  # ambiguous

    def test_metric_rows(self):
        spec = make_spec("t", {"a": (2, 1), "b": (3, 4), "c": (5,)},
                         probe_cell, master_seed=4)
        result = SweepRunner(spec).run()
        rows = result.metric_rows("a", "seed", c=5)
        assert list(rows) == [2, 1]  # spec order, not sorted
        assert rows[2] == [derive_cell_seed(4, "a=2,b=3,c=5"),
                           derive_cell_seed(4, "a=2,b=4,c=5")]
        assert result.metric_rows("b", "seed", a=1) == {
            3: [derive_cell_seed(4, "a=1,b=3,c=5")],
            4: [derive_cell_seed(4, "a=1,b=4,c=5")]}
        assert result.metric_rows("a", "missing") == {2: [None, None],
                                                      1: [None, None]}
        assert result.metric_rows("a", "seed", b=99) == {2: [], 1: []}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_reclaims_each_cells_garbage(self, jobs):
        _CYCLES.clear()
        spec = make_spec("t", {"a": (1, 2, 3, 4)}, cyclic_cell)
        result = SweepRunner(spec, jobs=jobs).run()
        assert [c.value["previous_alive"] for c in result.cells] == \
            [False] * 4
        assert gc.get_freeze_count() == 0

    def test_nested_serial_sweeps_unfreeze_only_at_the_outermost(self):
        spec = make_spec("outer", {"a": (1, 2)}, nested_cell)
        result = SweepRunner(spec).run()
        assert [c.value for c in result.cells] == \
            [{"inner_cells": 2, "still_frozen": True}] * 2
        assert gc.get_freeze_count() == 0

    def test_collector_is_paused_inside_a_cell(self):
        spec = make_spec("t", {"a": (1,)}, gc_state_cell)
        result = _execute_cell(spec, next(iter(spec.cells())))
        assert result.value == {"gc_enabled": False}
        assert gc.isenabled()

    def test_collector_is_restored_after_a_raising_cell(self):
        spec = make_spec("t", {"a": (1,)}, raising_cell)
        with pytest.raises(RuntimeError, match="cell failed"):
            _execute_cell(spec, next(iter(spec.cells())))
        assert gc.isenabled()

    def test_collector_left_off_when_the_caller_turned_it_off(self):
        spec = make_spec("t", {"a": (1,)}, gc_state_cell)
        gc.disable()
        try:
            _execute_cell(spec, next(iter(spec.cells())))
            assert not gc.isenabled()
        finally:
            gc.enable()

    @pytest.mark.parametrize("caller_gc", [True, False])
    def test_serial_sweep_leaves_no_cluster_alive(self, caller_gc):
        """Per-cell reclaim (DESIGN.md §16) with the collector paused
        inside each cell: the collection at the cell's end frees it,
        also when the caller keeps the automatic collector off."""
        gc.collect()
        before = live_clusters()
        spec = small_spec(demands=(4, 8, 12), strategies=("spread",))
        if not caller_gc:
            gc.disable()
        try:
            result = SweepRunner(spec).run()
            assert len(result.cells) == 3
            assert live_clusters() == before
        finally:
            gc.enable()

    def test_summary_mentions_counts(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path)
        SweepRunner(spec, store=store).run()
        text = SweepRunner(spec, store=store).run().summary()
        assert "0 executed" in text and "4 cached" in text


class TestCostKey:
    """Largest-cell-first pool scheduling (the ROADMAP adaptive-jobs
    item): ordering is a hint — seeds, hashes and bytes never move."""

    def spec_with_cost(self):
        # coallocation_spec wires demand_cost_key in by default.
        return coallocation_spec(seed=5, demands=(4, 16, 8),
                                 strategies=("spread",), cluster_spec=SMALL,
                                 name="eng-cost")

    def test_pool_order_sorts_expensive_first(self):
        spec = self.spec_with_cost()
        runner = SweepRunner(spec, jobs=2)
        ordered = runner.pool_order(spec.cells())
        assert [c.param_dict()["n"] for c in ordered] == [16, 8, 4]

    def test_pool_order_stable_on_ties(self):
        spec = coallocation_spec(seed=5, demands=(4,),
                                 strategies=("spread", "concentrate"),
                                 cluster_spec=SMALL, name="eng-tie")
        ordered = SweepRunner(spec, jobs=2).pool_order(spec.cells())
        # All costs equal: grid order must survive the sort.
        assert [c.index for c in ordered] == [0, 1]

    def test_without_cost_key_order_unchanged(self):
        import dataclasses

        spec = dataclasses.replace(small_spec(name="eng-noorder"),
                                   cost_key=None)
        cells = spec.cells()
        assert SweepRunner(spec, jobs=2).pool_order(cells) == list(cells)

    def test_cost_key_outside_content_hash(self):
        """A scheduling hint must not invalidate cached sweeps."""
        import dataclasses

        with_key = self.spec_with_cost()
        without = dataclasses.replace(with_key, cost_key=None)
        assert with_key.content_hash() == without.content_hash()
        assert "cost_key" not in json.dumps(with_key.to_jsonable())

    def test_ordering_changes_nothing_stored(self, tmp_path):
        """Pool runs with and without the hint produce byte-identical
        canonical stores (same seeds, same grid-order save)."""
        import dataclasses

        with_key = self.spec_with_cost()
        without = dataclasses.replace(with_key, cost_key=None)
        a = ResultStore(tmp_path / "hinted")
        b = ResultStore(tmp_path / "plain")
        res_a = SweepRunner(with_key, jobs=2, store=a).run()
        res_b = SweepRunner(without, jobs=2, store=b).run()
        assert [c.seed for c in res_a.cells] == [c.seed for c in res_b.cells]
        assert (a.path_for(with_key).read_bytes()
                == b.path_for(without).read_bytes())
