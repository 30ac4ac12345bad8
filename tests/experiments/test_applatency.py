"""The applatency campaign: determinism, resume, sharding, acceptance.

The regression surface mirrors churnload's (per-cell clusters built
from an axis value, byte-deterministic report), plus the ISSUE's
acceptance story: at deep hierarchy the communication-aware strategies
must buy IS wall-clock while EP stays communication-indifferent.
"""

import hashlib

import pytest

from repro.apps.is_bench import ISBenchmark
from repro.experiments.aggregate import StoreMerger
from repro.experiments.applatency import (
    APPLATENCY_NS,
    APPLATENCY_STRATEGIES,
    applatency_report,
    applatency_spec,
    run_applatency_campaign,
)
from repro.experiments.engine import (ResultStore, SweepRunner,
                                      encode_store_line)
from tests.conftest import simulate_kill

TINY_RATIOS = (1.0, 1000.0)
TINY_NS = (64,)


def tiny_spec(seed=0, name="applatency-test"):
    """8-cell IS panel: 2 ratios x 4 strategies x n=64."""
    return applatency_spec(ISBenchmark("B"), ratios=TINY_RATIOS,
                           ns=TINY_NS, seed=seed, name=name)


def tiny_campaign(seed=0, jobs=1, store=None, force=False, shard=None):
    return run_applatency_campaign(seed=seed, ratios=TINY_RATIOS,
                                   ns=TINY_NS, jobs=jobs, store=store,
                                   force=force, shard=shard)


class TestSpec:
    def test_shape_and_defaults(self):
        spec = applatency_spec(ISBenchmark("B"))
        assert spec.axis_names == ["ratio", "strategy", "n"]
        assert spec.cell_count() == (4 * len(APPLATENCY_STRATEGIES)
                                     * len(APPLATENCY_NS))
        assert spec.cluster.kind == "grid5000-latratio"
        assert spec.cost_key is not None

    def test_cells_record_contention_fingerprint(self):
        sweep = SweepRunner(tiny_spec()).run()
        for cell in sweep.cells:
            v = cell.value
            assert v["status"] in ("success", "degraded")
            assert v["time_s"] > 0 and v["comm_s"] > 0
            assert v["comm_s"] < v["time_s"]
            assert v["sites_used"] >= 1
            assert v["max_crossing_pairs"] >= 0

    def test_single_site_plan_has_no_crossing(self):
        sweep = SweepRunner(tiny_spec()).run()
        cell = sweep.value(ratio=1000.0, strategy="bandwidth_spread", n=64)
        assert cell["sites_used"] == 1
        assert cell["max_crossing_pairs"] == 0


class TestDeterminism:
    def test_jobs1_jobs2_reports_byte_identical(self):
        serial = applatency_report(tiny_campaign(jobs=1))
        parallel = applatency_report(tiny_campaign(jobs=2))
        assert serial == parallel

    def test_serial_parallel_stores_byte_identical(self, tmp_path):
        spec = tiny_spec(seed=3)
        serial = ResultStore(tmp_path / "serial")
        parallel = ResultStore(tmp_path / "parallel")
        SweepRunner(spec, jobs=1, store=serial).run()
        SweepRunner(spec, jobs=2, store=parallel).run()
        assert (serial.path_for(spec).read_bytes()
                == parallel.path_for(spec).read_bytes())

    def test_cell_lines_pinned(self):
        """The cell lines, pinned: they change only with a deliberate
        seed or model change, which must re-pin them and say so in
        CHANGES.md."""
        cells = "".join(encode_store_line(c.record()) + "\n"
                        for c in SweepRunner(tiny_spec()).run().cells)
        assert hashlib.sha256(cells.encode()).hexdigest() == (
            "657806a3c2e76a06d206da6f2777ad8a9dbdfab1212b93fd97e1dc3270c45685")

    def test_kill_resume_byte_identical(self, tmp_path):
        """A campaign killed mid-sweep resumes through the ``.partial``
        checkpoint and promotes to the straight-through bytes."""
        spec = tiny_spec()
        store = ResultStore(tmp_path)
        full = SweepRunner(spec, store=store).run()
        canonical = store.path_for(spec).read_bytes()
        simulate_kill(store, spec, full.cells[:3])
        resumed = SweepRunner(spec, jobs=2, store=store).run()
        assert resumed.executed == 5 and resumed.cached == 3
        assert store.path_for(spec).read_bytes() == canonical
        assert not store.partial_path_for(spec).exists()

    def test_shard_halves_merge_to_unsharded_store(self, tmp_path):
        """--shard 1/2 + 2/2 checkpoint stores reassemble byte-for-byte
        into the canonical file an unsharded run writes."""
        spec = tiny_spec(seed=1, name="applatency-shardtest")
        reference = ResultStore(tmp_path / "reference")
        SweepRunner(spec, store=reference).run()
        shards = ResultStore(tmp_path / "shards")
        one = SweepRunner(spec, store=shards, shard=(1, 2)).run()
        two = SweepRunner(spec, store=shards, shard=(2, 2)).run()
        assert one.executed + two.executed == spec.cell_count()
        # Shard slices never promote: only the checkpoint exists.
        assert not shards.path_for(spec).exists()
        merged = StoreMerger().merge([shards.partial_path_for(spec)])
        assert merged.complete
        path = merged.write(tmp_path / "merged")
        assert path.read_bytes() == reference.path_for(spec).read_bytes()

    def test_cache_replay_stable(self, tmp_path):
        store = ResultStore(tmp_path)
        first = tiny_campaign(store=store)
        again = tiny_campaign(store=store)
        assert again.apps["is.B"].executed == 0
        assert applatency_report(first) == applatency_report(again)


class TestAcceptanceStory:
    """ISSUE acceptance: the report must show a deep-hierarchy IS cell
    where bandwidth_spread/topo_block beat plain spread strictly,
    while EP shows no communication win."""

    @pytest.fixture(scope="class")
    def campaign(self):
        return tiny_campaign(jobs=2)

    def test_is_deep_hierarchy_commaware_beats_spread(self, campaign):
        sweep = campaign.apps["is.B"]
        spread = sweep.value(ratio=1000.0, strategy="spread", n=64)
        for strategy in ("bandwidth_spread", "topo_block"):
            aware = sweep.value(ratio=1000.0, strategy=strategy, n=64)
            assert aware["time_s"] < spread["time_s"], strategy

    def test_is_flat_grid_gives_no_commaware_win(self, campaign):
        """At ratio 1 the grid is one big LAN latency-wise: locality
        buys nothing, which is the axis's whole point."""
        sweep = campaign.apps["is.B"]
        spread = sweep.value(ratio=1.0, strategy="spread", n=64)
        aware = sweep.value(ratio=1.0, strategy="bandwidth_spread", n=64)
        assert aware["time_s"] >= spread["time_s"]

    def test_ep_shows_no_material_communication_gap(self, campaign):
        """EP's communication share stays negligible (< 5% of wall-
        clock) under every strategy: whatever wall-clock gap remains
        is memory contention on packed hosts, not the network."""
        sweep = campaign.apps["ep.B"]
        for cell in sweep.cells:
            assert cell.value["comm_s"] < 0.05 * cell.value["time_s"]
        deep = [sweep.value(ratio=1000.0, strategy=s, n=64)["comm_s"]
                for s in APPLATENCY_STRATEGIES]
        assert max(deep) - min(deep) < 0.15

    def test_report_survives_roster_without_spread(self):
        """Custom strategy rosters are public API: the speedup panel
        falls back to the first strategy as its baseline."""
        campaign = run_applatency_campaign(
            ratios=(1000.0,), ns=(64,),
            strategies=("concentrate", "topo_block"))
        report = applatency_report(campaign)
        assert "speedup over concentrate" in report

    def test_report_contains_story_and_calibration(self, campaign):
        report = applatency_report(campaign)
        for strategy in APPLATENCY_STRATEGIES:
            assert strategy in report
        assert "speedup over spread" in report
        assert "fig4 crossover calibration" in report
        assert " plan:" in report and "fixed:" in report
