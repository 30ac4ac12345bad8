"""The communication-aware scenario pack (engine-backed)."""

import hashlib

import pytest

from repro.cluster import ClusterSpec, build_latratio_cluster
from repro.experiments.commaware import (
    ALL_STRATEGIES,
    COMMAWARE_STRATEGIES,
    PAPER_STRATEGIES,
    commaware_alloc_spec,
    commaware_report,
    latratio_spec,
    run_commaware_campaign,
)
from repro.experiments.engine import (ResultStore, SweepRunner,
                                      encode_store_line)

SMALL = ClusterSpec(kind="small")


def small_campaign(seed=3, jobs=1, store=None, force=False):
    return run_commaware_campaign(
        seed=seed, demands=(4, 8), strategies=ALL_STRATEGIES,
        cluster_spec=SMALL, with_apps=False, with_latratio=False,
        jobs=jobs, store=store, force=force)


class TestRoster:
    def test_six_strategies(self):
        assert len(ALL_STRATEGIES) == 6
        assert set(PAPER_STRATEGIES).isdisjoint(COMMAWARE_STRATEGIES)


class TestAllocSweep:
    def test_all_strategies_produce_cells_with_metrics(self):
        campaign = small_campaign()
        assert campaign.alloc.executed == 12  # 6 strategies x 2 demands
        for cell in campaign.alloc.cells:
            value = cell.value
            assert value["status"] in ("success", "degraded")
            assert value["latency_diameter_ms"] >= 0.0
            assert (value["min_bandwidth_bps"] is None
                    or value["min_bandwidth_bps"] > 0)
            assert value["sites_used"] >= 1

    def test_single_host_allocation_has_null_bandwidth(self):
        campaign = small_campaign()
        cell = campaign.alloc.value(strategy="concentrate", n=4)
        assert cell["total_hosts"] == 1
        assert cell["min_bandwidth_bps"] is None

    def test_serial_parallel_stores_byte_identical(self, tmp_path):
        spec = commaware_alloc_spec(seed=3, demands=(4, 8),
                                    cluster_spec=SMALL)
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
        spec = commaware_alloc_spec(seed=3, demands=(4, 8),
                                    cluster_spec=SMALL)
        cells = "".join(encode_store_line(c.record()) + "\n"
                        for c in SweepRunner(spec).run().cells)
        assert hashlib.sha256(cells.encode()).hexdigest() == (
            "fce0f98480ddb114d57879e783fdb00210a0ff3ab97480d7fe60482609a8116c")


class TestReport:
    def test_report_lists_all_strategies(self):
        campaign = small_campaign()
        report = commaware_report(campaign)
        for strategy in ALL_STRATEGIES:
            assert strategy in report
        assert "placement quality" in report
        assert "minbw_gbps@n" in report

    def test_report_deterministic_across_jobs(self):
        serial = commaware_report(small_campaign(jobs=1))
        parallel = commaware_report(small_campaign(jobs=2))
        assert serial == parallel


class TestLatencyRatioAxis:
    def test_builder_scales_lan_rtt(self):
        flat = build_latratio_cluster(seed=1, boot=False, latency_ratio=1.0)
        deep = build_latratio_cluster(seed=1, boot=False,
                                      latency_ratio=1000.0)
        assert flat.topology.lan_rtt_ms == pytest.approx(10.576)
        assert deep.topology.lan_rtt_ms == pytest.approx(0.010576)
        # WAN RTTs (the measured figure-legend values) are untouched.
        assert flat.topology.site_rtt_ms("nancy", "lyon") == 10.576
        assert deep.topology.site_rtt_ms("nancy", "lyon") == 10.576

    def test_builder_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            build_latratio_cluster(boot=False, latency_ratio=0.0)

    def test_cluster_spec_params_reach_builder(self):
        spec = ClusterSpec(kind="grid5000-latratio").with_params(
            latency_ratio=2.0)
        cluster = spec.build(seed=0)
        assert cluster.topology.lan_rtt_ms == pytest.approx(10.576 / 2.0)

    def test_params_in_fingerprint(self):
        base = ClusterSpec(kind="grid5000-latratio")
        varied = base.with_params(latency_ratio=9.0)
        assert base.fingerprint() != varied.fingerprint()

    def test_unsorted_params_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(kind="small", params=(("b", 1), ("a", 2)))

    def test_latratio_spec_shape(self):
        spec = latratio_spec(seed=1, ratios=(1.0, 10.0), n=16)
        assert spec.axis_names == ["ratio", "strategy"]
        assert spec.cell_count() == 2 * len(ALL_STRATEGIES)
        assert spec.meta["n"] == 16

    def test_latratio_cells_ratio_changes_diameter(self):
        """One coarse end-to-end cell per extreme ratio: the measured
        diameter must shrink as the grid flattens into a hierarchy."""
        spec = latratio_spec(seed=1, ratios=(1.0, 1000.0),
                             strategies=("concentrate",), n=120)
        result = SweepRunner(spec).run()
        flat = result.value(ratio=1.0, strategy="concentrate")
        deep = result.value(ratio=1000.0, strategy="concentrate")
        assert deep["latency_diameter_ms"] < flat["latency_diameter_ms"]

    def test_cell_lines_pinned(self):
        """The latency-ratio cell lines, pinned like the alloc sweep's:
        they change only with a deliberate seed or model change, which
        must re-pin them and say so in CHANGES.md."""
        spec = latratio_spec(seed=1, ratios=(1.0, 1000.0),
                             strategies=("concentrate", "bandwidth_spread"),
                             n=16)
        cells = "".join(encode_store_line(c.record()) + "\n"
                        for c in SweepRunner(spec).run().cells)
        assert hashlib.sha256(cells.encode()).hexdigest() == (
            "278a25623e76aeebeda3b014c1c4886ebd7b002c68859632108ca689fe3df607")


class TestCaching:
    def test_second_run_cached(self, tmp_path):
        store = ResultStore(tmp_path)
        first = small_campaign(store=store)
        again = small_campaign(store=store)
        assert first.alloc.executed == 12
        assert again.alloc.executed == 0
        assert again.alloc.cached == 12
        assert commaware_report(first) == commaware_report(again)
