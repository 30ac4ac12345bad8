"""The topozoo campaign: determinism, sharding, topology dependence.

The ISSUE's acceptance story: sweeping the full strategy roster over
generated complex-network families must produce at least one family
whose winning strategy differs from the paper testbed's — the winner
is a property of the topology, not of the strategies.  Pinned here on
the default seed, alongside the usual byte-determinism and store
regression surface every engine-backed campaign carries.
"""

import hashlib

import pytest

from repro.experiments.commaware import ALL_STRATEGIES
from repro.experiments.engine import (ResultStore, SweepRunner,
                                      encode_store_line)
from repro.experiments.topozoo import (TOPOZOO_FAMILIES, TOPOZOO_SITES,
                                       run_topozoo_campaign, topozoo_report,
                                       topozoo_spec, topozoo_winners)

TINY_SITES = (12,)
TINY_FAMILIES = ("grid5000", "scale_free")


def tiny_campaign(seed=0, jobs=1, store=None, force=False, shard=None,
                  families=TINY_FAMILIES):
    return run_topozoo_campaign(seed=seed, families=families,
                                sizes=TINY_SITES, jobs=jobs, store=store,
                                force=force, shard=shard)


class TestSpec:
    def test_roster_covers_all_families(self):
        assert TOPOZOO_FAMILIES == ("grid5000", "scale_free",
                                    "small_world", "fat_sites")

    def test_generated_family_axes(self):
        spec = topozoo_spec("scale_free", seed=7)
        assert spec.axis_names == ["sites", "strategy"]
        assert spec.cell_count() == len(TOPOZOO_SITES) * len(ALL_STRATEGIES)
        assert spec.cluster.kind == "scale_free"
        assert spec.meta["topo_seed"] == 7

    def test_paper_testbed_has_no_size_axis(self):
        spec = topozoo_spec("grid5000")
        assert spec.axis_names == ["strategy"]
        assert spec.cell_count() == len(ALL_STRATEGIES)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown topozoo"):
            run_topozoo_campaign(families=("quake",))

    def test_cells_record_routed_fingerprint(self):
        sweep = SweepRunner(topozoo_spec("scale_free",
                                         sizes=TINY_SITES)).run()
        for cell in sweep.cells:
            v = cell.value
            assert v["status"] in ("success", "degraded")
            assert v["comm_s"] > 0
            assert v["min_bandwidth_bps"] is None or v["min_bandwidth_bps"] > 0
            assert v["max_route_hops"] >= 1  # multi-hop model engaged
            assert v["max_link_load"] >= 1


class TestDeterminism:
    def test_jobs1_jobs2_reports_byte_identical(self):
        serial = topozoo_report(tiny_campaign(jobs=1))
        parallel = topozoo_report(tiny_campaign(jobs=2))
        assert serial == parallel

    def test_cell_lines_pinned(self):
        """The cell lines, pinned: they change only with a deliberate
        seed or model change, which must re-pin them and say so in
        CHANGES.md."""
        spec = topozoo_spec("scale_free", sizes=TINY_SITES, seed=0)
        cells = "".join(encode_store_line(c.record()) + "\n"
                        for c in SweepRunner(spec).run().cells)
        assert hashlib.sha256(cells.encode()).hexdigest() == (
            "fc1d0b1ab293d331617172c4ad44fa2dd74f5350f199b4b11227218c9cb9c21c")

    def test_store_replay_byte_identical(self, tmp_path):
        store = ResultStore(tmp_path)
        first = topozoo_report(tiny_campaign(store=store))
        replay = topozoo_report(tiny_campaign(store=store))
        assert first == replay

    def test_shard_halves_merge_to_unsharded_store(self, tmp_path):
        from repro.experiments.aggregate import StoreMerger

        spec = topozoo_spec("scale_free", sizes=TINY_SITES, seed=0)
        reference = ResultStore(tmp_path / "reference")
        SweepRunner(spec, store=reference).run()
        shards = ResultStore(tmp_path / "shards")
        one = SweepRunner(spec, store=shards, shard=(1, 2)).run()
        two = SweepRunner(spec, store=shards, shard=(2, 2)).run()
        assert one.executed + two.executed == spec.cell_count()
        merged = StoreMerger().merge([shards.partial_path_for(spec)])
        assert merged.complete
        path = merged.write(tmp_path / "merged")
        assert path.read_bytes() == reference.path_for(spec).read_bytes()

    def test_master_seed_reshapes_the_generated_graph(self):
        """topo_seed rides in meta (= the campaign master seed): a new
        seed means a new generated topology, while within one campaign
        every strategy of a (family, sites) group scores the same
        graph (the spec carries a single topo_seed for all cells)."""
        spec = topozoo_spec("scale_free", sizes=TINY_SITES, seed=0)
        assert spec.meta["topo_seed"] == 0  # one graph per campaign
        a = SweepRunner(spec).run()
        b = SweepRunner(topozoo_spec("scale_free", sizes=TINY_SITES,
                                     seed=1)).run()
        assert (a.value(sites=12, strategy="spread")["comm_s"]
                != b.value(sites=12, strategy="spread")["comm_s"])


class TestTopologyDependence:
    """The acceptance pin: generated families change the winner."""

    @pytest.fixture(scope="class")
    def campaign(self):
        return run_topozoo_campaign(seed=0, sizes=TINY_SITES)

    def test_grid5000_winner_is_block(self, campaign):
        assert topozoo_winners(campaign)["grid5000"] == "block"

    def test_at_least_one_family_winner_differs(self, campaign):
        winners = topozoo_winners(campaign)
        baseline = winners.pop("grid5000")
        assert any(w != baseline for w in winners.values()), winners

    def test_scale_free_winner_pinned(self, campaign):
        # seed 0, 12 sites: hub contention rewards bandwidth-aware
        # spreading over the paper's block placement.
        winners = topozoo_winners(campaign)
        assert winners["scale_free[sites=12]"] == "bandwidth_spread"

    def test_report_names_differing_cells(self, campaign):
        report = topozoo_report(campaign)
        assert "paper testbed winner: block" in report
        assert "ranking strategies differently" in report
        assert "scale_free[sites=12] -> bandwidth_spread" in report

    def test_report_without_baseline_degrades(self):
        campaign = tiny_campaign(families=("scale_free",))
        report = topozoo_report(campaign)
        assert "no baseline to compare" in report


class TestCLI:
    def run_args(self, *argv):
        from repro.cli import build_run_parser

        return build_run_parser().parse_args(["topozoo", *argv])

    def test_registry_row(self):
        from repro.experiments import registry

        experiment = registry.get("topozoo")
        assert experiment.shardable
        assert "topozoo" in experiment.cli_axes

    def test_cli_specs_match_campaign_hashes(self):
        from repro.experiments import registry

        args = self.run_args("--family", "grid5000,scale_free",
                             "--sites", "12")
        specs = registry.get("topozoo").specs(args)
        assert [s.name for s in specs] == ["topozoo-grid5000",
                                           "topozoo-scale_free"]
        assert dict(specs[1].axes)["sites"] == (12,)

    def test_bad_family_exits(self):
        from repro.experiments.topozoo import _cli_overrides

        with pytest.raises(SystemExit, match="unknown families"):
            _cli_overrides(self.run_args("--family", "quake"))

    def test_bad_sites_exits(self):
        from repro.experiments.topozoo import _cli_overrides

        with pytest.raises(SystemExit):
            _cli_overrides(self.run_args("--sites", "0"))

    def test_worker_flags_forward_family_and_sites(self):
        from repro.experiments.orchestrator import worker_flags

        args = self.run_args("--family", "scale_free", "--sites", "16")
        flags = worker_flags("topozoo", args)
        assert ("--family", "scale_free") in zip(flags, flags[1:])
        assert ("--sites", "16") in zip(flags, flags[1:])

    def test_worker_flags_omit_unset(self):
        from repro.experiments.orchestrator import worker_flags

        flags = worker_flags("topozoo", self.run_args())
        assert "--family" not in flags and "--sites" not in flags
