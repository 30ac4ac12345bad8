"""Migration campaign: round semantics, determinism, report pinning.

The acceptance claim lives here: on at least one swept cell under
sustained churn, diffusive rebalancing beats static placement on
availability — and the whole sweep is byte-identical across serial,
pooled and shard/merge execution.
"""

import hashlib

import pytest

from repro.cluster import ClusterSpec, build_small_cluster
from repro.experiments.engine import (ResultStore, SweepRunner,
                                      encode_store_line)
from repro.experiments.migration import (MIGRATION_MODES, migration_report,
                                         migration_spec, run_migration_round)
from repro.experiments.multiuser import default_submitters


def tiny_spec(seed=0, failures=(0.0, 0.01), modes=MIGRATION_MODES,
              name="migration-test"):
    """4-cell sweep on the small testbed with the CLI's default round
    shape (horizon 120 is enough for several jobs and several kills)."""
    return migration_spec(
        arrivals=(0.04,), failures=failures, modes=modes,
        users=2, n=4, horizon_s=120.0, downtime_s=60.0,
        work_s=40.0, quantum_s=5.0, j_limit=2,
        rebalance_period_s=10.0, neighbor_k=3, threshold=0.6,
        max_moves=2, seed=seed,
        cluster_spec=ClusterSpec(kind="small", boot=False), name=name)


class TestRound:
    def test_quiet_round_all_jobs_complete(self):
        cluster = build_small_cluster(seed=2, boot=False)
        submitters = default_submitters(cluster, 2)
        ledger, balancer = run_migration_round(
            cluster, submitters, horizon_s=120.0, arrival_rate_s=0.05,
            n=4, mode="static", failure_rate_s=0.0)
        assert balancer is None
        assert ledger.jobs_submitted > 0
        assert ledger.availability() == 1.0
        assert ledger.summary()["migrations"] == 0

    @pytest.mark.parametrize("boot", [False, True])
    def test_j_limit_widens_owner_prefs(self, boot):
        """Widened whether or not the cluster was booted beforehand:
        the report header prints ``J=<j_limit>`` either way."""
        cluster = build_small_cluster(seed=2, boot=boot)
        submitters = default_submitters(cluster, 2)
        run_migration_round(cluster, submitters, horizon_s=30.0,
                            arrival_rate_s=0.05, n=4, mode="static",
                            failure_rate_s=0.0, j_limit=2)
        assert all(mpd.prefs.j_limit == 2
                   for mpd in cluster.mpds.values())
        assert all(mpd.gatekeeper.prefs.j_limit == 2
                   for mpd in cluster.mpds.values())

    def test_diffusive_round_attaches_balancer(self):
        cluster = build_small_cluster(seed=2, boot=False)
        submitters = default_submitters(cluster, 2)
        ledger, balancer = run_migration_round(
            cluster, submitters, horizon_s=120.0, arrival_rate_s=0.05,
            n=4, mode="diffusive", failure_rate_s=0.004)
        assert balancer is not None
        assert ledger.crashes, "churn never fired"
        # Controller loop stopped with the round.
        assert balancer._proc is None or not balancer._proc.is_alive

    def test_unknown_mode_rejected(self):
        cluster = build_small_cluster(seed=2, boot=False)
        with pytest.raises(ValueError):
            run_migration_round(cluster, ["a1-1.alpha"], mode="teleport")


class TestSpec:
    def test_axes_and_meta(self):
        spec = tiny_spec()
        axes = dict(spec.axes)
        assert set(axes) == {"arrival", "fail", "mode"}
        assert axes["mode"] == MIGRATION_MODES
        assert spec.cell_count() == 4
        for key in ("users", "n", "horizon_s", "work_s", "quantum_s",
                    "j_limit", "rebalance_period_s", "neighbor_k",
                    "threshold", "max_moves"):
            assert key in spec.meta

    @pytest.mark.parametrize("knob, value", [
        ("rebalance_period_s", 0.0), ("neighbor_k", -1),
        ("threshold", -0.1), ("max_moves", -1)])
    def test_bad_policy_fails_at_spec_build(self, knob, value):
        """A zero period used to tick on ``timeout(0)`` forever inside
        a cell; now the spec refuses it before any cell runs."""
        with pytest.raises(ValueError):
            migration_spec(**{knob: value})

    def test_registered_with_cli(self):
        from repro.experiments import registry

        assert "migration" in registry.MANIFEST
        record = registry.get("migration")
        assert record.cli_axes == ("cluster", "churn", "migration")


class TestDeterminism:
    def test_serial_and_parallel_stores_byte_identical(self, tmp_path):
        spec = tiny_spec()
        serial = ResultStore(tmp_path / "serial")
        parallel = ResultStore(tmp_path / "parallel")
        res_s = SweepRunner(spec, jobs=1, store=serial).run()
        res_p = SweepRunner(spec, jobs=2, store=parallel).run()
        assert res_s.executed == res_p.executed == spec.cell_count()
        assert (serial.path_for(spec).read_bytes()
                == parallel.path_for(spec).read_bytes())
        # The round's draws, pinned: these bytes change only with a
        # deliberate seed or model change, which must re-pin them and
        # say so in CHANGES.md.
        cells = "".join(encode_store_line(c.record()) + "\n"
                        for c in res_s.cells)
        assert hashlib.sha256(cells.encode()).hexdigest() == (
            "4bef0ec9078024d2a0ca50fd76a3f0a3194163ebde65df48c6ebf53933bc5dc0")

    def test_shard_halves_merge_to_serial_bytes(self, tmp_path):
        from repro.experiments.aggregate import merge_into

        spec = tiny_spec()
        whole = ResultStore(tmp_path / "whole")
        SweepRunner(spec, store=whole).run()
        merged_root = tmp_path / "merged"
        for index in (1, 2):
            shard_store = ResultStore(tmp_path / f"shard{index}")
            SweepRunner(spec, store=shard_store,
                        shard=(index, 2)).run()
            _, written = merge_into(
                merged_root, [shard_store.partial_path_for(spec)])
        assert written.read_bytes() == whole.path_for(spec).read_bytes()

    def test_report_identical_across_cache_replay(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path)
        first = migration_report(SweepRunner(spec, store=store).run())
        replay = SweepRunner(spec, store=store).run()
        assert replay.executed == 0 and replay.cached == spec.cell_count()
        assert migration_report(replay) == first


class TestReportStory:
    @pytest.fixture(scope="class")
    def sweep(self):
        return SweepRunner(tiny_spec()).run()

    def test_diffusive_wins_availability_under_churn(self, sweep):
        """Acceptance pin: under sustained churn, diffusive placement
        completes jobs static placement loses (r=1, so a dead copy
        host is fatal unless the balancer resurrects it)."""
        static = sweep.value(fail=0.01, mode="static")
        diffusive = sweep.value(fail=0.01, mode="diffusive")
        assert diffusive["availability"] > static["availability"]
        assert diffusive["rejoins"] + diffusive["moves"] > 0

    def test_quiet_cells_are_equivalent(self, sweep):
        """Without churn both modes deliver everything."""
        for mode in MIGRATION_MODES:
            assert sweep.value(fail=0.0, mode=mode)["availability"] == 1.0

    def test_static_mode_never_moves(self, sweep):
        for fail in (0.0, 0.01):
            value = sweep.value(fail=fail, mode="static")
            assert value["moves"] == 0
            assert value["migrations"] == 0

    def test_report_greppable_lines(self, sweep):
        report = migration_report(sweep)
        assert "== rank migration under churn:" in report
        assert "avail@fail" in report
        assert "completion_s@fail" in report
        assert "moves@fail" in report
        assert "-- diffusive vs static --" in report
        assert "win availability" in report
