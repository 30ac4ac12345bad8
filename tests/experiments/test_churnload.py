"""Churn-under-load campaign: ledger accounting, determinism, resume.

The determinism coverage mirrors what commaware/engine already have —
this campaign adds real mid-flight churn to the mix, so the regression
surface (per-cell rng streams, revive/rejoin traffic) is its own.
"""

import hashlib

import pytest

from repro.cluster import ClusterSpec, build_small_cluster
from repro.experiments.churnload import (
    FixedWorkApp,
    churnload_report,
    churnload_spec,
    run_churnload_round,
)
from repro.experiments.engine import (ResultStore, SweepRunner,
                                      encode_store_line)
from repro.experiments.multiuser import default_submitters
from repro.middleware.jobs import JobRequest
from tests.conftest import simulate_kill


def tiny_spec(seed=0, failures=(0.0, 0.006),
              strategies=("spread", "bandwidth_spread"), replications=(2,),
              name="churnload-test"):
    """4-cell sweep on the small testbed with a short horizon."""
    return churnload_spec(
        arrivals=(0.05,), failures=failures, replications=replications,
        strategies=strategies, users=2, n=4, horizon_s=120.0,
        downtime_s=60.0, work_s=30.0, seed=seed,
        cluster_spec=ClusterSpec(kind="small"), name=name)


class TestRound:
    def test_quiet_round_all_jobs_complete(self):
        cluster = build_small_cluster(seed=2)
        submitters = default_submitters(cluster, 2)
        ledger = run_churnload_round(
            cluster, submitters, horizon_s=120.0, arrival_rate_s=0.05,
            n=4, r=1, strategy="concentrate", failure_rate_s=0.0)
        assert ledger.jobs_submitted > 0
        assert ledger.availability() == 1.0
        assert ledger.replica_survival() == 1.0
        assert not ledger.crashes and not ledger.revivals

    def test_ledger_copy_accounting(self):
        cluster = build_small_cluster(seed=2)
        submitters = default_submitters(cluster, 2)
        ledger = run_churnload_round(
            cluster, submitters, horizon_s=120.0, arrival_rate_s=0.05,
            n=4, r=2, strategy="spread", failure_rate_s=0.004)
        assert ledger.crashes, "churn never fired"
        for job in ledger.jobs:
            if job.launched:
                assert job.copies_planned == 8  # n=4 x r=2
                assert 0 <= job.copies_done <= job.copies_planned
                assert job.copies_lost == job.copies_planned - job.copies_done
            else:
                assert job.copies_done == 0
        summary = ledger.summary()
        assert summary["jobs"] == ledger.jobs_submitted
        assert summary["completed"] + summary["failed"] == summary["jobs"]
        assert sum(summary["statuses"].values()) == summary["jobs"]

    def test_submitters_and_anchor_are_sheltered(self):
        cluster = build_small_cluster(seed=5)
        submitters = default_submitters(cluster, 2)
        ledger = run_churnload_round(
            cluster, submitters, horizon_s=120.0, arrival_rate_s=0.05,
            n=4, r=1, strategy="spread", failure_rate_s=0.02)
        protected = set(submitters) | {cluster.supernode_host}
        assert ledger.crashes
        assert not {e.host_name for e in ledger.crashes} & protected

    def test_revived_host_rejoins_overlay(self):
        """The on_change revive path does a real re-registration: the
        supernode (which dropped the host via REPORT_DEAD or staleness)
        sees it again, and later allocations can use it."""
        cluster = build_small_cluster(seed=7)
        sim = cluster.sim
        victim = "b1-4.beta"
        cluster.churn.start(cluster.churn.kill_at([(1.0, victim)]))
        sim.run(until=2.0)
        # A submission while the host is down marks it dead everywhere.
        result = cluster.submit_and_run(JobRequest(n=10, strategy="spread"))
        assert victim in result.dead_peers
        assert victim not in cluster.supernode.records
        # Revive: the MPD rejoins like a restarted mpiboot.
        cluster.network.set_down(victim, False)
        cluster._on_host_change(victim, False)
        sim.run(until=sim.now + 1.0)
        assert victim in cluster.supernode.records
        second = cluster.submit_and_run(JobRequest(n=10, strategy="spread"))
        assert victim in {h.name for h in second.allocation.used_hosts()}

    def test_revival_restarts_periodic_ping(self):
        """With a background ping loop configured, a crash kills it
        (the loop exits while the host is down) and the revival must
        restart it — a revived host whose cache latencies freeze at
        pre-crash values would rank peers from stale data forever."""
        from repro.middleware.config import MiddlewareConfig

        cluster = build_small_cluster(
            seed=7, config=MiddlewareConfig(noise_sigma_ms=0.05,
                                            ping_period_s=5.0))
        sim = cluster.sim
        victim = cluster.mpds["b1-4.beta"]
        sim.run(until=6.0)  # at least one background ping round
        before = victim.peer.cache.entry("a1-2.alpha").last_update
        assert before > 0.0
        cluster.churn.start(cluster.churn.kill_at([(7.0, "b1-4.beta")]))
        sim.run(until=20.0)  # the dead host's ping loop exits
        cluster.network.set_down("b1-4.beta", False)
        cluster._on_host_change("b1-4.beta", False)
        sim.run(until=40.0)
        after = victim.peer.cache.entry("a1-2.alpha").last_update
        assert after > 20.0  # fresh measurements post-revival

    def test_fixed_work_app_durations(self):
        cluster = build_small_cluster(seed=1)
        result = cluster.submit_and_run(
            JobRequest(n=2, r=2, strategy="spread",
                       app=FixedWorkApp(duration_s=5.0)))
        durations = {payload["duration"]
                     for payload in result.completions.values()}
        assert durations == {5.0}


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
            "8971cc0365454e3af5534b377e394eaec86555b99eae8f155245e91f9ae95266")

    def test_kill_resume_byte_identical(self, tmp_path):
        """A campaign killed mid-sweep and resumed through its
        ``.partial`` checkpoint must promote to the same bytes a
        straight-through run produces."""
        spec = tiny_spec()
        store = ResultStore(tmp_path)
        full = SweepRunner(spec, store=store).run()
        canonical = store.path_for(spec).read_bytes()
        # Simulate the kill: canonical gone, 2 of 4 cells landed.
        simulate_kill(store, spec, full.cells[:2])
        resumed = SweepRunner(spec, jobs=2, store=store).run()
        assert resumed.executed == 2 and resumed.cached == 2
        assert store.path_for(spec).read_bytes() == canonical
        assert not store.partial_path_for(spec).exists()

    def test_report_identical_across_replay(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path)
        first = churnload_report(SweepRunner(spec, store=store).run())
        again = churnload_report(SweepRunner(spec, store=store).run())
        assert first == again
        for strategy in ("spread", "bandwidth_spread"):
            assert strategy in first
        assert "avail@fail" in first and "survival@fail" in first


class TestSurvivalStory:
    def test_replica_survival_differs_spread_vs_bandwidth_spread(self):
        """The ROADMAP question: ``bandwidth_spread`` shrinks the host
        set — at equal replication degree its replica-survival must
        come out different from plain ``spread`` under the same churn
        axis (here it is *higher*: on the J=1 small grid spread's wider
        footprint exposes more victim hosts per job)."""
        spec = tiny_spec()
        sweep = SweepRunner(spec).run()
        survival = {
            strategy: sweep.value(fail=0.006, strategy=strategy,
                                  r=2)["replica_survival"]
            for strategy in ("spread", "bandwidth_spread")
        }
        assert survival["spread"] != survival["bandwidth_spread"]
        hosts = {
            strategy: sweep.value(fail=0.006, strategy=strategy,
                                  r=2)["mean_hosts_used"]
            for strategy in ("spread", "bandwidth_spread")
        }
        assert hosts["bandwidth_spread"] < hosts["spread"]

    def test_replication_buys_mid_run_survival(self):
        """§3.2: among jobs that *launched*, replication converts
        copy deaths into DEGRADED completions instead of RANKS_LOST
        failures.  (Total availability is confounded by launch
        fragility — an r=2 footprint touches more hosts before START —
        so the claim is pinned on the mid-run survival metric.)"""

        def completed_given_launched(value):
            statuses = value["statuses"]
            launched = sum(statuses.get(k, 0)
                           for k in ("success", "degraded", "ranks_lost"))
            done = statuses.get("success", 0) + statuses.get("degraded", 0)
            return done / launched

        spec = churnload_spec(
            arrivals=(0.05,), failures=(0.008,), replications=(1, 2),
            strategies=("concentrate",), users=2, n=4, horizon_s=120.0,
            downtime_s=60.0, work_s=30.0, seed=3,
            cluster_spec=ClusterSpec(kind="small"), name="churnload-rep")
        sweep = SweepRunner(spec).run()
        unreplicated = completed_given_launched(sweep.value(r=1))
        replicated = completed_given_launched(sweep.value(r=2))
        # Deterministic at seed 3: r=1 loses a rank mid-run, r=2 rides
        # the same churn out on surviving replicas.
        assert unreplicated < 1.0
        assert replicated == 1.0


@pytest.mark.slow
class TestFullCampaign:
    """The CLI-default small campaign (18 cells): the acceptance-
    criterion assertions at full grid scale, in the slow lane."""

    def test_default_report_shows_survival_gap(self):
        spec = churnload_spec()
        sweep = SweepRunner(spec, jobs=2).run()
        report = churnload_report(sweep)
        assert "== churn under load:" in report
        for r in (1, 2):
            spread = sweep.value(fail=0.006, strategy="spread",
                                 r=r)["replica_survival"]
            bwspread = sweep.value(fail=0.006, strategy="bandwidth_spread",
                                   r=r)["replica_survival"]
            assert spread != bwspread
