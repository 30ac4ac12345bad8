"""Full-stack integration: facade, failures, replication outcomes."""

import pytest

from repro.cluster import P2PMPICluster
from repro.middleware.config import MiddlewareConfig
from repro.middleware.jobs import JobRequest, JobStatus
from tests.conftest import make_small_topology


class TestFacade:
    def test_boot_idempotent(self, small_cluster):
        before = small_cluster.sim.events_processed
        small_cluster.boot()
        assert small_cluster.sim.events_processed == before

    def test_submit_many_sequential(self, small_cluster):
        results = small_cluster.submit_many([
            JobRequest(n=4, strategy="spread"),
            JobRequest(n=4, strategy="concentrate"),
        ])
        assert [r.status for r in results] == [JobStatus.SUCCESS] * 2

    def test_monitor_records_jobs(self, small_cluster):
        small_cluster.submit_and_run(JobRequest(n=2, tag="probe"))
        records = small_cluster.monitor.select("job", tag="probe")
        assert records and records[-1].value == "success"

    def test_custom_submitter(self, small_cluster):
        res = small_cluster.submit_and_run(JobRequest(n=2),
                                           submitter="b1-1.beta")
        assert res.job_id.startswith("b1-1.beta#")
        # beta's closest site is beta itself.
        assert res.allocation.hosts_by_site().get("beta", 0) > 0

    def test_alive_hosts_tracks_kills(self, small_cluster):
        assert len(small_cluster.alive_hosts()) == 10
        small_cluster.kill_hosts(["g1-1.gamma"])
        small_cluster.sim.run(until=small_cluster.sim.now + 0.001)
        assert len(small_cluster.alive_hosts()) == 9

    def test_unknown_anchor_rejected(self):
        with pytest.raises(KeyError):
            P2PMPICluster(make_small_topology(), supernode_host="ghost.site")

    def test_load_feedback_into_latency(self, small_cluster):
        """Busy hosts look slower to the ping (load_of wiring)."""
        mpd = small_cluster.mpds["a1-2.alpha"]
        assert mpd.gatekeeper.try_admit("k", "other")
        mpd.gatekeeper.start_application("k", "busyjob", 4)
        assert small_cluster.latency_model.load_of("a1-2.alpha") == 4
        mpd.gatekeeper.end_application("busyjob")


class TestFailuresMidRun:
    def make_cluster(self):
        return P2PMPICluster(
            make_small_topology(),
            seed=23,
            config=MiddlewareConfig(noise_sigma_ms=0.05, app_grace_s=2.0),
            supernode_host="a1-1.alpha",
        ).boot()

    def submit_with_kill(self, cluster, request, kill_after_s, victims=None):
        """Submit and crash hosts mid-execution."""
        from repro.apps import HostnameApp

        request = JobRequest(
            n=request.n, r=request.r, strategy=request.strategy,
            app=HostnameApp(startup_s=5.0),
        )
        mpd = cluster.mpd()
        proc = cluster.sim.process(mpd.submit_job(request))

        def killer():
            yield cluster.sim.timeout(kill_after_s)
            chosen = victims
            if chosen is None:
                # Kill a host the beta-site jobs land on.
                chosen = [sorted(h.name for h in cluster.topology.all_hosts()
                                 if h.site == "beta")[0]]
            for name in chosen:
                cluster.network.set_down(name, True)
                cluster.mpds[name].on_host_down()

        cluster.sim.process(killer())
        return cluster.sim.run_until_complete(proc)

    def test_r1_loses_ranks_on_crash(self):
        cluster = self.make_cluster()
        res = self.submit_with_kill(
            cluster, JobRequest(n=10, r=1, strategy="spread"),
            kill_after_s=1.0, victims=["b1-1.beta"])
        assert res.status is JobStatus.RANKS_LOST
        assert "no surviving replica" in res.failure_reason

    def test_r2_survives_single_crash_degraded(self):
        cluster = self.make_cluster()
        res = self.submit_with_kill(
            cluster, JobRequest(n=8, r=2, strategy="spread"),
            kill_after_s=1.0, victims=["b1-1.beta"])
        assert res.status is JobStatus.DEGRADED
        covered = {rank for rank, _ in res.completions}
        assert covered == set(range(8))

    def test_crash_before_submit_routes_around(self):
        cluster = self.make_cluster()
        cluster.kill_hosts(["b1-1.beta"])
        cluster.sim.run(until=cluster.sim.now + 0.01)
        res = cluster.submit_and_run(JobRequest(n=8, r=1, strategy="spread"))
        assert res.status is JobStatus.SUCCESS
        assert "b1-1.beta" not in [h.name for h in res.allocation.used_hosts()]


class TestJobResultApi:
    def test_allocation_raises_without_plan(self, small_cluster):
        res = small_cluster.submit_and_run(JobRequest(n=99))
        assert res.status is JobStatus.INFEASIBLE
        with pytest.raises(RuntimeError):
            _ = res.allocation

    def test_hostnames_view(self, small_cluster):
        res = small_cluster.submit_and_run(JobRequest(n=3))
        names = res.hostnames()
        assert set(names) == {0, 1, 2}
        assert all(len(v) == 1 for v in names.values())

    def test_summary_contains_status(self, small_cluster):
        res = small_cluster.submit_and_run(JobRequest(n=3))
        assert "success" in res.summary()
