"""Full submission protocol on the small cluster (Figure 1 steps 1-8)."""

import pytest

from repro.middleware.jobs import JobRequest, JobStatus


class TestHappyPath:
    def test_success_and_completions(self, small_cluster):
        res = small_cluster.submit_and_run(JobRequest(n=6, strategy="spread"))
        assert res.status is JobStatus.SUCCESS
        assert len(res.completions) == 6
        assert res.plan is not None
        assert res.plan.total_processes == 6

    def test_hostnames_match_plan(self, small_cluster):
        res = small_cluster.submit_and_run(JobRequest(n=6, strategy="spread"))
        planned = {(p.rank, p.replica): p.host.name
                   for p in res.allocation.placements}
        for key, payload in res.completions.items():
            assert payload["hostname"] == planned[key]

    def test_spread_low_latency_first(self, small_cluster):
        """alpha (local site) hosts must be used before beta/gamma."""
        res = small_cluster.submit_and_run(JobRequest(n=4, strategy="spread"))
        assert res.allocation.hosts_by_site() == {"alpha": 4}

    def test_concentrate_packs_local_site(self, small_cluster):
        res = small_cluster.submit_and_run(
            JobRequest(n=8, strategy="concentrate"))
        assert res.allocation.cores_by_site() == {"alpha": 8}
        assert res.allocation.hosts_by_site() == {"alpha": 2}

    def test_spread_overflows_to_remote_sites(self, small_cluster):
        res = small_cluster.submit_and_run(JobRequest(n=10, strategy="spread"))
        sites = res.allocation.hosts_by_site()
        assert sites["alpha"] == 4
        assert sites.get("beta", 0) == 4
        assert sites.get("gamma", 0) == 2

    def test_timings_ordered(self, small_cluster):
        res = small_cluster.submit_and_run(JobRequest(n=4))
        t = res.timings
        assert (t.submitted_at <= t.booked_at <= t.allocated_at
                <= t.launched_at <= t.finished_at)
        assert t.reservation_s > 0

    def test_reservations_released_between_jobs(self, small_cluster):
        """J=1 everywhere: a second job must still find every host."""
        first = small_cluster.submit_and_run(JobRequest(n=10, strategy="spread"))
        second = small_cluster.submit_and_run(JobRequest(n=10, strategy="spread"))
        assert first.status is JobStatus.SUCCESS
        assert second.status is JobStatus.SUCCESS
        assert len(second.allocation.used_hosts()) == 10

    def test_replication_plan(self, small_cluster):
        res = small_cluster.submit_and_run(
            JobRequest(n=4, r=2, strategy="spread"))
        assert res.status is JobStatus.SUCCESS
        assert len(res.completions) == 8
        for rank in range(4):
            hosts = {p.host.name
                     for p in res.allocation.replicas_of_rank(rank)}
            assert len(hosts) == 2


class TestFailurePaths:
    def test_infeasible_when_too_large(self, small_cluster):
        # 10 hosts x 4/2 cores = 28 capacity; ask for more.
        res = small_cluster.submit_and_run(JobRequest(n=29, strategy="spread"))
        assert res.status is JobStatus.INFEASIBLE
        assert "condition (b)" in res.failure_reason
        assert res.plan is None

    def test_infeasible_replication(self, small_cluster):
        # r=11 > 10 hosts -> condition (a) *via capacity*: with n=1,
        # c_i = min(P, 1) = 1 per host, so 10 < 11 fails (b) too; the
        # middleware reports whichever fired.
        res = small_cluster.submit_and_run(JobRequest(n=1, r=11))
        assert res.status is JobStatus.INFEASIBLE

    def test_unknown_strategy_is_infeasible_result(self, small_cluster):
        res = small_cluster.submit_and_run(
            JobRequest(n=2, strategy="warp-drive"))
        assert res.status is JobStatus.INFEASIBLE
        assert "unknown strategy" in res.failure_reason

    def test_dead_hosts_detected_and_skipped(self, small_cluster):
        cluster = small_cluster
        cluster.kill_hosts(["g1-1.gamma", "g1-2.gamma"])
        cluster.sim.run(until=cluster.sim.now + 0.01)
        res = cluster.submit_and_run(JobRequest(n=10, strategy="spread"))
        # gamma dead: only 8 hosts remain; 10 processes still fit
        # (alpha can double up), job succeeds without gamma.
        assert res.status is JobStatus.SUCCESS
        assert set(res.dead_peers) == {"g1-1.gamma", "g1-2.gamma"}
        assert "gamma" not in res.allocation.hosts_by_site()

    def test_dead_hosts_removed_from_cache(self, small_cluster):
        cluster = small_cluster
        cluster.kill_hosts(["b1-4.beta"])
        cluster.sim.run(until=cluster.sim.now + 0.01)
        cluster.submit_and_run(JobRequest(n=9, strategy="spread"))
        mpd = cluster.mpd()
        assert "b1-4.beta" not in mpd.peer.cache

    def test_concurrent_submission_rejected(self, small_cluster):
        mpd = small_cluster.mpd()
        gen1 = mpd.submit_job(JobRequest(n=2))
        proc1 = small_cluster.sim.process(gen1)
        with pytest.raises(RuntimeError, match="concurrent"):
            # Drive the second generator manually to trigger the guard.
            gen2 = mpd.submit_job(JobRequest(n=2))
            small_cluster.sim.process(gen2)
            small_cluster.sim.run_until_complete(proc1)

    def test_results_recorded_on_mpd(self, small_cluster):
        res = small_cluster.submit_and_run(JobRequest(n=2))
        assert small_cluster.mpd().results[res.job_id] is res


class TestCrashStateLoss:
    def test_crash_releases_held_reservations(self, small_cluster):
        """A crash loses volatile middleware state: reservations the RS
        held (booked, not yet started) must not pin ``J`` slots or
        survive into the host's next life."""
        victim = small_cluster.mpds["b1-2.beta"]
        victim.rs.handle_reserve(type("M", (), {
            "src": "a1-1.alpha",
            "payload": {"key": "k-held", "submitter": "a1-1.alpha",
                        "job_id": "j1", "reply_port": "rp"}})())
        assert victim.gatekeeper.held == {"k-held"}
        small_cluster.network.set_down("b1-2.beta")
        small_cluster._on_host_change("b1-2.beta", True)
        assert victim.gatekeeper.held == set()
        assert not victim.rs.reservations


class TestGatekeeperIntegration:
    def test_busy_host_refuses_and_job_routes_around(self, small_cluster):
        """Occupy one alpha host with a fake app; concentrate must skip it."""
        cluster = small_cluster
        victim = cluster.mpds["a1-2.alpha"]
        assert victim.gatekeeper.try_admit("occupied", "other")
        victim.gatekeeper.start_application("occupied", "other-job", 2)
        res = cluster.submit_and_run(JobRequest(n=8, strategy="concentrate"))
        assert res.status is JobStatus.SUCCESS
        assert "a1-2.alpha" not in [h.name for h in res.allocation.used_hosts()]
        assert "a1-2.alpha" in res.refusals
        victim.gatekeeper.end_application("other-job")

    def test_p_limit_respected_in_plan(self, small_cluster):
        res = small_cluster.submit_and_run(
            JobRequest(n=20, strategy="concentrate"))
        per_host = res.allocation.processes_per_host()
        for host_name, count in per_host.items():
            cores = small_cluster.topology.host(host_name).cores
            assert count <= cores
