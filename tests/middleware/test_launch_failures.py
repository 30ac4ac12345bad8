"""Launch-phase failures (steps 7-8) and determinism guarantees."""

import pytest

from repro.cluster import P2PMPICluster
from repro.middleware.config import MiddlewareConfig
from repro.middleware.jobs import JobRequest, JobStatus, JobTimings
from tests.conftest import make_small_topology


def make_cluster(seed=41, **config_kwargs):
    kwargs = dict(noise_sigma_ms=0.05, booking_retries=0)
    kwargs.update(config_kwargs)
    return P2PMPICluster(
        make_small_topology(), seed=seed,
        config=MiddlewareConfig(**kwargs),
        supernode_host="a1-1.alpha",
    ).boot()


class TestStartRefused:
    def test_forged_key_refused_and_job_fails(self):
        """A remote RS that lost the key (expiry) refuses the START."""
        cluster = make_cluster(reservation_ttl_s=60.0)

        # Sabotage: after booking, wipe one target RS's reservations so
        # its key check fails at START time.
        victim = cluster.mpds["a1-2.alpha"]
        original_holds = victim.rs.holds_key

        def dishonest(key):
            victim.rs.reservations.clear()
            victim.gatekeeper.held.clear()
            return False

        victim.rs.holds_key = dishonest
        res = cluster.submit_and_run(
            JobRequest(n=10, strategy="spread"))
        victim.rs.holds_key = original_holds
        assert res.status is JobStatus.LAUNCH_FAILED
        assert "refusal" in res.failure_reason

    def test_abort_cleans_started_hosts(self):
        """After a launch failure the started hosts must end their
        applications, leaving gatekeepers free for the next job."""
        cluster = make_cluster()
        victim = cluster.mpds["a1-2.alpha"]
        victim.rs.holds_key = lambda key: False
        failed = cluster.submit_and_run(JobRequest(n=10, strategy="spread"))
        assert failed.status is JobStatus.LAUNCH_FAILED
        # Restore honesty; everything must work again on all hosts.
        del victim.rs.holds_key  # back to class implementation
        cluster.sim.run(until=cluster.sim.now + 1.0)
        for mpd in cluster.mpds.values():
            assert mpd.gatekeeper.running == {}, mpd.host.name
        ok = cluster.submit_and_run(JobRequest(n=10, strategy="spread"))
        assert ok.status is JobStatus.SUCCESS

    def test_silent_start_target_times_out(self):
        """A host that dies between RESERVE_OK and START stays silent;
        the start deadline fires and the job aborts."""
        cluster = make_cluster(start_timeout_s=1.0, rs_timeout_s=1.0)
        # Kill a host right after booking: patch the gatekeeper hook to
        # crash the host when its reservation is held.
        victim_name = "b1-1.beta"
        victim = cluster.mpds[victim_name]
        original_admit = victim.gatekeeper.try_admit

        def admit_then_die(key, submitter):
            admitted = original_admit(key, submitter)
            cluster.network.set_down(victim_name)
            return admitted

        victim.gatekeeper.try_admit = admit_then_die
        res = cluster.submit_and_run(JobRequest(n=10, strategy="spread"))
        # Either the victim is in slist (silent at START -> launch
        # failure) or overbooking replaced it (success).
        assert res.status in (JobStatus.LAUNCH_FAILED, JobStatus.SUCCESS)
        if res.status is JobStatus.LAUNCH_FAILED:
            assert "silent" in res.failure_reason


class TestDeterminism:
    def _series(self, seed):
        cluster = P2PMPICluster(
            make_small_topology(), seed=seed,
            supernode_host="a1-1.alpha",
        ).boot()
        out = []
        for _ in range(3):
            # concentrate n=6: which alpha host gets 4 vs 2 processes
            # depends on the noisy latency ranking -> seed-sensitive.
            res = cluster.submit_and_run(
                JobRequest(n=6, strategy="concentrate"))
            out.append(sorted(res.allocation.processes_per_host().items()))
        return out

    def test_same_seed_same_allocations(self):
        assert self._series(9) == self._series(9)

    def test_different_seed_may_differ(self):
        # Not strictly guaranteed, but across three concentrate jobs on
        # ten noisy hosts two seeds coinciding is vanishingly unlikely.
        assert self._series(9) != self._series(10)


class TestJobTimings:
    def test_derived_metrics(self):
        t = JobTimings(submitted_at=1.0, booked_at=1.5, allocated_at=1.6,
                       launched_at=2.0, finished_at=5.0)
        assert t.reservation_s == pytest.approx(0.5)
        assert t.launch_s == pytest.approx(1.0)
        assert t.makespan_s == pytest.approx(3.0)
        assert t.total_s == pytest.approx(4.0)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            JobRequest(n=0)
        with pytest.raises(ValueError):
            JobRequest(n=1, r=0)
        assert JobRequest(n=3, r=2).total_processes == 6
