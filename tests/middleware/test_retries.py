"""Booking retries (§3.2 "dynamically tries during a limited time")."""

from repro.cluster import P2PMPICluster
from repro.middleware.config import MiddlewareConfig
from repro.middleware.jobs import JobRequest, JobStatus
from tests.conftest import make_small_topology


def make_cluster(retries=2, backoff=0.5):
    return P2PMPICluster(
        make_small_topology(), seed=31,
        config=MiddlewareConfig(noise_sigma_ms=0.05,
                                booking_retries=retries,
                                retry_backoff_s=backoff),
        supernode_host="a1-1.alpha",
    ).boot()


class TestRetries:
    def test_first_try_success_is_one_attempt(self):
        cluster = make_cluster()
        res = cluster.submit_and_run(JobRequest(n=4))
        assert res.status is JobStatus.SUCCESS
        assert res.attempts == 1

    def test_transient_contention_resolved_by_retry(self):
        """A rival reservation blocking everything expires mid-backoff."""
        cluster = make_cluster(retries=2, backoff=1.0)
        # Hold every host with a foreign reservation (J=1 -> all NOK).
        for mpd in cluster.mpds.values():
            assert mpd.gatekeeper.try_admit(f"rival-{mpd.host.name}",
                                            "rival")

        def release_later():
            yield cluster.sim.timeout(2.0)
            for mpd in cluster.mpds.values():
                mpd.gatekeeper.release_hold(f"rival-{mpd.host.name}")

        cluster.sim.process(release_later())
        res = cluster.submit_and_run(JobRequest(n=4))
        assert res.status is JobStatus.SUCCESS
        assert res.attempts > 1

    def test_permanent_infeasibility_exhausts_attempts(self):
        cluster = make_cluster(retries=2, backoff=0.1)
        res = cluster.submit_and_run(JobRequest(n=99))
        assert res.status is JobStatus.INFEASIBLE
        assert res.attempts == 3  # 1 + 2 retries

    def test_zero_retries_config(self):
        cluster = make_cluster(retries=0)
        res = cluster.submit_and_run(JobRequest(n=99))
        assert res.status is JobStatus.INFEASIBLE
        assert res.attempts == 1

    def test_refusals_aggregated_across_attempts(self):
        cluster = make_cluster(retries=1, backoff=0.1)
        blocker = cluster.mpds["b1-1.beta"]
        assert blocker.gatekeeper.try_admit("rival", "rival")
        res = cluster.submit_and_run(JobRequest(n=10, strategy="spread"))
        # b1-1.beta refused in every attempted round but the job fits
        # without it (alpha hosts double up).
        assert res.status is JobStatus.SUCCESS
        assert "b1-1.beta" in res.refusals
        blocker.gatekeeper.release_hold("rival")
