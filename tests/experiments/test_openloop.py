"""The shared open-loop round: stream names, process order, ``beside``."""

from repro.cluster import build_small_cluster
from repro.experiments.multiuser import default_submitters
from repro.experiments.openloop import run_open_loop
from repro.middleware.jobs import JobRequest

HORIZON = 90.0
RATE = 0.05


def expected_arrivals(seed, stream_name):
    """Arrivals a fresh same-seed cluster draws on ``stream_name``."""
    arrivals = build_small_cluster(seed=seed, boot=False).sim.rng.stream(
        stream_name)
    count, t = 0, 0.0
    while True:
        t += float(arrivals.exponential(1.0 / RATE))
        if t >= HORIZON:
            return count
        count += 1


def test_tags_follow_the_named_arrival_streams():
    cluster = build_small_cluster(seed=2, boot=False)
    submitters = default_submitters(cluster, 2)
    tags = []

    def make_request(tag):
        tags.append(tag)
        return JobRequest(n=2, tag=tag)

    ledger = run_open_loop(
        cluster, submitters, make_request, stream_prefix="probe",
        horizon_s=HORIZON, arrival_rate_s=RATE, failure_rate_s=0.0,
        downtime_s=None)
    for submitter in submitters:
        count = expected_arrivals(2, f"probe.arrivals.{submitter}")
        assert count > 0
        assert sorted(t for t in tags if t.startswith(submitter + "#")) == \
            sorted(f"{submitter}#{i}" for i in range(count))
    assert ledger.jobs_submitted == len(tags)
    assert "probe.failures" not in cluster.sim.rng  # no churn, no draw
    assert cluster.churn.ledger is None


def test_beside_runs_after_churn_and_before_submitters():
    cluster = build_small_cluster(seed=5, boot=False)
    submitters = default_submitters(cluster, 2)
    seen = {}

    def beside():
        rng = cluster.sim.rng
        seen["booted"] = len(cluster.supernode.records) == len(cluster.mpds)
        seen["ledger"] = cluster.churn.ledger is not None
        seen["churn"] = "probe.failures" in rng
        seen["submitters"] = any(f"probe.arrivals.{s}" in rng
                                 for s in submitters)

    ledger = run_open_loop(
        cluster, submitters, lambda tag: JobRequest(n=2, tag=tag),
        stream_prefix="probe", horizon_s=HORIZON, arrival_rate_s=RATE,
        failure_rate_s=0.01, downtime_s=30.0, beside=beside)
    assert seen == {"booted": True, "ledger": True, "churn": True,
                    "submitters": False}
    assert ledger.crashes
    protected = set(submitters) | {cluster.supernode_host}
    assert not {e.host_name for e in ledger.crashes} & protected
