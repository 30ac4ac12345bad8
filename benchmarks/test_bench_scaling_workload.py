"""Extension benches: co-allocation latency scaling and sustained
multi-user workload replay.

The paper demonstrates that co-allocation *works* at 600 processes;
these benches quantify how the reservation machinery scales and how the
overlay behaves under a sustained job stream — the operational view a
downstream deployer needs.
"""

import numpy as np

from repro.apps import HostnameApp
from repro.experiments.scaling import run_scaling_experiment
from repro.workloads import JobMix, WorkloadSpec, generate_stream, replay_stream

from benchmarks.conftest import emit


def test_bench_reservation_scaling(benchmark):
    series = benchmark.pedantic(
        lambda: run_scaling_experiment(
            demands=(50, 100, 200, 400, 600), strategy="spread"),
        rounds=1, iterations=1,
    )
    emit("Co-allocation latency vs demand (simulated)",
         "\n".join(
             f"n={p.n:<4} reservation={p.reservation_s * 1e3:7.1f} ms  "
             f"launch={p.launch_s * 1e3:7.1f} ms  booked={p.booked_hosts}  "
             f"attempts={p.attempts}"
             for p in series.points))
    # Reservation latency is dominated by the RS gather: it must stay
    # within the same order of magnitude across a 12x demand growth
    # (no central bottleneck), and every job must land first try.
    times = series.reservation_series()
    assert max(times) < 10 * min(times)
    assert all(p.attempts == 1 for p in series.points)
    # Booking is capped by the 350-peer overlay.
    assert series.points[-1].booked_hosts == 350


def test_bench_workload_replay(cluster, benchmark):
    """200 simulated seconds of Poisson submissions from three sites."""
    spec = WorkloadSpec(
        arrival_rate_per_s=0.2,
        horizon_s=200.0,
        mixes=(
            JobMix(n=32, strategy="spread", weight=2.0,
                   app=HostnameApp(startup_s=5.0)),
            JobMix(n=64, strategy="concentrate", weight=1.0,
                   app=HostnameApp(startup_s=5.0)),
            JobMix(n=16, r=2, strategy="spread", weight=0.5,
                   app=HostnameApp(startup_s=5.0)),
        ),
        submitters=("grelon-1.nancy", "capricorn-1.lyon",
                    "paravent-1.rennes"),
        max_jobs=40,
    )
    jobs = generate_stream(spec, np.random.default_rng(17))

    stats = benchmark.pedantic(lambda: replay_stream(cluster, jobs),
                               rounds=1, iterations=1)
    emit("Workload replay (Poisson stream, 3 submitters)",
         stats.summary() + "\ncores served by site: "
         + str(dict(sorted(stats.cores_served_by_site().items()))))
    assert stats.n_jobs == len(jobs) > 10
    # The 1040-core grid under ~0.2 jobs/s of 16-64 process jobs is
    # uncongested: everything must eventually be served.
    assert stats.acceptance_rate == 1.0
    assert stats.mean_reservation_s() < 3.0
