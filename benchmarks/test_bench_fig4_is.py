"""Figure 4 right: NAS IS class B execution times, 32..128 processes.

Shape criteria (from §5.2):

* at 32 processes spread wins (all processes in the local cluster, no
  memory contention);
* from 64 processes spread pays WAN collectives and loses badly,
  degrading further at 128;
* concentrate stays "roughly constant";
* absolute times sit inside the paper's 0-40 s axis.
"""

from repro.apps import ISBenchmark
from repro.experiments.applications import (
    IS_PROCESS_COUNTS,
    run_application_experiment,
)
from repro.experiments.report import format_series_table

from benchmarks.conftest import emit


def test_bench_fig4_is(benchmark):
    series = benchmark.pedantic(
        lambda: run_application_experiment(
            ISBenchmark("B"), process_counts=IS_PROCESS_COUNTS),
        rounds=1, iterations=1,
    )

    emit("Figure 4 right: IS class B total time (s)",
         format_series_table(series, title="IS-B n"))

    spread, conc = series["spread"], series["concentrate"]
    assert spread.time_at(32) < conc.time_at(32)
    assert spread.time_at(64) > conc.time_at(64)
    assert spread.time_at(128) > 2.0 * conc.time_at(128)
    # spread strictly degrades once it leaves the cluster.
    assert spread.time_at(32) < spread.time_at(64) < spread.time_at(128)
    # concentrate roughly constant.
    assert conc.flatness() < 1.8
    for s in (spread, conc):
        assert max(s.times) < 40.0
