"""Figure 4 left: NAS EP class B execution times, 32..512 processes.

Shape criteria (from §5.2):

* spread is faster than concentrate at moderate scales (32..128) —
  memory contention on concentrate's packed quad-cores outweighs the
  WAN collectives ("probably due to the intensive memory accesses");
* the two strategies converge ("reach an equilibrium") by 512;
* both curves decrease with n (EP is compute bound);
* absolute times sit in the paper's 1-10 s band.
"""

from repro.apps import EPBenchmark
from repro.experiments.applications import (
    EP_PROCESS_COUNTS,
    run_application_experiment,
)
from repro.experiments.report import format_series_table

from benchmarks.conftest import emit


def test_bench_fig4_ep(benchmark):
    series = benchmark.pedantic(
        lambda: run_application_experiment(
            EPBenchmark("B"), process_counts=EP_PROCESS_COUNTS),
        rounds=1, iterations=1,
    )

    emit("Figure 4 left: EP class B total time (s)",
         format_series_table(series, title="EP-B n"))

    spread, conc = series["spread"], series["concentrate"]
    # spread <= concentrate while contention dominates.
    for n in (32, 64, 128):
        assert spread.time_at(n) <= conc.time_at(n) * 1.1, f"n={n}"
    # equilibrium at scale.
    for n in (256, 512):
        ratio = spread.time_at(n) / conc.time_at(n)
        assert 0.6 < ratio < 1.5, f"n={n}: ratio={ratio:.2f}"
    # compute-bound scaling.
    assert spread.is_monotone_decreasing(0.10)
    assert conc.is_monotone_decreasing(0.10)
    # paper band (1..10 s across the sweep).
    for s in (spread, conc):
        assert 0.5 < min(s.times) and max(s.times) < 12.0
