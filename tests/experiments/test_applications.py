"""Figure 4 shape checks on reduced sweeps."""

import pytest

from repro.apps import EPBenchmark, ISBenchmark
from repro.experiments.applications import run_application_experiment


@pytest.fixture(scope="module")
def ep():
    return run_application_experiment(
        EPBenchmark("B"), process_counts=(32, 128, 512))


@pytest.fixture(scope="module")
def is_():
    return run_application_experiment(
        ISBenchmark("B"), process_counts=(32, 64, 128))


class TestEPShape:
    """'EP using 32 to 256 processes is slightly faster when allocation
    strategy spread ... overheads ... seem to reach an equilibrium' at
    512."""

    def test_spread_faster_at_32(self, ep):
        assert ep["spread"].time_at(32) < ep["concentrate"].time_at(32)

    def test_spread_not_slower_at_128(self, ep):
        assert (ep["spread"].time_at(128)
                <= ep["concentrate"].time_at(128) * 1.1)

    def test_equilibrium_at_512(self, ep):
        ratio = ep["spread"].time_at(512) / ep["concentrate"].time_at(512)
        assert 0.7 < ratio < 1.4

    def test_both_curves_decrease(self, ep):
        for strategy in ("spread", "concentrate"):
            assert ep[strategy].is_monotone_decreasing(tolerance=0.10)

    def test_compute_bound_scale(self, ep):
        """Class B at 32 procs lands in the paper's 1-10 s band."""
        assert 3.0 < ep["concentrate"].time_at(32) < 15.0


class TestISShape:
    """'With 32 processes, spread leads to better performances than
    concentrate ... Using 64 processes with spread ... leads to a
    slowdown.  Keeping the processes inside the cluster with
    concentrate gives a roughly constant execution time.'"""

    def test_spread_wins_at_32(self, is_):
        assert is_["spread"].time_at(32) < is_["concentrate"].time_at(32)

    def test_spread_loses_from_64(self, is_):
        assert is_["spread"].time_at(64) > is_["concentrate"].time_at(64)
        assert is_["spread"].time_at(128) > is_["concentrate"].time_at(128)

    def test_spread_degrades_with_n(self, is_):
        times = is_["spread"].times
        assert times[0] < times[1] < times[2]

    def test_concentrate_roughly_constant(self, is_):
        assert is_["concentrate"].flatness() < 1.8

    def test_spread_at_128_much_worse(self, is_):
        """The paper's right panel shows a ~3-4x gap at 128."""
        ratio = is_["spread"].time_at(128) / is_["concentrate"].time_at(128)
        assert ratio > 2.0

    def test_is_band(self, is_):
        """All IS points fall inside the paper's 0-40 s axis."""
        for strategy in ("spread", "concentrate"):
            for t in is_[strategy].times:
                assert 0.0 < t < 40.0


class TestDriver:
    def test_unknown_status_raises(self):
        from repro.apps import EPBenchmark

        with pytest.raises(RuntimeError):
            run_application_experiment(
                EPBenchmark("B"), process_counts=(2000,))  # infeasible

    def test_series_accessors(self, ep):
        series = ep["spread"]
        assert series.ns == [32, 128, 512]
        with pytest.raises(KeyError):
            series.time_at(999)
