"""Reservation-latency scaling driver."""

import pytest

from repro.experiments.scaling import run_scaling_experiment


@pytest.fixture(scope="module")
def series():
    return run_scaling_experiment(demands=(50, 200, 600))


class TestScaling:
    def test_points_cover_demands(self, series):
        assert series.ns == [50, 200, 600]

    def test_milestones_ordered(self, series):
        for p in series.points:
            assert 0 < p.reservation_s <= p.launch_s <= p.total_s

    def test_first_try_allocation(self, series):
        assert all(p.attempts == 1 for p in series.points)

    def test_booked_hosts_grow_with_demand(self, series):
        booked = [p.booked_hosts for p in series.points]
        assert booked == sorted(booked)
        assert booked[-1] == 350  # overlay exhausted at 600

    def test_no_blowup(self, series):
        times = series.reservation_series()
        assert max(times) < 10 * min(times)

    def test_failure_raises(self):
        with pytest.raises(RuntimeError):
            run_scaling_experiment(demands=(5000,))
