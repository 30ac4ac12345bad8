"""§5.1 narrative checks on the full Grid'5000 simulation.

These are the paper's own qualitative claims, asserted on reduced
sweeps of the real experiment driver (the benchmarks run the full
100..600 sweep).
"""

import pytest

from repro.experiments.coallocation import run_coallocation_experiment


@pytest.fixture(scope="module")
def sweeps():
    return run_coallocation_experiment(
        demands=(100, 200, 250, 300, 400, 600),
        strategies=("concentrate", "spread"),
    )


class TestConcentrate:
    def test_only_nancy_up_to_200(self, sweeps):
        """'the processes are allocated on the 60 hosts available at
        nancy only, up to 200 processes'"""
        series = sweeps["concentrate"]
        assert series.point(100).sites_used == ["nancy"]
        assert series.point(200).sites_used == ["nancy"]

    def test_nancy_cores_saturate_at_240(self, sweeps):
        series = sweeps["concentrate"]
        assert series.point(300).cores("nancy") == 240
        assert series.point(600).cores("nancy") == 240

    def test_lyon_first_overflow_site(self, sweeps):
        """'further hosts are first allocated at lyon (5 for -n 250)'"""
        series = sweeps["concentrate"]
        pt = series.point(250)
        assert pt.cores("nancy") == 240
        assert pt.hosts("lyon") == 5
        assert pt.cores("lyon") == 10

    def test_packs_hosts_to_capacity(self, sweeps):
        series = sweeps["concentrate"]
        # 100 processes on 4-core nancy hosts -> 25 hosts.
        assert series.point(100).total_hosts == 25

    def test_sophia_never_needed(self, sweeps):
        """Total capacity of the five closer sites (824 cores) covers
        600 processes; sophia (17 ms) stays out."""
        series = sweeps["concentrate"]
        assert series.point(600).cores("sophia") == 0

    def test_total_cores_match_demand(self, sweeps):
        series = sweeps["concentrate"]
        for pt in series.points:
            assert sum(pt.cores_by_site.values()) == pt.n


class TestSpread:
    def test_one_process_per_host_while_hosts_remain(self, sweeps):
        """'a good allocation should map only one process per host as
        much as possible'"""
        series = sweeps["spread"]
        for n in (100, 200, 250, 300):
            pt = series.point(n)
            assert pt.total_hosts == n, f"n={n}"

    def test_uses_all_sites_from_300(self, sweeps):
        """'From 300 processes, the strategy leads to take hosts from
        all sites'"""
        pt = sweeps["spread"].point(300)
        assert len(pt.sites_used) == 6

    def test_four_closest_sites_dominate_at_250(self, sweeps):
        """'hosts are chosen from the four closest sites up to 250' —
        allow a small noise-driven tail on grenoble."""
        pt = sweeps["spread"].point(250)
        core_four = (pt.cores("nancy") + pt.cores("lyon")
                     + pt.cores("rennes") + pt.cores("bordeaux"))
        assert core_four >= 240  # >= 96%
        assert pt.cores("sophia") == 0

    def test_nancy_stair_at_400(self, sweeps):
        """'the number of cores allocated at nancy makes a stair at 400
        ... the closest peers are first chosen to host a second
        process' — 350 hosts exist, so 400 demands 50 doublings, all
        at nancy."""
        series = sweeps["spread"]
        assert series.point(300).cores("nancy") == 60
        assert series.point(400).cores("nancy") == 110
        assert series.point(400).hosts("nancy") == 60

    def test_all_350_hosts_used_beyond_350(self, sweeps):
        """'all peers have been discovered and the strategy tends to
        use them all'"""
        pt = sweeps["spread"].point(400)
        assert sum(pt.hosts_by_site.values()) == 350

    def test_total_cores_match_demand(self, sweeps):
        series = sweeps["spread"]
        for pt in series.points:
            assert sum(pt.cores_by_site.values()) == pt.n


class TestRankingQuality:
    def test_nancy_always_first(self, sweeps):
        """0.087 ms vs >=10 ms: noise can never displace nancy."""
        for strategy in ("concentrate", "spread"):
            pt = sweeps[strategy].point(100)
            assert pt.cores("nancy") > 0

    def test_middle_sites_interleave_under_noise(self, sweeps):
        """lyon/rennes/bordeaux 'fiercely compete': by 600 demanded,
        concentrate must have crossed into rennes and/or bordeaux."""
        pt = sweeps["concentrate"].point(600)
        assert pt.cores("rennes") + pt.cores("bordeaux") > 0

    def test_reservation_time_sub_second(self, sweeps):
        for strategy in ("concentrate", "spread"):
            for pt in sweeps[strategy].points:
                assert pt.reservation_s < 2.5
