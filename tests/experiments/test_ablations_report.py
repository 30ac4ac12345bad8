"""Ablation studies and report emitters."""

import hashlib

import pytest

from repro.apps import EPBenchmark
from repro.experiments.ablations import (
    block_strategy_ablation,
    kendall_tau,
    latency_noise_ablation,
    overbooking_ablation,
    overbooking_spec,
    replication_ablation,
    smoothing_ablation,
)
from repro.experiments.engine import SweepRunner, encode_store_line
from repro.experiments.report import (
    format_series_table,
    format_site_table,
    legend_order,
    series_to_csv,
)


class TestKendallTau:
    def test_identical_ranking(self):
        assert kendall_tau([1, 2, 3], [10, 20, 30]) == 1.0

    def test_reversed_ranking(self):
        assert kendall_tau([1, 2, 3], [3, 2, 1]) == -1.0

    def test_partial(self):
        tau = kendall_tau([1, 2, 3, 4], [1, 3, 2, 4])
        assert 0 < tau < 1

    def test_singleton(self):
        assert kendall_tau([1], [2]) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            kendall_tau([1, 2], [1, 2, 3])


class TestNoiseAblation:
    def test_zero_noise_perfect_ranking(self):
        points = latency_noise_ablation(sigmas_ms=(0.0,), seed=1)
        # Hosts within a site tie at identical base RTT; tau-a counts
        # ties as zero contribution, so "perfect" here means the
        # cross-site ordering is never violated: tau equals the
        # tie-adjusted maximum, well above any noisy setting.
        assert points[0].tau > 0.7

    def test_tau_degrades_with_noise(self):
        points = latency_noise_ablation(sigmas_ms=(0.0, 1.2, 5.0), seed=1)
        taus = [p.tau for p in points]
        assert taus[0] > taus[1] > taus[2]

    def test_more_samples_help(self):
        points = smoothing_ablation(noise_sigma_ms=2.0,
                                    sample_counts=(1, 30), seed=2)
        plain = {p.samples: p.tau for p in points if p.ewma_alpha is None}
        assert plain[30] > plain[1]


class TestOverbookingAblation:
    def test_overbooking_absorbs_failures(self):
        points = overbooking_ablation(factors=(1.0, 1.5), n=120,
                                      kill_count=12, seed=3)
        by_factor = {p.overbook_factor: p for p in points}
        # With killed grelon hosts the overbooked run must succeed and
        # must have detected the silent peers.
        assert by_factor[1.5].status == "success"
        assert by_factor[1.5].dead_detected > 0
        # Exact booking cannot do better than overbooking.
        assert by_factor[1.0].allocated <= by_factor[1.5].allocated

    def test_cell_lines_pinned(self):
        """The default grid's cell lines: they change only with a
        deliberate seed or model change, which must re-pin them and say
        so in CHANGES.md."""
        cells = "".join(encode_store_line(c.record()) + "\n"
                        for c in SweepRunner(overbooking_spec()).run().cells)
        assert hashlib.sha256(cells.encode()).hexdigest() == (
            "426e49a4548f25466770d626ad4a1db00a3e602d105f747ad62e947e83264815")


class TestReplicationAblation:
    def test_survival_improves_with_r(self):
        points = replication_ablation(replication_degrees=(1, 2),
                                      p_host_fail=0.1, n=20, seed=1,
                                      trials=2000)
        assert points[0].survival < points[1].survival

    def test_r1_matches_independent_failure_math(self):
        points = replication_ablation(replication_degrees=(1,),
                                      p_host_fail=0.05, n=20, seed=1,
                                      trials=4000)
        # 20 ranks on 20 distinct hosts: survival = 0.95^20 ~ 0.358
        assert points[0].survival == pytest.approx(0.95 ** 20, abs=0.04)


class TestBlockAblation:
    def test_block_curve_produced(self):
        points = block_strategy_ablation(EPBenchmark("A"), n=32,
                                         blocks=(1, 4), seed=0)
        assert len(points) == 2
        times = {p.block: p.time_s for p in points}
        # block=1 == spread (no contention) beats block=4 on EP compute.
        assert times[1] < times[4]


class TestReport:
    def test_legend_order(self):
        ordered = legend_order(["nancy", "sophia", "lyon"])
        assert ordered == ["sophia", "lyon", "nancy"]

    def test_site_table_and_csv(self):
        from repro.experiments.coallocation import run_coallocation_experiment

        series = run_coallocation_experiment(
            demands=(100, 200), strategies=("concentrate",))["concentrate"]
        table = format_site_table(series, value="cores")
        assert "nancy" in table and "100" in table and "TOTAL" in table
        with pytest.raises(ValueError):
            format_site_table(series, value="flops")
        csv = series_to_csv(series)
        assert csv.startswith("strategy,n,site,hosts,cores")
        assert "concentrate,100,nancy" in csv

    def test_series_table(self):
        from repro.experiments.applications import run_application_experiment

        series = run_application_experiment(
            EPBenchmark("A"), process_counts=(32,))
        table = format_series_table(series, title="EP-A")
        assert "EP-A" in table and "spread" in table
