"""WAN backbone contention in the cost model, pinned by fig4.

Covers the ``CostParams.wan_contention`` modes and the ISSUE's
calibration contract: the plan-dependent model reproduces the paper's
IS crossover (2x64 strictly slower than 1x128, EP indistinguishable)
and the deprecated fixed-16 divisor is *asserted to fail* it — the
regression guard against reverting to the constant.
"""

import dataclasses

import pytest

from repro.cluster import DEFAULT_COST_PARAMS
from repro.experiments.applatency import fig4_crossover
from repro.grid5000.builder import build_topology
from repro.mpi.costmodel import CollectiveCostModel, CostParams

TOPO = build_topology()


def layouts_2x64_vs_1x128(model):
    """The calibration layouts: 4 copies per host (P = cores)."""
    nancy = TOPO.hosts_in_site("nancy")
    lyon = TOPO.hosts_in_site("lyon")
    one = [h for h in nancy[:32] for _ in range(4)]
    two = ([h for h in nancy[:16] for _ in range(4)]
           + [h for h in lyon[:16] for _ in range(4)])
    return model.layout(one), model.layout(two)


def model_for(mode):
    return CollectiveCostModel(
        TOPO, dataclasses.replace(DEFAULT_COST_PARAMS, wan_contention=mode))


class TestModes:
    def test_default_mode_is_plan(self):
        assert CostParams().wan_contention == "plan"
        assert DEFAULT_COST_PARAMS.wan_contention == "plan"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            CostParams(wan_contention="psychic")

    def test_wan_share_follows_site_counts(self):
        model = model_for("plan")
        _, two = layouts_2x64_vs_1x128(model)
        si = two.site_of["nancy"]
        sj = two.site_of["lyon"]
        assert two.wan_flows[si, sj] == 64
        assert two.wan_share_bps(si, sj, model.params) == pytest.approx(
            10.0e9 / 64)
        # LAN never pools a backbone.
        assert two.wan_share_bps(si, si, model.params) == float("inf")

    def test_fixed_mode_uses_constant(self):
        model = model_for("fixed")
        _, two = layouts_2x64_vs_1x128(model)
        si, sj = two.site_of["nancy"], two.site_of["lyon"]
        assert two.wan_share_bps(si, sj, model.params) == pytest.approx(
            10.0e9 / 16)

    def test_p2p_sees_backbone_share(self):
        """A cross-site byte stream is slower under plan contention
        than at the unpooled NIC-clamped path rate."""
        plan = model_for("plan")
        pa = plan.params
        _, two = layouts_2x64_vs_1x128(plan)
        src = 0              # a nancy rank
        dst = two.p - 1      # a lyon rank
        si, sj = two.rank_site[src], two.rank_site[dst]
        nbytes = 1_000_000
        nic = two.bw_bps[si, sj] / max(two.colocated[src],
                                       two.colocated[dst])
        unpooled = (two.oneway_s[si, sj] + pa.sw_overhead_s
                    + pa.fixed_cost_s(nbytes) + pa.wan_extra_s
                    + nbytes * (pa.ser_per_byte_s + 8.0 / nic))
        assert plan.p2p_time(two, src, dst, nbytes) > unpooled

    def test_transfer_time_is_bandwidth_only(self):
        """The wire time excludes latency/fixed costs: zero bytes cost
        zero seconds, and single-rank groups never touch the wire."""
        model = model_for("plan")
        one, _ = layouts_2x64_vs_1x128(model)
        assert model.alltoallv_transfer_time(one, 0) == 0.0
        solo = model.layout([TOPO.hosts_in_site("nancy")[0]])
        assert model.alltoallv_transfer_time(solo, 8192) == 0.0

    def test_copy_census_widens_the_flow_divisor(self):
        """A replicated plan runs its replicas' collectives
        concurrently: the full copy census must widen the backbone
        divisor just as ``colocated`` widens the NIC divisor."""
        model = model_for("plan")
        nancy = TOPO.hosts_in_site("nancy")
        lyon = TOPO.hosts_in_site("lyon")
        slice_hosts = nancy[:8] + lyon[:8]
        layout = model.layout(slice_hosts)
        si, sj = layout.site_of["nancy"], layout.site_of["lyon"]
        assert layout.wan_flows[si, sj] == 8
        before = model.alltoallv_transfer_time(layout, 8192)
        # Replica 1 occupies eight further hosts per site.
        census = {h.name: 1 for h in nancy[:16] + lyon[:16]}
        layout.apply_copy_counts(census)
        assert layout.wan_flows[si, sj] == 16
        assert model.alltoallv_transfer_time(layout, 8192) > before

    def test_copy_census_never_shrinks_below_the_layout(self):
        """A stale or partial census cannot undercount the layout's
        own ranks, and unknown hosts/sites are ignored."""
        model = model_for("plan")
        nancy = TOPO.hosts_in_site("nancy")
        lyon = TOPO.hosts_in_site("lyon")
        layout = model.layout(nancy[:4] + lyon[:4])
        si, sj = layout.site_of["nancy"], layout.site_of["lyon"]
        layout.apply_copy_counts({"no-such-host.mars": 9,
                                  TOPO.hosts_in_site("rennes")[0].name: 9})
        assert layout.wan_flows[si, sj] == 4

    def test_replicated_run_time_pays_more_backbone_contention(self):
        """End to end through Application.run_time: the same replica
        slice costs more when the plan carries a second replica's
        copies on further cross-site hosts."""
        from repro.apps.base import AppEnv
        from repro.apps.is_bench import ISBenchmark

        env = AppEnv(topology=TOPO, cost_params=DEFAULT_COST_PARAMS)
        nancy = TOPO.hosts_in_site("nancy")
        lyon = TOPO.hosts_in_site("lyon")
        slice_hosts = nancy[:8] + lyon[:8]
        solo = {h.name: 1 for h in slice_hosts}
        with_replica = dict(solo)
        with_replica.update({h.name: 1 for h in nancy[8:16] + lyon[8:16]})
        is_b = ISBenchmark("B")
        assert (is_b.run_time(slice_hosts, 16, env, colocated=with_replica)
                > is_b.run_time(slice_hosts, 16, env, colocated=solo))

    def test_plan_mode_relaxes_the_legacy_overcount(self):
        """The legacy model divided the NIC-clamped 1 Gb/s path by the
        flow count — as if every backbone were 1 Gb/s.  On the 10 Gb/s
        nancy-lyon link the pooled share is 10x wider, so the plan's
        whole wire time undercuts the legacy cross-site term alone."""
        plan = model_for("plan")
        _, two = layouts_2x64_vs_1x128(plan)
        si, sj = two.site_of["nancy"], two.site_of["lyon"]
        legacy_bw = two.bw_bps[si, sj] / two.wan_flows[si, sj]
        assert two.wan_share_bps(si, sj, plan.params) == 10 * legacy_bw
        legacy_cross_s = two.site_counts[sj] * 8192 * 8.0 / legacy_bw
        assert plan.alltoallv_transfer_time(two, 8192) < legacy_cross_s


class TestFig4Crossover:
    """Tier-1 calibration pin (ISSUE acceptance criterion)."""

    @pytest.fixture(scope="class")
    def cal(self):
        return fig4_crossover()

    def test_plan_reproduces_is_crossover(self, cal):
        """Paper fig4: co-allocating IS over two sites is strictly
        slower than staying inside one — on the wire (the contended
        component) and end to end."""
        rows = cal["modes"]["plan"]
        assert rows["2x64"]["wire"] > 1.2 * rows["1x128"]["wire"]
        assert rows["2x64"]["total"] > 1.5 * rows["1x128"]["total"]

    def test_plan_leaves_ep_indistinguishable(self, cal):
        """Compute-bound EP must not care where its copies land."""
        rows = cal["modes"]["plan"]
        ratio = rows["2x64"]["ep_total"] / rows["1x128"]["ep_total"]
        assert 0.9 < ratio < 1.1

    def test_fixed_sixteen_fails_the_crossover(self, cal):
        """The regression guard: under the deprecated constant the
        wire ordering collapses — backbone/16 = 625 Mb/s exceeds the
        250 Mb/s NIC share, so the fixed model claims 64 crossing
        flows cost nothing over staying home.  Reverting the cost
        model to the constant flips `test_plan_reproduces_is_crossover`
        red; this pin documents *why* in the same breath."""
        rows = cal["modes"]["fixed"]
        assert rows["2x64"]["wire"] <= 1.05 * rows["1x128"]["wire"]
        # And strictly less contended than the plan-dependent truth.
        assert (rows["2x64"]["wire"]
                < cal["modes"]["plan"]["2x64"]["wire"])

    def test_crossing_count_is_sixty_four(self):
        """The 2x64 plan's nancy-lyon backbone carries 64 concurrent
        crossing pairs — the divisor the fixed model got wrong 4x."""
        from repro.net.contention import ContentionModel

        nancy = TOPO.hosts_in_site("nancy")
        lyon = TOPO.hosts_in_site("lyon")
        plan = ([h for h in nancy[:16] for _ in range(4)]
                + [h for h in lyon[:16] for _ in range(4)])
        crossing = ContentionModel(TOPO).plan(plan).crossing_pairs()
        assert crossing[("lyon", "nancy")] == 64
