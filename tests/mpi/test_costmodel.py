"""Cost model: formula sanity + cross-validation vs the message engine."""

import pytest

from repro.mpi import CollectiveCostModel, CostParams, MPIWorld, SUM
from repro.net.transport import Network
from repro.sim import Simulator
from tests.conftest import make_small_topology


@pytest.fixture(scope="module")
def topo():
    return make_small_topology()


@pytest.fixture(scope="module")
def model(topo):
    return CollectiveCostModel(topo, CostParams(sw_overhead_s=20e-6))


def layout_of(model, topo, names):
    return model.layout([topo.host(n) for n in names])


class TestP2PFormula:
    def test_same_host_is_overhead_only(self, model, topo):
        lay = layout_of(model, topo, ["a1-1.alpha", "a1-1.alpha"])
        assert model.p2p_time(lay, 0, 1, 0) == pytest.approx(20e-6)

    def test_wan_latency_dominates_small(self, model, topo):
        lay = layout_of(model, topo, ["a1-1.alpha", "b1-1.beta"])
        t = model.p2p_time(lay, 0, 1, 8)
        assert t == pytest.approx(0.005, rel=0.05)

    def test_bytes_term(self, model, topo):
        lay = layout_of(model, topo, ["a1-1.alpha", "a1-2.alpha"])
        small = model.p2p_time(lay, 0, 1, 0)
        big = model.p2p_time(lay, 0, 1, 10_000_000)
        assert big - small == pytest.approx(0.08, rel=0.01)  # 10MB @ 1Gb/s

    def test_nic_share_slows_colocated(self, topo):
        params = CostParams()
        model = CollectiveCostModel(topo, params)
        solo = layout_of(model, topo, ["a1-1.alpha", "a1-2.alpha"])
        packed = layout_of(model, topo,
                           ["a1-1.alpha", "a1-1.alpha", "a1-2.alpha"])
        t_solo = model.p2p_time(solo, 0, 1, 1_000_000)
        t_packed = model.p2p_time(packed, 0, 2, 1_000_000)
        assert t_packed > t_solo

    def test_fixed_cost_switches_at_threshold(self, topo):
        params = CostParams(msg_fixed_s=5e-3, msg_fixed_small_s=1e-4,
                            eager_threshold_bytes=1000)
        model = CollectiveCostModel(topo, params)
        lay = layout_of(model, topo, ["a1-1.alpha", "a1-2.alpha"])
        small = model.p2p_time(lay, 0, 1, 100)
        large = model.p2p_time(lay, 0, 1, 2000)
        assert large - small > 4e-3

    def test_wan_extra_applies_cross_site_only(self, topo):
        params = CostParams(wan_extra_s=2e-3)
        model = CollectiveCostModel(topo, params)
        lan = layout_of(model, topo, ["a1-1.alpha", "a1-2.alpha"])
        wan = layout_of(model, topo, ["a1-1.alpha", "b1-1.beta"])
        assert model.p2p_time(wan, 0, 1, 0) - model.p2p_time(lan, 0, 1, 0) \
            == pytest.approx(2e-3 + (0.005 - 0.1 / 2 / 1000), rel=0.01)


class TestCollectiveFormulas:
    def test_barrier_grows_with_latency(self, model, topo):
        local = layout_of(model, topo, ["a1-1.alpha", "a1-2.alpha"])
        remote = layout_of(model, topo, ["a1-1.alpha", "g1-1.gamma"])
        assert (model.barrier_time(remote) > model.barrier_time(local))

    def test_bcast_rounds_logarithmic(self, model, topo):
        names8 = [f"a1-{i % 4 + 1}.alpha" for i in range(8)]
        names2 = names8[:2]
        t8 = model.bcast_time(layout_of(model, topo, names8), 8)
        t2 = model.bcast_time(layout_of(model, topo, names2), 8)
        # 3 rounds vs 1 round, same edge cost magnitude
        assert 2.0 < t8 / t2 < 4.5

    def test_allreduce_single_rank(self, model, topo):
        lay = layout_of(model, topo, ["a1-1.alpha"])
        assert model.allreduce_time(lay, 8) == pytest.approx(20e-6)

    def test_alltoall_scales_with_partner_count(self, model, topo):
        small = layout_of(model, topo, ["a1-1.alpha", "a1-2.alpha"])
        big = layout_of(model, topo,
                        [f"a1-{i + 1}.alpha" for i in range(4)] * 2)
        assert (model.alltoall_time(big, 100)
                > model.alltoall_time(small, 100))

    def test_gather_root_drains_messages(self, model, topo):
        lay = layout_of(model, topo, ["a1-1.alpha", "a1-2.alpha",
                                      "a1-3.alpha", "a1-4.alpha"])
        t = model.gather_time(lay, 1000)
        assert t > 3 * 20e-6

    def test_describe(self, model, topo):
        lay = layout_of(model, topo, ["a1-1.alpha", "b1-1.beta"])
        text = model.describe(lay)
        assert "alpha:1" in text and "beta:1" in text


class TestCrossValidation:
    """Closed forms must track the message-level engine within 2x."""

    @pytest.mark.parametrize("n", [2, 4, 5, 8])
    @pytest.mark.parametrize("collective", ["barrier", "allreduce", "alltoall"])
    def test_formula_vs_engine(self, topo, n, collective):
        sim = Simulator(seed=1)
        net = Network(sim, topo)  # noiseless latency
        hosts = topo.all_hosts()
        chosen = (hosts * ((n // len(hosts)) + 1))[:n]
        world = MPIWorld(sim, net, chosen, job_id=f"xv{n}{collective}")
        nbytes = 1000

        def prog(comm):
            start = comm.sim.now
            if collective == "barrier":
                yield from comm.barrier()
            elif collective == "allreduce":
                yield from comm.allreduce(1.0, op=SUM, size_bytes=nbytes)
            else:
                yield from comm.alltoall([comm.rank] * comm.size,
                                         size_bytes=nbytes)
            return comm.sim.now - start

        elapsed = max(world.run(prog))
        model = CollectiveCostModel(topo, CostParams(
            sw_overhead_s=net.sw_overhead_s))
        lay = model.layout(chosen)
        predicted = {
            "barrier": model.barrier_time(lay),
            "allreduce": model.allreduce_time(lay, nbytes),
            "alltoall": model.alltoall_time(lay, nbytes),
        }[collective]
        assert predicted == pytest.approx(elapsed, rel=1.0), (
            f"{collective} n={n}: engine {elapsed:.6f}s vs model "
            f"{predicted:.6f}s")
        # And strictly the same order of magnitude:
        assert 0.3 < predicted / elapsed < 3.0
