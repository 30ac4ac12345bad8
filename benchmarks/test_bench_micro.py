"""Micro-benchmarks of the simulator substrate itself.

These are engineering (not paper) numbers: they bound the cost of the
building blocks the experiments run on, and catch performance
regressions in the event loop, the strategies, the cost model and the
reservation protocol.
"""

import pytest

from repro.alloc import ReservedHost, build_plan, get_strategy
from repro.grid5000.builder import build_topology
from repro.middleware.jobs import JobRequest
from repro.mpi.costmodel import CollectiveCostModel, CostParams
from repro.sim import Simulator, Store
from tests.mpi.reference_kernel import ReferenceCostModel


def test_bench_event_loop_throughput(benchmark):
    """Schedule+process cost of one million timeout events."""

    def run():
        sim = Simulator()

        def ticker(sim, count):
            for _ in range(count):
                yield sim.timeout(1.0)

        for _ in range(10):
            sim.process(ticker(sim, 10_000))
        sim.run()
        return sim.events_processed

    events = benchmark(run)
    assert events >= 100_000


def test_bench_store_throughput(benchmark):
    """Mailbox put/get churn (the transport hot path)."""

    def run():
        sim = Simulator()
        box = Store(sim)

        def producer(sim, box):
            for i in range(20_000):
                yield box.put(i)

        def consumer(sim, box):
            total = 0
            for _ in range(20_000):
                item = yield box.get()
                total += item
            return total

        sim.process(producer(sim, box))
        proc = sim.process(consumer(sim, box))
        return sim.run_until_complete(proc)

    total = benchmark(run)
    assert total == sum(range(20_000))


@pytest.mark.parametrize("strategy", ["spread", "concentrate", "block"])
def test_bench_strategy_at_grid_scale(benchmark, strategy):
    """Distribute 600 processes over 350 hosts (the Figure 2/3 inner
    loop)."""
    topology = build_topology()
    slist = [ReservedHost(h, p_limit=h.cores)
             for h in topology.all_hosts()]

    def run():
        return build_plan(get_strategy(strategy), slist, n=600, r=1)

    plan = benchmark(run)
    assert plan.total_processes == 600


def test_bench_costmodel_alltoallv_600(benchmark):
    """One IS-iteration alltoallv evaluation over 600 ranks."""
    topology = build_topology()
    hosts = (topology.all_hosts() * 2)[:600]
    model = CollectiveCostModel(topology, CostParams(msg_fixed_s=3.5e-3))
    layout = model.layout(hosts)

    time_s = benchmark(lambda: model.alltoallv_time(layout, 1000))
    assert time_s > 0


def _grid_hosts(topology, p):
    """Deterministic multi-site host mixes at the paper's scales."""
    nancy = topology.hosts_in_site("nancy")
    lyon = topology.hosts_in_site("lyon")
    if p == 64:
        return [h for h in nancy[:32] for _ in range(2)]
    if p == 128:
        return [h for h in (nancy[:32] + lyon[:32]) for _ in range(2)]
    return (topology.all_hosts() * 2)[:p]


@pytest.mark.parametrize("p", [64, 128, 600])
@pytest.mark.parametrize("kernel", ["vector", "reference"])
def test_bench_collective_kernels(benchmark, p, kernel):
    """The full vectorised collective mix (barrier, binomial bcast,
    recursive-doubling allreduce, gather, ring halo) priced on one
    layout, both kernel paths, at p in {64, 128, 600}."""
    topology = build_topology()
    cls = ReferenceCostModel if kernel == "reference" else CollectiveCostModel
    model = cls(topology, CostParams())
    layout = model.layout(_grid_hosts(topology, p))

    def run():
        return (model.barrier_time(layout)
                + model.bcast_time(layout, 65536)
                + model.allreduce_time(layout, 4096)
                + model.gather_time(layout, 4096)
                + model.ring_exchange_time(layout, 8192))

    total = benchmark(run)
    assert total > 0
    if kernel == "vector":
        assert model.stats.p2p_calls == 0
        assert model.stats.p2p_edges_vectorized > 0


@pytest.mark.parametrize("p", [64, 128, 600])
def test_bench_layout_cache_hot_path(benchmark, p):
    """Repeated `layout()` for an already-seen plan shape (the greedy
    strategy inner loop) must be a memo hit plus a cheap clone."""
    topology = build_topology()
    model = CollectiveCostModel(topology, CostParams())
    hosts = _grid_hosts(topology, p)
    model.layout(hosts)  # prime the per-topology memo

    layout = benchmark(lambda: model.layout(hosts))
    assert layout.p == p
    assert model.stats.layout_cache_hits > 0
    assert model.stats.layout_builds == 1


def test_bench_full_submission(cluster, benchmark):
    """End-to-end p2pmpirun latency on the 350-peer overlay."""

    result = benchmark.pedantic(
        lambda: cluster.submit_and_run(
            JobRequest(n=300, strategy="spread", tag="micro")),
        rounds=3, iterations=1)
    assert result.ok
