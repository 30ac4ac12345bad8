"""Per-event cost of the DES kernel (DESIGN.md §21).

Two bodies, each timed on its own:

* the sleeper micro: ``SLEEPERS`` processes that each wait on one
  timeout.  Creation and the run are timed apart; the run processes
  three events per process (its start, its timeout, its exit);
* one grid5000 ``boot()`` (350 hosts, seed 0), the work every campaign
  cell pays before it places a process.

The event and process counts are asserted in both ``REPRO_BENCH_FAST``
modes: a cheaper kernel that runs the same events keeps them.
``benchmarks/BENCH_des.json`` records the times before and after the
lean hot path, for this layer and end to end.
"""

from benchmarks.conftest import emit
from repro.cluster import build_grid5000_cluster
from repro.sim import Simulator
from tests.test_boot_outcome import boot_work

SLEEPERS = 50_000
SEED = 0


def sleeper(sim):
    yield sim.timeout(1.0)


def start_sleepers() -> Simulator:
    sim = Simulator()
    for _ in range(SLEEPERS):
        sim.process(sleeper(sim))
    return sim


def test_bench_sleeper_creation(benchmark):
    sim = benchmark.pedantic(start_sleepers, rounds=5, iterations=1)
    assert len(sim._queue) == SLEEPERS


def test_bench_sleeper_run(benchmark):
    def setup():
        return (start_sleepers(),), {}

    def run(sim):
        sim.run()
        return sim

    sim = benchmark.pedantic(run, setup=setup, rounds=5, iterations=1)
    assert sim.events_processed == 3 * SLEEPERS
    assert sim.now == 1.0


def test_bench_grid5000_boot_events(benchmark):
    work = boot_work(SEED)
    emit("grid5000 boot work (seed 0)",
         "\n".join(f"{key:>10}: {value}" for key, value in work.items()))
    assert work["events"] == 3502
    assert work["processes"] == 5 * work["hosts"] == 1750

    def setup():
        return (build_grid5000_cluster(seed=SEED, boot=False),), {}

    def boot(cluster):
        cluster.boot()
        return cluster

    booted = benchmark.pedantic(boot, setup=setup, rounds=10, iterations=1)
    assert booted.sim.events_processed == 3502
