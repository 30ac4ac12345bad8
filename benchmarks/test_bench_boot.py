"""Cost of one cluster boot (``mpiboot`` on every host, DESIGN.md §19).

Every campaign cell boots a fresh 350-host Grid'5000 overlay, so boot
time is paid once per cell.  The timed body is
``build_grid5000_cluster(seed=s, boot=False).boot()`` minus the build:
only ``boot()`` runs inside the timer.

Next to the time, the boot's work is counted and bounded: the
``Topology.host`` lookups (four per host: a REGISTER and its ACK each
look both ends up), the events processed and the processes started.
Under ``REPRO_BENCH_FAST=1`` the timed body runs once; the counts are
asserted in both modes.  ``benchmarks/BENCH_boot.json`` records these
numbers before and after the one-copy membership hand-off.
"""

from benchmarks.conftest import emit
from repro.cluster import build_grid5000_cluster
from tests.test_boot_outcome import boot_work

SEED = 0


def test_bench_boot_grid5000(benchmark):
    work = boot_work(SEED)
    hosts = work["hosts"]
    emit("grid5000 boot work (seed 0)",
         "\n".join(f"{key:>10}: {value}" for key, value in work.items()))
    assert work["host_calls"] <= 4 * hosts
    assert work["events"] <= 3502
    assert work["processes"] == 5 * hosts

    def setup():
        return (build_grid5000_cluster(seed=SEED, boot=False),), {}

    booted = benchmark.pedantic(lambda cluster: cluster.boot(), setup=setup,
                                rounds=10, iterations=1)
    assert len(booted.supernode.records) == hosts
