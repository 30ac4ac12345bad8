"""Engine campaign: fig2 + fig3 + fig4 through the sweep engine.

Demonstrates the three engine properties the refactor buys:

* fan-out: the campaign's 38 cells run across worker processes
  (``jobs=4``) instead of one long for-loop — measurably faster than
  the serial pass wherever more than one core exists;
* determinism: serial and parallel runs persist byte-identical
  result-store files (per-cell seeds derived from the master seed);
* replay: a second invocation executes zero cells and returns the
  stored campaign orders of magnitude faster.
"""

import os
import time

from repro.apps import EPBenchmark, ISBenchmark
from repro.experiments.applications import application_spec
from repro.experiments.coallocation import coallocation_spec
from repro.experiments.engine import ResultStore, run_sweep

from benchmarks.conftest import emit, fast_mode

SEED = 42


def campaign_specs():
    return [
        coallocation_spec(seed=SEED, strategies=("concentrate",),
                          name="fig2"),
        coallocation_spec(seed=SEED, strategies=("spread",), name="fig3"),
        application_spec(EPBenchmark("B"), seed=SEED),
        application_spec(ISBenchmark("B"), seed=SEED),
    ]


def run_campaign(jobs, store):
    return [run_sweep(spec, jobs=jobs, store=store)
            for spec in campaign_specs()]


def test_bench_engine_parallel(tmp_path, benchmark):
    serial_store = ResultStore(tmp_path / "serial")
    t0 = time.perf_counter()
    serial = run_campaign(1, serial_store)
    serial_s = time.perf_counter() - t0

    parallel_store = ResultStore(tmp_path / "parallel")
    parallel = benchmark.pedantic(
        lambda: run_campaign(4, parallel_store), rounds=1, iterations=1)
    parallel_s = sum(s.elapsed_s for s in parallel)

    t0 = time.perf_counter()
    replay = run_campaign(4, parallel_store)
    replay_s = time.perf_counter() - t0

    emit("Engine campaign fig2+fig3+fig4 (38 cells)",
         f"serial(jobs=1):   {serial_s:6.2f} s\n"
         f"parallel(jobs=4): {parallel_s:6.2f} s on {os.cpu_count()} cpus\n"
         f"cached replay:    {replay_s:6.2f} s")

    # Every sweep computed once, fully.
    for sweep in serial + parallel:
        assert sweep.executed == sweep.spec.cell_count()
    # Serial and parallel stores are byte-identical per experiment.
    for spec in campaign_specs():
        assert (serial_store.path_for(spec).read_bytes()
                == parallel_store.path_for(spec).read_bytes())
    # The replay came entirely from the store, much faster than a run.
    assert all(s.executed == 0 for s in replay)
    assert sum(s.cached for s in replay) == 38
    # Wall-clock ratios are meaningless on shared CI runners.
    if not fast_mode():
        assert replay_s < serial_s / 10
        # Fan-out only wins wall-clock when there is hardware to fan onto.
        if (os.cpu_count() or 1) >= 4:
            assert parallel_s < serial_s
