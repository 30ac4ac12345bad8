"""Cost of one multi-tenant round on the virtual-time control plane.

The timed body is one ``run_multi_tenant`` round on the Grid'5000
testbed: 80 tenants submitting two 4-process ``spread`` jobs each at
0.5 jobs/s, the most loaded cell of the ``multiuser2-cp`` benchmark
workload.  Nothing else runs inside the timer: the cluster is built
once, without a boot, and its gatekeepers are reused (a round releases
every hold it takes).

Next to the time, the round's work is counted and pinned: the loop
turns (``VirtualTimeLoop._run_once`` calls) and the
``Gatekeeper.try_admit`` calls, both as recorded before the control
plane was slimmed down (DESIGN.md §13) — a faster loop must not take a
different path.  Under ``REPRO_BENCH_FAST=1`` the timed body runs once;
the counts and the ledger identity are asserted in both modes.
``benchmarks/BENCH_controlplane.json`` records the numbers before and
after.
"""

from benchmarks.conftest import emit
from repro.cluster import build_grid5000_cluster
from repro.middleware.controlplane import VirtualTimeLoop, run_multi_tenant

ROUND = dict(tenants=80, rate_hz=0.5, strategy_name="spread", seed=0)
LOOP_TURNS = 82546
TRY_ADMITS = 40862


def grid5000_plane():
    cluster = build_grid5000_cluster(seed=0, boot=False)
    gatekeepers = {name: mpd.gatekeeper
                   for name, mpd in cluster.mpds.items()}
    return cluster.topology, gatekeepers, cluster.default_submitter


def round_work(topology, gatekeepers, anchor):
    """Run one round counting loop turns and ``try_admit`` calls (an
    instance attribute shadows each method while it runs)."""
    counts = {"loop_turns": 0, "try_admits": 0}
    run_once = VirtualTimeLoop._run_once

    def counting_run_once(loop):
        counts["loop_turns"] += 1
        return run_once(loop)

    def counting(admit):
        def try_admit(key, submitter):
            counts["try_admits"] += 1
            return admit(key, submitter)
        return try_admit

    VirtualTimeLoop._run_once = counting_run_once
    for gk in gatekeepers.values():
        gk.try_admit = counting(gk.try_admit)
    try:
        result = run_multi_tenant(topology, gatekeepers, anchor, **ROUND)
    finally:
        VirtualTimeLoop._run_once = run_once
        for gk in gatekeepers.values():
            del gk.try_admit
    return result, counts


def test_bench_controlplane_round(benchmark):
    plane = grid5000_plane()
    counted, work = round_work(*plane)
    emit("grid5000 control-plane round work (80 tenants, rate 0.5, spread)",
         "\n".join(f"{key:>10}: {value}" for key, value in work.items()))
    assert counted["admitted"] + counted["refused"] == counted["arrivals"]
    assert counted["arrivals"] == 2 * ROUND["tenants"]
    assert counted["refused"] > 0  # the round is contended
    assert work == {"loop_turns": LOOP_TURNS, "try_admits": TRY_ADMITS}

    result = benchmark.pedantic(run_multi_tenant, args=plane, kwargs=ROUND,
                                rounds=5, iterations=1)
    assert result["admitted"] + result["refused"] == result["arrivals"]
    assert result == counted
