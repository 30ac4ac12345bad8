"""Perf trajectory of the collective-cost kernels (DESIGN.md §11).

Times cell-throughput of the vector kernels of
:class:`~repro.mpi.costmodel.CollectiveCostModel` against the scalar
per-edge loops of ``tests/mpi/reference_kernel.py`` on the two campaign hot
paths — the fig4 crossover grid (p=128 layouts) and an
applatency-style grid (up to the paper's 600 ranks) — plus per-kernel
micro rates at p=600, and emits ``benchmarks/BENCH_kernels.json``.

Two-pass protocol so the artifact is CI-comparable:

* **counter pass** — each grid runs exactly once per path on its own
  fresh topology; the deterministic :class:`~repro.mpi.KernelStats`
  work counters (scalar p2p calls, matrix builds, layout builds,
  alltoallv rank vs combo evaluations) and the bit-exact checksum
  agreement are asserted hard, in fast mode too, and are what
  ``bench_trajectory.py`` compares against ``BENCH_baseline.json``;
* **timing pass** — warm repeat rounds produce cells/s and speedups;
  the >= 10x cell-throughput assertion is skipped under
  ``REPRO_BENCH_FAST=1`` (shared CI runners), where timing is
  informational only.
"""

import json
import time
from pathlib import Path

from benchmarks.conftest import emit, fast_mode
from repro.cluster import DEFAULT_COST_PARAMS
from repro.grid5000.builder import build_topology
from repro.mpi.costmodel import CollectiveCostModel
from tests.mpi.reference_kernel import ReferenceCostModel

OUT_PATH = Path(__file__).resolve().parent / "BENCH_kernels.json"

#: Message sizes straddling the eager threshold and the IS payload.
FIG4_SIZES = (1024, 8192, 65536, 524288)
APPLAT_SIZES = (1024, 65536)


def _model(kernel):
    """A cost model on a private topology (own layout/matrix memos), so
    each path pays for its own construction work."""
    cls = ReferenceCostModel if kernel == "reference" else CollectiveCostModel
    return cls(build_topology(), DEFAULT_COST_PARAMS)


def _plans(topo, grid):
    nancy = topo.hosts_in_site("nancy")
    lyon = topo.hosts_in_site("lyon")
    if grid == "fig4":
        return {
            "1x128": [h for h in nancy[:32] for _ in range(4)],
            "2x64": ([h for h in nancy[:16] for _ in range(4)]
                     + [h for h in lyon[:16] for _ in range(4)]),
        }
    # applatency: paper-scale site mixes up to 600 ranks (2 procs/host).
    return {
        "64@1site": [h for h in nancy[:32] for _ in range(2)],
        "128@2site": [h for h in (nancy[:32] + lyon[:32])
                      for _ in range(2)],
        "600@6site": (topo.all_hosts() * 2)[:600],
    }


def _price_cell(model, hosts, nbytes):
    """One grid cell: the collective mix an applatency/fig4 evaluation
    prices for a plan shape at one message size."""
    lay = model.layout(hosts)
    total = model.barrier_time(lay)
    total += model.allreduce_time(lay, 4096)
    total += model.bcast_time(lay, nbytes)
    total += model.gather_time(lay, 4096)
    total += model.ring_exchange_time(lay, nbytes)
    total += model.alltoall_time(lay, 4)
    total += model.alltoallv_time(lay, nbytes)
    total += model.alltoallv_transfer_time(lay, nbytes)
    return total


def _run_grid_once(model, plans, sizes):
    checksum = 0.0
    cells = 0
    for hosts in plans.values():
        for nbytes in sizes:
            checksum += _price_cell(model, hosts, nbytes)
            cells += 1
    return checksum, cells


def _time_grid(model, plans, sizes, rounds):
    start = time.perf_counter()
    for _ in range(rounds):
        _run_grid_once(model, plans, sizes)
    seconds = time.perf_counter() - start
    cells = rounds * sum(len(sizes) for _ in plans)
    return seconds, cells


def _grid_report(grid, sizes, timing_rounds):
    vec = _model("vector")
    ref = _model("reference")
    plans_v = _plans(vec.topology, grid)
    plans_r = _plans(ref.topology, grid)

    # Counter pass: exactly one traversal, deterministic stats.
    sum_v, cells = _run_grid_once(vec, plans_v, sizes)
    sum_r, _ = _run_grid_once(ref, plans_r, sizes)
    assert sum_v == sum_r, (
        f"{grid}: vector checksum {sum_v!r} != reference {sum_r!r}")
    stats_v = vec.stats.as_dict()
    stats_r = ref.stats.as_dict()
    assert stats_v["p2p_calls"] == 0
    assert stats_r["p2p_calls"] > 0
    # Every edge the reference prices scalar-ly is priced by a matrix
    # reduction on the vector path.
    assert stats_v["p2p_edges_vectorized"] == stats_r["p2p_calls"]
    assert stats_v["layout_builds"] == len(plans_v)
    assert stats_v["layout_cache_hits"] == cells - len(plans_v)
    assert 0 < stats_v["alltoallv_combo_evals"] < \
        stats_r["alltoallv_rank_evals"]

    # Timing pass: warm rounds (memos populated), informational in CI.
    sec_v, timed_cells = _time_grid(vec, plans_v, sizes, timing_rounds)
    sec_r, _ = _time_grid(ref, plans_r, sizes, timing_rounds)
    speedup = (sec_r / sec_v) if sec_v > 0 else float("inf")
    return {
        "cells": cells,
        "timing_rounds": timing_rounds,
        "checksum_equal": True,
        "p2p_calls_avoided": stats_r["p2p_calls"] - stats_v["p2p_calls"],
        "vector": {"stats": stats_v, "seconds": sec_v,
                   "cells_per_s": timed_cells / sec_v if sec_v else None},
        "reference": {"stats": stats_r, "seconds": sec_r,
                      "cells_per_s": timed_cells / sec_r if sec_r else None},
        "speedup": speedup,
    }


def _kernel_micro_report(reps):
    vec = _model("vector")
    ref = _model("reference")
    hosts_v = _plans(vec.topology, "applatency")["600@6site"]
    hosts_r = _plans(ref.topology, "applatency")["600@6site"]
    lay_v = vec.layout(hosts_v)
    lay_r = ref.layout(hosts_r)
    kernels = {
        "barrier": lambda m, l: m.barrier_time(l),
        "bcast": lambda m, l: m.bcast_time(l, 65536),
        "allreduce": lambda m, l: m.allreduce_time(l, 4096),
        "gather": lambda m, l: m.gather_time(l, 4096),
        "ring_exchange": lambda m, l: m.ring_exchange_time(l, 8192),
        "alltoallv": lambda m, l: m.alltoallv_time(l, 65536),
        "alltoallv_wire": lambda m, l: m.alltoallv_transfer_time(l, 65536),
    }
    out = {}
    for name, fn in kernels.items():
        assert fn(vec, lay_v) == fn(ref, lay_r), f"{name} drifted"
        rates = {}
        for label, model, lay in (("vector", vec, lay_v),
                                  ("reference", ref, lay_r)):
            start = time.perf_counter()
            for _ in range(reps):
                fn(model, lay)
            sec = time.perf_counter() - start
            rates[label] = reps / sec if sec > 0 else None
        speedup = (rates["vector"] / rates["reference"]
                   if rates["vector"] and rates["reference"] else None)
        out[name] = {"p": 600,
                     "vector_calls_per_s": rates["vector"],
                     "reference_calls_per_s": rates["reference"],
                     "speedup": speedup}
    return out


def test_kernel_perf_trajectory():
    fast = fast_mode()
    grid_rounds = 1 if fast else 5
    micro_reps = 1 if fast else 20

    report = {
        "schema": "bench-kernels/v1",
        "fast_mode": fast,
        "grids": {
            "fig4": _grid_report("fig4", FIG4_SIZES, grid_rounds),
            "applatency": _grid_report("applatency", APPLAT_SIZES,
                                       grid_rounds),
        },
        "kernels": _kernel_micro_report(micro_reps),
    }

    OUT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True)
                        + "\n")

    lines = []
    for grid, row in report["grids"].items():
        lines.append(
            f"{grid:<12} cells={row['cells']:>3} "
            f"vector={row['vector']['cells_per_s']:>10.1f} cells/s  "
            f"reference={row['reference']['cells_per_s']:>8.1f} cells/s  "
            f"speedup={row['speedup']:>6.1f}x  "
            f"p2p_avoided={row['p2p_calls_avoided']}")
    for name, row in report["kernels"].items():
        lines.append(
            f"  {name:<15} p=600 {row['vector_calls_per_s']:>10.1f}/s vs "
            f"{row['reference_calls_per_s']:>8.1f}/s  "
            f"({row['speedup']:.1f}x)")
    emit("kernel perf trajectory -> BENCH_kernels.json", "\n".join(lines))

    if not fast:
        # The ISSUE acceptance bar: an order of magnitude on the grid
        # hot path.  Timing-based, so local/slow-lane only.
        for grid, row in report["grids"].items():
            assert row["speedup"] >= 10.0, (
                f"{grid}: vector speedup {row['speedup']:.1f}x < 10x")
