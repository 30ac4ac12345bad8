"""Campaign benchmark: one workload, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload coalloc-g5k --seed 0 --seconds 20 --trace 0

Each pass runs in a fresh interpreter with one thread
(``OMP_NUM_THREADS=1``), so the workload is a closed loop with one
cell in flight.  A pass runs every cell serially through
``run_sweep(spec, jobs=1, store=..., force=True)`` into an empty
scratch store, after ``gc.collect()`` and with no warm-up, so every
cell executes and process-wide caches are paid as a ``p2pmpirun run
--force`` user pays them.

``--trace 0``: ``SETUP_PROBES`` set-up probes (interpreter start,
imports, registry resolution and spec build, then exit), then timed
rounds, one fresh pass each under hash seeds 0, 1, 2, ..., until
``--seconds`` are used (at least ``MIN_ROUNDS``).  Every end-to-end
metric is a median over the rounds, so a burst of load from the
host's other tenants moves one round, not the result.  The times are
put at a fixed host speed with each pass's own host factor
(:class:`perfbench.child.HostProbe`), so the host's slower drift moves
the program and the reference unit together and cancels; the report
prints the raw times and the factor beside them.

``--trace 1``: one timed pass, then the traced pass (every cell again
under hash seed 1 with the outside-in tracer of
:mod:`perfbench.tracer` installed), which gives the per-layer metrics.

A cell fails if its sweep raises, if its record breaks a campaign
invariant, or if its canonical store line differs between any two
passes.  The last line of standard output is one JSON object.
Scratch files live under ``.perfbench/`` in the repository root; the
traced pass's per-cell spans are kept there as
``spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.child import REF_UNIT_S  # noqa: E402
from perfbench.tracer import LAYERS  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Set-up-only interpreter starts per ``--trace 0`` run; every timed
#: round adds one more sample to the ``setup_s`` median.
SETUP_PROBES = 2

#: A ``--trace 0`` run makes at least this many timed rounds, and more
#: while another one is expected to end within ``--seconds``.
MIN_ROUNDS = 3

#: No round starts that is expected to end later than this after the
#: run began; a run must end within 180 s.
RUN_LIMIT_S = 150.0

#: Per-child limit.
CHILD_TIMEOUT_S = 150.0

END_TO_END = (
    ("wall_s", "s"), ("cpu_s", "s"), ("cell_p50_s", "s"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("sim.events", "count"), ("sim.span_s", "s"), ("sim.self_s", "s"),
    ("sim.store_puts", "count"), ("sim.store_put_s", "s"),
    ("sim.store_gets", "count"), ("sim.store_get_s", "s"),
    ("sim.match_evals", "count"), ("sim.match_hit_ratio", "ratio"),
    ("sim.pending_getters_end", "count"), ("sim.stranded_items_end", "count"),
    ("net.sends", "count"), ("net.send_s", "s"), ("net.receives", "count"),
    ("net.path_metrics_calls", "count"),
    ("net.site_path_metrics_calls", "count"),
    ("net.span_s", "s"), ("net.self_s", "s"),
    ("overlay.merge_calls", "count"), ("overlay.merge_s", "s"),
    ("overlay.peers_offered", "count"), ("overlay.merge_new_ratio", "ratio"),
    ("overlay.cache_adds", "count"), ("overlay.peer_list_s", "s"),
    ("overlay.refreshes", "count"),
    ("overlay.span_s", "s"), ("overlay.self_s", "s"),
    ("alloc.distribute_calls", "count"), ("alloc.distribute_s", "s"),
    ("alloc.neighbor_map_calls", "count"), ("alloc.neighbor_map_s", "s"),
    ("alloc.moves_proposed", "count"),
    ("alloc.span_s", "s"), ("alloc.self_s", "s"),
    ("mpi.cost_calls", "count"), ("mpi.cost_s", "s"),
    ("mpi.p2p_edges_vectorized", "count"), ("mpi.layout_builds", "count"),
    ("mpi.pairwise_builds", "count"),
    ("mpi.span_s", "s"), ("mpi.self_s", "s"),
    ("middleware.try_admit_calls", "count"),
    ("middleware.admit_refused_ratio", "ratio"),
    ("middleware.reserves", "count"), ("middleware.submits", "count"),
    ("middleware.span_s", "s"), ("middleware.self_s", "s"),
    ("controlplane.loop_iters", "count"), ("controlplane.admit_jobs", "count"),
    ("controlplane.run_s", "s"),
    ("controlplane.span_s", "s"), ("controlplane.self_s", "s"),
    ("ft.migrations", "count"), ("ft.migrate_s", "s"),
    ("ft.recvs", "count"), ("ft.checkpoints", "count"),
    ("ft.copy_outs", "count"), ("ft.adoptions", "count"),
    ("ft.adopt_s", "s"),
    ("ft.span_s", "s"), ("ft.self_s", "s"),
    ("cluster.builds", "count"), ("cluster.build_s", "s"),
    ("cluster.span_s", "s"), ("cluster.self_s", "s"),
    ("engine.store_s", "s"), ("engine.hash_s", "s"),
    ("engine.span_s", "s"), ("engine.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.overhead_frac", "ratio"),
)


class BenchError(RuntimeError):
    """A run that cannot produce a result."""


def _child_env(hash_seed: int) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                            else []))
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED=str(hash_seed))
    return env


def run_child(mode: str, workload: str, seed: int, tiny: bool,
              scratch: Path, spans: Optional[Path] = None,
              hash_seed: int = 0) -> dict:
    """Run one pass in a fresh interpreter and return its JSON result."""
    out = scratch / f"{mode}-{time.monotonic_ns()}.json"
    argv = [sys.executable, "-m", "perfbench.child", mode, workload,
            str(seed), "1" if tiny else "0"]
    extra = [str(out)] + ([str(spans)] if spans is not None else [])
    spawned_at = time.monotonic()
    proc = subprocess.run(argv + [repr(spawned_at)] + extra, cwd=ROOT,
                          env=_child_env(hash_seed), timeout=CHILD_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"{mode} pass exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def _adjusted(passes: List[dict], key: str) -> float:
    """Median over ``passes`` of ``key`` at the reference host speed."""
    return statistics.median(p[key] / p["factor"] for p in passes)


def summarize(rounds: List[dict], probes: List[dict],
              traced: Optional[dict] = None) -> dict:
    """Fold the timed rounds (and the traced pass, if any) into counts,
    failures and the two metric sets."""
    passes = rounds + ([traced] if traced is not None else [])
    failed = []
    for number, cell in enumerate(rounds[0]["cells"]):
        problems: List[str] = []
        for other in passes:
            again = other["cells"][number]
            problems += [p for p in again["problems"] if p not in problems]
        if len({other["cells"][number]["digest"] for other in passes}) > 1:
            problems.append("store line differs between passes")
        if problems:
            failed.append((cell["spec"], cell["index"], cell["key"],
                           problems))
    elapsed = [(c["elapsed_s"], r["factor"]) for r in rounds
               for c in r["cells"] if c["elapsed_s"] is not None]
    starts = probes + rounds
    end_to_end = {
        "wall_s": _adjusted(rounds, "wall_s"),
        "cpu_s": _adjusted(rounds, "cpu_s"),
        "cell_p50_s": (statistics.median(e / f for e, f in elapsed)
                       if elapsed else 0.0),
        "setup_s": statistics.median(p["setup_s"] / p["setup_factor"]
                                     for p in starts),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    raw = {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "cell_p50_s": (statistics.median(e for e, _ in elapsed)
                       if elapsed else 0.0),
        "setup_s": statistics.median(p["setup_s"] for p in starts),
        "factor": statistics.median(r["factor"] for r in rounds),
    }
    per_layer = None
    if traced is not None:
        layers = dict(traced["trace"])
        layers["trace.wall_s"] = traced["wall_s"]
        layers["trace.overhead_frac"] = (
            _adjusted([traced], "cpu_s") / _adjusted(rounds[:1], "cpu_s")
            - 1.0)
        per_layer = {name: layers.get(name, 0) for name, _ in PER_LAYER}
    return {"attempted": len(rounds[0]["cells"]), "failed": failed,
            "rounds": len(rounds), "cells_timed": len(elapsed),
            "setup_samples": len(starts), "raw": raw,
            "end_to_end": end_to_end, "per_layer": per_layer,
            "errors": [e for p in passes for e in p["errors"]],
            "store_sha256": sorted({p["store_sha256"] for p in passes})}


def layer_table(per_layer: dict, wall_s: float) -> List[str]:
    """Layers by self time, hottest first, with their share of the
    traced pass's wall time."""
    rows = sorted(LAYERS, key=lambda k: -per_layer[f"{k}.self_s"])
    lines = [f"  {'layer':<13}{'self_s':>10}{'span_s':>10}{'share':>8}"]
    for layer in rows:
        self_s = per_layer[f"{layer}.self_s"]
        lines.append(f"  {layer:<13}{self_s:>10.4f}"
                     f"{per_layer[f'{layer}.span_s']:>10.4f}"
                     f"{self_s / wall_s if wall_s else 0.0:>8.1%}")
    return lines


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> dict:
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work))
    spans = work / f"spans-{workload}-{seed}.jsonl"
    began = time.monotonic()
    probes: List[dict] = []
    rounds: List[dict] = []
    traced = None
    try:
        if trace:
            rounds.append(run_child("timed", workload, seed, tiny, scratch))
            traced = run_child("traced", workload, seed, tiny, scratch,
                               spans=spans, hash_seed=1)
        else:
            probes = [run_child("setup", workload, seed, tiny, scratch)
                      for _ in range(SETUP_PROBES)]
            start = time.monotonic()
            while True:
                now = time.monotonic()
                per_round = (now - start) / max(1, len(rounds))
                if rounds and (now + per_round > began + RUN_LIMIT_S or (
                        len(rounds) >= MIN_ROUNDS
                        and now + per_round > start + seconds)):
                    break
                rounds.append(run_child("timed", workload, seed, tiny,
                                        scratch, hash_seed=len(rounds)))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    summary = summarize(rounds, probes, traced)
    summary.update(workload=workload, seed=seed, spans=str(spans))
    return summary


def report(summary: dict) -> List[str]:
    """Human-readable lines: every metric by name, with its unit."""
    e2e, attempted = summary["end_to_end"], summary["attempted"]
    nfail = len(summary["failed"])
    w = WORKLOADS[summary["workload"]]
    lines = [f"workload {w.name} (campaign {w.campaign}), seed "
             f"{summary['seed']}: {attempted} cells, serial, one in flight"]
    rounds = summary["rounds"]
    notes = {"wall_s": f"median of {rounds} rounds",
             "cpu_s": f"median of {rounds} rounds",
             "cell_p50_s": f"median of {summary['cells_timed']} cell runs",
             "setup_s": f"median of {summary['setup_samples']} starts",
             "peak_rss_mb": f"median of {rounds} rounds"}
    raw = summary["raw"]
    lines.append(f"  host factor {raw['factor']:.4f} (reference-unit time "
                 f"over {REF_UNIT_S} s, median of {rounds} rounds); the "
                 "times below are put at factor 1")
    for name, unit in END_TO_END:
        notes_ = ([f"raw {raw[name]:.4f} {unit}"] if name in raw else []
                  ) + [notes[name]]
        lines.append(f"  {name:<13}{e2e[name]:>12.4f} {unit}  "
                     f"({'; '.join(notes_)})")
    lines.append(f"  {'fail_frac':<13}{nfail / attempted:>12.4f} ratio"
                 f"  ({nfail} of {attempted} cells)")
    for sha in summary["store_sha256"]:
        lines.append(f"  store_sha256 {sha}")
    passes = rounds + (summary["per_layer"] is not None)
    lines.append(f"  every cell ran in {passes} passes under hash seeds "
                 f"0..{passes - 1}; its store lines must match")
    for spec, index, key, problems in summary["failed"]:
        lines.append(f"  FAILED {spec}[{index}] {key}: {'; '.join(problems)}")
    for error in summary["errors"]:
        lines.append(f"  ERROR {error}")
    if summary["per_layer"] is not None:
        per_layer = summary["per_layer"]
        lines.append(f"per-layer (traced pass, spans in {summary['spans']}):")
        lines.extend(layer_table(per_layer, per_layer["trace.wall_s"]))
        for name, unit in PER_LAYER:
            value = per_layer[name]
            text = (f"{value:d}" if isinstance(value, int)
                    else f"{value:.6g}")
            lines.append(f"  {name:<32}{text:>16} {unit}")
    return lines


def result_line(summary: dict) -> str:
    traced = summary["per_layer"] is not None
    table = PER_LAYER if traced else END_TO_END
    values = summary["per_layer"] if traced else summary["end_to_end"]
    return json.dumps({
        "correct": not summary["failed"],
        "attempted": summary["attempted"],
        "failed": len(summary["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in table},
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few cells on the small testbed (self-test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    try:
        summary = run(args.workload, args.seed, args.seconds,
                      bool(args.trace), args.tiny)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in report(summary):
        print(line)
    print(result_line(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
