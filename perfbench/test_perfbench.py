"""The benchmark's own tests, on tiny inputs (``--tiny``: a few cells on
the ``small`` testbed).  Run from the repository root with
``python -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import run as bench  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, check_record  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_every_metric_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(bench.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(trace):
    proc = _bench("--workload", "multiuser2-cp", "--seed", "0",
                  "--seconds", "1", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    table = bench.PER_LAYER if trace == "1" else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(table)
    text = "\n".join(lines[:-1])
    for name, unit in list(bench.END_TO_END) + [("fail_frac", "ratio")]:
        assert any(line.split()[:1] == [name] and f" {unit}" in line
                   for line in lines[:-1]), f"{name} [{unit}] not printed"
    assert "store_sha256" in text


def _tiny_sweep(workload: str, seed: int = 0):
    from repro.experiments.engine import run_sweep

    return [run_sweep(spec, jobs=1)
            for spec in WORKLOADS[workload].specs(seed, tiny=True)]


def test_uninstall_restores_every_wrapped_entry_point():
    tracer = Tracer().install()
    patches = list(tracer._patches)
    try:
        _tiny_sweep("coalloc-g5k")
    finally:
        tracer.uninstall()
    assert len(patches) > 30
    assert tracer.counts["sim.events"] > 0
    for owner, attr, original, own in patches:
        assert (attr in vars(owner)) == own, (owner, attr)
        if own:
            assert vars(owner)[attr] is original, (owner, attr)
    before = tracer._totals()
    _tiny_sweep("coalloc-g5k")
    assert tracer._totals() == before


def _traced_counts(tmp_path: Path, name: str) -> dict:
    scratch = tmp_path / name
    scratch.mkdir()
    result = bench.run_child("traced", "migration-churn", 3, True, scratch)
    return {k: v for k, v in result["trace"].items()
            if isinstance(v, int)}


def test_two_traced_runs_on_one_seed_give_identical_counters(tmp_path):
    first = _traced_counts(tmp_path, "a")
    assert first["sim.events"] > 0 and first["alloc.neighbor_map_calls"] > 0
    assert _traced_counts(tmp_path, "b") == first


def test_a_corrupted_record_raises_fail_frac():
    (sweep,) = _tiny_sweep("multiuser2-cp")
    record = sweep.cells[0].record()
    assert check_record("multiuser2", record) == []
    record["value"]["refused"] += 1
    problems = check_record("multiuser2", record)
    assert problems and "arrivals" in problems[0]

    def pass_result(problems):
        return {"setup_s": 0.1, "setup_factor": 1.0, "factor": 1.0,
                "wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 1.0,
                "errors": [], "store_sha256": "x",
                "cells": [{"sweep": 0, "spec": "s", "index": 0, "key": "k",
                           "elapsed_s": 0.5, "digest": "d",
                           "problems": problems}]}

    clean = bench.summarize([pass_result([]), pass_result([])], [])
    assert clean["failed"] == []
    bad = bench.summarize([pass_result([]), pass_result(problems)], [])
    assert len(bad["failed"]) == bad["attempted"] == 1
    rerun = pass_result([])
    rerun["cells"][0]["digest"] = "e"
    differs = bench.summarize([pass_result([]), rerun], [])
    assert differs["failed"][0][3] == ["store line differs between passes"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "coalloc-g5k", "--seed", "0",
                  "--seconds", "10", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
