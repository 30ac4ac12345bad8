"""One pass of one workload, in the fresh interpreter it runs in.

``python -m perfbench.child MODE WORKLOAD SEED TINY SPAWNED_AT OUT
[SPANS]``, started by :mod:`perfbench.run`, which reads the JSON it
writes to ``OUT``.  ``SPAWNED_AT`` is the parent's ``time.monotonic()``
just before the spawn (the clock is shared between processes), so
``setup_s`` runs from interpreter start to the first cell's start:
imports, registry resolution and spec build.

Modes:

* ``setup`` — stop there and report ``setup_s`` only;
* ``timed`` — run every cell serially through ``run_sweep(spec,
  jobs=1, store=..., force=True)`` into an empty scratch store beside
  ``OUT``, so every cell executes (as under ``--force``) and the
  canonical store is written as a ``--out`` run writes it;
* ``traced`` — the same pass with :class:`perfbench.tracer.Tracer`
  installed; per-cell spans go to ``SPANS``.

Both running modes report one digest per canonical cell line, every
record invariant broken and the digest of the store files.

Every mode also samples the host's speed with :class:`HostProbe`: a
fixed pure-Python reference unit, run ``PRE_UNITS`` times right after
set-up and ``UNITS_PER_CELL`` times after each cell.  The mean unit
time over ``REF_UNIT_S`` is the host factor of the process; the
reference units' own time is left out of the pass's wall and CPU time.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import resource
import sys
import time
from pathlib import Path
from typing import List

#: Reference units run right after set-up, before the pass.
PRE_UNITS = 5

#: Reference units run after each cell.
UNITS_PER_CELL = 3

#: Time of one reference unit on the host the bounds were set on, in
#: its fast state (a 2-vCPU shared sandbox, Intel Xeon 2.1 GHz, Python
#: 3.11).  It only sets the scale of the host-adjusted times.
REF_UNIT_S = 0.0050


def reference_unit() -> int:
    """A fixed piece of pure-Python work: heap and dict churn, the kind
    of work the DES does."""
    heap, counts = [], {}
    for i in range(6000):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        counts[i % 257] = counts.get(i % 257, 0) + 1
    while heap:
        heapq.heappop(heap)
    return len(counts)


class HostProbe:
    """Samples how fast the host runs fixed work, between the cells of a
    pass, so that the pass's times can be put at a fixed host speed."""

    def __init__(self) -> None:
        self.unit_s: List[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def sample(self, units: int) -> None:
        # The collector stays off so the program's heap does not bill
        # the reference units for its collections.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(units):
                wall0, cpu0 = time.perf_counter(), time.process_time()
                reference_unit()
                wall = time.perf_counter() - wall0
                self.unit_s.append(wall)
                self.wall_s += wall
                self.cpu_s += time.process_time() - cpu0
        finally:
            if enabled:
                gc.enable()

    def factor(self, first: int = 0, last: int = None) -> float:
        """Mean unit time over ``REF_UNIT_S`` for samples
        ``[first:last]``: 1.0 at the reference speed, 1.4 on a host
        40 % slower."""
        units = self.unit_s[first:last]
        return sum(units) / len(units) / REF_UNIT_S


def _run(mode: str, workload: str, seed: int, tiny: bool,
         spawned_at: float, out: Path, spans: Path = None) -> dict:
    from perfbench.workloads import WORKLOADS, check_record
    from repro.experiments.engine import (ResultStore, encode_store_line,
                                          run_sweep)

    bench = WORKLOADS[workload]
    specs = bench.specs(seed, tiny)
    result = {"setup_s": time.monotonic() - spawned_at}
    probe = HostProbe()
    probe.sample(PRE_UNITS)
    result["setup_factor"] = probe.factor()
    if mode == "setup":
        return result

    tracer = None
    if mode == "traced":
        from perfbench.tracer import Tracer
        tracer = Tracer().install()

    def hook(res) -> None:
        if tracer is not None:
            tracer.end_cell(res.index, res.key, res.elapsed_s)
        probe.sample(UNITS_PER_CELL)

    store = ResultStore(out.parent / f"store-{out.stem}")
    sweeps, errors = [], []
    gc.collect()
    probe_wall0, probe_cpu0 = probe.wall_s, probe.cpu_s
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for spec in specs:
        try:
            sweeps.append((spec, run_sweep(spec, jobs=1, store=store,
                                           force=True, progress=hook)))
        except Exception as exc:  # a raising cell fails its whole sweep
            sweeps.append((spec, None))
            errors.append(f"{spec.name}: {type(exc).__name__}: {exc}")
    result["wall_s"] = (time.perf_counter() - wall0
                        - (probe.wall_s - probe_wall0))
    result["cpu_s"] = (time.process_time() - cpu0
                       - (probe.cpu_s - probe_cpu0))
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["factor"] = probe.factor()
    if tracer is not None:
        tracer.uninstall()

    digest = hashlib.sha256()
    cells = []
    for number, (spec, sweep) in enumerate(sweeps):
        if sweep is None:
            cells.extend({"sweep": number, "spec": spec.name,
                          "index": c.index, "key": c.key, "elapsed_s": None,
                          "digest": None, "problems": ["sweep raised"]}
                         for c in spec.cells())
            continue
        digest.update(store.path_for(spec).read_bytes())
        for cell in sweep.cells:
            record = cell.record()
            line = encode_store_line(record).encode("utf-8")
            cells.append({
                "sweep": number, "spec": spec.name, "index": cell.index,
                "key": cell.key, "elapsed_s": cell.elapsed_s,
                "digest": hashlib.sha256(line).hexdigest(),
                "problems": check_record(bench.campaign, record)})
    result.update(cells=cells, errors=errors,
                  store_sha256=digest.hexdigest())
    if tracer is not None:
        result["trace"] = tracer.metrics()
        if spans is not None:
            with spans.open("w", encoding="utf-8") as fh:
                for cell in tracer.cells:
                    fh.write(json.dumps(cell, sort_keys=True) + "\n")
    return result


def main(argv) -> int:
    mode, workload, seed, tiny, spawned_at, out = argv[:6]
    spans = Path(argv[6]) if len(argv) > 6 else None
    out = Path(out)
    result = _run(mode, workload, int(seed), tiny == "1",
                  float(spawned_at), out, spans)
    out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
