"""The campaign orchestrator: a whole experiment grid, end to end.

PR 4 built the distribution *primitives* — ``--shard K/N`` slices any
sweep grid deterministically, workers checkpoint into ``.partial``
stores, and :mod:`repro.experiments.aggregate` reassembles shard
outputs byte-exactly — but a human still glued them together: launch N
shells, watch them, relaunch the one that died, run ``merge`` at the
end.  The Grid'5000 platform lesson the paper's campaign rode on is
that large campaigns only finish when dispatch, failure recovery and
result collection are automated.  This module is that automation
(DESIGN.md §12), behind ``p2pmpirun orchestrate``:

* **shard planning** — the target experiment's registered spec builder
  (:mod:`repro.experiments.registry`) yields the campaign's grids; the
  orchestrator partitions them into ``--shards`` round-robin slices
  and knows every cell key each shard owes.
* **dispatch** — a pool of at most ``--workers`` concurrent shard
  workers, launched through a pluggable :class:`ExecutionStrategy`.
  The default :class:`LocalProcessStrategy` spawns ``python -m
  repro.cli run <exp> --shard k/n`` subprocesses; a remote strategy
  (SSH, a batch queue) only has to implement launch/poll/terminate.
* **progress tracking** — workers run with ``REPRO_CHECKPOINT_EVERY=1``
  and a per-shard heartbeat file (:class:`repro.experiments.engine.
  Heartbeat`); the orchestrator tails heartbeat mtimes, so a *slow*
  shard (still beating) is distinguished from a *stalled* one (no
  beat for ``--stall-timeout`` seconds), which is terminated and
  treated as crashed.
* **retry handling** — a crashed, stalled or incomplete shard is
  relaunched against a fresh worker with exponential backoff, up to
  ``--retries`` times; the shard's checkpoint survives in its scratch
  store, so a retry resumes instead of recomputing.  An exhausted
  budget turns into a per-shard failure report, never a hang.
* **continuous merge** — each shard that lands is immediately folded
  into the campaign store (:func:`repro.experiments.aggregate.
  merge_into`); the merge that completes a grid promotes the canonical
  file, byte-identical to an unsharded ``--jobs 1`` run.
* **cleanup** — on success the shard scratch directories (and the
  promoted stores' ``.partial`` leftovers) are removed; ``--keep-
  partial`` keeps them for inspection.

Failure injection for tests and CI (``--inject-kill N``) rides the
same heartbeat channel: the first shard's first worker kills itself —
``os._exit(137)``, no flush, exactly a SIGKILL — after N cells, and
the campaign must still converge to the byte-identical canonical
store.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, List, Optional, Sequence, Set,
                    Tuple)

from repro.experiments.aggregate import MergeConflictError, merge_into
from repro.experiments.engine import ExperimentSpec, ResultStore, run_sweep

__all__ = ["ExecutionStrategy", "LocalProcessStrategy",
           "OrchestrationReport", "Orchestrator", "ShardState",
           "WorkerTask", "worker_flags"]


def worker_flags(experiment: str, args: Any) -> Tuple[str, ...]:
    """The sweep-shape flags a shard worker needs to rebuild the grid.

    Forwarding is driven by the experiment's registered ``cli_axes``:
    a worker must see exactly the flags that shaped the orchestrator's
    specs — same demands, same cluster, same seed — or it would compute
    cells of a different content hash and the merge would refuse them.
    """
    from repro.experiments import registry

    axes = registry.get(experiment).cli_axes
    flags: List[str] = ["--seed", str(args.seed)]
    if "cluster" in axes:
        flags += ["--cluster", args.cluster]
    if "demands" in axes and args.demands is not None:
        flags += ["--demands", args.demands]
    if "ratios" in axes and getattr(args, "ratios", None) is not None:
        flags += ["--ratios", args.ratios]
    if "churn" in axes:
        flags += ["--users", str(args.users),
                  "--horizon", str(args.horizon)]
        if args.failures is not None:
            flags += ["--failures", args.failures]
    if "nas_class" in axes:
        flags += ["--class", args.nas_class]
    if "controlplane" in axes:
        if getattr(args, "tenants", None) is not None:
            flags += ["--tenants", args.tenants]
        if getattr(args, "rates", None) is not None:
            flags += ["--rates", args.rates]
    if "alloc" in axes:
        flags += ["--alloc", args.alloc]
    if "topozoo" in axes:
        if getattr(args, "family", None) is not None:
            flags += ["--family", args.family]
        if getattr(args, "sites", None) is not None:
            flags += ["--sites", args.sites]
    if "migration" in axes:
        if getattr(args, "modes", None) is not None:
            flags += ["--modes", args.modes]
    return tuple(flags)


@dataclass(frozen=True)
class WorkerTask:
    """Everything an :class:`ExecutionStrategy` needs to run one shard
    attempt."""

    experiment: str
    shard: Tuple[int, int]
    scratch: Path
    heartbeat: Path
    log: Path
    flags: Tuple[str, ...] = ()
    #: chaos injection: the worker self-kills after this many cells.
    kill_after_cells: Optional[int] = None
    #: per-cell checkpointing, so a killed worker loses at most one cell.
    checkpoint_every: int = 1


class ExecutionStrategy:
    """Where shard workers actually run.

    The orchestrator only ever calls these three methods, so remote
    dispatch (SSH, OAR/Slurm submission — the Grid'5000 shape) slots in
    by implementing them; everything above (progress, retries, merging)
    is transport-agnostic.
    """

    def launch(self, task: WorkerTask) -> Any:
        """Start a worker for ``task``; returns an opaque handle."""
        raise NotImplementedError

    def poll(self, handle: Any) -> Optional[int]:
        """Exit code if the worker finished, ``None`` while running."""
        raise NotImplementedError

    def terminate(self, handle: Any) -> None:
        """Hard-stop a worker (stall recovery); must not raise if the
        worker already died."""
        raise NotImplementedError


class LocalProcessStrategy(ExecutionStrategy):
    """Shard workers as local ``python -m repro.cli run`` subprocesses.

    Each worker writes its cells into the task's private scratch store
    (``--out``), beacons through ``REPRO_HEARTBEAT_FILE`` and flushes
    its checkpoint every ``REPRO_CHECKPOINT_EVERY`` cells; stdout and
    stderr append to the task's log file, which the failure report
    points at.
    """

    def launch(self, task: WorkerTask) -> subprocess.Popen:
        index, count = task.shard
        argv = [sys.executable, "-m", "repro.cli", "run", task.experiment,
                "--shard", f"{index}/{count}", "--out", str(task.scratch),
                "--jobs", "1", *task.flags]
        env = dict(os.environ)
        # The worker must resolve the same repro tree as the
        # orchestrator, wherever the CWD is.
        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        prior = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + prior if prior else "")
        env["REPRO_HEARTBEAT_FILE"] = str(task.heartbeat)
        env["REPRO_CHECKPOINT_EVERY"] = str(task.checkpoint_every)
        if task.kill_after_cells is not None:
            env["REPRO_KILL_AFTER_CELLS"] = str(task.kill_after_cells)
        else:
            env.pop("REPRO_KILL_AFTER_CELLS", None)
        task.log.parent.mkdir(parents=True, exist_ok=True)
        with task.log.open("ab") as log:
            return subprocess.Popen(argv, stdout=log, stderr=log, env=env)

    def poll(self, handle: subprocess.Popen) -> Optional[int]:
        return handle.poll()

    def terminate(self, handle: subprocess.Popen) -> None:
        try:
            handle.kill()
            handle.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass


@dataclass
class ShardState:
    """The orchestrator's book-keeping for one shard of the campaign."""

    index: int
    shard: Tuple[int, int]
    scratch: Path
    heartbeat: Path
    #: per spec, the cell keys this shard owes (specs fully cached in
    #: the campaign store are excluded up front).
    expected: List[Tuple[ExperimentSpec, Set[str]]] = field(
        default_factory=list)
    status: str = "pending"  # pending | running | done | failed
    attempts: int = 0
    handle: Any = None
    launched_at: float = 0.0
    not_before: float = 0.0
    failure: Optional[str] = None
    logs: List[Path] = field(default_factory=list)
    last_done: int = -1

    @property
    def cell_count(self) -> int:
        return sum(len(keys) for _, keys in self.expected)


@dataclass
class OrchestrationReport:
    """What :meth:`Orchestrator.run` returns (and renders)."""

    experiment: str
    shards: int
    total_cells: int
    completed_shards: int = 0
    retries: int = 0
    #: shard index -> failure reason, for shards whose budget ran out.
    failed: Dict[int, str] = field(default_factory=dict)
    canonical: List[Path] = field(default_factory=list)
    ok: bool = False


class Orchestrator:
    """Owns one campaign: dispatch, progress, retries, merge, cleanup.

    Parameters
    ----------
    experiment:
        Registered experiment name (must be shardable).
    specs:
        The campaign's sweep grids for the CLI flags in force — the
        registry's spec builder output.  Shard planning, completion
        accounting and canonical promotion all derive from these.
    out:
        The campaign store root; also hosts the ``.orchestrate/``
        scratch tree while the campaign runs.
    worker_flags:
        Extra CLI flags every worker gets (see :func:`worker_flags`).
    workers:
        Maximum concurrently running shard workers.
    shards:
        Grid partitions (defaults to ``workers``): more shards than
        workers queue and backfill as workers free up.
    retries:
        Relaunch budget per shard beyond the first attempt.
    stall_timeout_s:
        A running worker whose heartbeat has not beaten for this long
        is terminated and counted as crashed.
    backoff_base_s / backoff_cap_s:
        Exponential relaunch backoff: ``base * 2**(attempt-1)`` capped.
    keep_partial:
        Keep scratch dirs and ``.partial`` files after success.
    inject_kill_cells:
        Chaos hook: the first shard's first attempt self-kills after
        this many cells (CI's crash-recovery smoke).
    strategy:
        Execution transport; default :class:`LocalProcessStrategy`.
    echo:
        Progress sink (``print``); tests capture it.
    """

    def __init__(self, experiment: str, specs: Sequence[ExperimentSpec],
                 out: os.PathLike, *,
                 worker_flags: Sequence[str] = (),
                 workers: int = 2,
                 shards: Optional[int] = None,
                 retries: int = 2,
                 stall_timeout_s: float = 300.0,
                 poll_interval_s: float = 0.5,
                 backoff_base_s: float = 0.5,
                 backoff_cap_s: float = 30.0,
                 keep_partial: bool = False,
                 inject_kill_cells: Optional[int] = None,
                 strategy: Optional[ExecutionStrategy] = None,
                 echo: Callable[[str], None] = print) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if shards is None:
            shards = workers
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if not specs:
            raise ValueError(f"experiment {experiment!r} has no sweeps "
                             "to orchestrate")
        self.experiment = experiment
        self.specs = list(specs)
        self.out = Path(out)
        self.store = ResultStore(self.out)
        self.worker_flags = tuple(worker_flags)
        self.workers = workers
        self.shards = shards
        self.retries = retries
        self.stall_timeout_s = stall_timeout_s
        self.poll_interval_s = poll_interval_s
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.keep_partial = keep_partial
        self.inject_kill_cells = inject_kill_cells
        self.strategy = strategy or LocalProcessStrategy()
        self.echo = echo
        self.scratch_root = self.out / ".orchestrate"

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def _cached_keys(self, spec: ExperimentSpec) -> Set[str]:
        """Cell keys the campaign store's pool already holds for
        ``spec`` (a ``.partial`` is merge input, never a cache)."""
        return set(self.store.load(spec))

    def _plan(self) -> List[ShardState]:
        """Shard states with per-spec owed keys, minus cached cells."""
        cached = {id(spec): self._cached_keys(spec) for spec in self.specs}
        states = []
        for k in range(1, self.shards + 1):
            scratch = self.scratch_root / f"shard-{k}"
            st = ShardState(index=k, shard=(k, self.shards),
                            scratch=scratch,
                            heartbeat=scratch / "heartbeat.json")
            for spec in self.specs:
                keys = {c.key for c in spec.shard_cells((k, self.shards))}
                keys -= cached[id(spec)]
                if keys:
                    st.expected.append((spec, keys))
            if not st.expected:
                st.status = "done"
            states.append(st)
        return states

    def _seed_scratch(self, st: ShardState) -> None:
        """Copy the campaign store's pooled cells of the shard's sweeps
        into its scratch.

        A retried attempt resumes from the scratch pool its predecessor
        filled; a *fresh* campaign resume (orchestrate re-run over a
        half-done ``--out``) starts workers against the cells already
        landed, so they skip them instead of recomputing.
        """
        scratch_store = ResultStore(st.scratch)
        for spec, _keys in st.expected:
            scratch_store.absorb(self.store,
                                 spec.pool_addresses(spec.cells()).values())

    # ------------------------------------------------------------------
    # per-shard lifecycle
    # ------------------------------------------------------------------
    def _launch(self, st: ShardState, kill_shard: Optional[int]) -> None:
        st.attempts += 1
        st.scratch.mkdir(parents=True, exist_ok=True)
        self._seed_scratch(st)
        inject = (self.inject_kill_cells
                  if (st.index == kill_shard and st.attempts == 1)
                  else None)
        log = st.scratch / f"worker-{st.index}.{st.attempts}.log"
        st.logs.append(log)
        task = WorkerTask(experiment=self.experiment, shard=st.shard,
                          scratch=st.scratch, heartbeat=st.heartbeat,
                          log=log, flags=self.worker_flags,
                          kill_after_cells=inject)
        st.handle = self.strategy.launch(task)
        st.launched_at = time.monotonic()
        st.status = "running"
        note = " [kill injected]" if inject is not None else ""
        self.echo(f"[orchestrate] shard {st.index}/{self.shards}: "
                  f"attempt {st.attempts} launched "
                  f"({st.cell_count} cells){note}")

    def _heartbeat_age(self, st: ShardState) -> float:
        """Seconds since the worker last proved liveness."""
        try:
            beat = st.heartbeat.stat().st_mtime
        except OSError:
            return time.monotonic() - st.launched_at
        # mtime is wall-clock; take the smaller of "since launch" and
        # "since last beat" so clock skew can only make us patient.
        return min(time.monotonic() - st.launched_at,
                   max(0.0, time.time() - beat))

    def _shard_complete(self, st: ShardState) -> bool:
        """Did the scratch store land every cell this shard owes?"""
        scratch_store = ResultStore(st.scratch)
        for spec, keys in st.expected:
            if not keys <= set(scratch_store.load(spec)):
                return False
        return True

    def _merge_shard(self, st: ShardState) -> None:
        """Fold the landed shard into the campaign store right away (the
        merge also brings its pooled cells)."""
        scratch_store = ResultStore(st.scratch)
        for spec, _keys in st.expected:
            partial = scratch_store.partial_path_for(spec)
            if not partial.exists():
                continue  # every owed cell was served from seeded cache
            merged, path = merge_into(self.out, [partial])
            if merged.hash != spec.content_hash():
                raise MergeConflictError(
                    f"shard {st.index} wrote hash {merged.hash[:12]} for "
                    f"spec {spec.name} [{spec.content_hash()[:12]}]")
            state = ("canonical" if merged.complete
                     else f"{len(merged.missing_indices)} cell(s) missing")
            self.echo(f"[orchestrate] merged shard {st.index}: "
                      f"{path.name} ({state})")

    def _fail_attempt(self, st: ShardState, reason: str) -> int:
        """Retry with backoff, or exhaust into a failure; returns the
        number of retries this consumed (0 or 1)."""
        if st.attempts > self.retries:
            st.status = "failed"
            log = st.logs[-1] if st.logs else None
            st.failure = reason + (f" (log: {log})" if log else "")
            self.echo(f"[orchestrate] shard {st.index}/{self.shards}: "
                      f"FAILED after {st.attempts} attempt(s): {reason}")
            return 0
        delay = min(self.backoff_base_s * (2 ** (st.attempts - 1)),
                    self.backoff_cap_s)
        st.status = "pending"
        st.not_before = time.monotonic() + delay
        self.echo(f"[orchestrate] shard {st.index}/{self.shards}: "
                  f"{reason}; retrying in {delay:.1f} s "
                  f"(attempt {st.attempts}/{self.retries + 1} used)")
        return 1

    def _poll_shard(self, st: ShardState, report: OrchestrationReport) -> None:
        rc = self.strategy.poll(st.handle)
        if rc is None:
            if self._heartbeat_age(st) > self.stall_timeout_s:
                self.strategy.terminate(st.handle)
                report.retries += self._fail_attempt(
                    st, f"stalled (no heartbeat for "
                        f"{self.stall_timeout_s:g} s); worker terminated")
            else:
                self._echo_progress(st)
            return
        st.handle = None
        if rc == 0 and self._shard_complete(st):
            try:
                self._merge_shard(st)
            except MergeConflictError as exc:
                # A conflict is data divergence, not a flaky worker:
                # retrying the same shard would re-refuse.  Surface it.
                st.status = "failed"
                st.failure = f"merge conflict: {exc}"
                self.echo(f"[orchestrate] shard {st.index}/{self.shards}: "
                          f"FAILED: {st.failure}")
                return
            st.status = "done"
            report.completed_shards += 1
            self.echo(f"[orchestrate] shard {st.index}/{self.shards}: "
                      f"complete ({st.cell_count} cells)")
            return
        reason = (f"worker exited {rc}" if rc != 0
                  else "worker exited 0 with an incomplete shard")
        report.retries += self._fail_attempt(st, reason)

    def _echo_progress(self, st: ShardState) -> None:
        """One line per newly-executed cell count (tailed heartbeat)."""
        try:
            import json

            done = json.loads(st.heartbeat.read_text())["done"]
        except (OSError, ValueError, KeyError):
            return
        if done != st.last_done:
            st.last_done = done
            self.echo(f"[orchestrate] shard {st.index}/{self.shards}: "
                      f"{done} cell(s) executed "
                      f"(attempt {st.attempts})")

    def _tick_sleep(self, states: List[ShardState]) -> float:
        """Sleep budget for one poll tick.

        The poll interval is a *ceiling*, not a fixed cadence: a
        pending shard whose retry-backoff deadline (``not_before``)
        expires sooner gets the loop woken at that deadline, so a short
        backoff is never stretched to the poll interval — and,
        symmetrically, one shard's long backoff never delays polling
        (and thus stall detection) for the shards still running,
        because the ceiling still applies.
        """
        wake = time.monotonic() + self.poll_interval_s
        for st in states:
            if st.status == "pending" and st.not_before < wake:
                wake = st.not_before
        return max(0.0, min(self.poll_interval_s,
                            wake - time.monotonic()))

    # ------------------------------------------------------------------
    # the campaign
    # ------------------------------------------------------------------
    def run(self) -> OrchestrationReport:
        total = sum(spec.cell_count() for spec in self.specs)
        report = OrchestrationReport(experiment=self.experiment,
                                     shards=self.shards, total_cells=total)
        states = self._plan()
        kill_shard = self._kill_shard(states)
        pre_done = sum(1 for st in states if st.status == "done")
        if pre_done:
            report.completed_shards += pre_done
        owed = sum(st.cell_count for st in states)
        self.echo(f"[orchestrate] {self.experiment}: {total} cells over "
                  f"{len(self.specs)} sweep(s), {self.shards} shard(s), "
                  f"{self.workers} worker(s); {total - owed} cell(s) "
                  f"already in {self.out}")

        while True:
            now = time.monotonic()
            running = [st for st in states if st.status == "running"]
            for st in states:
                if (st.status == "pending" and len(running) < self.workers
                        and now >= st.not_before):
                    self._launch(st, kill_shard)
                    running.append(st)
            for st in list(running):
                self._poll_shard(st, report)
            if all(st.status in ("done", "failed") for st in states):
                break
            time.sleep(self._tick_sleep(states))

        report.failed = {st.index: st.failure or "unknown failure"
                         for st in states if st.status == "failed"}
        for spec in self.specs:
            # A sweep whose cells were all pooled before (by `run` or
            # by another sweep sharing them) gives no shard anything to
            # merge: assemble its view here, executing nothing.
            if (not self.store.path_for(spec).exists()
                    and self._cached_keys(spec)
                    >= {c.key for c in spec.cells()}):
                run_sweep(spec, store=self.store)
        report.canonical = [self.store.path_for(spec)
                            for spec in self.specs]
        missing = [p for p in report.canonical if not p.exists()]
        report.ok = not report.failed and not missing
        self._render_outcome(report, missing)
        if report.ok and not self.keep_partial:
            self._cleanup()
        return report

    def _kill_shard(self, states: List[ShardState]) -> Optional[int]:
        """The injection target: the first shard that owes any cells."""
        if self.inject_kill_cells is None:
            return None
        for st in sorted(states, key=lambda s: s.index):
            if st.cell_count:
                return st.index
        return None

    def _render_outcome(self, report: OrchestrationReport,
                        missing: List[Path]) -> None:
        if report.ok:
            self.echo(f"[orchestrate] campaign complete: "
                      f"{report.total_cells} cells, "
                      f"{report.completed_shards}/{report.shards} shards, "
                      f"retries: {report.retries}")
            for path in report.canonical:
                self.echo(f"[orchestrate]   canonical: {path}")
            return
        self.echo(f"[orchestrate] campaign FAILED "
                  f"({len(report.failed)} shard(s) failed, "
                  f"retries: {report.retries})")
        for index in sorted(report.failed):
            self.echo(f"[orchestrate]   shard {index}: "
                      f"{report.failed[index]}")
        for path in missing:
            self.echo(f"[orchestrate]   incomplete store: {path.name}")

    def _cleanup(self) -> None:
        """Success-path cleanup: scratch tree + promoted ``.partial``s."""
        removed = 0
        for spec in self.specs:
            partial = self.store.partial_path_for(spec)
            if partial.exists():
                partial.unlink()
                removed += 1
        if self.scratch_root.exists():
            shutil.rmtree(self.scratch_root, ignore_errors=True)
        note = f" and {removed} stale .partial file(s)" if removed else ""
        self.echo(f"[orchestrate] cleaned up {self.scratch_root}{note}")
