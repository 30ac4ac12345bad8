"""The unified experiment engine: declarative sweeps, parallel
execution, and an on-disk result store.

Every experiment in this repository is a *sweep*: a grid of cells
spanned by named parameter axes (strategy x demand x application x
replication ...), each cell producing a small JSON-able record.  The
paper itself is one big sweep over Grid'5000, and the lesson of that
platform's tooling is that campaigns need a reusable runner with
persisted, replayable results — not one hand-rolled for-loop per
figure.  This module provides exactly three pieces (see DESIGN.md §6):

* :class:`ExperimentSpec` — the declarative description: named axes,
  a module-level *cell runner*, a picklable
  :class:`~repro.cluster.ClusterSpec`, and a master seed;
* :class:`SweepRunner` — executes the cell grid serially, fanned out
  over ``concurrent.futures.ProcessPoolExecutor`` workers, or inline
  against a caller-supplied shared cluster (the legacy mode the paper
  figures use);
* :class:`ResultStore` — persists cell results as JSONL keyed by a
  content hash of (spec, seed, code-relevant config), so re-running a
  sweep skips already-computed cells and ``force=True`` invalidates.

Determinism
-----------
In per-cell mode every cell builds its own cluster from
``spec.cluster.build(cell.seed)`` where ``cell.seed`` is derived as a
stable hash of ``(master_seed, cell_key)``.  Cells therefore share no
state, which makes serial and parallel executions of the same spec
*bit-identical* — the determinism test in
``tests/experiments/test_engine.py`` compares the stored bytes.
"""

from __future__ import annotations

import gc
import hashlib
import inspect
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

from repro.cluster import ClusterSpec, P2PMPICluster
from repro.sim.rng import stable_hash64

__all__ = ["Cell", "CellContext", "CellResult", "ExperimentSpec",
           "Heartbeat", "ResultStore", "SweepResult", "SweepRunner",
           "demand_cost_key", "derive_cell_seed", "encode_store_line",
           "make_spec", "parse_shard", "resolve_jobs", "run_sweep",
           "store_basename", "validate_shard"]

#: Bump when the stored cell format — or the meaning of stored values —
#: changes; part of the content hash, so old store files are
#: transparently recomputed rather than misread.  2: plan-dependent WAN
#: contention in the cost model (DESIGN.md §10) changed every modelled
#: execution time under an unchanged spec.
SCHEMA_VERSION = 2


def derive_cell_seed(master_seed: int, cell_key: str) -> int:
    """Per-cell seed: stable hash of the master seed and the cell key.

    Platform- and process-stable (SHA-256 based), so serial and
    parallel runs — and runs on different machines — agree bit for bit.
    """
    return stable_hash64(f"cell:{master_seed}:{cell_key}") % (2 ** 32)


def encode_store_line(record: Mapping) -> str:
    """The one store-line encoding (sorted keys, default separators).

    Every writer — :meth:`ResultStore.save`,
    :meth:`ResultStore.append_partial`, and the merge layer in
    :mod:`repro.experiments.aggregate` — must use this, or the
    byte-identity contract between unsharded runs and merged shards
    breaks.
    """
    return json.dumps(record, sort_keys=True)


def store_basename(name: str, content_hash: str) -> str:
    """Canonical store file name for a (spec name, content hash)."""
    return f"{name}-{content_hash[:12]}.jsonl"


def resolve_jobs(jobs: int) -> int:
    """Worker count for a ``--jobs`` value; ``0`` auto-sizes the pool.

    The auto size is ``os.cpu_count()`` (1 if the platform cannot
    tell), matching the ROADMAP "adaptive jobs" direction: campaign
    scripts say ``--jobs 0`` and get whatever the machine has.
    """
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = auto-size from CPU count)")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def validate_shard(shard: Tuple[int, int]) -> Tuple[int, int]:
    """Check a ``(index, count)`` shard designator; returns it intact."""
    try:
        index, count = (int(shard[0]), int(shard[1]))
    except (TypeError, ValueError, IndexError):
        raise ValueError(f"shard must be an (index, count) pair, got {shard!r}")
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    if not 1 <= index <= count:
        raise ValueError(
            f"shard index must be in 1..{count}, got {index}")
    return index, count


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse a ``K/N`` shard designator (1-based), e.g. ``2/3``."""
    head, sep, tail = text.partition("/")
    if not sep:
        raise ValueError(f"shard must look like K/N, got {text!r}")
    try:
        shard = (int(head), int(tail))
    except ValueError:
        raise ValueError(f"shard must look like K/N, got {text!r}")
    return validate_shard(shard)


def demand_cost_key(cell: "Cell") -> float:
    """The standard :attr:`ExperimentSpec.cost_key`: a cell's demand.

    Every paper grid's wall-clock is dominated by its largest ``n``
    cells (fig4's n=512 dwarfs n=32), so scheduling by descending
    demand keeps pool workers busy instead of tail-stalling on the
    expensive cells that a row-major submission order leaves for last.
    """
    params = cell.param_dict()
    return float(params.get("n", 0))


def _canon(value: Any) -> Any:
    """Canonical JSON-able form of spec metadata for content hashing.

    Plain scalars and containers pass through; arbitrary objects (e.g.
    an :class:`~repro.apps.base.Application` model carried in spec
    meta) are flattened to class name + constructor-relevant state so
    the hash is stable across processes (unlike ``repr`` addresses).
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, Mapping):
        return {str(k): _canon(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_canon(v) for v in value)
    state = getattr(value, "__dict__", None)
    if state is None:
        slots = getattr(type(value), "__slots__", None)
        if slots is not None:
            state = {s: getattr(value, s) for s in slots if hasattr(value, s)}
    cls = type(value)
    return {"__class__": f"{cls.__module__}.{cls.__qualname__}",
            "state": _canon(state) if state else None}


@dataclass(frozen=True)
class Cell:
    """One point of the sweep grid."""

    index: int
    key: str
    params: Tuple[Tuple[str, Any], ...]
    seed: int

    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)


@dataclass
class CellContext:
    """What a cell runner receives.

    ``cluster`` is lazy: shared-cluster sweeps inject a live instance,
    per-cell sweeps build a private one from ``cluster_spec`` and the
    cell seed on first access.  Runners that build custom clusters
    (e.g. the overbooking ablation varies the middleware config per
    cell) use ``cluster_spec``/``seed`` directly and never touch it.
    """

    spec: "ExperimentSpec"
    cell: Cell
    _cluster: Optional[P2PMPICluster] = None

    @property
    def params(self) -> Dict[str, Any]:
        return self.cell.param_dict()

    @property
    def seed(self) -> int:
        return self.cell.seed

    @property
    def meta(self) -> Dict[str, Any]:
        return self.spec.meta

    @property
    def cluster_spec(self) -> ClusterSpec:
        return self.spec.cluster

    @property
    def cluster(self) -> P2PMPICluster:
        if self._cluster is None:
            self._cluster = self.spec.cluster.build(seed=self.cell.seed)
        return self._cluster


#: A cell runner: module-level function (picklable by reference) taking
#: a context and returning a JSON-serialisable mapping.
CellRunner = Callable[[CellContext], Mapping]


@dataclass
class ExperimentSpec:
    """Declarative sweep description: axes -> cell grid.

    Attributes
    ----------
    name:
        Campaign-unique name; prefixes the store file.
    axes:
        Ordered ``(axis_name, values)`` pairs.  Cells enumerate in
        row-major order (first axis slowest-varying), which is also the
        execution order of serial and shared-cluster runs.
    runner:
        The cell function.  Must be module level so it pickles by
        reference into pool workers.
    cluster:
        Recipe each cell builds its private cluster from.
    master_seed:
        Seed every cell seed derives from.
    meta:
        Extra constants the runner reads (apps, sample counts...);
        hashed into the store key via :func:`_canon`.
    shared_cluster:
        Cells mutate one shared cluster and must run serially in order
        (the legacy figure mode).  Cached all-or-nothing, since
        skipping a cell would change the state later cells observe.
    fixed_seed:
        Every cell uses ``master_seed`` itself instead of a derived
        per-cell seed (legacy parity for the ablation drivers).
    cost_key:
        Optional per-cell cost estimate (module-level callable, e.g.
        :func:`demand_cost_key`) used by pool runs to submit expensive
        cells first.  Pure scheduling hint: it is deliberately *not*
        part of :meth:`to_jsonable`/:meth:`content_hash`, and it never
        changes cell seeds, grid order, or stored bytes — the
        canonical file is sorted by cell index at save time whatever
        the execution order was.
    """

    name: str
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    runner: CellRunner
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    master_seed: int = 0
    meta: Dict[str, Any] = field(default_factory=dict)
    shared_cluster: bool = False
    fixed_seed: bool = False
    cost_key: Optional[Callable[["Cell"], float]] = None

    # ------------------------------------------------------------------
    # grid
    # ------------------------------------------------------------------
    @property
    def axis_names(self) -> List[str]:
        return [name for name, _ in self.axes]

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(len(values) for _, values in self.axes)

    def cell_count(self) -> int:
        total = 1
        for n in self.shape:
            total *= n
        return total

    @staticmethod
    def cell_key(params: Sequence[Tuple[str, Any]]) -> str:
        return ",".join(f"{k}={v!r}" for k, v in params)

    def cells(self) -> List[Cell]:
        """The full grid in row-major (declaration) order."""
        grids: List[List[Tuple[str, Any]]] = [[]]
        for axis, values in self.axes:
            grids = [prefix + [(axis, v)] for prefix in grids for v in values]
        out = []
        for index, params in enumerate(grids):
            key = self.cell_key(params)
            seed = (self.master_seed if self.fixed_seed
                    else derive_cell_seed(self.master_seed, key))
            out.append(Cell(index=index, key=key, params=tuple(params),
                            seed=seed))
        return out

    def shard_cells(self, shard: Tuple[int, int]) -> List[Cell]:
        """Deterministic partition of the grid: shard ``(k, n)`` keeps
        the cells whose index is ``k-1 (mod n)``.

        Round-robin over the canonical grid order, so shards are
        disjoint, their union is the full grid, and the expensive tail
        of a sorted axis (fig4's largest ``n`` cells) interleaves
        across shards instead of landing on the last one.  Sharding is
        *not* part of the content hash: every shard of a spec shares
        one store key and one per-cell seed schedule, which is what
        lets :mod:`repro.experiments.aggregate` reassemble shard
        outputs into the unsharded canonical file byte for byte.
        """
        index, count = validate_shard(shard)
        return [c for c in self.cells() if c.index % count == index - 1]

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def to_jsonable(self) -> Dict[str, Any]:
        """Everything that defines the sweep's results.

        The runner is identified by qualified name *and* a hash of its
        source, so editing a cell runner's body invalidates cached
        sweeps instead of silently replaying pre-fix results.
        """
        runner = self.runner
        try:
            src = inspect.getsource(runner)
            runner_src = hashlib.sha256(src.encode("utf-8")).hexdigest()
        except (OSError, TypeError):
            runner_src = None
        return {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "axes": _canon([[name, list(values)]
                            for name, values in self.axes]),
            "runner": f"{runner.__module__}.{runner.__qualname__}",
            "runner_src": runner_src,
            "cluster": self.cluster.fingerprint(),
            "master_seed": self.master_seed,
            "meta": _canon(self.meta),
            "shared_cluster": self.shared_cluster,
            "fixed_seed": self.fixed_seed,
        }

    def content_hash(self) -> str:
        """SHA-256 of the canonical spec JSON — the store key."""
        blob = json.dumps(self.to_jsonable(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def make_spec(name: str, axes: Mapping[str, Iterable[Any]],
              runner: CellRunner, **kwargs: Any) -> ExperimentSpec:
    """Convenience constructor taking axes as an (ordered) mapping."""
    frozen = tuple((axis, tuple(values)) for axis, values in axes.items())
    return ExperimentSpec(name=name, axes=frozen, runner=runner, **kwargs)


@dataclass
class CellResult:
    """One computed (or cache-recovered) cell."""

    index: int
    key: str
    params: Dict[str, Any]
    seed: int
    value: Dict[str, Any]
    cached: bool = False
    elapsed_s: float = 0.0

    def record(self) -> Dict[str, Any]:
        """The persisted (timing-free, hence deterministic) form."""
        return {"kind": "cell", "index": self.index, "key": self.key,
                "params": self.params, "seed": self.seed,
                "value": self.value}


@dataclass
class SweepResult:
    """All cells of one sweep, in canonical grid order."""

    spec: ExperimentSpec
    cells: List[CellResult]
    executed: int = 0
    cached: int = 0
    elapsed_s: float = 0.0
    #: ``(index, count)`` when this run covered one shard of the grid.
    shard: Optional[Tuple[int, int]] = None

    def values(self) -> List[Dict[str, Any]]:
        return [c.value for c in self.cells]

    def value(self, **params: Any) -> Dict[str, Any]:
        """The value of the single cell matching all given params."""
        matches = [c for c in self.cells
                   if all(c.params.get(k) == v for k, v in params.items())]
        if len(matches) != 1:
            raise KeyError(f"{len(matches)} cells match {params!r}")
        return matches[0].value

    def select(self, **params: Any) -> List[CellResult]:
        """All cells matching the given axis values, grid-ordered."""
        return [c for c in self.cells
                if all(c.params.get(k) == v for k, v in params.items())]

    def summary(self) -> str:
        shard = (f" [shard {self.shard[0]}/{self.shard[1]}]"
                 if self.shard else "")
        return (f"sweep {self.spec.name}{shard}: {len(self.cells)} cells "
                f"({self.executed} executed, {self.cached} cached) "
                f"in {self.elapsed_s:.2f} s")


class ResultStore:
    """JSONL persistence for sweep results, keyed by spec content hash.

    One file per (spec-name, hash): a header line describing the spec
    followed by one line per cell in canonical grid order.  Files are
    written atomically (tmp + rename) with sorted keys, so two runs of
    the same spec — serial or parallel — produce byte-identical files.

    Alongside the canonical file the runner checkpoints completed cells
    into a ``.partial`` sibling (same header, cells in completion
    order) every few cells, so a killed campaign resumes from the last
    checkpoint instead of recomputing the sweep.  The partial file is
    promoted into the canonical one — and removed — when the sweep
    completes.
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)

    def path_for(self, spec: ExperimentSpec) -> Path:
        return self.root / store_basename(spec.name, spec.content_hash())

    def partial_path_for(self, spec: ExperimentSpec) -> Path:
        return self.path_for(spec).with_suffix(".jsonl.partial")

    def load(self, spec: ExperimentSpec) -> Dict[str, CellResult]:
        """Previously stored cells for this exact spec (``{}`` if none).

        A header hash mismatch (stale schema, edited file) is treated
        as a cache miss, never an error.
        """
        return self._read_cells(self.path_for(spec), spec)

    def load_partial(self, spec: ExperimentSpec) -> Dict[str, CellResult]:
        """Checkpointed cells of an interrupted run (``{}`` if none).

        A torn line (the process died mid-write) only drops that cell;
        every fully-written checkpoint line survives — including lines
        a later resumed run appended after the tear
        (:meth:`append_partial` seals torn tails with a newline).
        """
        return self._read_cells(self.partial_path_for(spec), spec)

    def _read_cells(self, path: Path,
                    spec: ExperimentSpec) -> Dict[str, CellResult]:
        if not path.exists():
            return {}
        want = spec.content_hash()
        out: Dict[str, CellResult] = {}
        try:
            with path.open("r", encoding="utf-8") as fh:
                header = json.loads(fh.readline())
                if (header.get("kind") != "sweep-header"
                        or header.get("hash") != want):
                    return {}
                for line in fh:
                    try:
                        rec = json.loads(line)
                    except ValueError:
                        continue  # torn line of a killed writer
                    if rec.get("kind") != "cell":
                        continue
                    out[rec["key"]] = CellResult(
                        index=rec["index"], key=rec["key"],
                        params=rec["params"], seed=rec["seed"],
                        value=rec["value"], cached=True)
        except (OSError, ValueError, KeyError):
            return {}
        return out

    def append_partial(self, spec: ExperimentSpec,
                       results: Sequence[CellResult]) -> Path:
        """Checkpoint completed cells (appends; header on first write).

        If the file ends mid-line (a previous writer died), a newline
        seals the torn fragment into its own — skippable — line first,
        so new records never merge into it.
        """
        path = self.partial_path_for(spec)
        self.root.mkdir(parents=True, exist_ok=True)
        fresh = not path.exists()
        if not fresh:
            with path.open("rb") as fh:
                fh.seek(0, os.SEEK_END)
                if fh.tell() > 0:
                    fh.seek(-1, os.SEEK_END)
                    torn = fh.read(1) != b"\n"
                else:
                    fresh = True
                    torn = False
            if torn:
                with path.open("a", encoding="utf-8") as fh:
                    fh.write("\n")
        with path.open("a", encoding="utf-8") as fh:
            if fresh:
                header = {"kind": "sweep-header",
                          "hash": spec.content_hash(),
                          "spec": spec.to_jsonable()}
                fh.write(encode_store_line(header) + "\n")
            for res in results:
                fh.write(encode_store_line(res.record()) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        return path

    def save(self, spec: ExperimentSpec, results: Sequence[CellResult]) -> Path:
        """Persist a complete sweep atomically, in canonical order.

        Promotion point: any ``.partial`` checkpoint is superseded by
        the canonical file and removed.
        """
        path = self.path_for(spec)
        self.root.mkdir(parents=True, exist_ok=True)
        header = {"kind": "sweep-header", "hash": spec.content_hash(),
                  "spec": spec.to_jsonable()}
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write(encode_store_line(header) + "\n")
            for res in sorted(results, key=lambda r: r.index):
                fh.write(encode_store_line(res.record()) + "\n")
        tmp.replace(path)
        self.clear_partial(spec)
        return path

    def clear_partial(self, spec: ExperimentSpec) -> bool:
        """Drop the checkpoint file; True if one existed."""
        partial = self.partial_path_for(spec)
        if partial.exists():
            partial.unlink()
            return True
        return False

    def invalidate(self, spec: ExperimentSpec) -> bool:
        """Drop the stored sweep (``--force``); True if a file existed."""
        self.clear_partial(spec)
        path = self.path_for(spec)
        if path.exists():
            path.unlink()
            return True
        return False

    def entries(self) -> List[Dict[str, Any]]:
        """Headers of every stored sweep under the root."""
        out = []
        for path in sorted(self.root.glob("*.jsonl")):
            try:
                with path.open("r", encoding="utf-8") as fh:
                    header = json.loads(fh.readline())
            except (OSError, ValueError):
                continue
            if header.get("kind") == "sweep-header":
                out.append({"path": str(path), "hash": header["hash"],
                            "spec": header["spec"]})
        return out


class Heartbeat:
    """Per-worker progress beacon for the orchestrator (DESIGN.md §12).

    A worker process installs one as the runner's progress hook; every
    completed cell rewrites ``path`` (atomically, tmp + rename) with a
    tiny JSON record ``{"done": N, "last_key": ...}``.  The orchestrator
    tails the file's mtime to distinguish a *slow* shard from a *stalled*
    one — a worker grinding through expensive cells keeps touching its
    heartbeat, a hung or dead one stops.

    ``kill_after`` is the chaos hook behind ``orchestrate
    --inject-kill``: after that many cells the process dies with
    ``os._exit(137)`` — no atexit, no flush, exactly like a SIGKILL'd
    worker — *after* the heartbeat write, so the orchestrator's view
    stays consistent with the checkpoint the cells already landed in.
    The counter is cumulative across every sweep the process runs, so
    multi-sweep campaigns (commaware, applatency) can die between
    sweeps too.
    """

    _env_instance: Optional["Heartbeat"] = None

    def __init__(self, path: os.PathLike,
                 kill_after: Optional[int] = None) -> None:
        self.path = Path(path)
        self.kill_after = kill_after
        self.done = 0

    def __call__(self, result: "CellResult") -> None:
        self.done += 1
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(
            {"done": self.done, "last_key": result.key}, sort_keys=True),
            encoding="utf-8")
        tmp.replace(self.path)
        if self.kill_after is not None and self.done >= self.kill_after:
            os._exit(137)

    @classmethod
    def from_env(cls) -> Optional["Heartbeat"]:
        """The process-wide heartbeat configured by the orchestrator.

        Reads ``REPRO_HEARTBEAT_FILE`` (the beacon path) and
        ``REPRO_KILL_AFTER_CELLS`` (the injection counter); returns
        ``None`` when unset — runs outside an orchestrated worker pay
        nothing.  One instance per process: the cumulative ``done``
        counter must survive across the several sweeps a campaign
        worker executes.
        """
        path = os.environ.get("REPRO_HEARTBEAT_FILE")
        if not path:
            return None
        if cls._env_instance is None or str(cls._env_instance.path) != path:
            kill = os.environ.get("REPRO_KILL_AFTER_CELLS")
            cls._env_instance = cls(
                path, kill_after=int(kill) if kill else None)
        return cls._env_instance


#: Serial sweeps running in this process; only the outermost freezes.
#: Module-level because ``gc.freeze`` itself is process-wide.
_serial_sweeps = 0


@contextmanager
def _frozen_heap() -> Iterator[None]:
    """Freeze every object that predates the outermost serial sweep.

    A finished cell leaves cyclic garbage behind (processes, event
    callbacks and generator frames refer to each other), and CPython's
    count-based collector runs too rarely to free one cell's cluster
    before the next one is built.  :func:`_execute_cell` therefore
    collects after every cell; with the older heap frozen, each of
    those collections scans only the objects the sweep itself created.
    """
    global _serial_sweeps
    if _serial_sweeps == 0:
        gc.collect()
        gc.freeze()
    _serial_sweeps += 1
    try:
        yield
    finally:
        _serial_sweeps -= 1
        if _serial_sweeps == 0:
            gc.unfreeze()


def _freeze_worker_heap() -> None:
    """Pool initializer: the worker's per-cell collections then skip
    the heap it started with (see :func:`_frozen_heap`)."""
    gc.collect()
    gc.freeze()


def _execute_cell(spec: ExperimentSpec, cell: Cell) -> CellResult:
    """Run one cell in the current process (also the pool entry point).

    The cell's time includes the collection that frees its cluster.
    """
    t0 = time.perf_counter()
    # No local keeps the context, whose lazy cluster must die here too.
    value = dict(spec.runner(CellContext(spec=spec, cell=cell)))
    gc.collect()
    return CellResult(index=cell.index, key=cell.key,
                      params=cell.param_dict(), seed=cell.seed, value=value,
                      elapsed_s=time.perf_counter() - t0)


class SweepRunner:
    """Executes an :class:`ExperimentSpec` and reconciles the store.

    Parameters
    ----------
    spec:
        What to run.
    jobs:
        Worker processes for per-cell sweeps (1 = in-process serial).
        Ignored (forced serial) for shared-cluster sweeps.
    store:
        Optional :class:`ResultStore`; cached cells are skipped.
    force:
        Invalidate the stored sweep and recompute everything.
    cluster:
        Explicit live cluster to run every cell against, in grid
        order.  This is the legacy figure mode: the caller owns the
        cluster, execution is serial, and nothing is cached (a live
        simulator's state is not replayable from a store file).
    checkpoint_every:
        Flush completed cells to the store's ``.partial`` file every
        this many cells (per-cell sweeps with a store only), so a
        killed campaign resumes from the checkpoint.  ``None`` (the
        default) reads ``REPRO_CHECKPOINT_EVERY`` from the environment
        — the orchestrator's channel for forcing per-cell flushes on
        its workers — falling back to 8.  The canonical file at sweep
        end stays byte-identical regardless of the checkpoint cadence.
    progress:
        Optional per-cell hook called after each *executed* cell (and
        its checkpoint flush): cache hits never fire it.  ``None``
        resolves :meth:`Heartbeat.from_env`, so orchestrated workers
        beacon progress without any plumbing through the driver
        modules.
    shard:
        ``(index, count)`` 1-based shard designator (the CLI's
        ``--shard K/N``): run only this shard's slice of the grid (see
        :meth:`ExperimentSpec.shard_cells`).  A sharded run never
        writes the canonical file — its computed cells all land in the
        store's ``.partial`` checkpoint, the merge input
        :mod:`repro.experiments.aggregate` reassembles campaigns from.
        Incompatible with shared-cluster specs (a stateful sweep
        cannot be partitioned) and with an explicit ``cluster``.
    """

    def __init__(self, spec: ExperimentSpec, *, jobs: int = 1,
                 store: Optional[ResultStore] = None, force: bool = False,
                 cluster: Optional[P2PMPICluster] = None,
                 checkpoint_every: Optional[int] = None,
                 shard: Optional[Tuple[int, int]] = None,
                 progress: Optional[Callable[[CellResult], None]] = None,
                 ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if checkpoint_every is None:
            checkpoint_every = int(os.environ.get(
                "REPRO_CHECKPOINT_EVERY", "8"))
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if cluster is not None and (store is not None or force):
            raise ValueError(
                "store/force cannot be combined with an explicit cluster: "
                "a live simulator's state is not replayable from a store")
        if shard is not None:
            shard = validate_shard(shard)
            if spec.shared_cluster:
                raise ValueError(
                    "shard cannot partition a shared-cluster sweep: later "
                    "cells observe the state earlier cells left behind")
            if cluster is not None:
                raise ValueError(
                    "shard cannot be combined with an explicit cluster")
            if force:
                # invalidate() unlinks the whole store — including the
                # .partial file other shards of this spec accumulated
                # into.  There is no per-shard invalidation; recompute
                # by deleting the store files or re-running unsharded.
                raise ValueError(
                    "force cannot be combined with shard: invalidation "
                    "would destroy cells other shards checkpointed into "
                    "the same store")
        self.spec = spec
        self.jobs = jobs
        self.store = store
        self.force = force
        self.cluster = cluster
        self.checkpoint_every = checkpoint_every
        self.shard = shard
        self.progress = (progress if progress is not None
                         else Heartbeat.from_env())
        self._pending_checkpoint: List[CellResult] = []

    # ------------------------------------------------------------------
    def run(self) -> SweepResult:
        t0 = time.perf_counter()
        if self.cluster is not None:
            cells = self.spec.cells()
            results = self._run_inline(cells, self.cluster)
            return SweepResult(self.spec, results, executed=len(results),
                               elapsed_s=time.perf_counter() - t0)

        cells = (self.spec.shard_cells(self.shard) if self.shard
                 else self.spec.cells())
        cached, resumed = self._load_cache(cells)
        todo = [c for c in cells if c.key not in cached]
        if self.spec.shared_cluster:
            computed = (self._run_shared(cells) if todo else [])
            if computed:
                cached = {}
        elif self.jobs > 1 and len(todo) > 1:
            computed = self._run_pool(todo)
        else:
            computed = self._run_serial(todo)

        by_key = dict(cached)
        by_key.update({r.key: r for r in computed})
        results = [by_key[c.key] for c in cells]
        if (self.store is not None and self.shard is None
                and (computed or resumed)):
            # `resumed` promotes a checkpoint-only sweep to canonical
            # even when this invocation had nothing left to execute.
            # Sharded runs never promote: their slice is complete but
            # the sweep is not — computed cells stay in the .partial
            # checkpoint for the merge step.
            self.store.save(self.spec, results)
        return SweepResult(self.spec, results, executed=len(computed),
                           cached=len(cached),
                           elapsed_s=time.perf_counter() - t0,
                           shard=self.shard)

    # ------------------------------------------------------------------
    def _load_cache(self,
                    cells: Sequence[Cell]) -> Tuple[Dict[str, CellResult], bool]:
        """Stored cells usable for this run, plus a resumed-from-partial
        flag (which forces canonical promotion at the end)."""
        if self.store is None:
            return {}, False
        if self.force:
            self.store.invalidate(self.spec)
            return {}, False
        cached = self.store.load(self.spec)
        keys = {c.key for c in cells}
        if self.spec.shared_cluster:
            # All-or-nothing: partially replaying a stateful sweep
            # would change what later cells observe.  Checkpoints are
            # never written for shared sweeps, so none are read.
            if set(cached) >= keys:
                return cached, False
            return {}, False
        partial = {key: res
                   for key, res in self.store.load_partial(self.spec).items()
                   if key in keys and key not in cached}
        cached = {key: res for key, res in cached.items() if key in keys}
        cached.update(partial)
        return cached, bool(partial)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def _checkpoint(self, result: CellResult) -> None:
        if self.store is None or self.spec.shared_cluster:
            return
        self._pending_checkpoint.append(result)
        if len(self._pending_checkpoint) >= self.checkpoint_every:
            self.store.append_partial(self.spec, self._pending_checkpoint)
            self._pending_checkpoint.clear()

    def _run_inline(self, cells: Sequence[Cell],
                    cluster: P2PMPICluster) -> List[CellResult]:
        out = []
        for cell in cells:
            t0 = time.perf_counter()
            ctx = CellContext(spec=self.spec, cell=cell, _cluster=cluster)
            value = dict(self.spec.runner(ctx))
            result = CellResult(
                index=cell.index, key=cell.key, params=cell.param_dict(),
                seed=cell.seed, value=value,
                elapsed_s=time.perf_counter() - t0)
            out.append(result)
            if self.progress is not None:
                self.progress(result)
        return out

    def _run_shared(self, cells: Sequence[Cell]) -> List[CellResult]:
        cluster = self.spec.cluster.build(seed=self.spec.master_seed)
        return self._run_inline(cells, cluster)

    def _run_serial(self, todo: Sequence[Cell]) -> List[CellResult]:
        out: List[CellResult] = []
        try:
            with _frozen_heap():
                for cell in todo:
                    result = _execute_cell(self.spec, cell)
                    out.append(result)
                    self._checkpoint(result)
                    if self.progress is not None:
                        self.progress(result)
        finally:
            self._flush_checkpoint()
        return out

    def pool_order(self, todo: Sequence[Cell]) -> List[Cell]:
        """Submission order for pool runs: most expensive cells first.

        With a ``spec.cost_key`` the cells sort by descending estimated
        cost (stable, so equal-cost cells keep grid order); without one
        the grid order stands.  Ordering is execution-only — seeds,
        content hash and stored bytes are oblivious to it.
        """
        if self.spec.cost_key is None:
            return list(todo)
        return sorted(todo, key=self.spec.cost_key, reverse=True)

    def _run_pool(self, todo: Sequence[Cell]) -> List[CellResult]:
        workers = min(self.jobs, len(todo))
        out: List[CellResult] = []
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_freeze_worker_heap) as pool:
            futures = [pool.submit(_execute_cell, self.spec, cell)
                       for cell in self.pool_order(todo)]
            try:
                # Checkpoint in completion order: a death mid-sweep
                # keeps every finished cell, not just a prefix.
                for future in as_completed(futures):
                    result = future.result()
                    out.append(result)
                    self._checkpoint(result)
                    if self.progress is not None:
                        self.progress(result)
            finally:
                self._flush_checkpoint()
        return out

    def _flush_checkpoint(self) -> None:
        if self._pending_checkpoint and self.store is not None:
            self.store.append_partial(self.spec, self._pending_checkpoint)
            self._pending_checkpoint.clear()


def run_sweep(spec: ExperimentSpec, *, jobs: int = 1,
              store: Optional[ResultStore] = None, force: bool = False,
              cluster: Optional[P2PMPICluster] = None,
              checkpoint_every: Optional[int] = None,
              shard: Optional[Tuple[int, int]] = None,
              progress: Optional[Callable[[CellResult], None]] = None,
              ) -> SweepResult:
    """One-call façade over :class:`SweepRunner` — the shared body of
    every driver module's ``*_sweep`` entry point."""
    return SweepRunner(spec, jobs=jobs, store=store, force=force,
                       cluster=cluster, checkpoint_every=checkpoint_every,
                       shard=shard, progress=progress).run()
