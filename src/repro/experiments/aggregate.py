"""Distributed result aggregation: merge shard stores, roll up campaigns.

The paper's campaigns were executed piecewise across Grid'5000 sites
and assembled into one dataset afterwards — the workflow the platform's
own tooling papers describe as the norm.  This module is that assembly
step for the experiment engine: it combines the JSONL stores produced
by different machines, CI runners, ``--shard K/N`` slices or
interrupted ``--jobs`` runs of *one* :class:`ExperimentSpec` into the
single canonical store the unsharded sweep would have written — byte
for byte — and rolls a directory of merged sweeps into one
campaign-level summary.

Merge semantics (DESIGN.md §9):

* **inputs** — any mix of canonical ``*.jsonl`` files and ``.partial``
  checkpoint files.  Every input must carry the engine's
  ``sweep-header`` line; inputs whose header *hash* differs were
  produced by different specs (or tampered with) and are refused.
* **torn tails** — a line that does not decode as JSON is skipped (a
  writer died mid-line); only that cell is lost.
* **duplicates** — the same cell key appearing in several inputs (or
  twice in one, after a resume) is fine *iff* every occurrence carries
  the identical record; occurrences that diverge are a conflict and
  the merge refuses with a per-key report naming the sources.
* **output** — cells sorted into canonical grid order under the
  re-encoded header.  A merge covering the full grid writes the
  canonical ``name-hash.jsonl`` (indistinguishable from an unsharded
  run's file); an incomplete merge writes the ``.jsonl.partial``
  sibling instead, which any later run — or merge — resumes from.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.engine import (ResultStore, encode_store_line,
                                      store_basename)

__all__ = ["CellConflict", "MergeConflictError", "MergedStore",
           "StoreFile", "StoreMerger", "SweepConflict", "aggregate_report",
           "merge_into", "read_store_file", "render_aggregate",
           "scan_store_root"]

#: Exactly the bytes :class:`ResultStore` writes for a record — shared
#: with the engine so the byte-identity contract has one home.
_canonical_line = encode_store_line


class MergeConflictError(RuntimeError):
    """The inputs cannot be one sweep's pieces; carries the conflicts."""

    def __init__(self, message: str,
                 conflicts: Sequence["CellConflict"] = ()) -> None:
        super().__init__(message)
        self.conflicts = list(conflicts)


@dataclass(frozen=True)
class CellConflict:
    """One cell key whose records diverge across (or within) inputs."""

    key: str
    lines: Tuple[str, ...]
    sources: Tuple[str, ...]

    def describe(self) -> str:
        parts = [f"cell {self.key}:"]
        for line, source in zip(self.lines, self.sources):
            parts.append(f"  {source}: {line}")
        return "\n".join(parts)


@dataclass
class StoreFile:
    """One parsed store file: header plus per-key records."""

    path: str
    header: Dict[str, Any]
    cells: Dict[str, Dict[str, Any]]
    torn_lines: int = 0
    duplicates: int = 0

    @property
    def hash(self) -> str:
        return self.header.get("hash", "")

    @property
    def name(self) -> str:
        return (self.header.get("spec") or {}).get("name", "?")


def read_store_file(path: os.PathLike) -> StoreFile:
    """Parse one canonical or ``.partial`` store file.

    Torn (undecodable) lines are tolerated; a divergent duplicate of a
    key *within* the file is already a conflict — the engine never
    writes one, so the file was hand-edited or corrupted.
    """
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise MergeConflictError(f"cannot read store {path}: {exc}")
    if not lines:
        raise MergeConflictError(f"{path} is empty (no sweep-header)")
    try:
        header = json.loads(lines[0])
    except ValueError:
        header = None
    if (not isinstance(header, dict)
            or header.get("kind") != "sweep-header"
            or not header.get("hash")
            or not isinstance(header.get("spec"), dict)):
        raise MergeConflictError(
            f"{path} is not a sweep store (missing sweep-header line)")
    out = StoreFile(path=str(path), header=header, cells={})
    conflicts: List[CellConflict] = []
    for line in lines[1:]:
        try:
            rec = json.loads(line)
        except ValueError:
            out.torn_lines += 1  # a writer died mid-line; skip the cell
            continue
        if not isinstance(rec, dict) or rec.get("kind") != "cell":
            continue
        key = rec.get("key")
        if not isinstance(key, str):
            out.torn_lines += 1
            continue
        seen = out.cells.get(key)
        if seen is None:
            out.cells[key] = rec
        elif _canonical_line(seen) == _canonical_line(rec):
            out.duplicates += 1
        else:
            conflicts.append(CellConflict(
                key=key,
                lines=(_canonical_line(seen), _canonical_line(rec)),
                sources=(str(path), str(path))))
    if conflicts:
        raise MergeConflictError(
            f"{path} contains divergent records for "
            f"{len(conflicts)} cell(s):\n"
            + "\n".join(c.describe() for c in conflicts), conflicts)
    return out


def _expected_cells(header: Dict[str, Any]) -> int:
    """Grid size from the header's spec axes (product of axis widths)."""
    axes = (header.get("spec") or {}).get("axes")
    if not isinstance(axes, list):
        raise MergeConflictError(
            "store header carries no axes; cannot size the grid")
    total = 1
    for axis in axes:
        if (not isinstance(axis, list) or len(axis) != 2
                or not isinstance(axis[1], list)):
            raise MergeConflictError(f"malformed axis in store header: {axis!r}")
        total *= len(axis[1])
    return total


@dataclass
class MergedStore:
    """The combined sweep: one header, the union of every input's cells."""

    header: Dict[str, Any]
    cells: Dict[str, Dict[str, Any]]
    sources: List[str] = field(default_factory=list)
    duplicates: int = 0
    torn_lines: int = 0

    @property
    def hash(self) -> str:
        return self.header["hash"]

    @property
    def name(self) -> str:
        return self.header["spec"]["name"]

    @property
    def expected_cells(self) -> int:
        return _expected_cells(self.header)

    @property
    def missing_indices(self) -> List[int]:
        present = {rec["index"] for rec in self.cells.values()}
        return sorted(set(range(self.expected_cells)) - present)

    @property
    def complete(self) -> bool:
        return not self.missing_indices

    def file_name(self) -> str:
        """Exactly :meth:`ResultStore.path_for`'s naming scheme."""
        base = store_basename(self.name, self.hash)
        return base if self.complete else base + ".partial"

    def write(self, out_root: os.PathLike) -> Path:
        """Write the merged store under ``out_root`` (a store root dir).

        Cells of the same spec already at the destination — a prior
        shard's checkpoint, an earlier merge — are absorbed into the
        union first (under the usual conflict rules), never clobbered.
        A merge that then covers the full grid writes the canonical
        file — byte-identical to what one unsharded run would have
        saved — and unlinks the superseded ``.partial`` (promotion, as
        in :meth:`ResultStore.save`); an incomplete one writes the
        ``.partial`` sibling any later run or merge resumes from.
        Atomic (tmp + rename) either way.  The pooled cells of the
        inputs' store directories are copied into the destination's
        pool, so a later run there recomputes none of them.
        """
        root = Path(out_root)
        root.mkdir(parents=True, exist_ok=True)
        base = root / store_basename(self.name, self.hash)
        partial = base.with_suffix(".jsonl.partial")
        pieces = [StoreFile(path="<merge result>", header=self.header,
                            cells=self.cells)]
        for existing in (base, partial):
            if not existing.exists():
                continue
            try:
                pieces.append(read_store_file(existing))
            except MergeConflictError as exc:
                if "sweep-header" in str(exc) or "empty" in str(exc):
                    continue  # headerless debris holds no live cells
                raise  # divergent records: refuse to destroy evidence
        if len(pieces) > 1:
            combined = StoreMerger().merge_parsed(pieces)
            self.cells = combined.cells
            # Fold the absorbed files into the provenance counters so
            # the post-write summary() reports them.
            self.sources.extend(p.path for p in pieces[1:])
            self.duplicates += combined.duplicates
            self.torn_lines += sum(p.torn_lines for p in pieces[1:])
        path = base if self.complete else partial
        ordered = sorted(self.cells.values(), key=lambda rec: rec["index"])
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write(_canonical_line(self.header) + "\n")
            for rec in ordered:
                fh.write(_canonical_line(rec) + "\n")
        tmp.replace(path)
        if path == base and partial.exists():
            partial.unlink()
        # The cells behind the inputs come along: the destination's
        # pool, not its view, is what later runs there are served from.
        folders = {Path(source).parent.resolve() for source in self.sources
                   if os.path.isfile(source)} - {root.resolve()}
        for folder in sorted(folders):
            ResultStore(root).absorb(ResultStore(folder))
        return path

    def summary(self) -> str:
        missing = self.missing_indices
        text = (f"{self.name} [{self.hash[:12]}]: "
                f"{len(self.cells)}/{self.expected_cells} cells from "
                f"{len(self.sources)} store(s), "
                f"{self.duplicates} duplicate(s)")
        if self.torn_lines:
            text += f", {self.torn_lines} torn line(s) dropped"
        if missing:
            text += f", {len(missing)} cell(s) missing"
        return text


def merge_into(out_root: os.PathLike,
               paths: Sequence[os.PathLike]) -> Tuple[MergedStore, Path]:
    """Incremental-merge entry point: fold ``paths`` into ``out_root``.

    One call per landed shard is how the orchestrator merges
    continuously: each call absorbs whatever earlier calls left at the
    destination (canonical or ``.partial``), so shards can merge in any
    completion order, and the call whose union covers the grid promotes
    the canonical file.  Returns the merged store and the written path.
    """
    merged = StoreMerger().merge(paths)
    return merged, merged.write(out_root)


class StoreMerger:
    """Combines shard/checkpoint stores of one spec; refuses conflicts."""

    def merge(self, paths: Sequence[os.PathLike]) -> MergedStore:
        if not paths:
            raise MergeConflictError("no store files to merge")
        return self.merge_parsed([read_store_file(p) for p in paths])

    def merge_parsed(self, files: Sequence[StoreFile]) -> MergedStore:
        """Merge already-parsed store files (no re-reading from disk)."""
        if not files:
            raise MergeConflictError("no store files to merge")
        first = files[0]
        header_line = _canonical_line(first.header)
        for other in files[1:]:
            if other.hash != first.hash:
                raise MergeConflictError(
                    "header hash mismatch — the inputs are not pieces of "
                    "one sweep:\n"
                    f"  {first.path}: {first.name} [{first.hash[:12]}]\n"
                    f"  {other.path}: {other.name} [{other.hash[:12]}]")
            if _canonical_line(other.header) != header_line:
                # Same claimed hash, different spec body: tampering.
                raise MergeConflictError(
                    f"header of {other.path} differs from {first.path} "
                    "despite an identical hash (tampered spec header?)")

        merged = MergedStore(header=first.header, cells={},
                             sources=[f.path for f in files],
                             duplicates=sum(f.duplicates for f in files),
                             torn_lines=sum(f.torn_lines for f in files))
        origin: Dict[str, str] = {}
        conflicts: List[CellConflict] = []
        for store in files:
            for key, rec in store.cells.items():
                seen = merged.cells.get(key)
                if seen is None:
                    merged.cells[key] = rec
                    origin[key] = store.path
                elif _canonical_line(seen) == _canonical_line(rec):
                    merged.duplicates += 1
                else:
                    conflicts.append(CellConflict(
                        key=key,
                        lines=(_canonical_line(seen), _canonical_line(rec)),
                        sources=(origin[key], store.path)))
        if conflicts:
            raise MergeConflictError(
                f"divergent values for {len(conflicts)} cell(s) — same "
                "spec hash, different results (nondeterministic runner, "
                "mixed code revisions, or a tampered store):\n"
                + "\n".join(c.describe() for c in conflicts), conflicts)

        expected = merged.expected_cells  # also validates the header axes
        by_index: Dict[int, str] = {}
        for key, rec in merged.cells.items():
            index = rec.get("index")
            if not isinstance(index, int) or not 0 <= index < expected:
                raise MergeConflictError(
                    f"cell {key} (from {origin[key]}) has index {index!r} "
                    f"outside the {expected}-cell grid")
            other = by_index.setdefault(index, key)
            if other != key:
                raise MergeConflictError(
                    f"cells {other!r} and {key!r} both claim grid index "
                    f"{index} (corrupt store)")
        return merged


# ----------------------------------------------------------------------
# campaign-level aggregation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepConflict:
    """A sweep whose store files refuse to merge (or to parse)."""

    name: str
    hash: str
    message: str

    def headline(self) -> str:
        return self.message.splitlines()[0]


def _header_identity(path: Path) -> Optional[Tuple[str, str]]:
    """(name, hash) from a file's header line, if it has one at all."""
    try:
        with path.open("r", encoding="utf-8") as fh:
            header = json.loads(fh.readline())
        if (not isinstance(header, dict)
                or header.get("kind") != "sweep-header"):
            return None
        return (header["spec"]["name"], header["hash"])
    except (OSError, ValueError, TypeError, KeyError):
        return None


def scan_store_root(
    root: os.PathLike,
) -> Tuple[List[MergedStore], List[SweepConflict]]:
    """Every sweep under a store root, canonical and pending.

    Each ``*.jsonl`` / ``*.jsonl.partial`` file is parsed once; files
    of the same spec are merged, so a canonical file and a stale
    checkpoint of one sweep collapse into a single entry.  Files
    without a sweep header are skipped (a campaign report must not die
    on one foreign file in the results directory), but a sweep whose
    files *conflict* — divergent cells, tampered headers — is returned
    in the second list, never silently dropped.  Both lists sort by
    (name, hash) for deterministic reporting.
    """
    root = Path(root)
    by_id: Dict[Tuple[str, str], List[StoreFile]] = {}
    conflicts: Dict[Tuple[str, str], SweepConflict] = {}
    paths = sorted(root.glob("*.jsonl")) + sorted(root.glob("*.jsonl.partial"))
    merger = StoreMerger()
    for path in paths:
        try:
            parsed = read_store_file(path)
        except MergeConflictError as exc:
            identity = _header_identity(path)
            if identity is not None:  # a real store gone bad, not a rogue
                conflicts.setdefault(identity, SweepConflict(
                    name=identity[0], hash=identity[1], message=str(exc)))
            continue
        by_id.setdefault((parsed.name, parsed.hash), []).append(parsed)
    out: List[MergedStore] = []
    for identity, group in sorted(by_id.items()):
        if identity in conflicts:
            continue
        try:
            out.append(merger.merge_parsed(group))
        except MergeConflictError as exc:
            conflicts.setdefault(identity, SweepConflict(
                name=identity[0], hash=identity[1], message=str(exc)))
    return out, sorted(conflicts.values(),
                       key=lambda c: (c.name, c.hash))


def _metric_rollups(cells: Sequence[Dict[str, Any]]) -> List[Tuple[str, str]]:
    """(metric, "mean/min/max" text) for every numeric value key."""
    series: Dict[str, List[float]] = {}
    for rec in cells:
        value = rec.get("value")
        if not isinstance(value, dict):
            continue
        for key, v in value.items():
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                continue
            series.setdefault(key, []).append(float(v))
    rows = []
    for key in sorted(series):
        vals = series[key]
        rows.append((key, (f"mean={sum(vals) / len(vals):.6g} "
                           f"min={min(vals):.6g} max={max(vals):.6g} "
                           f"[{len(vals)} cells]")))
    return rows


def render_aggregate(sweeps: Sequence[MergedStore],
                     conflicts: Sequence[SweepConflict] = ()) -> str:
    """The cross-experiment campaign summary for scanned sweeps.

    Rolls every merged sweep (scaling, commaware, churnload, ...) into
    one deterministic text: per-sweep completeness, axis shapes and
    numeric-metric rollups under a campaign-wide total, plus a CONFLICT
    section per unmergeable sweep.  No paths, no timings — two
    directories holding the same sweeps render the same bytes.
    """
    total_cells = sum(len(s.cells) for s in sweeps)
    total_expected = sum(s.expected_cells for s in sweeps)
    parts: List[str] = []
    headline = (f"== campaign aggregate: {len(sweeps)} sweep(s), "
                f"{total_cells}/{total_expected} cells")
    if conflicts:
        headline += f", {len(conflicts)} CONFLICTED"
    parts.append(headline + " ==")
    for sweep in sweeps:
        axes = sweep.header["spec"]["axes"]
        shape = " x ".join(f"{name}={len(values)}" for name, values in axes)
        state = ("complete" if sweep.complete
                 else f"partial, {len(sweep.missing_indices)} missing")
        parts.append("")
        parts.append(f"-- {sweep.name} [{sweep.hash[:12]}] "
                     f"({len(sweep.cells)}/{sweep.expected_cells} cells, "
                     f"{state}) --")
        parts.append(f"axes: {shape if shape else '(scalar)'}")
        # Canonical grid order: a .partial written by a --jobs pool
        # holds cells in completion order, and float summation must
        # not depend on it.
        ordered = sorted(sweep.cells.values(), key=lambda r: r["index"])
        for metric, text in _metric_rollups(ordered):
            parts.append(f"  {metric:<24} {text}")
    for conflict in conflicts:
        parts.append("")
        parts.append(f"-- {conflict.name} [{conflict.hash[:12]}] "
                     "CONFLICT --")
        parts.append(f"  {conflict.headline()}")
    return "\n".join(parts)


def aggregate_report(root: os.PathLike) -> str:
    """One-call façade: scan a store directory and render the summary."""
    sweeps, conflicts = scan_store_root(root)
    return render_aggregate(sweeps, conflicts)
