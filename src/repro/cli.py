"""``p2pmpirun`` — command-line front end onto the simulated grid.

Mirrors the paper's invocation::

    p2pmpirun -n 100 -r 1 -a concentrate hostname

and drives the experiment campaigns through verbs::

    p2pmpirun run fig2                  # concentrate co-allocation sweep
    p2pmpirun run fig4 --out store      # EP + IS timing sweeps, persisted
    p2pmpirun run all --jobs 4          # the whole campaign
    p2pmpirun run topozoo --family scale_free --sites 200
    p2pmpirun orchestrate commaware --workers 4 --out store
    p2pmpirun merge host1/*.partial host2/*.partial --out all
    p2pmpirun aggregate all

Sweeps run on the experiment engine: ``--jobs N`` fans cells out over
worker processes (``--jobs 0`` auto-sizes from the CPU count),
``--out DIR`` persists results to a
:class:`~repro.experiments.engine.ResultStore` (re-invocations skip
cached cells), and ``--force`` invalidates the stored sweep first.

Campaigns distribute three ways (DESIGN.md §9 and §12):

* by hand — ``run <exp> --shard K/N --out store`` executes the K-th of
  N deterministic slices of every sweep grid (results land in the
  store's ``.partial`` file); ``merge`` combines shard/checkpoint
  stores from any number of machines into the canonical file an
  unsharded run would have written, refusing on conflicts, and cleans
  up the promoted inputs (``--keep-partial`` retains them);
* supervised — ``orchestrate <exp> --workers N --out store`` owns the
  whole campaign: it shards the grid, dispatches worker processes,
  tails their heartbeats, retries crashed or stalled shards with
  backoff, merges each landed shard immediately, promotes the
  canonical store and cleans up its scratch;
* ``aggregate DIR`` renders a cross-experiment summary of a store
  directory either way.

Experiments come from :mod:`repro.experiments.registry`: the parser
enumerates names from its static manifest, and each driver module is
imported only when its campaign actually runs — which is what keeps
``p2pmpirun --help`` fast.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Tuple

from repro.experiments import registry

__all__ = ["main", "build_parser", "build_run_parser",
           "build_orchestrate_parser", "build_merge_parser",
           "build_aggregate_parser", "make_app"]

PROGRAMS = ("hostname", "ep", "is", "cg")

def make_app(name: str, nas_class: str = "B"):
    """Application model for a program name (``None`` for hostname)."""
    from repro.apps import (CGLikeBenchmark, EPBenchmark, HostnameApp,
                            ISBenchmark)

    if name == "hostname":
        return HostnameApp()
    if name == "ep":
        return EPBenchmark(nas_class)
    if name == "is":
        return ISBenchmark(nas_class)
    if name == "cg":
        return CGLikeBenchmark(nas_class)
    raise ValueError(f"unknown program {name!r} (choose from {PROGRAMS})")


def _shard_arg(text: str) -> Tuple[int, int]:
    from repro.experiments.engine import parse_shard

    try:
        return parse_shard(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


# ----------------------------------------------------------------------
# parsers
# ----------------------------------------------------------------------
def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    """Flags a single job and a sweep both read: strategy, NAS class
    and master seed."""
    parser.add_argument("-a", "--alloc", default="spread",
                        help="allocation strategy: spread | concentrate | "
                             "block | bandwidth_spread | "
                             "diameter_concentrate | topo_block")
    parser.add_argument("--class", dest="nas_class", default="B",
                        help="NAS class for ep/is/cg (default B)")
    parser.add_argument("--seed", type=int, default=0)


def _add_shape_flags(parser: argparse.ArgumentParser) -> None:
    """Sweep-shape flags: what grid a campaign spans.

    Shared by ``run`` and ``orchestrate`` — the orchestrator forwards
    exactly these to its worker processes, so the two surfaces must
    stay flag-compatible.
    """
    _add_common_flags(parser)
    parser.add_argument("--cluster", default="grid5000",
                        choices=("grid5000", "small"),
                        help="testbed for coallocation/commaware sweeps "
                             "(default grid5000; 'small' is the 10-host "
                             "CI/smoke grid)")
    parser.add_argument("--demands", default=None, metavar="N,N,...",
                        help="comma-separated demand grid overriding the "
                             "paper's 100..600 for coallocation/commaware")
    parser.add_argument("--ratios", default=None, metavar="R,R,...",
                        help="comma-separated intra/inter-site latency "
                             "ratios overriding the applatency default "
                             "1,10,121.6,1000 (the testbed subject: "
                             "--cluster does not apply)")
    parser.add_argument("--users", type=int, default=2,
                        help="competing submitters per churnload round "
                             "(default 2)")
    parser.add_argument("--failures", default=None, metavar="F,F,...",
                        help="comma-separated per-host failure-rate grid "
                             "(crashes/s) overriding the churnload "
                             "default 0,0.002,0.006")
    parser.add_argument("--horizon", type=float, default=240.0,
                        help="churnload round horizon in simulated "
                             "seconds (default 240)")
    parser.add_argument("--tenants", default=None, metavar="T,T,...",
                        help="comma-separated tenant-count grid for the "
                             "multiuser2 control-plane campaign "
                             "(default 10,50,200)")
    parser.add_argument("--rates", default=None, metavar="R,R,...",
                        help="comma-separated per-tenant arrival rates "
                             "(jobs/s) for multiuser2 "
                             "(default 0.01,0.05)")
    parser.add_argument("--family", default=None, metavar="F,F,...",
                        help="comma-separated topology families for the "
                             "topozoo campaign (grid5000, scale_free, "
                             "small_world, fat_sites; default all), e.g. "
                             "'p2pmpirun run topozoo --family scale_free "
                             "--sites 200'")
    parser.add_argument("--sites", default=None, metavar="N,N,...",
                        help="comma-separated site counts for topozoo's "
                             "generated families (default 16,48)")
    parser.add_argument("--modes", default=None, metavar="M,M,...",
                        help="comma-separated placement modes for the "
                             "migration campaign (static, diffusive; "
                             "default both)")


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """Execution/persistence flags of a directly-run sweep."""
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for sweep cells (default 1; "
                             "0 auto-sizes from the CPU count)")
    parser.add_argument("--shard", type=_shard_arg, default=None,
                        metavar="K/N",
                        help="run only the K-th of N deterministic slices "
                             "of each sweep grid (1-based; requires --out). "
                             "Disjoint shards of one spec share a store "
                             "key and seed schedule; their .partial "
                             "outputs reassemble byte-for-byte with "
                             "'p2pmpirun merge'")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="persist sweep results under DIR; cached "
                             "cells are skipped on re-invocation")
    parser.add_argument("--force", action="store_true",
                        help="invalidate stored sweeps and recompute")
    parser.add_argument("--plot", action="store_true",
                        help="also render ASCII charts for figure sweeps")
    parser.add_argument("--profile", action="store_true",
                        help="wrap the experiment sweep in cProfile: dump "
                             "profile-<experiment>.pstats next to the store "
                             "(or the CWD without --out) and print the "
                             "top-20 cumulative entries")


def build_parser() -> argparse.ArgumentParser:
    """The job-run parser (``p2pmpirun -n N ... prog``)."""
    parser = argparse.ArgumentParser(
        prog="p2pmpirun",
        description="Run a job on the simulated P2P-MPI Grid'5000 testbed.",
        epilog="Campaign verbs: 'p2pmpirun run EXPERIMENT' executes one "
               "campaign, 'p2pmpirun orchestrate EXPERIMENT --out DIR' "
               "runs it sharded over supervised worker processes, "
               "'p2pmpirun merge <STORE...> --out DIR' combines "
               "shard/checkpoint stores into the canonical file "
               "(refusing on conflicts), and 'p2pmpirun aggregate DIR' "
               "renders the campaign-level summary of a store "
               "directory.  See 'p2pmpirun run --help'.",
    )
    parser.add_argument("-n", type=int, default=None,
                        help="number of MPI processes (mandatory for runs)")
    parser.add_argument("-r", type=int, default=1,
                        help="replication degree (default 1)")
    parser.add_argument("--block", type=int, default=2,
                        help="block size when -a block")
    parser.add_argument("--group", type=int, default=None,
                        help="collective-group block unit when -a "
                             "topo_block (default: derived from n)")
    _add_common_flags(parser)
    parser.add_argument("prog", nargs="?", default="hostname",
                        choices=PROGRAMS, help="program to execute")
    return parser


def build_run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p2pmpirun run",
        description="Run one experiment campaign and print its report.")
    parser.add_argument("experiment", choices=registry.names(),
                        help="campaign to run")
    _add_shape_flags(parser)
    _add_engine_flags(parser)
    return parser


def build_orchestrate_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p2pmpirun orchestrate",
        description="Run a whole campaign end to end over supervised "
                    "worker processes: shard the sweep grids, dispatch "
                    "up to --workers concurrent shard workers, track "
                    "their progress through heartbeat files, retry "
                    "crashed or stalled shards with exponential "
                    "backoff, merge every landed shard into --out "
                    "immediately, and promote the canonical store — "
                    "byte-identical to an unsharded run — when the "
                    "grid completes.")
    parser.add_argument("experiment", choices=registry.shardable_names(),
                        help="campaign to orchestrate (engine-backed "
                             "experiments only)")
    _add_shape_flags(parser)
    parser.add_argument("--out", required=True, metavar="DIR",
                        help="campaign store directory; also hosts the "
                             ".orchestrate/ scratch tree while running")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="maximum concurrent shard workers (default 2)")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="grid partitions (default: --workers; more "
                             "shards than workers queue and backfill)")
    parser.add_argument("--retries", type=int, default=2, metavar="N",
                        help="relaunch budget per shard beyond the first "
                             "attempt (default 2)")
    parser.add_argument("--stall-timeout", type=float, default=300.0,
                        metavar="SECONDS",
                        help="terminate and retry a worker whose "
                             "heartbeat stops this long (default 300)")
    parser.add_argument("--poll-interval", type=float, default=0.5,
                        metavar="SECONDS",
                        help="supervisor poll period (default 0.5)")
    parser.add_argument("--backoff", type=float, default=0.5,
                        metavar="SECONDS",
                        help="base of the exponential relaunch backoff "
                             "(default 0.5)")
    parser.add_argument("--keep-partial", action="store_true",
                        help="keep shard scratch directories and "
                             ".partial files after a successful campaign")
    parser.add_argument("--inject-kill", type=int, default=None,
                        metavar="CELLS",
                        help="failure-injection hook for tests/CI: the "
                             "first shard's first worker self-kills "
                             "after CELLS cells")
    return parser


def build_merge_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p2pmpirun merge",
        description="Combine shard/checkpoint JSONL stores of ONE sweep "
                    "into a single canonical store.  Inputs may mix "
                    "canonical .jsonl files and .jsonl.partial shard or "
                    "checkpoint files produced on any machine; the merge "
                    "refuses on header-hash mismatch or divergent cell "
                    "values, tolerates torn tails and identical "
                    "duplicates, and — when the union covers the full "
                    "grid — writes a file byte-identical to what one "
                    "unsharded run would have saved, then removes the "
                    "promoted .partial inputs.")
    parser.add_argument("stores", nargs="+", metavar="STORE",
                        help="store files to merge (.jsonl and/or "
                             ".jsonl.partial of one spec)")
    parser.add_argument("--out", required=True, metavar="DIR",
                        help="store directory receiving the merged file "
                             "(canonical when complete, .partial when "
                             "cells are still missing)")
    parser.add_argument("--require-complete", action="store_true",
                        help="exit non-zero unless the merged cells cover "
                             "the full sweep grid")
    parser.add_argument("--keep-partial", action="store_true",
                        help="keep the input .partial files even when "
                             "the merge promotes the canonical store")
    return parser


def build_aggregate_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p2pmpirun aggregate",
        description="Render the campaign-level summary of a store "
                    "directory: every sweep (canonical or pending "
                    ".partial) with completeness, axis shapes and "
                    "numeric-metric rollups.")
    parser.add_argument("root", metavar="DIR",
                        help="store directory (the --out of runs/merges)")
    return parser


# ----------------------------------------------------------------------
# single-job path
# ----------------------------------------------------------------------
def _run_single(args: argparse.Namespace) -> int:
    from repro.cluster import build_grid5000_cluster
    from repro.middleware.jobs import JobRequest

    if args.n is None:
        print("error: -n is mandatory (as in the paper's p2pmpirun)",
              file=sys.stderr)
        return 2
    cluster = build_grid5000_cluster(seed=args.seed)
    kwargs = {}
    if args.alloc == "block":
        kwargs["block"] = args.block
    elif args.alloc == "topo_block" and args.group is not None:
        kwargs["group"] = args.group
    request = JobRequest(n=args.n, r=args.r, strategy=args.alloc,
                         strategy_kwargs=kwargs,
                         app=make_app(args.prog, args.nas_class))
    result = cluster.submit_and_run(request)
    print(result.summary())
    if result.plan is not None:
        print("hosts by site:", dict(sorted(result.allocation.hosts_by_site().items())))
        print("cores by site:", dict(sorted(result.allocation.cores_by_site().items())))
        print(f"reservation: {result.timings.reservation_s * 1000:.1f} ms, "
              f"makespan: {result.timings.makespan_s:.2f} s")
    return 0 if result.ok else 1


# ----------------------------------------------------------------------
# run verb
# ----------------------------------------------------------------------
def _store(args: argparse.Namespace):
    from repro.experiments.engine import ResultStore

    return ResultStore(args.out) if args.out else None


def _run_experiment(args: argparse.Namespace) -> int:
    registry.get(args.experiment).cli_run(args, _store(args))
    return 0


def _run_profiled(args: argparse.Namespace) -> int:
    """cProfile wrapper around one experiment sweep (``--profile``).

    Dumps the raw pstats next to the store (the CWD without ``--out``)
    and prints the top-20 cumulative entries, so hot-path claims about
    the cost kernels come with receipts (DESIGN.md §11).
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        rc = _run_experiment(args)
    finally:
        profiler.disable()
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"profile-{args.experiment}.pstats")
    profiler.dump_stats(path)
    print(f"\n[profile] wrote {path}; top 20 by cumulative time:")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative")
    stats.print_stats(20)
    return rc


def _run_run(argv: List[str]) -> int:
    from repro.experiments.engine import resolve_jobs

    parser = build_run_parser()
    args = parser.parse_args(argv)
    if args.jobs < 0:
        parser.error("--jobs must be >= 0 (0 = auto-size from CPU count)")
    args.jobs = resolve_jobs(args.jobs)
    if args.shard:
        if not registry.is_shardable(args.experiment):
            parser.error(
                f"experiment {args.experiment} does not shard (shardable: "
                f"{', '.join(registry.shardable_names())})")
        if not args.out:
            parser.error("--shard requires --out: a shard's cells persist "
                         "to the store's .partial file for the merge step")
        if args.force:
            parser.error("--force cannot be combined with --shard: it "
                         "would invalidate cells other shards checkpointed "
                         "into the same store")
    if args.profile:
        if args.experiment == "table1":
            parser.error("--profile: table1 prints a static table, "
                         "there is no sweep to profile")
        return _run_profiled(args)
    return _run_experiment(args)


# ----------------------------------------------------------------------
# orchestrate verb
# ----------------------------------------------------------------------
def _run_orchestrate(argv: List[str]) -> int:
    parser = build_orchestrate_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.shards is not None and args.shards < 1:
        parser.error("--shards must be >= 1")
    if args.retries < 0:
        parser.error("--retries must be >= 0")
    if args.inject_kill is not None and args.inject_kill < 1:
        parser.error("--inject-kill must be >= 1")

    from repro.experiments.orchestrator import Orchestrator, worker_flags

    experiment = registry.get(args.experiment)
    # Spec builders reuse the drivers' own CLI validation (bad
    # --demands/--ratios/... exit here, before any worker launches).
    specs = experiment.specs(args)
    orchestrator = Orchestrator(
        args.experiment, specs, args.out,
        worker_flags=worker_flags(args.experiment, args),
        workers=args.workers,
        shards=args.shards,
        retries=args.retries,
        stall_timeout_s=args.stall_timeout,
        poll_interval_s=args.poll_interval,
        backoff_base_s=args.backoff,
        keep_partial=args.keep_partial,
        inject_kill_cells=args.inject_kill,
    )
    report = orchestrator.run()
    return 0 if report.ok else 1


# ----------------------------------------------------------------------
# store tools: merge + aggregate verbs
# ----------------------------------------------------------------------
def _run_merge(argv: List[str]) -> int:
    from repro.experiments.aggregate import MergeConflictError, StoreMerger

    parser = build_merge_parser()
    args = parser.parse_args(argv)
    # A directory or a missing path is a usage mistake, not a
    # determinism failure: keep it off the conflict path (exit 1).
    not_files = [store for store in args.stores if not os.path.isfile(store)]
    if not_files:
        parser.error(f"not a store file: {', '.join(not_files)}; merge takes "
                     "the files inside a store directory "
                     "(<sweep>-<hash>.jsonl and/or <sweep>-<hash>.jsonl.partial)")
    try:
        merged = StoreMerger().merge(args.stores)
        # write() can conflict too: it absorbs same-sweep files already
        # at the destination and refuses on divergence.
        path = merged.write(args.out)
    except MergeConflictError as exc:
        print(f"error: merge conflict: {exc}", file=sys.stderr)
        return 1
    print(f"[merge] {merged.summary()} -> {path}")
    if merged.complete and not args.keep_partial:
        # The canonical file supersedes the shard checkpoints that fed
        # it; leaving them around invites a later merge/aggregate to
        # trip over stale data.
        removed = 0
        for store in args.stores:
            candidate = os.path.abspath(store)
            if (candidate.endswith(".partial")
                    and candidate != os.path.abspath(str(path))
                    and os.path.exists(candidate)):
                os.unlink(candidate)
                removed += 1
        if removed:
            print(f"[merge] removed {removed} superseded .partial "
                  f"input(s) (--keep-partial retains them)")
    if args.require_complete and not merged.complete:
        print(f"error: merged store is incomplete "
              f"({len(merged.missing_indices)} cell(s) missing)",
              file=sys.stderr)
        return 1
    return 0


def _run_aggregate(argv: List[str]) -> int:
    from repro.experiments.aggregate import render_aggregate, scan_store_root

    args = build_aggregate_parser().parse_args(argv)
    if not os.path.isdir(args.root):
        # A typo'd path must not pass as an empty-but-clean campaign.
        print(f"error: {args.root} is not a directory", file=sys.stderr)
        return 2
    sweeps, conflicts = scan_store_root(args.root)
    print(render_aggregate(sweeps, conflicts))
    if conflicts:
        print(f"error: {len(conflicts)} sweep(s) have conflicting store "
              "files; see the CONFLICT sections above", file=sys.stderr)
        return 1
    return 0


#: Verbs dispatched before the job parser (``p2pmpirun run ...``,
#: ``p2pmpirun orchestrate ...``, ``p2pmpirun merge ...``, ...).
TOOL_VERBS = {"run": _run_run, "orchestrate": _run_orchestrate,
              "merge": _run_merge, "aggregate": _run_aggregate}


def _dispatch(verb: str, argv: List[str]) -> int:
    try:
        return TOOL_VERBS[verb](argv)
    except BrokenPipeError:
        # The stdout reader (head, grep -q) went away mid-report;
        # park stdout on devnull so the interpreter's exit flush
        # does not raise again, and exit like a SIGPIPE'd tool.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in TOOL_VERBS:
        return _dispatch(argv[0], argv[1:])
    return _run_single(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
