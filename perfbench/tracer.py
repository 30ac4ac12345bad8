"""Outside-in per-layer tracer for the benchmark's traced pass.

:meth:`Tracer.install` wraps each layer's public entry points from the
outside; nothing in ``src/`` knows it is being traced.  A wrapper is
patched wherever callers look the name up: on every class of the
hierarchy that defines the method itself, and on every loaded
``repro`` module that imported a wrapped function by name (for example
``repro.ft.migration`` binds ``neighbor_map`` at import).
:meth:`Tracer.uninstall` puts every original back.

Three kinds of wrapper keep the cost proportional to what is asked:

* *timed* entry points push a frame on a span stack and read the clock
  twice; a span's self time is its duration minus the time of the
  spans it encloses, and a layer's inclusive time counts only its
  outermost span;
* *counted* leaves (``Topology.path_metrics``, ``PeerCache.add``, the
  inbox predicates ...) bump a counter and read no clock; their time
  lands in the enclosing timed entry point;
* generator and coroutine functions (``MPD.submit_job``,
  ``MPD.migrate_copy_out``, ``PeerDaemon.refresh_cache``,
  ``ControlPlane.admit_job``, ``ReplicatedComm.recv``) are counted
  only: calling them does no work.

Per-cell totals are kept in memory (:meth:`Tracer.end_cell`) and
written out once, at the end of the pass.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: Layers in report order; each gets ``<layer>.span_s`` (inclusive,
#: outermost span only) and ``<layer>.self_s``.
LAYERS = ("sim", "net", "overlay", "alloc", "mpi", "middleware",
          "controlplane", "ft", "cluster", "engine")


def _always(_item: Any) -> bool:
    return True


class Tracer:
    """Counters and span timers for one traced pass."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = defaultdict(int)
        self.times: Dict[str, float] = defaultdict(float)
        self.span_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.cells: List[Dict[str, Any]] = []
        self._stack: List[List[float]] = [[0.0]]
        self._depth: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        # Stores and cost models touched in the current cell, held (not
        # just their ids) so an id cannot be recycled within the cell.
        self._stores: Dict[int, Any] = {}
        self._cost_models: Dict[int, Tuple[Any, Dict[str, int]]] = {}
        self._snapshot = self._totals()

    # ------------------------------------------------------------------
    # wrapper factories
    # ------------------------------------------------------------------
    def timed(self, layer: str, fn: Callable, count: str = None,
              time_key: str = None) -> Callable:
        """Span around ``fn``: layer self/inclusive time, plus an optional
        call counter and inclusive timer for this entry point (both
        counted at its outermost call only)."""
        stack, depth = self._stack, self._depth
        counts, times = self.counts, self.times
        span_s, self_s = self.span_s, self.self_s
        clock = time.perf_counter
        # Nested calls that share a counter (``distribute`` inside
        # ``distribute_over``) count once, at the outermost.
        entry = count or time_key or f"{layer}:{fn.__qualname__}"

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            outer_layer = depth[layer]
            outer_entry = depth[entry]
            depth[layer] = outer_layer + 1
            depth[entry] = outer_entry + 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                depth[layer] = outer_layer
                depth[entry] = outer_entry
                self_s[layer] += dt - frame[0]
                if not outer_layer:
                    span_s[layer] += dt
                if not outer_entry:
                    if count:
                        counts[count] += 1
                    if time_key:
                        times[time_key] += dt

        return functools.update_wrapper(wrapper, fn)

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, new)

    def _patch_method(self, base: type, attr: str,
                      make: Callable[[Callable], Callable]) -> None:
        """Wrap ``attr`` on every class in ``base``'s hierarchy that
        defines it (reentrancy in the timed wrapper keeps a ``super()``
        chain from double counting)."""
        seen, todo = set(), [base]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            fn = vars(cls).get(attr)
            if fn is not None and callable(fn):
                self._patch(cls, attr, make(fn))

    def _patch_function(self, module: str, attr: str,
                        make: Callable[[Callable], Callable]) -> None:
        """Wrap a module-level function in its home module and in every
        loaded ``repro`` module that bound it by name."""
        original = getattr(importlib.import_module(module), attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    vars(mod).get(attr) is original:
                self._patch(mod, attr, wrapped)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        # Importing repro.ft.migration here also makes its by-name
        # binding of neighbor_map visible to _patch_function's scan.
        from repro.alloc import base as alloc_base
        from repro.cluster import ClusterSpec
        from repro.experiments.engine import ExperimentSpec, ResultStore
        from repro.ft.migration import RankMigrator
        from repro.ft.replicated_mpi import ReplicatedComm
        from repro.middleware.controlplane import (ControlPlane,
                                                   VirtualTimeLoop)
        from repro.middleware.gatekeeper import Gatekeeper
        from repro.middleware.mpd import MPD
        from repro.middleware.reservation import ReservationService
        from repro.mpi.costmodel import CollectiveCostModel
        from repro.net.topology import Topology
        from repro.net.transport import Network
        from repro.overlay.cache import PeerCache
        from repro.overlay.peer import PeerDaemon
        from repro.overlay.supernode import Supernode
        from repro.sim.core import Simulator
        from repro.sim.resources import FilterStore, Store

        counts, stores = self.counts, self._stores
        t = self.timed

        # -- sim -------------------------------------------------------
        self._patch_method(Simulator, "step",
                           lambda fn: t("sim", fn, count="sim.events"))
        self._patch_method(Store, "put", lambda fn: self._store_put(
            t("sim", fn, count="sim.store_puts", time_key="sim.store_put_s")))
        store_get = t("sim", Store.get, count="sim.store_gets",
                      time_key="sim.store_get_s")
        filter_get = t("sim", FilterStore.get, count="sim.store_gets",
                       time_key="sim.store_get_s")

        def get(store):
            stores[id(store)] = store
            return store_get(store)

        def fget(store, predicate=None):
            stores[id(store)] = store
            counts["sim.filter_gets"] += 1
            inner = predicate or _always

            def match(item):
                counts["sim.match_evals"] += 1
                return inner(item)

            return filter_get(store, match)

        self._patch(Store, "get", functools.update_wrapper(get, Store.get))
        self._patch(FilterStore, "get",
                    functools.update_wrapper(fget, FilterStore.get))

        # -- net -------------------------------------------------------
        self._patch_method(Network, "send", lambda fn: t(
            "net", fn, count="net.sends", time_key="net.send_s"))
        self._patch_method(Network, "receive",
                           lambda fn: self.counted("net.receives", fn))
        self._patch_method(Topology, "path_metrics",
                           lambda fn: self.counted("net.path_metrics_calls",
                                                   fn))
        self._patch_method(Topology, "site_path_metrics", lambda fn:
                           self.counted("net.site_path_metrics_calls", fn))

        # -- overlay ---------------------------------------------------
        self._patch_method(PeerCache, "merge", self._merge)
        self._patch_method(PeerCache, "add",
                           lambda fn: self.counted("overlay.cache_adds", fn))
        self._patch_method(Supernode, "peer_list", lambda fn: t(
            "overlay", fn, count="overlay.peer_lists",
            time_key="overlay.peer_list_s"))
        self._patch_method(PeerDaemon, "refresh_cache", lambda fn:
                           self.counted("overlay.refreshes", fn))

        # -- alloc -----------------------------------------------------
        for attr in ("distribute", "distribute_over"):
            self._patch_method(alloc_base.Strategy, attr, lambda fn: t(
                "alloc", fn, count="alloc.distribute_calls",
                time_key="alloc.distribute_s"))
        self._patch_function("repro.alloc.diffusive", "neighbor_map",
                             lambda fn: t("alloc", fn,
                                          count="alloc.neighbor_map_calls",
                                          time_key="alloc.neighbor_map_s"))
        self._patch_function("repro.alloc.diffusive", "diffusive_moves",
                             self._moves)

        # -- mpi -------------------------------------------------------
        self._patch_method(CollectiveCostModel, "__init__", self._cost_init)
        for attr in sorted(vars(CollectiveCostModel)):
            if attr.endswith("_time") and not attr.startswith("_"):
                self._patch_method(CollectiveCostModel, attr, self._cost)

        # -- middleware / control plane --------------------------------
        self._patch_method(Gatekeeper, "try_admit", self._try_admit)
        self._patch_method(ReservationService, "handle_reserve", lambda fn:
                           t("middleware", fn, count="middleware.reserves"))
        self._patch_method(MPD, "submit_job",
                           lambda fn: self.counted("middleware.submits", fn))
        self._patch_method(ControlPlane, "admit_job", lambda fn:
                           self.counted("controlplane.admit_jobs", fn))
        self._patch(VirtualTimeLoop, "_run_once", self.counted(
            "controlplane.loop_iters", VirtualTimeLoop._run_once))
        self._patch(VirtualTimeLoop, "run_until_complete", t(
            "controlplane", VirtualTimeLoop.run_until_complete,
            count="controlplane.runs", time_key="controlplane.run_s"))

        # -- ft --------------------------------------------------------
        self._patch_method(RankMigrator, "migrate", lambda fn: t(
            "ft", fn, count="ft.migrations", time_key="ft.migrate_s"))
        self._patch_method(ReplicatedComm, "recv",
                           lambda fn: self.counted("ft.recvs", fn))
        self._patch_method(ReplicatedComm, "checkpoint",
                           lambda fn: self.counted("ft.checkpoints", fn))
        # The migration campaign moves copies between MPDs rather than
        # through RankMigrator: freeze on the source, adopt on the sink.
        self._patch_method(MPD, "migrate_copy_out",
                           lambda fn: self.counted("ft.copy_outs", fn))
        self._patch_method(MPD, "adopt_copy", lambda fn: t(
            "ft", fn, count="ft.adoptions", time_key="ft.adopt_s"))

        # -- cluster / engine ------------------------------------------
        self._patch_method(ClusterSpec, "build", lambda fn: t(
            "cluster", fn, count="cluster.builds", time_key="cluster.build_s"))
        self._patch_method(ResultStore, "save", lambda fn: t(
            "engine", fn, count="engine.saves", time_key="engine.store_s"))
        self._patch_method(ExperimentSpec, "content_hash", lambda fn: t(
            "engine", fn, count="engine.hashes", time_key="engine.hash_s"))
        return self

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # ------------------------------------------------------------------
    # entry points that need more than a count or a span
    # ------------------------------------------------------------------
    def _store_put(self, timed_put: Callable) -> Callable:
        stores = self._stores

        def put(store, item):
            stores[id(store)] = store
            return timed_put(store, item)

        return functools.update_wrapper(put, timed_put)

    def _merge(self, fn: Callable) -> Callable:
        counts = self.counts
        timed_merge = self.timed("overlay", fn, count="overlay.merge_calls",
                                 time_key="overlay.merge_s")

        def merge(cache, hosts):
            hosts = list(hosts)
            counts["overlay.peers_offered"] += len(hosts)
            added = timed_merge(cache, hosts)
            counts["overlay.merge_new"] += added
            return added

        return functools.update_wrapper(merge, fn)

    def _moves(self, fn: Callable) -> Callable:
        counts = self.counts
        timed_moves = self.timed("alloc", fn)

        def diffusive_moves(*args, **kwargs):
            moves = timed_moves(*args, **kwargs)
            counts["alloc.moves_proposed"] += len(moves)
            return moves

        return functools.update_wrapper(diffusive_moves, fn)

    def _cost_init(self, fn: Callable) -> Callable:
        seen = self._cost_models

        def __init__(model, *args, **kwargs):
            fn(model, *args, **kwargs)
            seen[id(model)] = (model, model.stats.as_dict())

        return functools.update_wrapper(__init__, fn)

    def _cost(self, fn: Callable) -> Callable:
        seen = self._cost_models
        timed_cost = self.timed("mpi", fn, count="mpi.cost_calls",
                                time_key="mpi.cost_s")

        def cost(model, *args, **kwargs):
            if id(model) not in seen:  # built before install
                seen[id(model)] = (model, model.stats.as_dict())
            return timed_cost(model, *args, **kwargs)

        return functools.update_wrapper(cost, fn)

    def _try_admit(self, fn: Callable) -> Callable:
        counts = self.counts
        timed_admit = self.timed("middleware", fn,
                                 count="middleware.try_admit_calls")

        def try_admit(gatekeeper, *args, **kwargs):
            admitted = timed_admit(gatekeeper, *args, **kwargs)
            if not admitted:
                counts["middleware.admit_refused"] += 1
            return admitted

        return functools.update_wrapper(try_admit, fn)

    # ------------------------------------------------------------------
    # cell boundaries and results
    # ------------------------------------------------------------------
    def _totals(self) -> Dict[str, float]:
        out: Dict[str, float] = dict(self.counts)
        out.update(self.times)
        out.update({f"{k}.span_s": v for k, v in self.span_s.items()})
        out.update({f"{k}.self_s": v for k, v in self.self_s.items()})
        return out

    def end_cell(self, index: int, key: str, elapsed_s: float) -> None:
        """Close one cell: fold the stores it touched into the end-of-
        cell gauges and keep its deltas in memory."""
        from repro.sim.resources import FilterStore

        for store in self._stores.values():
            pending = len(store._getters)
            self.counts["sim.pending_getters_end"] += pending
            if isinstance(store, FilterStore):
                self.counts["sim.filter_pending_end"] += pending
            self.counts["sim.stranded_items_end"] += len(store)
        self._stores.clear()
        for model, base in self._cost_models.values():
            for name, value in model.stats.as_dict().items():
                self.counts[f"mpi.{name}"] += value - base[name]
        self._cost_models.clear()
        totals = self._totals()
        delta = {k: v - self._snapshot.get(k, 0) for k, v in totals.items()
                 if v != self._snapshot.get(k, 0)}
        self._snapshot = totals
        self.cells.append({"index": index, "key": key,
                           "elapsed_s": elapsed_s, "layers": delta})

    def metrics(self) -> Dict[str, float]:
        """Pass totals under the benchmark's per-layer metric names."""
        c, out = self.counts, self._totals()
        for layer in LAYERS:
            out.setdefault(f"{layer}.span_s", 0.0)
            out.setdefault(f"{layer}.self_s", 0.0)
        satisfied = c["sim.filter_gets"] - c["sim.filter_pending_end"]
        out["sim.match_hit_ratio"] = (satisfied / c["sim.match_evals"]
                                      if c["sim.match_evals"] else 0.0)
        out["overlay.merge_new_ratio"] = (
            c["overlay.merge_new"] / c["overlay.peers_offered"]
            if c["overlay.peers_offered"] else 0.0)
        out["middleware.admit_refused_ratio"] = (
            c["middleware.admit_refused"] / c["middleware.try_admit_calls"]
            if c["middleware.try_admit_calls"] else 0.0)
        return out
