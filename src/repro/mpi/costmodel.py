"""Closed-form collective cost model (the scale path).

At the paper's scales (up to 600 processes) simulating every message of
every NAS iteration would cost O(p^2) events per alltoall; instead the
application models evaluate these closed forms, which mirror the exact
algorithms of :mod:`repro.mpi.collectives`:

* point-to-point: ``latency + overheads + bytes * (ser + 8/bw_eff)``;
* binomial trees: per-round max edge cost, summed over rounds;
* dissemination barrier: likewise;
* pairwise alltoall(v): per-rank sum over partners, max over ranks.

Effective bandwidth accounts for NIC sharing between co-located
processes and WAN *backbone* sharing between concurrent flows — the
two contention effects the paper's Figure 4 analysis invokes.  Every
transfer divides its NIC among the processes co-located with either
end.  The backbone share is plan-dependent (``CostParams.wan_contention
== "plan"``, the default): each backbone link divides among the
placement's own concurrent crossing flows, computed by the same
:func:`~repro.net.contention.sum_link_loads` and
:func:`~repro.net.contention.narrowest_share_bps` helpers that score
allocations.  The ``"fixed"`` mode replays the deprecated constant-16
divisor (the fig4 calibration suite pins that it does *not* reproduce
the paper's IS crossover).

``CostParams.msg_fixed_s`` and ``ser_per_byte_s`` model the Java/MPJ
per-message serialization overheads of the 2008 runtime; they are the
main calibration knobs for absolute IS/EP times (see DESIGN.md §5).

Vector kernels (DESIGN.md §11)
------------------------------
:meth:`CollectiveCostModel.pairwise_times` builds the full rank x rank
p2p cost matrix once per message size (memoized on the layout, keyed
by the mutable contention state) and each round's max is one
fancy-indexed reduction over precomputed, LRU-cached edge-index
arrays.  The alltoall(v) rank loop collapses to one evaluation per
distinct ``(site, colocated)`` combination.  The scalar per-edge
loops these replace live on as the test suite's equivalence oracle
(``tests/mpi/reference_kernel.py``); both share the scalar arithmetic
bodies and summation order (per-round max, then left-to-right sum), so
they agree bit for bit — pinned by
``tests/mpi/test_kernel_equivalence.py``.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, fields as _dataclass_fields
from functools import lru_cache
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.net.contention import (WAN_CONTENTION_FACTOR,
                                  narrowest_share_bps, sum_link_loads)
from repro.net.topology import Host, Topology

__all__ = ["CostParams", "GroupLayout", "CollectiveCostModel",
           "KernelStats", "WAN_CONTENTION_MODES"]

#: Valid ``CostParams.wan_contention`` settings.
WAN_CONTENTION_MODES = ("plan", "fixed")

#: Layout templates memoized per topology (keyed by the ordered host
#: name tuple — rank order matters to every collective).
LAYOUT_MEMO_SIZE = 32

#: Rank x rank cost matrices memoized per layout template (keyed by
#: message size, params and the mutable contention state).
PAIRWISE_MEMO_SIZE = 8


@dataclass(frozen=True)
class CostParams:
    """Tunable constants of the communication cost model.

    Attributes
    ----------
    sw_overhead_s:
        Kernel/syscall overhead per message.
    msg_fixed_s:
        Fixed runtime cost per *large* message (MPJ buffered path:
        serialization setup, buffer copies, TCP segmentation).  The IS
        calibration sets ~3.5 ms.
    msg_fixed_small_s:
        Fixed cost per *small* message (eager path); EP's one-double
        allreduces ride this.
    eager_threshold_bytes:
        Boundary between the two paths.
    ser_per_byte_s:
        Per-byte (de)serialization cost.
    wan_extra_s:
        Extra fixed cost per WAN message (TCP windows over long RTT).
    wan_contention:
        How cross-site flows share the site backbone: ``"plan"``
        (default) divides each backbone link by the layout's own
        concurrent crossing flows, ``"fixed"`` by the deprecated
        :data:`~repro.net.contention.WAN_CONTENTION_FACTOR`.
    """

    sw_overhead_s: float = 20e-6
    msg_fixed_s: float = 0.0
    msg_fixed_small_s: float = 0.0
    eager_threshold_bytes: int = 6144
    ser_per_byte_s: float = 0.0
    wan_extra_s: float = 0.0
    wan_contention: str = "plan"

    def __post_init__(self) -> None:
        if self.wan_contention not in WAN_CONTENTION_MODES:
            raise ValueError(
                f"wan_contention must be one of {WAN_CONTENTION_MODES}, "
                f"got {self.wan_contention!r}")

    def fixed_cost_s(self, nbytes: int) -> float:
        """Per-message runtime cost for a message of ``nbytes``."""
        if nbytes <= self.eager_threshold_bytes:
            return self.msg_fixed_small_s
        return self.msg_fixed_s


@dataclass
class KernelStats:
    """Deterministic work counters of one :class:`CollectiveCostModel`.

    These are the hard currency of the perf trajectory
    (``benchmarks/test_bench_kernels.py``): timing is machine-dependent
    and informational, but the number of scalar p2p evaluations, matrix
    builds and layout constructions a campaign performs is exact and
    CI-comparable across PRs.
    """

    p2p_calls: int = 0            # scalar p2p_time invocations
    p2p_edges_vectorized: int = 0  # edges priced via matrix reductions
    pairwise_builds: int = 0       # rank x rank matrices constructed
    pairwise_hits: int = 0         # matrix memo hits
    alltoallv_rank_evals: int = 0  # scalar per-rank wire evaluations
    alltoallv_combo_evals: int = 0  # deduped (site, colocated) evals
    layout_builds: int = 0         # GroupLayout constructions
    layout_cache_hits: int = 0     # layout memo hits

    def reset(self) -> None:
        for f in _dataclass_fields(self):
            setattr(self, f.name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name)
                for f in _dataclass_fields(self)}


# -- cached edge-index arrays -------------------------------------------------
# The round structure of every tree/dissemination collective depends
# only on (p, root), never on the layout — so the per-round edge lists
# are built once, converted to index arrays, and shared process-wide.

def _barrier_rounds(p: int) -> List[List[Tuple[int, int]]]:
    rounds = []
    k = 1
    while k < p:
        rounds.append([(i, (i + k) % p) for i in range(p)])
        k <<= 1
    return rounds


def _binomial_round_edges(p: int, root: int) -> List[List[Tuple[int, int]]]:
    """Edges (parent -> child) per round of a binomial bcast."""
    rounds = []
    mask = 1
    while mask < p:
        mask <<= 1
    mask >>= 1
    while mask > 0:
        edges = []
        for rel in range(0, p, mask << 1 if mask else 1):
            # sender rel transmits to rel+mask in this round
            if rel + mask < p:
                src = (rel + root) % p
                dst = (rel + mask + root) % p
                edges.append((src, dst))
        if edges:
            rounds.append(edges)
        mask >>= 1
    return rounds


def _rounds_to_arrays(rounds: List[List[Tuple[int, int]]]
                      ) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
    return tuple(
        (np.array([e[0] for e in edges], dtype=np.intp),
         np.array([e[1] for e in edges], dtype=np.intp))
        for edges in rounds)


@lru_cache(maxsize=1024)
def _barrier_edge_arrays(p: int) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
    return _rounds_to_arrays(_barrier_rounds(p))


@lru_cache(maxsize=1024)
def _binomial_edge_arrays(p: int, root: int
                          ) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
    return _rounds_to_arrays(_binomial_round_edges(p, root))


@lru_cache(maxsize=1024)
def _allreduce_edge_arrays(p: int):
    """Recursive-doubling edge arrays: (fold pair or None, rounds)."""
    pof2 = 1 << (p.bit_length() - 1)
    rem = p - pof2
    fold = None
    if rem:
        # p2p(2i+1, 2i) for i in range(rem)
        fold = (np.arange(1, 2 * rem, 2, dtype=np.intp),
                np.arange(0, 2 * rem, 2, dtype=np.intp))
    real = np.array([2 * v if v < rem else v + rem for v in range(pof2)],
                    dtype=np.intp)
    rounds = []
    mask = 1
    while mask < pof2:
        v = np.arange(pof2)
        rounds.append((real[v], real[v ^ mask]))
        mask <<= 1
    return fold, tuple(rounds)


@lru_cache(maxsize=1024)
def _ring_edge_arrays(p: int) -> Tuple[np.ndarray, np.ndarray]:
    src = np.arange(p, dtype=np.intp)
    return src, (src + 1) % p


def _rank_combo_index(layout: "GroupLayout"):
    """Distinct (site, colocated) combinations across the ranks.

    Every per-rank alltoall(v) quantity depends on the rank only
    through its site index and co-location count, so the p-rank loop
    reduces to one evaluation per distinct combination.  Returns
    ``(combos, first, inverse)``: the combination list, the first rank
    index carrying each combination, and each rank's combo index.
    """
    m = int(layout.colocated.max()) + 1
    codes = layout.rank_site * m + layout.colocated
    uniq, first, inverse = np.unique(codes, return_index=True,
                                     return_inverse=True)
    combos = [(int(c) // m, int(c) % m) for c in uniq]
    return combos, first, inverse


class GroupLayout:
    """Precomputed structure of one process group (rank -> host).

    Exposes per-rank site indices, co-location counts and the site-level
    one-way latency matrix, so collective formulas are O(p * n_sites).
    The site matrices (``oneway_s`` / ``bw_bps`` / ``backbone_bps``)
    are read-only views shared through the owning topology's memo —
    they depend only on the site set, never on the plan.  The mutable
    contention state (``colocated``, ``wan_flows``) is private to each
    instance.
    """

    def __init__(self, hosts: Sequence[Host], topology: Topology) -> None:
        if not hosts:
            raise ValueError("empty process group")
        self.hosts = list(hosts)
        self.topology = topology
        self.p = len(hosts)
        site_names = sorted({h.site for h in hosts})
        self.site_names = site_names
        self.site_of: Dict[str, int] = {s: i for i, s in enumerate(site_names)}
        self.rank_site = np.array([self.site_of[h.site] for h in hosts])
        self.site_counts = np.bincount(self.rank_site, minlength=len(site_names))
        per_host = Counter(h.name for h in hosts)
        #: Processes co-located with each rank (including itself).
        self.colocated = np.array([per_host[h.name] for h in hosts])
        # Distinct-host index per rank: the vector kernel's same-host
        # mask is ``host_index[i] == host_index[j]``.
        host_ids: Dict[str, int] = {}
        self.host_index = np.array(
            [host_ids.setdefault(h.name, len(host_ids)) for h in hosts],
            dtype=np.intp)
        # Site-level latency/bandwidth matrices, memoized on the
        # topology: one-way seconds, NIC-clamped path rate, and the
        # pooled backbone capacity (repro.net.contention's quantity).
        self.oneway_s, self.bw_bps, self.backbone_bps = \
            topology.site_matrices(tuple(site_names))
        # Concurrent crossing pairs per site-pair backbone: the
        # dominant-collective concurrency bound min(n_a, n_b) — the
        # plan-dependent divisor of the "plan" contention mode.
        counts = self.site_counts
        self.wan_flows = np.minimum.outer(counts, counts)
        #: rank x rank cost-matrix memo, shared with clones.  Keys
        #: embed the mutable contention state, so callers may mutate
        #: ``colocated``/``wan_flows`` freely without invalidation.
        self._pairwise_memo: "OrderedDict" = OrderedDict()
        #: Per-flow share matrices memoized by the census state (the
        #: ``wan_flows`` diagonal *is* the per-site totals, so the same
        #: key covers ``apply_copy_counts``).
        self._plan_share_memo: Dict[bytes, np.ndarray] = {}

    def _clone(self) -> "GroupLayout":
        """Cheap copy for the layout memo: shares every immutable site
        matrix (and the state-keyed pairwise memo) but owns fresh
        mutable contention arrays, so one cached template serves
        callers that rebind ``colocated`` or call
        :meth:`apply_copy_counts`."""
        twin = object.__new__(GroupLayout)
        twin.__dict__.update(self.__dict__)
        twin.colocated = self.colocated.copy()
        twin.wan_flows = self.wan_flows.copy()
        return twin

    def _mutation_key(self) -> Tuple[bytes, bytes]:
        """The mutable contention state, as a hashable memo key."""
        return (self.colocated.tobytes(), self.wan_flows.tobytes())

    def apply_copy_counts(self, copies: Mapping[str, int]) -> None:
        """Recount WAN contention from the plan's full copy census.

        ``copies`` maps host name -> process copies of the *whole*
        plan (every rank, every replica, co-scheduled jobs included if
        the caller knows them).  A replicated job runs its replicas'
        collectives concurrently, so the backbone divisor must see all
        of them — the same widening the ``colocated`` override applies
        to the NIC divisor (see ``Application.run_time``).  The
        layout's own ranks always stay counted.
        """
        totals = np.zeros(len(self.site_names), dtype=np.int64)
        for name, count in copies.items():
            host = self.topology.hosts.get(name)
            if host is None:
                continue
            idx = self.site_of.get(host.site)
            if idx is not None:
                totals[idx] += int(count)
        totals = np.maximum(totals, self.site_counts)
        self.wan_flows = np.minimum.outer(totals, totals)

    def _plan_shares(self) -> np.ndarray:
        """Site x site per-flow backbone share under the ``"plan"``
        rule of :mod:`repro.net.contention`.

        Each site pair's ``min(n_a, n_b)`` flows load every link on its
        route, and a pair's share is the narrowest per-flow slice along
        its own route (on a flat topology: its private link divided by
        its own flows).  The site totals are read off the ``wan_flows``
        diagonal (``min(n, n) == n``), so the matrix follows
        :meth:`apply_copy_counts`.  Memoized per census state, shared
        across clones.
        """
        key = self.wan_flows.tobytes()
        cached = self._plan_share_memo.get(key)
        if cached is not None:
            return cached
        topo = self.topology
        names = self.site_names
        totals = np.diagonal(self.wan_flows)
        pairs = [(i, j) for i in range(len(names))
                 for j in range(i + 1, len(names))]
        loads = sum_link_loads(
            topo, (((names[i], names[j]), int(min(totals[i], totals[j])))
                   for i, j in pairs))
        share = np.full((len(names), len(names)), np.inf)
        for i, j in pairs:
            share[i, j] = share[j, i] = narrowest_share_bps(
                topo, loads, names[i], names[j])
        share.setflags(write=False)
        self._plan_share_memo[key] = share
        return share

    def wan_share_bps(self, si: int, sj: int, params: CostParams) -> float:
        """Per-flow share of the ``si``<->``sj`` backbone under
        ``params.wan_contention`` (``inf`` for LAN)."""
        if si == sj:
            return float("inf")
        if params.wan_contention == "fixed":
            return self.backbone_bps[si, sj] / WAN_CONTENTION_FACTOR
        return float(self._plan_shares()[si, sj])

    def wan_share_matrix(self, params: CostParams) -> np.ndarray:
        """Site x site per-flow backbone share under ``params``; the
        elementwise (bit-exact) batch form of :meth:`wan_share_bps`."""
        if params.wan_contention == "plan":
            return self._plan_shares()  # inf diagonal built in
        share = self.backbone_bps / WAN_CONTENTION_FACTOR
        np.fill_diagonal(share, np.inf)
        return share

    @property
    def max_colocated(self) -> int:
        return int(self.colocated.max())

    def sites_used(self) -> List[str]:
        return [s for s, c in zip(self.site_names, self.site_counts) if c > 0]


class CollectiveCostModel:
    """Evaluates collective execution times for a :class:`GroupLayout`."""

    def __init__(self, topology: Topology, params: CostParams = CostParams()) -> None:
        self.topology = topology
        self.params = params
        self.stats = KernelStats()

    def layout(self, hosts: Sequence[Host]) -> GroupLayout:
        """Build a group layout, memoized per topology.

        Keyed by the *ordered* host-name tuple (rank order matters to
        every collective); hits return a cheap clone whose mutable
        contention arrays are private to the caller.
        """
        memo = self.topology.layout_memo
        key = tuple(h.name for h in hosts)
        template = memo.get(key)
        if template is not None:
            memo.move_to_end(key)
            self.stats.layout_cache_hits += 1
            return template._clone()
        template = GroupLayout(hosts, self.topology)
        self.stats.layout_builds += 1
        memo[key] = template
        while len(memo) > LAYOUT_MEMO_SIZE:
            memo.popitem(last=False)
        return template._clone()

    # -- point-to-point ---------------------------------------------------------
    def p2p_time(self, layout: GroupLayout, src: int, dst: int,
                 nbytes: int) -> float:
        """Modelled transfer time between two ranks of the group."""
        self.stats.p2p_calls += 1
        if src == dst:
            return self.params.sw_overhead_s
        pa = self.params
        same_host = layout.hosts[src].name == layout.hosts[dst].name
        si, sj = layout.rank_site[src], layout.rank_site[dst]
        lat = 0.0 if same_host else layout.oneway_s[si, sj]
        cost = lat + pa.sw_overhead_s + pa.fixed_cost_s(nbytes)
        if si != sj:
            cost += pa.wan_extra_s
        if nbytes > 0 and not same_host:
            share = max(layout.colocated[src], layout.colocated[dst])
            bw = layout.bw_bps[si, sj] / share
            if si != sj:
                # The plan's other crossing flows pool the backbone;
                # collective rounds run concurrently, so every edge
                # sees its contended share, not the idle path.
                bw = min(bw, layout.wan_share_bps(si, sj, pa))
            cost += nbytes * (pa.ser_per_byte_s + 8.0 / bw)
        elif nbytes > 0:
            cost += nbytes * pa.ser_per_byte_s
        return float(cost)

    def pairwise_times(self, layout: GroupLayout, nbytes: int) -> np.ndarray:
        """Full rank x rank p2p cost matrix for one message size.

        Entry ``[i, j]`` equals ``p2p_time(layout, i, j, nbytes)`` bit
        for bit (same scalar arithmetic, evaluated elementwise).
        Memoized on the layout template, keyed by the message size,
        the params and the mutable contention state — so repeated
        collective evaluations of one plan shape build it once, and a
        caller mutating ``colocated``/``wan_flows`` transparently gets
        a fresh matrix.
        """
        key = (nbytes, self.params, layout._mutation_key())
        memo = layout._pairwise_memo
        cached = memo.get(key)
        if cached is not None:
            memo.move_to_end(key)
            self.stats.pairwise_hits += 1
            return cached
        times = self._build_pairwise(layout, nbytes)
        times.setflags(write=False)
        self.stats.pairwise_builds += 1
        memo[key] = times
        while len(memo) > PAIRWISE_MEMO_SIZE:
            memo.popitem(last=False)
        return times

    def _build_pairwise(self, layout: GroupLayout, nbytes: int) -> np.ndarray:
        pa = self.params
        si = layout.rank_site[:, None]
        sj = layout.rank_site[None, :]
        same_host = layout.host_index[:, None] == layout.host_index[None, :]
        cross = si != sj
        lat = np.where(same_host, 0.0, layout.oneway_s[si, sj])
        cost = lat + pa.sw_overhead_s + pa.fixed_cost_s(nbytes)
        cost[cross] += pa.wan_extra_s
        if nbytes > 0:
            share = np.maximum(layout.colocated[:, None],
                               layout.colocated[None, :])
            bw = layout.bw_bps[si, sj] / share
            wan = layout.wan_share_matrix(pa)
            bw = np.where(cross, np.minimum(bw, wan[si, sj]), bw)
            cost = cost + np.where(same_host,
                                   nbytes * pa.ser_per_byte_s,
                                   nbytes * (pa.ser_per_byte_s + 8.0 / bw))
        np.fill_diagonal(cost, pa.sw_overhead_s)
        return cost

    # -- tree / dissemination collectives -------------------------------------------
    def barrier_time(self, layout: GroupLayout) -> float:
        """Dissemination barrier: sum over rounds of the slowest edge."""
        times = self.pairwise_times(layout, 32)
        total = 0.0
        for src, dst in _barrier_edge_arrays(layout.p):
            total += float(times[src, dst].max())
            self.stats.p2p_edges_vectorized += len(src)
        return total

    def bcast_time(self, layout: GroupLayout, nbytes: int,
                   root: int = 0) -> float:
        """Binomial broadcast: per-round max edge, summed."""
        times = self.pairwise_times(layout, nbytes)
        total = 0.0
        for src, dst in _binomial_edge_arrays(layout.p, root):
            total += float(times[src, dst].max())
            self.stats.p2p_edges_vectorized += len(src)
        return total

    def reduce_time(self, layout: GroupLayout, nbytes: int,
                    root: int = 0) -> float:
        """Binomial fan-in mirrors the broadcast tree."""
        return self.bcast_time(layout, nbytes, root=root)

    def allreduce_time(self, layout: GroupLayout, nbytes: int) -> float:
        """Recursive doubling, mirroring the message-level engine.

        ``ceil(log2 pof2)`` exchange rounds (each priced at its slowest
        edge) plus a fold-in and fold-out round for non-power-of-two
        sizes.
        """
        p = layout.p
        if p == 1:
            return self.params.sw_overhead_s
        times = self.pairwise_times(layout, nbytes)
        fold_pair, rounds = _allreduce_edge_arrays(p)
        total = 0.0
        if fold_pair is not None:
            src, dst = fold_pair
            total += 2 * float(times[src, dst].max())
            self.stats.p2p_edges_vectorized += len(src)
        for src, dst in rounds:
            total += float(times[src, dst].max())
            self.stats.p2p_edges_vectorized += len(src)
        return total

    def gather_time(self, layout: GroupLayout, nbytes: int,
                    root: int = 0) -> float:
        """Linear gather: root drains p-1 messages."""
        pa = self.params
        if layout.p == 1:
            return pa.sw_overhead_s
        times = self.pairwise_times(layout, 0)
        sel = np.arange(layout.p) != root
        lat = float(times[sel, root].max())
        self.stats.p2p_edges_vectorized += layout.p - 1
        per_msg = (pa.sw_overhead_s + pa.fixed_cost_s(nbytes)
                   + nbytes * pa.ser_per_byte_s)
        return lat + (layout.p - 1) * per_msg + self._serial_bytes_time(
            layout, root, nbytes * (layout.p - 1)
        )

    def ring_exchange_time(self, layout: GroupLayout, nbytes: int) -> float:
        """Slowest neighbouring edge of the rank ring: one halo-exchange
        step of a 1-D decomposition (CG's transpose stand-in)."""
        times = self.pairwise_times(layout, nbytes)
        src, dst = _ring_edge_arrays(layout.p)
        self.stats.p2p_edges_vectorized += layout.p
        return float(times[src, dst].max())

    def _serial_bytes_time(self, layout: GroupLayout, rank: int,
                           nbytes: int) -> float:
        bw = layout.bw_bps[layout.rank_site[rank], layout.rank_site[rank]]
        return nbytes * 8.0 / (bw / layout.colocated[rank])

    # -- pairwise exchange ------------------------------------------------------------
    def alltoall_time(self, layout: GroupLayout, bytes_per_pair: int) -> float:
        """Pairwise alltoall: slowest rank's sum over its partners.

        Vectorised by site: a rank's partner mix is the site population,
        corrected for same-host partners (zero latency, no NIC transit).
        """
        return self.alltoallv_time(layout, bytes_per_pair)

    def _alltoallv_unit(self, layout: GroupLayout,
                        bytes_per_pair: int) -> np.ndarray:
        """unit[s, s'] = overhead cost of one message between sites."""
        pa = self.params
        n_sites = len(layout.site_names)
        unit = np.zeros((n_sites, n_sites))
        fixed = pa.fixed_cost_s(bytes_per_pair)
        for si in range(n_sites):
            for sj in range(n_sites):
                cost = layout.oneway_s[si, sj] + pa.sw_overhead_s + fixed
                if si != sj:
                    cost += pa.wan_extra_s
                if bytes_per_pair > 0:
                    cost += bytes_per_pair * pa.ser_per_byte_s
                unit[si, sj] = cost
        return unit

    def _alltoallv_rank_total(self, layout: GroupLayout, si: int,
                              colocated: int, unit: np.ndarray,
                              wire: float) -> float:
        """One rank's alltoall(v) total (a rank enters only through
        ``si``/``colocated``)."""
        counts = layout.site_counts.astype(float).copy()
        counts[si] -= 1  # exclude self
        total = float(np.dot(counts, unit[si])) + wire
        # Same-host partners: no wire, only overheads (already in
        # `unit` diagonal via latency=LAN; subtract the LAN latency
        # for the (colocated-1) same-host partners — also for
        # zero-byte exchanges, else cost(0) exceeds cost(1)).
        k = colocated - 1
        if k > 0:
            total -= k * layout.oneway_s[si, si]
        return total

    def alltoallv_time(self, layout: GroupLayout, bytes_per_pair: int) -> float:
        pa = self.params
        p = layout.p
        if p == 1:
            return pa.sw_overhead_s
        unit = self._alltoallv_unit(layout, bytes_per_pair)
        # Bandwidth term is added per rank (depends on colocation).
        wire = self._alltoallv_wire_per_rank(layout, bytes_per_pair)
        combos, first, _ = _rank_combo_index(layout)
        return float(max(
            self._alltoallv_rank_total(layout, si, colo, unit, wire[fi])
            for (si, colo), fi in zip(combos, first)))

    def _alltoallv_wire_one(self, layout: GroupLayout, si: int,
                            colocated: int, bytes_per_pair: int) -> float:
        """One rank's bytes-on-the-wire seconds."""
        pa = self.params
        counts = layout.site_counts.astype(float).copy()
        counts[si] -= 1  # exclude self
        total = 0.0
        for sj in range(len(layout.site_names)):
            c = counts[sj]
            if c <= 0:
                continue
            bw = layout.bw_bps[si, sj] / colocated
            if si != sj:
                # The *backbone* pools across the plan's crossing
                # flows ("plan") or the fixed divisor ("fixed"); a
                # lone flow stays NIC-bound.
                bw = min(bw, layout.wan_share_bps(si, sj, pa))
            total += c * bytes_per_pair * 8.0 / bw
        # Same-host partners never touch the wire: back out the
        # (colocated-1) LAN-priced shares the loop charged them.
        k = colocated - 1
        if k > 0:
            total -= k * bytes_per_pair * 8.0 / (
                layout.bw_bps[si, si] / colocated)
        return total

    def _alltoallv_wire_per_rank(self, layout: GroupLayout,
                                 bytes_per_pair: int) -> np.ndarray:
        """Per-rank bytes-on-the-wire seconds of one alltoall(v).

        The bandwidth-dependent component only — no latency, fixed or
        serialization overheads — under NIC sharing and the
        configured WAN contention mode.  Same-host partners never touch the wire.
        """
        p = layout.p
        if bytes_per_pair <= 0:
            return np.zeros(p)
        combos, _, inverse = _rank_combo_index(layout)
        self.stats.alltoallv_combo_evals += len(combos)
        vals = np.array([
            self._alltoallv_wire_one(layout, si, colo, bytes_per_pair)
            for si, colo in combos])
        return vals[inverse]

    def alltoallv_transfer_time(self, layout: GroupLayout,
                                bytes_per_pair: int) -> float:
        """Slowest rank's pure wire time for one alltoall(v) exchange.

        The fig4 calibration quantity: per-message fixed and latency
        overheads are identical constants under every contention mode,
        so the wire time is where the plan-dependent backbone share
        shows (see DESIGN.md §10).
        """
        if layout.p == 1:
            return 0.0
        return float(self._alltoallv_wire_per_rank(
            layout, bytes_per_pair).max())

    # -- convenience ---------------------------------------------------------------
    def describe(self, layout: GroupLayout) -> str:
        sites = ", ".join(
            f"{s}:{c}" for s, c in zip(layout.site_names, layout.site_counts) if c
        )
        return f"p={layout.p} over [{sites}], max colocated={layout.max_colocated}"
