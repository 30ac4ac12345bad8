"""Static network topology: sites, clusters, hosts, links.

The model matches how the paper describes Grid'5000: a federation of
*sites* (nancy, lyon, ...), each hosting one or more *clusters* of
homogeneous *hosts*.  Latency is defined between sites (WAN RTT) with a
small uniform intra-site LAN RTT; bandwidth likewise.  Inter-site RTTs
not reported by the paper are derived with a hub (star) approximation
through the submitting site, which is conservative and only affects the
application-model experiments (Figure 4), never allocation decisions
(which depend solely on RTT *to* the submitting site).

Two wiring modes (DESIGN.md §14)
--------------------------------
* **flat** (the paper's testbed): every known site pair has its own
  private backbone — a one-hop route over the single link
  ``(site_a, site_b)``.  This is the original model, preserved bit for
  bit.
* **routed** (generated complex-network families): the constructor
  takes explicit :class:`Link` definitions — possibly through pure
  *transit* nodes (routers) that host nothing — and every site pair's
  path is derived by shortest-RTT routing over that link graph.  A
  path's RTT is the sum of its links' RTTs, its backbone bandwidth the
  bottleneck link, and — the part contention cares about — crossing
  flows load **every traversed link**, so two site pairs routed through
  one router chord genuinely share it.

Both modes answer through the same :meth:`Topology.path_metrics`
facade; consumers never branch on the mode themselves.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

__all__ = ["Host", "Cluster", "Site", "Topology", "LinkSpec", "Link",
           "PathMetrics"]

#: Default intra-site (LAN) round-trip time in milliseconds.  The paper's
#: figure legends report 0.087 ms for nancy-to-nancy probes.
DEFAULT_LAN_RTT_MS = 0.087

#: Default LAN bandwidth: Grid'5000 nodes of that era had GigE NICs.
DEFAULT_LAN_BW_BPS = 1.0e9


@dataclass(frozen=True)
class Host:
    """One computing node (one MPD daemon runs per host).

    Attributes
    ----------
    name:
        Globally unique, e.g. ``"grelon-17.nancy"``.
    site / cluster:
        Names of the owning site and cluster.
    cores:
        Number of cores; the paper configures each peer's ``P`` (max
        processes per application) to this value.
    speed:
        Relative per-core compute rate (1.0 = nancy's Xeon 5110
        baseline); used by the application models.
    memory_mb:
        Node memory, used by the spread-strategy rationale checks.
    """

    name: str
    site: str
    cluster: str
    cores: int
    speed: float = 1.0
    memory_mb: int = 2048

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True)
class Cluster:
    """A homogeneous set of hosts within a site (paper Table 1 rows)."""

    name: str
    site: str
    cpu_model: str
    nodes: int
    cpus: int
    cores: int
    speed: float = 1.0
    memory_mb: int = 2048

    @property
    def cores_per_node(self) -> int:
        if self.cores % self.nodes:
            raise ValueError(
                f"cluster {self.name}: {self.cores} cores not divisible by "
                f"{self.nodes} nodes"
            )
        return self.cores // self.nodes

    def hosts(self) -> List[Host]:
        """Materialise the node list (``<cluster>-<i>.<site>``)."""
        return [
            Host(
                name=f"{self.name}-{i}.{self.site}",
                site=self.site,
                cluster=self.name,
                cores=self.cores_per_node,
                speed=self.speed,
                memory_mb=self.memory_mb,
            )
            for i in range(1, self.nodes + 1)
        ]


@dataclass(frozen=True)
class Site:
    """A geographical site hosting clusters."""

    name: str
    clusters: Tuple[Cluster, ...]

    @property
    def n_hosts(self) -> int:
        return sum(c.nodes for c in self.clusters)

    @property
    def n_cores(self) -> int:
        return sum(c.cores for c in self.clusters)


@dataclass(frozen=True)
class LinkSpec:
    """WAN link properties between two sites."""

    rtt_ms: float
    bandwidth_bps: float


@dataclass(frozen=True)
class Link:
    """One physical backbone link of a *routed* topology.

    Endpoints are node names of the link graph: site names or transit
    (router) node names.  The canonical key is the sorted endpoint
    pair, mirroring :meth:`Topology.link_key`.
    """

    a: str
    b: str
    rtt_ms: float
    bandwidth_bps: float

    @property
    def key(self) -> Tuple[str, str]:
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)


@dataclass(frozen=True)
class PathMetrics:
    """End-to-end path properties between two hosts (or sites).

    Attributes
    ----------
    rtt_ms:
        Round-trip time of the whole path.  Flat mode: the configured
        site-pair RTT.  Routed mode: the sum of the traversed links'
        RTTs (real shortest-path RTT, not the hub/star approximation).
    bandwidth_bps:
        The *backbone* bottleneck — the narrowest traversed link,
        without any NIC clamp.  This is the shared capacity crossing
        flows divide (:mod:`repro.net.contention`).
    links:
        Canonical keys of the traversed backbone links, in traversal
        order.  Empty for same-site (or same-host) paths; exactly one
        entry in flat mode.
    """

    rtt_ms: float
    bandwidth_bps: float
    links: Tuple[Tuple[str, str], ...] = ()

    @property
    def hops(self) -> int:
        return len(self.links)


class Topology:
    """Site/host database plus the site-level link graph.

    Parameters
    ----------
    sites:
        Site definitions.
    site_rtt_ms:
        Mapping ``(site_a, site_b) -> RTT in ms`` for WAN pairs.  Pairs
        may be given in either order; missing non-hub pairs are filled
        with the hub approximation through ``hub`` if provided.
    site_bw_bps:
        Mapping ``(site_a, site_b) -> bandwidth in bit/s``; missing
        pairs default to ``default_wan_bw_bps``.
    hub:
        Site through which unknown pairwise RTTs are routed
        (``rtt(a,b) = rtt(a,hub) + rtt(hub,b)``).  Flat mode only —
        routed topologies derive real shortest-path RTTs instead.
    links:
        Explicit :class:`Link` definitions.  Passing them switches the
        topology to *routed* mode: site pairs take shortest-RTT
        multi-hop paths over this link graph, and ``site_rtt_ms`` /
        ``site_bw_bps`` / ``hub`` must be ``None``.
    transit:
        Names of pure transit nodes (routers) of the routed link
        graph; they appear on paths but host nothing.
    """

    def __init__(
        self,
        sites: Iterable[Site],
        site_rtt_ms: Optional[Dict[Tuple[str, str], float]] = None,
        site_bw_bps: Optional[Dict[Tuple[str, str], float]] = None,
        hub: Optional[str] = None,
        lan_rtt_ms: float = DEFAULT_LAN_RTT_MS,
        lan_bw_bps: float = DEFAULT_LAN_BW_BPS,
        default_wan_bw_bps: float = 10.0e9,
        links: Optional[Sequence[Link]] = None,
        transit: Sequence[str] = (),
    ) -> None:
        self.sites: Dict[str, Site] = {}
        self.hosts: Dict[str, Host] = {}
        self._hosts_by_site: Dict[str, List[Host]] = {}
        self.lan_rtt_ms = lan_rtt_ms
        self.lan_bw_bps = lan_bw_bps
        self.default_wan_bw_bps = default_wan_bw_bps
        self.hub = hub
        self.routed = links is not None
        self.transit: Tuple[str, ...] = tuple(transit)
        if self.routed and (site_rtt_ms or site_bw_bps or hub):
            raise ValueError(
                "routed topologies take explicit links; site_rtt_ms/"
                "site_bw_bps/hub belong to the flat model")
        if self.transit and not self.routed:
            raise ValueError("transit nodes require routed links")

        for site in sites:
            if site.name in self.sites:
                raise ValueError(f"duplicate site {site.name!r}")
            self.sites[site.name] = site
            bucket: List[Host] = []
            for cluster in site.clusters:
                for host in cluster.hosts():
                    if host.name in self.hosts:
                        raise ValueError(f"duplicate host {host.name!r}")
                    self.hosts[host.name] = host
                    bucket.append(host)
            self._hosts_by_site[site.name] = bucket

        self._rtt: Dict[Tuple[str, str], float] = {}
        for (a, b), val in (site_rtt_ms or {}).items():
            self._check_site(a), self._check_site(b)
            self._rtt[self._key(a, b)] = float(val)
        self._bw: Dict[Tuple[str, str], float] = {}
        for (a, b), val in (site_bw_bps or {}).items():
            self._check_site(a), self._check_site(b)
            self._bw[self._key(a, b)] = float(val)

        if hub is not None:
            self._check_site(hub)
            self._fill_via_hub(hub)

        self._links: Dict[Tuple[str, str], Link] = {}
        if self.routed:
            nodes = set(self.sites) | set(self.transit)
            for link in links:
                for end in (link.a, link.b):
                    if end not in nodes:
                        raise ValueError(
                            f"link endpoint {end!r} is neither a site "
                            f"nor a transit node")
                if link.a == link.b:
                    raise ValueError(f"self-link at {link.a!r}")
                if link.key in self._links:
                    raise ValueError(f"duplicate link {link.key}")
                self._links[link.key] = link
            #: site -> {site -> PathMetrics}, filled lazily per source.
            self._route_memo: Dict[str, Dict[str, PathMetrics]] = {}
        #: (site, site) -> PathMetrics of a flat inter-site pair, both
        #: orders, filled lazily (stays empty in routed mode).
        self._flat_memo: Dict[Tuple[str, str], PathMetrics] = {}

        self.graph = self._build_graph()
        if self.routed:
            self._check_connected()

        # Memos for the cost-model hot path (repro.mpi.costmodel):
        # site-level metric matrices per site subset, and GroupLayout
        # templates per ordered host tuple.  Both live on the topology
        # because their values depend only on it.
        self._site_matrix_memo: Dict[
            Tuple[str, ...],
            Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self.layout_memo: "OrderedDict" = OrderedDict()

    # -- helpers ---------------------------------------------------------
    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def _check_site(self, name: str) -> None:
        if name not in self.sites:
            raise KeyError(f"unknown site {name!r}")

    def _fill_via_hub(self, hub: str) -> None:
        names = sorted(self.sites)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                key = self._key(a, b)
                if key in self._rtt or hub in (a, b):
                    continue
                ra = self._rtt.get(self._key(a, hub))
                rb = self._rtt.get(self._key(b, hub))
                if ra is not None and rb is not None:
                    self._rtt[key] = ra + rb

    def _build_graph(self) -> nx.Graph:
        graph = nx.Graph()
        graph.add_nodes_from(self.sites)
        if self.routed:
            graph.add_nodes_from(self.transit)
            for key in sorted(self._links):
                link = self._links[key]
                graph.add_edge(key[0], key[1], rtt_ms=link.rtt_ms,
                               bw_bps=link.bandwidth_bps)
            return graph
        for (a, b), rtt in self._rtt.items():
            graph.add_edge(a, b, rtt_ms=rtt, bw_bps=self._bw.get((a, b), self.default_wan_bw_bps))
        return graph

    def _check_connected(self) -> None:
        """Routed topologies must reach every site from every other."""
        names = sorted(self.sites)
        if not names:
            return
        reachable = nx.node_connected_component(self.graph, names[0])
        missing = [s for s in names if s not in reachable]
        if missing:
            raise ValueError(
                f"routed topology is disconnected: no path from "
                f"{names[0]!r} to {missing}")

    # -- routing ---------------------------------------------------------
    def _routes_from(self, source: str) -> Dict[str, PathMetrics]:
        """Shortest-RTT routes from ``source`` to every site, memoized.

        Deterministic: the link graph is built in sorted-key order, so
        Dijkstra's tie-breaking is reproducible across processes.
        """
        memo = self._route_memo.get(source)
        if memo is not None:
            return memo
        _, paths = nx.single_source_dijkstra(self.graph, source,
                                             weight="rtt_ms")
        memo = {}
        for site in self.sites:
            if site == source or site not in paths:
                continue
            path = paths[site]
            hops = tuple(self._key(u, v) for u, v in zip(path, path[1:]))
            memo[site] = PathMetrics(
                rtt_ms=sum(self._links[k].rtt_ms for k in hops),
                bandwidth_bps=min(self._links[k].bandwidth_bps
                                  for k in hops),
                links=hops)
        self._route_memo[source] = memo
        return memo

    def site_path_metrics(self, a: str, b: str) -> PathMetrics:
        """Site-level path facade: RTT, backbone bottleneck, links.

        Flat mode answers from the configured site-pair tables (a
        one-hop route over the pair's own private link); routed mode
        from the shortest-RTT multi-hop route.  Flat answers are
        memoized per site pair, as routed ones are per source; a pair
        without an RTT is never memoized, so it raises on every call.
        """
        metrics = self._flat_memo.get((a, b))
        if metrics is not None:
            return metrics
        self._check_site(a), self._check_site(b)
        if a == b:
            return PathMetrics(rtt_ms=self.lan_rtt_ms,
                               bandwidth_bps=self.lan_bw_bps)
        if self.routed:
            metrics = self._routes_from(a).get(b)
            if metrics is None:  # pragma: no cover - guarded at init
                raise KeyError(f"no route between {a} and {b}")
            return metrics
        key = self._key(a, b)
        rtt = self._rtt.get(key)
        if rtt is None:
            raise KeyError(f"no RTT defined between {a} and {b}")
        metrics = PathMetrics(
            rtt_ms=rtt,
            bandwidth_bps=self._bw.get(key, self.default_wan_bw_bps),
            links=(key,))
        self._flat_memo[(a, b)] = self._flat_memo[(b, a)] = metrics
        return metrics

    def path_metrics(self, a: Host, b: Host) -> PathMetrics:
        """Host-level path facade (same-host/same-site short paths)."""
        if a.name == b.name:
            return PathMetrics(rtt_ms=0.0, bandwidth_bps=float("inf"))
        if a.site == b.site:
            return PathMetrics(rtt_ms=self.lan_rtt_ms,
                               bandwidth_bps=self.lan_bw_bps)
        return self.site_path_metrics(a.site, b.site)

    def route_links(self, site_a: str, site_b: str
                    ) -> Tuple[Tuple[str, str], ...]:
        """Backbone link keys the ``site_a``<->``site_b`` path loads
        (empty for the same site)."""
        if site_a == site_b:
            return ()
        return self.site_path_metrics(site_a, site_b).links

    def link_bandwidth_bps(self, key: Tuple[str, str]) -> float:
        """Capacity of one backbone link by canonical key."""
        if key[0] == key[1]:
            return self.lan_bw_bps
        if self.routed:
            return self._links[key].bandwidth_bps
        return self._bw.get(key, self.default_wan_bw_bps)

    # -- queries ---------------------------------------------------------
    def host(self, name: str) -> Host:
        return self.hosts[name]

    def hosts_in_site(self, site: str) -> List[Host]:
        self._check_site(site)
        return list(self._hosts_by_site[site])

    def site_representative(self, site: str) -> Host:
        """First host of ``site``, without the defensive list copy of
        :meth:`hosts_in_site` — link metrics depend only on the site
        pair, so any one host stands in for all of them."""
        self._check_site(site)
        bucket = self._hosts_by_site[site]
        if not bucket:
            raise KeyError(f"site {site!r} has no hosts")
        return bucket[0]

    def all_hosts(self) -> List[Host]:
        """All hosts in deterministic (site, cluster, index) order."""
        return [h for s in sorted(self.sites) for h in self._hosts_by_site[s]]

    @property
    def n_hosts(self) -> int:
        return len(self.hosts)

    @property
    def n_cores(self) -> int:
        return sum(h.cores for h in self.hosts.values())

    def same_site(self, a: Host, b: Host) -> bool:
        return a.site == b.site

    def base_rtt_ms(self, a: Host, b: Host) -> float:
        """Unperturbed round-trip time between two hosts in ms."""
        if a.site == b.site:
            return 0.0 if a.name == b.name else self.lan_rtt_ms
        return self.site_path_metrics(a.site, b.site).rtt_ms

    def site_rtt_ms(self, a: str, b: str) -> float:
        return self.site_path_metrics(a, b).rtt_ms

    def bandwidth_bps(self, a: Host, b: Host) -> float:
        """Bottleneck bandwidth of the a->b path in bit/s."""
        if a.name == b.name:
            return float("inf")
        if a.site == b.site:
            return self.lan_bw_bps
        wan = self.site_path_metrics(a.site, b.site).bandwidth_bps
        # A WAN flow still traverses both LANs.
        return min(self.lan_bw_bps, wan)

    def backbone_bandwidth_bps(self, a: Host, b: Host) -> float:
        """Site-level link capacity of the a<->b path, without the NIC
        clamp of :meth:`bandwidth_bps`.

        This is the *shared* capacity all flows between the two sites
        divide among themselves — the quantity communication-aware
        placement scores care about (a 1 Gb/s NIC bottleneck is private
        per pair; a 1 Gb/s bordeaux backbone is not).  Routed mode: the
        bottleneck link of the shortest-RTT path.
        """
        if a.name == b.name:
            return float("inf")
        if a.site == b.site:
            return self.lan_bw_bps
        return self.site_path_metrics(a.site, b.site).bandwidth_bps

    def site_matrices(self, site_names: Tuple[str, ...]
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Memoized site-level metric matrices for a site subset.

        Returns ``(oneway_s, bw_bps, backbone_bps)`` — one-way latency
        in seconds, NIC-clamped path rate, and pooled backbone capacity
        between every pair of ``site_names`` (LAN values on the
        diagonal).  The matrices depend only on the topology and the
        site subset, never on a placement, so every
        :class:`~repro.mpi.costmodel.GroupLayout` over the same site
        mix shares one read-only copy.
        """
        cached = self._site_matrix_memo.get(site_names)
        if cached is not None:
            return cached
        n = len(site_names)
        oneway = np.zeros((n, n))
        bw = np.zeros((n, n))
        backbone = np.zeros((n, n))
        for i, a in enumerate(site_names):
            for j, b in enumerate(site_names):
                oneway[i, j] = self.site_rtt_ms(a, b) / 2.0 / 1000.0
                if a == b:
                    bw[i, j] = self.lan_bw_bps
                    backbone[i, j] = self.lan_bw_bps
                else:
                    ha = self.site_representative(a)
                    hb = self.site_representative(b)
                    bw[i, j] = self.bandwidth_bps(ha, hb)
                    backbone[i, j] = self.backbone_bandwidth_bps(ha, hb)
        for arr in (oneway, bw, backbone):
            arr.setflags(write=False)
        self._site_matrix_memo[site_names] = (oneway, bw, backbone)
        return oneway, bw, backbone

    def link_key(self, a: Host, b: Host) -> Tuple[str, str]:
        """Canonical contention-domain key for the a<->b path."""
        if a.site == b.site:
            return (a.site, a.site)
        return self._key(a.site, b.site)

    # -- pairwise placement metrics --------------------------------------
    # Communication-aware allocation strategies (repro.alloc.commaware)
    # score candidate host sets by their worst link.  RTT and bandwidth
    # depend only on the site pair, so both metrics reduce a host set
    # to one representative per site plus a same-site flag and run in
    # O(|distinct site pairs|), not O(|hosts|^2) — a 600-process
    # grid5000 allocation spans hundreds of hosts but only 6 sites.

    def site_representatives(self, hosts: Sequence[Host]
                             ) -> Tuple[List[Host], bool]:
        """One distinct host per site, plus whether any site holds two.

        The reduction both placement metrics (and the commaware
        experiment pack's contended-bandwidth score) are computed on.
        """
        per_site: Dict[str, Host] = {}
        names = set()
        same_site_pair = False
        for host in hosts:
            if host.name in names:
                continue
            names.add(host.name)
            if host.site in per_site:
                same_site_pair = True
            else:
                per_site[host.site] = host
        return list(per_site.values()), same_site_pair

    def latency_diameter_ms(self, hosts: Sequence[Host]) -> float:
        """Largest pairwise base RTT among ``hosts`` (0 for < 2 hosts)."""
        reps, same_site_pair = self.site_representatives(hosts)
        diameter = self.lan_rtt_ms if same_site_pair else 0.0
        for i, a in enumerate(reps):
            for b in reps[i + 1:]:
                diameter = max(diameter, self.base_rtt_ms(a, b))
        return diameter

    def min_bandwidth_bps(self, hosts: Sequence[Host]) -> float:
        """Smallest pairwise bottleneck bandwidth among ``hosts``.

        Returns ``inf`` for fewer than two distinct hosts — an empty
        minimum means no link can constrain the placement.
        """
        reps, same_site_pair = self.site_representatives(hosts)
        narrowest = self.lan_bw_bps if same_site_pair else float("inf")
        for i, a in enumerate(reps):
            for b in reps[i + 1:]:
                narrowest = min(narrowest, self.bandwidth_bps(a, b))
        return narrowest

    def summary(self) -> str:
        lines = [f"{len(self.sites)} sites, {self.n_hosts} hosts, {self.n_cores} cores"]
        for name in sorted(self.sites):
            site = self.sites[name]
            lines.append(f"  {name}: {site.n_hosts} hosts / {site.n_cores} cores")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Topology sites={len(self.sites)} hosts={self.n_hosts}>"
