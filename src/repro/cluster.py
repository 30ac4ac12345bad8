"""Top-level facade: a booted P2P-MPI grid ready for submissions.

:class:`P2PMPICluster` wires together the simulator, network, supernode
and one MPD per host, and exposes the ``p2pmpirun`` workflow as plain
method calls.  :func:`build_grid5000_cluster` instantiates the paper's
testbed with requests originating at nancy.

Example
-------
>>> from repro import build_grid5000_cluster, JobRequest
>>> cluster = build_grid5000_cluster(seed=7)
>>> res = cluster.submit_and_run(JobRequest(n=120, strategy="spread"))
>>> res.status.value
'success'
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import (Callable, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.apps.base import AppEnv
from repro.apps.machine import MachineModel
from repro.grid5000.builder import build_topology
from repro.middleware.config import MiddlewareConfig, OwnerPrefs
from repro.middleware.jobs import JobRequest, JobResult
from repro.middleware.mpd import MPD
from repro.mpi.costmodel import CostParams
from repro.net.latency import LatencyModel
from repro.net.topology import Cluster, Host, Site, Topology
from repro.net.transport import Network
from repro.overlay.churn import ChurnInjector, FailureEvent
from repro.overlay.supernode import Supernode
from repro.sim.core import Simulator
from repro.sim.monitor import Monitor

__all__ = ["P2PMPICluster", "build_grid5000_cluster", "build_latratio_cluster",
           "build_small_cluster", "build_scale_free_cluster",
           "build_small_world_cluster", "build_fat_sites_cluster",
           "ClusterSpec", "FamilyParam", "TopologyFamily",
           "register_family", "get_family", "family_names",
           "DEFAULT_COST_PARAMS"]

#: Communication cost parameters calibrated for the 2008 Java/MPJ
#: runtime (see DESIGN.md §5 and repro.mpi.costmodel).  WAN backbones
#: pool plan-dependently (DESIGN.md §10): each site link divides by
#: the placement's own concurrent crossing-pair count, validated
#: against the fig4 IS 2x64-vs-1x128 crossover.
DEFAULT_COST_PARAMS = CostParams(
    sw_overhead_s=20e-6,
    msg_fixed_s=3.5e-3,
    msg_fixed_small_s=3.0e-4,
    eager_threshold_bytes=6144,
    ser_per_byte_s=2.0e-8,
    wan_extra_s=5.0e-4,
    wan_contention="plan",
)


class P2PMPICluster:
    """A fully-wired simulated P2P-MPI deployment.

    Parameters
    ----------
    topology:
        The site/host/link description.
    seed:
        Master seed; every stochastic element derives from it.
    config:
        Middleware tuning (one config for all hosts).
    prefs_for:
        ``host -> OwnerPrefs``; defaults to the paper's setting
        (``J=1``, ``P`` = core count).
    supernode_host / default_submitter:
        Well-known service location and where ``p2pmpirun`` runs;
        both default to the first host of the topology's hub site.
    cost_params:
        Communication cost constants for the application models.
    """

    def __init__(
        self,
        topology: Topology,
        seed: int = 0,
        config: Optional[MiddlewareConfig] = None,
        prefs_for: Optional[Callable[[Host], OwnerPrefs]] = None,
        supernode_host: Optional[str] = None,
        default_submitter: Optional[str] = None,
        cost_params: CostParams = DEFAULT_COST_PARAMS,
        machine: Optional[MachineModel] = None,
    ) -> None:
        self.topology = topology
        self.config = config or MiddlewareConfig()
        self.sim = Simulator(seed=seed)
        self.monitor = Monitor()

        anchor = self._pick_anchor(topology, supernode_host)
        self.supernode_host = anchor
        self.default_submitter = default_submitter or anchor

        self.latency_model = LatencyModel(
            topology,
            self.sim.rng.stream("net.latency"),
            noise_sigma_ms=self.config.noise_sigma_ms,
            load_of=self._busy_processes,
        )
        self.network = Network(self.sim, topology, latency=self.latency_model)
        self.app_env = AppEnv(
            topology=topology,
            machine=machine or MachineModel(),
            cost_params=cost_params,
        )

        prefs_for = prefs_for or (lambda host: OwnerPrefs.for_cores(host.cores))
        self.mpds: Dict[str, MPD] = {}
        for host in topology.all_hosts():
            self.mpds[host.name] = MPD(
                sim=self.sim,
                network=self.network,
                topology=topology,
                host=host,
                supernode_host=anchor,
                latency_model=self.latency_model,
                prefs=prefs_for(host),
                config=self.config,
                app_env=self.app_env,
            )

        self.network.register(anchor)
        self.supernode = Supernode(
            self.network, anchor,
            stale_after_s=4 * self.config.alive_period_s,
        )
        self.sim.process(self.supernode.service())
        self.churn = ChurnInjector(self.sim, self.network,
                                   on_change=self._on_host_change)
        self._booted = False

    # ------------------------------------------------------------------
    # wiring helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _pick_anchor(topology: Topology, explicit: Optional[str]) -> str:
        if explicit is not None:
            if explicit not in topology.hosts:
                raise KeyError(f"unknown host {explicit!r}")
            return explicit
        if topology.hub is not None:
            return topology.hosts_in_site(topology.hub)[0].name
        return topology.all_hosts()[0].name

    def _busy_processes(self, host_name: str) -> int:
        mpd = self.mpds.get(host_name)
        return mpd.gatekeeper.busy_processes if mpd is not None else 0

    def _on_host_change(self, host_name: str, down: bool) -> None:
        mpd = self.mpds.get(host_name)
        if mpd is None:
            return
        if down:
            mpd.on_host_down()
            # The supernode is NOT told: it learns through missing
            # alive signals (staleness) or a submitter's REPORT_DEAD —
            # the paper's step-5 timeout path must do the detecting.
        else:
            # Revival: the host re-registers like a restarted mpiboot;
            # the supernode learns of the comeback through that message,
            # never through this (out-of-band) hook.
            mpd.on_host_up()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def boot(self, stagger_s: float = 0.0005) -> "P2PMPICluster":
        """``mpiboot`` every host; returns self when the overlay is up.

        Host ``i`` starts ``i * stagger_s`` after the call.
        """
        if self._booted:
            return self
        procs = [
            self.sim.process(mpd.boot(), delay=i * stagger_s)
            for i, mpd in enumerate(self.mpds.values())
        ]
        self.sim.run_until_complete(self.sim.all_of(procs))
        self._booted = True
        return self

    # ------------------------------------------------------------------
    # submissions
    # ------------------------------------------------------------------
    def mpd(self, host_name: Optional[str] = None) -> MPD:
        return self.mpds[host_name or self.default_submitter]

    def submit_and_run(self, request: JobRequest,
                       submitter: Optional[str] = None) -> JobResult:
        """Run one ``p2pmpirun`` invocation to completion."""
        if not self._booted:
            self.boot()
        mpd = self.mpd(submitter)
        proc = self.sim.process(mpd.submit_job(request))
        result: JobResult = self.sim.run_until_complete(proc)
        self.monitor.record(
            self.sim.now, "job", result.status.value,
            strategy=request.strategy, n=request.n, r=request.r,
            tag=request.tag,
        )
        return result

    def submit_many(self, requests: Sequence[JobRequest],
                    submitter: Optional[str] = None) -> List[JobResult]:
        """Run several submissions back to back (sequentially)."""
        return [self.submit_and_run(req, submitter=submitter)
                for req in requests]

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    def kill_hosts(self, host_names: Sequence[str], at_s: Optional[float] = None):
        """Crash hosts now or at an absolute simulation time."""
        when = self.sim.now if at_s is None else at_s
        schedule = [FailureEvent(when, name, True) for name in sorted(host_names)]
        return self.churn.start(schedule)

    def alive_hosts(self) -> List[str]:
        return [name for name in self.mpds if not self.network.is_down(name)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<P2PMPICluster hosts={len(self.mpds)} "
                f"booted={self._booted} t={self.sim.now:.3f}>")


def build_grid5000_cluster(
    seed: int = 0,
    config: Optional[MiddlewareConfig] = None,
    cost_params: CostParams = DEFAULT_COST_PARAMS,
    boot: bool = True,
) -> P2PMPICluster:
    """The paper's testbed: Grid'5000 with submissions from nancy."""
    topology = build_topology()
    cluster = P2PMPICluster(
        topology,
        seed=seed,
        config=config,
        supernode_host="grelon-1.nancy",
        default_submitter="grelon-1.nancy",
        cost_params=cost_params,
    )
    return cluster.boot() if boot else cluster


def build_latratio_cluster(
    seed: int = 0,
    config: Optional[MiddlewareConfig] = None,
    cost_params: CostParams = DEFAULT_COST_PARAMS,
    boot: bool = True,
    latency_ratio: float = 121.6,
) -> P2PMPICluster:
    """The paper's testbed with a tunable intra/inter-site latency ratio.

    ``latency_ratio`` is the ratio of the reference WAN RTT (nancy-lyon,
    the nearest remote site) to the LAN RTT; the paper's own setting is
    10.576 / 0.087 ≈ 121.6.  Smaller ratios flatten the grid towards
    one big LAN (site locality stops mattering); larger ones deepen the
    site hierarchy.  WAN RTTs stay at the measured values — only the
    LAN leg moves — so the allocation-relevant site *ranking* is
    preserved across the whole axis.
    """
    if latency_ratio <= 0:
        raise ValueError("latency_ratio must be > 0")
    from repro.grid5000.sites import SITE_RTT_MS_FROM_NANCY

    lan_rtt_ms = SITE_RTT_MS_FROM_NANCY["lyon"] / latency_ratio
    topology = build_topology(lan_rtt_ms=lan_rtt_ms)
    cluster = P2PMPICluster(
        topology,
        seed=seed,
        config=config,
        supernode_host="grelon-1.nancy",
        default_submitter="grelon-1.nancy",
        cost_params=cost_params,
    )
    return cluster.boot() if boot else cluster


def build_small_cluster(
    seed: int = 0,
    config: Optional[MiddlewareConfig] = None,
    cost_params: CostParams = DEFAULT_COST_PARAMS,
    boot: bool = True,
) -> P2PMPICluster:
    """A 3-site / 10-host / 28-core grid for fast engine runs and tests.

    alpha (hub): 4 hosts x 4 cores, beta: 4 x 2 (10 ms),
    gamma: 2 x 2 (20 ms) — the same shape the protocol tests use.
    """
    sites = [
        Site("alpha", (Cluster("a1", "alpha", "X", 4, 4, 16),)),
        Site("beta", (Cluster("b1", "beta", "X", 4, 4, 8),)),
        Site("gamma", (Cluster("g1", "gamma", "X", 2, 2, 4),)),
    ]
    topology = Topology(
        sites=sites,
        site_rtt_ms={("alpha", "beta"): 10.0, ("alpha", "gamma"): 20.0,
                     ("beta", "gamma"): 25.0},
        hub="alpha",
        lan_rtt_ms=0.1,
    )
    cluster = P2PMPICluster(
        topology,
        seed=seed,
        config=config or MiddlewareConfig(noise_sigma_ms=0.05),
        supernode_host="a1-1.alpha",
        default_submitter="a1-1.alpha",
        cost_params=cost_params,
    )
    return cluster.boot() if boot else cluster


def build_scale_free_cluster(
    seed: int = 0,
    config: Optional[MiddlewareConfig] = None,
    cost_params: CostParams = DEFAULT_COST_PARAMS,
    boot: bool = True,
    sites: int = 20,
    m: int = 2,
    hosts_per_site: int = 2,
    cores_per_host: int = 4,
    topo_seed: int = 0,
) -> P2PMPICluster:
    """A routed Barabási–Albert federation (see repro.net.families)."""
    from repro.net.families import scale_free_topology

    topology = scale_free_topology(
        sites=sites, m=m, hosts_per_site=hosts_per_site,
        cores_per_host=cores_per_host, topo_seed=topo_seed)
    cluster = P2PMPICluster(topology, seed=seed, config=config,
                            cost_params=cost_params)
    return cluster.boot() if boot else cluster


def build_small_world_cluster(
    seed: int = 0,
    config: Optional[MiddlewareConfig] = None,
    cost_params: CostParams = DEFAULT_COST_PARAMS,
    boot: bool = True,
    sites: int = 20,
    k: int = 4,
    rewire_p: float = 0.1,
    hosts_per_site: int = 2,
    cores_per_host: int = 4,
    topo_seed: int = 0,
) -> P2PMPICluster:
    """A routed Watts–Strogatz federation (see repro.net.families)."""
    from repro.net.families import small_world_topology

    topology = small_world_topology(
        sites=sites, k=k, rewire_p=rewire_p,
        hosts_per_site=hosts_per_site, cores_per_host=cores_per_host,
        topo_seed=topo_seed)
    cluster = P2PMPICluster(topology, seed=seed, config=config,
                            cost_params=cost_params)
    return cluster.boot() if boot else cluster


def build_fat_sites_cluster(
    seed: int = 0,
    config: Optional[MiddlewareConfig] = None,
    cost_params: CostParams = DEFAULT_COST_PARAMS,
    boot: bool = True,
    sites: int = 100,
    router_groups: int = 8,
    hosts_per_site: int = 1,
    cores_per_host: int = 4,
    failed: Tuple[str, ...] = (),
    topo_seed: int = 0,
) -> P2PMPICluster:
    """Hundreds of sites dual-homed on a router core, with optional
    ``failed`` router/site exclusion (see repro.net.families)."""
    from repro.net.families import fat_sites_topology

    topology = fat_sites_topology(
        sites=sites, router_groups=router_groups,
        hosts_per_site=hosts_per_site, cores_per_host=cores_per_host,
        failed=tuple(failed), topo_seed=topo_seed)
    cluster = P2PMPICluster(topology, seed=seed, config=config,
                            cost_params=cost_params)
    return cluster.boot() if boot else cluster


# ---------------------------------------------------------------------------
# Topology-family registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyParam:
    """One declared parameter of a :class:`TopologyFamily`."""

    name: str
    default: object = None
    doc: str = ""


@dataclass(frozen=True)
class TopologyFamily:
    """A declarative, seedable cluster recipe (DESIGN.md §14).

    The family carries its parameter schema, so a
    :class:`ClusterSpec` naming an unknown parameter fails at
    *spec-construction* time — in the driver process, with the family's
    accepted names in the message — instead of as a ``TypeError`` deep
    inside a sweep worker.

    ``builder`` must be a module-level callable (specs cross process
    boundaries) with signature
    ``builder(seed=..., config=..., boot=..., **params)``; ``seed`` is
    the simulation master seed, while topology-shaping randomness goes
    through the family's own ``topo_seed``-style parameters so a
    campaign can pin one generated topology across many cells.
    """

    name: str
    builder: Callable[..., P2PMPICluster]
    params: Tuple[FamilyParam, ...] = ()
    doc: str = ""

    def param_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def defaults(self) -> Dict[str, object]:
        return {p.name: p.default for p in self.params}

    def validate(self, params: Mapping[str, object]) -> None:
        """Reject parameters the family does not declare."""
        unknown = sorted(set(params) - set(self.param_names()))
        if unknown:
            accepted = sorted(self.param_names())
            raise ValueError(
                f"unknown parameter(s) {unknown} for topology family "
                f"{self.name!r} (accepted: {accepted})")

    def build(self, seed: int = 0,
              config: Optional[MiddlewareConfig] = None,
              boot: bool = True, **params: object) -> P2PMPICluster:
        """Validate ``params`` and instantiate the recipe."""
        self.validate(params)
        return self.builder(seed=seed, config=config, boot=boot, **params)


#: Registered topology families.  Registration must happen at import
#: time of a module the sweep workers also import (e.g. the module
#: defining the cell runner): under ``spawn``/``forkserver`` start
#: methods a worker re-imports from scratch, so registrations done only
#: in the parent process would not exist there.
_FAMILIES: Dict[str, TopologyFamily] = {}


def register_family(family: TopologyFamily) -> TopologyFamily:
    """Register (or re-register) a topology family by name."""
    _FAMILIES[family.name] = family
    return family


def get_family(name: str) -> TopologyFamily:
    family = _FAMILIES.get(name)
    if family is None:
        raise KeyError(f"unknown topology family {name!r} "
                       f"(registered: {family_names()})")
    return family


def family_names() -> List[str]:
    return sorted(_FAMILIES)


def _gen_common(hosts_per_site: int) -> Tuple[FamilyParam, ...]:
    """Parameters every generated family shares."""
    return (
        FamilyParam("hosts_per_site", hosts_per_site,
                    "hosts per generated site"),
        FamilyParam("cores_per_host", 4, "cores per host"),
        FamilyParam("topo_seed", 0, "seed shaping the generated graph "
                    "(independent of the simulation master seed)"),
    )


register_family(TopologyFamily(
    name="grid5000", builder=build_grid5000_cluster,
    doc="the paper's 6-site Grid'5000 testbed (flat, measured RTTs)"))
register_family(TopologyFamily(
    name="grid5000-latratio", builder=build_latratio_cluster,
    params=(FamilyParam("latency_ratio", 121.6,
                        "reference WAN RTT over LAN RTT"),),
    doc="Grid'5000 with a tunable intra/inter-site latency ratio"))
register_family(TopologyFamily(
    name="small", builder=build_small_cluster,
    doc="3-site / 10-host / 28-core grid for fast runs and tests"))
register_family(TopologyFamily(
    name="scale_free", builder=build_scale_free_cluster,
    params=(FamilyParam("sites", 20, "number of sites"),
            FamilyParam("m", 2, "Barabási–Albert attachment count"),
            ) + _gen_common(2),
    doc="routed Barabási–Albert site graph (hub-and-spoke contention)"))
register_family(TopologyFamily(
    name="small_world", builder=build_small_world_cluster,
    params=(FamilyParam("sites", 20, "number of sites"),
            FamilyParam("k", 4, "ring degree"),
            FamilyParam("rewire_p", 0.1, "shortcut rewiring probability"),
            ) + _gen_common(2),
    doc="routed Watts–Strogatz site graph (ring plus shortcuts)"))
register_family(TopologyFamily(
    name="fat_sites", builder=build_fat_sites_cluster,
    params=(FamilyParam("sites", 100, "number of sites"),
            FamilyParam("router_groups", 8, "routers in the core ring"),
            FamilyParam("failed", (), "router/site names to exclude"),
            ) + _gen_common(1),
    doc="hundreds of sites dual-homed on a router core (+ failures)"))


@dataclass(frozen=True)
class ClusterSpec:
    """A picklable recipe for building a :class:`P2PMPICluster`.

    The experiment engine ships one of these to every sweep cell —
    possibly across process boundaries — so a cell can build its own
    private cluster from ``(kind, config, per-cell seed)`` instead of
    sharing a live (unpicklable) simulator.

    Attributes
    ----------
    kind:
        A :class:`TopologyFamily` name registered through
        :func:`register_family` (``grid5000``, ``grid5000-latratio``,
        ``small``, ``scale_free``, ``small_world`` and ``fat_sites``
        are built in).
    config:
        Optional middleware tuning applied to every host.
    boot:
        Whether :meth:`build` returns a booted overlay (default).
    params:
        Family parameters, as a sorted tuple of ``(name, value)``
        pairs so the spec stays hashable/picklable — e.g.
        ``(("latency_ratio", 10.0),)`` for ``grid5000-latratio``.
        Validated against the family's declared schema here, at
        construction time, so a typo fails in the driver process
        instead of deep inside a sweep worker.
    """

    kind: str = "grid5000"
    config: Optional[MiddlewareConfig] = None
    boot: bool = True
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        family = _FAMILIES.get(self.kind)
        if family is None:
            raise ValueError(f"unknown topology family {self.kind!r} "
                             f"(registered: {family_names()})")
        if tuple(sorted(self.params)) != tuple(self.params):
            raise ValueError("params must be sorted (name, value) pairs")
        family.validate(dict(self.params))

    def build(self, seed: int = 0) -> P2PMPICluster:
        """Instantiate the recipe with ``seed`` as the master seed."""
        family = _FAMILIES.get(self.kind)
        if family is None:
            # Unpickling bypasses __post_init__, so a spec for a family
            # the worker process never registered lands here.
            raise ValueError(
                f"topology family {self.kind!r} is not registered in "
                f"this process (registered: {family_names()}); register "
                f"it at import time of the cell-runner module")
        return family.build(seed=seed, config=self.config, boot=self.boot,
                            **dict(self.params))

    def with_config(self, config: Optional[MiddlewareConfig]) -> "ClusterSpec":
        return dataclasses.replace(self, config=config)

    def with_params(self, **params: object) -> "ClusterSpec":
        """A copy with extra builder arguments merged in (and sorted)."""
        merged = dict(self.params)
        merged.update(params)
        return dataclasses.replace(self, params=tuple(sorted(merged.items())))

    def fingerprint(self) -> Dict[str, object]:
        """Code-relevant identity for result-store content hashing."""
        return {
            "kind": self.kind,
            "config": (None if self.config is None
                       else dataclasses.asdict(self.config)),
            "boot": self.boot,
            "params": [list(pair) for pair in self.params],
        }
