"""Shared fixtures: small topologies and booted clusters."""

from __future__ import annotations

import pytest

from repro.cluster import P2PMPICluster
from repro.net.topology import Cluster, Site, Topology
from repro.sim.core import Simulator


def make_small_topology(lan_rtt_ms: float = 0.1) -> Topology:
    """Three sites, 10 hosts, 24 cores — fast protocol tests.

    alpha: 4 hosts x 4 cores (close), beta: 4 x 2 (10 ms),
    gamma: 2 x 2 (20 ms).
    """
    sites = [
        Site("alpha", (Cluster("a1", "alpha", "X", 4, 4, 16),)),
        Site("beta", (Cluster("b1", "beta", "X", 4, 4, 8),)),
        Site("gamma", (Cluster("g1", "gamma", "X", 2, 2, 4),)),
    ]
    return Topology(
        sites=sites,
        site_rtt_ms={("alpha", "beta"): 10.0, ("alpha", "gamma"): 20.0,
                     ("beta", "gamma"): 25.0},
        hub="alpha",
        lan_rtt_ms=lan_rtt_ms,
    )


def simulate_kill(store, spec, finished) -> None:
    """Leave ``store`` as a run of ``spec`` killed after the
    ``finished`` cells leaves it: no view, those cells pooled and
    checkpointed, no other cell pooled."""
    store.path_for(spec).unlink()
    done = {cell.key for cell in finished}
    for key, address in spec.pool_addresses(spec.cells()).items():
        if key not in done:
            store.pool_path(address).unlink(missing_ok=True)
    store.append_partial(spec, finished)


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=7)


@pytest.fixture
def small_topology() -> Topology:
    return make_small_topology()


@pytest.fixture
def small_cluster(small_topology) -> P2PMPICluster:
    """Booted 10-host cluster with deterministic, low-noise latency."""
    from repro.middleware.config import MiddlewareConfig

    cluster = P2PMPICluster(
        small_topology,
        seed=11,
        config=MiddlewareConfig(noise_sigma_ms=0.05),
        supernode_host="a1-1.alpha",
        default_submitter="a1-1.alpha",
    )
    return cluster.boot()
