"""Network substrate: topology, latency/bandwidth models, transport.

This package simulates the wide-area federation the paper's testbed
(Grid'5000) provides physically.  Layering:

* :mod:`~repro.net.topology` — static description: sites, clusters,
  hosts, per-site-pair RTT and bandwidth; flat (private per-pair
  backbones) or routed (explicit links, shortest-RTT multi-hop paths)
  behind one ``path_metrics`` facade.
* :mod:`~repro.net.families` — generated complex-network topologies
  (scale_free, small_world, fat_sites), deterministic per seed.
* :mod:`~repro.net.latency` — stochastic *measured* latency: the paper's
  application-level (non-ICMP) ping observes base RTT plus CPU/TCP load
  noise; this module models that perturbation and the EWMA smoothing
  P2P-MPI's future work calls for.
* :mod:`~repro.net.bandwidth` — per-link flow counting and effective
  bandwidth under contention.
* :mod:`~repro.net.contention` — plan-dependent WAN backbone sharing,
  the one home of the contention rule: crossing flows per site pair,
  their per-link loads, and each pair's contended bandwidth.  The
  experiment packs score plans with it, and the cost model prices
  collectives with its two per-link helpers.
* :mod:`~repro.net.transport` — message delivery between host inboxes
  with latency + serialization + contention delays.
* :mod:`~repro.net.ping` — round-trip measurement probes built on the
  transport, and the fast analytic estimator used at scale.
"""

from repro.net.topology import (Cluster, Host, Link, PathMetrics, Site,
                                Topology)
from repro.net.families import (fat_sites_topology, scale_free_topology,
                                small_world_topology)
from repro.net.latency import LatencyModel, LatencyEstimate
from repro.net.bandwidth import BandwidthAllocator
from repro.net.contention import (ContentionModel, LinkContention,
                                  PlanContention, WAN_CONTENTION_FACTOR)
from repro.net.transport import Message, Network
from repro.net.ping import PingService

__all__ = [
    "Cluster",
    "Host",
    "Link",
    "PathMetrics",
    "Site",
    "Topology",
    "scale_free_topology",
    "small_world_topology",
    "fat_sites_topology",
    "LatencyModel",
    "LatencyEstimate",
    "BandwidthAllocator",
    "ContentionModel",
    "LinkContention",
    "PlanContention",
    "WAN_CONTENTION_FACTOR",
    "Message",
    "Network",
    "PingService",
]
