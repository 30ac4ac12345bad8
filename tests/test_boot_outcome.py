"""Pin what a cluster boot leaves behind.

A boot registers every host with the supernode and seeds each host's
peer cache from the reply.  The digest below covers the registration
order, every ``last_seen`` stamp, every cache's order, the clock after
boot and the state of the ``net.latency`` stream.  Any change to the
boot's event order or to its latency draws moves it, so the pinned
values prove a cheaper boot is still the same boot.
"""

import hashlib
import json

import pytest

from repro.cluster import build_grid5000_cluster, build_small_cluster


def boot_digest(cluster) -> str:
    sn = cluster.supernode
    doc = {
        "registered": list(sn.records),
        "last_seen": [repr(r.last_seen) for r in sn.records.values()],
        "caches": {name: [h.name for h in mpd.peer.cache.hosts()]
                   for name, mpd in cluster.mpds.items()},
        "now": repr(cluster.sim.now),
        "rng": json.loads(json.dumps(
            cluster.latency_model.rng.bit_generator.state, default=str)),
    }
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("build, expected", [
    (build_grid5000_cluster,
     "24aa44c00d55768d31e4e43367d761e295cfc86c31405a40b12ccd0d0e626d80"),
    (build_small_cluster,
     "e222f87eeb83197fc7e743f014556ba0c2bb6f3291cf84febf344507f37699ee"),
])
def test_boot_outcome_is_pinned(build, expected):
    assert boot_digest(build(seed=0)) == expected


def boot_work(seed: int = 0) -> dict:
    """Boot one grid5000 cluster and count what the boot did: the
    ``Topology.host`` lookups, the processes started and the events
    processed (instance attributes shadow the methods while it runs)."""
    cluster = build_grid5000_cluster(seed=seed, boot=False)
    topo, sim = cluster.topology, cluster.sim
    lookup, start = topo.host, sim.process
    counts = {"host_calls": 0, "processes": 0}

    def counting_host(name):
        counts["host_calls"] += 1
        return lookup(name)

    def counting_process(*args, **kwargs):
        counts["processes"] += 1
        return start(*args, **kwargs)

    topo.host, sim.process = counting_host, counting_process
    events_before = sim.events_processed
    try:
        cluster.boot()
    finally:
        del topo.host, sim.process
    counts["events"] = sim.events_processed - events_before
    counts["hosts"] = topo.n_hosts
    return counts


def test_grid5000_boot_work_is_linear_in_hosts():
    """A boot looks each host up a bounded number of times and runs no
    per-host wrapper timeout: the REGISTER / REGISTER_ACK pair costs
    four lookups per host, and the reply hands over ``Host`` objects."""
    work = boot_work()
    assert work["hosts"] == 350
    assert work["host_calls"] <= 4 * work["hosts"]
    assert work["events"] <= 3502
