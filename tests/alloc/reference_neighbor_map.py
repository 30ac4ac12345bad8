"""Pairwise reference of :func:`repro.alloc.diffusive.neighbor_map`.

:func:`reference_neighbor_map` is the original host-pair loop: one
:meth:`~repro.net.topology.Topology.path_metrics` call per ordered
pair of live hosts, each host's candidates fully sorted on
``(rtt, name)``.  It is the equivalence oracle of
``tests/alloc/test_neighbor_map_equivalence.py``; the production
function ranks per site and must return the same map, key order
included.
"""

from typing import Dict, Iterable, List, Tuple

from repro.net.topology import Topology


def reference_neighbor_map(
    topology: Topology,
    host_names: Iterable[str],
    k: int,
) -> Dict[str, List[str]]:
    """k-nearest-neighbor map over ``host_names`` by path RTT.

    Deterministic: ties break on host name.  Hosts unknown to the
    topology raise ``KeyError`` — a neighbor map over phantom hosts is
    a bug upstream, not something to paper over.
    """
    hosts = {name: topology.host(name) for name in host_names}
    out: Dict[str, List[str]] = {}
    for name in sorted(hosts):
        ranked: List[Tuple[float, str]] = []
        for other in sorted(hosts):
            if other == name:
                continue
            pm = topology.path_metrics(hosts[name], hosts[other])
            ranked.append((pm.rtt_ms, other))
        ranked.sort()
        out[name] = [other for _rtt, other in ranked[: max(0, k)]]
    return out
