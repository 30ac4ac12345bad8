"""Per-link routed contention, and the flat model's bit-exact pin.

Routed topologies count crossing flows on every link a route
traverses, so one router chord aggregates the load of all site pairs
sharing it; a pair's contended bandwidth is the narrowest per-flow
slice along its route.  The flat Grid'5000 model must keep producing
*exactly* the numbers it produced before routing existed — each flat
pair owns a private 1-hop link, so per-link counting degenerates to
the old per-pair counting bit for bit (pinned against literals below).
"""

import random

import pytest

from repro.grid5000.builder import build_topology
from repro.net.contention import ContentionModel
from repro.net.topology import Cluster, Link, Site, Topology


def _site(name, hosts=4, cores=2):
    return Site(name, (Cluster(f"c-{name}", name, "X", nodes=hosts,
                               cpus=hosts, cores=hosts * cores),))


@pytest.fixture
def star():
    """Three sites homed onto one router — every route shares links."""
    return Topology(
        sites=[_site("x"), _site("y"), _site("z")],
        links=[Link("x", "r", 1.0, 10.0e9),
               Link("y", "r", 1.0, 10.0e9),
               Link("z", "r", 1.0, 2.0e9)],
        transit=("r",))


def _plan(topo, census):
    hosts = []
    for site, n in census.items():
        pool = topo.hosts_in_site(site)
        hosts += [pool[i % len(pool)] for i in range(n)]
    return hosts


class TestRoutedPlanContention:
    def test_link_loads_aggregate_routes(self, star):
        plan = _plan(star, {"x": 2, "y": 3, "z": 1})
        contention = ContentionModel(star).plan(plan)
        # Pair flows: x-y min(2,3)=2, x-z min(2,1)=1, y-z min(3,1)=1.
        assert contention.link_loads() == {
            ("r", "x"): 3, ("r", "y"): 3, ("r", "z"): 2}
        assert contention.max_crossing_pairs() == 3

    def test_pair_bw_is_narrowest_slice(self, star):
        plan = _plan(star, {"x": 2, "y": 3, "z": 1})
        contention = ContentionModel(star).plan(plan)
        a = star.hosts_in_site("x")[0]
        b = star.hosts_in_site("y")[0]
        c = star.hosts_in_site("z")[0]
        # x-y: min over x-r (10G/3) and y-r (10G/3), NIC-clamped to 1G.
        assert contention.pair_bw_bps(a, b) == min(1.0e9, 10.0e9 / 3)
        # x-z: the 2 G access link divided by its 2 flows is the
        # bottleneck (and matches the NIC clamp exactly).
        assert contention.pair_bw_bps(a, c) == min(1.0e9, 2.0e9 / 2)

    def test_links_report_sorted(self, star):
        plan = _plan(star, {"x": 1, "y": 1})
        report = ContentionModel(star).plan(plan).links()
        assert [lc.link for lc in report] == [("r", "x"), ("r", "y")]
        assert all(lc.crossing_pairs == 1 for lc in report)
        assert report[0].backbone_bps == 10.0e9

    def test_lone_flow_keeps_nic_rate(self, star):
        plan = _plan(star, {"x": 1, "z": 1})
        contention = ContentionModel(star).plan(plan)
        a = star.hosts_in_site("x")[0]
        c = star.hosts_in_site("z")[0]
        assert contention.pair_bw_bps(a, c) == star.bandwidth_bps(a, c)

    def test_multi_copy_counts(self, star):
        x = star.hosts_in_site("x")[0]
        y = star.hosts_in_site("y")[0]
        model = ContentionModel(star)
        assert model.plan([x] * 8 + [y] * 4).link_loads() == {
            ("r", "x"): 4, ("r", "y"): 4}
        assert model.plan([x] * 8).link_loads() == {}


class TestFlatGrid5000Pin:
    """Bit-identity: the flat paper testbed before == after routing.

    The literals are the pre-routing implementation's outputs for one
    representative §5.1-style plan; any arithmetic drift in the shared
    code paths fails exact equality.
    """

    def _contention(self):
        topo = build_topology()
        plan = ([h for h in topo.hosts_in_site("nancy")[:10]
                 for _ in range(4)]
                + [h for h in topo.hosts_in_site("lyon")[:5]
                   for _ in range(4)]
                + [h for h in topo.hosts_in_site("bordeaux")[:3]])
        return topo, ContentionModel(topo).plan(plan)

    def test_crossing_pairs_exact(self):
        _, contention = self._contention()
        assert contention.crossing == (
            (("bordeaux", "lyon"), 3),
            (("bordeaux", "nancy"), 3),
            (("lyon", "nancy"), 20),
        )
        assert contention.max_crossing_pairs() == 20
        # Flat: per-link loads ARE the per-pair crossing counts.
        assert contention.link_loads() == dict(contention.crossing)

    def test_pair_bw_exact(self):
        topo, contention = self._contention()
        nancy = topo.hosts_in_site("nancy")
        lyon = topo.hosts_in_site("lyon")[0]
        bordeaux = topo.hosts_in_site("bordeaux")[0]
        assert contention.pair_bw_bps(nancy[0], lyon) == 500000000.0
        assert contention.pair_bw_bps(nancy[0], bordeaux) == 3e9 / 9
        assert contention.pair_bw_bps(lyon, bordeaux) == 3e9 / 9
        assert contention.pair_bw_bps(nancy[0], nancy[1]) == 1000000000.0

    def test_flat_is_one_hop_special_case(self):
        """A flat topology rebuilt as explicit private links produces
        identical contention — the reduction the refactor relies on."""
        topo, contention = self._contention()
        sites = [s for s in sorted(topo.sites)]
        links = [Link(a, b, rtt_ms=topo.site_rtt_ms(a, b),
                      bandwidth_bps=topo.link_bandwidth_bps((a, b)))
                 for i, a in enumerate(sites) for b in sites[i + 1:]]
        rebuilt = Topology(
            sites=[topo.sites[s] for s in sites], links=links,
            lan_rtt_ms=topo.lan_rtt_ms, lan_bw_bps=topo.lan_bw_bps)
        plan = ([h for h in rebuilt.hosts_in_site("nancy")[:10]
                 for _ in range(4)]
                + [h for h in rebuilt.hosts_in_site("lyon")[:5]
                   for _ in range(4)]
                + [h for h in rebuilt.hosts_in_site("bordeaux")[:3]])
        routed = ContentionModel(rebuilt).plan(plan)
        assert routed.link_loads() == contention.link_loads()
        for a, b in [("nancy", "lyon"), ("nancy", "bordeaux"),
                     ("lyon", "bordeaux")]:
            assert (routed.pair_bw_bps(rebuilt.hosts_in_site(a)[0],
                                       rebuilt.hosts_in_site(b)[0])
                    == contention.pair_bw_bps(topo.hosts_in_site(a)[0],
                                              topo.hosts_in_site(b)[0]))
