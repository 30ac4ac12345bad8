"""Topology invariants."""

import pytest

from repro.net.topology import Cluster, Site, Topology


class TestCluster:
    def test_cores_per_node(self):
        c = Cluster("c", "s", "X", nodes=4, cpus=8, cores=16)
        assert c.cores_per_node == 4

    def test_indivisible_cores_rejected(self):
        c = Cluster("c", "s", "X", nodes=3, cpus=3, cores=4)
        with pytest.raises(ValueError):
            _ = c.cores_per_node

    def test_hosts_materialisation(self):
        c = Cluster("c", "s", "X", nodes=2, cpus=2, cores=4, speed=1.5)
        hosts = c.hosts()
        assert [h.name for h in hosts] == ["c-1.s", "c-2.s"]
        assert all(h.cores == 2 and h.speed == 1.5 for h in hosts)


class TestTopology:
    def test_counts(self, small_topology):
        assert small_topology.n_hosts == 10
        assert small_topology.n_cores == 28

    def test_site_counts(self, small_topology):
        assert small_topology.sites["alpha"].n_hosts == 4
        assert small_topology.sites["alpha"].n_cores == 16

    def test_duplicate_site_rejected(self):
        site = Site("s", (Cluster("c", "s", "X", 1, 1, 1),))
        with pytest.raises(ValueError):
            Topology(sites=[site, site])

    def test_base_rtt_same_host_zero(self, small_topology):
        h = small_topology.host("a1-1.alpha")
        assert small_topology.base_rtt_ms(h, h) == 0.0

    def test_base_rtt_lan(self, small_topology):
        a = small_topology.host("a1-1.alpha")
        b = small_topology.host("a1-2.alpha")
        assert small_topology.base_rtt_ms(a, b) == pytest.approx(0.1)

    def test_base_rtt_wan(self, small_topology):
        a = small_topology.host("a1-1.alpha")
        b = small_topology.host("b1-1.beta")
        assert small_topology.base_rtt_ms(a, b) == pytest.approx(10.0)

    def test_rtt_symmetric(self, small_topology):
        a = small_topology.host("a1-1.alpha")
        b = small_topology.host("g1-1.gamma")
        assert (small_topology.base_rtt_ms(a, b)
                == small_topology.base_rtt_ms(b, a))

    def test_hub_fills_missing_pairs(self):
        sites = [
            Site("hub", (Cluster("h", "hub", "X", 1, 1, 1),)),
            Site("s1", (Cluster("c1", "s1", "X", 1, 1, 1),)),
            Site("s2", (Cluster("c2", "s2", "X", 1, 1, 1),)),
        ]
        topo = Topology(
            sites=sites,
            site_rtt_ms={("hub", "s1"): 5.0, ("hub", "s2"): 7.0},
            hub="hub",
        )
        assert topo.site_rtt_ms("s1", "s2") == pytest.approx(12.0)

    def test_missing_rtt_raises(self):
        sites = [
            Site("s1", (Cluster("c1", "s1", "X", 1, 1, 1),)),
            Site("s2", (Cluster("c2", "s2", "X", 1, 1, 1),)),
        ]
        topo = Topology(sites=sites)
        a, b = topo.host("c1-1.s1"), topo.host("c2-1.s2")
        with pytest.raises(KeyError):
            topo.base_rtt_ms(a, b)
        for _ in range(2):  # a miss is never memoized
            with pytest.raises(KeyError):
                topo.site_path_metrics("s2", "s1")

    def test_flat_site_path_metrics_is_symmetric(self, small_topology):
        for a, b in [("alpha", "beta"), ("gamma", "beta"),
                     ("alpha", "gamma")]:
            for _ in range(2):  # fresh, then memoized
                ab = small_topology.site_path_metrics(a, b)
                ba = small_topology.site_path_metrics(b, a)
                assert ab == ba
                assert ab.links == (tuple(sorted((a, b))),)
                assert ab.rtt_ms == small_topology.site_rtt_ms(a, b)

    def test_bandwidth_lan_bounds_wan(self, small_topology):
        a = small_topology.host("a1-1.alpha")
        b = small_topology.host("b1-1.beta")
        assert (small_topology.bandwidth_bps(a, b)
                <= small_topology.lan_bw_bps)

    def test_bandwidth_same_host_infinite(self, small_topology):
        h = small_topology.host("a1-1.alpha")
        assert small_topology.bandwidth_bps(h, h) == float("inf")

    def test_all_hosts_deterministic_order(self, small_topology):
        names = [h.name for h in small_topology.all_hosts()]
        assert names == sorted(names, key=lambda n: (n.split(".")[1], n))
        assert len(names) == 10

    def test_link_key_canonical(self, small_topology):
        a = small_topology.host("a1-1.alpha")
        b = small_topology.host("b1-1.beta")
        assert (small_topology.link_key(a, b)
                == small_topology.link_key(b, a))

    def test_summary_mentions_all_sites(self, small_topology):
        text = small_topology.summary()
        for site in ("alpha", "beta", "gamma"):
            assert site in text

    def test_unknown_site_query_raises(self, small_topology):
        with pytest.raises(KeyError):
            small_topology.hosts_in_site("nowhere")
