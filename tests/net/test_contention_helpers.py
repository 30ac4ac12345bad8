"""The shared contention rule: ``sum_link_loads`` and ``narrowest_share_bps``.

Both :class:`~repro.net.contention.PlanContention` and the cost model's
``GroupLayout._plan_shares`` price backbone sharing through these two
helpers, so they are checked directly here: against link-major
reference loops written out in the test, for monotonicity in the load,
and — through both callers — for agreement on the flat testbed, the
three routed families and a widened copy census.
"""

import dataclasses
import random
from collections import Counter

import pytest

from repro.cluster import DEFAULT_COST_PARAMS
from repro.grid5000.builder import build_topology
from repro.mpi.costmodel import (WAN_CONTENTION_MODES, CollectiveCostModel,
                                 CostParams)
from repro.net.contention import (WAN_CONTENTION_FACTOR, ContentionModel,
                                  narrowest_share_bps, sum_link_loads)
from repro.net.families import (fat_sites_topology, scale_free_topology,
                                small_world_topology)
from repro.net.topology import Cluster, Link, Site, Topology

FAMILIES = {
    "grid5000": build_topology,
    "scale_free": lambda: scale_free_topology(sites=8, topo_seed=3),
    "small_world": lambda: small_world_topology(sites=8, topo_seed=3),
    "fat_sites": lambda: fat_sites_topology(sites=10, router_groups=4,
                                            topo_seed=3),
}
_BUILT = {}


def topology_of(family):
    if family not in _BUILT:
        _BUILT[family] = FAMILIES[family]()
    return _BUILT[family]


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


def site_pairs(topology):
    sites = sorted(topology.sites)
    return [(a, b) for i, a in enumerate(sites) for b in sites[i + 1:]]


def random_copies(rng, topology, max_copies=60):
    """A random copy multiset over 2+ sites (duplicates = co-located)."""
    sites = sorted(topology.sites)
    chosen = rng.sample(sites, rng.randint(2, len(sites)))
    pool = [h for s in chosen for h in topology.hosts_in_site(s)]
    return [rng.choice(pool) for _ in range(rng.randint(2, max_copies))]


def reference_link_loads(topology, crossing):
    """Link-major oracle: for each backbone link any route uses, sum
    the flows of every site pair whose route traverses it."""
    crossing = list(crossing)
    links = {link for a, b in site_pairs(topology)
             for link in topology.route_links(a, b)}
    out = {}
    for link in sorted(links):
        load = sum(flows for (a, b), flows in crossing
                   if link in topology.route_links(a, b))
        if load:
            out[link] = load
    return out


class TestSumLinkLoads:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_link_major_reference(self, family, seed):
        topo = topology_of(family)
        rng = random.Random(seed)
        model = ContentionModel(topo)
        for _plan in range(10):
            crossing = model.plan(random_copies(rng, topo)).crossing
            assert sum_link_loads(topo, crossing) == \
                reference_link_loads(topo, crossing)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_flat_loads_are_the_crossing_map(self, seed):
        """Each flat site pair owns its private 1-hop link."""
        topo = topology_of("grid5000")
        plan = ContentionModel(topo).plan(
            random_copies(random.Random(seed), topo))
        assert sum_link_loads(topo, plan.crossing) == {
            pair: flows for pair, flows in plan.crossing_pairs().items()
            if flows}

    def test_shared_links_sum_their_routes(self, star):
        loads = sum_link_loads(star, [(("x", "y"), 2), (("x", "z"), 1),
                                      (("y", "z"), 5)])
        assert loads == {("r", "x"): 3, ("r", "y"): 7, ("r", "z"): 6}

    def test_zero_flow_pairs_load_nothing(self, star):
        assert sum_link_loads(star, [(("x", "y"), 0), (("x", "z"), 3)]) \
            == {("r", "x"): 3, ("r", "z"): 3}

    def test_empty_crossing_is_empty(self, star):
        assert sum_link_loads(star, []) == {}

    def test_consumes_a_generator_once(self, star):
        """The cost model streams its crossing entries."""
        gen = ((pair, 1) for pair in [("x", "y"), ("y", "z")])
        assert sum_link_loads(star, gen) == {
            ("r", "x"): 1, ("r", "y"): 2, ("r", "z"): 1}


class TestNarrowestShare:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_is_the_narrowest_per_flow_slice(self, family):
        topo = topology_of(family)
        rng = random.Random(17)
        model = ContentionModel(topo)
        for _plan in range(10):
            loads = model.plan(random_copies(rng, topo)).link_loads()
            for a, b in site_pairs(topo):
                slices = [topo.link_bandwidth_bps(link)
                          / max(1, loads.get(link, 0))
                          for link in topo.route_links(a, b)]
                share = narrowest_share_bps(topo, loads, a, b)
                assert share in slices
                assert all(share <= s for s in slices)
                assert share == narrowest_share_bps(topo, loads, b, a)

    def test_lone_flow_gets_the_narrowest_capacity(self, star):
        loads = sum_link_loads(star, [(("x", "z"), 1)])
        assert narrowest_share_bps(star, loads, "x", "z") == 2.0e9

    def test_unloaded_route_divides_by_one(self, star):
        assert narrowest_share_bps(star, {}, "x", "y") == 10.0e9

    def test_foreign_load_narrows_a_shared_route(self, star):
        """y-z flows load r-y, so an x-y flow shares it with them."""
        loads = sum_link_loads(star, [(("x", "y"), 1), (("y", "z"), 4)])
        assert narrowest_share_bps(star, loads, "x", "y") == 10.0e9 / 5

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_non_increasing_as_copies_are_added(self, family):
        """One more copy never widens any site pair's share."""
        topo = topology_of(family)
        rng = random.Random(23)
        model = ContentionModel(topo)
        copies = random_copies(rng, topo, max_copies=10)
        before = model.plan(copies).link_loads()
        for _step in range(20):
            copies.append(rng.choice(copies))
            after = model.plan(copies).link_loads()
            for a, b in site_pairs(topo):
                assert (narrowest_share_bps(topo, after, a, b)
                        <= narrowest_share_bps(topo, before, a, b))
            before = after


class TestPlanContention:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_plan_is_order_invariant(self, family):
        topo = topology_of(family)
        rng = random.Random(31)
        model = ContentionModel(topo)
        for _plan in range(10):
            copies = random_copies(rng, topo)
            shuffled = copies[:]
            rng.shuffle(shuffled)
            assert model.plan(shuffled) == model.plan(copies)
            assert model.plan(shuffled).link_loads() == \
                model.plan(copies).link_loads()

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_pair_bw_is_the_path_clamped_share(self, family):
        topo = topology_of(family)
        rng = random.Random(37)
        model = ContentionModel(topo)
        for _plan in range(10):
            plan = model.plan(random_copies(rng, topo))
            loads = sum_link_loads(topo, plan.crossing)
            for a, b in site_pairs(topo):
                ha = topo.site_representative(a)
                hb = topo.site_representative(b)
                assert plan.pair_bw_bps(ha, hb) == min(
                    topo.bandwidth_bps(ha, hb),
                    narrowest_share_bps(topo, loads, a, b))


def cost_model(topo, mode="plan"):
    return CollectiveCostModel(
        topo, dataclasses.replace(DEFAULT_COST_PARAMS, wan_contention=mode))


def assert_layout_matches_plan(topo, layout, plan):
    names = layout.site_names
    for si, a in enumerate(names):
        for sj in range(si + 1, len(names)):
            b = names[sj]
            want = plan.pair_bw_bps(topo.site_representative(a),
                                    topo.site_representative(b))
            got = min(layout.bw_bps[si, sj],
                      layout.wan_share_bps(si, sj, DEFAULT_COST_PARAMS))
            assert got == want, (a, b)


class TestCostModelShares:
    def test_flat_share_agrees_with_plan_contention(self):
        """The flat testbed goes through the same helpers (the exact
        1-hop case), so the cost model and contention layer agree."""
        topo = topology_of("grid5000")
        vec = cost_model(topo)
        rng = random.Random(41)
        for _plan in range(30):
            copies = random_copies(rng, topo)
            assert_layout_matches_plan(topo, vec.layout(copies),
                                       ContentionModel(topo).plan(copies))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_census_share_agrees_with_plan_contention(self, family):
        """``apply_copy_counts`` widens the shares exactly as the
        contention layer scores the whole census as a plan."""
        topo = topology_of(family)
        vec = cost_model(topo)
        rng = random.Random(43)
        for _plan in range(15):
            ranks = random_copies(rng, topo, max_copies=30)
            pool = [h for s in sorted({h.site for h in ranks})
                    for h in topo.hosts_in_site(s)]
            census = ranks + [rng.choice(pool)
                              for _ in range(rng.randint(0, 30))]
            layout = vec.layout(ranks)
            layout.apply_copy_counts(Counter(h.name for h in census))
            assert_layout_matches_plan(topo, layout,
                                       ContentionModel(topo).plan(census))

    def test_fixed_mode_ignores_the_census(self):
        topo = topology_of("grid5000")
        fixed = dataclasses.replace(DEFAULT_COST_PARAMS,
                                    wan_contention="fixed")
        layout = cost_model(topo, "fixed").layout(
            random_copies(random.Random(47), topo))
        before = [[layout.wan_share_bps(i, j, fixed)
                   for j in range(len(layout.site_names))]
                  for i in range(len(layout.site_names))]
        layout.apply_copy_counts({h.name: 5 for h in topo.all_hosts()})
        for i in range(len(layout.site_names)):
            for j in range(len(layout.site_names)):
                got = layout.wan_share_bps(i, j, fixed)
                assert got == before[i][j]
                if i != j:
                    assert got == (layout.backbone_bps[i, j]
                                   / WAN_CONTENTION_FACTOR)

    def test_modes_are_plan_and_fixed(self):
        assert WAN_CONTENTION_MODES == ("plan", "fixed")
        for mode in WAN_CONTENTION_MODES:
            assert CostParams(wan_contention=mode).wan_contention == mode

    def test_unpooled_mode_is_rejected(self):
        with pytest.raises(ValueError):
            CostParams(wan_contention="none")
