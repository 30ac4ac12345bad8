"""Bit-exact equivalence of the vector and reference cost kernels.

The perf tentpole's correctness contract (DESIGN.md §11): for every
collective, over randomized plans (varying p, site mixes, colocation,
replication census, all WAN contention modes), the vector kernels of
:class:`CollectiveCostModel` must agree with the scalar
:class:`ReferenceCostModel` loops *bit for bit* — not approximately.  Both paths share the same scalar
arithmetic bodies and summation order, so any drift is a bug.

Also pins the supporting layers: the rank x rank ``pairwise_times``
matrix against scalar ``p2p_time``, layout-memo clone isolation under
caller mutation, and the deterministic work counters.
"""

import dataclasses
import random

import pytest

from repro.cluster import DEFAULT_COST_PARAMS
from repro.grid5000.builder import build_topology
from repro.mpi.costmodel import CollectiveCostModel
from repro.net.contention import ContentionModel
from tests.mpi.reference_kernel import ReferenceCostModel

TOPO = build_topology()
ALL_HOSTS = TOPO.all_hosts()
MODES = ("plan", "fixed")

#: Message sizes straddling the eager threshold (6144) and zero.
SIZES = (0, 8, 4096, 8192, 1_000_000)


def random_plan(rng, p):
    """Random host multiset: 1-4 sites, colocation via replacement."""
    sites = rng.sample(sorted(TOPO.sites), k=min(rng.randint(1, 4),
                                                 len(TOPO.sites)))
    pool = [h for s in sites for h in TOPO.hosts_in_site(s)]
    return [rng.choice(pool) for _ in range(p)]


def model_pair(mode, **overrides):
    """(vector, reference) models sharing every other parameter."""
    base = dataclasses.replace(DEFAULT_COST_PARAMS,
                               wan_contention=mode, **overrides)
    return CollectiveCostModel(TOPO, base), ReferenceCostModel(TOPO, base)


def assert_all_collectives_equal(vec, ref, lay_v, lay_r, rng):
    nbytes = rng.choice(SIZES)
    root = rng.randrange(lay_v.p)
    checks = {
        "barrier": (vec.barrier_time(lay_v),
                    ref.barrier_time(lay_r)),
        "bcast": (vec.bcast_time(lay_v, nbytes, root=root),
                  ref.bcast_time(lay_r, nbytes, root=root)),
        "reduce": (vec.reduce_time(lay_v, nbytes),
                   ref.reduce_time(lay_r, nbytes)),
        "allreduce": (vec.allreduce_time(lay_v, nbytes),
                      ref.allreduce_time(lay_r, nbytes)),
        "gather": (vec.gather_time(lay_v, nbytes, root=root),
                   ref.gather_time(lay_r, nbytes, root=root)),
        "ring": (vec.ring_exchange_time(lay_v, nbytes),
                 ref.ring_exchange_time(lay_r, nbytes)),
        "alltoallv": (vec.alltoallv_time(lay_v, nbytes),
                      ref.alltoallv_time(lay_r, nbytes)),
        "wire": (vec.alltoallv_transfer_time(lay_v, nbytes),
                 ref.alltoallv_transfer_time(lay_r, nbytes)),
    }
    for name, (got, want) in checks.items():
        assert got == want, (
            f"{name}: vector {got!r} != reference {want!r} "
            f"(p={lay_v.p}, nbytes={nbytes}, "
            f"mode={vec.params.wan_contention})")


class TestSeededGrid:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 16, 77])
    def test_randomized_plans_bit_exact(self, mode, seed, p):
        rng = random.Random(1000 * seed + p)
        vec, ref = model_pair(mode)
        hosts = random_plan(rng, p)
        assert_all_collectives_equal(vec, ref, vec.layout(hosts),
                                     ref.layout(hosts), rng)

    @pytest.mark.parametrize("mode", MODES)
    def test_paper_scale_600(self, mode):
        rng = random.Random(600)
        vec, ref = model_pair(mode)
        hosts = random_plan(rng, 600)
        assert_all_collectives_equal(vec, ref, vec.layout(hosts),
                                     ref.layout(hosts), rng)

    @pytest.mark.parametrize("mode", MODES)
    def test_replication_census_bit_exact(self, mode):
        """apply_copy_counts widens wan_flows on both paths alike."""
        rng = random.Random(42)
        vec, ref = model_pair(mode)
        hosts = random_plan(rng, 48)
        census = {h.name: rng.randint(1, 3) for h in ALL_HOSTS[::5]}
        census.update({h.name: 2 for h in hosts})
        lay_v, lay_r = vec.layout(hosts), ref.layout(hosts)
        for lay in (lay_v, lay_r):
            lay.apply_copy_counts(census)
        assert_all_collectives_equal(vec, ref, lay_v, lay_r, rng)

    def test_colocated_override_bit_exact(self):
        """The Application.run_time-style colocated rebinding."""
        import numpy as np

        rng = random.Random(7)
        vec, ref = model_pair("plan")
        hosts = random_plan(rng, 32)
        lay_v, lay_r = vec.layout(hosts), ref.layout(hosts)
        override = np.array([rng.randint(1, 4) for _ in hosts])
        lay_v.colocated = override.copy()
        lay_r.colocated = override.copy()
        assert_all_collectives_equal(vec, ref, lay_v, lay_r, rng)

    @pytest.mark.parametrize("overrides", [
        {"msg_fixed_s": 0.0, "msg_fixed_small_s": 0.0,
         "ser_per_byte_s": 0.0, "wan_extra_s": 0.0},
    ])
    def test_param_variants_bit_exact(self, overrides):
        rng = random.Random(11)
        vec, ref = model_pair("plan", **overrides)
        hosts = random_plan(rng, 40)
        assert_all_collectives_equal(vec, ref, vec.layout(hosts),
                                     ref.layout(hosts), rng)


class TestRoutedTopologies:
    """The same bit-exact contract on routed multi-hop topologies.

    Generated families exercise the per-link share matrix
    (``GroupLayout._plan_shares``): both kernels must read the
    identical memoized matrix, so agreement is by construction — these
    tests catch any routed-branch divergence between the paths.
    """

    def _routed_models(self, mode, family):
        from repro.net.families import (fat_sites_topology,
                                        scale_free_topology,
                                        small_world_topology)

        topo = {
            "scale_free": lambda: scale_free_topology(sites=8,
                                                      topo_seed=3),
            "small_world": lambda: small_world_topology(sites=8,
                                                        topo_seed=3),
            "fat_sites": lambda: fat_sites_topology(sites=10,
                                                    router_groups=4,
                                                    topo_seed=3),
        }[family]()
        base = dataclasses.replace(DEFAULT_COST_PARAMS,
                                   wan_contention=mode)
        return (topo, CollectiveCostModel(topo, base),
                ReferenceCostModel(topo, base))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("family",
                             ["scale_free", "small_world", "fat_sites"])
    def test_randomized_routed_plans_bit_exact(self, mode, family):
        topo, vec, ref = self._routed_models(mode, family)
        all_hosts = topo.all_hosts()
        for seed in (1, 2):
            rng = random.Random(seed)
            hosts = [rng.choice(all_hosts)
                     for _ in range(rng.randint(2, 40))]
            assert_all_collectives_equal(vec, ref, vec.layout(hosts),
                                         ref.layout(hosts), rng)

    def test_routed_replication_census_bit_exact(self):
        topo, vec, ref = self._routed_models("plan", "scale_free")
        rng = random.Random(5)
        all_hosts = topo.all_hosts()
        hosts = [rng.choice(all_hosts) for _ in range(24)]
        census = {h.name: rng.randint(1, 3) for h in all_hosts[::3]}
        census.update({h.name: 2 for h in hosts})
        lay_v, lay_r = vec.layout(hosts), ref.layout(hosts)
        for lay in (lay_v, lay_r):
            lay.apply_copy_counts(census)
        assert_all_collectives_equal(vec, ref, lay_v, lay_r, rng)

    @pytest.mark.parametrize("family",
                             ["scale_free", "small_world", "fat_sites"])
    def test_routed_share_agrees_with_plan_contention(self, family):
        """Cross-layer: for every site pair of random copy multisets,
        the cost model's NIC-clamped path rate clamped by its WAN share
        is exactly the contention layer's pair bandwidth."""
        topo, vec, _ = self._routed_models("plan", family)
        contention = ContentionModel(topo)
        rng = random.Random(9)
        sites = sorted(topo.sites)
        pairs = 0
        for _plan in range(40):
            chosen = rng.sample(sites, rng.randint(2, len(sites)))
            pool = [h for s in chosen for h in topo.hosts_in_site(s)]
            copies = [rng.choice(pool) for _ in range(rng.randint(2, 60))]
            layout = vec.layout(copies)
            plan = contention.plan(copies)
            names = layout.site_names
            for si, a in enumerate(names):
                for sj in range(si + 1, len(names)):
                    b = names[sj]
                    want = plan.pair_bw_bps(topo.site_representative(a),
                                            topo.site_representative(b))
                    got = min(layout.bw_bps[si, sj],
                              layout.wan_share_bps(si, sj,
                                                   DEFAULT_COST_PARAMS))
                    assert got == want, (family, a, b)
                    pairs += 1
        assert pairs >= 400


class TestPairwiseMatrix:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("nbytes", SIZES)
    def test_matrix_equals_scalar_p2p(self, mode, nbytes):
        rng = random.Random(5)
        vec, ref = model_pair(mode)
        lay = vec.layout(random_plan(rng, 24))
        times = vec.pairwise_times(lay, nbytes)
        for i in range(lay.p):
            for j in range(lay.p):
                assert times[i, j] == ref.p2p_time(lay, i, j, nbytes), (
                    f"[{i},{j}] mode={mode} nbytes={nbytes}")

    def test_matrix_memoized_and_state_keyed(self):
        vec, _ = model_pair("plan")
        lay = vec.layout(random_plan(random.Random(3), 16))
        first = vec.pairwise_times(lay, 8192)
        again = vec.pairwise_times(lay, 8192)
        assert again is first
        assert vec.stats.pairwise_hits == 1
        # Mutating the contention state must miss the memo and change
        # the WAN-bound entries.
        lay.apply_copy_counts({h.name: 4 for h in ALL_HOSTS[:200]})
        fresh = vec.pairwise_times(lay, 8192)
        assert fresh is not first
        assert vec.stats.pairwise_builds == 2

    def test_matrix_is_read_only(self):
        import numpy as np

        vec, _ = model_pair("plan")
        lay = vec.layout(random_plan(random.Random(4), 8))
        times = vec.pairwise_times(lay, 100)
        with pytest.raises(ValueError):
            times[0, 0] = 1.0
        assert isinstance(times, np.ndarray)


class TestLayoutMemo:
    def test_clone_isolation_under_mutation(self):
        """A cached layout template must never leak caller mutation."""
        import numpy as np

        vec, _ = model_pair("plan")
        hosts = random_plan(random.Random(9), 20)
        a = vec.layout(hosts)
        b = vec.layout(hosts)
        assert vec.stats.layout_cache_hits >= 1
        b_colocated = b.colocated.copy()
        b_flows = b.wan_flows.copy()
        before = vec.alltoallv_time(b, 8192)
        a.colocated = a.colocated * 4
        a.apply_copy_counts({h.name: 8 for h in hosts})
        assert np.array_equal(b.colocated, b_colocated)
        assert np.array_equal(b.wan_flows, b_flows)
        assert vec.alltoallv_time(vec.layout(hosts), 8192) == before

    def test_rank_order_distinguishes_keys(self):
        """Layouts are keyed by *ordered* host tuples: a permuted plan
        is a different layout (rank order matters to collectives)."""
        vec, _ = model_pair("plan")
        nancy = TOPO.hosts_in_site("nancy")
        lyon = TOPO.hosts_in_site("lyon")
        plan = nancy[:4] + lyon[:4]
        vec.layout(plan)
        builds = vec.stats.layout_builds
        vec.layout(list(reversed(plan)))
        assert vec.stats.layout_builds == builds + 1


class TestWorkCounters:
    def test_vector_path_makes_no_scalar_p2p_calls(self):
        rng = random.Random(21)
        vec, ref = model_pair("plan")
        hosts = random_plan(rng, 64)
        lay_v, lay_r = vec.layout(hosts), ref.layout(hosts)
        vec.stats.reset()
        ref.stats.reset()
        for model, lay in ((vec, lay_v), (ref, lay_r)):
            model.barrier_time(lay)
            model.bcast_time(lay, 4096)
            model.allreduce_time(lay, 4096)
            model.gather_time(lay, 1000)
            model.ring_exchange_time(lay, 500)
            model.alltoallv_time(lay, 8192)
        assert vec.stats.p2p_calls == 0
        # Every edge the reference prices scalar-ly, the vector path
        # prices via a matrix reduction — the counts must agree.
        assert vec.stats.p2p_edges_vectorized == ref.stats.p2p_calls
        assert ref.stats.p2p_edges_vectorized == 0
        # The alltoallv rank loop dedupes to (site, colocated) combos.
        assert 0 < vec.stats.alltoallv_combo_evals < \
            ref.stats.alltoallv_rank_evals

