"""Diffusive rebalancing decision functions (pure, deterministic)."""

import pytest

from repro.alloc import get_strategy
from repro.alloc.diffusive import (DiffusivePolicy, DiffusiveStrategy,
                                   diffusive_moves, neighbor_map)
from tests.conftest import make_small_topology


class TestNeighborMap:
    def test_k_nearest_by_rtt(self):
        topo = make_small_topology()
        names = [h.name for h in topo.all_hosts()]
        nmap = neighbor_map(topo, names, k=3)
        # An alpha host's three nearest peers are the other alpha
        # hosts: the LAN beats every 10/20 ms cross-site path.
        assert all(nb.endswith(".alpha") for nb in nmap["a1-1.alpha"])
        assert "a1-1.alpha" not in nmap["a1-1.alpha"]
        assert len(nmap["a1-1.alpha"]) == 3

    def test_k_larger_than_peer_set(self):
        topo = make_small_topology()
        names = [h.name for h in topo.all_hosts()][:4]
        nmap = neighbor_map(topo, names, k=99)
        assert all(len(nbs) == 3 for nbs in nmap.values())

    def test_k_zero_and_determinism(self):
        topo = make_small_topology()
        names = [h.name for h in topo.all_hosts()]
        assert all(nbs == [] for nbs in neighbor_map(topo, names, 0).values())
        assert neighbor_map(topo, names, 2) == neighbor_map(topo, names, 2)

    def test_unknown_host_raises_key_error(self):
        topo = make_small_topology()
        names = [h.name for h in topo.all_hosts()] + ["ghost.nowhere"]
        with pytest.raises(KeyError, match="ghost.nowhere"):
            neighbor_map(topo, names, 3)


class TestDiffusiveMoves:
    def test_hot_host_sheds_to_coldest_neighbor(self):
        loads = {"a": 2.0, "b": 0.0, "c": 0.5}
        neighbors = {"a": ["b", "c"], "b": ["a"], "c": ["a"]}
        moves = diffusive_moves(loads, neighbors, threshold=0.5, max_moves=2)
        assert moves == [("a", "b")]

    def test_threshold_gates_marginal_gradients(self):
        loads = {"a": 1.0, "b": 0.6}
        neighbors = {"a": ["b"], "b": ["a"]}
        assert diffusive_moves(loads, neighbors, 0.5, 2) == []
        assert diffusive_moves(loads, neighbors, 0.3, 2) == [("a", "b")]

    def test_working_copy_prevents_dogpiling(self):
        """Two hot hosts must not both dump onto the same cold one:
        the first move's load bump makes the gradient vanish."""
        loads = {"a": 2.0, "b": 2.0, "c": 0.0}
        neighbors = {h: [o for o in "abc" if o != h] for h in "abc"}
        moves = diffusive_moves(loads, neighbors, threshold=1.5, max_moves=4)
        assert moves == [("a", "c")]

    def test_max_moves_cap_and_empty_inputs(self):
        loads = {"a": 3.0, "b": 3.0, "c": 0.0, "d": 0.0}
        neighbors = {h: [o for o in "abcd" if o != h] for h in "abcd"}
        assert len(diffusive_moves(loads, neighbors, 0.5, 1)) == 1
        assert diffusive_moves(loads, neighbors, 0.5, 0) == []
        assert diffusive_moves({}, {}, 0.5, 2) == []
        assert diffusive_moves(loads, {}, 0.5, 2) == []

    def test_no_same_tick_ping_pong(self):
        """Regression: a recipient must not shed within the same tick.
        The +1.0 working bump would otherwise manufacture a reverse
        gradient and the copy would bounce straight back."""
        loads = {"a": 1.0, "b": 0.6}
        neighbors = {"a": ["b"], "b": ["a"]}
        assert diffusive_moves(loads, neighbors, 0.3, 4) == [("a", "b")]

    def test_unknown_neighbors_are_skipped(self):
        loads = {"a": 2.0, "b": 0.0}
        neighbors = {"a": ["ghost", "b"]}
        assert diffusive_moves(loads, neighbors, 0.5, 2) == [("a", "b")]


class TestStrategy:
    def test_registered_and_needs_topology(self):
        strategy = get_strategy("diffusive")
        assert isinstance(strategy, DiffusiveStrategy)
        assert strategy.needs_topology is True

    def test_placement_matches_spread(self):
        """Submit-time placement is plain spread; the diffusion
        happens at runtime through the balancer, not the plan."""
        spread = get_strategy("spread").distribute([4, 4, 2, 2], n=6, r=1)
        diffusive = get_strategy("diffusive").distribute([4, 4, 2, 2],
                                                         n=6, r=1)
        assert diffusive == spread


class TestPolicy:
    def test_defaults(self):
        policy = DiffusivePolicy()
        assert policy.period_s == 30.0
        assert policy.neighbor_k == 3
        assert policy.threshold == 0.75
        assert policy.max_moves_per_tick == 2

    @pytest.mark.parametrize("field, value", [
        ("period_s", 0.0), ("period_s", -10.0), ("neighbor_k", -1),
        ("threshold", -0.5), ("max_moves_per_tick", -1)])
    def test_rejects_bad_knobs(self, field, value):
        with pytest.raises(ValueError, match=field):
            DiffusivePolicy(**{field: value})

    def test_zero_knobs_other_than_period_are_valid(self):
        policy = DiffusivePolicy(neighbor_k=0, threshold=0.0,
                                 max_moves_per_tick=0)
        assert policy.neighbor_k == 0 and policy.max_moves_per_tick == 0
