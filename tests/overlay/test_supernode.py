"""Supernode registry protocol."""

import random

import pytest

from repro.net.transport import Network
from repro.overlay.messages import SUPERNODE_PORT
from repro.overlay.supernode import Supernode
from repro.sim import Simulator
from tests.conftest import make_small_topology


@pytest.fixture
def env():
    sim = Simulator(seed=2)
    topo = make_small_topology()
    net = Network(sim, topo)
    for host in topo.all_hosts():
        net.register(host.name)
    sn = Supernode(net, "a1-1.alpha", stale_after_s=100.0)
    sim.process(sn.service())
    return sim, topo, net, sn


def rpc(sim, net, src, kind, reply_kind):
    def body():
        net.send(src, "a1-1.alpha", SUPERNODE_PORT, kind,
                 payload={"reply_port": "t"}, size_bytes=64)
        msg = yield net.receive(src, "t", reply_kind)
        return msg.payload

    return sim.run_until_complete(sim.process(body()))


class TestRegistration:
    def test_register_returns_peerlist_including_self(self, env):
        sim, topo, net, sn = env
        payload = rpc(sim, net, "b1-1.beta", "REGISTER", "REGISTER_ACK")
        assert payload["peers"] == ["b1-1.beta"]
        assert sn.registrations == 1

    def test_second_peer_sees_first(self, env):
        sim, topo, net, sn = env
        rpc(sim, net, "b1-1.beta", "REGISTER", "REGISTER_ACK")
        payload = rpc(sim, net, "g1-1.gamma", "REGISTER", "REGISTER_ACK")
        assert set(payload["peers"]) == {"b1-1.beta", "g1-1.gamma"}

    def test_get_peers(self, env):
        sim, topo, net, sn = env
        rpc(sim, net, "b1-1.beta", "REGISTER", "REGISTER_ACK")
        payload = rpc(sim, net, "b1-2.beta", "GET_PEERS", "PEERS")
        assert "b1-1.beta" in payload["peers"]

    def test_alive_updates_timestamp(self, env):
        sim, topo, net, sn = env
        rpc(sim, net, "b1-1.beta", "REGISTER", "REGISTER_ACK")
        t0 = sn.records["b1-1.beta"].last_seen

        def body():
            yield sim.timeout(5.0)
            net.send("b1-1.beta", "a1-1.alpha", SUPERNODE_PORT, "ALIVE",
                     payload={}, size_bytes=64)
            yield sim.timeout(1.0)

        sim.run_until_complete(sim.process(body()))
        assert sn.records["b1-1.beta"].last_seen > t0
        assert sn.alive_signals == 1


class TestStaleness:
    def test_stale_peer_pruned(self, env):
        sim, topo, net, sn = env
        rpc(sim, net, "b1-1.beta", "REGISTER", "REGISTER_ACK")

        def later():
            yield sim.timeout(200.0)  # beyond stale_after_s=100

        sim.run_until_complete(sim.process(later()))
        assert sn.peer_list(sim.now) == []

    def test_prune_matches_a_full_scan_at_every_step(self):
        """prune may skip its scan while no record can be stale; a
        seeded timeline of touches and drops checks it never skips one
        that is."""
        rng = random.Random(4)
        sn = Supernode(network=None, host_name="sn", stale_after_s=100.0)
        now = 0.0
        for _ in range(400):
            now += rng.uniform(0.0, 30.0)
            name = f"p{rng.randrange(12)}"
            roll = rng.random()
            if roll < 0.5:
                sn._touch(name, now)
            elif roll < 0.6:
                sn.drop(name)
            stale = [n for n, rec in sn.records.items()
                     if rec.stale(now, sn.stale_after_s)]
            kept = [n for n in sn.records if n not in stale]
            assert sn.prune(now) == stale
            assert list(sn.records) == kept

    def test_fresh_peer_kept(self, env):
        sim, topo, net, sn = env
        rpc(sim, net, "b1-1.beta", "REGISTER", "REGISTER_ACK")
        assert sn.peer_list(sim.now) == ["b1-1.beta"]

    def test_report_dead_drops(self, env):
        sim, topo, net, sn = env
        rpc(sim, net, "b1-1.beta", "REGISTER", "REGISTER_ACK")
        net.send("g1-1.gamma", "a1-1.alpha", SUPERNODE_PORT, "REPORT_DEAD",
                 payload={"peers": ["b1-1.beta"]}, size_bytes=64)
        sim.run()
        assert "b1-1.beta" not in sn.records

    def test_drop_unknown_is_noop(self, env):
        _sim, _topo, _net, sn = env
        sn.drop("never.registered")  # no raise
