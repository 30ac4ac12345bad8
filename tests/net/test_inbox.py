"""Per-port inbox: FIFO order, matching, cancellation, port hygiene."""

import pytest

from repro.cluster import P2PMPICluster
from repro.middleware.config import MiddlewareConfig
from repro.middleware.jobs import JobRequest
from repro.mpi.api import ANY_SOURCE, MPIWorld
from repro.net.inbox import Inbox
from repro.net.transport import Message, Network
from repro.sim import Simulator
from tests.conftest import make_small_topology

A, B, C = "a1-1.alpha", "b1-1.beta", "g1-1.gamma"


@pytest.fixture
def net():
    network = Network(Simulator(seed=3), make_small_topology())
    for host in network.topology.all_hosts():
        network.register(host.name)
    return network


def msg(port, kind="K", payload=None, src=A):
    return Message(src=src, dst=B, port=port, kind=kind, payload=payload)


def drain(sim):
    sim.run()


class TestInbox:
    def test_per_port_fifo(self):
        sim = Simulator()
        box = Inbox(sim)
        for i in range(3):
            box.deliver(msg("p", payload=i))
            box.deliver(msg("q", payload=10 + i))
        got = [box.receive("p") for _ in range(3)]
        got += [box.receive("q") for _ in range(3)]
        drain(sim)
        assert [r.value.payload for r in got] == [0, 1, 2, 10, 11, 12]

    def test_waiting_receives_served_in_arrival_order(self):
        sim = Simulator()
        box = Inbox(sim)
        first, second = box.receive("p"), box.receive("p")
        box.deliver(msg("p", payload="x"))
        box.deliver(msg("p", payload="y"))
        drain(sim)
        assert (first.value.payload, second.value.payload) == ("x", "y")

    def test_receive_skips_queued_kinds_it_does_not_want(self):
        sim = Simulator()
        box = Inbox(sim)
        box.deliver(msg("p", kind="OTHER"))
        box.deliver(msg("p", kind="WANTED"))
        want = box.receive("p", kind="WANTED")
        drain(sim)
        assert want.value.kind == "WANTED"
        assert [m.kind for m in box.queued("p")] == ["OTHER"]

    def test_receives_on_different_ports_do_not_block_each_other(self):
        sim = Simulator()
        box = Inbox(sim)
        blocked = box.receive("p")
        free = box.receive("q")
        box.deliver(msg("q", payload="q0"))
        drain(sim)
        assert free.processed and free.value.payload == "q0"
        assert not blocked.triggered
        assert box.waiting("p") == [blocked] and box.waiting("q") == []

    def test_discard_is_per_port(self):
        sim = Simulator()
        box = Inbox(sim)
        for i in range(4):
            box.deliver(msg("p", payload=i))
        box.deliver(msg("q", payload=99))
        removed = box.discard("p", lambda m: m.payload % 2 == 0)
        assert [m.payload for m in removed] == [0, 2]
        assert [m.payload for m in box.queued("p")] == [1, 3]
        assert [m.payload for m in box.queued("q")] == [99]
        assert [m.payload for m in box.discard("p")] == [1, 3]
        assert box.ports() == ["q"]
        assert box.discard("nowhere") == []

    def test_drained_ports_leave_no_entries(self):
        sim = Simulator()
        box = Inbox(sim)
        early = box.receive("rs-reply:k1")
        box.deliver(msg("rs-reply:k1"))
        box.deliver(msg("done:j1"))
        late = box.receive("done:j1")
        drain(sim)
        assert early.processed and late.processed
        assert box.ports() == []


class TestCancel:
    def test_cancel_withdraws_a_waiting_receive(self):
        sim = Simulator()
        box = Inbox(sim)
        recv = box.receive("pong:1")
        assert recv.cancel() is True
        assert box.ports() == []
        box.deliver(msg("pong:1", payload="late"))
        drain(sim)
        assert not recv.triggered
        assert [m.payload for m in box.queued("pong:1")] == ["late"]

    def test_cancel_passes_the_message_to_the_next_receive(self):
        sim = Simulator()
        box = Inbox(sim)
        stale, fresh = box.receive("p"), box.receive("p")
        stale.cancel()
        box.deliver(msg("p", payload="m"))
        drain(sim)
        assert fresh.value.payload == "m"

    def test_cancel_after_service_keeps_the_message(self):
        sim = Simulator()
        box = Inbox(sim)
        box.deliver(msg("p", payload="m"))
        recv = box.receive("p")
        assert recv.cancel() is False
        drain(sim)
        assert recv.value.payload == "m"
        assert recv.cancel() is False

    def test_deadline_win_leaves_nothing_behind(self, net):
        sim = net.sim

        def waiter():
            recv = net.receive(A, "reply")
            deadline = sim.timeout(1.0)
            fired = yield sim.any_of([recv, deadline])
            if recv not in fired:
                recv.cancel()
            return recv in fired

        proc = sim.process(waiter())
        assert sim.run_until_complete(proc) is False
        assert net.inbox(A).ports() == []


class TestTransport:
    def test_move_queued_keeps_order(self, net):
        box = net.inbox(A)
        for i in range(3):
            box.deliver(msg("rank:0", payload=i))
        box.deliver(msg("rank:1", payload="stays"))
        assert net.move_queued(A, "rank:0", C) == 3
        assert [m.payload for m in net.inbox(C).queued("rank:0")] == [0, 1, 2]
        assert [m.payload for m in box.queued()] == ["stays"]

    def test_move_queued_serves_a_waiting_receive_first(self, net):
        recv = net.receive(C, "rank:0")
        for i in range(2):
            net.inbox(A).deliver(msg("rank:0", payload=i))
        net.move_queued(A, "rank:0", C)
        net.sim.run()
        assert recv.value.payload == 0
        assert [m.payload for m in net.inbox(C).queued("rank:0")] == [1]

    def test_network_discard(self, net):
        net.inbox(B).deliver(msg("p", payload=1))
        assert [m.payload for m in net.discard(B, "p")] == [1]
        assert net.discard(B, "p") == []


class TestMPIMatching:
    def world(self, n=3):
        sim = Simulator(seed=5)
        topo = make_small_topology()
        network = Network(sim, topo)
        hosts = [topo.host(A), topo.host(B), topo.host(C)][:n]
        return MPIWorld(sim, network, hosts, job_id="t")

    def test_tags_arriving_out_of_order(self):
        world = self.world(2)

        def program(comm):
            if comm.rank == 0:
                for tag in (3, 2, 1):
                    comm.isend(1, f"t{tag}", tag=tag)
                return None
            got = []
            for tag in (1, 2, 3):
                _src, _tag, data = yield from comm.recv(source=0, tag=tag)
                got.append(data)
            return got

        assert world.run(program)[1] == ["t1", "t2", "t3"]

    def test_any_source_takes_the_earliest_arrival(self):
        world = self.world(3)

        def program(comm):
            if comm.rank == 0:
                first = yield from comm.recv(source=ANY_SOURCE)
                second = yield from comm.recv(source=ANY_SOURCE)
                return [first[0], second[0]]
            # gamma (rank 2) is farther from alpha than beta (rank 1).
            comm.isend(0, comm.rank)
            return None

        assert world.run(program)[0] == [1, 2]
        for host in (A, B, C):
            assert world.network.inbox(host).ports() == []


def test_timed_out_submit_leaves_no_receive_on_its_reply_port():
    """A silent host makes the reserve loop's deadline win; the receive
    it was waiting on must not stay queued on the rs-reply port."""
    cluster = P2PMPICluster(
        make_small_topology(), seed=41,
        config=MiddlewareConfig(noise_sigma_ms=0.05, booking_retries=0),
        supernode_host=A, default_submitter=A,
    ).boot()
    cluster.network.set_down(C)  # crashes silently: no churn bookkeeping
    res = cluster.submit_and_run(JobRequest(n=8, strategy="spread"))
    assert C in res.dead_peers
    inbox = cluster.network.inbox(A)
    assert [r.port for r in inbox.waiting()
            if r.port.startswith("rs-reply:")] == []
