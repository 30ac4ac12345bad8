"""PeerDaemon boot/refresh and churn injection."""

import numpy as np
import pytest

from repro.net.latency import LatencyModel
from repro.net.transport import Network
from repro.overlay.churn import ChurnInjector, FailureEvent
from repro.overlay.peer import PeerDaemon
from repro.overlay.supernode import Supernode
from repro.sim import Simulator
from tests.conftest import make_small_topology


@pytest.fixture
def env():
    sim = Simulator(seed=4)
    topo = make_small_topology()
    latency = LatencyModel(topo, sim.rng.stream("net.latency"),
                           noise_sigma_ms=0.0)
    net = Network(sim, topo, latency=latency)
    for host in topo.all_hosts():
        net.register(host.name)
    sn = Supernode(net, "a1-1.alpha")
    sim.process(sn.service())

    def daemon(name):
        return PeerDaemon(sim, net, topo, topo.host(name), "a1-1.alpha",
                          latency, alive_period_s=30.0)

    return sim, topo, net, sn, daemon


class TestPeerDaemon:
    def test_boot_registers_and_seeds_cache(self, env):
        sim, topo, net, sn, daemon = env
        d1 = daemon("b1-1.beta")
        sim.run_until_complete(sim.process(d1.boot()))
        assert d1.joined
        assert "b1-1.beta" in sn.records

        d2 = daemon("g1-1.gamma")
        sim.run_until_complete(sim.process(d2.boot()))
        assert "b1-1.beta" in d2.cache

    def test_boot_excludes_self_from_cache(self, env):
        sim, topo, net, sn, daemon = env
        d = daemon("b1-1.beta")
        sim.run_until_complete(sim.process(d.boot()))
        assert "b1-1.beta" not in d.cache

    def test_alive_loop_sends_heartbeats(self, env):
        sim, topo, net, sn, daemon = env
        d = daemon("b1-1.beta")
        sim.run_until_complete(sim.process(d.boot()))
        sim.run(until=sim.now + 95.0)
        assert sn.alive_signals >= 3

    def test_refresh_cache_picks_up_new_peers(self, env):
        sim, topo, net, sn, daemon = env
        d1 = daemon("b1-1.beta")
        sim.run_until_complete(sim.process(d1.boot()))
        d2 = daemon("g1-1.gamma")
        sim.run_until_complete(sim.process(d2.boot()))

        def refresh():
            added = yield from d1.refresh_cache()
            return added

        assert sim.run_until_complete(sim.process(refresh())) == 1
        assert "g1-1.gamma" in d1.cache

    def test_measure_latencies(self, env):
        sim, topo, net, sn, daemon = env
        d1 = daemon("b1-1.beta")
        sim.run_until_complete(sim.process(d1.boot()))
        d2 = daemon("a1-2.alpha")
        sim.run_until_complete(sim.process(d2.boot()))
        measured = d2.measure_latencies()
        assert measured == 1
        entry = d2.cache.entry("b1-1.beta")
        assert entry.latency_ms == pytest.approx(10.0, abs=0.2)

    def test_measure_only_unmeasured(self, env):
        sim, topo, net, sn, daemon = env
        d1 = daemon("b1-1.beta")
        sim.run_until_complete(sim.process(d1.boot()))
        d2 = daemon("a1-2.alpha")
        sim.run_until_complete(sim.process(d2.boot()))
        assert d2.measure_latencies() == 1
        assert d2.measure_latencies() == 0
        assert d2.measure_latencies(only_unmeasured=False) == 1

    def test_report_dead_updates_cache_and_supernode(self, env):
        sim, topo, net, sn, daemon = env
        d1 = daemon("b1-1.beta")
        sim.run_until_complete(sim.process(d1.boot()))
        d2 = daemon("g1-1.gamma")
        sim.run_until_complete(sim.process(d2.boot()))
        d2.report_dead(["b1-1.beta"])
        # Bounded run: the daemons' alive loops reschedule forever, so
        # a bare run() would never return.
        sim.run(until=sim.now + 1.0)
        assert "b1-1.beta" not in d2.cache
        assert "b1-1.beta" not in sn.records

    def test_message_level_probe(self, env):
        sim, topo, net, sn, daemon = env
        d1 = daemon("b1-1.beta")
        sim.run_until_complete(sim.process(d1.boot()))
        d2 = daemon("a1-2.alpha")
        sim.run_until_complete(sim.process(d2.boot()))

        def body():
            rtt = yield from d2.probe_latency(topo.host("b1-1.beta"))
            return rtt

        rtt = sim.run_until_complete(sim.process(body()))
        assert rtt == pytest.approx(10.0, abs=0.5)


class TestChurn:
    def test_explicit_schedule(self, env):
        sim, topo, net, sn, daemon = env
        changes = []
        injector = ChurnInjector(sim, net,
                                 on_change=lambda h, d: changes.append((h, d)))
        schedule = ChurnInjector.kill_at([(5.0, "b1-1.beta")])
        proc = injector.start(schedule)
        sim.run_until_complete(proc)
        assert net.is_down("b1-1.beta")
        assert changes == [("b1-1.beta", True)]
        assert sim.now == 5.0

    def test_first_failure_schedule_deterministic(self):
        rng1 = np.random.default_rng(9)
        rng2 = np.random.default_rng(9)
        hosts = [f"h{i}" for i in range(20)]
        s1 = ChurnInjector.first_failure_schedule(hosts, 0.01, 100.0, rng1)
        s2 = ChurnInjector.first_failure_schedule(hosts, 0.01, 100.0, rng2)
        assert s1 == s2

    def test_first_failure_revival(self):
        rng = np.random.default_rng(9)
        events = ChurnInjector.first_failure_schedule(
            ["h1", "h2", "h3"], rate_per_host_s=1.0, horizon_s=100.0,
            rng=rng, revive_after_s=1.0)
        crashes = [e for e in events if e.down]
        revivals = [e for e in events if not e.down]
        assert crashes and revivals
        for rev in revivals:
            crash = next(e for e in crashes if e.host_name == rev.host_name)
            assert rev.time == pytest.approx(crash.time + 1.0)

    def test_unsorted_schedule_rejected(self, env):
        sim, topo, net, sn, daemon = env
        injector = ChurnInjector(sim, net)
        bad = [FailureEvent(5.0, "b1-1.beta", True),
               FailureEvent(1.0, "b1-2.beta", True)]
        proc = injector.start(bad)
        with pytest.raises(ValueError):
            sim.run_until_complete(proc)


class TestScheduleModes:
    """The one-shot and sustained schedules differ in kind.

    ``first_failure_schedule`` is not a Poisson *process*: each host
    draws one exponential and fails at most once, so a "rate" sweep
    over it is secretly a sweep of P(fail before horizon).  The honest
    rate axis lives in ``sustained_schedule``.
    """

    def test_one_shot_caps_at_one_failure_per_host(self):
        # Even at an absurd rate, the one-shot mode never crashes a
        # host twice.
        events = ChurnInjector.first_failure_schedule(
            ["a", "b"], rate_per_host_s=100.0, horizon_s=1000.0,
            rng=np.random.default_rng(0))
        crashes = [e.host_name for e in events if e.down]
        assert sorted(crashes) == ["a", "b"]

    def test_one_shot_knob_is_failure_probability(self):
        """The share of hosts the one-shot mode crashes is
        ``1 - exp(-rate * horizon)``: a probability, not a rate."""
        hosts = [f"h{i}" for i in range(4000)]
        events = ChurnInjector.first_failure_schedule(
            hosts, rate_per_host_s=0.01, horizon_s=100.0,
            rng=np.random.default_rng(3))
        share = len({e.host_name for e in events if e.down}) / len(hosts)
        assert share == pytest.approx(1.0 - np.exp(-1.0), abs=0.03)

    def test_sustained_mode_fails_hosts_repeatedly(self):
        events = ChurnInjector.sustained_schedule(
            ["a", "b"], rate_per_host_s=0.2, horizon_s=1000.0,
            rng=np.random.default_rng(0), downtime_s=1.0)
        crashes = [e.host_name for e in events if e.down]
        assert crashes.count("a") > 1 and crashes.count("b") > 1


# -- property-based schedule tests (seeded grid) --------------------------
#
# A deterministic grid of seeds/parameters rather than Hypothesis: the
# CI toolchain is numpy+pytest only, and a fixed grid keeps failures
# trivially reproducible.  Each property below must hold for every
# schedule the injector can emit.

SEED_GRID = [(seed, rate, horizon, downtime)
             for seed in (0, 1, 7, 42, 1234)
             for rate, horizon in ((0.01, 50.0), (0.1, 200.0), (2.0, 10.0))
             for downtime in (None, 0.5, 25.0)]


def _hosts(k=12):
    return [f"h{i:02d}" for i in range(k)]


class TestScheduleProperties:
    @pytest.mark.parametrize("seed,rate,horizon,downtime", SEED_GRID)
    def test_sustained_sorted_bounded_deterministic(self, seed, rate,
                                                    horizon, downtime):
        rng = np.random.default_rng(seed)
        events = ChurnInjector.sustained_schedule(
            _hosts(), rate, horizon, rng, downtime_s=downtime)
        # Sorted by (time, host), strictly inside the horizon.
        assert events == sorted(events,
                                key=lambda e: (e.time, e.host_name))
        assert all(0.0 < e.time < horizon for e in events)
        # Bit-identical replay for the same seed.
        again = ChurnInjector.sustained_schedule(
            _hosts(), rate, horizon, np.random.default_rng(seed),
            downtime_s=downtime)
        assert events == again

    @pytest.mark.parametrize("seed,rate,horizon,downtime", SEED_GRID)
    def test_sustained_per_host_alternation(self, seed, rate, horizon,
                                            downtime):
        """Per host: crash, revive, crash, ... — a revive never precedes
        its crash and always lands exactly ``downtime`` after it."""
        rng = np.random.default_rng(seed)
        events = ChurnInjector.sustained_schedule(
            _hosts(), rate, horizon, rng, downtime_s=downtime)
        for host in _hosts():
            mine = [e for e in events if e.host_name == host]
            last_crash = None
            for i, event in enumerate(mine):
                assert event.down == (i % 2 == 0)  # alternation
                if event.down:
                    last_crash = event.time
                else:
                    assert last_crash is not None
                    assert event.time == pytest.approx(
                        last_crash + downtime)
            if downtime is None:
                assert len(mine) <= 1  # permanent death: one crash max

    @pytest.mark.parametrize("seed,rate,horizon,revive",
                             [(s, r, h, rv)
                              for s in (0, 3, 99)
                              for r, h in ((0.02, 80.0), (0.5, 40.0))
                              for rv in (None, 2.0)])
    def test_first_failure_sorted_bounded_one_shot(self, seed, rate,
                                                   horizon, revive):
        rng = np.random.default_rng(seed)
        events = ChurnInjector.first_failure_schedule(
            _hosts(), rate, horizon, rng, revive_after_s=revive)
        assert events == sorted(events,
                                key=lambda e: (e.time, e.host_name))
        assert all(0.0 < e.time < horizon for e in events)
        for host in _hosts():
            mine = [e for e in events if e.host_name == host]
            assert sum(1 for e in mine if e.down) <= 1
            revivals = [e for e in mine if not e.down]
            if revivals:
                crash = next(e for e in mine if e.down)
                assert revivals[0].time == pytest.approx(crash.time + revive)

    @pytest.mark.parametrize("seed", [0, 5, 17, 88])
    def test_kill_at_idempotent_under_resorting(self, seed):
        rng = np.random.default_rng(seed)
        pairs = [(float(t), f"h{int(h)}")
                 for t, h in zip(rng.uniform(0, 50, size=30),
                                 rng.integers(0, 6, size=30))]
        schedule = ChurnInjector.kill_at(pairs)
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        assert ChurnInjector.kill_at(shuffled) == schedule
        # Re-feeding the emitted order changes nothing either.
        assert ChurnInjector.kill_at(
            [(e.time, e.host_name) for e in schedule]) == schedule

    def test_sustained_rejects_bad_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ChurnInjector.sustained_schedule(_hosts(), 0.0, 10.0, rng)
        with pytest.raises(ValueError):
            ChurnInjector.sustained_schedule(_hosts(), 0.1, 0.0, rng)
        with pytest.raises(ValueError):
            ChurnInjector.sustained_schedule(_hosts(), 0.1, 10.0, rng,
                                             downtime_s=0.0)
