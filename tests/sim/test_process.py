"""Process driver: lifecycle, interrupts, error handling."""

import pytest

from repro.sim import Interrupt, SimulationError


class TestLifecycle:
    def test_process_is_event(self, sim):
        def child(sim):
            yield sim.timeout(2.0)
            return "done"

        def parent(sim):
            value = yield sim.process(child(sim))
            return value

        assert sim.run_until_complete(sim.process(parent(sim))) == "done"

    def test_is_alive(self, sim):
        def body(sim):
            yield sim.timeout(1.0)

        proc = sim.process(body(sim))
        assert proc.is_alive
        sim.run()
        assert not proc.is_alive

    def test_return_value_none_by_default(self, sim):
        def body(sim):
            yield sim.timeout(0.0)

        assert sim.run_until_complete(sim.process(body(sim))) is None

    def test_delayed_start_runs_ahead_of_same_time_events(self, sim):
        log = []

        def body(sim, tag):
            log.append((tag, sim.now))
            yield sim.timeout(0.0)

        sim.event().succeed(delay=2.0).callbacks.append(
            lambda _e: log.append(("normal", sim.now)))
        sim.process(body(sim, "delayed"), delay=2.0)
        sim.process(body(sim, "now"))
        sim.run()
        assert log == [("now", 0.0), ("delayed", 2.0), ("normal", 2.0)]

    def test_negative_start_delay_rejected(self, sim):
        def body(sim):
            yield sim.timeout(1.0)

        with pytest.raises(SimulationError):
            sim.process(body(sim), delay=-1.0)

    def test_non_generator_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.process(lambda: None)

    def test_yield_non_event_fails_process(self, sim):
        def body(sim):
            yield "not an event"

        proc = sim.process(body(sim))
        with pytest.raises(SimulationError, match="non-event"):
            sim.run_until_complete(proc)

    def test_exception_in_body_fails_process(self, sim):
        def body(sim):
            yield sim.timeout(1.0)
            raise KeyError("inner")

        with pytest.raises(KeyError):
            sim.run_until_complete(sim.process(body(sim)))

    def test_immediate_return(self, sim):
        def body(sim):
            return 17
            yield  # pragma: no cover

        assert sim.run_until_complete(sim.process(body(sim))) == 17


class TestInterrupt:
    def test_interrupt_delivers_cause(self, sim):
        causes = []

        def victim(sim):
            try:
                yield sim.timeout(100.0)
            except Interrupt as intr:
                causes.append(intr.cause)
            return "recovered"

        def killer(sim, proc):
            yield sim.timeout(2.0)
            proc.interrupt("failure-X")

        proc = sim.process(victim(sim))
        sim.process(killer(sim, proc))
        assert sim.run_until_complete(proc) == "recovered"
        assert causes == ["failure-X"]
        assert sim.now == 2.0

    def test_interrupt_finished_process_is_noop(self, sim):
        def body(sim):
            yield sim.timeout(1.0)

        proc = sim.process(body(sim))
        sim.run()
        proc.interrupt("late")  # must not raise
        sim.run()

    def test_unhandled_interrupt_fails_process(self, sim):
        def victim(sim):
            yield sim.timeout(100.0)

        def killer(sim, proc):
            yield sim.timeout(1.0)
            proc.interrupt()

        proc = sim.process(victim(sim))
        sim.process(killer(sim, proc))
        with pytest.raises(Interrupt):
            sim.run_until_complete(proc)

    def test_self_interrupt_rejected(self, sim):
        def body(sim):
            me = sim.active_process
            me.interrupt("self")
            yield sim.timeout(1.0)

        with pytest.raises(SimulationError, match="itself"):
            sim.run_until_complete(sim.process(body(sim)))

    def test_interrupted_process_can_rewait(self, sim):
        def victim(sim):
            target = sim.timeout(10.0, "slept")
            try:
                value = yield target
            except Interrupt:
                value = yield target  # re-wait the same event
            return value

        def killer(sim, proc):
            yield sim.timeout(1.0)
            proc.interrupt()

        proc = sim.process(victim(sim))
        sim.process(killer(sim, proc))
        assert sim.run_until_complete(proc) == "slept"
        assert sim.now == 10.0

    def test_interrupt_preempts_same_time_events(self, sim):
        order = []

        def victim(sim):
            try:
                yield sim.timeout(5.0)
                order.append("timeout")
            except Interrupt:
                order.append("interrupt")

        def killer(sim, proc):
            yield sim.timeout(5.0)
            proc.interrupt()

        proc = sim.process(victim(sim))
        # killer scheduled first so its t=5 event processes first
        sim.process(killer(sim, proc))
        sim.run()
        assert order in (["timeout"], ["interrupt"])  # deterministic below
        # The victim was registered first, so its timeout callback runs
        # before the killer acts: deterministic outcome is "timeout".
        assert order == ["timeout"]


class TestConcurrency:
    def test_many_processes(self, sim):
        results = []

        def body(sim, i):
            yield sim.timeout(i * 0.1)
            results.append(i)
            return i

        procs = [sim.process(body(sim, i)) for i in range(50)]
        sim.run_until_complete(sim.all_of(procs))
        assert results == sorted(results)
        assert len(results) == 50

    def test_ping_pong_via_events(self, sim):
        log = []

        def ping(sim, ready, done):
            yield ready
            log.append("ping")
            done.succeed()

        def pong(sim, ready, done):
            yield sim.timeout(1.0)
            ready.succeed()
            yield done
            log.append("pong")

        ready, done = sim.event(), sim.event()
        sim.process(ping(sim, ready, done))
        proc = sim.process(pong(sim, ready, done))
        sim.run_until_complete(proc)
        assert log == ["ping", "pong"]
