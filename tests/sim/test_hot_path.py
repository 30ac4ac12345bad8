"""Guards for the kernel's inlined hot paths.

``Event.succeed``, ``Timeout`` and ``Process`` push their heap entries
themselves instead of calling ``Simulator.schedule``, and
``Process._step`` registers on a pending target directly.  These tests
keep the inlined copies honest: the delay check runs before any state
changes, the replay path for an already-processed target still works,
and every kernel event class stays slotted.
"""

import pytest

from repro.net.inbox import Inbox, Receive
from repro.sim import AllOf, AnyOf, Event, Process, SimulationError, Timeout
from repro.sim.events import PENDING


def sleeper(sim):
    yield sim.timeout(1.0)


class TestNegativeDelay:
    def test_succeed_leaves_event_pending(self, sim):
        evt = sim.event()
        with pytest.raises(SimulationError, match="negative delay"):
            evt.succeed("v", delay=-1)
        assert sim._queue == []
        assert not evt.triggered and evt._value is PENDING and evt.ok is None
        # Still usable: a valid trigger afterwards goes through.
        evt.succeed("v")
        sim.run()
        assert evt.value == "v"

    def test_fail_leaves_event_pending(self, sim):
        evt = sim.event()
        with pytest.raises(SimulationError, match="negative delay"):
            evt.fail(RuntimeError("boom"), delay=-1)
        assert sim._queue == []
        assert not evt.triggered and evt.ok is None

    def test_timeout_schedules_nothing(self, sim):
        with pytest.raises(SimulationError, match="negative delay"):
            Timeout(sim, -1)
        with pytest.raises(SimulationError, match="negative delay"):
            sim.timeout(-1)
        assert sim._queue == []

    def test_process_schedules_nothing(self, sim):
        with pytest.raises(SimulationError, match="negative delay"):
            sim.process(sleeper(sim), delay=-1)
        assert sim._queue == []


class TestReplay:
    def test_yielding_a_processed_event_still_resumes(self, sim):
        done = sim.event().succeed("early")
        sim.run()
        assert done.processed
        log = []

        def late(sim):
            log.append((yield done))
            log.append(sim.now)

        proc = sim.process(late(sim))
        sim.run()
        assert log == ["early", 0.0]
        assert proc.processed and proc.ok

    def test_pending_target_gets_the_resume_callback(self, sim):
        gate = sim.event()

        def waiter(sim):
            return (yield gate)

        proc = sim.process(waiter(sim))
        sim.run()
        assert proc.target is gate
        assert gate.callbacks == [proc._resume]
        gate.succeed(7)
        sim.run()
        assert proc.value == 7 and proc.target is None


class TestSlots:
    def test_kernel_events_have_no_instance_dict(self, sim):
        gate = sim.event()
        instances = [
            gate,
            Timeout(sim, 1.0),
            AllOf(sim, [gate]),
            AnyOf(sim, [gate]),
            sim.process(sleeper(sim)),
            Inbox(sim).receive("port"),
        ]
        for obj in instances:
            assert not hasattr(obj, "__dict__"), type(obj).__name__
        for cls in (Event, Timeout, AllOf, AnyOf, Process, Receive):
            assert "__slots__" in vars(cls), cls.__name__

    def test_unknown_attribute_is_rejected(self, sim):
        with pytest.raises(AttributeError):
            sim.event().extra = 1
