"""Event primitives: triggering, conditions, failure propagation."""

import pytest

from repro.sim import AnyOf, Simulator, SimulationError
from repro.sim.events import Timeout


class TestEvent:
    def test_initial_state(self, sim):
        evt = sim.event("e")
        assert not evt.triggered and not evt.processed
        assert evt.ok is None

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            _ = sim.event().value

    def test_succeed(self, sim):
        evt = sim.event().succeed(42)
        assert evt.triggered and evt.ok
        sim.run()
        assert evt.processed and evt.value == 42

    def test_double_trigger_raises(self, sim):
        evt = sim.event().succeed()
        with pytest.raises(SimulationError):
            evt.succeed()
        with pytest.raises(SimulationError):
            evt.fail(RuntimeError("x"))

    def test_fail_requires_exception(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_unhandled_failure_crashes_run(self, sim):
        sim.event().fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            sim.run()

    def test_defused_failure_is_silent(self, sim):
        evt = sim.event()
        evt.fail(RuntimeError("quiet"))
        evt.defused = True
        sim.run()  # no raise

    def test_trigger_mirrors_success(self, sim):
        src = sim.event().succeed("v")
        dst = sim.event()
        dst.trigger(src)
        sim.run()
        assert dst.value == "v"

    def test_trigger_untriggered_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.event().trigger(sim.event())

    def test_callback_after_processed_replays(self, sim):
        evt = sim.event().succeed(5)
        sim.run()
        got = []
        evt.add_callback(lambda e: got.append(e.value))
        sim.run()
        assert got == [5]


class TestTimeout:
    def test_timeout_value(self, sim):
        def body(sim):
            value = yield sim.timeout(1.0, value="tick")
            return value

        assert sim.run_until_complete(sim.process(body(sim))) == "tick"

    def test_timeout_is_pretriggered(self, sim):
        assert Timeout(sim, 5.0).triggered


class TestConditions:
    def test_anyof_returns_first(self, sim):
        def body(sim):
            slow = sim.timeout(5.0, "slow")
            fast = sim.timeout(1.0, "fast")
            res = yield sim.any_of([slow, fast])
            return list(res.values())

        assert sim.run_until_complete(sim.process(body(sim))) == ["fast"]
        assert sim.now == 1.0

    def test_allof_waits_for_all(self, sim):
        def body(sim):
            t1 = sim.timeout(1.0, "a")
            t2 = sim.timeout(2.0, "b")
            res = yield sim.all_of([t1, t2])
            return sorted(res.values())

        assert sim.run_until_complete(sim.process(body(sim))) == ["a", "b"]
        assert sim.now == 2.0

    def test_empty_condition_fires_immediately(self, sim):
        def body(sim):
            res = yield sim.all_of([])
            return res

        assert sim.run_until_complete(sim.process(body(sim))) == {}

    def test_condition_failure_propagates(self, sim):
        def body(sim):
            bad = sim.event()
            bad.fail(RuntimeError("child failed"), delay=1.0)
            yield sim.all_of([bad, sim.timeout(5.0)])

        with pytest.raises(RuntimeError, match="child failed"):
            sim.run_until_complete(sim.process(body(sim)))

    def test_allof_over_many_children_keeps_child_order(self, sim):
        def body(sim):
            # Reverse completion order: the last child finishes first.
            kids = [sim.timeout(1000.0 - i, i) for i in range(1000)]
            res = yield sim.all_of(kids)
            assert list(res) == kids
            return list(res.values())

        assert sim.run_until_complete(sim.process(body(sim))) == \
            list(range(1000))

    def test_allof_over_many_children_fails_on_one(self, sim):
        def body(sim):
            kids = [sim.timeout(float(i + 1)) for i in range(1000)]
            bad = sim.event()
            bad.fail(RuntimeError("child 500 failed"), delay=500.5)
            yield sim.all_of(kids[:500] + [bad] + kids[500:])

        with pytest.raises(RuntimeError, match="child 500 failed"):
            sim.run_until_complete(sim.process(body(sim)))
        assert sim.now == 500.5

    def test_anyof_with_already_processed_child(self, sim):
        done = sim.event().succeed("early")
        sim.run()

        def body(sim):
            res = yield sim.any_of([done, sim.timeout(10.0)])
            return list(res.values())

        assert sim.run_until_complete(sim.process(body(sim))) == ["early"]

    def test_condition_across_simulators_rejected(self, sim):
        other = Simulator()
        with pytest.raises(SimulationError):
            AnyOf(sim, [sim.event(), other.event()])

    def test_anyof_value_mapping_keys_are_events(self, sim):
        def body(sim):
            fast = sim.timeout(1.0, "fast")
            slow = sim.timeout(9.0, "slow")
            res = yield sim.any_of([fast, slow])
            assert fast in res and slow not in res
            return res[fast]

        assert sim.run_until_complete(sim.process(body(sim))) == "fast"
