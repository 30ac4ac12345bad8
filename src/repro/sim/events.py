"""Waitable event primitives for the simulation kernel.

An :class:`Event` moves through three states:

``pending``  -> ``triggered`` (scheduled, value set) -> ``processed``
(callbacks ran).  Processes wait on events by ``yield``-ing them; the
:class:`~repro.sim.process.Process` driver registers itself as a
callback and resumes the generator with the event's value (or throws
the event's exception).
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, List, Optional, Set

from repro.sim.core import NORMAL, SimulationError, Simulator

__all__ = ["PENDING", "Event", "Timeout", "Condition", "AnyOf", "AllOf"]

#: Sentinel for "no value yet".
PENDING = object()


class Event:
    """A one-shot waitable occurrence.

    Parameters
    ----------
    sim:
        Owning simulator.
    name:
        Optional label used in ``repr`` and traces.
    """

    # Slotted all the way down: events are the kernel's most numerous
    # objects, so every subclass declares its own ``__slots__`` too.
    __slots__ = ("sim", "name", "callbacks", "_value", "_ok", "defused")

    def __init__(self, sim: Simulator, name: Optional[str] = None) -> None:
        self.sim = sim
        self.name = name
        self.callbacks: Optional[List] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        #: When True, a failure with no waiter does not crash the run.
        self.defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> Optional[bool]:
        """True if succeeded, False if failed, None while pending."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has no value yet")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0,
                priority: int = NORMAL) -> "Event":
        """Schedule this event to succeed with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self._ok = True
        self._value = value
        # Simulator.schedule, inlined: this is the kernel's hottest call.
        sim = self.sim
        heappush(sim._queue, (sim._now + delay, priority, next(sim._seq), self))
        return self

    def fail(self, exception: BaseException, delay: float = 0.0,
             priority: int = NORMAL) -> "Event":
        """Schedule this event to fail with ``exception``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        # Scheduled first, so a negative delay raises before any state
        # changes, as in succeed().
        self.sim.schedule(self, delay=delay, priority=priority)
        self._ok = False
        self._value = exception
        return self

    def trigger(self, other: "Event") -> "Event":
        """Mirror the outcome of an already-triggered ``other`` event."""
        if not other.triggered:
            raise SimulationError(f"cannot mirror untriggered {other!r}")
        if other._ok:
            return self.succeed(other._value)
        self.defused = False
        return self.fail(other._value)

    # -- misc -------------------------------------------------------------
    def add_callback(self, callback) -> None:
        """Register ``callback(event)``; runs immediately via the queue if
        the event is already processed."""
        if self.callbacks is None:
            # Already processed: deliver on a fresh NORMAL-priority
            # event so the callback still runs from inside the event
            # loop, after whatever is already due now.
            proxy = Event(self.sim, name=f"replay:{self.name}")
            proxy.callbacks.append(lambda _e: callback(self))
            proxy._ok = True
            proxy._value = self._value
            self.sim.schedule(proxy)
        else:
            self.callbacks.append(callback)

    def remove_callback(self, callback) -> None:
        if self.callbacks is not None and callback in self.callbacks:
            self.callbacks.remove(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        label = self.name or self.__class__.__name__
        return f"<{label} {state} at {id(self):#x}>"


class Timeout(Event):
    """Event that succeeds ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: Simulator, delay: float, value: Any = None,
                 name: Optional[str] = None) -> None:
        # Event.__init__ plus succeed(), inlined: one Timeout per sleep.
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self.sim = sim
        self.name = name
        self.callbacks = []
        self._value = value
        self._ok = True
        self.defused = False
        self.delay = delay
        heappush(sim._queue, (sim._now + delay, NORMAL, next(sim._seq), self))


class Condition(Event):
    """Composite event over several child events.

    Succeeds when ``evaluate(children, n_done)`` returns True; fails as
    soon as any child fails.  The success value is a dict mapping each
    *triggered* child event to its value, in child order.
    """

    __slots__ = ("_evaluate", "_events", "_done", "_completed")

    def __init__(self, sim: Simulator, evaluate, events: List[Event],
                 name: Optional[str] = None) -> None:
        super().__init__(sim, name=name)
        self._evaluate = evaluate
        self._events = events
        self._done = 0
        self._completed: Set[Event] = set()
        for event in events:
            if event.sim is not sim:
                raise SimulationError("condition spans multiple simulators")
        if not events:
            self.succeed({})
            return
        for event in events:
            if event.processed:
                self._check(event)
            else:
                event.add_callback(self._check)

    def _collect(self) -> dict:
        # Only children whose callbacks have run count as condition
        # results; a Timeout is "triggered" from creation but has not
        # *occurred* until the clock reaches it.
        return {e: e._value for e in self._events if e in self._completed and e._ok}

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._completed.add(event)
        self._done += 1
        if self._evaluate(self._events, self._done):
            self.succeed(self._collect())


class AnyOf(Condition):
    """Succeeds when at least one child event has succeeded."""

    __slots__ = ()

    def __init__(self, sim: Simulator, events: List[Event]) -> None:
        super().__init__(sim, lambda evs, n: n >= 1, events, name="AnyOf")


class AllOf(Condition):
    """Succeeds when every child event has succeeded."""

    __slots__ = ()

    def __init__(self, sim: Simulator, events: List[Event]) -> None:
        super().__init__(sim, lambda evs, n: n == len(evs), events, name="AllOf")
