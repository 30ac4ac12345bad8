"""Event loop for the deterministic discrete-event simulator.

The design follows the classic event-list architecture: a binary heap of
``(time, priority, sequence, event)`` entries.  The *sequence* component
makes the order of simultaneous events deterministic (FIFO within a
priority class), which in turn makes every experiment in this repository
bit-for-bit reproducible for a given seed.

Two priority classes exist:

``URGENT``
    Used by process interrupts so that an interrupt scheduled "now"
    preempts ordinary events scheduled at the same instant.
``NORMAL``
    Everything else.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, Generator, Iterable, Optional

from repro.sim.rng import RngRegistry

__all__ = [
    "Simulator",
    "SimulationError",
    "StopSimulation",
    "URGENT",
    "NORMAL",
    "Infinity",
]

#: Event priority that preempts same-time NORMAL events (interrupts).
URGENT = 0
#: Default event priority.
NORMAL = 1

#: Sentinel simulation horizon meaning "run until the queue drains".
Infinity = float("inf")


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (double trigger, dead simulator...)."""


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Simulator.run` early.

    User code normally calls :meth:`Simulator.stop` rather than raising
    this directly.
    """


class Simulator:
    """Discrete-event simulator with a deterministic event queue.

    Parameters
    ----------
    seed:
        Master seed for the :class:`~repro.sim.rng.RngRegistry` attached
        to this simulator.  All stochastic models used in experiments
        draw from named child streams of this seed.
    trace:
        Optional callable ``(time, event) -> None`` invoked for every
        processed event; used by :class:`~repro.sim.monitor.Monitor`
        based debugging helpers.

    Examples
    --------
    >>> sim = Simulator(seed=1)
    >>> log = []
    >>> def proc(sim):
    ...     yield sim.timeout(2.5)
    ...     log.append(sim.now)
    >>> _ = sim.process(proc(sim))
    >>> sim.run()
    >>> log
    [2.5]
    """

    def __init__(self, seed: int = 0, trace: Optional[Callable] = None) -> None:
        self._now: float = 0.0
        self._queue: list = []
        self._seq = count()
        self._stopped = False
        self._trace = trace
        self.rng = RngRegistry(seed)
        #: Number of events processed so far (diagnostic).
        self.events_processed: int = 0
        self.active_process = None  # set by Process while it runs

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time (seconds by convention)."""
        return self._now

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Insert a triggered event into the queue ``delay`` from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        heappush(self._queue, (self._now + delay, priority, next(self._seq), event))

    def event(self, name: Optional[str] = None):
        """Return a fresh, untriggered :class:`~repro.sim.events.Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None):
        """Return an event that succeeds ``delay`` time units from now."""
        return Timeout(self, delay, value=value)

    def process(self, generator: Generator, delay: float = 0.0):
        """Start a new :class:`~repro.sim.process.Process` ``delay`` from
        now (immediately by default)."""
        return Process(self, generator, delay=delay)

    def any_of(self, events: Iterable):
        return AnyOf(self, list(events))

    def all_of(self, events: Iterable):
        return AllOf(self, list(events))

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or :data:`Infinity`."""
        return self._queue[0][0] if self._queue else Infinity

    def step(self) -> None:
        """Process exactly one event.

        Raises
        ------
        SimulationError
            If the queue is empty.
        """
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _prio, _seq, event = heappop(self._queue)
        self._now = when
        self.events_processed += 1
        if self._trace is not None:
            self._trace(when, event)
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            exc = event._value
            raise exc if isinstance(exc, BaseException) else SimulationError(repr(exc))

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock passes ``until``.

        When ``until`` is given the clock is advanced to exactly
        ``until`` even if the queue drained earlier, mirroring SimPy
        semantics so that periodic monitors read a consistent end time.
        """
        self._stopped = False
        horizon = Infinity if until is None else float(until)
        if horizon < self._now:
            raise SimulationError(
                f"run(until={horizon}) is in the past (now={self._now})"
            )
        try:
            while self._queue and self._queue[0][0] <= horizon:
                self.step()
                if self._stopped:
                    return
        except StopSimulation:
            return
        if horizon is not Infinity and horizon > self._now:
            self._now = horizon

    def run_until_complete(self, event, limit: float = Infinity) -> Any:
        """Run until ``event`` is processed and return its value.

        Raises
        ------
        SimulationError
            If the queue drains or ``limit`` passes before the event
            triggers, or re-raises the event's failure exception.
        """
        while not event.triggered:
            if not self._queue or self._queue[0][0] > limit:
                raise SimulationError(
                    f"simulation ended at t={self._now} before {event!r} triggered"
                )
            self.step()
        # Drain same-time callbacks so the event is fully processed.
        while not event.processed and self._queue and self._queue[0][0] <= self._now:
            self.step()
        if event._ok:
            return event._value
        event.defused = True
        exc = event._value
        raise exc if isinstance(exc, BaseException) else SimulationError(repr(exc))

    def stop(self) -> None:
        """Halt :meth:`run` after the current event finishes processing."""
        self._stopped = True


# The event classes import this module, so they are bound here, after
# ``Simulator`` exists.  ``repro.sim`` imports this module before any
# other submodule, so these imports always find it complete.
from repro.sim.events import AllOf, AnyOf, Event, Timeout  # noqa: E402
from repro.sim.process import Process  # noqa: E402
