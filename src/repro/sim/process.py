"""Generator-based simulated processes.

A :class:`Process` drives a Python generator: each value the generator
``yield``-s must be an :class:`~repro.sim.events.Event`; the process
suspends until that event is processed and is then resumed with the
event's value (or the event's exception is thrown into it).

Processes are themselves events — they succeed with the generator's
return value — so processes can wait on each other, be combined with
:class:`~repro.sim.events.AnyOf` / ``AllOf``, and be interrupted.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Generator, Optional

from repro.sim.core import URGENT, SimulationError, Simulator
from repro.sim.events import PENDING, Event

__all__ = ["Process", "Interrupt"]


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    Attributes
    ----------
    cause:
        Arbitrary object passed by the interrupter, conventionally a
        short string or the failing host object.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Interrupt({self.cause!r})"


class Process(Event):
    """A running generator inside the simulation.

    Parameters
    ----------
    sim:
        Owning simulator.
    generator:
        The generator to drive.  It is started at the next event-loop
        iteration (not synchronously), so a process body observes a
        fully constructed ``Process`` object.
    delay:
        Start the body this long from now instead.  The start is still
        an URGENT event, so it runs ahead of NORMAL events due at the
        same instant.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, sim: Simulator, generator: Generator,
                 name: Optional[str] = None, delay: float = 0.0) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"process body must be a generator, got {generator!r}")
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        # Event.__init__ and Simulator.schedule, inlined: a grid5000
        # boot starts five processes per host.
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self.defused = False
        self._generator = generator
        self._target: Optional[Event] = None
        # Bootstrap: resume once with a successful initial event.
        boot = Event(sim)
        boot.callbacks.append(self._resume)
        boot._ok = True
        boot._value = None
        heappush(sim._queue, (sim._now + delay, URGENT, next(sim._seq), boot))

    # -- state -----------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event this process currently waits on, if any."""
        return self._target

    # -- control ----------------------------------------------------------
    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process as soon as possible.

        The event the process was waiting on stays pending; the process
        may re-wait it after handling the interrupt.  Interrupting a
        finished process is a silent no-op (races between completion and
        failure injection are expected in churn experiments).
        """
        if self.triggered:
            return
        if self.sim.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        hit = Event(self.sim, name=f"interrupt:{self.name}")
        hit.callbacks.append(self._deliver_interrupt)
        hit._ok = False
        hit._value = Interrupt(cause)
        hit.defused = True
        self.sim.schedule(hit, priority=URGENT)

    def _deliver_interrupt(self, hit: Event) -> None:
        if self.triggered:  # completed in the meantime
            return
        if self._target is not None:
            self._target.remove_callback(self._resume)
            self._target = None
        self._step(throw=hit._value)

    # -- driver ------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        self._target = None
        if event._ok:
            self._step(send=event._value)
        else:
            event.defused = True
            self._step(throw=event._value)

    def _step(self, send: Any = None, throw: Optional[BaseException] = None) -> None:
        sim = self.sim
        prev, sim.active_process = sim.active_process, self
        try:
            if throw is not None:
                target = self._generator.throw(throw)
            else:
                target = self._generator.send(send)
        except StopIteration as stop:
            sim.active_process = prev
            self.succeed(stop.value)
            return
        except BaseException as exc:
            sim.active_process = prev
            self.fail(exc)
            return
        sim.active_process = prev
        if not isinstance(target, Event):
            self._generator.close()
            self.fail(SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"))
            return
        callbacks = target.callbacks
        if callbacks is not None:
            callbacks.append(self._resume)
        else:
            # An already-processed target replays through add_callback.
            target.add_callback(self._resume)
        self._target = target

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name} {state}>"
