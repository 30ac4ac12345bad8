"""Mailboxes and counted resources for simulated processes.

These are the coordination primitives protocol code is written against:

* :class:`Store` — unbounded/bounded FIFO mailbox (``put``/``get``).
* :class:`FilterStore` — ``get(predicate)``: the oldest item a
  predicate accepts.  (Host inboxes are per-port queues instead, see
  :mod:`repro.net.inbox`.)
* :class:`PriorityStore` — pops the smallest item first.
* :class:`Resource` — counted resource with FIFO queueing, used for
  per-host core slots and per-link flow caps.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, List, Optional

from repro.sim.core import SimulationError, Simulator
from repro.sim.events import Event

__all__ = ["Store", "FilterStore", "PriorityStore", "Resource"]


class StorePut(Event):
    """Event returned by :meth:`Store.put`."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.sim, name=f"put:{store.name}")
        self.item = item
        store._do_put(self)


class StoreGet(Event):
    """Event returned by :meth:`Store.get`."""

    __slots__ = ("predicate",)

    def __init__(self, store: "Store", predicate: Optional[Callable] = None) -> None:
        super().__init__(store.sim, name=f"get:{store.name}")
        self.predicate = predicate
        store._do_get(self)


class Store:
    """FIFO mailbox with optional capacity.

    ``put`` events succeed immediately while below capacity, otherwise
    they queue; ``get`` events succeed immediately when an item is
    available, otherwise they queue.  Matching is strictly FIFO which
    keeps message delivery order deterministic.
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf"),
                 name: str = "store") -> None:
        if capacity <= 0:
            raise SimulationError("store capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: deque = deque()
        self._getters: deque = deque()
        self._putters: deque = deque()

    def __len__(self) -> int:
        return len(self.items)

    # -- public API --------------------------------------------------------
    def put(self, item: Any) -> StorePut:
        return StorePut(self, item)

    def get(self) -> StoreGet:
        return StoreGet(self)

    # -- internals -----------------------------------------------------------
    def _do_put(self, event: StorePut) -> None:
        if len(self.items) < self.capacity:
            self.items.append(event.item)
            event.succeed()
            self._match()
        else:
            self._putters.append(event)

    def _do_get(self, event: StoreGet) -> None:
        self._getters.append(event)
        self._match()

    def _pop_for(self, event: StoreGet) -> Any:
        """Remove and return the item satisfying ``event`` or raise KeyError."""
        return self.items.popleft()

    def _satisfiable(self, event: StoreGet) -> bool:
        return bool(self.items)

    def _match(self) -> None:
        # Serve getters in FIFO order while possible.
        progress = True
        while progress:
            progress = False
            if self._getters and self._satisfiable(self._getters[0]):
                getter = self._getters.popleft()
                getter.succeed(self._pop_for(getter))
                progress = True
            # Admit queued putters into freed capacity.
            while self._putters and len(self.items) < self.capacity:
                putter = self._putters.popleft()
                self.items.append(putter.item)
                putter.succeed()
                progress = True


class FilterStore(Store):
    """Store whose ``get`` accepts a predicate over items.

    Queued getters are scanned in FIFO order but a getter is only served
    when *some* item satisfies its predicate; other getters are not
    blocked behind it (like SimPy's FilterStore).
    """

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        return StoreGet(self, predicate=predicate or (lambda item: True))

    def _satisfiable(self, event: StoreGet) -> bool:
        return any(event.predicate(item) for item in self.items)

    def _pop_for(self, event: StoreGet) -> Any:
        for idx, item in enumerate(self.items):
            if event.predicate(item):
                del self.items[idx]
                return item
        raise KeyError("no matching item")  # pragma: no cover - guarded

    def _match(self) -> None:
        progress = True
        while progress:
            progress = False
            for getter in list(self._getters):
                if self._satisfiable(getter):
                    self._getters.remove(getter)
                    getter.succeed(self._pop_for(getter))
                    progress = True
                    break
            while self._putters and len(self.items) < self.capacity:
                putter = self._putters.popleft()
                self.items.append(putter.item)
                putter.succeed()
                progress = True

    def _do_get(self, event: StoreGet) -> None:
        self._getters.append(event)
        self._match()


class PriorityStore(Store):
    """Store that always yields its smallest item (heap ordered).

    Items must be mutually comparable; use ``(priority, payload)``
    tuples or dataclasses with ordering.
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf"),
                 name: str = "pstore") -> None:
        super().__init__(sim, capacity, name)
        self._heap: List = []
        self._tie = count()

    def __len__(self) -> int:
        return len(self._heap)

    def _do_put(self, event: StorePut) -> None:
        if len(self._heap) < self.capacity:
            heappush(self._heap, (event.item, next(self._tie)))
            event.succeed()
            self._match()
        else:
            self._putters.append(event)

    def _satisfiable(self, event: StoreGet) -> bool:
        return bool(self._heap)

    def _pop_for(self, event: StoreGet) -> Any:
        item, _ = heappop(self._heap)
        return item

    def _match(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._getters and self._heap:
                getter = self._getters.popleft()
                getter.succeed(self._pop_for(getter))
                progress = True
            while self._putters and len(self._heap) < self.capacity:
                putter = self._putters.popleft()
                heappush(self._heap, (putter.item, next(self._tie)))
                putter.succeed()
                progress = True


class ResourceRequest(Event):
    """Event returned by :meth:`Resource.request`."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.sim, name=f"req:{resource.name}")
        self.resource = resource
        resource._do_request(self)

    def cancel(self) -> None:
        """Withdraw a still-pending request from the wait queue."""
        if not self.triggered:
            try:
                self.resource._waiters.remove(self)
            except ValueError:  # pragma: no cover - already granted
                pass


class Resource:
    """Counted resource with FIFO grant order.

    >>> sim = Simulator()
    >>> cores = Resource(sim, capacity=2, name="cores")
    """

    def __init__(self, sim: Simulator, capacity: int = 1,
                 name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: deque = deque()

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def request(self) -> ResourceRequest:
        return ResourceRequest(self)

    def _do_request(self, event: ResourceRequest) -> None:
        if self.in_use < self.capacity:
            self.in_use += 1
            event.succeed(self)
        else:
            self._waiters.append(event)

    def release(self, _request: Optional[ResourceRequest] = None) -> None:
        """Return one unit; grants the oldest waiter if any."""
        if self.in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed(self)
        else:
            self.in_use -= 1
