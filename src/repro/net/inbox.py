"""Per-host message inbox keyed by port.

Every host registered with the :class:`~repro.net.transport.Network`
owns one :class:`Inbox`.  Each port has a FIFO of queued messages and a
FIFO of waiting receives:

* a delivery tests only the receives waiting on the message's own
  port, oldest first, and hands the message to the first that accepts
  it (otherwise it queues);
* a receive scans only its own port's queue, oldest first, and takes
  the first message it accepts (otherwise it waits);
* a port whose queue and wait list are both empty has no entry at all,
  so one-shot reply ports (``rs-reply:*``, ``done:*`` ...) leave
  nothing behind once drained.

A receive accepts a message when the kind (if given) and the ``match``
predicate (if given) both agree.  Before every delivery no waiting
receive can be satisfied by a queued message, so testing only the new
message against its port's waiters serves exactly the receive a
host-wide filtered mailbox would have served.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.sim.core import Simulator
from repro.sim.events import Event

__all__ = ["Inbox", "Receive"]

#: ``match(message) -> bool`` refines a receive beyond port and kind.
MatchFn = Callable[[Any], bool]


class Receive(Event):
    """A receive on one port of an :class:`Inbox`; succeeds with the
    accepted message."""

    __slots__ = ("inbox", "port", "kind", "match")

    def __init__(self, inbox: "Inbox", port: str, kind: Optional[str],
                 match: Optional[MatchFn]) -> None:
        super().__init__(inbox.sim, name=port)
        self.inbox = inbox
        self.port = port
        self.kind = kind
        self.match = match

    def accepts(self, msg: Any) -> bool:
        return ((self.kind is None or msg.kind == self.kind)
                and (self.match is None or self.match(msg)))

    def cancel(self) -> bool:
        """Withdraw this receive while it is still waiting.

        Returns True if it was withdrawn.  A receive that was already
        served keeps its message (the caller decides what to do with
        it); cancelling it is a no-op that returns False.
        """
        if self.triggered:
            return False
        return self.inbox._withdraw(self)


class Inbox:
    """Per-port FIFO mailbox of one host."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._queued: Dict[str, Deque[Any]] = {}
        self._waiting: Dict[str, Deque[Receive]] = {}

    # -- delivery and receipt ----------------------------------------------
    def deliver(self, msg: Any) -> None:
        """Hand ``msg`` to the oldest waiting receive on its port that
        accepts it, or queue it."""
        port = msg.port
        waiting = self._waiting.get(port)
        if waiting is not None:
            for idx, recv in enumerate(waiting):
                if recv.accepts(msg):
                    del waiting[idx]
                    if not waiting:
                        del self._waiting[port]
                    recv.succeed(msg)
                    return
        queue = self._queued.get(port)
        if queue is None:
            self._queued[port] = deque((msg,))
        else:
            queue.append(msg)

    def receive(self, port: str, kind: Optional[str] = None,
                match: Optional[MatchFn] = None) -> Receive:
        """Event yielding the oldest queued (or next delivered) message
        on ``port`` that the receive accepts."""
        recv = Receive(self, port, kind, match)
        queue = self._queued.get(port)
        if queue is not None:
            for idx, msg in enumerate(queue):
                if recv.accepts(msg):
                    del queue[idx]
                    if not queue:
                        del self._queued[port]
                    recv.succeed(msg)
                    return recv
        waiting = self._waiting.get(port)
        if waiting is None:
            self._waiting[port] = deque((recv,))
        else:
            waiting.append(recv)
        return recv

    def discard(self, port: str,
                predicate: Optional[MatchFn] = None) -> List[Any]:
        """Remove and return ``port``'s queued messages that satisfy
        ``predicate`` (all of them without one), in arrival order."""
        queue = self._queued.get(port)
        if queue is None:
            return []
        if predicate is None:
            del self._queued[port]
            return list(queue)
        removed, kept = [], deque()
        for msg in queue:
            (removed if predicate(msg) else kept).append(msg)
        if kept:
            self._queued[port] = kept
        else:
            del self._queued[port]
        return removed

    def _withdraw(self, recv: Receive) -> bool:
        waiting = self._waiting.get(recv.port)
        if waiting is None or recv not in waiting:
            return False
        waiting.remove(recv)
        if not waiting:
            del self._waiting[recv.port]
        return True

    # -- introspection -------------------------------------------------------
    def queued(self, port: Optional[str] = None) -> List[Any]:
        """Queued messages on ``port`` (on every port without one)."""
        if port is not None:
            return list(self._queued.get(port, ()))
        return [msg for queue in self._queued.values() for msg in queue]

    def waiting(self, port: Optional[str] = None) -> List[Receive]:
        """Waiting receives on ``port`` (on every port without one)."""
        if port is not None:
            return list(self._waiting.get(port, ()))
        return [recv for waits in self._waiting.values() for recv in waits]

    def ports(self) -> List[str]:
        """Ports holding a queued message or a waiting receive."""
        return sorted(set(self._queued) | set(self._waiting))
