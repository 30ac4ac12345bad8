"""The virtual-time loop as it stood on ``asyncio.SelectorEventLoop``.

This is the oracle for :class:`repro.middleware.controlplane.VirtualTimeLoop`:
the class below is kept verbatim, and
``tests/middleware/test_virtual_loop_oracle.py`` runs one seeded
coroutine population on both loops and requires equal
``(loop.time(), label)`` traces and equal loop-turn counts.  A port of
the control plane to another kernel must match it or knowingly break
it.  Do not edit the class.
"""

from __future__ import annotations

import asyncio
import heapq
import selectors


class VirtualTimeLoop(asyncio.SelectorEventLoop):
    """A selector event loop running on simulated time.

    ``time()`` returns the virtual clock; whenever the ready queue is
    empty the loop advances the clock to the earliest scheduled timer
    instead of blocking in the selector.  ``await asyncio.sleep(3600)``
    therefore costs nothing in wall time while preserving asyncio's
    exact callback ordering — which is what makes campaign reports
    byte-identical across ``--jobs`` settings.

    If the loop goes fully idle (no ready callbacks, no timers) while
    coroutines are still pending, no event can ever wake them in a
    purely virtual world, so the loop raises rather than hanging —
    the virtual analogue of a deadlock detector.
    """

    def __init__(self) -> None:
        # A bare select()-based selector: no FDs are ever registered in
        # virtual mode, so the portable selector is the predictable one.
        super().__init__(selectors.SelectSelector())
        self._vtime = 0.0

    def time(self) -> float:
        return self._vtime

    def _run_once(self) -> None:
        # Drop cancelled timers first so the jump target is live.
        while self._scheduled and self._scheduled[0]._cancelled:
            handle = heapq.heappop(self._scheduled)
            handle._scheduled = False
        if not self._ready:
            if self._scheduled:
                when = self._scheduled[0]._when
                if when > self._vtime:
                    self._vtime = when
            elif not self._stopping:
                raise RuntimeError(
                    "virtual-time deadlock: tasks pending but no callback "
                    "is ready and no timer is scheduled"
                )
        super()._run_once()
