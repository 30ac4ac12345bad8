"""Differential test: the virtual-time loop against its reference.

:mod:`tests.middleware.reference_virtual_loop` keeps the loop as it
stood on ``asyncio.SelectorEventLoop``.  Each test here runs one seeded
coroutine population on both loops and requires the same
``(loop.time(), label)`` trace, the same number of loop turns and
compaction of the timer heap on the same turns.  The populations mix
equal-deadline ties, zero and sub-resolution sleeps, tasks cancelled
mid-sleep, ``gather``, a contended ``asyncio.Lock``, enough cancelled
timers to cross asyncio's compaction threshold (more than 100
scheduled, more than half cancelled) and a deadlock.
"""

import asyncio
import os
import random

import pytest

from repro.middleware.controlplane import VirtualTimeLoop, run_virtual
from tests.middleware.reference_virtual_loop import (
    VirtualTimeLoop as ReferenceLoop)

#: Far above any population below; a loop that stops advancing fails
#: on this budget instead of hanging the suite.
MAX_TURNS = 200_000

#: Below the monotonic clock's resolution: such a timer is due on the
#: turn after it is scheduled, without a clock jump.
SUB_RESOLUTION_S = 1e-12


def counting(loop_cls):
    """``loop_cls`` recording its turns and the turns that compact."""

    class Counting(loop_cls):
        def __init__(self):
            super().__init__()
            self.turns = 0
            self.compactions = []

        def _run_once(self):
            self.turns += 1
            if self.turns > MAX_TURNS:
                raise RuntimeError("loop turn budget exceeded")
            heap = self._scheduled
            super()._run_once()
            if self._scheduled is not heap:
                self.compactions.append(self.turns)

    return Counting


def run_on(loop_cls, make_main):
    """Run ``make_main(trace)`` on a fresh loop; trace, outcome, counts."""
    loop = counting(loop_cls)()
    trace = []
    try:
        asyncio.set_event_loop(loop)
        try:
            outcome = ("ok", loop.run_until_complete(make_main(trace)))
        except RuntimeError as exc:
            outcome = ("error", str(exc))
        return trace, outcome, loop.turns, loop.compactions, loop.time()
    finally:
        asyncio.set_event_loop(None)
        loop.close()


def assert_same_on_both(make_main):
    ours = run_on(VirtualTimeLoop, make_main)
    reference = run_on(ReferenceLoop, make_main)
    # Outcome, turns, compactions and clock first: they print short.
    assert ours[1:] == reference[1:]
    trace, expected = ours[0], reference[0]
    for i, (got, want) in enumerate(zip(trace, expected)):
        assert got == want, f"traces part at entry {i}"
    assert len(trace) == len(expected)
    return ours


def plans(seed, workers, steps):
    """Per-worker step lists drawn before either loop runs."""
    rng = random.Random(seed)
    kinds = ("int", "int", "zero", "sub", "frac", "lock", "gather")
    return [[(rng.choice(kinds), rng.randint(0, 3)) for _ in range(steps)]
            for _ in range(workers)]


def population(seed, workers=24, steps=12, cancel_every=5):
    def make_main(trace):
        async def main():
            loop = asyncio.get_running_loop()
            lock = asyncio.Lock()

            def mark(label):
                trace.append((loop.time(), label))

            async def leaf(label, delay):
                await asyncio.sleep(delay)
                mark(label)
                return label

            async def worker(i, plan):
                for j, (kind, arg) in enumerate(plan):
                    label = f"w{i}.{j}"
                    if kind == "int":
                        await asyncio.sleep(arg)
                    elif kind == "zero":
                        await asyncio.sleep(0)
                    elif kind == "sub":
                        await asyncio.sleep(SUB_RESOLUTION_S)
                    elif kind == "frac":
                        await asyncio.sleep(arg + 0.25)
                    elif kind == "lock":
                        async with lock:
                            mark(label + ":locked")
                            await asyncio.sleep(arg)
                    else:
                        await asyncio.gather(*(
                            leaf(f"{label}:g{k}", k % 2)
                            for k in range(arg + 1)))
                    mark(label)

            tasks = [asyncio.ensure_future(worker(i, plan))
                     for i, plan in enumerate(plans(seed, workers, steps))]
            await asyncio.sleep(2)
            for i, task in enumerate(tasks):
                if i % cancel_every == 0:
                    task.cancel()
                    mark(f"cancel w{i}")
            results = await asyncio.gather(*tasks, return_exceptions=True)
            return [type(r).__name__ for r in results]

        return main()

    return make_main


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_population(self, seed):
        trace, outcome, turns, _, _ = assert_same_on_both(population(seed))
        assert outcome[0] == "ok"
        assert "CancelledError" in outcome[1]
        assert any(":locked" in label for _, label in trace)
        assert turns > 100

    def test_equal_deadline_ties_break_alike(self):
        """Timer handles compare on their deadline alone, so the heap's
        shape decides among ties: not FIFO, but the same on both loops
        as long as every heap operation happens in the same order."""
        def make_main(trace):
            async def main():
                async def tick(i):
                    for step in range(3):
                        await asyncio.sleep(1)
                        trace.append((asyncio.get_running_loop().time(),
                                      f"t{i}.{step}"))

                await asyncio.gather(*(tick(i) for i in range(40)))

            return main()

        trace, _, _, _, now = assert_same_on_both(make_main)
        assert now == 3.0 and len(trace) == 120
        labels = [label for _, label in trace[:40]]
        assert labels != sorted(labels, key=lambda s: int(s[1:-2]))

    def test_compaction_threshold_crossed(self):
        """300 long sleepers, 200 cancelled at once: the heap is compacted
        on the same turn on both loops, amid short-lived traffic."""
        def make_main(trace):
            async def main():
                loop = asyncio.get_running_loop()

                async def sleeper(i):
                    await asyncio.sleep(1000 + i % 7)
                    trace.append((loop.time(), f"s{i}"))

                async def chatter(i):
                    for step in range(20):
                        await asyncio.sleep((i + step) % 3)
                        trace.append((loop.time(), f"c{i}.{step}"))

                sleepers = [asyncio.ensure_future(sleeper(i))
                            for i in range(300)]
                chat = [asyncio.ensure_future(chatter(i)) for i in range(8)]
                await asyncio.sleep(1)
                for i, task in enumerate(sleepers):
                    if i % 3:
                        task.cancel()
                await asyncio.gather(*chat)
                await asyncio.gather(*sleepers, return_exceptions=True)

            return main()

        trace, _, _, compactions, now = assert_same_on_both(make_main)
        assert compactions
        assert now == 1006.0
        assert sum(label.startswith("s") for _, label in trace) == 100

    def test_compaction_counts_timers_the_head_pop_dropped(self):
        """The loop's own cancelled-head pop does not decrement the
        cancelled-timer count, so 80 timers it dropped still count when
        120 live ones arrive, and the heap is compacted then."""
        def make_main(trace):
            async def main():
                loop = asyncio.get_running_loop()

                async def sleeper(i, delay):
                    await asyncio.sleep(delay)
                    trace.append((loop.time(), f"s{i}"))

                doomed = [asyncio.ensure_future(sleeper(i, 100))
                          for i in range(80)]
                await asyncio.sleep(0)
                for task in doomed:
                    task.cancel()
                await asyncio.sleep(1)
                await asyncio.gather(*(sleeper(i, 200 + i % 3)
                                       for i in range(120)))
                await asyncio.gather(*doomed, return_exceptions=True)

            return main()

        trace, _, _, compactions, now = assert_same_on_both(make_main)
        assert compactions
        assert now == 203.0 and len(trace) == 120

    def test_sub_resolution_timers_interleave_with_ready_chains(self):
        def make_main(trace):
            async def main():
                loop = asyncio.get_running_loop()

                async def chain(tag, delay):
                    for step in range(4):
                        await asyncio.sleep(delay)
                        trace.append((loop.time(), f"{tag}{step}"))

                await asyncio.sleep(1)
                await asyncio.gather(chain("z", 0),
                                     chain("s", SUB_RESOLUTION_S),
                                     chain("i", 1))

            return main()

        trace, _, _, _, _ = assert_same_on_both(make_main)
        labels = [label for _, label in trace]
        assert labels.index("s0") < labels.index("z3")

    def test_deadlock_error_raised_at_the_same_instant(self):
        def make_main(trace):
            async def main():
                loop = asyncio.get_running_loop()

                async def stuck(i):
                    await asyncio.sleep(i)
                    trace.append((loop.time(), f"stuck{i}"))
                    await loop.create_future()

                await asyncio.gather(*(stuck(i) for i in range(5)))

            return main()

        trace, outcome, _, _, now = assert_same_on_both(make_main)
        assert outcome[0] == "error" and "deadlock" in outcome[1]
        assert now == 4.0 and len(trace) == 5


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd to list open descriptors")
def test_run_virtual_opens_no_file_descriptors():
    def open_fds():
        return sorted(os.listdir("/proc/self/fd"))

    before = open_fds()

    async def main():
        await asyncio.sleep(0)
        return open_fds()

    assert run_virtual(main()) == before
    assert open_fds() == before
