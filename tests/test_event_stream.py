"""Pin the kernel's event stream on a Grid'5000 boot plus one job.

The simulator's trace hook sees every processed event, in order.  The
digest covers each event's time (``repr``, so every bit of the float
counts) and its class, for the whole boot and then one 100-process
spread job.  Any change to the heap order, the sequence numbers, the
latency or bandwidth arithmetic, or to which events a process creates
moves it: a cheaper kernel that keeps this pin runs the same events in
the same order at the same times.
"""

import hashlib

from repro.cluster import build_grid5000_cluster
from repro.middleware.jobs import JobRequest

EXPECTED = "3eea688d00e9fea257dab6933527b9e0c22b907aa11c6cde8dbfda88a24bbc65"


def event_stream_digest(seed: int = 0):
    cluster = build_grid5000_cluster(seed=seed, boot=False)
    digest = hashlib.sha256()
    count = 0

    def trace(when, event):
        nonlocal count
        count += 1
        digest.update(f"{when!r} {type(event).__name__}\n".encode())

    cluster.sim._trace = trace
    cluster.boot()
    boot_events = count
    result = cluster.submit_and_run(JobRequest(n=100, strategy="spread"))
    assert result.ok
    return digest.hexdigest(), boot_events, count


def test_grid5000_event_stream_is_pinned():
    digest, boot_events, total = event_stream_digest()
    assert boot_events == 3502
    assert total == 5548
    assert digest == EXPECTED
