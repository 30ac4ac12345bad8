"""The asyncio control plane: virtual time, gossip, admission, scale.

Covers the virtual-time loop's clock/determinism contract, the
registry-with-heartbeats service (register, heartbeat, reaper,
sequence-deduped gossip, proposals), the atomic admission path under
thousands of genuinely concurrent submitters, and the byte-level
determinism the ``multiuser2`` campaign relies on.
"""

import asyncio
import gc
import sys
import time

import pytest

from repro.cluster import build_small_cluster
from repro.middleware.controlplane import (ControlPlane, VirtualTimeLoop,
                                           run_multi_tenant, run_virtual)
from repro.overlay.gossip import GossipEnvelope, GossipView, PeerDigest


def small_plane():
    cluster = build_small_cluster(seed=5)
    gks = {name: mpd.gatekeeper for name, mpd in cluster.mpds.items()}
    return cluster, gks


def fairness_round(strategy="spread", tenants=50, rate=0.02, seed=42,
                   **kwargs):
    cluster, gks = small_plane()
    return run_multi_tenant(
        cluster.topology, gks, cluster.default_submitter,
        tenants=tenants, rate_hz=rate, strategy_name=strategy, seed=seed,
        **kwargs)


class TestVirtualTimeLoop:
    def test_sleep_advances_virtual_not_wall_time(self):
        async def main():
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            await asyncio.sleep(3600.0)
            return loop.time() - t0

        wall0 = time.monotonic()
        elapsed = run_virtual(main())
        assert elapsed == pytest.approx(3600.0)
        assert time.monotonic() - wall0 < 5.0

    def test_timer_ordering_is_exact(self):
        """Callbacks fire in deadline order regardless of creation
        order — asyncio semantics preserved on the virtual clock."""
        async def main():
            order = []

            async def mark(delay, tag):
                await asyncio.sleep(delay)
                order.append(tag)

            await asyncio.gather(mark(3.0, "c"), mark(1.0, "a"),
                                 mark(2.0, "b"))
            return order

        assert run_virtual(main()) == ["a", "b", "c"]

    def test_idle_loop_with_pending_task_raises_deadlock(self):
        """A future nothing will ever set can never resolve in virtual
        time; the loop must raise instead of spinning forever."""
        async def main():
            await asyncio.get_running_loop().create_future()

        with pytest.raises(RuntimeError, match="deadlock"):
            run_virtual(main())

    def test_loop_is_reusable_per_run(self):
        assert run_virtual(asyncio.sleep(1.0, result="x")) == "x"
        assert run_virtual(asyncio.sleep(2.0, result="y")) == "y"

    def test_abandoned_async_generator_is_closed_on_the_loop(self,
                                                             monkeypatch):
        """asyncio closes an abandoned async generator through
        ``call_soon_threadsafe``; the selector-free loop must take it."""
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        closed = []

        async def numbers():
            try:
                for i in range(10):
                    await asyncio.sleep(1.0)
                    yield i
            finally:
                closed.append(asyncio.get_running_loop().time())

        async def main():
            agen = numbers()
            async for i in agen:
                if i == 2:
                    break
            del agen
            gc.collect()
            await asyncio.sleep(1.0)

        run_virtual(main())
        assert unraisable == []
        assert closed == [3.0]

    def test_clock_starts_at_zero(self):
        loop = VirtualTimeLoop()
        try:
            assert loop.time() == 0.0
        finally:
            loop.close()


class TestControlPlaneService:
    def test_register_and_heartbeat_advance_seq(self):
        cluster, gks = small_plane()

        async def main():
            cp = ControlPlane(cluster.topology, gks,
                              cluster.default_submitter)
            first = await cp.register_peer("a1-1.alpha")
            beat = await cp.heartbeat("a1-1.alpha")
            return cp, first, beat

        cp, first, beat = run_virtual(main())
        assert beat.seq == first.seq + 1
        assert cp.view.get("a1-1.alpha").seq == beat.seq

    def test_reaper_marks_silent_peer_suspect(self):
        cluster, gks = small_plane()

        async def main():
            cp = ControlPlane(cluster.topology, gks,
                              cluster.default_submitter, stale_after_s=10.0)
            for name in sorted(gks):
                await cp.register_peer(name)
            reaper = asyncio.ensure_future(cp.reaper(5.0))
            # Only one peer keeps heartbeating; the rest go silent.
            for _ in range(6):
                await asyncio.sleep(5.0)
                await cp.heartbeat("a1-1.alpha")
            reaper.cancel()
            await asyncio.gather(reaper, return_exceptions=True)
            return cp

        cp = run_virtual(main())
        assert cp.view.get("a1-1.alpha").status == "online"
        suspects = [d.name for d in cp.view.digest()
                    if d.status == "suspect"]
        assert len(suspects) == len(gks) - 1
        assert "a1-1.alpha" not in suspects

    def test_gossip_envelope_duplicates_and_stale_dropped(self):
        cluster, gks = small_plane()

        async def main():
            cp = ControlPlane(cluster.topology, gks,
                              cluster.default_submitter)
            for name in sorted(gks):
                await cp.register_peer(name)
            replica = GossipView(owner="replica")
            env = cp.make_envelope()
            assert replica.apply(env) == len(gks)
            assert replica.apply(env) == 0  # duplicate envelope
            # Newer envelope with a fresher digest advances the view...
            await cp.heartbeat("a1-1.alpha")
            assert replica.apply(cp.make_envelope()) == 1
            # ...and a reordered stale digest cannot roll it back.
            stale = GossipEnvelope(origin="late", seq=1, entries=(
                PeerDigest(name="a1-1.alpha", seq=1, status="offline"),))
            replica.apply(stale)
            return replica

        replica = run_virtual(main())
        assert replica.get("a1-1.alpha").status == "online"
        assert replica.stale > 0

    def test_proposals_commit_and_abort(self):
        cluster, gks = small_plane()
        cp = ControlPlane(cluster.topology, gks, cluster.default_submitter)
        a = cp.propose("job-1", "t0", ["a1-1.alpha"])
        b = cp.propose("job-2", "t1", ["b1-1.beta"])
        assert (a.proposal_id, b.proposal_id) == (1, 2)
        cp.decide(a.proposal_id, accept=True)
        cp.decide(b.proposal_id, accept=False)
        assert [p.job_id for p in cp.proposals("committed")] == ["job-1"]
        assert [p.job_id for p in cp.proposals("aborted")] == ["job-2"]


class TestMultiTenantRound:
    def test_j_limit_never_exceeded_under_concurrency(self):
        """Sample every gatekeeper throughout the round: the in-flight
        count must never overshoot J while thousands of admissions
        interleave."""
        cluster, gks = small_plane()
        violations = []

        async def monitor():
            while True:
                await asyncio.sleep(0.5)
                for name, gk in gks.items():
                    if gk.applications_in_flight > gk.prefs.j_limit:
                        violations.append(name)

        async def main():
            from repro.middleware.controlplane import _campaign

            probe = asyncio.ensure_future(monitor())
            result = await _campaign(
                cluster.topology, gks, cluster.default_submitter,
                tenants=200, rate_hz=0.05, jobs_per_tenant=2, n=4,
                strategy_name="spread", seed=11, work_s=20.0,
                wan_penalty=0.25, heartbeat_period_s=30.0)
            probe.cancel()
            await asyncio.gather(probe, return_exceptions=True)
            return result

        result = run_virtual(main())
        assert violations == []
        assert result["refused"] > 0  # contention actually happened
        assert result["leaked_holds"] == 0
        assert result["stuck_in_flight"] == {}

    def test_thousand_tenants_complete_and_reconcile(self):
        result = fairness_round(tenants=1000, rate=0.01, seed=3)
        assert result["arrivals"] == 2000
        assert result["admitted"] + result["refused"] == 2000
        assert result["leaked_holds"] == 0
        assert result["stuck_in_flight"] == {}
        assert result["proposals_committed"] == result["admitted"]
        assert result["proposals_aborted"] == result["refused"]

    def test_round_is_deterministic_across_runs(self):
        """Same seed, fresh state: byte-identical ledger — the property
        the multiuser2 --jobs determinism rests on."""
        a = fairness_round(tenants=120, rate=0.03, seed=9)
        b = fairness_round(tenants=120, rate=0.03, seed=9)
        assert a == b

    def test_seed_changes_the_round(self):
        a = fairness_round(tenants=40, rate=0.03, seed=1)
        b = fairness_round(tenants=40, rate=0.03, seed=2)
        assert a != b

    def test_admission_latency_percentiles_ordered(self):
        result = fairness_round(tenants=80, rate=0.05, seed=4)
        assert (result["admit_p50_ms"] <= result["admit_p95_ms"]
                <= result["admit_p99_ms"])
        assert result["makespan_s"] > 0

    def test_input_validation(self):
        cluster, gks = small_plane()
        with pytest.raises(ValueError):
            run_multi_tenant(cluster.topology, gks,
                             cluster.default_submitter,
                             tenants=0, rate_hz=1.0)
        with pytest.raises(ValueError):
            run_multi_tenant(cluster.topology, gks,
                             cluster.default_submitter,
                             tenants=1, rate_hz=0.0)
