"""Asyncio multi-tenant control plane on a virtual-time event loop.

The DES middleware (:mod:`repro.middleware.mpd`) serialises job
submissions: one generator runs at a time, so admission never
interleaves there.  The operating regime the Grid'5000 platform
reports describe — many independent users submitting concurrently
against shared hosts — needs genuinely interleaved admission, which
is what the atomic
:meth:`~repro.middleware.gatekeeper.Gatekeeper.try_admit` is for.

This module provides that regime:

* :class:`VirtualTimeLoop` — an asyncio event loop whose clock is
  *virtual*: ``time()`` returns a simulated instant, and whenever no
  callback is ready the loop jumps straight to the earliest scheduled
  timer.  A campaign with thousands of concurrent submitters and hours
  of simulated time runs in milliseconds of wall clock, and — because
  asyncio's ready queue is FIFO and every random draw is seeded — two
  runs of the same coroutine produce byte-identical traces, whether
  executed serially or in an orchestrator worker pool.
* :class:`ControlPlane` — the asyncio service in the spirit of the
  supernode (§3.2): a peer registry fed by heartbeats, gossip-style
  state propagation with per-origin sequence numbers
  (:mod:`repro.overlay.gossip`), job-assignment proposals, and the
  per-tenant admission path that routes every reservation through the
  atomic ``try_admit``.
* :func:`run_multi_tenant` — the open-loop multi-user round: per-tenant
  Poisson arrival processes submit jobs concurrently against one shared
  cluster's gatekeepers, and the fairness ledger (per-tenant slowdown
  spread, admission-latency percentiles, saturation) is returned as a
  plain dict for the ``multiuser2`` campaign driver.

Nothing here touches the wall clock or unseeded randomness; the
determinism contract is spelled out in DESIGN.md §13.
"""

from __future__ import annotations

import asyncio
import heapq
import math
import random
from asyncio import base_events
from dataclasses import dataclass, field
from typing import (Awaitable, Dict, List, Optional, Sequence, Tuple,
                    TypeVar)

from repro.alloc import (
    AllocationError,
    AllocationPlan,
    ReservedHost,
    build_plan,
    get_strategy,
)
from repro.middleware.gatekeeper import AdmissionError, Gatekeeper
from repro.net.topology import Host, Topology
from repro.overlay.gossip import GossipEnvelope, GossipView, PeerDigest
from repro.sim.rng import stable_hash64

__all__ = [
    "VirtualTimeLoop",
    "run_virtual",
    "AssignmentProposal",
    "ControlPlane",
    "TenantStats",
    "run_multi_tenant",
]

T = TypeVar("T")

# asyncio's own heap-compaction thresholds, read once.
_MIN_SCHEDULED_TIMER_HANDLES = base_events._MIN_SCHEDULED_TIMER_HANDLES
_MIN_CANCELLED_TIMER_HANDLES_FRACTION = (
    base_events._MIN_CANCELLED_TIMER_HANDLES_FRACTION)


# ---------------------------------------------------------------------------
# Virtual-time event loop
# ---------------------------------------------------------------------------

class VirtualTimeLoop(asyncio.BaseEventLoop):
    """An asyncio event loop running on simulated time.

    ``time()`` returns the virtual clock; whenever the ready queue is
    empty the loop advances the clock to the earliest scheduled timer
    instead of blocking.  ``await asyncio.sleep(3600)`` therefore costs
    nothing in wall time while preserving asyncio's exact callback
    ordering — which is what makes campaign reports byte-identical
    across ``--jobs`` settings.

    No file descriptor is ever registered in virtual mode and every
    poll would have timeout 0, so the loop has no selector and no
    self-pipe: :meth:`_run_once` is asyncio's own turn minus the I/O
    poll (DESIGN.md §13 lists its exact operation order).

    If the loop goes fully idle (no ready callbacks, no timers) while
    coroutines are still pending, no event can ever wake them in a
    purely virtual world, so the loop raises rather than hanging —
    the virtual analogue of a deadlock detector.
    """

    def __init__(self) -> None:
        super().__init__()
        self._vtime = 0.0

    def time(self) -> float:
        return self._vtime

    def _write_to_self(self) -> None:
        """Wake-up for ``call_soon_threadsafe`` (asyncio uses it to close
        async generators): a no-op, because this loop never blocks."""

    def _run_once(self) -> None:
        scheduled = self._scheduled
        ready = self._ready
        # Drop cancelled timers first so the jump target is live.  This
        # pop leaves _timer_cancelled_count alone: the timers it drops
        # still count towards the compaction below (DESIGN.md §13).
        while scheduled and scheduled[0]._cancelled:
            heapq.heappop(scheduled)._scheduled = False
        if not ready:
            if scheduled:
                when = scheduled[0]._when
                if when > self._vtime:
                    self._vtime = when
            elif not self._stopping:
                raise RuntimeError(
                    "virtual-time deadlock: tasks pending but no callback "
                    "is ready and no timer is scheduled"
                )
        # asyncio's compaction rule.  Its other branch, a head pop of
        # cancelled timers, has nothing to do: the head is live here.
        sched_count = len(scheduled)
        if (sched_count > _MIN_SCHEDULED_TIMER_HANDLES
                and self._timer_cancelled_count / sched_count
                > _MIN_CANCELLED_TIMER_HANDLES_FRACTION):
            live = []
            for handle in scheduled:
                if handle._cancelled:
                    handle._scheduled = False
                else:
                    live.append(handle)
            heapq.heapify(live)
            self._scheduled = scheduled = live
            self._timer_cancelled_count = 0
        # Move every timer due within the clock resolution to the ready
        # queue, then run the handles that were ready at this point;
        # whatever they schedule runs on the next turn.
        end_time = self._vtime + self._clock_resolution
        while scheduled and scheduled[0]._when < end_time:
            handle = heapq.heappop(scheduled)
            handle._scheduled = False
            ready.append(handle)
        for _ in range(len(ready)):
            handle = ready.popleft()
            if not handle._cancelled:
                handle._run()


def run_virtual(coro: Awaitable[T]) -> T:
    """Run ``coro`` to completion on a fresh :class:`VirtualTimeLoop`."""
    loop = VirtualTimeLoop()
    try:
        asyncio.set_event_loop(loop)
        return loop.run_until_complete(coro)
    finally:
        asyncio.set_event_loop(None)
        loop.close()


# ---------------------------------------------------------------------------
# Control-plane service
# ---------------------------------------------------------------------------

@dataclass
class AssignmentProposal:
    """A tentative job→hosts mapping awaiting an admission decision."""

    proposal_id: int
    job_id: str
    tenant: str
    hosts: List[str]
    state: str = "proposed"  # proposed | committed | aborted


class ControlPlane:
    """Peer registry + gossip + proposals + atomic tenant admission.

    The service owns a :class:`~repro.overlay.gossip.GossipView` fed by
    peer heartbeats (each stamped with a fresh per-origin sequence
    number) and reaped by a background staleness sweep.  Admission for
    one job walks the online candidates in deterministic latency order,
    sleeping one virtual RTT per host before pinning its ``J`` slot via
    ``Gatekeeper.try_admit`` — so thousands of concurrent submitters
    interleave arbitrarily between any two pins, and the J-limit
    invariant rests *only* on ``try_admit`` being atomic.

    No registry update contains an ``await``, so each one runs
    atomically on the loop and needs no lock.
    """

    def __init__(
        self,
        topology: Topology,
        gatekeepers: Dict[str, Gatekeeper],
        anchor: str,
        stale_after_s: float = 240.0,
    ) -> None:
        self.topology = topology
        self.gatekeepers = gatekeepers
        self.anchor = anchor
        self.stale_after_s = stale_after_s
        self.view = GossipView(owner="controlplane")
        self._seqs: Dict[str, int] = {}
        self._envelope_seq = 0
        self._proposals: Dict[int, AssignmentProposal] = {}
        self._next_proposal = 0
        self.reaped: List[str] = []
        self._names = sorted(gatekeepers)
        # Candidate order is fixed at construction: ascending base RTT
        # from the anchor, name-tiebroken — deterministic and identical
        # for every submitter, like a shared latency-sorted peer cache.
        # Each entry is (host, rtt_s, rtt_ms, gatekeeper).
        anchor_host = topology.host(anchor)
        walk = []
        for name in gatekeepers:
            host = topology.host(name)
            rtt_ms = topology.base_rtt_ms(anchor_host, host)
            walk.append((host, rtt_ms / 1000.0, rtt_ms, gatekeepers[name]))
        walk.sort(key=lambda c: (c[2], c[0].name))
        self._candidates: List[Tuple[Host, float, float, Gatekeeper]] = walk

    def _next_seq(self, origin: str) -> int:
        self._seqs[origin] = self._seqs.get(origin, 0) + 1
        return self._seqs[origin]

    # -- registry / gossip -------------------------------------------------
    async def register_peer(self, name: str) -> PeerDigest:
        """Admit a peer into the registry (the REGISTER analogue)."""
        digest = PeerDigest(
            name=name, seq=self._next_seq(name), status="online",
            load=0, last_seen=asyncio.get_running_loop().time(),
        )
        self.view.apply_digest(digest)
        return digest

    async def heartbeat(self, name: str) -> PeerDigest:
        """Refresh a peer's liveness and load (the ALIVE analogue)."""
        gk = self.gatekeepers.get(name)
        digest = PeerDigest(
            name=name, seq=self._next_seq(name), status="online",
            load=gk.busy_processes if gk is not None else 0,
            last_seen=asyncio.get_running_loop().time(),
        )
        self.view.apply_digest(digest)
        return digest

    def make_envelope(self) -> GossipEnvelope:
        """Snapshot the view for propagation to another view."""
        self._envelope_seq += 1
        return GossipEnvelope(
            origin=self.view.owner, seq=self._envelope_seq,
            entries=self.view.digest(),
        )

    async def apply_gossip(self, envelope: GossipEnvelope) -> int:
        """Fold a remote envelope into the registry; digests applied."""
        return self.view.apply(envelope)

    async def heartbeat_pump(self, period_s: float) -> None:
        """Background task: every peer heartbeats once per period."""
        while True:
            await asyncio.sleep(period_s)
            for name in self._names:
                await self.heartbeat(name)

    async def reaper(self, period_s: float) -> None:
        """Background task: mark silent peers suspect (staleness sweep)."""
        while True:
            await asyncio.sleep(period_s)
            now = asyncio.get_running_loop().time()
            for digest in self.view.digest():
                if (digest.status == "online"
                        and now - digest.last_seen > self.stale_after_s):
                    self.view.apply_digest(PeerDigest(
                        name=digest.name, seq=self._next_seq(digest.name),
                        status="suspect", load=digest.load,
                        last_seen=digest.last_seen,
                    ))
                    self.reaped.append(digest.name)

    # -- proposals ---------------------------------------------------------
    def propose(self, job_id: str, tenant: str,
                hosts: Sequence[str]) -> AssignmentProposal:
        self._next_proposal += 1
        prop = AssignmentProposal(
            proposal_id=self._next_proposal, job_id=job_id,
            tenant=tenant, hosts=list(hosts),
        )
        self._proposals[prop.proposal_id] = prop
        return prop

    def decide(self, proposal_id: int, accept: bool) -> AssignmentProposal:
        prop = self._proposals[proposal_id]
        prop.state = "committed" if accept else "aborted"
        return prop

    def proposals(self, state: Optional[str] = None
                  ) -> List[AssignmentProposal]:
        props = sorted(self._proposals.values(),
                       key=lambda p: p.proposal_id)
        if state is None:
            return props
        return [p for p in props if p.state == state]

    # -- admission ---------------------------------------------------------
    async def admit_job(
        self,
        tenant: str,
        job_id: str,
        n: int,
        strategy,
    ) -> Optional[AllocationPlan]:
        """Reserve, allocate and start one job; None if refused.

        The §4.2 flow under concurrency: walk the peers that were online
        when the job arrived in latency order, pay one virtual RTT per
        RESERVE, pin each ``J`` slot with the *atomic* ``try_admit``,
        and stop once ``n`` hosts are booked — the paper's ``n*r``
        broadcast width at the control plane's ``r = 1``.  The strategy
        then chooses among them and unused bookings are cancelled.
        Everything between two pins is a suspension point where any
        other submitter may run.
        """
        key = f"{tenant}/{job_id}"
        # Digests are frozen, so a shallow copy is the job-start snapshot.
        peers = self.view.peers.copy()
        reserved: List[ReservedHost] = []
        capacity = 0
        for host, rtt_s, rtt_ms, gk in self._candidates:
            digest = peers.get(host.name)
            if digest is None or digest.status != "online":
                continue
            await asyncio.sleep(rtt_s)
            if not gk.try_admit(key, tenant):
                continue
            reserved.append(ReservedHost(
                host=host, p_limit=gk.prefs.p_limit, latency_ms=rtt_ms,
            ))
            capacity += min(gk.prefs.p_limit, n)
            if len(reserved) >= n:
                break
        prop = self.propose(job_id, tenant, [r.host.name for r in reserved])
        if capacity < n:
            self._release(key, reserved)
            self.decide(prop.proposal_id, accept=False)
            return None
        try:
            plan = build_plan(strategy, reserved, n, 1)
        except AllocationError:
            self._release(key, reserved)
            self.decide(prop.proposal_id, accept=False)
            return None
        for cancelled in plan.cancelled:
            self.gatekeepers[cancelled.host.name].release_hold(key)
        try:
            for res, used in zip(plan.slist, plan.usage):
                if used > 0:
                    self.gatekeepers[res.host.name].start_application(
                        key, job_id, used)
        except AdmissionError:
            # Roll back whatever started plus the still-held remainder.
            for res, used in zip(plan.slist, plan.usage):
                gk = self.gatekeepers[res.host.name]
                if job_id in gk.running:
                    gk.end_application(job_id)
                gk.release_hold(key)
            self.decide(prop.proposal_id, accept=False)
            return None
        self.decide(prop.proposal_id, accept=True)
        return plan

    def _release(self, key: str, reserved: Sequence[ReservedHost]) -> None:
        for res in reserved:
            self.gatekeepers[res.host.name].release_hold(key)

    def finish_job(self, job_id: str, plan: AllocationPlan) -> None:
        for res, used in zip(plan.slist, plan.usage):
            if used > 0:
                self.gatekeepers[res.host.name].end_application(job_id)


# ---------------------------------------------------------------------------
# Open-loop multi-tenant round
# ---------------------------------------------------------------------------

@dataclass
class TenantStats:
    """Fairness ledger for one tenant."""

    tenant: str
    arrivals: int = 0
    admitted: int = 0
    refused: int = 0
    slowdowns: List[float] = field(default_factory=list)
    admit_latency_s: List[float] = field(default_factory=list)

    @property
    def mean_slowdown(self) -> float:
        if not self.slowdowns:
            return 0.0
        return sum(self.slowdowns) / len(self.slowdowns)


def _percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of pre-sorted ``values`` (0 if empty)."""
    if not values:
        return 0.0
    k = max(0, math.ceil(pct / 100.0 * len(values)) - 1)
    return values[min(k, len(values) - 1)]


async def _one_job(
    cp: ControlPlane,
    stats: TenantStats,
    job_id: str,
    n: int,
    work_s: float,
    wan_penalty: float,
    strategy,
) -> None:
    loop = asyncio.get_running_loop()
    arrival = loop.time()
    stats.arrivals += 1
    plan = await cp.admit_job(stats.tenant, job_id, n, strategy)
    if plan is None:
        stats.refused += 1
        return
    stats.admitted += 1
    stats.admit_latency_s.append(loop.time() - arrival)
    # Service-time model: a site-spanning placement pays a WAN penalty
    # per extra site crossed — the fairness lever that separates
    # `spread` from `bandwidth_spread` in the multiuser2 report.
    sites = len({p.host.site for p in plan.placements})
    service = work_s * (1.0 + wan_penalty * (sites - 1))
    await asyncio.sleep(service)
    cp.finish_job(job_id, plan)
    stats.slowdowns.append((loop.time() - arrival) / work_s)


async def _tenant_submitter(
    cp: ControlPlane,
    stats: TenantStats,
    rng: random.Random,
    rate_hz: float,
    jobs: int,
    n: int,
    work_s: float,
    wan_penalty: float,
    strategy,
) -> None:
    """Open-loop Poisson submitter: arrivals never wait for service."""
    pending = []
    for j in range(jobs):
        await asyncio.sleep(rng.expovariate(rate_hz))
        work = work_s * rng.uniform(0.5, 1.5)
        pending.append(asyncio.ensure_future(_one_job(
            cp, stats, f"{stats.tenant}#{j}", n, work, wan_penalty,
            strategy,
        )))
    if pending:
        await asyncio.gather(*pending)


async def _campaign(
    topology: Topology,
    gatekeepers: Dict[str, Gatekeeper],
    anchor: str,
    *,
    tenants: int,
    rate_hz: float,
    jobs_per_tenant: int,
    n: int,
    strategy_name: str,
    seed: int,
    work_s: float,
    wan_penalty: float,
    heartbeat_period_s: float,
) -> Dict[str, object]:
    cp = ControlPlane(topology, gatekeepers, anchor)
    for name in sorted(gatekeepers):
        await cp.register_peer(name)
    background = [
        asyncio.ensure_future(cp.heartbeat_pump(heartbeat_period_s)),
        asyncio.ensure_future(cp.reaper(4 * heartbeat_period_s)),
    ]
    strategy = get_strategy(strategy_name)
    strategy.bind_topology(topology)

    ledgers = [TenantStats(tenant=f"tenant-{i:04d}") for i in range(tenants)]
    tasks = [
        asyncio.ensure_future(_tenant_submitter(
            cp, stats,
            random.Random(stable_hash64(f"mu2:{seed}:{stats.tenant}")),
            rate_hz, jobs_per_tenant, n, work_s, wan_penalty, strategy,
        ))
        for stats in ledgers
    ]
    await asyncio.gather(*tasks)
    makespan = asyncio.get_running_loop().time()
    for task in background:
        task.cancel()
    await asyncio.gather(*background, return_exceptions=True)

    # One gossip exchange exercises envelope-level propagation/dedup.
    replica = GossipView(owner="replica")
    envelope = cp.make_envelope()
    replica.apply(envelope)
    replica.apply(envelope)  # duplicate delivery must be dropped

    slowdowns = sorted(s for st in ledgers for s in st.slowdowns)
    admits = sorted(a for st in ledgers for a in st.admit_latency_s)
    means = [st.mean_slowdown for st in ledgers if st.slowdowns]
    arrivals = sum(st.arrivals for st in ledgers)
    admitted = sum(st.admitted for st in ledgers)
    refused = sum(st.refused for st in ledgers)
    in_flight = {
        name: gk.applications_in_flight for name, gk in gatekeepers.items()
        if gk.applications_in_flight
    }
    return {
        "tenants": tenants,
        "rate_hz": rate_hz,
        "strategy": strategy_name,
        "arrivals": arrivals,
        "admitted": admitted,
        "refused": refused,
        "saturation": round(refused / arrivals, 6) if arrivals else 0.0,
        "slowdown_mean": round(
            sum(slowdowns) / len(slowdowns), 6) if slowdowns else 0.0,
        "slowdown_p95": round(_percentile(slowdowns, 95.0), 6),
        "tenant_slowdown_spread": round(
            max(means) - min(means), 6) if means else 0.0,
        "admit_p50_ms": round(_percentile(admits, 50.0) * 1000, 6),
        "admit_p95_ms": round(_percentile(admits, 95.0) * 1000, 6),
        "admit_p99_ms": round(_percentile(admits, 99.0) * 1000, 6),
        "makespan_s": round(makespan, 6),
        "throughput_hz": round(
            admitted / makespan, 6) if makespan > 0 else 0.0,
        "gossip_applied": cp.view.applied,
        "gossip_stale_dropped": replica.stale,
        "proposals_committed": len(cp.proposals("committed")),
        "proposals_aborted": len(cp.proposals("aborted")),
        "leaked_holds": sum(len(gk.held) for gk in gatekeepers.values()),
        "stuck_in_flight": in_flight,
    }


def run_multi_tenant(
    topology: Topology,
    gatekeepers: Dict[str, Gatekeeper],
    anchor: str,
    *,
    tenants: int,
    rate_hz: float,
    jobs_per_tenant: int = 2,
    n: int = 4,
    strategy_name: str = "spread",
    seed: int = 0,
    work_s: float = 20.0,
    wan_penalty: float = 0.25,
    heartbeat_period_s: float = 30.0,
) -> Dict[str, object]:
    """Run one open-loop multi-tenant round on virtual time.

    Returns the fairness ledger as a plain, deterministically ordered
    dict (all floats rounded) — the payload the ``multiuser2`` campaign
    cells store.
    """
    if tenants < 1:
        raise ValueError("tenants must be >= 1")
    if rate_hz <= 0:
        raise ValueError("rate_hz must be > 0")
    return run_virtual(_campaign(
        topology, gatekeepers, anchor,
        tenants=tenants, rate_hz=rate_hz, jobs_per_tenant=jobs_per_tenant,
        n=n, strategy_name=strategy_name, seed=seed, work_s=work_s,
        wan_penalty=wan_penalty, heartbeat_period_s=heartbeat_period_s,
    ))
