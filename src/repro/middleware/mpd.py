"""The MPD daemon: job coordination over the overlay (§4.2, Figure 1).

One MPD runs per host.  It composes the overlay membership daemon
(:class:`~repro.overlay.peer.PeerDaemon`), the co-located Reservation
Service and the gatekeeper.  :meth:`MPD.submit_job` is the submitter
side of Figure 1 (steps 1-6 plus completion tracking);
:meth:`MPD.service` is the remote side (steps 7-8).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.alloc.base import InfeasibleAllocation, ReservedHost
from repro.alloc.base import get_strategy
from repro.alloc.ranks import build_plan
from repro.middleware.config import MiddlewareConfig, OwnerPrefs
from repro.middleware.gatekeeper import AdmissionError, Gatekeeper
from repro.middleware.jobs import (
    JobRequest,
    JobResult,
    JobStatus,
    JobTimings,
)
from repro.middleware.keys import KeyFactory
from repro.middleware.reservation import Reservation, ReservationService
from repro.net.latency import LatencyModel
from repro.net.topology import Host, Topology
from repro.net.transport import Message, Network
from repro.overlay.messages import MPD_PORT, RS_PORT, SIZE_CONTROL, Ports
from repro.overlay.peer import PeerDaemon
from repro.sim.core import Simulator
from repro.sim.process import Interrupt

__all__ = ["CopyRuntime", "MPD"]


@dataclass
class CopyRuntime:
    """MPD-side runtime state of one migratable (rank, replica) copy.

    A migratable copy executes in ``quantum_s`` slices; each slice
    boundary is a checkpoint, so :attr:`checkpointed_s` is the durable
    remaining-work figure a crash resurrection restarts from, while
    :attr:`work_remaining_s` is the live figure a *cooperative*
    migration (the copy is frozen on request, not lost) carries over
    exactly.
    """

    job_id: str
    rank: int
    replica: int
    submitter: str
    done_port: str
    work_total_s: float
    work_remaining_s: float
    checkpointed_s: float
    quantum_s: float
    checkpoint_bytes: int
    deadline_factor: float
    migrations: int = 0
    #: ``running`` | ``migrating`` | ``done`` | ``dead``.
    status: str = "running"
    proc: Any = None

    def snapshot(self, durable: bool) -> Dict[str, Any]:
        """Portable checkpoint image (what travels between MPDs)."""
        return {
            "job_id": self.job_id,
            "rank": self.rank,
            "replica": self.replica,
            "submitter": self.submitter,
            "done_port": self.done_port,
            "work_total_s": self.work_total_s,
            "remaining_s": self.checkpointed_s if durable
                           else self.work_remaining_s,
            "quantum_s": self.quantum_s,
            "checkpoint_bytes": self.checkpoint_bytes,
            "deadline_factor": self.deadline_factor,
            "migrations": self.migrations,
        }


class MPD:
    """One host's MPD: membership + gatekeeping + job coordination.

    Parameters
    ----------
    sim, network, topology:
        Simulation substrate.
    host:
        Local host.
    supernode_host:
        Boot-strap entry point.
    latency_model:
        Shared measured-latency model.
    prefs:
        Owner preferences (``J``, ``P``, denied list).
    config:
        Middleware tuning.
    app_env:
        Environment object handed to application models when
        predicting rank durations (see :mod:`repro.apps.base`).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        topology: Topology,
        host: Host,
        supernode_host: str,
        latency_model: LatencyModel,
        prefs: Optional[OwnerPrefs] = None,
        config: Optional[MiddlewareConfig] = None,
        app_env: Any = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.topology = topology
        self.host = host
        self.config = config or MiddlewareConfig()
        self.prefs = prefs or OwnerPrefs.for_cores(host.cores)
        self.app_env = app_env
        self.peer = PeerDaemon(
            sim, network, topology, host, supernode_host, latency_model,
            alive_period_s=self.config.alive_period_s,
            ping_samples=self.config.ping_samples,
            ewma_alpha=self.config.ewma_alpha,
        )
        self.gatekeeper = Gatekeeper(host_name=host.name, prefs=self.prefs)
        self.rs = ReservationService(
            sim, network, host.name, self.gatekeeper,
            ttl_s=self.config.reservation_ttl_s,
        )
        self.keys = KeyFactory(host.name, seed=sim.rng.seed)
        self._job_seq = count(1)
        self._job_procs: Dict[str, List] = {}
        self._submitting = False
        #: Completed job results (submitter side), job_id -> JobResult.
        self.results: Dict[str, JobResult] = {}
        #: Live migratable copies, (job_id, rank, replica) -> CopyRuntime.
        self._copies: Dict[Tuple[str, int, int], CopyRuntime] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def boot(self) -> Generator:
        """``mpiboot``: join overlay, start RS and MPD services."""
        self.network.register(self.host.name)
        yield from self.peer.boot()
        # The local host takes part in its own allocations like any peer.
        self.peer.cache.add(self.host)
        self.sim.process(self.rs.service())
        self.sim.process(self.service())
        if self.config.ping_period_s is not None:
            self.sim.process(
                self.peer.periodic_ping(self.config.ping_period_s))
        return self

    def on_host_down(self) -> None:
        """Failure hook: interrupt everything running locally.

        A crash also loses the middleware's volatile state: reservations
        the RS was holding (booked but not yet started) are gone when
        the node reboots, so the gatekeeper's ``J`` slots they pinned
        are released immediately rather than leaking until TTL expiry.
        Running applications clean their own slots up when their
        processes take the interrupt.
        """
        for procs in self._job_procs.values():
            for proc in procs:
                if proc.is_alive:
                    proc.interrupt("host down")
        # Migratable copies die with the host; only checkpoints that
        # already left (a controller's shadow table) can revive them.
        for copy in list(self._copies.values()):
            if copy.proc is not None and copy.proc.is_alive:
                copy.proc.interrupt("host down")
        self._copies.clear()
        for key in [k for k, r in self.rs.reservations.items()
                    if not r.consumed]:
            self.rs.cancel(key)

    def on_host_up(self) -> None:
        """Revival hook: rejoin the overlay with a fresh registration.

        The supernode dropped this host (missed alive signals or a
        submitter's REPORT_DEAD), so future bookings would never see it
        again without a re-register — exactly what a restarted
        ``mpiboot`` does, including the periodic ping loop (which, like
        the alive loop, died with the host).
        """
        def restart() -> Generator:
            yield from self.peer.rejoin()
            if self.config.ping_period_s is not None:
                self.sim.process(
                    self.peer.periodic_ping(self.config.ping_period_s))

        self.sim.process(restart())

    # ------------------------------------------------------------------
    # remote side: steps 7-8
    # ------------------------------------------------------------------
    def service(self) -> Generator:
        """Handle START/ABORT traffic on the MPD port forever."""
        while True:
            msg: Message = yield self.network.receive(self.host.name, MPD_PORT)
            if msg.kind == "START":
                self._handle_start(msg)
            elif msg.kind == "ABORT":
                self._handle_abort(msg)

    def _handle_start(self, msg: Message) -> None:
        payload = msg.payload
        key: str = payload["key"]
        job_id: str = payload["job_id"]
        assignments: List[Tuple[int, int, float]] = payload["assignments"]
        # Step 7: "The remote MPD verifies that the unique key matches
        # the one its RS holds for current reservation."
        if not self.rs.holds_key(key):
            self.network.send(
                self.host.name, msg.src, port=payload["reply_port"],
                kind="START_REFUSED", payload={"job_id": job_id,
                                               "reason": "unknown key"},
                size_bytes=SIZE_CONTROL,
            )
            return
        try:
            self.rs.consume(key)
            self.gatekeeper.start_application(key, job_id, len(assignments))
        except AdmissionError as exc:
            # A refused start must also release the J slot the booking
            # pinned: rs.finish() forgets the (consumed) reservation, so
            # nothing else — not even TTL expiry — would ever free the
            # held key, and the slot would leak for the host's lifetime.
            self.gatekeeper.release_hold(key)
            self.rs.finish(key)
            self.network.send(
                self.host.name, msg.src, port=payload["reply_port"],
                kind="START_REFUSED", payload={"job_id": job_id,
                                               "reason": str(exc)},
                size_bytes=SIZE_CONTROL,
            )
            return
        # Step 8: launch.
        runner = self.sim.process(
            self._run_application(
                job_id=job_id, key=key, assignments=assignments,
                submitter=msg.src, done_port=payload["done_port"],
                app_info=payload.get("app_info"),
            )
        )
        self._job_procs.setdefault(job_id, []).append(runner)
        self.network.send(
            self.host.name, msg.src, port=payload["reply_port"],
            kind="STARTED", payload={"job_id": job_id,
                                     "n_local": len(assignments)},
            size_bytes=SIZE_CONTROL,
        )

    def _handle_abort(self, msg: Message) -> None:
        job_id = msg.payload["job_id"]
        for proc in self._job_procs.get(job_id, []):
            if proc.is_alive:
                proc.interrupt("abort")

    def _run_application(
        self,
        job_id: str,
        key: str,
        assignments: List[Tuple[int, int, float]],
        submitter: str,
        done_port: str,
        app_info: Optional[Dict[str, Any]] = None,
    ) -> Generator:
        """Run the local process copies of one application.

        With ``app_info`` (a migratable application) every copy runs as
        a checkpointing :class:`CopyRuntime`; a copy that migrates away
        ends its local process with ``"migrated"``, so the application
        — and the ``J`` slot it pins — ends once the last copy has
        either finished or left, which is the reservation hand-off.
        """
        if app_info is not None:
            procs = []
            for rank, replica, duration in assignments:
                copy = CopyRuntime(
                    job_id=job_id, rank=rank, replica=replica,
                    submitter=submitter, done_port=done_port,
                    work_total_s=duration, work_remaining_s=duration,
                    checkpointed_s=duration,
                    quantum_s=float(app_info["quantum_s"]),
                    checkpoint_bytes=int(app_info["checkpoint_bytes"]),
                    deadline_factor=float(app_info["deadline_factor"]),
                )
                copy.proc = self.sim.process(self._run_copy(copy))
                self._copies[(job_id, rank, replica)] = copy
                procs.append(copy.proc)
        else:
            procs = [
                self.sim.process(
                    self._run_process(rank, replica, duration, submitter,
                                      done_port)
                )
                for rank, replica, duration in assignments
            ]
        self._job_procs.setdefault(job_id, []).extend(procs)
        aborted = False
        try:
            yield self.sim.all_of(procs)
        except Interrupt:
            aborted = True
            for proc in procs:
                if proc.is_alive:
                    proc.interrupt("abort")
        try:
            self.gatekeeper.end_application(job_id)
        except AdmissionError:  # pragma: no cover - double-end race
            pass
        self.rs.finish(key)
        self._job_procs.pop(job_id, None)
        return not aborted

    def _run_process(
        self,
        rank: int,
        replica: int,
        duration: float,
        submitter: str,
        done_port: str,
    ) -> Generator:
        """One MPI process copy: modelled execution, then DONE."""
        try:
            if duration > 0:
                yield self.sim.timeout(duration)
            else:
                yield self.sim.timeout(0.0)
        except Interrupt:
            return False
        self.network.send(
            self.host.name, submitter, port=done_port, kind="DONE",
            payload={"rank": rank, "replica": replica,
                     "hostname": self.host.name,
                     "duration": duration},
            size_bytes=SIZE_CONTROL,
        )
        return True

    # ------------------------------------------------------------------
    # migratable copies (rank migration)
    # ------------------------------------------------------------------
    def _progress_rate(self) -> float:
        """Per-copy progress rate under the current local load.

        Cores are shared equally among running migratable copies: with
        more copies than cores every copy slows down proportionally —
        the load signal diffusive rebalancing exists to flatten.
        """
        active = sum(1 for c in self._copies.values()
                     if c.status == "running")
        return min(1.0, self.host.cores / max(1, active))

    def _run_copy(self, copy: CopyRuntime) -> Generator:
        """One migratable process copy: quantum loop with checkpoints.

        The copy burns its remaining work in ``quantum_s`` slices whose
        wall-clock length depends on the instantaneous local load; each
        completed slice is a checkpoint boundary.  An interrupt with
        cause ``"migrate"`` freezes the copy cooperatively (precise
        remaining work survives); any other interrupt kills it, losing
        progress past the last boundary.
        """
        key3 = (copy.job_id, copy.rank, copy.replica)
        copy.status = "running"
        while copy.work_remaining_s > 1e-9:
            rate = self._progress_rate()
            quantum_work = min(copy.quantum_s, copy.work_remaining_s)
            started = self.sim.now
            try:
                yield self.sim.timeout(quantum_work / rate)
            except Interrupt as exc:
                done_work = (self.sim.now - started) * rate
                copy.work_remaining_s = max(
                    0.0, copy.work_remaining_s - done_work)
                if getattr(exc, "cause", None) == "migrate":
                    copy.status = "migrating"
                    return "migrated"
                copy.status = "dead"
                self._copies.pop(key3, None)
                return False
            copy.work_remaining_s = max(
                0.0, copy.work_remaining_s - quantum_work)
            copy.checkpointed_s = copy.work_remaining_s
        copy.status = "done"
        self._copies.pop(key3, None)
        self.network.send(
            self.host.name, copy.submitter, port=copy.done_port, kind="DONE",
            payload={"rank": copy.rank, "replica": copy.replica,
                     "hostname": self.host.name,
                     "duration": copy.work_total_s,
                     "event": "done",
                     "migrations": copy.migrations},
            size_bytes=SIZE_CONTROL,
        )
        return True

    def running_copies(self) -> List[Tuple[str, int, int]]:
        """Keys of locally running migratable copies (sorted)."""
        return sorted(key3 for key3, copy in self._copies.items()
                      if copy.status == "running")

    def copy_snapshots(self) -> List[Dict[str, Any]]:
        """Durable checkpoint images of all running copies (sorted).

        What a controller mirrors into its shadow table each tick so a
        host crash does not take the last checkpoint down with it.
        """
        return [self._copies[key3].snapshot(durable=True)
                for key3 in self.running_copies()]

    def can_adopt(self, job_id: str, submitter: str) -> bool:
        """Read-only probe: would :meth:`adopt_copy` be admitted here?"""
        if self.network.is_down(self.host.name):
            return False
        if job_id in self.gatekeeper.running:
            return True
        return (self.gatekeeper.prefs.allows(submitter)
                and self.gatekeeper.applications_in_flight
                < self.gatekeeper.prefs.j_limit)

    def migrate_copy_out(self, job_id: str, rank: int,
                         replica: int) -> Generator:
        """Freeze one running copy and hand back its checkpoint image.

        Returns ``None`` if the copy is gone or finishes before the
        freeze lands (the interrupt races a quantum boundary).  On
        success the copy leaves :attr:`_copies`; once the job's last
        local copy has left, ``_run_application`` ends the application
        and releases the ``J`` slot — the source half of the
        reservation hand-off.
        """
        key3 = (job_id, rank, replica)
        copy = self._copies.get(key3)
        if (copy is None or copy.status != "running"
                or copy.proc is None or not copy.proc.is_alive):
            return None
        copy.proc.interrupt("migrate")
        yield copy.proc
        if copy.status != "migrating":
            return None
        self._copies.pop(key3, None)
        return copy.snapshot(durable=False)

    def adopt_copy(self, snap: Dict[str, Any], event: str = "migrated") -> bool:
        """Admit and run a checkpointed copy on this host.

        The destination half of the reservation hand-off: if the copy's
        job already runs here it joins the existing ``J`` slot
        (:meth:`Gatekeeper.adopt_process`); otherwise the copy is
        admitted like a fresh one-process application under a synthetic
        migration key, with a pre-consumed :class:`Reservation` recorded
        so the RS retires it through the normal ``finish`` path.  On
        success a MIGRATED/REJOINED notice goes to the submitter's done
        port so the completion deadline stretches to cover the move.
        """
        job_id = snap["job_id"]
        submitter = snap["submitter"]
        key3 = (job_id, snap["rank"], snap["replica"])
        if self.network.is_down(self.host.name) or key3 in self._copies:
            return False
        if job_id in self.gatekeeper.running:
            mode, mig_key, app_key = "joined", None, job_id
            self.gatekeeper.adopt_process(job_id)
        else:
            tag = f"{snap['rank']}.{snap['replica']}.{snap['migrations']}"
            mig_key = f"mig:{job_id}:{tag}"
            app_key = f"{job_id}/mig:{tag}"
            if not self.gatekeeper.try_admit(mig_key, submitter):
                return False
            try:
                self.gatekeeper.start_application(mig_key, app_key, 1)
            except AdmissionError:
                self.gatekeeper.release_hold(mig_key)
                return False
            self.rs.reservations[mig_key] = Reservation(
                key=mig_key, job_id=job_id, submitter=submitter,
                made_at=self.sim.now,
                expires_at=self.sim.now + self.rs.ttl_s,
                consumed=True,
            )
            mode = "admitted"
        copy = CopyRuntime(
            job_id=job_id, rank=snap["rank"], replica=snap["replica"],
            submitter=submitter, done_port=snap["done_port"],
            work_total_s=snap["work_total_s"],
            work_remaining_s=snap["remaining_s"],
            checkpointed_s=snap["remaining_s"],
            quantum_s=snap["quantum_s"],
            checkpoint_bytes=snap["checkpoint_bytes"],
            deadline_factor=snap["deadline_factor"],
            migrations=snap["migrations"] + 1,
        )
        copy.proc = self.sim.process(self._run_copy(copy))
        self._copies[key3] = copy
        self.sim.process(self._adopted_waiter(copy, mode, mig_key, app_key))
        self.network.send(
            self.host.name, submitter, port=copy.done_port, kind="MIGRATED",
            payload={"rank": copy.rank, "replica": copy.replica,
                     "hostname": self.host.name,
                     "event": event,
                     "remaining_s": copy.work_remaining_s,
                     "deadline_factor": copy.deadline_factor,
                     "migrations": copy.migrations},
            size_bytes=SIZE_CONTROL,
        )
        return True

    def _adopted_waiter(self, copy: CopyRuntime, mode: str,
                        mig_key: Optional[str], app_key: str) -> Generator:
        """Release an adopted copy's local accounting when it leaves
        (completion, onward migration or death)."""
        yield copy.proc
        try:
            if mode == "joined":
                self.gatekeeper.release_process(app_key)
            else:
                self.gatekeeper.end_application(app_key)
        except AdmissionError:
            # The hosting application ended first (its own copies all
            # finished) and took the slot with it.
            pass
        if mig_key is not None:
            self.rs.finish(mig_key)

    # ------------------------------------------------------------------
    # submitter side: steps 1-6 + completion
    # ------------------------------------------------------------------
    def submit_job(self, request: JobRequest) -> Generator:
        """Full submission coroutine; returns a :class:`JobResult`.

        Use ``sim.process(mpd.submit_job(req))`` and run the simulator,
        or the :class:`repro.cluster.P2PMPICluster` facade.
        """
        if self._submitting:
            raise RuntimeError(f"{self.host.name}: concurrent submissions "
                               "are not supported by one MPD")
        self._submitting = True
        dead_seen: List[str] = []
        refusals_seen: List[str] = []
        try:
            attempts = 1 + max(0, self.config.booking_retries)
            for attempt in range(1, attempts + 1):
                result = yield from self._submit_inner(request)
                result.attempts = attempt
                dead_seen.extend(result.dead_peers)
                refusals_seen.extend(result.refusals)
                if result.status is not JobStatus.INFEASIBLE or \
                        attempt == attempts:
                    break
                # Lost a booking race or a churn burst: back off and
                # try a fresh reservation round ("dynamically tries
                # during a limited time", §3.2).
                yield self.sim.timeout(self.config.retry_backoff_s)
        finally:
            self._submitting = False
        result.dead_peers = sorted(set(dead_seen))
        result.refusals = sorted(set(refusals_seen))
        self.results[result.job_id] = result
        return result

    def _submit_inner(self, request: JobRequest) -> Generator:
        sim = self.sim
        timings = JobTimings(submitted_at=sim.now)
        job_id = f"{self.host.name}#{next(self._job_seq)}"
        needed = request.total_processes
        result = JobResult(job_id=job_id, request=request,
                           status=JobStatus.INFEASIBLE, timings=timings)

        # -- Step 2: booking -------------------------------------------------
        # The MPD "periodically contacts its supernode to update its
        # cached list"; we model the freshest state by refreshing at
        # submission time (and unconditionally when the cache is short,
        # which is the paper's explicit trigger).
        yield from self.peer.refresh_cache()
        self.peer.cache.add(self.host)
        # Fresh latency round: the cached values are whatever the last
        # periodic ping measured; we model it as a measurement made
        # close to submission time.
        self.peer.measure_latencies(only_unmeasured=False)
        entries = self.peer.cache.sorted_by_latency()
        target = min(len(entries), self.config.booking_target(needed))
        book = entries[:target]

        key = self.keys.new_key(job_id)
        reply_port = Ports.rs_reply(key.value)

        # -- Step 3: RS-RS brokering ------------------------------------------
        self.rs.broadcast_reserve(
            [e.host.name for e in book], key.value, job_id, reply_port
        )

        # -- Step 5: gather replies, mark dead ---------------------------------
        oks: Dict[str, int] = {}
        refusals: List[str] = []
        pending = {e.host.name for e in book}
        deadline = sim.timeout(self.config.rs_timeout_s)
        while pending:
            recv = self.network.receive(self.host.name, reply_port)
            fired = yield sim.any_of([recv, deadline])
            if recv in fired:
                msg: Message = fired[recv]
                pending.discard(msg.src)
                if msg.kind == "RESERVE_OK":
                    oks[msg.src] = msg.payload["p_limit"]
                else:
                    refusals.append(msg.src)
            if deadline in fired and recv not in fired:
                recv.cancel()
                break
        dead = sorted(pending)
        if dead:
            self.peer.report_dead(dead)
        timings.booked_at = sim.now
        result.dead_peers = dead
        result.refusals = refusals

        rlist = [
            ReservedHost(host=e.host, p_limit=oks[e.host.name],
                         latency_ms=e.latency_ms or 0.0)
            for e in book
            if e.host.name in oks
        ]

        # -- Step 6: selection, feasibility, strategy, ranks ---------------------
        slist = rlist[:needed]
        for extra in rlist[needed:]:
            self._cancel_reservation(extra.host.name, key.value)
        strategy_kwargs = dict(request.strategy_kwargs)
        if (request.strategy == "site-affine"
                and "local_hosts" not in strategy_kwargs):
            # The middleware knows the site boundary: count slist
            # entries co-located with the submitter.
            strategy_kwargs["local_hosts"] = sum(
                1 for reserved in slist
                if reserved.host.site == self.host.site
            )
        try:
            strategy = get_strategy(request.strategy, **strategy_kwargs)
            if strategy.needs_topology and strategy.topology is None:
                # Communication-aware strategies score host pairs; the
                # MPD shares its own network view with them.
                strategy.bind_topology(self.topology)
            plan = build_plan(strategy, slist, request.n, request.r)
        except (InfeasibleAllocation, KeyError) as exc:
            for reserved in slist:
                self._cancel_reservation(reserved.host.name, key.value)
            result.status = JobStatus.INFEASIBLE
            result.failure_reason = str(exc)
            timings.allocated_at = timings.launched_at = timings.finished_at = sim.now
            return result
        result.plan = plan
        timings.allocated_at = sim.now
        for cancelled in plan.cancelled:
            self._cancel_reservation(cancelled.host.name, key.value)

        # -- durations from the application model --------------------------------
        durations: Dict[Tuple[int, int], float] = {}
        if request.app is not None:
            durations = dict(request.app.predicted_rank_times(plan, self.app_env))

        by_host: Dict[str, List[Tuple[int, int, float]]] = {}
        for placement in plan.placements:
            by_host.setdefault(placement.host.name, []).append(
                (placement.rank, placement.replica,
                 float(durations.get((placement.rank, placement.replica), 0.0)))
            )

        # -- launch (steps 7-8 on the remote side) ---------------------------------
        app_info: Optional[Dict[str, Any]] = None
        if request.app is not None and getattr(request.app, "migratable",
                                               False):
            app_info = {
                "quantum_s": float(getattr(request.app, "quantum_s", 5.0)),
                "checkpoint_bytes": int(
                    getattr(request.app, "checkpoint_bytes", 1 << 20)),
                "deadline_factor": float(
                    getattr(request.app, "deadline_factor", 3.0)),
            }
        start_port = Ports.start_reply(job_id)
        done_port = Ports.done(job_id)
        for host_name, assignments in by_host.items():
            self.network.send(
                self.host.name, host_name, port=MPD_PORT, kind="START",
                payload={
                    "job_id": job_id,
                    "key": key.value,
                    "assignments": assignments,
                    "reply_port": start_port,
                    "done_port": done_port,
                    "app_info": app_info,
                },
                size_bytes=SIZE_CONTROL + 24 * len(assignments),
            )
        ack_pending = set(by_host)
        started: List[str] = []
        refused: List[str] = []
        start_deadline = sim.timeout(self.config.start_timeout_s)
        while ack_pending:
            recv = self.network.receive(self.host.name, start_port)
            fired = yield sim.any_of([recv, start_deadline])
            if recv in fired:
                msg = fired[recv]
                ack_pending.discard(msg.src)
                if msg.kind == "STARTED":
                    started.append(msg.src)
                else:
                    refused.append(msg.src)
            if start_deadline in fired and recv not in fired:
                recv.cancel()
                break
        if ack_pending or refused:
            for host_name in started:
                self.network.send(
                    self.host.name, host_name, port=MPD_PORT, kind="ABORT",
                    payload={"job_id": job_id}, size_bytes=SIZE_CONTROL,
                )
            result.status = JobStatus.LAUNCH_FAILED
            result.failure_reason = (
                f"{len(refused)} refusals, {len(ack_pending)} silent hosts at start"
            )
            timings.launched_at = timings.finished_at = sim.now
            return result
        timings.launched_at = sim.now

        # -- completion tracking ----------------------------------------------------
        expected = plan.total_processes
        max_duration = max([d for _h, a in by_host.items() for _r, _c, d in a],
                           default=0.0)
        # Migratable copies can slow under load and pay transfer time on
        # every move, so their deadline is scaled — and re-armed from
        # the surviving work whenever a MIGRATED/REJOINED notice lands.
        deadline_factor = (float(app_info["deadline_factor"])
                           if app_info is not None else 1.0)
        done_deadline = sim.timeout(
            max_duration * deadline_factor + self.config.app_grace_s)
        completions: Dict[Tuple[int, int], Dict[str, Any]] = {}
        while len(completions) < expected:
            recv = self.network.receive(self.host.name, done_port)
            fired = yield sim.any_of([recv, done_deadline])
            if recv in fired:
                msg = fired[recv]
                payload = msg.payload
                if msg.kind == "MIGRATED":
                    result.migrations.append({
                        "rank": payload["rank"],
                        "replica": payload["replica"],
                        "host": payload["hostname"],
                        "event": payload["event"],
                        "remaining_s": payload["remaining_s"],
                        "at": sim.now,
                    })
                    done_deadline = sim.timeout(
                        payload["remaining_s"] * deadline_factor
                        + self.config.app_grace_s)
                else:
                    completions[(payload["rank"], payload["replica"])] = (
                        payload
                    )
            if done_deadline in fired and recv not in fired:
                recv.cancel()
                break
        result.completions = completions
        timings.finished_at = sim.now

        covered = {rank for rank, _replica in completions}
        if len(completions) == expected:
            result.status = JobStatus.SUCCESS
        elif len(covered) == request.n:
            result.status = JobStatus.DEGRADED
            result.failure_reason = (
                f"{expected - len(completions)} replicas lost, all ranks covered"
            )
        else:
            missing = request.n - len(covered)
            result.status = JobStatus.RANKS_LOST
            result.failure_reason = f"{missing} ranks have no surviving replica"
        return result

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _cancel_reservation(self, host_name: str, key: str) -> None:
        self.network.send(
            self.host.name, host_name, port=RS_PORT, kind="CANCEL",
            payload={"key": key}, size_bytes=SIZE_CONTROL,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<MPD {self.host.name}>"
