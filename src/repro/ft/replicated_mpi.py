"""Replica-transparent message passing (§3.2).

"Note that the communication library transparently handles all
extra-communications needed to keep the system in a coherent state."

This module implements that transparency on the message-level engine:
a :class:`ReplicatedWorld` runs ``r`` copies of every rank (placed by
the allocation plan's replica slices) and a :class:`ReplicatedComm`
wraps each copy so that

* a logical ``send(dest)`` physically multicasts to *every* replica of
  ``dest`` (so any surviving copy can proceed);
* a logical ``recv`` consumes the first arriving copy of a logical
  message and discards late duplicates (deduplicated by a per-sender
  sequence number — both replicas of a sender send the same sequence);
* the run succeeds as long as every rank keeps one live replica, which
  is exactly the §3.2 guarantee the rank-assignment criterion (b)
  makes possible.

The engine-level demonstration: crash a host mid-run and the program
still completes with correct collective results
(``tests/ft/test_replicated_mpi.py``).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.alloc.base import AllocationPlan
from repro.mpi.datatypes import Op, SUM
from repro.net.topology import Host
from repro.net.transport import Message, Network
from repro.sim.core import Simulator
from repro.sim.process import Interrupt, Process

__all__ = ["CommCheckpoint", "MigrationCheckpoint", "ReplicatedComm",
           "ReplicatedWorld"]


@dataclass(frozen=True)
class CommCheckpoint:
    """The logical state of one (rank, replica) copy at a safe point.

    Everything a destination host needs to resume the copy without
    violating the dedup/seq invariants: the per-(dest, tag) send
    counters (so re-sent sequences keep advancing identically in every
    replica), the per-(source, tag) delivered vectors (so stale
    duplicates stay stale), and whatever program state the application
    passed to :meth:`ReplicatedComm.checkpoint`.
    """

    rank: int
    replica: int
    host_name: str
    send_seq: Dict[Tuple[int, int], int] = field(default_factory=dict)
    delivered: Dict[Tuple[int, int], int] = field(default_factory=dict)
    app_state: Any = None
    taken_at: float = 0.0


class MigrationCheckpoint(Exception):
    """Raised inside a program at a cooperative checkpoint to tear the
    copy down for migration; carries the :class:`CommCheckpoint`."""

    def __init__(self, checkpoint: CommCheckpoint) -> None:
        super().__init__(checkpoint)
        self.checkpoint = checkpoint


class ReplicatedComm:
    """Communicator for one (rank, replica) copy.

    Exposes logical ``send``/``recv``/``allreduce`` over physical
    replica multicast.  The copy is addressed as
    ``rmpi:<job>:<rank>:<replica>``.
    """

    def __init__(self, world: "ReplicatedWorld", rank: int, replica: int) -> None:
        self.world = world
        self.rank = rank
        self.replica = replica
        self.host: Host = world.host_of(rank, replica)
        self._send_seq: Dict[Tuple[int, int], int] = defaultdict(int)
        self._delivered: Dict[Tuple[int, int], int] = defaultdict(int)
        #: Program state restored from a migration checkpoint (``None``
        #: on a fresh start); migratable programs consult it on entry.
        self.restored_state: Any = None
        # Stale duplicates are refused on arrival: once a logical
        # message is delivered, late physical copies (lower seq) would
        # otherwise accumulate in the host inbox forever.
        world.network.set_port_filter(self.host.name, self._port(),
                                      self._accepts)

    def _accepts(self, msg: Message) -> bool:
        """Arrival predicate: only sequences not yet delivered enter."""
        payload = msg.payload
        return (msg.kind != "RMPI"
                or payload["seq"] >= self._delivered[
                    (payload["source"], payload["tag"])])

    @classmethod
    def restore(cls, world: "ReplicatedWorld",
                checkpoint: CommCheckpoint) -> "ReplicatedComm":
        """Rebuild a copy's communicator from a migration checkpoint.

        The world's host table must already point at the destination
        host; the restored communicator re-registers the copy's port
        filter there and resumes the send/delivered counters exactly
        where the checkpoint froze them.
        """
        comm = cls(world, checkpoint.rank, checkpoint.replica)
        comm._send_seq.update(checkpoint.send_seq)
        comm._delivered.update(checkpoint.delivered)
        comm.restored_state = checkpoint.app_state
        return comm

    def detach(self) -> None:
        """Unregister this copy's arrival filter (migration teardown)."""
        self.world.network.clear_port_filter(self.host.name, self._port())

    # -- introspection -----------------------------------------------------
    @property
    def size(self) -> int:
        return self.world.n

    @property
    def sim(self) -> Simulator:
        return self.world.sim

    def _port(self) -> str:
        return self.world.port_of(self.rank, self.replica)

    # -- logical point-to-point ------------------------------------------------
    def isend(self, dest: int, payload: Any = None, size_bytes: int = 0,
              tag: int = 0) -> None:
        """Multicast one logical message to every replica of ``dest``.

        The sequence number is derived from a per-(dest, tag) counter
        that advances identically in every replica of *this* rank
        (SPMD), so receivers can deduplicate sender copies.
        """
        seq = self._send_seq[(dest, tag)]
        self._send_seq[(dest, tag)] += 1
        for replica in range(self.world.r):
            target = self.world.host_of(dest, replica)
            self.world.network.send(
                self.host.name, target.name,
                port=self.world.port_of(dest, replica),
                kind="RMPI",
                payload={"source": self.rank, "tag": tag, "seq": seq,
                         "data": payload},
                size_bytes=size_bytes,
            )

    def recv(self, source: int, tag: int = 0) -> Generator:
        """Receive the next logical message from ``source``.

        The first physical copy with the expected sequence number wins;
        stale duplicates (lower sequence) are consumed and dropped.
        """
        expected = self._delivered[(source, tag)]
        network, host, port = self.world.network, self.host.name, self._port()
        while True:
            def match(msg: Message, _src=source, _tag=tag, _exp=expected):
                return (msg.kind == "RMPI"
                        and msg.payload["source"] == _src
                        and msg.payload["tag"] == _tag
                        and msg.payload["seq"] <= _exp)

            msg = yield network.receive(host, port, match=match)
            if msg.payload["seq"] == expected:
                self._delivered[(source, tag)] = expected + 1
                # Purge duplicates of this (and any earlier) logical
                # message that are already queued: no future recv for
                # this (source, tag) may ever run, so leaving them
                # would leak them into the host inbox forever.
                network.discard(host, port, match)
                return msg.payload["data"]
            # stale duplicate: drop and keep waiting

    # -- cooperative migration -------------------------------------------
    def checkpoint(self, state: Any = None) -> bool:
        """Cooperative checkpoint: a safe point for migration.

        Programs call this between communication phases, passing
        whatever ``state`` they need to resume from.  When no migration
        is pending for this copy the call is free and returns ``False``.
        When one *is* pending, the copy's logical state is captured and
        :class:`MigrationCheckpoint` unwinds the program — the world's
        guard hands the checkpoint to the migration driver, which
        respawns the program on the destination host with
        :attr:`restored_state` set.
        """
        migrations = self.world.migrations
        if migrations is None:
            return False
        if migrations.pending_dest(self.rank, self.replica) is None:
            return False
        raise MigrationCheckpoint(CommCheckpoint(
            rank=self.rank,
            replica=self.replica,
            host_name=self.host.name,
            send_seq=dict(self._send_seq),
            delivered=dict(self._delivered),
            app_state=state,
            taken_at=self.sim.now,
        ))

    # -- logical collectives -----------------------------------------------------
    def allreduce(self, value: Any, op: Op = SUM,
                  size_bytes: int = 32) -> Generator:
        """Replica-transparent allreduce (flat tree through rank 0).

        Simplicity over speed: every rank logically sends to 0, rank 0
        reduces and broadcasts back.  All replica copies of rank 0
        perform the reduction independently, so any of them can serve
        the result.
        """
        tag = -77  # reserved collective tag for this primitive
        if self.rank == 0:
            acc = value
            for src in range(1, self.size):
                data = yield from self.recv(src, tag=tag)
                acc = op.fn(acc, data)
            for dest in range(1, self.size):
                self.isend(dest, acc, size_bytes, tag=tag)
            return acc
        self.isend(0, value, size_bytes, tag=tag)
        result = yield from self.recv(0, tag=tag)
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ReplicatedComm rank={self.rank} replica={self.replica} "
                f"on {self.host.name}>")


class ReplicatedWorld:
    """Runs ``n`` logical ranks x ``r`` replicas from an allocation plan."""

    def __init__(self, sim: Simulator, network: Network,
                 plan: AllocationPlan, job_id: str = "rjob") -> None:
        if plan.r < 1:
            raise ValueError("plan must carry at least one replica")
        self.sim = sim
        self.network = network
        self.plan = plan
        self.job_id = job_id
        self.n = plan.n
        self.r = plan.r
        self._hosts: Dict[Tuple[int, int], Host] = {}
        for placement in plan.placements:
            self._hosts[(placement.rank, placement.replica)] = placement.host
            network.register(placement.host.name)
        #: Result-bearing process per copy (the migration driver after a
        #: migrate; it resolves with the copy's final result either way).
        self._procs: Dict[Tuple[int, int], Process] = {}
        #: The live *program* process per copy (interrupt target).
        self._active: Dict[Tuple[int, int], Process] = {}
        #: Attached :class:`repro.ft.migration.RankMigrator` (or None).
        self.migrations = None
        self._program: Optional[Callable[[ReplicatedComm], Generator]] = None

    def host_of(self, rank: int, replica: int) -> Host:
        return self._hosts[(rank, replica)]

    def port_of(self, rank: int, replica: int) -> str:
        return f"rmpi:{self.job_id}:{rank}:{replica}"

    # -- running ------------------------------------------------------------------
    def spawn(self, program: Callable[[ReplicatedComm], Generator]) -> None:
        """Start ``program`` on every (rank, replica) copy."""
        self._program = program
        for (rank, replica) in sorted(self._hosts):
            comm = ReplicatedComm(self, rank, replica)
            proc = self.sim.process(self._guard(program, comm))
            self._procs[(rank, replica)] = proc
            self._active[(rank, replica)] = proc

    def respawn(self, checkpoint: CommCheckpoint) -> Process:
        """Restart a migrated copy's program on its (new) current host.

        Called by the migration driver after the host table and port
        registrations were updated; the program re-enters with
        ``comm.restored_state`` carrying the checkpointed state.
        """
        if self._program is None:
            raise RuntimeError("respawn before spawn: no program recorded")
        comm = ReplicatedComm.restore(self, checkpoint)
        proc = self.sim.process(self._guard(self._program, comm))
        self._active[(checkpoint.rank, checkpoint.replica)] = proc
        return proc

    def _guard(self, program, comm) -> Generator:
        """Wrap a copy so host-death interrupts end it quietly."""
        try:
            result = yield from program(comm)
        except Interrupt:
            return ("dead", None)
        except MigrationCheckpoint as exc:
            # Cooperative teardown: drop the old host's port filter so
            # the restored copy's registration is the only one left.
            comm.detach()
            return ("migrated", exc.checkpoint)
        return ("ok", result)

    def kill_copy(self, rank: int, replica: int, cause: str = "host down") -> None:
        """Crash one copy (its host is marked down by the caller)."""
        proc = self._active.get((rank, replica)) or self._procs.get(
            (rank, replica))
        if proc is not None and proc.is_alive:
            proc.interrupt(cause)

    def run(self, program: Callable[[ReplicatedComm], Generator],
            limit_s: float = 1e5) -> Dict[int, List[Any]]:
        """Run all copies; returns rank -> list of surviving results.

        Raises
        ------
        RuntimeError
            If some rank has no surviving copy (the job is lost, as an
            unreplicated failure would be).
        """
        from repro.sim.core import SimulationError

        if not self._procs:
            self.spawn(program)
        # Migrations swap a copy's result-bearing process mid-run (the
        # driver replaces the torn-down program process), so wait in
        # rounds until the process table is stable *and* drained.
        while True:
            procs = list(self._procs.values())
            done = self.sim.all_of(procs)
            try:
                self.sim.run_until_complete(done, limit=self.sim.now + limit_s)
            except SimulationError:
                # Some copies are blocked forever (all replicas of a peer
                # died before communicating): report the stuck ranks.
                stuck = sorted({rank
                                for (rank, _rep), proc in self._procs.items()
                                if proc.is_alive})
                raise RuntimeError(
                    f"replicated run deadlocked; stuck ranks: {stuck}") from None
            if list(self._procs.values()) == procs:
                break
        results: Dict[int, List[Any]] = defaultdict(list)
        for (rank, _replica), proc in sorted(self._procs.items()):
            status, value = proc.value
            if status == "ok":
                results[rank].append(value)
        missing = [rank for rank in range(self.n) if not results.get(rank)]
        if missing:
            raise RuntimeError(f"ranks without surviving replica: {missing}")
        return dict(results)
