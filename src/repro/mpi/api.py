"""Message-level MPI engine: worlds, communicators, point-to-point.

Programs are generators receiving a :class:`Comm`; communication calls
are sub-generators (``yield from comm.recv(...)``), mirroring how MPJ
programs block inside library calls.

Example
-------
>>> def program(comm):
...     if comm.rank == 0:
...         yield from comm.send(1, {"a": 7}, size_bytes=64)
...     elif comm.rank == 1:
...         msg = yield from comm.recv(source=0)
...         return msg
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional

from repro.net.topology import Host
from repro.net.transport import Message, Network
from repro.sim.core import Simulator
from repro.sim.process import Process

__all__ = ["ANY_SOURCE", "ANY_TAG", "MPIProcessFailure", "Comm", "MPIWorld"]

#: Wildcards, as in MPI.
ANY_SOURCE = -1
ANY_TAG = -1


class MPIProcessFailure(RuntimeError):
    """A rank's program raised or its host died."""


class Comm:
    """Communicator endpoint for one rank of one world.

    Point-to-point methods follow the mpi4py lowercase convention for
    object communication: ``send``/``recv``/``isend`` plus the
    collectives in :mod:`repro.mpi.collectives` (bound as methods).
    """

    def __init__(self, world: "MPIWorld", rank: int) -> None:
        self.world = world
        self.rank = rank
        self.host: Host = world.hosts[rank]
        self._coll_seq = 0  # aligned across ranks by SPMD call order

    # -- introspection -------------------------------------------------------
    @property
    def size(self) -> int:
        return self.world.size

    @property
    def sim(self) -> Simulator:
        return self.world.sim

    def _port(self, rank: int) -> str:
        return self.world.port_of(rank)

    # -- point-to-point --------------------------------------------------------
    def isend(self, dest: int, payload: Any = None, size_bytes: int = 0,
              tag: int = 0) -> None:
        """Eager non-blocking send (buffered; returns immediately)."""
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} out of range")
        self.world.network.send(
            self.host.name, self.world.hosts[dest].name,
            port=self._port(dest), kind="MPI",
            payload={"source": self.rank, "tag": tag, "data": payload},
            size_bytes=size_bytes,
        )

    def send(self, dest: int, payload: Any = None, size_bytes: int = 0,
             tag: int = 0) -> Generator:
        """Blocking-send semantics of the eager protocol: the local
        buffer copy costs one software overhead."""
        self.isend(dest, payload, size_bytes, tag)
        yield self.sim.timeout(self.world.network.sw_overhead_s)
        return None

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Blocking receive; returns ``(source, tag, data)``."""

        def match(msg: Message) -> bool:
            if source != ANY_SOURCE and msg.payload["source"] != source:
                return False
            if tag != ANY_TAG and msg.payload["tag"] != tag:
                return False
            return True

        msg = yield self.world.network.receive(
            self.host.name, self._port(self.rank), "MPI", match)
        return msg.payload["source"], msg.payload["tag"], msg.payload["data"]

    def sendrecv(self, dest: int, payload: Any, size_bytes: int,
                 source: int, tag: int = 0) -> Generator:
        """Simultaneous exchange (deadlock-free pairwise step)."""
        self.isend(dest, payload, size_bytes, tag)
        got = yield from self.recv(source=source, tag=tag)
        return got

    # -- collectives (bound from repro.mpi.collectives) ----------------------------
    def _next_coll_tag(self) -> int:
        """Collective calls use a reserved descending tag space; SPMD
        call order keeps the per-rank counters aligned."""
        self._coll_seq += 1
        return -1000 - self._coll_seq

    # populated at import time by repro.mpi.collectives
    barrier: Callable[..., Generator]
    bcast: Callable[..., Generator]
    reduce: Callable[..., Generator]
    allreduce: Callable[..., Generator]
    gather: Callable[..., Generator]
    scatter: Callable[..., Generator]
    allgather: Callable[..., Generator]
    alltoall: Callable[..., Generator]
    alltoallv: Callable[..., Generator]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Comm rank={self.rank}/{self.size} on {self.host.name}>"


class MPIWorld:
    """A set of ranks pinned to hosts, ready to run SPMD programs.

    Parameters
    ----------
    sim, network:
        Substrate (hosts are registered automatically).
    hosts:
        ``hosts[rank]`` is the host running that rank.  Build from an
        :class:`~repro.alloc.base.AllocationPlan` with
        :meth:`from_plan`.
    job_id:
        Namespace for the MPI ports (several worlds may coexist).
    """

    def __init__(self, sim: Simulator, network: Network, hosts: List[Host],
                 job_id: str = "job") -> None:
        if not hosts:
            raise ValueError("world needs at least one rank")
        self.sim = sim
        self.network = network
        self.hosts = list(hosts)
        self.job_id = job_id
        self.size = len(hosts)
        for host in self.hosts:
            network.register(host.name)
        self.comms = [Comm(self, rank) for rank in range(self.size)]
        self._procs: List[Optional[Process]] = [None] * self.size

    @classmethod
    def from_plan(cls, sim: Simulator, network: Network, plan,
                  job_id: str = "job", replica: int = 0) -> "MPIWorld":
        """World over one replica slice of an allocation plan."""
        chosen: Dict[int, Host] = {}
        for placement in plan.placements:
            if placement.replica == replica:
                chosen[placement.rank] = placement.host
        if len(chosen) != plan.n:
            raise ValueError(f"replica {replica} does not cover all ranks")
        return cls(sim, network, [chosen[r] for r in range(plan.n)], job_id)

    def port_of(self, rank: int) -> str:
        return f"mpi:{self.job_id}:{rank}"

    # -- running programs ------------------------------------------------------
    def spawn(self, program: Callable[[Comm], Generator]) -> List[Process]:
        """Start ``program(comm)`` on every rank."""
        procs = []
        for rank in range(self.size):
            proc = self.sim.process(program(self.comms[rank]))
            self._procs[rank] = proc
            procs.append(proc)
        return procs

    def run(self, program: Callable[[Comm], Generator],
            limit_s: float = 1e6) -> List[Any]:
        """Spawn, run to completion, return per-rank results.

        Raises
        ------
        MPIProcessFailure
            If any rank's program raised.
        """
        procs = self.spawn(program)
        done = self.sim.all_of(procs)
        try:
            self.sim.run_until_complete(done, limit=self.sim.now + limit_s)
        except Exception as exc:
            raise MPIProcessFailure(f"world {self.job_id}: {exc}") from exc
        return [proc.value for proc in procs]
