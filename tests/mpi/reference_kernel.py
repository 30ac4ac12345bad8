"""Scalar reference kernels of the collective cost model.

:class:`ReferenceCostModel` prices every collective with the original
per-edge loops over :meth:`~repro.mpi.costmodel.CollectiveCostModel.p2p_time`
instead of the cached rank x rank matrices.  It is the equivalence
oracle of ``tests/mpi/test_kernel_equivalence.py`` and the baseline
path of the kernel benchmarks: both paths share the scalar arithmetic
bodies and summation order, so they agree bit for bit.  It increments
the same :class:`~repro.mpi.costmodel.KernelStats` counters
(``p2p_calls``, ``alltoallv_rank_evals``) the perf trajectory gates.
"""

import numpy as np

from repro.mpi.costmodel import (CollectiveCostModel, GroupLayout,
                                 _barrier_rounds, _binomial_round_edges)


class ReferenceCostModel(CollectiveCostModel):
    """:class:`CollectiveCostModel` with the scalar per-edge loops."""

    def barrier_time(self, layout: GroupLayout) -> float:
        total = 0.0
        for edges in _barrier_rounds(layout.p):
            total += max(self.p2p_time(layout, i, j, 32)
                         for i, j in edges)
        return total

    def bcast_time(self, layout: GroupLayout, nbytes: int,
                   root: int = 0) -> float:
        total = 0.0
        for edges in _binomial_round_edges(layout.p, root):
            total += max(self.p2p_time(layout, i, j, nbytes)
                         for i, j in edges)
        return total

    def allreduce_time(self, layout: GroupLayout, nbytes: int) -> float:
        p = layout.p
        if p == 1:
            return self.params.sw_overhead_s
        pof2 = 1 << (p.bit_length() - 1)
        rem = p - pof2
        total = 0.0
        if rem:
            fold = max(
                self.p2p_time(layout, 2 * i + 1, 2 * i, nbytes)
                for i in range(rem)
            )
            total += 2 * fold  # fold in + fold out

        def real(vrank: int) -> int:
            return 2 * vrank if vrank < rem else vrank + rem

        mask = 1
        while mask < pof2:
            total += max(
                self.p2p_time(layout, real(v), real(v ^ mask), nbytes)
                for v in range(pof2)
            )
            mask <<= 1
        return total

    def gather_time(self, layout: GroupLayout, nbytes: int,
                    root: int = 0) -> float:
        pa = self.params
        if layout.p == 1:
            return pa.sw_overhead_s
        lat = max(
            self.p2p_time(layout, i, root, 0)
            for i in range(layout.p) if i != root
        )
        per_msg = (pa.sw_overhead_s + pa.fixed_cost_s(nbytes)
                   + nbytes * pa.ser_per_byte_s)
        return lat + (layout.p - 1) * per_msg + self._serial_bytes_time(
            layout, root, nbytes * (layout.p - 1)
        )

    def ring_exchange_time(self, layout: GroupLayout, nbytes: int) -> float:
        p = layout.p
        return max(self.p2p_time(layout, i, (i + 1) % p, nbytes)
                   for i in range(p))

    def alltoallv_time(self, layout: GroupLayout,
                       bytes_per_pair: int) -> float:
        pa = self.params
        p = layout.p
        if p == 1:
            return pa.sw_overhead_s
        unit = self._alltoallv_unit(layout, bytes_per_pair)
        wire = self._alltoallv_wire_per_rank(layout, bytes_per_pair)
        per_rank = np.zeros(p)
        for i in range(p):
            per_rank[i] = self._alltoallv_rank_total(
                layout, layout.rank_site[i], layout.colocated[i],
                unit, wire[i])
        return float(per_rank.max())

    def _alltoallv_wire_per_rank(self, layout: GroupLayout,
                                 bytes_per_pair: int) -> np.ndarray:
        p = layout.p
        if bytes_per_pair <= 0:
            return np.zeros(p)
        self.stats.alltoallv_rank_evals += p
        out = np.zeros(p)
        for i in range(p):
            out[i] = self._alltoallv_wire_one(
                layout, layout.rank_site[i], layout.colocated[i],
                bytes_per_pair)
        return out
