"""The benchmark's four campaign workloads and their record checks.

Each workload is one registered campaign, resolved through
``repro.experiments.registry`` (the lookup a ``p2pmpirun run`` user
pays) and built through the campaign's own spec builder with the
benchmark seed as the spec master seed.  The grids are fixed: the
same seed always gives the same cells.  Each grid has 20 or more cells
and is sized so that one pass over it takes about a third of a
20-second run on a slow 2-vCPU host; the run repeats the pass in
fresh interpreters until its time is used (see :mod:`perfbench.run`).
``tiny=True`` swaps in a few cells on the ``small`` testbed (or the
smallest latency-ratio grid) for the benchmark's own tests.

Every cell record is checked against its campaign's invariants by
:func:`check_record`; a violation counts the cell as failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence

@dataclass(frozen=True)
class Workload:
    name: str
    campaign: str
    why: str
    build: Callable[[int, bool], list]

    def specs(self, seed: int, tiny: bool = False) -> list:
        from repro.experiments import registry

        registry.get(self.campaign)
        return self.build(seed, tiny)


def _spaced(lo: int, hi: int, points: int) -> tuple:
    """``points`` integers evenly spaced over ``[lo, hi]``."""
    if points == 1:
        return (lo,)
    step = (hi - lo) / (points - 1)
    return tuple(int(round(lo + i * step)) for i in range(points))


def _pick(values: Sequence, points: int) -> tuple:
    """``points`` entries of ``values``, evenly spread, ends included."""
    points = min(points, len(values))
    return tuple(values[i] for i in _spaced(0, len(values) - 1, points))


def _coallocation(seed: int, tiny: bool) -> list:
    from repro.cluster import ClusterSpec
    from repro.experiments.coallocation import coallocation_spec

    if tiny:
        return [coallocation_spec(seed=seed, demands=(4, 8),
                                  cluster_spec=ClusterSpec(kind="small"))]
    # The paper's two strategies over n = 50, 75, ..., 250: its n = 100,
    # 150, ..., 600 grid at a smaller scale.  A cell costs about 0.2 s
    # of cluster boot plus time growing with n.
    demands = _spaced(50, 250, 9)
    return [coallocation_spec(seed=seed, demands=demands)]


def _applatency(seed: int, tiny: bool) -> list:
    from repro.experiments.applatency import (APPLATENCY_STRATEGIES,
                                              applatency_apps,
                                              applatency_spec)
    from repro.experiments.commaware import LATENCY_RATIOS

    if tiny:
        return [applatency_spec(app, ratios=(1.0,), strategies=("spread",),
                                ns=(4,), seed=seed)
                for app in applatency_apps("B")]
    ratios = _pick(LATENCY_RATIOS, 2)
    return [applatency_spec(app, ratios=ratios,
                            strategies=APPLATENCY_STRATEGIES, ns=(32,),
                            seed=seed)
            for app in applatency_apps("B")]


def _migration(seed: int, tiny: bool) -> list:
    from repro.cluster import ClusterSpec
    from repro.experiments.migration import migration_spec

    if tiny:
        return [migration_spec(seed=seed, failures=(0.01,), horizon_s=30.0,
                               work_s=10.0, n=4,
                               cluster_spec=ClusterSpec(kind="small",
                                                        boot=False))]
    # Two sweeps of one campaign: a few static cells as the baseline,
    # most cells diffusive.  A 1:1 grid would put the cell median in
    # the gap between the cheaper static and the diffusive cells.  A
    # rebalance tick (neighbor_map over the grid5000 hosts) costs about
    # as much as the rest of a cell, and the balancer ticks until the
    # last job ends, which varies by seed from before the horizon to
    # 20 s after it.  A 35 s period in a 50 s horizon gives one tick in
    # nearly every cell; with 20 s in 40 s, cells had one or two, and
    # the cell median moved 11 % between seeds.
    cluster = ClusterSpec(kind="grid5000", boot=False)
    return [migration_spec(seed=seed, modes=(mode,), arrivals=(0.04,),
                           failures=tuple(f / 4000.0 for f in
                                          _spaced(2, 16, points)),
                           users=4, horizon_s=50.0, work_s=5.0, n=8,
                           rebalance_period_s=35.0, threshold=0.25,
                           cluster_spec=cluster)
            for mode, points in (("static", 2), ("diffusive", 10))]


def _multiuser2(seed: int, tiny: bool) -> list:
    from repro.cluster import ClusterSpec
    from repro.experiments.multiuser2 import multiuser2_spec

    if tiny:
        return [multiuser2_spec(seed=seed, tenants=(5,), rates=(0.05,),
                                cluster_spec=ClusterSpec(kind="small"))]
    rates = (0.01, 0.1, 0.5)
    return [multiuser2_spec(seed=seed, tenants=(40, 80), rates=rates,
                            cluster_spec=ClusterSpec(kind="grid5000"))]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("coalloc-g5k", "coallocation",
             "the paper's 5.1 co-allocation sweep on Grid'5000 at smaller n; "
             "the DES inbox scan dominates it", _coallocation),
    Workload("applatency-g5k", "applatency",
             "EP/IS latency-ratio cells; overlay discovery dominates and it "
             "is the heaviest cost-model user", _applatency),
    Workload("migration-churn", "migration",
             "diffusive vs static placement under churn; neighbor_map and "
             "the migrate paths of inbox and overlay", _migration),
    Workload("multiuser2-cp", "multiuser2",
             "concurrent tenants on the asyncio control plane; the control "
             "for inbox work", _multiuser2),
)}


# ----------------------------------------------------------------------
# record invariants
# ----------------------------------------------------------------------
def _finite_positive(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0


def _check_coallocation(params: Mapping, value: Mapping) -> List[str]:
    n = params["n"]
    problems = []
    if value.get("total_cores") != n:
        problems.append(f"placed {value.get('total_cores')} processes, "
                        f"demand {n}")
    if sum(value.get("cores_by_site", {}).values()) != n:
        problems.append("cores_by_site does not sum to the demand")
    return problems


def _check_applatency(params: Mapping, value: Mapping) -> List[str]:
    return [f"{key}={value.get(key)!r} is not finite and positive"
            for key in ("time_s", "comm_s")
            if not _finite_positive(value.get(key))]


def _check_migration(params: Mapping, value: Mapping) -> List[str]:
    problems = []
    if value["copies_done"] > value["copies_planned"]:
        problems.append(f"copies_done {value['copies_done']} > "
                        f"copies_planned {value['copies_planned']}")
    if sum(value["statuses"].values()) != value["jobs"]:
        problems.append(f"statuses sum to {sum(value['statuses'].values())},"
                        f" jobs {value['jobs']}")
    return problems


def _check_multiuser2(params: Mapping, value: Mapping) -> List[str]:
    problems = []
    if value["admitted"] + value["refused"] != value["arrivals"]:
        problems.append(f"admitted {value['admitted']} + refused "
                        f"{value['refused']} != arrivals {value['arrivals']}")
    if value["leaked_holds"] != 0:
        problems.append(f"leaked_holds {value['leaked_holds']}")
    if value["stuck_in_flight"]:
        problems.append(f"stuck_in_flight {value['stuck_in_flight']}")
    return problems


_CHECKS = {
    "coallocation": _check_coallocation,
    "applatency": _check_applatency,
    "migration": _check_migration,
    "multiuser2": _check_multiuser2,
}


def check_record(campaign: str, record: Mapping) -> List[str]:
    """Invariant violations of one stored cell record (``[]`` if sound)."""
    try:
        return _CHECKS[campaign](record["params"], record["value"])
    except (KeyError, TypeError, AttributeError) as exc:
        return [f"malformed record: {exc!r}"]
