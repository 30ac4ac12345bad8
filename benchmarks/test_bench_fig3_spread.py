"""Figure 3: *spread* — allocated hosts (left) and cores (right) per
site, for 100..600 demanded processes.

Shape criteria (from §5.1):

* one process per host while hosts remain (hosts == demand <= 350);
* four closest sites dominate up to 250; all six sites from 300;
* the nancy cores series makes a stair at 400 (350 hosts exhausted,
  closest peers take a second process);
* all 350 peers are in use beyond 350 demanded.
"""

from repro.experiments.coallocation import (
    PAPER_DEMANDS,
    run_coallocation_experiment,
)
from repro.experiments.report import format_site_table

from benchmarks.conftest import emit


def test_bench_fig3_spread(benchmark):
    series = benchmark.pedantic(
        lambda: run_coallocation_experiment(
            demands=PAPER_DEMANDS, strategies=("spread",))["spread"],
        rounds=1, iterations=1,
    )

    emit("Figure 3 left: spread, allocated hosts per site",
         format_site_table(series, value="hosts"))
    emit("Figure 3 right: spread, allocated cores per site",
         format_site_table(series, value="cores"))

    # -- §5.1 shape assertions ------------------------------------------------
    for n in (100, 150, 200, 250, 300, 350):
        assert series.point(n).total_hosts == n, f"1/host violated at {n}"
    pt250 = series.point(250)
    four = (pt250.cores("nancy") + pt250.cores("lyon")
            + pt250.cores("rennes") + pt250.cores("bordeaux"))
    assert four >= 240 and pt250.cores("sophia") == 0
    assert len(series.point(300).sites_used) == 6
    # The stair: 60 -> 110 -> 120 nancy cores at 300/400/450+.
    assert series.point(300).cores("nancy") == 60
    assert series.point(400).cores("nancy") == 110
    assert series.point(450).cores("nancy") == 120
    for n in (400, 450, 500, 550, 600):
        assert sum(series.point(n).hosts_by_site.values()) == 350
    for pt in series.points:
        assert sum(pt.cores_by_site.values()) == pt.n
