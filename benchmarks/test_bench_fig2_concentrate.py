"""Figure 2: *concentrate* — allocated hosts (left) and cores (right)
per site, for 100..600 demanded processes.

Shape criteria (from §5.1):

* up to 200 processes everything lands at nancy;
* nancy saturates at 240 cores / 60 hosts;
* the first overflow goes to lyon (5 hosts at n=250);
* lyon/rennes/bordeaux compete beyond 300; sophia stays unused.
"""

from repro.experiments.coallocation import (
    PAPER_DEMANDS,
    run_coallocation_experiment,
)
from repro.experiments.report import format_site_table

from benchmarks.conftest import emit


def test_bench_fig2_concentrate(benchmark):
    series = benchmark.pedantic(
        lambda: run_coallocation_experiment(
            demands=PAPER_DEMANDS, strategies=("concentrate",))["concentrate"],
        rounds=1, iterations=1,
    )

    emit("Figure 2 left: concentrate, allocated hosts per site",
         format_site_table(series, value="hosts"))
    emit("Figure 2 right: concentrate, allocated cores per site",
         format_site_table(series, value="cores"))

    # -- §5.1 shape assertions ------------------------------------------------
    assert series.only_site_until("nancy") >= 200
    for n in (300, 400, 500, 600):
        assert series.point(n).cores("nancy") == 240
        assert series.point(n).hosts("nancy") == 60
    pt250 = series.point(250)
    assert pt250.hosts("lyon") == 5 and pt250.cores("lyon") == 10
    assert series.point(600).cores("sophia") == 0
    # Demand always met exactly.
    for pt in series.points:
        assert sum(pt.cores_by_site.values()) == pt.n
    # Concentrate packs: fewer hosts than spread would use.
    assert series.point(100).total_hosts == 25
