#!/usr/bin/env python
"""Strategy impact on applications (paper §5.2, Figure 4) — plus the
future-work extensions.

Reproduces the EP and IS class-B curves under spread and concentrate,
then goes beyond the paper: the CG-like workload where neither strategy
dominates, and the *block* mixed strategy sweeping the continuum
between the two published ones.

Run:  python examples/nas_comparison.py
"""

from repro import JobRequest, build_grid5000_cluster
from repro.apps import CGLikeBenchmark, EPBenchmark, ISBenchmark
from repro.experiments.applications import run_application_experiment
from repro.experiments.report import format_series_table


def main() -> None:
    # Every sweep cell boots its own testbed, as `p2pmpirun run fig4` does.
    print("Figure 4 left — NAS EP class B (seconds):")
    ep = run_application_experiment(EPBenchmark("B"),
                                    process_counts=(32, 64, 128, 256, 512))
    print(format_series_table(ep, title="EP-B n"))

    print("\nFigure 4 right — NAS IS class B (seconds):")
    is_ = run_application_experiment(ISBenchmark("B"),
                                     process_counts=(32, 64, 128))
    print(format_series_table(is_, title="IS-B n"))

    print("\nExtension — CG-like workload (halo exchange + dot products):")
    cg = run_application_experiment(CGLikeBenchmark("B"),
                                    process_counts=(32, 64, 128))
    print(format_series_table(cg, title="CG-B n"))

    cluster = build_grid5000_cluster(seed=42)
    print("\nExtension — block mixed strategy on IS-B at n=64")
    print("(block=1 is spread, block>=4 behaves like concentrate):")
    for block in (1, 2, 4):
        result = cluster.submit_and_run(JobRequest(
            n=64, strategy="block", strategy_kwargs={"block": block},
            app=ISBenchmark("B")))
        print(f"  block={block}: {result.timings.makespan_s:6.2f} s "
              f"on {len(result.allocation.used_hosts())} hosts")


if __name__ == "__main__":
    main()
