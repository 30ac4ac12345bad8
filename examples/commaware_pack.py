#!/usr/bin/env python
"""Communication-aware strategies vs the paper's, on the fig2 grid.

Sweeps all six registered strategies (concentrate / spread / block and
the Bender-et-al-style bandwidth_spread / diameter_concentrate /
topo_block) over the §5.1 demand grid and prints the placement-quality
comparison: hosts used, sites touched, latency diameter and minimum
contended bandwidth of the allocation.  Watch bandwidth_spread hold
the 0.62 Gb/s floor through n=600 where the published strategies drop
to 0.06 Gb/s the moment they touch the bordeaux backbone.

Run:  python examples/commaware_pack.py [--fast]

(Equivalent CLI: ``p2pmpirun run commaware --jobs 4``.)
"""

import sys

from repro.experiments.commaware import (
    commaware_report,
    run_commaware_campaign,
)


def main() -> None:
    fast = "--fast" in sys.argv
    demands = (100, 250, 400, 600) if fast else tuple(range(100, 601, 50))
    print(f"Sweeping {list(demands)} x 6 strategies "
          f"(full middleware per cell)...")
    campaign = run_commaware_campaign(
        seed=42, demands=demands,
        with_apps=not fast, with_latratio=not fast, jobs=4)
    print()
    print(commaware_report(campaign))


if __name__ == "__main__":
    main()
