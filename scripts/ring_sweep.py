#!/usr/bin/env python3
"""Count unstable Laplacian modes on rings as the neighborhood radius grows.

Writes spectra.csv / summary.csv under --out and prints one line per radius.
"""

import argparse

from crossnet import DEFAULT_SKT_PARAMS, GraphSpec, SweepSpec, ring_sweep
from crossnet.experiments import write_ring_sweep


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=100, help="number of ring nodes")
    ap.add_argument("--k", type=int, nargs="+", default=None,
                    help="neighbor radii to sweep (default: every valid radius)")
    ap.add_argument("--out", default="results/ring_sweep", help="output directory")
    args = ap.parse_args()

    # at least k = 1, so that a ring too small for any radius fails its check
    radii = args.k if args.k else list(range(1, max(2, (args.n - 1) // 2 + 1)))
    try:
        spec = SweepSpec(
            base=GraphSpec(family="ring", n=args.n, k=radii[0]),
            swept="k",
            values=tuple(radii),
            skt=DEFAULT_SKT_PARAMS,
        )
    except ValueError as exc:
        ap.error(str(exc))
    rows = ring_sweep(spec)
    write_ring_sweep(rows, args.out)

    first = rows[0]
    print(f"instability window: ({first.lambda_star_1:.6f}, {first.lambda_star_2:.6f}), "
          f"onset threshold {first.lambda_star:.6f}")
    print(f"{'k':>4}  {'lambda_max':>12}  {'unstable modes':>14}")
    for row in rows:
        print(f"{row.value:>4}  {max(row.eigenvalues):>12.6f}  {row.unstable_count:>14}")
    print(f"wrote {args.out}/spectra.csv and {args.out}/summary.csv")


if __name__ == "__main__":
    main()
