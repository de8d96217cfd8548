#!/usr/bin/env python3
"""Compare unstable-mode counts across lattice geometries at matched size."""

import argparse

from crossnet import DEFAULT_SKT_PARAMS, GraphSpec, lattice_comparison
from crossnet.experiments import write_lattice_comparison


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, default=10)
    ap.add_argument("--cols", type=int, default=11)
    ap.add_argument("--out", default="results/lattice_comparison")
    args = ap.parse_args()

    dims = {kind: (args.rows, args.cols) for kind in ("hexagonal", "square", "triangular")}
    try:
        for kind, (rows, cols) in dims.items():
            GraphSpec(family=f"{kind}-lattice", rows=rows, cols=cols)
    except ValueError as exc:
        ap.error(str(exc))
    results = lattice_comparison(dims, DEFAULT_SKT_PARAMS)
    write_lattice_comparison(results, args.out)

    print(f"{'kind':<12} {'nodes':>6} {'lambda_max':>12} {'unstable modes':>15}")
    for kind, res in sorted(results.items()):
        print(f"{kind:<12} {res.n_nodes:>6} {max(res.eigenvalues):>12.6f} {len(res.unstable_modes):>15}")
    print(f"wrote {args.out}/spectra.csv and {args.out}/summary.csv")


if __name__ == "__main__":
    main()
