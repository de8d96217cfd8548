#!/usr/bin/env python3
"""Ensemble spectral statistics for random graph families vs the mode window.

For each swept value this reports the fraction of realizations whose spectrum
enters the instability window and how many mean-spectrum eigenvalues fall
inside it.  Default sweeps per family:

    regular-random   degree k in {8, 16, 24, 32, 40}   (half-degrees 4..20)
    erdos-renyi      edge probability p in {0.1, 0.2, 0.3, 0.4, 0.5}
    watts-strogatz   rewiring p in {0.0, 0.01, 0.05, 0.1, 0.5} at k=15
"""

import argparse
import dataclasses
import os

from crossnet import DEFAULT_SKT_PARAMS, GraphSpec, SweepSpec, ensemble_report
from crossnet.experiments import write_ensemble_report

_SWEEPS = {
    "regular-random": ("k", (8, 16, 24, 32, 40), GraphSpec(family="regular-random", n=100, k=8)),
    "erdos-renyi": ("p", (0.1, 0.2, 0.3, 0.4, 0.5), GraphSpec(family="erdos-renyi", n=100, p=0.1)),
    "watts-strogatz": ("p", (0.0, 0.01, 0.05, 0.1, 0.5), GraphSpec(family="watts-strogatz", n=100, k=15, p=0.0)),
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--family", choices=sorted(_SWEEPS), default=None,
                    help="run a single family (default: all three)")
    ap.add_argument("--n", type=int, default=100, help="nodes per realization")
    ap.add_argument("--realizations", type=int, default=1000)
    ap.add_argument("--values", type=float, nargs="+", default=None,
                    help="override the swept values (k values are cast to int)")
    ap.add_argument("--master-seed", type=int, default=0)
    ap.add_argument("--threads", type=int, default=None)
    ap.add_argument("--out", default="results/ensembles")
    args = ap.parse_args()

    families = [args.family] if args.family else sorted(_SWEEPS)
    # check every family's sweep before any runs, so that a bad size writes nothing
    specs = {}
    for family in families:
        swept, values, base = _SWEEPS[family]
        if args.values is not None:
            values = tuple(int(v) if swept == "k" else v for v in args.values)
        try:
            spec = SweepSpec(
                base=dataclasses.replace(base, n=args.n),
                swept=swept,
                values=values,
                skt=DEFAULT_SKT_PARAMS,
                realizations=args.realizations,
                master_seed=args.master_seed,
            )
            for value in spec.values:
                spec.spec_at(value)
        except ValueError as exc:
            ap.error(str(exc))
        specs[family] = spec

    for family, spec in specs.items():
        rows = ensemble_report(spec, threads=args.threads)
        out_dir = os.path.join(args.out, family)
        write_ensemble_report(spec, rows, out_dir)

        print(f"\n{family}  (n={args.n}, {args.realizations} realizations)")
        print(f"{spec.swept:>8}  {'unstable fraction':>18}  {'mean-spectrum modes':>20}")
        for row in rows:
            print(f"{row.value:>8}  {row.instability_fraction:>18.3f}  {row.mean_spectrum_unstable_count:>20}")
        print(f"wrote {out_dir}/ensemble.csv and {out_dir}/summary.csv")


if __name__ == "__main__":
    main()
