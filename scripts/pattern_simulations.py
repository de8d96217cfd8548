#!/usr/bin/env python3
"""Integrate perturbed coexistence states to their patterned steady states.

Covers rings at several neighbor radii plus lightly rewired small-world
variants, a few perturbation seeds each.  Per-run outputs (trajectories,
final states, stability report) land in --out/<label>/.
"""

import argparse

from crossnet import DEFAULT_SKT_PARAMS, GraphSpec, IntegratorConfig, simulate_and_report
from crossnet.config import ExperimentConfig

RING_KS = (10, 15, 20)
# a ring with k neighbors per side needs n >= 2k + 1 nodes
MIN_N = 2 * max(RING_KS) + 1


def default_cases(n: int) -> list[tuple[str, GraphSpec]]:
    cases = [(f"ring_k{k}", GraphSpec(family="ring", n=n, k=k)) for k in RING_KS]
    cases += [
        (f"smallworld_p{p:g}", GraphSpec(family="watts-strogatz", n=n, k=15, p=p, seed=0))
        for p in (0.01, 0.05)
    ]
    return cases


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--perturbation", type=float, default=1e-2)
    ap.add_argument("--steady-tol", type=float, default=1e-6)
    ap.add_argument("--t-max", type=float, default=5000.0)
    ap.add_argument("--out", default="results/patterns")
    args = ap.parse_args()
    if args.n < MIN_N:
        ap.error(f"--n must be at least {MIN_N} for the k = {max(RING_KS)} rings, got {args.n}")

    try:
        cfg = IntegratorConfig(steady_state_tol=args.steady_tol, t_max=args.t_max)
        exp = ExperimentConfig(perturbation=args.perturbation, seeds=tuple(args.seeds))
        cases = default_cases(args.n)
    except ValueError as exc:
        ap.error(str(exc))
    print(f"{'case':<16} {'seed':>4} {'converged':>9} {'t_conv':>8} "
          f"{'heterogeneity':>13} {'du%':>8} {'dv%':>8}")
    for label, spec in cases:
        runs = simulate_and_report(
            spec, DEFAULT_SKT_PARAMS,
            seeds=exp.seeds, cfg=cfg,
            perturbation=exp.perturbation,
            out_dir=f"{args.out}/{label}",
        )
        for run in runs:
            t_conv = f"{run.result.t_converged:.1f}" if run.result.t_converged is not None else "-"
            m = run.metrics
            print(f"{label:<16} {run.seed:>4} {str(run.result.converged):>9} {t_conv:>8} "
                  f"{m.heterogeneity:>13.4f} {m.pct_change_u:>8.3f} {m.pct_change_v:>8.3f}")
    print(f"per-case outputs in {args.out}/")


if __name__ == "__main__":
    main()
