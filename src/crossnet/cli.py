"""Command-line entry point.

Subcommands map one-to-one onto the library layers: ``graph gen``,
``spectrum``, ``stability``, ``simulate``, ``ensemble`` and ``config dump``.
Every run writes a manifest next to its outputs so that the exact inputs can
be reconstructed later; a command computes everything before it writes its
directory, so a failed command leaves none.  Failures print a single-line
JSON diagnostic to stdout and exit with 2 (configuration), 3
(numerical/domain) or 4 (I/O).
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import experiments
from .config import RunConfig, load_config
from .errors import ConfigError, CrossnetError
from .graphs import RANDOM_FAMILIES, build_graph, build_laplacian
from .spectra import eig_symmetric
from .stability import report_to_dict, stability_report

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="JSON config file")
    p.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        dest="overrides",
        default=[],
        help="override one config entry, e.g. --set graph.k=15 (repeatable)",
    )
    p.add_argument("--output-dir", metavar="PATH", help="shortcut for --set output_dir=PATH")
    p.add_argument("--master-seed", metavar="INT", type=int, help="shortcut for --set master_seed=INT")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossnet",
        description="Cross-diffusion instability analysis and simulation on networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    graph = sub.add_parser("graph", help="graph construction")
    graph_sub = graph.add_subparsers(dest="graph_command", required=True)
    _add_common(graph_sub.add_parser("gen", help="generate a graph and write its edge list"))

    _add_common(sub.add_parser("spectrum", help="Laplacian spectrum of the configured graph"))
    _add_common(sub.add_parser("stability", help="instability report for the configured model"))
    _add_common(sub.add_parser("simulate", help="integrate the network dynamics from a perturbed equilibrium"))
    _add_common(sub.add_parser("ensemble", help="spectral statistics over random-graph realizations"))

    config = sub.add_parser("config", help="configuration utilities")
    config_sub = config.add_subparsers(dest="config_command", required=True)
    _add_common(config_sub.add_parser("dump", help="print the fully resolved config as JSON"))

    return parser


def _resolve(args: argparse.Namespace) -> tuple[RunConfig, dict]:
    overrides = list(args.overrides)
    if args.output_dir is not None:
        overrides.append(f"output_dir={args.output_dir}")
    if args.master_seed is not None:
        overrides.append(f"master_seed={args.master_seed}")
    return load_config(args.config, overrides)


def _emit(payload: dict) -> None:
    print(json.dumps(payload))


def cmd_graph_gen(cfg: RunConfig, doc: dict) -> int:
    g = build_graph(cfg.graph)
    extra = {"command": "graph gen", "n_nodes": g.n_nodes, "n_edges": g.n_edges}
    manifest = experiments.run_manifest(cfg.graph, master_seed=cfg.master_seed, extra=extra)
    files = experiments.write_run(cfg.output_dir, manifest, graph=g)
    _emit({"output_dir": cfg.output_dir, "n_nodes": g.n_nodes, "n_edges": g.n_edges, "files": files})
    return 0


def cmd_spectrum(cfg: RunConfig, doc: dict) -> int:
    g = build_graph(cfg.graph)
    eigenvalues = eig_symmetric(build_laplacian(g))
    extra = {"command": "spectrum", "n_nodes": g.n_nodes, "n_edges": g.n_edges}
    manifest = experiments.run_manifest(cfg.graph, master_seed=cfg.master_seed, extra=extra)
    files = experiments.write_run(cfg.output_dir, manifest, eigenvalues=eigenvalues, graph=g)
    _emit(
        {
            "output_dir": cfg.output_dir,
            "n_nodes": g.n_nodes,
            "min_eigenvalue": eigenvalues[0],
            "max_eigenvalue": eigenvalues[-1],
            "files": files,
        }
    )
    return 0


def cmd_stability(cfg: RunConfig, doc: dict) -> int:
    g = build_graph(cfg.graph)
    eigenvalues = eig_symmetric(build_laplacian(g))
    payload = report_to_dict(stability_report(cfg.skt, eigenvalues))
    manifest = experiments.run_manifest(cfg.graph, skt=cfg.skt, master_seed=cfg.master_seed,
                                        extra={"command": "stability"})
    files = experiments.write_run(cfg.output_dir, manifest, report=payload, eigenvalues=eigenvalues)
    _emit(
        {
            "output_dir": cfg.output_dir,
            "unstable_modes": payload["unstable_modes"],
            "lambda_star_1": payload["lambda_star_1"],
            "lambda_star_2": payload["lambda_star_2"],
            "files": files,
        }
    )
    return 0


def _workers(cfg: RunConfig) -> int:
    """``experiment.threads``; when unset, one per CPU this process may run on."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cfg.experiment.threads or cpus


def cmd_simulate(cfg: RunConfig, doc: dict) -> int:
    out = cfg.output_dir
    runs = experiments.simulate_and_report(
        cfg.graph,
        cfg.skt,
        seeds=cfg.experiment.seeds,
        cfg=cfg.integrator,
        perturbation=cfg.experiment.perturbation,
        out_dir=out,
        workers=_workers(cfg),
    )
    tol = cfg.integrator.steady_state_tol
    for r in runs:
        if not r.result.converged:
            print(f"seed {r.seed}: {r.result.reason} at t = {r.result.t_final:g}, "
                  f"residual {r.result.final_residual:.1e} > steady_state_tol {tol:g}", file=sys.stderr)
    summary = {
        "output_dir": out,
        "runs": [
            {
                "seed": r.seed,
                "converged": r.result.converged,
                "reason": r.result.reason,
                "final_residual": r.result.final_residual,
                "t_final": r.result.t_final,
                "heterogeneity": r.metrics.heterogeneity,
                "pct_change_u": r.metrics.pct_change_u,
                "pct_change_v": r.metrics.pct_change_v,
            }
            for r in runs
        ],
    }
    _emit(summary)
    return 0


def cmd_ensemble(cfg: RunConfig, doc: dict) -> int:
    out = cfg.output_dir
    if cfg.graph.family not in RANDOM_FAMILIES:
        raise ConfigError(
            f"ensemble requires a random graph family {RANDOM_FAMILIES}, got {cfg.graph.family!r}"
        )
    exp = cfg.experiment
    if exp.sweep_param is not None:
        swept, values = exp.sweep_param, exp.sweep_values
    else:
        swept, values = "n", (cfg.graph.n,)
    sweep = experiments.SweepSpec(
        base=cfg.graph,
        swept=swept,
        values=values,
        skt=cfg.skt,
        realizations=exp.realizations,
        master_seed=cfg.master_seed,
    )
    rows = experiments.ensemble_report(sweep, workers=_workers(cfg))
    experiments.write_ensemble_report(sweep, rows, out)
    manifest = experiments.run_manifest(cfg.graph, skt=cfg.skt, master_seed=cfg.master_seed, extra={
        "command": "ensemble", "swept": swept, "values": list(values), "realizations": exp.realizations,
    })
    files = ["ensemble.csv", "summary.csv", *experiments.write_run(out, manifest)]
    _emit(
        {
            "output_dir": out,
            "rows": [
                {
                    "value": row.value,
                    "instability_fraction": row.instability_fraction,
                    "mean_spectrum_unstable_count": row.mean_spectrum_unstable_count,
                }
                for row in rows
            ],
            "files": files,
        }
    )
    return 0


def cmd_config_dump(cfg: RunConfig, doc: dict) -> int:
    print(json.dumps(doc, indent=2))
    return 0


_COMMANDS = {
    ("graph", "gen"): cmd_graph_gen,
    ("spectrum", None): cmd_spectrum,
    ("stability", None): cmd_stability,
    ("simulate", None): cmd_simulate,
    ("ensemble", None): cmd_ensemble,
    ("config", "dump"): cmd_config_dump,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
    except BrokenPipeError:
        # the reader of stdout has gone, and any diagnostic with it; the files
        # are written, and stdout goes to devnull for the flush at exit
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_IO
    return code


def _run(args: argparse.Namespace) -> int:
    sub = getattr(args, "graph_command", None) or getattr(args, "config_command", None)
    handler = _COMMANDS[(args.command, sub)]
    try:
        cfg, doc = _resolve(args)
        return handler(cfg, doc)
    except ConfigError as exc:
        _emit({"error": "config", "message": str(exc)})
        return EXIT_CONFIG
    except OSError as exc:
        _emit({"error": "io", "message": str(exc)})
        return EXIT_IO
    except (CrossnetError, ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        _emit({"error": "numerical", "message": str(exc)})
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
