"""Reproducible experiment drivers: sweeps, ensembles, simulation campaigns.

Every driver is a pure function of its spec and master seed.  Writers emit
plot-ready CSV files plus a JSON manifest so a run directory is
self-describing and byte-identical across reruns.
"""
from __future__ import annotations

import dataclasses
import os
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import spectra
from .dynamics import (
    IntegratorConfig,
    PatternMetrics,
    SimulationResult,
    pattern_metrics,
    perturb_homogeneous,
    simulate_skt,
    write_final_state_csv,
    write_trajectory_csv,
)
from .errors import require_int
from .graphs import Graph, GraphSpec, build_graph, build_laplacian, write_edge_list
from .rng import derive_seed
from .stability import (
    DEFAULT_SKT_PARAMS,
    SktParams,
    classify_modes,
    report_to_dict,
    stability_report,
    unstable_mask,
)
from .textio import write_json, write_table

__all__ = [
    "SweepSpec",
    "RingSweepRow",
    "LatticeResult",
    "EnsembleRow",
    "SeedRunResult",
    "ring_sweep",
    "lattice_comparison",
    "ensemble_report",
    "simulate_and_report",
    "write_ring_sweep",
    "write_lattice_comparison",
    "write_ensemble_report",
    "run_manifest",
    "write_run",
]

@dataclass(frozen=True)
class SweepSpec:
    """One swept graph parameter with everything else held fixed.

    ``swept`` names the GraphSpec field to vary ("k", "n" or "p");
    ``base`` provides the fixed fields (family included).  ``realizations``
    only matters for random families.
    """

    base: GraphSpec
    swept: str
    values: tuple
    skt: SktParams = DEFAULT_SKT_PARAMS
    realizations: int = 1
    master_seed: int = 0

    def __post_init__(self):
        if self.swept not in ("k", "n", "p"):
            raise ValueError(f"swept must be 'k', 'n' or 'p', got {self.swept!r}")
        if not self.values:
            raise ValueError("values must be non-empty")
        require_int("realizations", self.realizations)
        if self.realizations < 1:
            raise ValueError(f"realizations must be >= 1, got {self.realizations}")
        # a value that makes no graph fails here, not after the values before it ran
        for j, value in enumerate(self.values):
            try:
                self.spec_at(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"values[{j}] must be a valid {self.swept}: {exc}") from exc

    def spec_at(self, value) -> GraphSpec:
        return replace(self.base, **{self.swept: value})


@dataclass(frozen=True)
class RingSweepRow:
    value: int
    n: int
    k: int
    eigenvalues: np.ndarray
    lambda_star: float | None
    lambda_star_1: float | None
    lambda_star_2: float | None
    unstable_count: int


def ring_sweep(spec: SweepSpec) -> list[RingSweepRow]:
    """Closed-form ring spectra against the fixed instability window."""
    if spec.base.family != "ring":
        raise ValueError(f"ring_sweep needs a ring base spec, got {spec.base.family!r}")
    report = stability_report(spec.skt)
    rows = []
    for value in spec.values:
        gspec = spec.spec_at(value)
        vals = spectra.ring_spectrum_closed_form(gspec.n, gspec.k)
        modes = classify_modes(vals, report)
        region = report.region
        rows.append(
            RingSweepRow(
                value=value,
                n=gspec.n,
                k=gspec.k,
                eigenvalues=vals,
                lambda_star=report.lambda_star,
                lambda_star_1=None if region is None else region[0],
                lambda_star_2=None if region is None else region[1],
                unstable_count=len(modes),
            )
        )
    return rows


@dataclass(frozen=True)
class LatticeResult:
    kind: str
    rows: int
    cols: int
    n_nodes: int
    eigenvalues: np.ndarray
    unstable_modes: tuple[int, ...]


def lattice_comparison(
    dims: dict[str, tuple[int, int]],
    skt: SktParams = DEFAULT_SKT_PARAMS,
) -> dict[str, LatticeResult]:
    """Spectrum and unstable-mode count for each lattice kind at given dims."""
    report = stability_report(skt)
    out: dict[str, LatticeResult] = {}
    for kind, (rows, cols) in dims.items():
        g = build_graph(GraphSpec(family=f"{kind}-lattice", rows=rows, cols=cols))
        vals = spectra.eig_symmetric(build_laplacian(g))
        modes = classify_modes(vals, report)
        out[kind] = LatticeResult(
            kind=kind,
            rows=rows,
            cols=cols,
            n_nodes=g.n_nodes,
            eigenvalues=vals,
            unstable_modes=modes,
        )
    return out


@dataclass(frozen=True)
class EnsembleRow:
    value: object
    stats: spectra.SpectralStats
    instability_fraction: float
    mean_spectrum_unstable_count: int


def ensemble_report(spec: SweepSpec, workers: int = 1) -> list[EnsembleRow]:
    """Seeded-ensemble spectral statistics per swept value.

    Realization ``i`` of swept value index ``j`` uses the seed derived from
    (master_seed, j, i), and is solved in one of up to ``workers`` processes;
    the results and the error raised do not depend on ``workers``.
    """
    report = stability_report(spec.skt)
    rows = []
    for j, value in enumerate(spec.values):
        gspec = spec.spec_at(value)
        eigs = spectra.ensemble_eigenvalues(
            gspec, spec.realizations, derive_seed(spec.master_seed, j), workers
        )
        unstable = int(unstable_mask(eigs, report).any(axis=1).sum())
        stats = spectra.stats_from_eigenvalues(eigs)
        rows.append(
            EnsembleRow(
                value=value,
                stats=stats,
                instability_fraction=unstable / spec.realizations,
                mean_spectrum_unstable_count=len(classify_modes(stats.mean, report)),
            )
        )
    return rows


@dataclass(frozen=True)
class SeedRunResult:
    seed: int
    result: SimulationResult
    metrics: PatternMetrics


def simulate_and_report(
    graph_spec: GraphSpec,
    skt: SktParams,
    seeds: tuple[int, ...] = (0,),
    cfg: IntegratorConfig = IntegratorConfig(),
    perturbation: float = 1e-2,
    out_dir: str | None = None,
    workers: int = 1,
) -> list[SeedRunResult]:
    """Perturb the coexistence state, integrate to steady state, summarize.

    One run per perturbation seed on a single graph realization; the runs
    are integrated by ``simulate_skt`` in up to ``workers`` processes, and
    each run's result is the one it gets alone.  With ``out_dir`` set, the
    run directory is written by ``write_run`` in this process once every run
    is done; multi-seed runs place the per-seed CSVs in ``seed_<s>/``
    subdirectories, so repeated seeds raise ValueError before anything is
    integrated or written.
    """
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds must be distinct, got {list(seeds)}")
    g = build_graph(graph_spec)
    eigenvalues = spectra.eig_symmetric(build_laplacian(g))
    report = stability_report(skt, eigenvalues)
    eq = report.equilibrium

    inits = [perturb_homogeneous(eq, g.n_nodes, perturbation, seed) for seed in seeds]
    runs = [
        SeedRunResult(seed=seed, result=result, metrics=pattern_metrics(result.final, eq))
        for seed, result in zip(seeds, simulate_skt(skt, g, inits, cfg, workers))
    ]

    if out_dir is not None:
        payload = report_to_dict(report)
        payload["runs"] = [_run_summary(r) for r in runs]
        manifest = run_manifest(graph_spec, skt=skt, integrator=cfg, extra={
            "perturbation": perturbation,
            "seeds": [r.seed for r in runs],
            "convergence": [
                {"seed": r.seed, "converged": r.result.converged, "t_converged": r.result.t_converged}
                for r in runs
            ],
            "metrics": [dataclasses.asdict(r.metrics) for r in runs],
        })
        write_run(out_dir, manifest, report=payload, eigenvalues=eigenvalues, graph=g, runs=runs)
    return runs


def _run_summary(run: SeedRunResult) -> dict:
    return {
        "seed": run.seed,
        "converged": run.result.converged,
        "t_converged": run.result.t_converged,
        "reason": run.result.reason,
        "t_stiff": run.result.t_stiff,
        "positivity_violated": run.result.positivity_violated,
        "positivity_clamps": run.result.positivity_clamps,
        "min_state": run.result.min_state,
        "steps_accepted": run.result.steps_accepted,
        "steps_rejected": run.result.steps_rejected,
        "rhs_evaluations": run.result.rhs_evaluations,
        "final_residual": run.result.final_residual,
        "metrics": dataclasses.asdict(run.metrics),
    }


def run_manifest(graph: GraphSpec, skt: SktParams | None = None, integrator: IntegratorConfig | None = None,
                 master_seed: int | None = None, extra: dict | None = None) -> dict:
    """JSON-ready run manifest; content is deterministic (no timestamps)."""
    doc: dict = {"graph": dataclasses.asdict(graph)}
    if skt is not None:
        doc["skt"] = dataclasses.asdict(skt)
    if integrator is not None:
        doc["integrator"] = dataclasses.asdict(integrator)
    if master_seed is not None:
        doc["master_seed"] = master_seed
    if extra:
        doc.update(extra)
    return doc


def write_run(out_dir, manifest: dict, *, report: dict | None = None, eigenvalues: np.ndarray | None = None,
              graph: Graph | None = None, runs: Sequence[SeedRunResult] = ()) -> list[str]:
    """Write a computed run to ``out_dir``; returns the names of its top-level files.

    Writes ``report.json``, ``spectrum.csv`` and ``graph.txt`` for whichever
    of ``report``, ``eigenvalues`` and ``graph`` is given, then
    ``manifest.json``, then each run's ``trajectory.csv`` and
    ``final_state.csv``, in ``seed_<s>/`` when there are several runs.
    Callers compute everything first and call this last, so a command that
    fails while computing leaves no directory.
    """
    os.makedirs(out_dir, exist_ok=True)
    files = []

    def top(name):
        files.append(name)
        return os.path.join(out_dir, name)

    if report is not None:
        write_json(top("report.json"), report)
    if eigenvalues is not None:
        spectra.write_spectrum_csv(eigenvalues, top("spectrum.csv"))
    if graph is not None:
        write_edge_list(graph, top("graph.txt"))
    write_json(top("manifest.json"), manifest)
    for run in runs:
        sub = out_dir if len(runs) == 1 else os.path.join(out_dir, f"seed_{run.seed}")
        os.makedirs(sub, exist_ok=True)
        write_trajectory_csv(run.result, os.path.join(sub, "trajectory.csv"))
        write_final_state_csv(run.result.final, os.path.join(sub, "final_state.csv"))
    return files + ["trajectory.csv", "final_state.csv"] if len(runs) == 1 else files


def write_ring_sweep(rows: list[RingSweepRow], out_dir: str) -> None:
    """Long-format eigenvalue table plus a one-row-per-value summary.

    A sweep's window comes from one stability report, so each of its cells
    is empty on every row or on none.
    """
    os.makedirs(out_dir, exist_ok=True)
    write_table(os.path.join(out_dir, "spectra.csv"), "value,n,k,index,eigenvalue", "%s,%d,%d,%d,%.17g",
                ((r.value, r.n, r.k, i, val) for r in rows for i, val in enumerate(r.eigenvalues.tolist())))
    window = ("lambda_star", "lambda_star_1", "lambda_star_2")
    given = [w for w in window if any(getattr(r, w) is not None for r in rows)]
    write_table(os.path.join(out_dir, "summary.csv"), f"value,n,k,{','.join(window)},unstable_count",
                f"%s,%d,%d,{','.join('%.17g' if w in given else '' for w in window)},%d",
                ((r.value, r.n, r.k, *(getattr(r, w) for w in given), r.unstable_count) for r in rows))


def write_lattice_comparison(results: dict[str, LatticeResult], out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_table(os.path.join(out_dir, "spectra.csv"), "kind,rows,cols,n_nodes,index,eigenvalue", "%s,%d,%d,%d,%d,%.17g",
                ((r.kind, r.rows, r.cols, r.n_nodes, i, val) for r in results.values()
                 for i, val in enumerate(r.eigenvalues.tolist())))
    write_table(os.path.join(out_dir, "summary.csv"), "kind,rows,cols,n_nodes,unstable_count", "%s,%d,%d,%d,%d",
                ((r.kind, r.rows, r.cols, r.n_nodes, len(r.unstable_modes)) for r in results.values()))


def write_ensemble_report(spec: SweepSpec, rows: list[EnsembleRow], out_dir: str) -> list[str]:
    """Per-index ensemble statistics plus an instability-probability summary;
    returns the names of the two files.

    A regular-random k-sweep also carries the half-degree column so that its
    full degree and the rings' per-side k can be read side by side.
    """
    os.makedirs(out_dir, exist_ok=True)
    write_table(os.path.join(out_dir, "ensemble.csv"), "value,index,mean,variance,realizations", "%s,%d,%.17g,%.17g,%d",
                ((r.value, i, mean, var, r.stats.realizations) for r in rows
                 for i, (mean, var) in enumerate(zip(r.stats.mean.tolist(), r.stats.variance.tolist()))))
    summary = os.path.join(out_dir, "summary.csv")
    # a regular-random k is the full degree, the rings' 2k; a Barabasi-Albert
    # k, the edges per new node, gives a mean degree 2k(n-k)/n, about 2k
    if spec.base.family == "regular-random" and spec.swept == "k":
        write_table(summary, "k,k_half,instability_fraction,mean_spectrum_unstable_count", "%s,%g,%.17g,%d",
                    ((r.value, r.value / 2, r.instability_fraction, r.mean_spectrum_unstable_count) for r in rows))
    else:
        write_table(summary, "value,instability_fraction,mean_spectrum_unstable_count", "%s,%.17g,%d",
                    ((r.value, r.instability_fraction, r.mean_spectrum_unstable_count) for r in rows))
    return ["ensemble.csv", "summary.csv"]
