"""Experiment drivers: sweeps, lattice comparison, ensembles, simulation runs."""
import dataclasses
import json
import weakref

import numpy as np
import pytest

from crossnet import (
    BlockLaplacian,
    DEFAULT_SKT_PARAMS,
    GraphSpec,
    IntegratorConfig,
    build_graph,
    build_laplacian,
    classify_modes,
    derive_seed,
    dynamics,
    eig_symmetric,
    experiments,
    laplacian_operator,
    stability,
)
from crossnet.experiments import (
    SweepSpec,
    ensemble_report,
    lattice_comparison,
    ring_sweep,
    simulate_and_report,
    write_ensemble_report,
    run_manifest,
    write_lattice_comparison,
    write_ring_sweep,
    write_run,
)
from crossnet.spectra import ensemble_eigenvalues

P = DEFAULT_SKT_PARAMS

# frozen mode counts for the benchmark window on the 100-ring
RING_100_COUNTS = {1: 0, 2: 0, 3: 37, 5: 87, 10: 6, 15: 2, 20: 2, 25: 0, 30: 0, 49: 0}


def test_ring_sweep_counts_match_frozen_table():
    base = GraphSpec(family="ring", n=100, k=10)
    sweep = SweepSpec(base=base, swept="k", values=tuple(RING_100_COUNTS), skt=P)
    rows = ring_sweep(sweep)
    got = {row.value: row.unstable_count for row in rows}
    assert got == RING_100_COUNTS


def test_ring_sweep_rejects_nonring():
    base = GraphSpec(family="path", n=10)
    with pytest.raises(ValueError, match="ring"):
        ring_sweep(SweepSpec(base=base, swept="n", values=(10,), skt=P))


def test_sweep_spec_at_replaces_only_swept_field():
    base = GraphSpec(family="ring", n=100, k=10)
    sweep = SweepSpec(base=base, swept="k", values=(3, 7), skt=P)
    assert sweep.spec_at(3).k == 3
    assert sweep.spec_at(3).n == 100


@pytest.mark.parametrize("realizations", [True, 2.5])
def test_sweep_spec_rejects_non_integer_realizations(realizations):
    base = GraphSpec(family="erdos-renyi", n=20, p=0.1)
    with pytest.raises(ValueError, match=f"realizations must be an integer, got {realizations}"):
        SweepSpec(base=base, swept="p", values=(0.1,), realizations=realizations)


def test_sweep_spec_rejects_a_value_that_makes_no_graph_before_any_run():
    # the bad value is the last one, so a check made while running would
    # first compute the ensembles of the values before it
    base = GraphSpec(family="erdos-renyi", n=100, p=0.1)
    with pytest.raises(ValueError, match=r"values\[2\] must be a valid p: p must lie in \[0, 1\]"):
        SweepSpec(base=base, swept="p", values=(0.1, 0.2, 1.5), realizations=200)


def test_lattice_comparison_frozen_counts():
    dims = {kind: (10, 11) for kind in ("hexagonal", "square", "triangular")}
    results = lattice_comparison(dims, P)
    assert len(results["hexagonal"].unstable_modes) == 0
    assert len(results["square"].unstable_modes) == 3
    assert len(results["triangular"].unstable_modes) == 32
    for res in results.values():
        assert res.n_nodes == 110


def test_ensemble_report_deterministic_and_fraction_bounded():
    base = GraphSpec(family="erdos-renyi", n=25, p=0.25)
    sweep = SweepSpec(base=base, swept="p", values=(0.15, 0.3), skt=P,
                      realizations=20, master_seed=4)
    rows_a = ensemble_report(sweep)
    rows_b = ensemble_report(sweep, workers=3)
    for ra, rb in zip(rows_a, rows_b):
        assert np.array_equal(ra.stats.mean, rb.stats.mean)
        assert ra.instability_fraction == rb.instability_fraction
        assert 0.0 <= ra.instability_fraction <= 1.0
        assert ra.stats.realizations == 20


def test_ensemble_counts_the_realizations_with_an_unstable_mode():
    base = GraphSpec(family="erdos-renyi", n=25, p=0.25)
    values = (0.1, 0.2, 0.4)
    rows = ensemble_report(SweepSpec(base=base, swept="p", values=values, skt=P,
                                     realizations=30, master_seed=7))
    report = stability.stability_report(P)
    fractions = []
    for j, value in enumerate(values):
        eigs = ensemble_eigenvalues(dataclasses.replace(base, p=value), 30, derive_seed(7, j))
        fractions.append(sum(1 for row in eigs if classify_modes(row, report)) / 30)
    assert [row.instability_fraction for row in rows] == fractions
    assert 0.0 < fractions[0] < 1.0  # some realizations unstable, some not
    # without cross-diffusion there is no window, and no realization counts
    quiet = ensemble_report(SweepSpec(base=base, swept="p", values=values,
                                      skt=dataclasses.replace(P, d12=0.0), realizations=5))
    assert [(row.instability_fraction, row.mean_spectrum_unstable_count) for row in quiet] == [(0.0, 0)] * 3


def test_ensemble_values_use_independent_seed_streams():
    base = GraphSpec(family="erdos-renyi", n=25, p=0.25)
    one = ensemble_report(SweepSpec(base=base, swept="p", values=(0.25,), skt=P,
                                    realizations=10, master_seed=4))
    two = ensemble_report(SweepSpec(base=base, swept="p", values=(0.3, 0.25), skt=P,
                                    realizations=10, master_seed=4))
    # same value at a different sweep position draws different realizations
    assert not np.array_equal(one[0].stats.mean, two[1].stats.mean)


def test_simulate_and_report_runs_and_metrics(tmp_path):
    out = tmp_path / "run"
    runs = simulate_and_report(
        GraphSpec(family="ring", n=30, k=3),
        P,
        seeds=(0, 1),
        cfg=IntegratorConfig(t_max=40.0, steady_state_tol=1e-30),
        perturbation=1e-2,
        out_dir=str(out),
    )
    assert [r.seed for r in runs] == [0, 1]
    for r in runs:
        assert r.result.t_final == pytest.approx(40.0)
        assert r.metrics.total_u > 0
    assert (out / "report.json").exists()
    assert (out / "spectrum.csv").exists()
    assert (out / "graph.txt").exists()
    assert (out / "manifest.json").exists()
    for seed in (0, 1):
        assert (out / f"seed_{seed}" / "trajectory.csv").exists()
        assert (out / f"seed_{seed}" / "final_state.csv").exists()


def test_simulate_and_report_builds_the_equilibrium_once(monkeypatch):
    # the report's equilibrium is the state the runs are perturbed from
    built = []
    init = stability.Equilibrium.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(stability.Equilibrium, "__init__", counting_init)
    runs = simulate_and_report(GraphSpec(family="ring", n=12, k=2), P, seeds=(0, 1),
                               cfg=IntegratorConfig(t_max=1.0))
    assert len(built) == 1
    assert len(runs) == 2


def test_simulate_and_report_drops_the_dense_laplacian_before_integrating(monkeypatch):
    # the ring n = 400, k = 20 is integrated on BlockLaplacian blocks, so the
    # dense matrix must be freed before the integration starts
    class Started(Exception):
        pass

    built = []

    def tracked_laplacian(g):
        lap = build_laplacian(g)
        built.append(weakref.ref(lap))
        assert isinstance(laplacian_operator(g), BlockLaplacian)
        return lap

    def integrate_batch(field, inits, cfg):
        assert [ref() for ref in built] == [None]
        raise Started

    monkeypatch.setattr(experiments, "build_laplacian", tracked_laplacian)
    monkeypatch.setattr(dynamics, "integrate_batch", integrate_batch)
    with pytest.raises(Started):
        simulate_and_report(GraphSpec(family="ring", n=400, k=20), P, seeds=(0,))


def test_simulate_and_report_rejects_repeated_seeds(tmp_path):
    # each seed's files go to seed_<s>/, so a repeat would overwrite its twin
    out = tmp_path / "out"
    spec = GraphSpec(family="ring", n=12, k=2)
    with pytest.raises(ValueError, match="distinct"):
        simulate_and_report(spec, P, seeds=(3, 3), cfg=IntegratorConfig(t_max=1.0), out_dir=str(out))
    assert not out.exists()


def test_simulate_and_report_single_seed_flat_layout(tmp_path):
    out = tmp_path / "single"
    simulate_and_report(
        GraphSpec(family="ring", n=20, k=2),
        P,
        seeds=(7,),
        cfg=IntegratorConfig(t_max=5.0, steady_state_tol=1e-30),
        out_dir=str(out),
    )
    assert (out / "trajectory.csv").exists()
    assert (out / "final_state.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["u_star"] == 1.625
    assert report["runs"][0]["seed"] == 7


def test_simulate_and_report_outputs_reproducible(tmp_path):
    kw = dict(
        skt=P,
        seeds=(3,),
        cfg=IntegratorConfig(t_max=5.0, steady_state_tol=1e-30),
        perturbation=1e-2,
    )
    spec = GraphSpec(family="ring", n=15, k=2)
    simulate_and_report(spec, out_dir=str(tmp_path / "a"), **kw)
    simulate_and_report(spec, out_dir=str(tmp_path / "b"), **kw)
    for name in ("report.json", "trajectory.csv", "final_state.csv", "manifest.json", "spectrum.csv", "graph.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_report_json_run_counters(tmp_path):
    kw = dict(skt=P, seeds=(0, 4), cfg=IntegratorConfig(t_max=30.0, steady_state_tol=1e-30))
    spec = GraphSpec(family="ring", n=20, k=3)
    reports = []
    for name in ("a", "b"):
        runs = simulate_and_report(spec, out_dir=str(tmp_path / name), **kw)
        report = json.loads((tmp_path / name / "report.json").read_text())
        for run, entry in zip(runs, report["runs"], strict=True):
            assert entry["steps_accepted"] == run.result.steps_accepted
            assert entry["steps_rejected"] == run.result.steps_rejected
            assert entry["rhs_evaluations"] == run.result.rhs_evaluations > 0
            assert entry["final_residual"] == run.result.final_residual > 0
            assert entry["positivity_clamps"] == run.result.positivity_clamps == 0
            assert entry["min_state"] == run.result.min_state > 0
        reports.append(report["runs"])
    assert reports[0] == reports[1]


def test_manifest_contents():
    doc = run_manifest(GraphSpec(family="ring", n=10, k=2), skt=P, master_seed=5, extra={"command": "test"})
    assert list(doc) == ["graph", "skt", "master_seed", "command"]
    assert doc["graph"]["family"] == "ring"
    assert doc["skt"]["r1"] == 5.0
    assert doc["master_seed"] == 5
    assert doc["command"] == "test"
    # manifests must be replayable: no wall-clock or host fields
    assert "timestamp" not in doc and "host" not in doc


@pytest.mark.parametrize("given, names", [
    (("graph",), ["graph.txt", "manifest.json"]),
    (("eigenvalues", "graph"), ["spectrum.csv", "graph.txt", "manifest.json"]),
    (("report", "eigenvalues"), ["report.json", "spectrum.csv", "manifest.json"]),
], ids=["graph-gen", "spectrum", "stability"])
def test_write_run_returns_its_files_in_write_order(tmp_path, given, names):
    g = build_graph(GraphSpec(family="ring", n=10, k=2))
    parts = {"graph": g, "eigenvalues": eig_symmetric(build_laplacian(g)), "report": {"unstable_modes": []}}
    out = tmp_path / "run"
    files = write_run(str(out), {"command": "test"}, **{key: parts[key] for key in given})
    assert files == names
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    assert json.loads((out / "manifest.json").read_text()) == {"command": "test"}


def test_write_ring_sweep_files(tmp_path):
    base = GraphSpec(family="ring", n=20, k=2)
    sweep = SweepSpec(base=base, swept="k", values=(2, 3), skt=P)
    rows = ring_sweep(sweep)
    write_ring_sweep(rows, str(tmp_path))
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == "value,n,k,lambda_star,lambda_star_1,lambda_star_2,unstable_count"
    assert len(summary) == 3
    spectra_lines = (tmp_path / "spectra.csv").read_text().splitlines()
    assert spectra_lines[0] == "value,n,k,index,eigenvalue"
    assert len(spectra_lines) == 1 + 2 * 20


def test_write_lattice_comparison_files(tmp_path):
    results = lattice_comparison({"square": (4, 5), "hexagonal": (4, 5)}, P)
    write_lattice_comparison(results, str(tmp_path))
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert lines[0] == "kind,rows,cols,n_nodes,unstable_count"
    assert len(lines) == 3


def test_write_ensemble_report_files(tmp_path):
    base = GraphSpec(family="regular-random", n=20, k=4)
    sweep = SweepSpec(base=base, swept="k", values=(4, 6), skt=P,
                      realizations=5, master_seed=0)
    rows = ensemble_report(sweep)
    write_ensemble_report(sweep, rows, str(tmp_path))
    ens = (tmp_path / "ensemble.csv").read_text().splitlines()
    assert ens[0] == "value,index,mean,variance,realizations"
    assert len(ens) == 1 + 2 * 20
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    # degree-type sweep: both the raw degree and the half-degree convention
    assert summary[0] == "k,k_half,instability_fraction,mean_spectrum_unstable_count"
    assert summary[1].startswith("4,2,")
