"""End-to-end CLI behavior through main(), and in a subprocess where the
process's own standard streams are under test."""
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crossnet import (
    build_graph,
    derive_seed,
    equilibrium,
    pattern_metrics,
    perturb_homogeneous,
    simulate_skt,
)
from crossnet import cli
from crossnet.cli import main
from crossnet.config import load_config
from conftest import assert_no_child_left

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_config_dump_is_valid_json_with_all_blocks(capsys):
    code, out = run_cli(capsys, "config", "dump")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"graph", "skt", "integrator", "experiment", "output_dir", "master_seed"}


def test_config_dump_round_trip_gives_identical_dump(capsys, tmp_path):
    code, out = run_cli(capsys, "config", "dump", "--set", "graph.k=7", "--master-seed", "5")
    assert code == 0
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(out)
    code, out2 = run_cli(capsys, "config", "dump", "--config", str(cfg_file))
    assert code == 0
    assert out2 == out


def test_graph_gen_writes_edge_list(capsys, tmp_path):
    out_dir = str(tmp_path / "g")
    code, out = run_cli(
        capsys, "graph", "gen", "--output-dir", out_dir,
        "--set", "graph.family=ring", "--set", "graph.n=6", "--set", "graph.k=1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n_nodes"] == 6
    assert payload["n_edges"] == 6
    text = (tmp_path / "g" / "graph.txt").read_text().splitlines()
    assert text[0] == "6"
    assert len(text) == 7
    manifest = json.loads((tmp_path / "g" / "manifest.json").read_text())
    assert manifest["graph"]["family"] == "ring"


def test_spectrum_command(capsys, tmp_path):
    out_dir = str(tmp_path / "s")
    code, out = run_cli(
        capsys, "spectrum", "--output-dir", out_dir,
        "--set", "graph.family=path", "--set", "graph.n=4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["min_eigenvalue"] == pytest.approx(0.0, abs=1e-12)
    lines = (tmp_path / "s" / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 5


def test_stability_command_benchmark(capsys, tmp_path):
    out_dir = str(tmp_path / "st")
    code, out = run_cli(capsys, "stability", "--output-dir", out_dir)
    assert code == 0
    payload = json.loads(out)
    assert payload["unstable_modes"] == [5, 6, 7, 8, 9, 10]
    report = json.loads((tmp_path / "st" / "report.json").read_text())
    assert report["u_star"] == 1.625
    assert report["trace_J"] == -5.25
    assert report["lambda_star_1"] == pytest.approx(7.302604081817508, rel=1e-12)


@pytest.mark.parametrize("d12, window", [
    # a scan grid point lands on the root, where the determinant is exactly zero
    ("2.7300129666666666", (12.0214, 12.1369)),
    ("2.9999900333333334", (7.30267, 18.3146)),
])
def test_stability_reports_a_window_when_the_scan_hits_its_root(capsys, tmp_path, d12, window):
    code, out = run_cli(capsys, "stability", "--set", f"skt.d12={d12}", "--output-dir", str(tmp_path / "st"))
    assert code == 0, out
    payload = json.loads(out)
    assert (payload["lambda_star_1"], payload["lambda_star_2"]) == pytest.approx(window, abs=1e-4)


def test_stability_with_self_diffusion_matches_simulation(capsys, tmp_path):
    # self-diffusion closes the default window; the report must say so and the
    # simulation with the same configuration must relax to the uniform state
    override = "skt.d11=0.5"
    code, _ = run_cli(capsys, "stability", "--output-dir", str(tmp_path / "sd"), "--set", override)
    assert code == 0
    report = json.loads((tmp_path / "sd" / "report.json").read_text())
    assert report["unstable_modes"] == []
    assert report["lambda_star_1"] is None
    cfg, _ = load_config(None, [override, "integrator.steady_state_tol=1e-6"])
    eq = equilibrium(cfg.skt)
    g = build_graph(cfg.graph)
    init = perturb_homogeneous(eq, g.n_nodes, cfg.experiment.perturbation, seed=0)
    res = simulate_skt(cfg.skt, g, [init], cfg.integrator)[0]
    assert res.converged
    assert pattern_metrics(res.final, eq).heterogeneity < 1e-4


def test_simulate_command_and_files(capsys, tmp_path):
    out_dir = str(tmp_path / "sim")
    code, out = run_cli(
        capsys, "simulate", "--output-dir", out_dir,
        "--set", "graph.n=20", "--set", "graph.k=3",
        "--set", "integrator.t_max=20", "--set", "experiment.seeds=[0]",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["runs"][0]["seed"] == 0
    for name in ("trajectory.csv", "final_state.csv", "report.json", "manifest.json", "spectrum.csv", "graph.txt"):
        assert os.path.exists(os.path.join(out_dir, name)), name


def test_simulate_reruns_byte_identical(capsys, tmp_path):
    args = ["simulate", "--set", "graph.n=15", "--set", "graph.k=2", "--set", "integrator.t_max=10"]
    a_dir, b_dir = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--output-dir", a_dir]) == 0
    assert main(args + ["--output-dir", b_dir]) == 0
    capsys.readouterr()
    for name in sorted(os.listdir(a_dir)):
        pa, pb = os.path.join(a_dir, name), os.path.join(b_dir, name)
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            assert fa.read() == fb.read(), name


def test_ensemble_command(capsys, tmp_path):
    out_dir = str(tmp_path / "ens")
    code, out = run_cli(
        capsys, "ensemble", "--output-dir", out_dir,
        "--set", "graph.family=erdos-renyi", "--set", "graph.n=20", "--set", "graph.p=0.3",
        "--set", "experiment.realizations=10", "--set", "experiment.threads=2",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 1
    assert 0.0 <= payload["rows"][0]["instability_fraction"] <= 1.0
    lines = (tmp_path / "ens" / "ensemble.csv").read_text().splitlines()
    assert lines[0] == "value,index,mean,variance,realizations"
    assert len(lines) == 1 + 20


def test_ensemble_sweep(capsys, tmp_path):
    out_dir = str(tmp_path / "sw")
    code, out = run_cli(
        capsys, "ensemble", "--output-dir", out_dir,
        "--set", "graph.family=regular-random", "--set", "graph.n=20", "--set", "graph.k=4",
        "--set", "experiment.sweep_param=k", "--set", "experiment.sweep_values=[4,6]",
        "--set", "experiment.realizations=5",
    )
    assert code == 0
    assert len(json.loads(out)["rows"]) == 2


def test_ensemble_rejects_deterministic_family(capsys, tmp_path):
    code, out = run_cli(
        capsys, "ensemble", "--output-dir", str(tmp_path / "x"),
        "--set", "graph.family=ring", "--set", "graph.n=10", "--set", "graph.k=2",
    )
    assert code == 2
    assert json.loads(out)["error"] == "config"


def test_exit_code_2_on_bad_config(capsys):
    code, out = run_cli(capsys, "spectrum", "--set", "graph.family=unknown")
    assert code == 2
    assert json.loads(out)["error"] == "config"


def test_exit_code_3_on_numerical_domain_error(capsys, tmp_path):
    code, out = run_cli(
        capsys, "stability", "--output-dir", str(tmp_path / "n"),
        "--set", "skt.b1=10", "--set", "skt.b2=10",
    )
    assert code == 3
    assert json.loads(out)["error"] == "numerical"


def test_simulate_accepts_coexistence_state_with_small_density(capsys, tmp_path):
    # r2 = 1.68 gives v* = 0.005, below the default perturbation 0.01; the
    # noise is relative, so the perturbed state is still positive
    out_dir = tmp_path / "small_v"
    code, out = run_cli(
        capsys, "simulate", "--output-dir", str(out_dir),
        "--set", "skt.r2=1.68", "--set", "graph.n=20", "--set", "graph.k=2",
        "--set", "integrator.t_max=50",
    )
    assert code == 0, out
    assert not json.loads((out_dir / "report.json").read_text())["runs"][0]["positivity_violated"]


def test_perturbation_of_one_is_a_config_error(capsys, tmp_path):
    code, out = run_cli(
        capsys, "simulate", "--output-dir", str(tmp_path / "p1"), "--set", "experiment.perturbation=1",
    )
    assert code == 2
    assert json.loads(out)["error"] == "config"


def test_repeated_seeds_are_a_config_error(capsys, tmp_path):
    out_dir = tmp_path / "dup"
    code, out = run_cli(capsys, "simulate", "--output-dir", str(out_dir), "--set", "experiment.seeds=[3,3]")
    assert code == 2
    assert json.loads(out)["error"] == "config"
    assert not out_dir.exists()


_DISCONNECTED = ("--set", "graph.family=erdos-renyi", "--set", "graph.n=30", "--set", "graph.p=0.01",
                 "--set", "graph.require_connected=true")


@pytest.mark.parametrize("args", [
    ("graph", "gen", *_DISCONNECTED),
    ("spectrum", *_DISCONNECTED),
    ("stability", "--set", "skt.b1=4", "--set", "skt.b2=4"),
], ids=["graph-gen", "spectrum", "stability"])
def test_a_numerical_failure_leaves_no_output_directory(capsys, tmp_path, args):
    # the directory is written only once everything is computed
    out_dir = tmp_path / "failed"
    code, out = run_cli(capsys, *args, "--output-dir", str(out_dir))
    assert code == 3, out
    assert json.loads(out)["error"] == "numerical"
    assert not out_dir.exists()


@pytest.mark.parametrize("assignment", [
    "integrator.rel_tol=NaN", "integrator.abs_tol=NaN", "integrator.t_max=NaN",
    "integrator.steady_state_tol=NaN", "integrator.sample_dt=NaN",
    "integrator.rel_tol=Infinity", "integrator.abs_tol=Infinity",
    "integrator.steady_state_tol=Infinity", "integrator.sample_dt=Infinity",
])
def test_nan_or_infinite_integrator_setting_is_a_config_error(capsys, tmp_path, assignment):
    # max_steps=50 keeps the run short where the setting is wrongly accepted
    out_dir = tmp_path / "nan"
    code, out = run_cli(capsys, "simulate", "--output-dir", str(out_dir),
                        "--set", assignment, "--set", "integrator.max_steps=50")
    assert code == 2, out
    assert json.loads(out)["error"] == "config"
    assert not out_dir.exists()


_ER = ("--set", "graph.family=erdos-renyi", "--set", "graph.n=20", "--set", "graph.p=0.2")


@pytest.mark.parametrize("command, key, args", [
    ("spectrum", "n", ("--set", "graph.n=100.0")),
    ("spectrum", "rows", ("--set", "graph.family=square-lattice", "--set", "graph.rows=3.0", "--set", "graph.cols=4")),
    ("ensemble", "realizations", (*_ER, "--set", "experiment.realizations=2.5")),
    ("spectrum", "k", ("--set", "graph.k=2.5")),
    ("simulate", "seeds[0]", ("--set", "experiment.seeds=[0.5]", "--set", "integrator.max_steps=50")),
    ("ensemble", "threads", (*_ER, "--set", "experiment.threads=1.5", "--set", "experiment.realizations=5")),
    ("ensemble", "realizations", (*_ER, "--set", "experiment.realizations=true")),
    ("stability", "d12", ("--set", "skt.d12=true")),
    ("spectrum", "master_seed", ("--set", "master_seed=true")),
    ("stability", "r1", ("--set", "skt.r1=abc")),
    ("simulate", "seeds[0]", ("--set", "experiment.seeds=[-1]", "--set", "integrator.max_steps=50")),
    ("ensemble", "sweep_values[1]", (*_ER, "--set", "experiment.sweep_param=n",
                                     "--set", "experiment.sweep_values=[20,30.5]", "--set", "experiment.realizations=5")),
    ("spectrum", "require_connected", (*_ER, "--set", "graph.require_connected=1")),
    ("simulate", "seeds", ("--set", "experiment.seeds=[]")),
    ("ensemble", "sweep_param", (*_ER, "--set", "experiment.sweep_param=q", "--set", "experiment.sweep_values=[1]")),
    ("ensemble", "sweep_values", (*_ER, "--set", "experiment.sweep_param=n", "--set", "experiment.sweep_values=[]")),
    ("ensemble", "threads", (*_ER, "--set", "experiment.threads=0", "--set", "experiment.realizations=5")),
    ("simulate", "steady_state_tol", ("--set", "integrator.steady_state_tol=-1", "--set", "integrator.max_steps=50")),
])
def test_mistyped_setting_is_a_config_error_naming_its_key(capsys, tmp_path, command, key, args):
    # booleans are not numbers, integer keys take no fractional values, seeds
    # are unsigned 64-bit, every swept value must make a valid graph, and
    # lists, choices and ranges are checked as well
    out_dir = tmp_path / "typed"
    code, out = run_cli(capsys, command, "--output-dir", str(out_dir), *args)
    assert code == 2, out
    assert json.loads(out)["error"] == "config"
    assert f"{key} must be" in json.loads(out)["message"]
    assert not out_dir.exists()


@pytest.mark.parametrize("doc, args, message", [
    (None, ("--set", "foo.bar=1"), "unknown config block 'foo'"),
    (None, ("--set", "output_dir=5"), "output_dir must be a string, got 5"),
    ([], (), "top level must be a JSON object"),
    ({"graph": 3}, (), "block 'graph' must be a JSON object"),
])
def test_unknown_block_or_malformed_config_is_a_config_error(capsys, tmp_path, monkeypatch, doc, args, message):
    # no --output-dir: the configured output_dir is the one in use
    monkeypatch.chdir(tmp_path)
    if doc is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        args = ("--config", "cfg.json", *args)
    code, out = run_cli(capsys, "spectrum", *args)
    assert code == 2, out
    assert json.loads(out)["error"] == "config"
    assert message in json.loads(out)["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if doc is None else ["cfg.json"])


@pytest.mark.parametrize("args", [
    ("graph", "gen", "--set", "graph.k=60"),
    ("graph", "gen", "--set", "graph.family=path", "--set", "graph.n=1", "--set", "graph.k=null"),
    ("graph", "gen", "--set", "graph.family=regular-random", "--set", "graph.n=5", "--set", "graph.k=3"),
    ("graph", "gen", "--set", "graph.family=watts-strogatz", "--set", "graph.n=10", "--set", "graph.k=5",
     "--set", "graph.p=0.1"),
    ("spectrum", "--set", "graph.family=barabasi-albert", "--set", "graph.n=5", "--set", "graph.k=5"),
])
def test_family_parameters_that_make_no_graph_are_a_config_error(capsys, tmp_path, args):
    out_dir = tmp_path / "graph"
    code, out = run_cli(capsys, *args, "--output-dir", str(out_dir))
    assert code == 2, out
    assert json.loads(out)["error"] == "config"
    assert "requires" in json.loads(out)["message"]
    assert not out_dir.exists()


def test_a_swept_value_that_makes_no_graph_is_a_config_error_naming_its_index(capsys, tmp_path):
    code, out = run_cli(
        capsys, "ensemble", "--output-dir", str(tmp_path / "sweep"),
        "--set", "graph.family=watts-strogatz", "--set", "graph.k=3", "--set", "graph.p=0.1",
        "--set", "experiment.sweep_param=n", "--set", "experiment.sweep_values=[20,6]",
    )
    assert code == 2, out
    assert json.loads(out)["message"].startswith("sweep_values[1] must be a valid n: watts-strogatz requires")


def test_seed_files_do_not_depend_on_the_other_seeds_of_the_command(capsys, tmp_path):
    # the seeds of one command are integrated as one batch
    args = ["simulate", "--set", "graph.n=20", "--set", "graph.k=3", "--set", "integrator.t_max=20"]
    alone, batch = tmp_path / "alone", tmp_path / "batch"
    assert main(args + ["--set", "experiment.seeds=[1]", "--output-dir", str(alone)]) == 0
    assert main(args + ["--set", "experiment.seeds=[0,1,2]", "--output-dir", str(batch)]) == 0
    capsys.readouterr()
    for name in ("trajectory.csv", "final_state.csv"):
        assert (alone / name).read_bytes() == (batch / "seed_1" / name).read_bytes(), name
    runs = json.loads((batch / "report.json").read_text())["runs"]
    assert [r["seed"] for r in runs] == [0, 1, 2]
    assert json.loads((alone / "report.json").read_text())["runs"] == [runs[1]]


def test_a_failing_seed_fails_the_command_with_no_files(capsys, tmp_path):
    # tolerances this loose make every seed's step size underflow; the command
    # reports the error of its first seed, as integrating seed by seed would
    args = ["simulate", "--set", "graph.n=20", "--set", "graph.k=2",
            "--set", "integrator.rel_tol=0.5", "--set", "integrator.abs_tol=0.5"]
    first_dir, all_dir = tmp_path / "first", tmp_path / "all"
    code, first = run_cli(capsys, *args, "--set", "experiment.seeds=[0]", "--output-dir", str(first_dir))
    assert code == 3
    code, out = run_cli(capsys, *args, "--set", "experiment.seeds=[0,1,2,3]", "--output-dir", str(all_dir))
    assert code == 3
    assert json.loads(out) == json.loads(first)
    assert json.loads(out)["error"] == "numerical"
    assert not all_dir.exists() or not any(all_dir.iterdir())


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _per_worker_count(capsys, tmp_path, args, counts, expected_code):
    """Stdout, the output directory masked, and files (None for no directory)
    of ``args``; identical at each ``experiment.threads`` in ``counts``, each
    exiting ``expected_code`` and leaving no worker process behind."""
    runs = []
    for threads in counts:
        out_dir = tmp_path / f"threads{threads}"
        code, out = run_cli(capsys, *args, "--set", f"experiment.threads={threads}", "--output-dir", str(out_dir))
        assert code == expected_code, out
        assert_no_child_left()
        runs.append((out.replace(str(out_dir), "OUT"), _tree(out_dir) if out_dir.exists() else None))
    assert all(run == runs[0] for run in runs)
    return runs[0]


def test_simulate_files_do_not_depend_on_the_number_of_workers(capsys, tmp_path):
    args = ["simulate", "--set", "graph.n=20", "--set", "graph.k=3", "--set", "integrator.t_max=20",
            "--set", "experiment.seeds=[4,0,2]"]
    _, tree = _per_worker_count(capsys, tmp_path, args, (1, 2), 0)
    assert "seed_2/trajectory.csv" in tree
    assert b"threads" not in tree["manifest.json"]


def test_ensemble_files_do_not_depend_on_the_number_of_workers(capsys, tmp_path):
    args = ["ensemble", *_ER, "--set", "experiment.sweep_param=p", "--set", "experiment.sweep_values=[0.2,0.4]",
            "--set", "experiment.realizations=7"]
    _, tree = _per_worker_count(capsys, tmp_path, args, (1, 2, 3), 0)
    assert set(tree) == {"ensemble.csv", "summary.csv", "manifest.json"}
    assert b"threads" not in tree["manifest.json"]


def test_a_failing_seed_fails_the_same_way_with_workers(capsys, tmp_path):
    args = ["simulate", "--set", "graph.n=20", "--set", "graph.k=2", "--set", "experiment.seeds=[0,1,2,3]",
            "--set", "integrator.rel_tol=0.5", "--set", "integrator.abs_tol=0.5"]
    _, tree = _per_worker_count(capsys, tmp_path, args, (1, 2, 3), 3)
    assert tree is None


def test_a_failing_realization_fails_the_same_way_with_workers(capsys, tmp_path):
    # realizations 3 and 5 of the six find no connected draw; both lie in
    # forked slices at two and at three workers
    args = ["ensemble", "--set", "graph.family=erdos-renyi", "--set", "graph.n=12", "--set", "graph.p=0.1",
            "--set", "graph.require_connected=true", "--set", "experiment.realizations=6", "--master-seed", "28"]
    out, tree = _per_worker_count(capsys, tmp_path, args, (1, 2, 3), 3)
    assert tree is None
    seed = derive_seed(derive_seed(28, 0), 3)
    assert json.loads(out) == {"error": "numerical",
                               "message": f"no connected erdos-renyi realization in 100 attempts (seed {seed})"}


def test_default_workers_count_the_cpus_this_process_may_run_on(monkeypatch):
    unset, three = load_config(None, [])[0], load_config(None, ["experiment.threads=3"])[0]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._workers(unset) == 1
    assert cli._workers(three) == 3
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    assert cli._workers(unset) == 8
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._workers(unset) == 1


def test_a_run_that_did_not_converge_says_so_on_stderr(capsys, tmp_path):
    args = ["simulate", "--set", "graph.n=30", "--set", "graph.k=3", "--set", "experiment.seeds=[0,1]"]
    code = main([*args, "--set", "integrator.t_max=5", "--output-dir", str(tmp_path / "t")])
    captured = capsys.readouterr()
    assert code == 0
    runs = json.loads(captured.out)["runs"]
    assert captured.err.splitlines() == [
        f"seed {r['seed']}: t_max at t = 5, residual {r['final_residual']:.1e} > steady_state_tol 1e-09"
        for r in runs
    ]
    code = main([*args, "--set", "integrator.max_steps=3", "--output-dir", str(tmp_path / "m")])
    captured = capsys.readouterr()
    assert code == 0
    assert [line.split(" at t = ")[0] for line in captured.err.splitlines()] == ["seed 0: max_steps",
                                                                              "seed 1: max_steps"]
    # a run that converges prints nothing there
    code = main(["simulate", "--set", "skt.d11=0.5", "--set", "skt.d22=0.2", "--set", "graph.n=30",
                 "--set", "graph.k=3", "--output-dir", str(tmp_path / "c")])
    captured = capsys.readouterr()
    assert code == 0 and json.loads(captured.out)["runs"][0]["converged"]
    assert captured.err == ""


def test_exit_code_4_on_io_error(capsys):
    code, out = run_cli(capsys, "graph", "gen", "--output-dir", "/proc/definitely/not/writable")
    assert code == 4
    assert json.loads(out)["error"] == "io"


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_exits_4_without_a_traceback(tmp_path, unbuffered):
    # the reader of stdout is gone before the command prints its summary;
    # buffered, the summary would first fail in the flush at exit
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(README.parent / "src"), PYTHONUNBUFFERED=unbuffered)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "crossnet.cli", "stability", "--output-dir", str(tmp_path / "s")],
            stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 4
    assert proc.stderr == ""
    assert {p.name for p in (tmp_path / "s").iterdir()} == {"report.json", "spectrum.csv", "manifest.json"}


def test_spectrum_csv_does_not_depend_on_the_blas_threads(tmp_path):
    # fresh processes, since OpenBLAS reads OPENBLAS_NUM_THREADS when it loads;
    # unpinned, eigvalsh wrote 459 of these 500 eigenvalues differently
    argv = ["spectrum", "--set", "graph.family=erdos-renyi", "--set", "graph.n=500", "--set", "graph.p=0.05"]
    texts = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=str(README.parent / "src"), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "crossnet.cli", *argv, "--output-dir", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        texts.append((out / "spectrum.csv").read_text())
    assert texts[0] == texts[1]


def test_exit_code_4_on_missing_config_file(capsys, tmp_path):
    code, out = run_cli(capsys, "config", "dump", "--config", str(tmp_path / "missing.json"))
    assert code == 4
    assert json.loads(out)["error"] == "io"


def test_default_simulate_converges(capsys, tmp_path):
    code, out = run_cli(capsys, "simulate", "--output-dir", str(tmp_path / "sim"))
    assert code == 0
    run = json.loads((tmp_path / "sim" / "report.json").read_text())["runs"][0]
    assert run["reason"] == "steady_state" and run["converged"] is True
    assert run["final_residual"] <= 1e-9
    assert run["t_stiff"] is not None and run["t_stiff"] < run["t_converged"]
    assert json.loads(out)["runs"][0]["final_residual"] == run["final_residual"]


def test_decaying_simulation_converges_to_the_homogeneous_state(capsys, tmp_path):
    # self-diffusion this strong leaves no unstable mode: the pattern decays
    code, _ = run_cli(capsys, "simulate", "--output-dir", str(tmp_path / "sim"), "--set", "skt.d11=0.5",
                      "--set", "skt.d22=0.2", "--set", "graph.n=30", "--set", "graph.k=3")
    assert code == 0
    report = json.loads((tmp_path / "sim" / "report.json").read_text())
    assert report["unstable_modes"] == []
    run = report["runs"][0]
    assert run["reason"] == "steady_state"
    assert run["metrics"]["heterogeneity"] < 1e-6


def test_a_run_that_is_never_stiff_stays_with_dormand_prince(capsys, tmp_path):
    # the stiffness test does not fire before t = 5; these are the figures of
    # the Dormand-Prince integrator alone
    code, out = run_cli(capsys, "simulate", "--output-dir", str(tmp_path / "sim"), "--set", "integrator.t_max=5")
    assert code == 0
    run = json.loads((tmp_path / "sim" / "report.json").read_text())["runs"][0]
    assert run["t_stiff"] is None
    assert (run["reason"], run["steps_accepted"], run["steps_rejected"], run["rhs_evaluations"]) == ("t_max", 53, 0, 320)
    assert run["final_residual"] == 0.0004415516398622657
    assert run["metrics"]["heterogeneity"] == 0.009317132438511427


def test_simulate_summary_says_why_a_run_did_not_converge(capsys, tmp_path):
    out_dir = tmp_path / "sim"
    code, out = run_cli(
        capsys, "simulate", "--output-dir", str(out_dir),
        "--set", "graph.n=30", "--set", "graph.k=3", "--set", "integrator.t_max=5",
    )
    assert code == 0
    run = json.loads(out)["runs"][0]
    assert run["converged"] is False
    assert run["reason"] == "t_max"
    assert run["final_residual"] > load_config()[0].integrator.steady_state_tol
    report = json.loads((out_dir / "report.json").read_text())
    assert report["runs"][0]["final_residual"] == run["final_residual"]


def test_master_seed_flag_equivalent_to_set(capsys, tmp_path):
    code, out_flag = run_cli(capsys, "config", "dump", "--master-seed", "11")
    code2, out_set = run_cli(capsys, "config", "dump", "--set", "master_seed=11")
    assert code == code2 == 0
    assert out_flag == out_set


def _readme_examples() -> list[list[str]]:
    block = README.read_text().split("Examples:\n\n```\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(ln) for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]


@pytest.mark.parametrize(
    "argv", _readme_examples(), ids=lambda argv: "-".join(a for a in argv[1:3] if not a.startswith("-"))
)
def test_readme_example_runs(argv, capsys, tmp_path):
    assert argv[0] == "crossnet"
    args = argv[1:]
    args[args.index("--output-dir") + 1] = str(tmp_path / "out")
    if args[0] == "ensemble":
        args += ["--set", "experiment.realizations=20"]
    assert main(args) == 0, capsys.readouterr().out


def test_swept_key_needs_no_base_value(capsys, tmp_path):
    # the README ER sweep gives no base graph.p; it must match the run with
    # graph.p set to the first swept value, file for file
    (readme,) = [argv[1:] for argv in _readme_examples() if argv[1] == "ensemble"]
    assert not any(a.startswith("graph.p=") for a in readme)
    out = readme.index("--output-dir") + 1
    args = readme + ["--set", "experiment.realizations=20"]
    args[out] = str(tmp_path / "bare")
    assert main(args) == 0
    args[out] = str(tmp_path / "base")
    assert main(args + ["--set", "graph.p=0.1"]) == 0
    capsys.readouterr()
    for name in ("ensemble.csv", "summary.csv", "manifest.json"):
        assert (tmp_path / "bare" / name).read_bytes() == (tmp_path / "base" / name).read_bytes(), name


def test_sweeping_a_key_the_family_does_not_take_is_a_config_error(capsys, tmp_path):
    code, out = run_cli(
        capsys, "ensemble", "--output-dir", str(tmp_path / "x"),
        "--set", "graph.family=erdos-renyi", "--set", "graph.n=20", "--set", "graph.p=0.2",
        "--set", "experiment.sweep_param=k", "--set", "experiment.sweep_values=[2,3]",
    )
    assert code == 2
    assert json.loads(out) == {"error": "config", "message": "erdos-renyi does not take k"}
