"""The example scripts under scripts/, run as a user would run them."""
import importlib.util
import os
import re
import subprocess
import sys
import timeit
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(tmp_path, name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args, "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("name, args", [
    ("ring_sweep.py", ("--n", "30")),
    ("lattice_comparison.py", ("--rows", "3", "--cols", "4")),
    ("random_graph_ensembles.py", ("--family", "erdos-renyi", "--realizations", "3", "--n", "20", "--workers", "2")),
])
def test_script_writes_the_files_it_names(tmp_path, name, args):
    proc = run_script(tmp_path, name, *args)
    assert proc.returncode == 0, proc.stderr
    named = re.findall(r"^wrote (\S+) and (\S+)$", proc.stdout, flags=re.MULTILINE)
    assert named
    for path in (p for pair in named for p in pair):
        assert Path(path).is_file() and Path(path).stat().st_size > 0, path


@pytest.mark.parametrize("name, args, reason", [
    ("pattern_simulations.py", ("--n", "30", "--t-max", "5"), "at least 41"),
    # the default regular-random sweep needs k = 40 < n
    ("random_graph_ensembles.py", ("--n", "20", "--realizations", "3"), "regular-random requires"),
    # no radius fits a ring of two nodes
    ("ring_sweep.py", ("--n", "2"), "ring requires n >= 3"),
    ("ring_sweep.py", ("--k", "0"), "k must be >= 1"),
    ("ring_sweep.py", ("--n", "10", "--k", "5"), "ring requires n >= 3 and 1 <= k <= (n-1)//2"),
    ("lattice_comparison.py", ("--rows", "1"), "lattice requires rows >= 2"),
    ("pattern_simulations.py", ("--seeds", "0", "0"), "seeds must be distinct"),
    ("pattern_simulations.py", ("--perturbation", "2"), "perturbation must be >= 0 and < 1"),
    ("pattern_simulations.py", ("--steady-tol", "-1"), "steady_state_tol must be non-negative"),
    ("random_graph_ensembles.py", ("--family", "erdos-renyi", "--n", "20", "--realizations", "3", "--master-seed", "-1"),
     "master_seed must be an unsigned 64-bit integer, got -1"),
    ("ring_sweep.py", ("--n", "30", "--k", "3", "3"), "values must be distinct, got [3, 3]"),
], ids=["pattern_simulations", "random_graph_ensembles", "ring_sweep-n2", "ring_sweep-k0", "ring_sweep-k5-n10",
        "lattice_comparison-rows1", "pattern_simulations-repeated-seed", "pattern_simulations-perturbation2",
        "pattern_simulations-negative-steady-tol", "random_graph_ensembles-negative-master-seed",
        "ring_sweep-repeated-k"])
def test_script_rejects_too_small_n(tmp_path, name, args, reason):
    proc = run_script(tmp_path, name, *args)
    assert proc.returncode == 2
    assert reason in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_pattern_simulations_writes_every_case(tmp_path):
    proc = run_script(tmp_path, "pattern_simulations.py", "--n", "41", "--seeds", "0", "--t-max", "5")
    assert proc.returncode == 0, proc.stderr
    cases = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert cases == ["ring_k10", "ring_k15", "ring_k20", "smallworld_p0.01", "smallworld_p0.05"]
    for case in cases:
        for name in ("report.json", "trajectory.csv", "final_state.csv"):
            path = tmp_path / "out" / case / name
            assert path.is_file() and path.stat().st_size > 0, path


@pytest.fixture
def one_call_per_batch(monkeypatch):
    """Bench rows time each batch as one call instead of autoranging it to >= 0.2 s."""
    monkeypatch.setattr(timeit.Timer, "autorange", lambda self, callback=None: (1, self.timeit(number=1)))


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_row_runner_on_a_tiny_command():
    bench = load_bench()
    argv = ["simulate", "--set", "graph.n=12", "--set", "graph.k=2", "--set", "integrator.t_max=1"]
    row = bench.run_row("tiny", argv, repeats=2)
    assert row["argv"] == argv
    assert len(row["wall_s"]) == len(row["peak_rss_mb"]) == 2
    assert row["median_wall_s"] > 0 and row["median_peak_rss_mb"] > 0
    counters = row["counters"]
    assert counters["runs"] == 1 and counters["converged"] == 0
    assert counters["rhs_evaluations"] > counters["steps_accepted"] > 0
    assert counters["trajectory_rows"] >= 2 and counters["trajectory_bytes"] > 0
    with pytest.raises(RuntimeError, match="exited 2: .*n must be >= 1"):
        bench.run_once(["simulate", "--set", "graph.n=0"])


def test_bench_counters_sum_the_trajectory_files_over_the_seeds(tmp_path):
    bench = load_bench()
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", bench._CLI, "simulate", "--set", "graph.n=12", "--set", "graph.k=2",
         "--set", "integrator.t_max=2", "--set", "integrator.sample_dt=0.5", "--set", "experiment.seeds=[0,1]",
         "--output-dir", str(out)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    files = [out / f"seed_{seed}" / "trajectory.csv" for seed in (0, 1)]
    counters = bench.counters(out)
    assert counters["runs"] == 2
    assert counters["trajectory_rows"] == sum(len(path.read_text().splitlines()) - 1 for path in files)
    assert counters["trajectory_bytes"] == sum(path.stat().st_size for path in files)
    # per seed the start and the end, and at most one sample per sample_dt grid time
    assert 2 * 2 <= counters["trajectory_rows"] <= 2 * 5


def test_bench_runs_the_default_simulate_at_n1000():
    assert load_bench().COMMANDS["simulate-default-n1000"] == ["simulate", "--set", "graph.n=1000"]


def test_bench_member_step_row_on_a_tiny_batch():
    row = load_bench().member_step_row(2, n=12, t_max=1.0, repeats=2)
    assert row["name"] == "member-step-B2" and row["batch"] == 2
    assert len(row["run_us"]) == 2 and row["member_steps"] > 0
    assert row["us_per_member_step"] == min(row["run_us"]) / row["member_steps"]


def test_bench_row_on_the_real_timing_protocol(monkeypatch):
    autoranged = []
    autorange = timeit.Timer.autorange

    def spy(self, callback=None):
        autoranged.append(autorange(self, callback))
        return autoranged[-1]

    monkeypatch.setattr(timeit.Timer, "autorange", spy)
    row = load_bench().rhs_row(12, 1, dense=True, k=2, repeats=1)
    [(number, seconds)] = autoranged
    # a call of a few microseconds is batched until the batch takes 0.2 s
    assert number > 1 and seconds >= 0.2
    assert 0 < row["us_per_state"] * 1e-6 < seconds / 2


def test_bench_rhs_and_operator_rows_on_a_tiny_ring(one_call_per_batch):
    bench = load_bench()
    dense = bench.rhs_row(12, 2, dense=True, k=2, repeats=2)
    assert dense["name"] == "rhs-n12-B2-dense" and dense["form"] == "ndarray"
    assert dense["batch"] == 2 and dense["us_per_state"] > 0
    picked = bench.rhs_row(12, 2, dense=False, k=2, repeats=2)
    assert picked["name"] == "rhs-n12-B2-operator" and picked["form"] in ("ndarray", "BlockLaplacian")
    row = bench.operator_row(n=400, k=20, repeats=2)
    assert row["name"] == "laplacian-operator-n400" and row["form"] == "BlockLaplacian" and row["ms"] > 0


def test_bench_efficiency_row_compares_the_default_workers_with_one(monkeypatch):
    bench = load_bench()
    tiny = ["simulate", "--set", "graph.n=12", "--set", "graph.k=2", "--set", "integrator.t_max=1",
            "--set", "experiment.seeds=[0,1,2]"]
    one = [*tiny, *bench.ONE_WORKER]
    monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    row = bench.efficiency_row(tiny, one, pairs=2)
    assert row["name"] == "parallel-efficiency-ring400" and row["workers"] == 2 and row["pairs"] == 2
    assert len(row["speedups"]) == 2 and row["speedup"] == sum(row["speedups"]) / 2 > 0
    assert row["efficiency"] == row["speedup"] / 2
    # the first run of a pair alternates; the speed-up is the median pairwise ratio
    calls, walls = [], iter([1.0, 1.5, 1.0, 2.0, 1.0, 3.0, 1.25, 1.0, 0.5, 1.0])

    def run_once(argv):
        calls.append(argv)
        return next(walls), 40.0, {"runs": 6}

    monkeypatch.setattr(bench, "run_once", run_once)
    row = bench.efficiency_row(tiny, one, pairs=5)
    assert calls == [tiny, one, one, tiny, tiny, one, one, tiny, tiny, one]
    assert row["speedups"] == [1.5, 0.5, 3.0, 1.25, 2.0]
    assert row["speedup"] == 1.5 and row["speedup_quartiles"] == [1.25, 2.0]
    assert row["workers"] == 2 and row["efficiency"] == 0.75
    monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: set(range(8)))
    walls = iter([1.0] * 4)
    assert bench.efficiency_row(tiny, one, pairs=2)["workers"] == 6


def test_bench_writer_rows_time_every_table_writer(one_call_per_batch):
    bench = load_bench()
    rows = bench.writer_rows(12, k=2, samples=3, repeats=2)
    assert [row["name"] for row in rows] == [
        "write-trajectory-n12", "write-final-state-n12", "write-spectrum-n12", "write-edge-list-ring-n12"
    ]
    assert all(row["ms"] > 0 and row["n"] == 12 and row["bytes"] > 0 for row in rows)
    assert rows[0]["samples"] == 3 and rows[3]["n_edges"] == 24
    row = bench.er_edge_list_row(n=30, p=1.0, repeats=2)
    assert row["name"] == "write-edge-list-er-n30" and row["n_edges"] == 435
    assert row["bytes"] == len("30\n") + sum(len(f"{i} {j}\n") for i in range(30) for j in range(i + 1, 30))


def test_bench_graph_rows_time_build_graph_and_count_the_edges(one_call_per_batch):
    bench = load_bench()
    assert set(bench.GRAPH_FAMILIES) == {"erdos-renyi", "watts-strogatz", "regular-random", "barabasi-albert"}
    for family, params in bench.GRAPH_FAMILIES.items():
        row = bench.graph_row(family, 40, repeats=2, **params)
        assert row["name"] == f"graph-{family}-n40" and row["ms"] > 0
        assert {key: row[key] for key in params} == params
    row = bench.graph_row("watts-strogatz", 30, repeats=2, k=3, p=0.1)
    assert row["n_edges"] == 90


def test_bench_graph_gen_row_counts_the_edges():
    row = load_bench().run_row("tiny-gen", [
        "graph", "gen", "--set", "graph.family=erdos-renyi", "--set", "graph.n=30", "--set", "graph.p=1",
    ], repeats=2)
    assert row["counters"] == {"n_edges": 435}
    assert len(row["peak_rss_mb"]) == 2 and row["median_peak_rss_mb"] > 0
