"""The example scripts under scripts/, run as a user would run them."""
import importlib.util
import os
import re
import subprocess
import sys
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
], ids=["pattern_simulations", "random_graph_ensembles"])
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
    with pytest.raises(RuntimeError, match="exited 2: .*n must be >= 1"):
        bench.run_once(["simulate", "--set", "graph.n=0"])


def test_bench_member_step_row_on_a_tiny_batch():
    row = load_bench().member_step_row(2, n=12, t_max=1.0, repeats=2)
    assert row["name"] == "member-step-B2" and row["batch"] == 2
    assert len(row["run_us"]) == 2 and row["member_steps"] > 0
    assert row["us_per_member_step"] == min(row["run_us"]) / row["member_steps"]


def test_bench_rhs_and_operator_rows_on_a_tiny_ring():
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
    rows = [{"name": "simulate-ring400", "median_wall_s": 1.0, "counters": {"runs": 6}},
            {"name": "simulate-ring400-threads1", "median_wall_s": 1.5, "counters": {"runs": 6}}]
    monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert bench.efficiency_row(rows) == {"name": "parallel-efficiency-ring400", "workers": 2,
                                          "speedup": 1.5, "efficiency": 0.75}
    monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: set(range(8)))
    assert bench.efficiency_row(rows)["workers"] == 6
