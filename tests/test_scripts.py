"""The example scripts under scripts/, run as a user would run them."""
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
    ("random_graph_ensembles.py", ("--family", "erdos-renyi", "--realizations", "3", "--n", "20")),
])
def test_script_writes_the_files_it_names(tmp_path, name, args):
    proc = run_script(tmp_path, name, *args)
    assert proc.returncode == 0, proc.stderr
    named = re.findall(r"^wrote (\S+) and (\S+)$", proc.stdout, flags=re.MULTILINE)
    assert named
    for path in (p for pair in named for p in pair):
        assert Path(path).is_file() and Path(path).stat().st_size > 0, path


def test_pattern_simulations_rejects_too_small_n(tmp_path):
    proc = run_script(tmp_path, "pattern_simulations.py", "--n", "30", "--t-max", "5")
    assert proc.returncode == 2
    assert "at least 41" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []
