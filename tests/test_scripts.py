"""The example scripts under scripts/, run as a user would run them."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_pattern_simulations_rejects_too_small_n(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "pattern_simulations.py"),
         "--n", "30", "--t-max", "5", "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "at least 41" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []
