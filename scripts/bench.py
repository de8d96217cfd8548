#!/usr/bin/env python3
"""End-to-end timings and peak memory of the crossnet CLI, as BENCH_<label>.json.

Runs each command below three times, each time in a fresh Python process
with the ``crossnet`` of this checkout (``src/``), and records per command:
the wall seconds of each run and their median, each child's peak resident
memory (``ru_maxrss`` from ``os.wait4``) and their median, and the work
counters of its output files, which must repeat exactly.  A fresh process
per run keeps one run's memory peak out of the next.  BLAS runs on one
thread unless ``OPENBLAS_NUM_THREADS`` is set.  The file also records the
numpy and BLAS versions, the CPU count, the CPUs this process may use and
the line counts of ``src/crossnet/*.py``, since timings taken on different
machines, or at different times on a shared one, do not compare.

The six-seed ring400 ``simulate`` and the README ER ensemble sweep are the
``simulate-ring400`` and ``ensemble-er100`` workloads of ``perfbench/`` at
workload seed 0, taken from ``perfbench/workloads.py``.  The ring400
command runs twice, on its default workers (one forked process per CPU this
process may run on, at most one per seed) and with
``experiment.threads=1``; ``ru_maxrss`` of ``os.wait4`` covers the reaped
workers too, as the largest single peak, not a sum.  The row
``parallel-efficiency-ring400`` records the speed-up of the default over
one worker, the ratio of their median walls, and that speed-up divided by
the number of workers.  The ER sweep runs on one worker, as the workload
pins it, and on the default workers (``ensemble-er100-workers``), and an
Erdos-Renyi ensemble with n = 1000, p = 0.05 and 24 realizations runs on
the default workers (``ensemble-er1000-workers``).

In this process it also times, each row the best of three runs:

- one integrator member-step at batch sizes B = 1, 8 and 64: the
  Erdos-Renyi graph with n = 100, p = 0.1 and graph seed 1, on the dense
  Laplacian, t_max = 300, the perturbation seeds 0..B-1 integrated in one
  ``integrate_batch``; the row's value is microseconds divided by the
  accepted and rejected steps summed over the batch;
- one ``dynamics.rhs`` call on B = 1, 6 and 64 perturbed coexistence states
  of a ring with k = 10 and n = 100, 1000 and 4000, once with the dense
  Laplacian and once with the operator ``laplacian_operator`` picks (its
  form is recorded); the row's value is microseconds per state;
- ``laplacian_operator`` on the ring with n = 4000 and k = 10, from its
  graph, in milliseconds.

Usage: ``python3 scripts/bench.py LABEL`` writes ``BENCH_LABEL.json`` in the
current directory.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
from pathlib import Path

# before numpy loads its BLAS; the child processes inherit it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REPEATS = 3
MEMBER_STEP_BATCHES = (1, 8, 64)
RHS_SIZES = (100, 1000, 4000)
RHS_BATCHES = (1, 6, 64)
RING_K = 10

# the ring400 and ER ensemble commands are the benchmark's own, at workload seed 0
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

RING400 = WORKLOADS["simulate-ring400"].argv(0)
ER100 = WORKLOADS["ensemble-er100"].argv(0)
ONE_WORKER = ["--set", "experiment.threads=1"]


def _unpinned(argv: list[str]) -> list[str]:
    """``argv`` without an ``experiment.threads=1``, so on the default workers."""
    out = list(argv)
    if ONE_WORKER[1] in out:
        i = out.index(ONE_WORKER[1])
        del out[i - 1:i + 1]
    return out


COMMANDS = {
    "simulate-default": ["simulate"],
    "simulate-ring400": RING400,
    # the same command on one worker, for the parallel-efficiency row
    "simulate-ring400-threads1": [*RING400, *ONE_WORKER],
    # no mode is unstable, so the perturbation decays; steady at t ~ 39.9
    "simulate-decay": [
        "simulate", "--set", "skt.d11=0.5", "--set", "skt.d22=0.2", "--set", "graph.n=30", "--set", "graph.k=3",
    ],
    "stability": ["stability"],
    "stability-n4000": ["stability", "--set", "graph.n=4000"],
    "ensemble-er100": ER100,
    "ensemble-er100-workers": _unpinned(ER100),
    "ensemble-er1000-workers": [
        "ensemble", "--set", "graph.family=erdos-renyi", "--set", "graph.n=1000", "--set", "graph.p=0.05",
        "--set", "experiment.realizations=24",
    ],
}

_CLI = "import sys; from crossnet.cli import main; sys.exit(main())"


def counters(out: Path) -> dict:
    """Deterministic work counters of one command's output directory."""
    report = out / "report.json"
    if report.is_file():
        doc = json.loads(report.read_text())
        found = {"unstable_modes": len(doc["unstable_modes"] or [])}
        runs = doc.get("runs")
        if runs is not None:
            found["runs"] = len(runs)
            found["converged"] = sum(r["converged"] for r in runs)
            for key in ("steps_accepted", "steps_rejected", "rhs_evaluations"):
                found[key] = sum(r[key] for r in runs)
        return found
    manifest = json.loads((out / "manifest.json").read_text())
    return {"realizations": manifest["realizations"] * len(manifest["values"])}


def run_once(argv: list[str]) -> tuple[float, float, dict]:
    """Wall seconds, peak RSS in MB and work counters of one run in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _CLI, *argv, "--output-dir", str(out)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        output = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv} exited {proc.returncode}: {output.decode().strip()}")
        # ru_maxrss is in kilobytes on Linux
        return wall, usage.ru_maxrss / 1024, counters(out)


def run_row(name: str, argv: list[str], repeats: int = REPEATS) -> dict:
    """One benchmark row: ``repeats`` fresh-process runs of ``crossnet argv``."""
    walls, peaks, seen = [], [], []
    for _ in range(repeats):
        wall, peak, found = run_once(argv)
        walls.append(wall)
        peaks.append(peak)
        seen.append(found)
    if any(found != seen[0] for found in seen):
        raise RuntimeError(f"{name}: work counters differ between runs: {seen}")
    row = {
        "name": name,
        "argv": argv,
        "wall_s": walls,
        "median_wall_s": statistics.median(walls),
        "peak_rss_mb": peaks,
        "median_peak_rss_mb": statistics.median(peaks),
        "counters": seen[0],
    }
    if "realizations" in seen[0]:
        row["realizations_per_s"] = seen[0]["realizations"] / row["median_wall_s"]
    return row


def _import_src() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def efficiency_row(rows: list[dict]) -> dict:
    """Speed-up and parallel efficiency of the six-seed ring400 command on its
    default workers (one per CPU it may run on, at most one per seed) against
    one worker."""
    wall = {row["name"]: row["median_wall_s"] for row in rows}
    seeds = next(row["counters"]["runs"] for row in rows if row["name"] == "simulate-ring400")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, seeds)
    speedup = wall["simulate-ring400-threads1"] / wall["simulate-ring400"]
    return {"name": "parallel-efficiency-ring400", "workers": workers,
            "speedup": speedup, "efficiency": speedup / workers}


def member_step_row(batch: int, n: int = 100, t_max: float = 300.0, repeats: int = REPEATS) -> dict:
    """Microseconds per integrator member-step, best of ``repeats`` in-process runs."""
    _import_src()
    from crossnet.dynamics import IntegratorConfig, integrate_batch, perturb_homogeneous, rhs
    from crossnet.graphs import GraphSpec, build_graph, build_laplacian
    from crossnet.stability import DEFAULT_SKT_PARAMS as p, equilibrium

    lap = build_laplacian(build_graph(GraphSpec(family="erdos-renyi", n=n, p=0.1, seed=1)))
    inits = [perturb_homogeneous(equilibrium(p), n, 1e-2, seed) for seed in range(batch)]
    cfg = IntegratorConfig(t_max=t_max)
    runs, seen = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        results = integrate_batch(lambda y: rhs(y, p, lap), inits, cfg)
        runs.append((time.perf_counter() - start) * 1e6)
        seen.append(sum(r.steps_accepted + r.steps_rejected for r in results))
    if any(steps != seen[0] for steps in seen):
        raise RuntimeError(f"member-step B={batch}: step counts differ between runs: {seen}")
    return {
        "name": f"member-step-B{batch}",
        "batch": batch,
        "n": n,
        "t_max": t_max,
        "member_steps": seen[0],
        "run_us": runs,
        "us_per_member_step": min(runs) / seen[0],
    }


def _best_s(call, repeats: int) -> float:
    """Best seconds per call over ``repeats`` batches of calls that each take >= 0.2 s."""
    timer = timeit.Timer(call)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat=repeats, number=number)) / number


def rhs_row(n: int, batch: int, dense: bool, k: int = RING_K, repeats: int = REPEATS) -> dict:
    """Microseconds per state of one ``rhs`` call on ``batch`` states of the ring (n, k)."""
    _import_src()
    from crossnet.dynamics import perturb_homogeneous, rhs
    from crossnet.graphs import build_laplacian, gen_ring, laplacian_operator
    from crossnet.stability import DEFAULT_SKT_PARAMS as p, equilibrium

    g = gen_ring(n, k)
    op = build_laplacian(g) if dense else laplacian_operator(g)
    y = np.stack([perturb_homogeneous(equilibrium(p), n, 1e-2, seed) for seed in range(batch)])
    return {
        "name": f"rhs-n{n}-B{batch}-{'dense' if dense else 'operator'}",
        "n": n,
        "k": k,
        "batch": batch,
        "form": type(op).__name__,
        "us_per_state": _best_s(lambda: rhs(y, p, op), repeats) / batch * 1e6,
    }


def operator_row(n: int = 4000, k: int = RING_K, repeats: int = REPEATS) -> dict:
    """Milliseconds of ``laplacian_operator`` on the ring (n, k), from its graph."""
    _import_src()
    from crossnet.graphs import gen_ring, laplacian_operator

    g = gen_ring(n, k)
    return {
        "name": f"laplacian-operator-n{n}",
        "n": n,
        "k": k,
        "form": type(laplacian_operator(g)).__name__,
        "ms": _best_s(lambda: laplacian_operator(g), repeats) * 1e3,
    }


def machine() -> dict:
    info = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "1"),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = {key: blas.get(key) for key in ("name", "version")}
    except (TypeError, KeyError):  # numpy too old for the dict form
        info["blas"] = None
    return info


def source_lines() -> dict:
    files = {p.name: len(p.read_text().splitlines()) for p in sorted((SRC / "crossnet").glob("*.py"))}
    return {"total": sum(files.values()), "files": files}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="names the output file BENCH_<label>.json")
    label = parser.parse_args(argv).label
    if not re.fullmatch(r"[A-Za-z0-9._-]+", label):
        parser.error(f"label must be letters, digits, '.', '_' or '-', got {label!r}")
    rows = []
    for name, command in COMMANDS.items():
        row = run_row(name, command)
        print(f"{name:<18} {row['median_wall_s']:8.3f} s {row['median_peak_rss_mb']:8.1f} MB", flush=True)
        rows.append(row)
    row = efficiency_row(rows)
    print(f"{row['name']:<18} {row['speedup']:8.2f} x on {row['workers']} workers, "
          f"efficiency {row['efficiency']:.2f}", flush=True)
    rows.append(row)
    for batch in MEMBER_STEP_BATCHES:
        row = member_step_row(batch)
        print(f"{row['name']:<18} {row['us_per_member_step']:8.1f} us per member-step", flush=True)
        rows.append(row)
    for n in RHS_SIZES:
        for batch in RHS_BATCHES:
            for dense in (True, False):
                row = rhs_row(n, batch, dense)
                print(f"{row['name']:<24} {row['us_per_state']:10.2f} us per state ({row['form']})", flush=True)
                rows.append(row)
    row = operator_row()
    print(f"{row['name']:<24} {row['ms']:10.2f} ms ({row['form']})", flush=True)
    rows.append(row)
    doc = {"label": label, "repeats": REPEATS, "machine": machine(), "source_lines": source_lines(), "rows": rows}
    path = Path(f"BENCH_{label}.json")
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
