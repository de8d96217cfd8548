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

The default ``simulate`` runs at n = 100 and at n = 1000
(``simulate-default``, ``simulate-default-n1000``).  The counters of a
``simulate`` row include the data rows and bytes of its ``trajectory.csv``
files, summed over the seeds.  The six-seed ring400 ``simulate`` and the
README ER ensemble sweep are the ``simulate-ring400`` and
``ensemble-er100`` workloads of ``perfbench/`` at workload seed 0, taken
from ``perfbench/workloads.py``.  The ring400
command runs twice, on its default workers (one forked process per CPU this
process may run on, at most one per seed) and with
``experiment.threads=1``; ``ru_maxrss`` of ``os.wait4`` covers the reaped
workers too, as the largest single peak, not a sum.  The row
``parallel-efficiency-ring400`` runs the two once more, in five
fresh-process pairs whose first run alternates between them, so that a
phase of the host's load falls on both runs of a pair; it records the
speed-up of the default over one worker as the median of the pairwise
ratios, with their quartiles, and that median divided by the number of
workers.  The ER sweep runs on one worker, as the workload
pins it, and on the default workers (``ensemble-er100-workers``), and an
Erdos-Renyi ensemble with n = 1000, p = 0.05 and 24 realizations runs on
the default workers (``ensemble-er1000-workers``).  ``graph gen`` and
``spectrum`` run on one Erdos-Renyi graph with n = 4000, p = 0.01
(``graph-gen-er4000``, ``spectrum-er4000``), whose peaks show what the
graph costs beside the dense Laplacian.

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
  graph, in milliseconds;
- ``build_graph`` at seed 0 for each random family at n = 100, 1000 and
  4000, in milliseconds: Erdos-Renyi with p = 0.01, Watts-Strogatz with
  k = 15 and p = 0.1, regular-random with k = 8 and Barabasi-Albert with
  k = 3; the row records the edge count;
- each table writer at n = 100, 1000 and 4000, in milliseconds per file
  (each batch's and the best), on the ring with k = 10:
  ``write_trajectory_csv`` of 64 samples, ``write_final_state_csv``,
  ``write_spectrum_csv`` of the ring's spectrum and ``write_edge_list``,
  and ``write_edge_list`` again on the Erdos-Renyi graph with n = 4000,
  p = 0.01 and seed 0; the row records the file's bytes.

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
import types
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
GRAPH_SIZES = (100, 1000, 4000)
WRITER_SIZES = (100, 1000, 4000)
TRAJECTORY_SAMPLES = 64
EFFICIENCY_PAIRS = 5
GRAPH_FAMILIES = {
    "erdos-renyi": {"p": 0.01},
    "watts-strogatz": {"k": 15, "p": 0.1},
    "regular-random": {"k": 8},
    "barabasi-albert": {"k": 3},
}

# the ring400 and ER ensemble commands are the benchmark's own, at workload seed 0
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

RING400 = WORKLOADS["simulate-ring400"].argv(0)
ER100 = WORKLOADS["ensemble-er100"].argv(0)
ONE_WORKER = ["--set", "experiment.threads=1"]
ER4000 = ["--set", "graph.family=erdos-renyi", "--set", "graph.n=4000", "--set", "graph.p=0.01"]


def _unpinned(argv: list[str]) -> list[str]:
    """``argv`` without an ``experiment.threads=1``, so on the default workers."""
    out = list(argv)
    if ONE_WORKER[1] in out:
        i = out.index(ONE_WORKER[1])
        del out[i - 1:i + 1]
    return out


COMMANDS = {
    "simulate-default": ["simulate"],
    "simulate-default-n1000": ["simulate", "--set", "graph.n=1000"],
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
    "graph-gen-er4000": ["graph", "gen", *ER4000],
    "spectrum-er4000": ["spectrum", *ER4000],
}

_CLI = "import sys; from crossnet.cli import main; sys.exit(main())"


def _data_rows(path: Path) -> int:
    """Lines of the CSV file ``path`` below its header."""
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


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
            trajectories = sorted(out.rglob("trajectory.csv"))
            found["trajectory_rows"] = sum(_data_rows(path) for path in trajectories)
            found["trajectory_bytes"] = sum(path.stat().st_size for path in trajectories)
        return found
    manifest = json.loads((out / "manifest.json").read_text())
    if "realizations" in manifest:
        return {"realizations": manifest["realizations"] * len(manifest["values"])}
    return {"n_edges": manifest["n_edges"]}


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


def efficiency_row(default: list[str], one_worker: list[str], pairs: int = EFFICIENCY_PAIRS) -> dict:
    """Speed-up and parallel efficiency of the six-seed ring400 command
    ``default`` on its default workers (one per CPU it may run on, at most one
    per seed) against ``one_worker``, the same command on one worker: the
    median and quartiles of the wall ratios of ``pairs`` fresh-process pairs,
    the first run of each pair alternating between the two commands."""
    commands = {"default": default, "one": one_worker}
    speedups = []
    for i in range(pairs):
        runs = {side: run_once(commands[side]) for side in (("default", "one") if i % 2 == 0 else ("one", "default"))}
        speedups.append(runs["one"][0] / runs["default"][0])
    seeds = runs["default"][2]["runs"]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, seeds)
    q1, _, q3 = statistics.quantiles(speedups, n=4, method="inclusive")
    speedup = statistics.median(speedups)
    return {"name": "parallel-efficiency-ring400", "workers": workers, "pairs": pairs, "speedups": speedups,
            "speedup": speedup, "speedup_quartiles": [q1, q3], "efficiency": speedup / workers}


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


def _runs_s(call, repeats: int) -> list[float]:
    """Seconds per call in each of ``repeats`` batches of calls that each take >= 0.2 s."""
    timer = timeit.Timer(call)
    number, _ = timer.autorange()
    return [seconds / number for seconds in timer.repeat(repeat=repeats, number=number)]


def _best_s(call, repeats: int) -> float:
    return min(_runs_s(call, repeats))


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


def graph_row(family: str, n: int, repeats: int = REPEATS, **params) -> dict:
    """Milliseconds of ``build_graph`` for the random ``family`` at ``n`` nodes and seed 0."""
    _import_src()
    from crossnet.graphs import GraphSpec, build_graph

    spec = GraphSpec(family=family, n=n, seed=0, **params)
    return {
        "name": f"graph-{family}-n{n}",
        "family": family,
        "n": n,
        **params,
        "n_edges": build_graph(spec).n_edges,
        "ms": _best_s(lambda: build_graph(spec), repeats) * 1e3,
    }


def writer_row(name: str, write, repeats: int = REPEATS, **info) -> dict:
    """Milliseconds of ``write(path)``, which writes one file anew: each of
    ``repeats`` batches as ``run_ms``, and their best."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table"
        runs = [seconds * 1e3 for seconds in _runs_s(lambda: write(path), repeats)]
        return {"name": name, **info, "bytes": path.stat().st_size, "run_ms": runs, "ms": min(runs)}


def writer_rows(n: int, k: int = RING_K, samples: int = TRAJECTORY_SAMPLES, repeats: int = REPEATS) -> list[dict]:
    """A ``writer_row`` for each table writer on the ring (n, k): a trajectory
    of ``samples`` perturbed coexistence states, the last as the final state,
    the ring's spectrum and its edge list."""
    _import_src()
    from crossnet.dynamics import perturb_homogeneous, write_final_state_csv, write_trajectory_csv
    from crossnet.graphs import gen_ring, write_edge_list
    from crossnet.spectra import ring_spectrum_closed_form, write_spectrum_csv
    from crossnet.stability import DEFAULT_SKT_PARAMS as p, equilibrium

    g = gen_ring(n, k)
    states = np.stack([perturb_homogeneous(equilibrium(p), n, 1e-2, seed) for seed in range(samples)])
    run = types.SimpleNamespace(times=np.linspace(0.0, 100.0, samples), traj=states)
    eigenvalues = ring_spectrum_closed_form(n, k)
    return [
        writer_row(f"write-trajectory-n{n}", lambda path: write_trajectory_csv(run, path), repeats,
                   n=n, samples=samples),
        writer_row(f"write-final-state-n{n}", lambda path: write_final_state_csv(states[-1], path), repeats, n=n),
        writer_row(f"write-spectrum-n{n}", lambda path: write_spectrum_csv(eigenvalues, path), repeats, n=n),
        writer_row(f"write-edge-list-ring-n{n}", lambda path: write_edge_list(g, path), repeats,
                   n=n, n_edges=g.n_edges),
    ]


def er_edge_list_row(n: int = 4000, p: float = 0.01, repeats: int = REPEATS) -> dict:
    """The ``writer_row`` of ``write_edge_list`` on the Erdos-Renyi graph (n, p) at seed 0."""
    _import_src()
    from crossnet.graphs import GraphSpec, build_graph, write_edge_list

    g = build_graph(GraphSpec(family="erdos-renyi", n=n, p=p, seed=0))
    return writer_row(f"write-edge-list-er-n{n}", lambda path: write_edge_list(g, path), repeats,
                      n=n, p=p, n_edges=g.n_edges)


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
    row = efficiency_row(COMMANDS["simulate-ring400"], COMMANDS["simulate-ring400-threads1"])
    print(f"{row['name']:<18} {row['speedup']:8.2f} x (quartiles {row['speedup_quartiles'][0]:.2f}-"
          f"{row['speedup_quartiles'][1]:.2f}) on {row['workers']} workers, efficiency {row['efficiency']:.2f}",
          flush=True)
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
    for family, params in GRAPH_FAMILIES.items():
        for n in GRAPH_SIZES:
            row = graph_row(family, n, **params)
            print(f"{row['name']:<28} {row['ms']:10.2f} ms ({row['n_edges']} edges)", flush=True)
            rows.append(row)
    for row in [r for n in WRITER_SIZES for r in writer_rows(n)] + [er_edge_list_row()]:
        print(f"{row['name']:<28} {row['ms']:10.2f} ms ({row['bytes']} bytes)", flush=True)
        rows.append(row)
    doc = {"label": label, "repeats": REPEATS, "machine": machine(), "source_lines": source_lines(), "rows": rows}
    path = Path(f"BENCH_{label}.json")
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
