"""Benchmark of the crossnet command-line program.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all  [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; crossnet is imported from ``src/``.  Each
workload (see ``workloads.py``) is one real CLI command, called in this
process through ``crossnet.cli.main`` by one caller at a time: a closed loop
with one client.  The command is repeated with fresh output directories
while another one is expected to end within ``--seconds`` (at least twice),
every output is checked, and reruns must be byte-identical.  One short
untimed command of the same kind runs first, so that first-call costs fall
outside the timing.

With ``--trace 0`` the end-to-end metrics are reported:

- ``run_s``: median wall seconds of the command, tracing off;
- ``setup_s``: median over fresh processes of importing crossnet and
  resolving the workload's config (``setup_probe.py``), half of them
  before the timed commands and half after;
- ``peak_rss_mb``: peak resident memory of this process, which ran the
  workload.

With ``--trace 1`` traced and untraced commands alternate, starting and
ending with a traced one, at least two traced, within ``--seconds``; the
per-layer metrics come from the traced runs (``tracing.py``), the work
counters must repeat exactly between them, and their outputs must be
byte-identical to the untraced runs'.  The spans of the first traced run are
written to ``.perfbench-out/``.

Both modes print a readable summary, including ``ops_failed_frac`` with the
operations attempted, then an environment line, and as the last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread unless the caller chose otherwise, set before numpy loads.
# On a 2-core Xeon VM (numpy 2.4, OpenBLAS 0.3.31) a threaded 400x400 matvec
# was no faster than a serial one but varied by up to 40% from command to
# command; the value used is recorded in the environment line of every result.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import tracing  # noqa: E402
from setup_probe import resolve  # noqa: E402
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, Outcome, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# a simulate-ring400 command takes 15 to 30 s, so two fill a 50 s run
MIN_RUNS = 2
MIN_TRACED_RUNS = 2
SETUP_SAMPLES = 16
OUTPUT_FILES = (
    "graph.txt", "spectrum.csv", "report.json", "manifest.json",
    "trajectory.csv", "final_state.csv", "ensemble.csv", "summary.csv",
)
# work counters that must repeat exactly between two traced runs
COUNTERS = (
    "dynamics.rhs_evaluations", "dynamics.steps_accepted", "dynamics.steps_rejected",
    "graphs.build_graph_calls", "graphs.edges_built", "graphs.laplacian_mb",
    "spectra.eig_symmetric_calls",
) + tuple(f"bytes.{name}" for name in OUTPUT_FILES)


def _array_bytes(matrix) -> int:
    if hasattr(matrix, "nbytes"):
        return int(matrix.nbytes)
    # a scipy sparse matrix
    return sum(int(getattr(matrix, part).nbytes) for part in ("data", "indices", "indptr"))


OBSERVERS = {
    "graphs.build_graph": lambda g: {"graphs.edges_built": g.n_edges},
    "graphs.build_laplacian": lambda lap: {"graphs.laplacian_bytes": _array_bytes(lap)},
    "dynamics.integrate": lambda r: {
        "dynamics.steps_accepted": r.steps_accepted,
        "dynamics.steps_rejected": r.steps_rejected,
    },
}


@dataclass
class Sample:
    """One CLI command: wall time, checked outcome, output files."""

    wall: float
    outcome: Outcome
    files: dict[str, tuple[int, str]]  # relative path -> (bytes, sha256)


def import_cli():
    if not (SRC / "crossnet" / "__init__.py").is_file():
        sys.exit(f"perfbench: no crossnet package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import crossnet.cli

    return crossnet.cli


def output_files(out: Path) -> dict[str, tuple[int, str]]:
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            files[str(path.relative_to(out))] = (len(data), hashlib.sha256(data).hexdigest())
    return files


def run_once(cli, workload: Workload, seed: int, tracer: tracing.Tracer | None = None) -> Sample:
    """Run the workload's command once into a fresh directory and check it."""
    OUT.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    argv = [*workload.argv(seed), "--output-dir", str(out)]
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), (tracer.installed() if tracer else contextlib.nullcontext()):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:  # a crash is a failed operation, not a broken benchmark
                rc = None
                print(traceback.format_exc())
            wall = time.perf_counter() - t0
        if rc != 0:
            outcome = Outcome(workload.operations, workload.operations,
                              [f"exit code {rc}: {stdout.getvalue().strip()[-2000:]}"])
        else:
            try:
                outcome = workload.check(out, seed)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                outcome = Outcome(workload.operations, workload.operations,
                                  [f"output check could not read the outputs: {exc!r}"])
        files = output_files(out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return Sample(wall, outcome, files)


def fits(walls: list[float], deadline: float, commands: int = 1) -> bool:
    """Whether ``commands`` more commands of the median length so far end by the deadline."""
    return time.perf_counter() + commands * statistics.median(walls) <= deadline


def warm_up(cli, workload: Workload, seed: int) -> None:
    """One short untimed command, so lazy imports, BLAS start-up and first-touch
    allocations are not charged to the first timed command."""
    OUT.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"warmup-{workload.name}-", dir=OUT))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main([*workload.argv(seed), *workload.warmup, "--output-dir", str(out)])
    except Exception:  # a crash shows again, and is counted, in the timed commands
        pass
    finally:
        shutil.rmtree(out, ignore_errors=True)


def measure_setup(workload: Workload, seed: int, count: int) -> list[float]:
    """Set-up seconds from ``count`` fresh processes, one after another."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *workload.argv(seed)]
    samples = []
    for _ in range(count):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def layer_metrics(tracer: tracing.Tracer, sample: Sample) -> dict[str, float]:
    def named(name):
        return lambda n: n == name

    def module(prefix):
        return lambda n: n.startswith(prefix + ".")

    t = tracer
    rhs = tracing.calls(t, lambda n: n.startswith("dynamics.rhs"))
    accepted = t.counters["dynamics.steps_accepted"]
    rejected = t.counters["dynamics.steps_rejected"]
    metrics = {
        "config.resolve_s": tracing.busy(t, module("config")),
        "cli.self_s": tracing.self_busy(t, module("cli")),
        "graphs.build_graph_s": tracing.busy(t, named("graphs.build_graph")),
        "graphs.build_graph_calls": tracing.calls(t, named("graphs.build_graph")),
        "graphs.edges_built": t.counters["graphs.edges_built"],
        "graphs.build_laplacian_s": tracing.busy(t, named("graphs.build_laplacian")),
        "graphs.laplacian_mb": t.counters["graphs.laplacian_bytes"] / 1e6,
        "graphs.write_edge_list_s": tracing.busy(t, named("graphs.write_edge_list")),
        "spectra.eig_symmetric_s": tracing.busy(t, named("spectra.eig_symmetric")),
        "spectra.eig_symmetric_calls": tracing.calls(t, named("spectra.eig_symmetric")),
        "spectra.ensemble_eigenvalues_self_s": tracing.self_busy(t, named("spectra.ensemble_eigenvalues")),
        "spectra.write_spectrum_csv_s": tracing.busy(t, named("spectra.write_spectrum_csv")),
        "stability.analysis_s": tracing.busy(t, module("stability")),
        "dynamics.rhs_s": tracing.busy(t, lambda n: n.startswith("dynamics.rhs")),
        "dynamics.rhs_evaluations": rhs,
        "dynamics.integrate_self_s": tracing.self_busy(t, named("dynamics.integrate")),
        "dynamics.steps_accepted": accepted,
        "dynamics.steps_rejected": rejected,
        "dynamics.step_accept_ratio": accepted / (accepted + rejected) if accepted + rejected else 0.0,
        "dynamics.rhs_per_step": rhs / accepted if accepted else 0.0,
        "dynamics.final_residual": sample.outcome.final_residual or 0.0,
        "dynamics.write_trajectory_csv_s": tracing.busy(t, named("dynamics.write_trajectory_csv")),
        "dynamics.trajectory_mb": _file_bytes(sample, "trajectory.csv") / 1e6,
        "dynamics.write_final_state_csv_s": tracing.busy(t, named("dynamics.write_final_state_csv")),
        "experiments.simulate_and_report_self_s": tracing.self_busy(t, named("experiments.simulate_and_report")),
        "experiments.ensemble_report_self_s": tracing.self_busy(t, named("experiments.ensemble_report")),
        "experiments.write_ensemble_report_s": tracing.busy(t, named("experiments.write_ensemble_report")),
        "experiments.write_manifest_s": tracing.busy(t, named("experiments.write_manifest")),
    }
    for name in OUTPUT_FILES:
        metrics[f"bytes.{name}"] = _file_bytes(sample, name)
    return metrics


def _file_bytes(sample: Sample, name: str) -> int:
    return sum(size for path, (size, _) in sample.files.items() if Path(path).name == name)


def environment(workload: Workload, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    _, doc = resolve(workload.argv(seed))
    threads = doc["experiment"]["threads"]
    commit = None
    if (ROOT / ".git").exists():  # a plain checkout is not a git work tree
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ensemble_threads": threads if threads is not None else os.cpu_count(),
        "git_commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in (SRC / "crossnet").rglob("*.py")),
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


def consistency_problems(samples: list[Sample], counters: list[dict] | None = None) -> list[str]:
    problems = []
    first = samples[0].files
    for i, sample in enumerate(samples[1:], start=1):
        if sample.files != first:
            changed = sorted(k for k in first.keys() | sample.files.keys()
                             if first.get(k) != sample.files.get(k))
            problems.append(f"command {i} output differs from command 0: {changed}")
    for i, c in enumerate((counters or [])[1:], start=1):
        moved = [k for k in COUNTERS if c[k] != counters[0][k]]
        if moved:
            problems.append(f"traced run {i} work counters differ from traced run 0: {moved}")
    return problems


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q = statistics.quantiles(values, n=4)
    return f"quartiles {q[0]:.4f} .. {q[2]:.4f}"


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    cli = import_cli()
    env = environment(workload, args.seed)
    if not args.trace:
        measure_setup(workload, args.seed, 1)  # warms the file cache; dropped
        # half the set-up samples now and half after the timed commands, so
        # that they see the same stretch of host load as the commands do
        setup = measure_setup(workload, args.seed, SETUP_SAMPLES // 2)
    warm_up(cli, workload, args.seed)
    deadline = time.perf_counter() + args.seconds
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, {args.seconds} s, trace {args.trace}")

    if args.trace:
        # traced and untraced commands alternate, so both see the same machine
        untraced, traced, tracers = [], [], []
        while len(traced) < MIN_TRACED_RUNS or fits([s.wall for s in traced], deadline, 2):
            if traced:
                untraced.append(run_once(cli, workload, args.seed))
            tracer = tracing.Tracer(OBSERVERS)
            traced.append(run_once(cli, workload, args.seed, tracer))
            tracers.append(tracer)
        per_run = [layer_metrics(t, s) for t, s in zip(tracers, traced)]
        samples = [*untraced, *traced]
        problems = consistency_problems(samples, per_run)
        metrics = {k: (statistics.median(r[k] for r in per_run) if k.endswith("_s") else per_run[0][k])
                   for k in per_run[0]}
        metrics["trace.overhead_s"] = (statistics.median(s.wall for s in traced)
                                       - statistics.median(s.wall for s in untraced))
        units = {k: _unit(k) for k in metrics}
        spans_path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
        tracing.write_spans(tracers[0], spans_path, {"workload": workload.name, "seed": args.seed,
                                                     "environment": env})
        print(f"traced {len(traced)} commands, spans of the first in {spans_path.relative_to(ROOT)}")
    else:
        samples = []
        while len(samples) < MIN_RUNS or fits([s.wall for s in samples], deadline):
            samples.append(run_once(cli, workload, args.seed))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup += measure_setup(workload, args.seed, SETUP_SAMPLES - len(setup))
        problems = consistency_problems(samples)
        walls = [s.wall for s in samples]
        metrics = {"run_s": statistics.median(walls), "setup_s": statistics.median(setup),
                   "peak_rss_mb": peak_mb}
        units = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        print(f"{'run_s':<40} {metrics['run_s']:.4f} s  median of {len(walls)} commands, {quartiles(walls)}")
        print(f"{'setup_s':<40} {metrics['setup_s']:.4f} s  median of {len(setup)} fresh processes, "
              f"{quartiles(setup)}")
        print(f"{'peak_rss_mb':<40} {peak_mb:.1f} MB")

    attempted = sum(s.outcome.attempted for s in samples)
    failed = sum(s.outcome.failed for s in samples)
    if args.trace:
        for name in sorted(metrics):
            print(f"{name:<40} {metrics[name]:.6g} {units[name]}")
    print(f"{'ops_failed_frac':<40} {failed / attempted:.4g}  ({failed} of {attempted} operations failed)")
    for problem in dict.fromkeys(p for s in samples for p in s.outcome.problems):
        print(f"  failed check: {problem}")
    for problem in problems:
        print(f"  inconsistent: {problem}")
    print(json.dumps({"environment": env}))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


UNITS = {"dynamics.final_residual": "norm", "dynamics.step_accept_ratio": "ratio",
         "dynamics.rhs_per_step": "1/step"}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.startswith("bytes."):
        return "bytes"
    return "count"


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    rows, results = [], {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"perfbench: workload {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print()
    print(f"{'workload':<22} {'correct':<8} {'ops_failed_frac':<24} metrics")
    for name, r in results.items():
        frac = f"{r['failed'] / r['attempted']:.4g} ({r['failed']} of {r['attempted']})"
        shown = ", ".join(f"{k} {m['value']:.4g} {m['unit']}" for k, m in r["metrics"].items()
                          if not args.trace)
        print(f"{name:<22} {str(r['correct']):<8} {frac:<24} {shown}")
        rows.extend((f"{name}.{k}", m) for k, m in r["metrics"].items())
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": dict(rows),
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
