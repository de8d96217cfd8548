"""Benchmark workloads: the CLI command each one runs and its output checks.

Every workload is one real ``crossnet`` command whose arguments are built
from the workload seed; the program sees nothing else.  The checks here do
not call crossnet: spectra, the instability window and the residual are
recomputed with numpy from the ring's closed form and the model equations,
so a defect in a layer cannot hide itself.

An *operation* is the unit counted in ``attempted`` and ``failed``: one
simulated seed for ``simulate-*``, one swept value (one ``summary.csv`` row)
for ``ensemble-*`` and the whole command for ``stability-*``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden"
DEFAULT_SEED = 0
# Seed kept out of every tuning run; a claimed gain must also hold on it.
HELD_OUT_SEED = 97

# Instability window of the default parameter set (README, criterion 06).
WINDOW = (7.3026, 18.3147)
WINDOW_TOL = 1e-4
SPECTRUM_TOL = 1e-9
FINAL_STATE_TOL = 1e-4
# Eigenvalues this close to a window end count as stable, as in classify_modes.
BOUNDARY_TOL = 1e-9


@dataclass
class Outcome:
    """Result of checking one command's output directory."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    final_residual: float | None = None

    def fail(self, message: str) -> None:
        self.problems.append(message)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: Callable[[int], list[str]]
    check: Callable[[Path, int], Outcome]
    # operations one command performs
    operations: int = 1
    # arguments appended to argv for the short untimed warm-up command
    warmup: tuple[str, ...] = ()


# -- independent references ------------------------------------------------

def ring_eigenvalues(n: int, k: int) -> np.ndarray:
    """Closed-form ring Laplacian spectrum, ascending."""
    j = np.arange(n)
    m = np.arange(1, k + 1)
    return np.sort(2.0 * k - 2.0 * np.cos(2.0 * np.pi * np.outer(m, j) / n).sum(axis=0))


def ring_laplacian_apply(x: np.ndarray, k: int) -> np.ndarray:
    out = 2.0 * k * x
    for m in range(1, k + 1):
        out = out - np.roll(x, m) - np.roll(x, -m)
    return out


def skt_residual(u: np.ndarray, v: np.ndarray, p: dict, k: int) -> float:
    """Infinity norm of the model's right-hand side on a ring (README model)."""
    lap = lambda x: ring_laplacian_apply(x, k)  # noqa: E731
    du = u * (p["r1"] - p["a1"] * u - p["b1"] * v) - lap(p["d"] * u + p["d11"] * u * u + p["d12"] * u * v)
    dv = v * (p["r2"] - p["b2"] * u - p["a2"] * v) - lap(p["d"] * v + p["d22"] * v * v + p["d21"] * u * v)
    return float(max(np.abs(du).max(), np.abs(dv).max()))


def unstable_modes(eigenvalues: np.ndarray, window: tuple[float, float]) -> list[int]:
    lo, hi = window
    inside = (eigenvalues > lo + BOUNDARY_TOL) & (eigenvalues < hi - BOUNDARY_TOL)
    return [int(i) for i in np.nonzero(inside)[0]]


# -- shared file checks -----------------------------------------------------

def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _check_spectrum(out: Path, n: int, k: int, outcome: Outcome) -> None:
    header, rows = _read_csv(out / "spectrum.csv")
    if header != ["index", "eigenvalue"] or len(rows) != n:
        outcome.fail(f"spectrum.csv: header {header}, {len(rows)} rows, expected {n}")
        return
    if [int(r[0]) for r in rows] != list(range(n)):
        outcome.fail("spectrum.csv: index column is not 0..n-1")
        return
    values = np.array([float(r[1]) for r in rows])
    err = float(np.abs(values - ring_eigenvalues(n, k)).max())
    if err > SPECTRUM_TOL:
        outcome.fail(f"spectrum.csv: max |numeric - closed form| = {err:.3g} > {SPECTRUM_TOL}")


def _check_window(report: dict, outcome: Outcome) -> tuple[float, float] | None:
    window = (report.get("lambda_star_1"), report.get("lambda_star_2"))
    if None in window or max(abs(a - b) for a, b in zip(window, WINDOW)) > WINDOW_TOL:
        outcome.fail(f"report.json: window {window}, expected {WINDOW} to {WINDOW_TOL}")
        return None
    return window


def _golden_bytes(workload: str, out: Path, name: str, outcome: Outcome) -> None:
    if (out / name).read_bytes() != (GOLDEN / workload / name).read_bytes():
        outcome.fail(f"{name}: differs from golden/{workload}/{name}")


# -- simulate ------------------------------------------------------------------

def _simulate(name: str, n: int, k: int, tol: float, extra: list[str], why: str,
              per_command: int = 1) -> Workload:
    """``per_command`` perturbation seeds per command: workload seed s runs
    seeds per_command*s .. per_command*s + per_command - 1."""

    def seeds(seed: int) -> list[int]:
        return [per_command * seed + i for i in range(per_command)]

    def argv(seed: int) -> list[str]:
        return ["simulate", *extra, "--set", f"experiment.seeds=[{','.join(map(str, seeds(seed)))}]"]

    def seed_problems(out: Path, golden: Path | None, run: dict | None, skt: dict) -> tuple[list[str], float | None]:
        """Why one seed did not converge correctly (empty when it did), and its residual."""
        if run is None:
            return ["missing from report.json"], None
        with open(out / "trajectory.csv") as fh:
            header = fh.readline().rstrip("\n").split(",")
        if len(header) != 2 * n + 1 or header[0] != "t":
            return [f"trajectory.csv header has {len(header)} columns, expected {2 * n + 1}"], None
        head, rows = _read_csv(out / "final_state.csv")
        final = np.array([[float(x) for x in r] for r in rows])
        if head != ["node", "u", "v"] or final.shape != (n, 3):
            return [f"final_state.csv: header {head}, shape {final.shape}"], None
        residual = skt_residual(final[:, 1], final[:, 2], skt, k)
        problems = []
        if residual > tol:
            problems.append(f"recomputed residual {residual:.3g} > steady_state_tol {tol:g} "
                            f"(reason {run['reason']!r})")
        if run["positivity_violated"]:
            problems.append("positivity violation flagged")
        if run["converged"] != (residual <= tol):
            problems.append(f"report says converged={run['converged']}, residual {residual:.3g}")
        if golden is not None:
            expected = np.loadtxt(golden / "final_state.csv", delimiter=",", skiprows=1)
            err = float(np.abs(final - expected).max())
            if err > FINAL_STATE_TOL:
                problems.append(f"final_state.csv: max |diff| to golden {err:.3g} > {FINAL_STATE_TOL}")
        return problems, residual

    def check(out: Path, seed: int) -> Outcome:
        outcome = Outcome(attempted=per_command)
        report = json.loads((out / "report.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        _check_spectrum(out, n, k, outcome)
        window = _check_window(report, outcome)
        if window is not None and report.get("unstable_modes") != unstable_modes(ring_eigenvalues(n, k), window):
            outcome.fail("report.json: unstable_modes differ from the closed-form classification")
        if seed == DEFAULT_SEED:
            _golden_bytes(name, out, "graph.txt", outcome)
        shared_problems = bool(outcome.problems)
        runs = {run["seed"]: run for run in report["runs"]}
        residuals, bad = [], 0
        for s in seeds(seed):
            # the CLI puts per-seed files in seed_<s>/ only when it runs several seeds
            sub = "" if per_command == 1 else f"seed_{s}"
            golden = GOLDEN / name / sub if seed == DEFAULT_SEED else None
            problems, residual = seed_problems(out / sub, golden, runs.get(s), manifest["skt"])
            for problem in problems:
                outcome.fail(f"seed {s}: {problem}")
            bad += bool(problems)
            if residual is not None:
                residuals.append(residual)
        outcome.final_residual = max(residuals, default=None)
        outcome.failed = per_command if shared_problems else bad
        return outcome

    return Workload(name, why, argv, check, operations=per_command, warmup=("--set", "integrator.t_max=20"))


# -- ensemble --------------------------------------------------------------------

ER_N = 100
ER_VALUES = ("0.1", "0.2", "0.3")
ER_REALIZATIONS = 500


def _ensemble_argv(seed: int) -> list[str]:
    return [
        "ensemble",
        "--set", "graph.family=erdos-renyi",
        "--set", f"graph.n={ER_N}",
        "--set", "graph.p=0.1",
        "--set", "experiment.sweep_param=p",
        "--set", f"experiment.sweep_values=[{','.join(ER_VALUES)}]",
        "--set", f"experiment.realizations={ER_REALIZATIONS}",
        # At the default of one worker per CPU (two here) slow phases of the
        # shared host doubled command times for minutes, and ten runs spread
        # 0.30 of their median; the files do not depend on the thread count.
        "--set", "experiment.threads=1",
        "--master-seed", str(seed),
    ]


def _ensemble_check(out: Path, seed: int) -> Outcome:
    """One operation per swept value; each row of either CSV is charged to its value."""
    outcome = Outcome(attempted=len(ER_VALUES))
    bad: set[str] = set()
    s_head, s_rows = _read_csv(out / "summary.csv")
    e_head, e_rows = _read_csv(out / "ensemble.csv")
    if s_head != ["value", "instability_fraction", "mean_spectrum_unstable_count"] or \
            [r[0] for r in s_rows] != list(ER_VALUES):
        outcome.fail(f"summary.csv: header {s_head}, values {[r[0] for r in s_rows]}")
        bad.update(ER_VALUES)
    if e_head != ["value", "index", "mean", "variance", "realizations"]:
        outcome.fail(f"ensemble.csv: header {e_head}")
        bad.update(ER_VALUES)
    golden_s = golden_e = None
    if seed == DEFAULT_SEED:
        _, golden_s = _read_csv(GOLDEN / "ensemble-er100" / "summary.csv")
        _, golden_e = _read_csv(GOLDEN / "ensemble-er100" / "ensemble.csv")
    for j, value in enumerate(ER_VALUES):
        if value in bad:
            continue
        rows = [r for r in e_rows if r[0] == value]
        summary = s_rows[j]
        problems = _ensemble_value_problems(float(value), rows, summary)
        if golden_s is not None:
            if summary != golden_s[j] or rows != [r for r in golden_e if r[0] == value]:
                problems.append("differs from golden")
        for problem in problems:
            outcome.fail(f"p={value}: {problem}")
        if problems:
            bad.add(value)
    outcome.failed = len(bad)
    return outcome


def _ensemble_value_problems(p: float, rows: list[list[str]], summary: list[str]) -> list[str]:
    if len(rows) != ER_N or [int(r[1]) for r in rows] != list(range(ER_N)):
        return [f"ensemble.csv has {len(rows)} rows, expected indices 0..{ER_N - 1}"]
    problems = []
    mean = np.array([float(r[2]) for r in rows])
    variance = np.array([float(r[3]) for r in rows])
    if any(int(r[4]) != ER_REALIZATIONS for r in rows):
        problems.append("realizations column is not 500")
    if abs(mean[0]) > 1e-9 or (np.diff(mean) < -1e-9).any() or (variance < 0).any():
        problems.append("mean spectrum not ascending from 0, or negative variance")
    # trace(L) = 2E and E ~ Binomial(n(n-1)/2, p): the mean spectrum sums to
    # p*n*(n-1) up to sampling error; six standard errors never trip by chance
    pairs = ER_N * (ER_N - 1) / 2
    sd = 2.0 * np.sqrt(pairs * p * (1 - p) / ER_REALIZATIONS)
    if abs(mean.sum() - 2.0 * pairs * p) > 6.0 * sd:
        problems.append(f"mean spectrum sums to {mean.sum():.4g}, expected {2 * pairs * p:.4g}")
    fraction = float(summary[1])
    if not 0.0 <= fraction <= 1.0 or abs(fraction * ER_REALIZATIONS - round(fraction * ER_REALIZATIONS)) > 1e-6:
        problems.append(f"instability_fraction {fraction} is not a count over {ER_REALIZATIONS}")
    if int(summary[2]) != len(unstable_modes(mean, WINDOW)):
        problems.append(f"mean_spectrum_unstable_count {summary[2]} disagrees with ensemble.csv means")
    return problems


# -- stability --------------------------------------------------------------------

STABILITY_N = 4000
RING_K = 10
STABILITY_UNSTABLE = 208


def _stability_check(out: Path, seed: int) -> Outcome:
    outcome = Outcome(attempted=1)
    report = json.loads((out / "report.json").read_text())
    _check_spectrum(out, STABILITY_N, RING_K, outcome)
    window = _check_window(report, outcome)
    if window is not None:
        expected = unstable_modes(ring_eigenvalues(STABILITY_N, RING_K), window)
        if len(expected) != STABILITY_UNSTABLE:
            outcome.fail(f"closed form gives {len(expected)} unstable modes, expected {STABILITY_UNSTABLE}")
        if report.get("unstable_modes") != expected:
            outcome.fail("report.json: unstable_modes differ from the closed-form set")
    if not (out / "manifest.json").is_file():
        outcome.fail("manifest.json missing")
    outcome.failed = 1 if outcome.problems else 0
    return outcome


WORKLOADS = {
    w.name: w
    for w in (
        _simulate(
            "simulate-default", 100, RING_K, 1e-9, [],
            "what a user gets with no flags; it does not converge "
            "(ROADMAP item 3), so every operation fails",
        ),
        _simulate(
            "simulate-ring400", 400, 20, 1e-6,
            ["--set", "graph.n=400", "--set", "graph.k=20",
             "--set", "integrator.steady_state_tol=1e-6", "--set", "integrator.sample_dt=10"],
            "converging run where the dense Laplacian matvec in rhs_skt dominates",
            # steps to converge have a quartile spread of 11% between single
            # seeds and 5% between groups of six or eight (56 seeds); six per
            # command keep the workload seed from moving run_s more than host
            # noise does, and two commands still fit one run
            per_command=6,
        ),
        Workload(
            "ensemble-er100",
            "README ER sweep, 1500 small graphs on one thread: Python overhead in graphs, "
            "Laplacian assembly and eigensolves",
            _ensemble_argv,
            _ensemble_check,
            operations=len(ER_VALUES),
            warmup=("--set", "experiment.realizations=10"),
        ),
        Workload(
            "stability-ring4000",
            "dense eigvalsh of a 4000-node ring: eigensolver time and Laplacian memory dominate",
            lambda seed: ["stability", "--set", f"graph.n={STABILITY_N}"],
            _stability_check,
            warmup=("--set", "graph.n=200"),
        ),
    )
}
