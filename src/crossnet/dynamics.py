"""Nonlinear network dynamics: the model right-hand side and time integration.

The integrator is an embedded Dormand-Prince 5(4) pair with PI step-size
control and first-same-as-last reuse.  Runs stop early once the infinity
norm of the right-hand side falls below ``steady_state_tol``, which is how
steady patterns are detected.  Exact solutions of the model stay
non-negative for non-negative data; the stepper therefore clamps tiny
numerical undershoots (within ``10 * abs_tol`` of zero) back to zero,
counts the steps on which it did, and flags anything deeper instead of
hiding it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .errors import IntegrationError
from .stability import Equilibrium, SktParams
from .rng import rng_from
from .textio import fmt_float

__all__ = [
    "IntegratorConfig",
    "NetworkState",
    "SimulationResult",
    "reaction_terms",
    "rhs",
    "integrate",
    "simulate_skt",
    "perturb_homogeneous",
    "pattern_metrics",
    "PatternMetrics",
    "mode_amplitudes",
    "mode_amplitude_series",
    "write_trajectory_csv",
    "write_final_state_csv",
]

_MAX_SAMPLES = 4096


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    t_max: float = 5000.0
    steady_state_tol: float = 1e-9
    max_steps: int = 2_000_000
    sample_dt: float | None = None

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.t_max <= 0:
            raise ValueError("t_max must be positive")
        if self.steady_state_tol < 0:
            raise ValueError("steady_state_tol must be non-negative")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.sample_dt is not None and self.sample_dt <= 0:
            raise ValueError("sample_dt must be positive")


@dataclass
class NetworkState:
    """Per-node densities of both species at one instant."""

    u: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.u.shape != self.v.shape or self.u.ndim != 1:
            raise ValueError(f"u and v must be 1-d arrays of equal length, got {self.u.shape} and {self.v.shape}")


@dataclass
class SimulationResult:
    final: NetworkState
    converged: bool
    t_converged: float | None
    times: np.ndarray
    u_traj: np.ndarray
    v_traj: np.ndarray
    positivity_violated: bool
    steps_accepted: int
    steps_rejected: int
    rhs_evaluations: int
    reason: str
    final_residual: float  # max |F| over both species at the final state
    positivity_clamps: int  # accepted steps on which a shallow undershoot was set to 0
    min_state: float  # smallest u or v at the start and over accepted steps, before clamping
    config: IntegratorConfig = field(default_factory=IntegratorConfig)


def reaction_terms(u: np.ndarray, v: np.ndarray, p) -> tuple[np.ndarray, np.ndarray]:
    """Logistic-competition growth for both species (no transport)."""
    fu = u * (p.r1 - p.a1 * u - p.b1 * v)
    gv = v * (p.r2 - p.b2 * u - p.a2 * v)
    return fu, gv


def rhs(u: np.ndarray, v: np.ndarray, p: SktParams, lap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Time derivative of the competition model on a network with Laplacian ``lap``.

    Transport is the Laplacian applied to one flux per species:
    du = f(u, v) - L (d*u + d11*u^2 + d12*uv) and
    dv = g(u, v) - L (d*v + d22*v^2 + d21*uv).
    The two fluxes are the rows of one (2, n) array F, and ``lap`` is applied
    to both in one product, ``lap @ F.T``, which reads L once instead of once
    per nonzero transport coefficient.  Zero coefficients add nothing to the
    fluxes, so the default d11 = d22 = 0 computes no squares.
    Summing the flux before applying L associates differently from summing
    d*(L u), d11*(L u^2), ... term by term, so the two agree to rounding, not
    bit for bit.
    """
    if u.shape != v.shape or lap.shape != (u.size, u.size):
        raise ValueError(f"shape mismatch: u {u.shape}, v {v.shape}, laplacian {lap.shape}")
    flux = np.zeros((2, u.size))
    if p.d != 0.0:
        flux[0] += p.d * u
        flux[1] += p.d * v
    if p.d11 != 0.0:
        flux[0] += p.d11 * (u * u)
    if p.d22 != 0.0:
        flux[1] += p.d22 * (v * v)
    uv = u * v
    if p.d12 != 0.0:
        flux[0] += p.d12 * uv
    if p.d21 != 0.0:
        flux[1] += p.d21 * uv
    transport = lap @ flux.T
    fu, gv = reaction_terms(u, v, p)
    return fu - transport[:, 0], gv - transport[:, 1]


# Dormand-Prince 5(4) tableau; row 6 doubles as the 5th-order weights (FSAL)
_DP_A = np.zeros((7, 7))
_DP_A[1, :1] = [1 / 5]
_DP_A[2, :2] = [3 / 40, 9 / 40]
_DP_A[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_DP_A[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_DP_A[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
_DP_A[6, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
_DP_ERR = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# PI controller exponents for a 5th-order error estimate
_BETA1 = 0.7 / 5.0
_BETA2 = 0.4 / 5.0


class _SampleBuffer:
    """Accepted-step samples with on-the-fly decimation to a bounded count."""

    def __init__(self, sample_dt: float | None, t0: float, y0: np.ndarray):
        self.sample_dt = sample_dt
        self.times: list[float] = []
        self.states: list[np.ndarray] = []
        self._stride = 1
        self._count = 0
        self._next_time = t0 if sample_dt is None else t0 + sample_dt
        self.record(t0, y0, force=True)

    def record(self, t: float, y: np.ndarray, force: bool = False) -> None:
        if not force:
            if self.sample_dt is not None:
                if t < self._next_time:
                    return
                self._next_time = (np.floor(t / self.sample_dt) + 1.0) * self.sample_dt
            else:
                self._count += 1
                if (self._count - 1) % self._stride:
                    return
        self.times.append(t)
        self.states.append(y.copy())
        if self.sample_dt is None and len(self.times) > _MAX_SAMPLES:
            self.times = self.times[::2]
            self.states = self.states[::2]
            self._stride *= 2


def _initial_step(f, y0, f0, scale, t_max):
    # standard two-probe startup heuristic
    d0 = sqrt(float(np.mean((y0 / scale) ** 2)))
    d1 = sqrt(float(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d1 < 1e-10 or d0 < 1e-10 else 0.01 * d0 / d1
    h0 = min(h0, t_max)
    f1 = f(y0 + h0 * f0)
    d2 = sqrt(float(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, t_max)


def integrate(rhs, init: NetworkState, cfg: IntegratorConfig = IntegratorConfig()) -> SimulationResult:
    """Advance ``d(u,v)/dt = rhs(u, v)`` from ``init`` until steady state.

    ``rhs`` maps two length-n arrays to two length-n arrays.  Stops on
    steady state (converged), ``t_max``, or ``max_steps``; raises
    IntegrationError on step-size underflow or when the state leaves the
    representable range entirely.
    """
    n = init.u.size
    y = np.concatenate((init.u, init.v)).astype(float)
    if not np.isfinite(y).all():
        raise IntegrationError("initial state contains non-finite values", init.t)

    evals = 0

    def f(state: np.ndarray) -> np.ndarray:
        nonlocal evals
        evals += 1
        du, dv = rhs(state[:n], state[n:])
        return np.concatenate((du, dv))

    t = float(init.t)
    t_end = t + cfg.t_max
    buffer = _SampleBuffer(cfg.sample_dt, t, y)

    k = np.empty((7, 2 * n))
    k[0] = f(y)
    positivity_violated = False
    clamps = 0
    min_state = float(y.min())
    accepted = 0
    rejected = 0
    # max |F| at the current state; the steady-state test and the result use it
    residual = float(np.max(np.abs(k[0])))
    converged = residual <= cfg.steady_state_tol
    reason = "steady_state" if converged else ""
    t_converged = t if converged else None

    scale0 = cfg.abs_tol + cfg.rel_tol * np.abs(y)
    h = _initial_step(f, y, k[0], scale0, cfg.t_max) if not converged else 0.0
    err_prev = 1e-4

    while not converged:
        if t >= t_end:
            reason = "t_max"
            break
        if accepted + rejected >= cfg.max_steps:
            reason = "max_steps"
            break
        h = min(h, t_end - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError("step size underflow", t)

        for i in range(1, 6):
            k[i] = f(y + h * (_DP_A[i, :i] @ k[:i]))
        y_new = y + h * (_DP_A[6, :6] @ k[:6])
        k[6] = f(y_new)

        err_vec = h * (_DP_ERR @ k)
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = sqrt(float(np.mean((err_vec / scale) ** 2)))

        if not np.isfinite(err) or err > 1.0:
            rejected += 1
            factor = _MIN_FACTOR if not np.isfinite(err) else max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            h *= factor
            continue

        t += h
        y = y_new
        f_new = k[6]
        step_min = float(y.min())
        min_state = min(min_state, step_min)
        if step_min < 0.0:
            deep = y < -10.0 * cfg.abs_tol
            if deep.any():
                positivity_violated = True
            shallow = (y < 0.0) & ~deep
            if shallow.any():
                clamps += 1
                y = y.copy()
                y[shallow] = 0.0
                f_new = f(y)
        accepted += 1
        buffer.record(t, y)

        residual = float(np.max(np.abs(f_new)))
        if residual <= cfg.steady_state_tol:
            converged = True
            reason = "steady_state"
            t_converged = t
            break
        if not np.isfinite(y).all():
            raise IntegrationError("state became non-finite", t)

        if err == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = _SAFETY * err ** -_BETA1 * err_prev ** _BETA2
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        err_prev = max(err, 1e-10)
        k[0] = f_new

    if buffer.times[-1] != t:
        buffer.record(t, y, force=True)
    times = np.asarray(buffer.times)
    states = np.stack(buffer.states)
    final = NetworkState(u=y[:n].copy(), v=y[n:].copy(), t=t)
    return SimulationResult(
        final=final,
        converged=converged,
        t_converged=t_converged,
        times=times,
        u_traj=states[:, :n],
        v_traj=states[:, n:],
        positivity_violated=positivity_violated,
        steps_accepted=accepted,
        steps_rejected=rejected,
        rhs_evaluations=evals,
        reason=reason,
        final_residual=residual,
        positivity_clamps=clamps,
        min_state=min_state,
        config=cfg,
    )


def simulate_skt(p: SktParams, lap: np.ndarray, init: NetworkState, cfg: IntegratorConfig = IntegratorConfig()) -> SimulationResult:
    return integrate(lambda u, v: rhs(u, v, p, lap), init, cfg)


def perturb_homogeneous(
    eq: Equilibrium | tuple[float, float],
    n_nodes: int,
    magnitude: float = 1e-2,
    seed: int = 0,
) -> NetworkState:
    """Homogeneous coexistence state with i.i.d. relative noise.

    ``u_i = u* (1 + e_i)`` with ``e_i`` uniform on [-magnitude, magnitude],
    independently for both species.  The noise is relative, so a magnitude
    below 1 keeps every perturbed density positive whatever u* and v* are.
    """
    u_star, v_star = (eq.u_star, eq.v_star) if isinstance(eq, Equilibrium) else eq
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    if magnitude < 0:
        raise ValueError(f"magnitude must be >= 0, got {magnitude}")
    if magnitude >= 1.0:
        raise ValueError(f"magnitude {magnitude} too large: must be < 1")
    rng = rng_from(seed)
    u = u_star * (1.0 + rng.uniform(-magnitude, magnitude, n_nodes))
    v = v_star * (1.0 + rng.uniform(-magnitude, magnitude, n_nodes))
    return NetworkState(u=u, v=v, t=0.0)


@dataclass(frozen=True)
class PatternMetrics:
    heterogeneity: float
    total_u: float
    total_v: float
    pct_change_u: float
    pct_change_v: float


def pattern_metrics(final: NetworkState, eq: Equilibrium | tuple[float, float]) -> PatternMetrics:
    """Deviation-from-homogeneity summary of a final state.

    ``heterogeneity`` is ``max_i|u_i - mean(u)| + max_i|v_i - mean(v)|``;
    the percent changes compare the total abundances against the uniform
    coexistence totals ``n*u*`` and ``n*v*``.
    """
    u_star, v_star = (eq.u_star, eq.v_star) if isinstance(eq, Equilibrium) else eq
    n = final.u.size
    het = float(np.abs(final.u - final.u.mean()).max() + np.abs(final.v - final.v.mean()).max())
    total_u = float(final.u.sum())
    total_v = float(final.v.sum())
    return PatternMetrics(
        heterogeneity=het,
        total_u=total_u,
        total_v=total_v,
        pct_change_u=100.0 * (total_u - n * u_star) / (n * u_star),
        pct_change_v=100.0 * (total_v - n * v_star) / (n * v_star),
    )


def mode_amplitudes(
    state: NetworkState,
    eq: Equilibrium | tuple[float, float],
    eigenvectors: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Projections of the deviation from equilibrium onto the Laplacian modes.

    Returns (c, b) with ``c_j = <eigvec_j, u - u*>`` and likewise for v.
    """
    u_star, v_star = (eq.u_star, eq.v_star) if isinstance(eq, Equilibrium) else eq
    c = eigenvectors.T @ (state.u - u_star)
    b = eigenvectors.T @ (state.v - v_star)
    return c, b


def mode_amplitude_series(
    result: SimulationResult,
    eq: Equilibrium | tuple[float, float],
    eigenvectors: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mode projections along the sampled trajectory: (times, C, B)."""
    u_star, v_star = (eq.u_star, eq.v_star) if isinstance(eq, Equilibrium) else eq
    c = (result.u_traj - u_star) @ eigenvectors
    b = (result.v_traj - v_star) @ eigenvectors
    return result.times, c, b


def write_trajectory_csv(result: SimulationResult, path) -> None:
    n = result.u_traj.shape[1]
    header = "t," + ",".join(f"u_{i}" for i in range(n)) + "," + ",".join(f"v_{i}" for i in range(n))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row, t in enumerate(result.times):
            cells = [fmt_float(t)]
            cells.extend(fmt_float(x) for x in result.u_traj[row])
            cells.extend(fmt_float(x) for x in result.v_traj[row])
            fh.write(",".join(cells) + "\n")


def write_final_state_csv(state: NetworkState, path) -> None:
    with open(path, "w") as fh:
        fh.write("node,u,v\n")
        for i in range(state.u.size):
            fh.write(f"{i},{fmt_float(state.u[i])},{fmt_float(state.v[i])}\n")
