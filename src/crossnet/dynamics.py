"""Nonlinear network dynamics: the model right-hand side and time integration.

The integrator is an embedded Dormand-Prince 5(4) pair with PI step-size
control and first-same-as-last reuse.  It advances a batch of states at
once, sharing each right-hand-side call, while every state keeps its own
steps and stops on its own; a single state is a batch of one.  Runs stop
early once the infinity norm of the right-hand side falls below
``steady_state_tol``, which is how steady patterns are detected.  Exact
solutions of the model stay non-negative for non-negative data; the
stepper therefore clamps tiny numerical undershoots (within
``10 * abs_tol`` of zero) back to zero, counts the steps on which it did,
and flags anything deeper instead of hiding it.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from math import isfinite

import numpy as np

from .errors import IntegrationError
from .graphs import laplacian_operator
from .stability import Equilibrium, SktParams
from .rng import rng_from
from .textio import fmt_float

__all__ = [
    "IntegratorConfig",
    "NetworkState",
    "SimulationResult",
    "reaction_terms",
    "rhs",
    "integrate_batch",
    "simulate_skt",
    "perturb_homogeneous",
    "pattern_metrics",
    "PatternMetrics",
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
        # every test is written so that NaN fails it; t_max alone may be infinite
        for name in ("rel_tol", "abs_tol", "steady_state_tol", "sample_dt"):
            value = getattr(self, name)
            if value is not None and not isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if not self.t_max > 0:
            raise ValueError("t_max must be positive")
        if not self.steady_state_tol >= 0:
            raise ValueError("steady_state_tol must be non-negative")
        if not self.max_steps >= 1:
            raise ValueError("max_steps must be >= 1")
        if self.sample_dt is not None and not self.sample_dt > 0:
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


def rhs(y: np.ndarray, p: SktParams, lap: np.ndarray) -> np.ndarray:
    """Time derivative of the competition model on a network with Laplacian ``lap``.

    ``y`` holds the densities u and v as the rows of a (2, n) array, or a
    stack (B, 2, n) of B such states; the result has the shape of ``y``.
    In matrix form, with Y = (u, v) and * the elementwise product,

        dY/dt = Y * (r - A Y) - L (Y * (d + D0 Y)),
        r = (r1, r2),  A = [[a1, b1], [b2, a2]],  D0 = [[d11, d12], [d21, d22]],

    so the reaction of u is u*(r1 - a1*u - b1*v) and its flux is
    d*u + d11*u^2 + d12*uv, with the mirror terms for v.  A and D0 are the
    rows of one (4, 2) matrix, applied to Y in one product.  ``lap`` is
    applied to both fluxes of a state in one product, ``lap @ flux.T``; a
    stack makes that one call with one (n, n) by (n, 2) product per state,
    so a state's derivative does not depend on the others in the stack, and
    no symmetry of ``lap`` is assumed; any operator with ``.shape`` and
    ``@`` on (..., n, 2) stacks will do, e.g. a ``graphs.BlockLaplacian``.
    ``reaction_terms`` and a term-by-term sum of the flux group the
    arithmetic differently, so they agree with this to rounding.
    """
    n = lap.shape[0]
    if y.shape[-2:] != (2, n) or lap.shape != (n, n):
        raise ValueError(f"shape mismatch: state {y.shape}, laplacian {lap.shape}")
    coef = np.array(((p.a1, p.b1), (p.b2, p.a2), (p.d11, p.d12), (p.d21, p.d22)))
    cy = coef @ y
    flux = cy[..., 2:, :] + p.d
    flux *= y
    transport = lap @ flux.swapaxes(-1, -2)
    out = np.array(((p.r1,), (p.r2,))) - cy[..., :2, :]
    out *= y
    out -= transport.swapaxes(-1, -2)
    return out


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


class _Member:
    """Step size, controller state, samples and counters of one state of a batch."""

    def __init__(self, init: NetworkState, y0: np.ndarray, cfg: IntegratorConfig):
        self.cfg = cfg
        self.t = float(init.t)
        self.t_end = self.t + cfg.t_max
        self.h = 0.0
        self.err_prev = 1e-4
        self.buffer = _SampleBuffer(cfg.sample_dt, self.t, y0)
        self.evals = 0
        self.accepted = 0
        self.rejected = 0
        self.clamps = 0
        self.positivity_violated = False
        self.min_state = float(y0.min())
        self.residual = 0.0  # max |F| at the current state
        self.result: SimulationResult | None = None
        self.error: IntegrationError | None = None

    @property
    def done(self) -> bool:
        return self.result is not None or self.error is not None

    def finish(self, y: np.ndarray, reason: str) -> None:
        if self.buffer.times[-1] != self.t:
            self.buffer.record(self.t, y, force=True)
        n = y.size // 2
        states = np.stack(self.buffer.states)
        converged = reason == "steady_state"
        self.result = SimulationResult(
            final=NetworkState(u=y[:n].copy(), v=y[n:].copy(), t=self.t),
            converged=converged,
            t_converged=self.t if converged else None,
            times=np.asarray(self.buffer.times),
            u_traj=states[:, :n],
            v_traj=states[:, n:],
            positivity_violated=self.positivity_violated,
            steps_accepted=self.accepted,
            steps_rejected=self.rejected,
            rhs_evaluations=self.evals,
            reason=reason,
            final_residual=self.residual,
            positivity_clamps=self.clamps,
            min_state=self.min_state,
            config=self.cfg,
        )


def _first_error(members: list[_Member]) -> IntegrationError | None:
    """The error of the first failed member, once every member before it has
    finished: the error that integrating the states one by one would raise."""
    for m in members:
        if m.error is not None:
            return m.error
        if m.result is None:
            return None
    return None


def _evaluate(field, states: np.ndarray) -> np.ndarray:
    """``field`` on flat (b, 2n) states, returned flat."""
    b = states.shape[0]
    return field(states.reshape(b, 2, -1)).reshape(b, -1)


def _rms(x: np.ndarray, scale: np.ndarray) -> list[float]:
    """Root mean square of ``x / scale`` over each row (the sum and division of ``np.mean``)."""
    q = x / scale
    q *= q
    return np.sqrt(np.add.reduce(q, axis=1) / q.shape[1]).tolist()


def integrate_batch(field, inits: Sequence[NetworkState], cfg: IntegratorConfig = IntegratorConfig()) -> list[SimulationResult]:
    """Advance ``dY/dt = field(Y)`` from each state of ``inits`` until it stops.

    ``field`` maps a (b, 2, n) stack of states, u and v as the rows of each,
    to their time derivatives, and must treat the states of the stack
    independently.  Every state is integrated as if it were alone: it keeps
    its own step size, PI controller, accept/reject decisions, FSAL stage,
    clamps, stop test, samples and counters, and it leaves the batch when it
    stops on steady state (converged), ``t_max`` or ``max_steps``.  The
    states share each field call, and each array operation of the loop acts
    on every state's row on its own, so a state's result is bit for bit the
    one it gets in a batch of one.  Returns one SimulationResult per initial
    state, in order.

    A state whose step size underflows, or that leaves the representable
    range entirely, fails with an IntegrationError.  The error raised is
    that of the first failing state in ``inits`` order, as soon as every
    state before it has stopped: the error a one-by-one run would raise.
    """
    y = np.stack([np.concatenate((s.u, s.v)) for s in inits]).astype(float)
    members = [_Member(init, row, cfg) for init, row in zip(inits, y)]
    for m, row in zip(members, y):
        if not np.isfinite(row).all():
            m.error = IntegrationError("initial state contains non-finite values", m.t)
    live = [j for j, m in enumerate(members) if not m.done]
    if not live:
        raise _first_error(members)
    active = [members[j] for j in live]
    y = y[live]

    f0 = _evaluate(field, y)
    live = []
    for j, (m, residual) in enumerate(zip(active, np.abs(f0).max(axis=1).tolist())):
        m.evals += 1
        m.residual = residual
        if residual <= cfg.steady_state_tol:
            m.finish(y[j], "steady_state")
        else:
            live.append(j)
    active = [active[j] for j in live]
    y, f0 = y[live], f0[live]

    if active:
        # initial step sizes: the standard two-probe startup heuristic
        scale = cfg.abs_tol + cfg.rel_tol * np.abs(y)
        d0, d1 = _rms(y, scale), _rms(f0, scale)
        h0 = [min(1e-6 if a < 1e-10 or b < 1e-10 else 0.01 * a / b, cfg.t_max) for a, b in zip(d0, d1)]
        f1 = _evaluate(field, y + np.array(h0)[:, None] * f0)
        for m, h, b, c in zip(active, h0, d1, _rms(f1 - f0, scale)):
            m.evals += 1
            d2 = c / h
            h1 = max(1e-6, h * 1e-3) if max(b, d2) <= 1e-15 else (0.01 / max(b, d2)) ** 0.2
            m.h = min(100.0 * h, h1, cfg.t_max)

    k = np.empty((len(active), 7, y.shape[1]))
    k[:, 0] = f0
    while active:
        live = []
        for j, m in enumerate(active):
            if m.done:
                continue
            if m.t >= m.t_end:
                m.finish(y[j], "t_max")
            elif m.accepted + m.rejected >= cfg.max_steps:
                m.finish(y[j], "max_steps")
            else:
                m.h = min(m.h, m.t_end - m.t)
                if m.h < 1e-14 * max(1.0, abs(m.t)):
                    m.error = IntegrationError("step size underflow", m.t)
                else:
                    live.append(j)
        error = _first_error(members)
        if error is not None:
            raise error
        if len(live) < len(active):
            active = [active[j] for j in live]
            y, k = y[live], k[live]
            if not active:
                break

        h = np.array([m.h for m in active])[:, None]
        for i in range(1, 6):
            k[:, i] = _evaluate(field, y + h * (_DP_A[i, :i] @ k[:, :i]))
        y_new = y + h * (_DP_A[6, :6] @ k[:, :6])
        k[:, 6] = _evaluate(field, y_new)
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        errs = _rms(h * (_DP_ERR @ k), scale)

        accept = []
        for m, err in zip(active, errs):
            m.evals += 6
            ok = isfinite(err) and err <= 1.0
            accept.append(ok)
            if not ok:
                m.rejected += 1
                m.h *= _MIN_FACTOR if not isfinite(err) else max(_MIN_FACTOR, _SAFETY * err ** -0.2)
        if all(accept):
            y = y_new
        else:
            y[accept] = y_new[accept]

        # exact solutions stay non-negative: clamp shallow undershoots to 0
        # and re-evaluate those states, flag deeper ones
        clamped = []
        for j, (m, ok, step_min) in enumerate(zip(active, accept, y_new.min(axis=1).tolist())):
            if not ok:
                continue
            m.t += m.h
            m.min_state = min(m.min_state, step_min)
            if step_min < 0.0:
                deep = y[j] < -10.0 * cfg.abs_tol
                if deep.any():
                    m.positivity_violated = True
                shallow = (y[j] < 0.0) & ~deep
                if shallow.any():
                    m.clamps += 1
                    m.evals += 1
                    y[j, shallow] = 0.0
                    clamped.append(j)
        if clamped:
            k[clamped, 6] = _evaluate(field, y[clamped])

        residuals = np.abs(k[:, 6]).max(axis=1).tolist()
        finite = np.isfinite(y).all(axis=1).tolist()
        for j, (m, ok, err) in enumerate(zip(active, accept, errs)):
            if not ok:
                continue
            m.accepted += 1
            m.buffer.record(m.t, y[j])
            m.residual = residuals[j]
            if m.residual <= cfg.steady_state_tol:
                m.finish(y[j], "steady_state")
            elif not finite[j]:
                m.error = IntegrationError("state became non-finite", m.t)
            else:
                factor = _MAX_FACTOR if err == 0.0 else _SAFETY * err ** -_BETA1 * m.err_prev ** _BETA2
                m.h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
                m.err_prev = max(err, 1e-10)
        if all(accept):
            k[:, 0] = k[:, 6]
        else:
            k[accept, 0] = k[accept, 6]

    error = _first_error(members)
    if error is not None:
        raise error
    return [m.result for m in members]


def simulate_skt(p: SktParams, lap: np.ndarray, inits: Sequence[NetworkState], cfg: IntegratorConfig = IntegratorConfig()) -> list[SimulationResult]:
    """Integrate the competition model on ``lap`` from each state of ``inits`` in one batch,
    applying ``lap`` in the form ``graphs.laplacian_operator`` picks."""
    op = laplacian_operator(lap)
    return integrate_batch(lambda y: rhs(y, p, op), inits, cfg)


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
