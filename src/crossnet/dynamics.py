"""Nonlinear network dynamics: the model right-hand side and time integration.

The integrator is an embedded Dormand-Prince 5(4) pair with PI step-size
control and first-same-as-last reuse.  It advances a batch of states at
once, the states on the same method and stage count sharing each
right-hand-side call, while every state keeps its own steps and stops on
its own; a single state is a batch of one, and ``simulate_skt`` can split
a batch over forked worker processes.  After each accepted step it
applies DOPRI5's stiffness test (Hairer & Wanner, Solving ODEs II, IV.2); a
state that keeps failing it is held at the stability limit of the explicit
pair rather than by its error control, and continues to the end with a
damped second-order Runge-Kutta-Chebyshev method (RKC; Sommeijer, Shampine
& Verwer, J. Comput. Appl. Math. 88, 1998), whose real stability interval
grows with the square of its stage count.  Runs stop
early once the infinity norm of the right-hand side falls below
``steady_state_tol``, which is how steady patterns are detected.  Exact
solutions of the model stay non-negative for non-negative data; the
stepper therefore clamps tiny numerical undershoots (within
``10 * abs_tol`` of zero) back to zero, counts the steps on which it did,
and flags anything deeper instead of hiding it.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import isfinite, isnan, nan

import numpy as np

from .errors import IntegrationError, require_int, require_real
from .graphs import Graph, laplacian_operator
from .parallel import _forked
from .stability import Equilibrium, SktParams
from .rng import rng_from
from .textio import fmt_float

__all__ = [
    "IntegratorConfig",
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
        for name in ("rel_tol", "abs_tol", "t_max", "steady_state_tol"):
            require_real(name, getattr(self, name))
        if self.sample_dt is not None:
            require_real("sample_dt", self.sample_dt)
        require_int("max_steps", self.max_steps)
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
class SimulationResult:
    """How one state's run ended; states are (2, n) arrays with u and v as rows."""

    final: np.ndarray  # (2, n) state at t_final
    t_final: float
    times: np.ndarray
    traj: np.ndarray  # (len(times), 2, n) sampled states
    positivity_violated: bool
    steps_accepted: int
    steps_rejected: int
    rhs_evaluations: int
    reason: str  # "steady_state", "t_max" or "max_steps"
    final_residual: float  # max |F| over both species at the final state
    positivity_clamps: int  # accepted steps on which a shallow undershoot was set to 0
    min_state: float  # smallest u or v at the start and over accepted steps, before clamping
    t_stiff: float | None  # when the run handed over to RKC, None if it never did

    @property
    def converged(self) -> bool:
        return self.reason == "steady_state"

    @property
    def t_converged(self) -> float | None:
        return self.t_final if self.converged else None


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
    ``@`` on (..., n, 2) stacks will do, e.g. ``graphs.laplacian_operator(g)``.
    ``reaction_terms`` and a term-by-term sum of the flux group the
    arithmetic differently, so they agree with this to rounding.
    """
    _check_shapes(y.shape, lap)
    return _field(p, lap)(y)


def _check_shapes(shape: tuple, lap) -> None:
    n = lap.shape[0]
    if shape[-2:] != (2, n) or lap.shape != (n, n):
        raise ValueError(f"shape mismatch: state {shape}, laplacian {lap.shape}")


def _field(p: SktParams, lap):
    """``rhs(·, p, lap)`` as a function of the state alone, with no shape
    check and with the coefficient matrix and rate column built once."""
    coef = np.array(((p.a1, p.b1), (p.b2, p.a2), (p.d11, p.d12), (p.d21, p.d22)))
    rate = np.array(((p.r1,), (p.r2,)))
    d = p.d

    def field(y: np.ndarray) -> np.ndarray:
        cy = coef @ y
        flux = cy[..., 2:, :] + d
        flux *= y
        transport = lap @ flux.swapaxes(-1, -2)
        out = rate - cy[..., :2, :]
        out *= y
        out -= transport.swapaxes(-1, -2)
        return out

    return field


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

# DOPRI5's stiffness test: an accepted step whose h * ||k7 - k6|| / ||y7 - y6||
# (a Lipschitz estimate along the step) exceeds _STIFF_BOUND, just below the
# pair's real stability limit of about 3.3, is flagged; _STIFF_FLAGS flags make
# the state stiff, and _STIFF_CLEAR unflagged steps in a row clear the count
_STIFF_BOUND = 3.25
_STIFF_FLAGS = 15
_STIFF_CLEAR = 6

# damped RKC as in rkc.f: the damping, the accepted steps between two spectral
# radius estimates, and the power iterations an estimate may take
_RKC_DAMPING = 2.0 / 13.0
_RKC_RHO_EVERY = 25
_RKC_POWER_ITERATIONS = 50
_UROUND = float(np.finfo(float).eps)


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
                # keep accepted step k when the stride divides k (the start is
                # step 0), the steps that halving by [::2] keeps
                if self._count % self._stride:
                    return
        self.times.append(t)
        self.states.append(y.copy())
        if self.sample_dt is None and len(self.times) > _MAX_SAMPLES:
            self.times = self.times[::2]
            self.states = self.states[::2]
            self._stride *= 2


class _Member:
    """Step size, controller state, samples and counters of one state of a batch."""

    def __init__(self, y0: np.ndarray, cfg: IntegratorConfig):
        self.t = 0.0
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
        self.flags = 0  # DP5 steps flagged by the stiffness test, and unflagged ones since the last
        self.clear = 0
        self.t_stiff: float | None = None  # set when the state hands over to RKC
        self.stages = 0  # RKC stages of the current step
        self.rho: float | None = None  # spectral radius estimate; None when one is due
        self.rho_age = 0  # accepted steps since the estimate
        self.h_last: float | None = None  # the previous accepted RKC step
        self.result: SimulationResult | None = None
        self.error: IntegrationError | None = None

    @property
    def done(self) -> bool:
        return self.result is not None or self.error is not None

    def finish(self, y: np.ndarray, reason: str) -> None:
        if self.buffer.times[-1] != self.t:
            self.buffer.record(self.t, y, force=True)
        self.result = SimulationResult(
            final=y.reshape(2, -1).copy(),
            t_final=self.t,
            times=np.asarray(self.buffer.times),
            traj=np.array(self.buffer.states).reshape(len(self.buffer.times), 2, -1),
            positivity_violated=self.positivity_violated,
            steps_accepted=self.accepted,
            steps_rejected=self.rejected,
            rhs_evaluations=self.evals,
            reason=reason,
            final_residual=self.residual,
            positivity_clamps=self.clamps,
            min_state=self.min_state,
            t_stiff=self.t_stiff,
        )
        self.buffer = None  # the samples live on in traj alone


def _first_error(members: list[_Member]) -> IntegrationError | None:
    """The error of the first member without a result, None while that member
    runs: the error that integrating the states one by one would raise."""
    return next((m.error for m in members if m.result is None), None)


def _evaluate(field, states: np.ndarray) -> np.ndarray:
    """``field`` on flat (b, 2n) states, returned flat."""
    b = states.shape[0]
    return field(states.reshape(b, 2, -1)).reshape(b, -1)


def _rms(x: np.ndarray, scale: np.ndarray) -> list[float]:
    """Root mean square of ``x / scale`` over each row (the sum and division of ``np.mean``)."""
    q = x / scale
    q *= q
    return np.sqrt(np.add.reduce(q, axis=1) / q.shape[1]).tolist()


def _norms(x: np.ndarray) -> list[float]:
    """Euclidean norm of each row of ``x``."""
    return np.sqrt(np.add.reduce(x * x, axis=1)).tolist()


def _dp5_step(field, y: np.ndarray, f: np.ndarray, h: np.ndarray, cfg: IntegratorConfig):
    """One Dormand-Prince step of each row of ``y`` (``f`` the field there, ``h``
    a column of step sizes): the new states, their derivatives, the error
    norms, and the sixth stage's input and derivative for the stiffness test."""
    k = np.empty((len(y), 7, y.shape[1]))
    k[:, 0] = f
    for i in range(1, 6):
        stage = y + h * (_DP_A[i, :i] @ k[:, :i])
        k[:, i] = _evaluate(field, stage)
    y_new = y + h * (_DP_A[6, :6] @ k[:, :6])
    k[:, 6] = _evaluate(field, y_new)
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
    return y_new, k[:, 6], _rms(h * (_DP_ERR @ k), scale), stage, k[:, 5]


_RKC_TABLES: dict[int, tuple[float, tuple[tuple[float, ...], ...]]] = {}


def _rkc_table(s: int) -> tuple[float, tuple[tuple[float, ...], ...]]:
    """The s-stage damped RKC method: the weight mu~_1 of its first stage,
    Y_1 = y + h mu~_1 F(y), and the rows (mu_j, nu_j, 1 - mu_j - nu_j, mu~_j,
    a_{j-1}) of the stages j = 2..s,

        Y_j = mu_j Y_{j-1} + nu_j Y_{j-2} + (1 - mu_j - nu_j) y
              + h mu~_j (F(Y_{j-1}) - a_{j-1} F(y)),

    with Y_0 = y and Y_s the new state (rkc.f's RKCSTP)."""
    if s not in _RKC_TABLES:
        w0 = 1.0 + _RKC_DAMPING / (s * s)
        # Chebyshev polynomials T_j and their first two derivatives at w0
        z, dz, d2z = [1.0, w0], [0.0, 1.0], [0.0, 0.0]
        for j in range(2, s + 1):
            z.append(2.0 * w0 * z[j - 1] - z[j - 2])
            dz.append(2.0 * w0 * dz[j - 1] - dz[j - 2] + 2.0 * z[j - 1])
            d2z.append(2.0 * w0 * d2z[j - 1] - d2z[j - 2] + 4.0 * dz[j - 1])
        w1 = dz[s] / d2z[s]
        b = [0.25 / (w0 * w0)] * 2 + [d2z[j] / (dz[j] * dz[j]) for j in range(2, s + 1)]
        rows = []
        for j in range(2, s + 1):
            mu, nu = 2.0 * w0 * b[j] / b[j - 1], -b[j] / b[j - 2]
            rows.append((mu, nu, 1.0 - mu - nu, mu * w1 / w0, 1.0 - z[j - 1] * b[j - 1]))
        _RKC_TABLES[s] = (w1 * b[1], tuple(rows))
    return _RKC_TABLES[s]


def _rkc_step(field, y: np.ndarray, f: np.ndarray, h: np.ndarray, s: int, cfg: IntegratorConfig):
    """One s-stage damped RKC step of each row of ``y`` (``f`` the field
    there, ``h`` a column of step sizes): the new states, their derivatives
    and the error norms of rkc.f's estimate 0.8 (y - y_new) + 0.4 h (f +
    f_new), on the Dormand-Prince scale."""
    first, rows = _rkc_table(s)
    prev2, prev = y, y + h * first * f
    for mu, nu, rest, mus, a in rows:
        prev2, prev = prev, mu * prev + nu * prev2 + rest * y + h * mus * (_evaluate(field, prev) - a * f)
    f_new = _evaluate(field, prev)
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(prev))
    return prev, f_new, _rms(0.8 * (y - prev) + 0.4 * h * (f + f_new), scale)


def _estimate_spectral_radius(field, y: np.ndarray, f: np.ndarray, direction: np.ndarray, small: float):
    """rkc.f's nonlinear power iteration (RKCRHO) for the spectral radius of
    the Jacobian of ``field`` at each row of ``y`` (``f`` the field there).

    Each row's iteration starts along its row of ``direction`` and probes at
    a distance sqrt(eps) * ||y|| from y; it settles when two successive
    estimates agree to 1% of the larger of the estimate and ``small``.
    Returns per row 1.2 times the settled estimate, or NaN where it did not
    settle within the iteration limit; the direction of the last probe; and
    the number of probes, each one field evaluation.
    """
    n = y.shape[1]
    ynrm, dnrm = _norms(y), _norms(direction)
    v = np.empty_like(y)
    dist = []
    for i in range(len(y)):
        dist.append(ynrm[i] * _UROUND ** 0.5 if ynrm[i] > 0.0 else _UROUND)
        if dnrm[i] > 0.0:
            v[i] = y[i] + direction[i] * (dist[i] / dnrm[i])
        else:
            v[i] = y[i] + (y[i] * _UROUND ** 0.5 if ynrm[i] > 0.0 else _UROUND)
    rho, sigma, probes = [nan] * len(y), [0.0] * len(y), [_RKC_POWER_ITERATIONS] * len(y)
    pending = list(range(len(y)))
    for iteration in range(1, _RKC_POWER_ITERATIONS + 1):
        df = _evaluate(field, v[pending]) - f[pending]
        still = []
        for i, row, dfnrm in zip(pending, df, _norms(df)):
            previous, sigma[i] = sigma[i], dfnrm / dist[i]
            if iteration >= 2 and abs(sigma[i] - previous) <= 0.01 * max(sigma[i], small):
                rho[i], probes[i] = 1.2 * sigma[i], iteration
                continue
            if dfnrm > 0.0:
                v[i] = y[i] + row * (dist[i] / dfnrm)
            else:
                # v fell onto y: flip the sign of one component of v - y
                c = iteration % n
                v[i, c] = y[i, c] - (v[i, c] - y[i, c])
            still.append(i)
        pending = still
        if not pending:
            break
    return rho, v - y, probes


def _stack(inits: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """``inits`` as a new (B, 2, n) float array, or ValueError."""
    y = np.array(inits, dtype=float)
    if y.ndim != 3 or y.shape[1] != 2 or y.shape[0] * y.shape[2] == 0:
        raise ValueError(f"initial states must be (2, n) arrays with n >= 1, got an array of shape {y.shape}")
    return y


def integrate_batch(field, inits: Sequence[np.ndarray] | np.ndarray, cfg: IntegratorConfig = IntegratorConfig()) -> list[SimulationResult]:
    """Advance ``dY/dt = field(Y)`` from each state of ``inits`` until it stops.

    ``inits`` is a sequence of (2, n) states, u and v as the rows of each,
    or a (B, 2, n) stack of them; anything else raises ValueError.  Every
    state starts at t = 0.  ``field`` maps a (b, 2, n) stack of states to
    their time derivatives, and must treat the states of the stack
    independently.  Every state is integrated as if it were alone: it keeps
    its own step size, PI controller, accept/reject decisions, FSAL stage,
    stiffness count, clamps, stop test, samples and counters, and it leaves
    the batch when it stops on steady state (converged), ``t_max`` or
    ``max_steps``.  The states on the same method, and for RKC the same
    stage count, share each field call, and each array operation of the loop
    acts on every state's row on its own, so a state's result is bit for bit
    the one it gets in a batch of one.  Returns one SimulationResult per
    initial state, in order.

    A state steps with Dormand-Prince until DOPRI5's stiffness test has
    flagged 15 of its accepted steps with no 6 unflagged ones in a row
    between them; from then on (``t_stiff``) it steps with damped RKC: s =
    1 + floor(sqrt(1 + 1.54 h rho)) stages for the spectral radius estimate
    rho, which is refreshed every 25 accepted steps and after a rejection
    (unless it was estimated at that state), rkc.f's error estimate and
    step-size controller, and the same
    tolerances, stop tests, clamps and sampling.  Its ``rhs_evaluations``
    count every stage and every probe of the spectral radius estimate.

    A state whose step size underflows, whose spectral radius estimate does
    not settle, or that leaves the representable range entirely, fails with
    an IntegrationError.  The error raised is that of the first failing
    state in ``inits`` order, as soon as every state before it has stopped:
    the error a one-by-one run would raise.
    """
    y = _stack(inits)
    # row j of y, of f (the field there) and of rho_dir (where member j's
    # spectral radius estimate starts) belong to members[j] for the whole run
    y = y.reshape(len(y), -1)  # each row is concat(u, v)
    f, rho_dir = np.zeros_like(y), np.zeros_like(y)
    members = [_Member(row, cfg) for row in y]
    for m, finite in zip(members, np.isfinite(y).all(axis=1).tolist()):
        if not finite:
            m.error = IntegrationError("initial state contains non-finite values", m.t)
    error = _first_error(members)
    if error is not None:
        raise error
    live = [j for j, m in enumerate(members) if not m.done]  # the running members

    f[live] = _evaluate(field, y[live])
    for j, residual in zip(live, np.abs(f[live]).max(axis=1).tolist()):
        members[j].evals += 1
        members[j].residual = residual
        if residual <= cfg.steady_state_tol:
            members[j].finish(y[j], "steady_state")
    live = [j for j in live if not members[j].done]

    if live:
        # initial step sizes: the standard two-probe startup heuristic
        y0, f0 = y[live], f[live]
        scale = cfg.abs_tol + cfg.rel_tol * np.abs(y0)
        d0, d1 = _rms(y0, scale), _rms(f0, scale)
        h0 = [min(1e-6 if a < 1e-10 or b < 1e-10 else 0.01 * a / b, cfg.t_max) for a, b in zip(d0, d1)]
        f1 = _evaluate(field, y0 + np.array(h0)[:, None] * f0)
        for j, h, b, c in zip(live, h0, d1, _rms(f1 - f0, scale)):
            members[j].evals += 1
            d2 = c / h
            h1 = max(1e-6, h * 1e-3) if max(b, d2) <= 1e-15 else (0.01 / max(b, d2)) ** 0.2
            members[j].h = min(100.0 * h, h1, cfg.t_max)

    # spectral radii below this cannot limit a step within t_max
    small = 1.0 / cfg.t_max
    # rkc.f's bound on the stage count, which keeps rounding errors in check
    max_stages = max(2, round((cfg.rel_tol / (10.0 * _UROUND)) ** 0.5))
    while True:
        for j in live:
            m = members[j]
            if m.t >= cfg.t_max:
                m.finish(y[j], "t_max")
            elif m.accepted + m.rejected >= cfg.max_steps:
                m.finish(y[j], "max_steps")
            else:
                m.h = min(m.h, cfg.t_max - m.t)
                if m.h < 1e-14 * max(1.0, abs(m.t)):
                    m.error = IntegrationError("step size underflow", m.t)
        live = [j for j in live if not members[j].done]
        due = [j for j in live if members[j].t_stiff is not None and members[j].rho is None]
        if due:
            rho, rho_dir[due], probes = _estimate_spectral_radius(field, y[due], f[due], rho_dir[due], small)
            for j, r, k in zip(due, rho, probes):
                m = members[j]
                m.evals += k
                if isnan(r):
                    m.error = IntegrationError("spectral radius estimate did not converge", m.t)
                else:
                    m.rho, m.rho_age = r, 0
            live = [j for j in live if not members[j].done]
        error = _first_error(members)
        if error is not None:
            raise error
        if not live:
            return [m.result for m in members]

        # Dormand-Prince for the states not yet found stiff, RKC for the others
        dp = [j for j in live if members[j].t_stiff is None]
        rk = [j for j in live if members[j].t_stiff is not None]
        for j in rk:
            m = members[j]
            m.stages = 1 + int((1.0 + 1.54 * m.h * m.rho) ** 0.5)
            if m.stages > max_stages:
                m.stages = max_stages
                m.h = (max_stages * max_stages - 1) / (1.54 * m.rho)
        # step the running rows in place, keeping their states to restore on rejection
        y_old, f_old, errs = y[live], f[live], {}
        if dp:
            y[dp], f[dp], e, y6, f6 = _dp5_step(field, y[dp], f[dp], np.array([[members[j].h] for j in dp]), cfg)
            errs.update(zip(dp, e))
        for s in sorted({members[j].stages for j in rk}):
            group = [j for j in rk if members[j].stages == s]
            y[group], f[group], e = _rkc_step(field, y[group], f[group], np.array([[members[j].h] for j in group]), s, cfg)
            errs.update(zip(group, e))

        # accept or reject each step; exact solutions stay non-negative, so
        # clamp shallow undershoots of an accepted state to 0 and re-evaluate
        # those states, and flag deeper ones
        accepted, clamped = [], []
        for j, y_j, f_j, step_min in zip(live, y_old, f_old, y[live].min(axis=1).tolist()):
            m, err = members[j], errs[j]
            m.evals += 6 if m.t_stiff is None else m.stages
            if not (isfinite(err) and err <= 1.0):
                m.rejected += 1
                y[j], f[j] = y_j, f_j
                if m.t_stiff is None:
                    m.h *= _MIN_FACTOR if not isfinite(err) else max(_MIN_FACTOR, _SAFETY * err ** -0.2)
                else:
                    m.h *= _MIN_FACTOR if not isfinite(err) else 0.8 * err ** (-1 / 3)
                    if m.rho_age:  # else rho was estimated at this very state
                        m.rho = None
                continue
            accepted.append(j)
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
            f[clamped] = _evaluate(field, y[clamped])

        # the stiffness test of each Dormand-Prince step, on y7 and k7 as accepted
        flagged = {}  # y7 - y6 of each flagged step
        if dp:
            dy = y[dp] - y6
            for j, row, num, den in zip(dp, dy, _norms(f[dp] - f6), _norms(dy)):
                if den > 0.0 and members[j].h * num > _STIFF_BOUND * den:
                    flagged[j] = row

        residuals = np.abs(f[accepted]).max(axis=1).tolist()
        finite = np.isfinite(y[accepted]).all(axis=1).tolist()
        for j, residual, finite_j in zip(accepted, residuals, finite):
            m, err = members[j], errs[j]
            m.accepted += 1
            m.buffer.record(m.t, y[j])
            m.residual = residual
            if residual <= cfg.steady_state_tol:
                m.finish(y[j], "steady_state")
            elif not finite_j:
                m.error = IntegrationError("state became non-finite", m.t)
            elif m.t_stiff is None:
                factor = _MAX_FACTOR if err == 0.0 else _SAFETY * err ** -_BETA1 * m.err_prev ** _BETA2
                m.h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
                m.err_prev = max(err, 1e-10)
                if j not in flagged:
                    m.clear += 1
                    if m.clear == _STIFF_CLEAR:
                        m.flags = 0
                else:
                    m.flags, m.clear = m.flags + 1, 0
                    if m.flags == _STIFF_FLAGS:
                        m.t_stiff, rho_dir[j] = m.t, flagged[j]
            else:
                # rkc.f's predictive controller, from the last two steps once there are two
                if err == 0.0:
                    factor = _MAX_FACTOR
                elif m.h_last is None:
                    factor = 0.8 * err ** (-1 / 3)
                else:
                    factor = 0.8 * m.h / m.h_last * m.err_prev ** (1 / 3) * err ** (-2 / 3)
                m.h_last, m.err_prev = m.h, max(err, 1e-10)
                m.h *= min(_MAX_FACTOR, max(0.1, factor))
                m.rho_age += 1
                if m.rho_age == _RKC_RHO_EVERY:
                    m.rho = None
        live = [j for j in live if not members[j].done]


def simulate_skt(p: SktParams, g: Graph, inits: Sequence[np.ndarray] | np.ndarray,
                 cfg: IntegratorConfig = IntegratorConfig(), workers: int = 1) -> list[SimulationResult]:
    """Integrate the competition model on graph ``g`` from each state of ``inits``.

    The Laplacian of ``g`` is applied in the form ``graphs.laplacian_operator``
    picks.  The states are cut into ``min(workers, len(inits))`` contiguous
    slices, each integrated as one ``integrate_batch``: the first in this
    process, each other one in a process forked for it (where ``os.fork``
    exists; elsewhere all states form one batch).  A state's result does not
    depend on its batch-mates, so the results, in ``inits`` order, and the
    error raised, that of the first failing state in ``inits`` order, do not
    depend on ``workers``.
    """
    y = _stack(inits)
    op = laplacian_operator(g)
    _check_shapes(y.shape, op)
    field = _field(p, op)
    return [r for part in _forked(lambda part: integrate_batch(field, part, cfg), y, workers) for r in part]


def perturb_homogeneous(
    eq: Equilibrium,
    n_nodes: int,
    magnitude: float = 1e-2,
    seed: int = 0,
) -> np.ndarray:
    """Homogeneous coexistence state with i.i.d. relative noise, as a (2, n) array.

    ``u_i = u* (1 + e_i)`` with ``e_i`` uniform on [-magnitude, magnitude],
    independently for both species.  The noise is relative, so a magnitude
    below 1 keeps every perturbed density positive whatever u* and v* are.
    """
    require_int("n_nodes", n_nodes)
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    if not 0 <= magnitude < 1:
        raise ValueError(f"magnitude must be >= 0 and < 1, got {magnitude}")
    rng = rng_from(seed)
    u = eq.u_star * (1.0 + rng.uniform(-magnitude, magnitude, n_nodes))
    v = eq.v_star * (1.0 + rng.uniform(-magnitude, magnitude, n_nodes))
    return np.stack((u, v))


@dataclass(frozen=True)
class PatternMetrics:
    heterogeneity: float
    total_u: float
    total_v: float
    pct_change_u: float
    pct_change_v: float


def pattern_metrics(final: np.ndarray, eq: Equilibrium) -> PatternMetrics:
    """Deviation-from-homogeneity summary of a (2, n) final state.

    ``heterogeneity`` is ``max_i|u_i - mean(u)| + max_i|v_i - mean(v)|``;
    the percent changes compare the total abundances against the uniform
    coexistence totals ``n*u*`` and ``n*v*``.
    """
    u, v = final
    n = u.size
    het = float(np.abs(u - u.mean()).max() + np.abs(v - v.mean()).max())
    total_u = float(u.sum())
    total_v = float(v.sum())
    return PatternMetrics(
        heterogeneity=het,
        total_u=total_u,
        total_v=total_v,
        pct_change_u=100.0 * (total_u - n * eq.u_star) / (n * eq.u_star),
        pct_change_v=100.0 * (total_v - n * eq.v_star) / (n * eq.v_star),
    )


def write_trajectory_csv(result: SimulationResult, path) -> None:
    n = result.traj.shape[2]
    header = "t," + ",".join(f"u_{i}" for i in range(n)) + "," + ",".join(f"v_{i}" for i in range(n))
    row = ",".join(["%.17g"] * (2 * n + 1)) + "\n"  # fmt_float's format, a row at a time
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for t, state in zip(result.times.tolist(), result.traj):
            fh.write(row % (t, *state.ravel().tolist()))


def write_final_state_csv(state: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        fh.write("node,u,v\n")
        for i, (u, v) in enumerate(zip(*state.tolist())):
            fh.write(f"{i},{fmt_float(u)},{fmt_float(v)}\n")
