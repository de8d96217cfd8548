"""Integrator and dynamics assembly against closed-form oracles.

The two analytic anchors: single-node logistic growth (exact sigmoid) and
the pure linear diffusion semigroup (exact matrix exponential through the
Laplacian eigenbasis).  Everything else checks invariants the stepper must
preserve regardless of step-size choices.
"""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from crossnet import (
    DEFAULT_SKT_PARAMS,
    IntegrationError,
    IntegratorConfig,
    NonCoexistenceError,
    SktParams,
    build_graph,
    build_laplacian,
    eig_symmetric,
    equilibrium,
    gen_path,
    gen_ring,
    integrate_batch,
    pattern_metrics,
    perturb_homogeneous,
    reaction_terms,
    rhs,
    simulate_skt,
)
from crossnet import dynamics
from crossnet.dynamics import write_final_state_csv, write_trajectory_csv
from crossnet.graphs import Graph, GraphSpec
from conftest import assert_no_child_left

P = DEFAULT_SKT_PARAMS


def _per_species(fn):
    """A batch field from a function (u, v) -> (du, dv) of one state's rows."""
    return lambda y: np.stack(fn(y[:, 0], y[:, 1]), axis=1)


def logistic_exact(u0: float, r: float, a: float, t: float) -> float:
    cap = r / a
    return cap * u0 * math.exp(r * t) / (cap + u0 * (math.exp(r * t) - 1.0))


# ----------------------------------------------------------------- oracles


def test_single_node_logistic_matches_closed_form():
    p = SktParams(r1=1.3, r2=1.0, a1=0.7, a2=1.0, b1=0.0, b2=0.0)
    init = np.array([[0.2], [0.0]])
    g = Graph(1, [])
    cfg = IntegratorConfig(t_max=3.0, steady_state_tol=1e-30)
    res = simulate_skt(p, g, [init], cfg)[0]
    expect = logistic_exact(0.2, 1.3, 0.7, 3.0)
    assert res.final[0, 0] == pytest.approx(expect, rel=1e-7)
    assert res.final[1, 0] == 0.0  # zero stays zero exactly


def test_pure_diffusion_matches_matrix_exponential():
    g = gen_ring(16, 2)
    lap = build_laplacian(g)
    p = SktParams(r1=0.0, r2=0.0, a1=0.0, a2=0.0, b1=0.0, b2=0.0, d=0.4)
    rng = np.random.default_rng(3)
    u0 = rng.uniform(0.5, 2.0, 16)
    v0 = rng.uniform(0.5, 2.0, 16)
    t_end = 1.5
    cfg = IntegratorConfig(t_max=t_end, steady_state_tol=1e-30)
    res = simulate_skt(p, g, [np.array((u0, v0))], cfg)[0]
    vals, vecs = np.linalg.eigh(lap)
    decay = vecs @ np.diag(np.exp(-p.d * vals * t_end)) @ vecs.T
    assert np.allclose(res.final[0], decay @ u0, atol=1e-7)
    assert np.allclose(res.final[1], decay @ v0, atol=1e-7)


def test_pure_diffusion_conserves_totals():
    g = gen_ring(12, 1)
    p = SktParams(r1=0.0, r2=0.0, a1=0.0, a2=0.0, b1=0.0, b2=0.0, d=0.2, d12=1.0, d21=0.5)
    rng = np.random.default_rng(4)
    u0 = rng.uniform(0.5, 2.0, 12)
    v0 = rng.uniform(0.5, 2.0, 12)
    cfg = IntegratorConfig(t_max=2.0, steady_state_tol=1e-30)
    res = simulate_skt(p, g, [np.array((u0, v0))], cfg)[0]
    # transport terms are Laplacian images, so node totals are invariant
    assert res.final[0].sum() == pytest.approx(u0.sum(), rel=1e-10)
    assert res.final[1].sum() == pytest.approx(v0.sum(), rel=1e-10)


def test_homogeneous_equilibrium_converges_immediately():
    eq = equilibrium(P)
    g = gen_ring(10, 2)
    init = np.array((np.full(10, eq.u_star), np.full(10, eq.v_star)))
    res = simulate_skt(P, g, [init], IntegratorConfig())[0]
    assert res.converged
    assert res.t_converged == 0.0
    assert np.array_equal(res.final[0], init[0])
    assert np.array_equal(res.final[1], init[1])
    assert res.steps_accepted == 0


def _stiff_diffusion(rel_tol: float, t_end: float = 5.0):
    """Pure diffusion on a ring whose fast modes make DP5 hand over to RKC,
    and its exact final state."""
    g = gen_ring(50, 5)
    lap = build_laplacian(g)
    p = SktParams(r1=0.0, r2=0.0, a1=0.0, a2=0.0, b1=0.0, b2=0.0, d=5.0)
    rng = np.random.default_rng(3)
    init = rng.uniform(0.5, 2.0, (2, 50))
    cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=rel_tol * 1e-2, t_max=t_end, steady_state_tol=1e-30)
    res = simulate_skt(p, g, [init], cfg)[0]
    vals, vecs = np.linalg.eigh(lap)
    return res, init @ (vecs @ np.diag(np.exp(-p.d * vals * t_end)) @ vecs.T)


def test_stiff_diffusion_hands_over_to_rkc_and_matches_matrix_exponential():
    res, exact = _stiff_diffusion(IntegratorConfig().rel_tol)
    assert res.reason == "t_max" and 0.0 < res.t_stiff < res.t_final
    assert np.allclose(res.final, exact, atol=1e-7)
    # RKC stages are combinations of y and h*f, and f sums to 0 over the nodes
    assert res.final.sum(axis=1) == pytest.approx(res.traj[0].sum(axis=1), rel=1e-12)
    loose, tight = (np.abs(r.final - e).max() for r, e in (_stiff_diffusion(1e-6), _stiff_diffusion(1e-10)))
    assert tight < loose / 100


def test_rkc_stage_count_is_capped_as_in_rkc_f(monkeypatch):
    # at rel_tol 1e-12 rkc.f allows at most round(sqrt(rel_tol / (10 * uround))) = 21
    # stages; long steps on the slow modes of the stiff ring would take more
    stages = []
    rkc_step = dynamics._rkc_step

    def recording(field, y, f, h, s, cfg):
        stages.append(s)
        return rkc_step(field, y, f, h, s, cfg)

    monkeypatch.setattr(dynamics, "_rkc_step", recording)
    res, exact = _stiff_diffusion(1e-12, t_end=200.0)
    assert res.reason == "t_max" and res.t_stiff is not None
    assert max(stages) == 21
    assert np.allclose(res.final, exact, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("s", [2, 3, 5, 7, 11, 20], ids=[f"stages{i}" for i in range(6)])
def test_rkc_step_is_second_order_and_stable_on_its_interval(s):
    # on y' = z*y a step of size 1 multiplies y by the method's stability
    # polynomial R_s(z); the stage count rule s = 1 + floor(sqrt(1 + 1.54*h*rho))
    # picks s for h*rho < (s^2 - 1)/1.54, where |R_s| must stay <= 1
    from crossnet.dynamics import _rkc_step

    small = -np.logspace(-4, -1, 8)
    z = np.concatenate((small, -np.linspace(0.0, (s * s - 1) / 1.54, 2000)))
    field = lambda y: y * z.reshape(2, -1)  # noqa: E731
    y = np.ones((2, z.size))
    growth, f_new, _ = _rkc_step(field, y, y * z, np.ones((2, 1)), s, IntegratorConfig())
    assert np.array_equal(f_new, growth * z)
    for row in growth:
        assert np.abs(row[z >= -(s * s - 1) / 1.54]).max() <= 1.0
        # second order: the local error is O(z^3)
        assert np.all(np.abs(row[:8] - np.exp(small)) <= 0.2 * np.abs(small) ** 3 + 1e-15)


def test_spectral_radius_estimate_settles_on_the_largest_eigenvalue():
    # on y' = z*y the Jacobian is diag(z); starting along the ones vector,
    # whose first probe sees only the RMS of z, the power iteration must
    # settle on max|z| = 100 and report 1.2 times it
    from crossnet.dynamics import _estimate_spectral_radius

    z = -np.concatenate((np.linspace(1.0, 50.0, 79), [100.0]))
    field = lambda y: y * z.reshape(2, -1)  # noqa: E731
    y = np.full((1, 80), 2.0)
    (rho,), direction, (probes,) = _estimate_spectral_radius(field, y, y * z, np.ones((1, 80)), 0.0)
    assert rho == pytest.approx(120.0, rel=1e-2)
    assert 2 < probes <= 50
    # the next estimate starts along the settled direction and needs two probes
    (again,), _, (probes,) = _estimate_spectral_radius(field, y, y * z, direction, 0.0)
    assert probes == 2 and again == pytest.approx(120.0, rel=1e-2)


def _oscillator(y):
    # u' = 10 v, v' = -0.1 u: ||Ax|| / ||x|| alternates between 10 and 0.1
    # along the power iteration, so the spectral radius estimate never settles
    return np.stack((10.0 * y[:, 1], -0.1 * y[:, 0]), axis=1)


def test_spectral_radius_estimate_that_does_not_settle_gives_no_estimate():
    from crossnet.dynamics import _estimate_spectral_radius

    y, f = np.array([[1.0, 1.0]]), np.array([[10.0, -0.1]])
    (rho,), _, (probes,) = _estimate_spectral_radius(_oscillator, y, f, np.array([[1.0, 0.0]]), 0.0)
    assert np.isnan(rho)
    assert probes == 50


def test_unsettled_spectral_radius_estimate_fails_the_run():
    # at rel_tol 0.1 DOPRI5's steps grow until its stiffness test hands the
    # oscillator over to RKC, whose first spectral radius estimate fails
    cfg = IntegratorConfig(t_max=200.0, rel_tol=0.1, steady_state_tol=0.0)
    early, late = np.ones((2, 1)), np.array([[1.0], [0.0]])

    def failure_time(inits):
        with pytest.raises(IntegrationError, match="spectral radius estimate did not converge") as err:
            integrate_batch(_oscillator, inits, cfg)
        return err.value.time

    assert failure_time([early]) == pytest.approx(75.7219, abs=1e-4)
    assert failure_time([late]) > failure_time([early])
    # a batch raises its first member's failure, as one-by-one runs would
    assert failure_time([early, late]) == failure_time([early])
    assert failure_time([late, early]) == failure_time([late])


# --------------------------------------------------------------- rhs pieces


def test_reaction_terms_zero_at_equilibrium():
    eq = equilibrium(P)
    fu, fv = reaction_terms(np.array([eq.u_star]), np.array([eq.v_star]), P)
    assert abs(fu[0]) < 1e-14
    assert abs(fv[0]) < 1e-14


def test_rhs_zero_coupling_reduces_to_reaction():
    u = np.array([0.5, 1.0, 2.0])
    v = np.array([0.1, 0.2, 0.3])
    lap = build_laplacian(gen_path(3))
    p = SktParams(r1=2.0, r2=1.0, a1=1.0, a2=1.0, b1=0.5, b2=0.5)
    y = np.stack((u, v))
    du, dv = rhs(y, p, lap)
    # zero transport coefficients give a zero flux, so transport is exactly 0
    assert np.array_equal(rhs(y, p, np.zeros_like(lap)), np.stack((du, dv)))
    # the field groups r1 - a1*u - b1*v as r1 - (a1*u + b1*v), so it meets
    # reaction_terms to rounding: a few ulps of the terms' magnitude
    fu, fv = reaction_terms(u, v, p)
    ulp = np.finfo(float).eps
    assert np.all(np.abs(du - fu) <= 4 * ulp * u * (p.r1 + p.a1 * u + p.b1 * v))
    assert np.all(np.abs(dv - fv) <= 4 * ulp * v * (p.r2 + p.b2 * u + p.a2 * v))


class _CountingLaplacian:
    """A Laplacian stand-in that counts how often it is applied with ``@``."""

    __array_ufunc__ = None  # makes numpy hand `array @ self` to __rmatmul__

    def __init__(self, lap: np.ndarray):
        self.lap = lap
        self.shape = lap.shape
        self.applications = 0

    def __matmul__(self, other):
        self.applications += 1
        return self.lap @ other

    def __rmatmul__(self, other):
        self.applications += 1
        return other @ self.lap


def test_rhs_applies_the_laplacian_once_per_call():
    lap = build_laplacian(gen_ring(12, 3))
    rng = np.random.default_rng(5)
    u = rng.uniform(0.1, 2.0, 12)
    v = rng.uniform(0.1, 2.0, 12)
    all_nonzero = dataclasses.replace(P, d11=0.1, d22=0.2, d21=0.7)
    assert min(all_nonzero.d, all_nonzero.d11, all_nonzero.d12, all_nonzero.d21, all_nonzero.d22) > 0
    for p in (P, all_nonzero):
        counting = _CountingLaplacian(lap)
        for calls in range(1, 4):
            du, dv = rhs(np.stack((u, v)), p, counting)
            assert counting.applications == calls
        expect_du, expect_dv = rhs(np.stack((u, v)), p, lap)
        assert np.array_equal(du, expect_du) and np.array_equal(dv, expect_dv)

    # a stack of six states is one application too, and each state's
    # derivative is the one it gets alone
    stack = rng.uniform(0.1, 2.0, (6, 2, 12))
    for p in (P, all_nonzero):
        counting = _CountingLaplacian(lap)
        for calls in range(1, 4):
            out = rhs(stack, p, counting)
            assert counting.applications == calls
        assert out.shape == stack.shape
        for state, derivative in zip(stack, out):
            assert np.array_equal(derivative, rhs(state, p, lap))


def test_rhs_matches_bruteforce_formula():
    # direct loop over the model equations, no vectorization; the fixed
    # parameter set has every coefficient nonzero, the random draws set
    # each transport coefficient to zero in about a third of the draws; a
    # random asymmetric matrix checks that transport is lap @ flux for any
    # square lap, not only for a symmetric Laplacian
    rng = np.random.default_rng(8)
    g = gen_ring(7, 2)
    operators = (build_laplacian(g), np.random.default_rng(9).normal(size=(7, 7)))
    cases = [SktParams(r1=5.0, r2=2.0, a1=3.0, a2=3.0, b1=1.0, b2=1.0,
                       d=0.03, d11=0.1, d22=0.2, d12=3.0, d21=0.7)]
    names = ("d", "d11", "d22", "d12", "d21")
    for _ in range(40):
        coeffs = {name: float(rng.uniform(0.0, 3.0)) if rng.random() > 0.35 else 0.0 for name in names}
        cases.append(dataclasses.replace(cases[0], **coeffs))
    for name in names:
        assert any(getattr(p, name) == 0.0 for p in cases) and any(getattr(p, name) > 0.0 for p in cases)
    for p in cases:
        u = rng.uniform(0.1, 2.0, 7)
        v = rng.uniform(0.1, 2.0, 7)
        for lap in operators:
            du, dv = rhs(np.stack((u, v)), p, lap)
            for i in range(7):
                acc_u = u[i] * (p.r1 - p.a1 * u[i] - p.b1 * v[i])
                acc_v = v[i] * (p.r2 - p.b2 * u[i] - p.a2 * v[i])
                for j in range(7):
                    acc_u -= lap[i, j] * (p.d * u[j] + p.d11 * u[j] ** 2 + p.d12 * u[j] * v[j])
                    acc_v -= lap[i, j] * (p.d * v[j] + p.d22 * v[j] ** 2 + p.d21 * u[j] * v[j])
                assert du[i] == pytest.approx(acc_u, rel=1e-12, abs=1e-12)
                assert dv[i] == pytest.approx(acc_v, rel=1e-12, abs=1e-12)


def _random_self_diffusion_params(rng) -> SktParams:
    while True:
        p = SktParams(
            r1=float(rng.uniform(0.5, 6.0)), r2=float(rng.uniform(0.5, 6.0)),
            a1=float(rng.uniform(1.0, 4.0)), a2=float(rng.uniform(1.0, 4.0)),
            b1=float(rng.uniform(0.05, 0.95)), b2=float(rng.uniform(0.05, 0.95)),
            d=float(rng.uniform(0.0, 0.2)),
            d11=float(rng.uniform(0.05, 1.0)), d22=float(rng.uniform(0.05, 1.0)),
            d12=float(rng.uniform(0.0, 5.0)), d21=float(rng.uniform(0.0, 5.0)),
        )
        try:
            equilibrium(p)
        except NonCoexistenceError:
            continue
        return p


def test_rhs_linearization_is_the_stability_mode_matrix():
    # along each Laplacian eigenpair (lam, phi) the simulated right-hand side
    # must linearize to J - lam*D, the matrix the stability analysis uses;
    # the rhs is quadratic, so central differences are exact up to rounding
    lap = build_laplacian(gen_ring(9, 2))
    vals, vecs = np.linalg.eigh(lap)
    rng = np.random.default_rng(31)
    h = 1e-3
    zero = np.zeros(9)
    for _ in range(20):
        p = _random_self_diffusion_params(rng)
        eq = equilibrium(p)
        u0 = np.full(9, eq.u_star)
        v0 = np.full(9, eq.v_star)
        for lam, phi in zip(vals, vecs.T):
            expect = eq.j_star - lam * eq.d_star
            for col, (du_dir, dv_dir) in enumerate(((phi, zero), (zero, phi))):
                plus = rhs(np.stack((u0 + h * du_dir, v0 + h * dv_dir)), p, lap)
                minus = rhs(np.stack((u0 - h * du_dir, v0 - h * dv_dir)), p, lap)
                for row in range(2):
                    deriv = (plus[row] - minus[row]) / (2.0 * h)
                    assert np.abs(deriv - expect[row, col] * phi).max() <= 1e-6


# ------------------------------------------------------------- perturbation


def test_perturb_zero_magnitude_exact():
    eq = equilibrium(P)
    st8 = perturb_homogeneous(eq, 5, magnitude=0.0, seed=3)
    assert np.all(st8[0] == eq.u_star)
    assert np.all(st8[1] == eq.v_star)


def test_perturb_deterministic_and_seed_sensitive():
    eq = equilibrium(P)
    a = perturb_homogeneous(eq, 50, magnitude=1e-2, seed=0)
    b = perturb_homogeneous(eq, 50, magnitude=1e-2, seed=0)
    c = perturb_homogeneous(eq, 50, magnitude=1e-2, seed=1)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0])


def test_perturb_bounds_and_positivity():
    eq = equilibrium(P)
    s = perturb_homogeneous(eq, 2000, magnitude=0.05, seed=9)
    assert np.all(s[0] > 0) and np.all(s[1] > 0)
    assert np.all(np.abs(s[0] / eq.u_star - 1.0) <= 0.05)
    assert np.all(np.abs(s[1] / eq.v_star - 1.0) <= 0.05)


def test_perturb_sample_moments():
    eq = equilibrium(P)
    s = perturb_homogeneous(eq, 20000, magnitude=0.1, seed=2)
    rel = s[0] / eq.u_star - 1.0
    # uniform on [-0.1, 0.1]: mean 0, var m^2/3
    assert abs(rel.mean()) < 0.005
    assert rel.var() == pytest.approx(0.1**2 / 3.0, rel=0.1)


def test_perturb_magnitude_guard():
    eq = equilibrium(P)
    for magnitude in (1.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match=rf"magnitude must be >= 0 and < 1, got {magnitude}"):
            perturb_homogeneous(eq, 10, magnitude=magnitude)
    for n_nodes in (2.5, True):
        with pytest.raises(ValueError, match=f"n_nodes must be an integer, got {n_nodes}"):
            perturb_homogeneous(eq, n_nodes)
    # the noise is relative: a magnitude above v* = 0.125 still keeps v positive
    s = perturb_homogeneous(eq, 1000, magnitude=0.9, seed=5)
    assert np.all(s[0] > 0) and np.all(s[1] > 0)


# ---------------------------------------------------------------- stepper


def test_converged_flag_is_sound():
    g = build_graph(GraphSpec(family="ring", n=30, k=3))
    lap = build_laplacian(g)
    eq = equilibrium(P)
    init = perturb_homogeneous(eq, 30, magnitude=1e-2, seed=1)
    cfg = IntegratorConfig(steady_state_tol=1e-6)
    res = simulate_skt(P, g, [init], cfg)[0]
    assert res.converged
    du, dv = rhs(res.final, P, lap)
    assert res.final_residual == max(np.abs(du).max(), np.abs(dv).max()) <= cfg.steady_state_tol
    assert res.t_converged == res.t_final


def test_t_max_stop_reason():
    g = gen_ring(10, 2)
    eq = equilibrium(P)
    init = perturb_homogeneous(eq, 10, magnitude=1e-2, seed=0)
    res = simulate_skt(P, g, [init], IntegratorConfig(t_max=1.0, steady_state_tol=1e-30))[0]
    assert not res.converged
    assert res.reason == "t_max"
    assert res.t_final == pytest.approx(1.0, abs=1e-12)


def test_max_steps_stop_reason():
    g = gen_ring(10, 2)
    eq = equilibrium(P)
    init = perturb_homogeneous(eq, 10, magnitude=1e-2, seed=0)
    res = simulate_skt(P, g, [init], IntegratorConfig(max_steps=5, steady_state_tol=1e-30))[0]
    assert not res.converged
    assert res.reason == "max_steps"
    assert res.steps_accepted <= 5


@pytest.mark.parametrize("cfg", [IntegratorConfig(max_steps=1, steady_state_tol=0.999), IntegratorConfig(t_max=0.01, steady_state_tol=0.999)], ids=["max_steps", "t_max"])
def test_steady_state_on_the_last_step_is_reported_as_steady_state(cfg):
    # y' = -y from 1 takes one accepted step of h ~ 0.01 to a residual of
    # 0.990, which meets the steady-state test on the step that also reaches
    # the step or time limit; the state behind it runs on to that limit
    solo = integrate_batch(lambda y: -y, [np.ones((2, 1))], cfg)
    batch = integrate_batch(lambda y: -y, [np.ones((2, 1)), np.full((2, 1), 3.0)], cfg)
    assert solo[0].reason == batch[0].reason == "steady_state"
    assert solo[0].steps_accepted == batch[0].steps_accepted == 1
    assert solo[0].t_final == batch[0].t_final == pytest.approx(0.01, rel=0.01)
    assert batch[1].reason == ("max_steps" if cfg.max_steps == 1 else "t_max")


def test_state_that_becomes_non_finite_on_the_last_step_raises():
    # u' = 1e308 from u = 1.79e308 overflows on the first accepted step (the
    # error norm ignores the infinite component), which is also the last one;
    # up to |u| = 1e300 the field is y' = -y, past it (or at an overflowed
    # stage) u' is 1e308
    def field(y):
        d = -y
        d[:, 0] = np.where(np.abs(y[:, 0]) <= 1e300, d[:, 0], 1e308)
        return d

    init = np.array([[1.79e308], [1.0]])
    for inits in ([init], [init, np.ones((2, 1))]):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(IntegrationError, match="state became non-finite"):
            integrate_batch(field, inits, IntegratorConfig(max_steps=1))


def test_nonfinite_state_raises_with_time():
    # negative quadratic "competition" coefficients are rejected by SktParams,
    # so drive blowup through a custom rhs
    init = np.array([[1.0], [1.0]])

    def explosive(u, v):
        return u * u * 100.0, v * 0.0

    with pytest.raises(IntegrationError) as err:
        integrate_batch(_per_species(explosive), [init], IntegratorConfig(t_max=10.0, steady_state_tol=1e-30))
    assert err.value.time is not None


def test_nonfinite_initial_state_raises_before_any_step():
    calls = []

    def field(y):
        calls.append(len(y))
        return -y

    good = np.ones((2, 3))
    bad = good.copy()
    bad[1, 2] = np.nan
    with pytest.raises(IntegrationError, match="initial state contains non-finite values") as err:
        integrate_batch(field, [bad], IntegratorConfig(t_max=1.0))
    assert err.value.time == 0.0
    assert calls == []
    # behind a finite state, the batch raises once that state has stopped
    with pytest.raises(IntegrationError, match="initial state contains non-finite values"):
        integrate_batch(field, [good, bad], IntegratorConfig(t_max=1.0))
    assert calls and set(calls) == {1}


def test_integrator_deterministic():
    g = gen_ring(20, 3)
    eq = equilibrium(P)
    init = perturb_homogeneous(eq, 20, magnitude=1e-2, seed=5)
    cfg = IntegratorConfig(t_max=20.0, steady_state_tol=1e-30)
    r1 = simulate_skt(P, g, [init], cfg)[0]
    r2 = simulate_skt(P, g, [init], cfg)[0]
    assert np.array_equal(r1.final[0], r2.final[0])
    assert np.array_equal(r1.times, r2.times)
    assert r1.steps_accepted == r2.steps_accepted


def test_tighter_tolerance_reduces_error():
    p = SktParams(r1=1.3, r2=1.0, a1=0.7, a2=1.0, b1=0.0, b2=0.0)
    init = np.array([[0.2], [0.0]])
    g = Graph(1, [])
    expect = logistic_exact(0.2, 1.3, 0.7, 3.0)
    errs = []
    for rt in (1e-5, 1e-8, 1e-11):
        cfg = IntegratorConfig(rel_tol=rt, abs_tol=rt * 1e-2, t_max=3.0, steady_state_tol=1e-30)
        res = simulate_skt(p, g, [init], cfg)[0]
        errs.append(abs(res.final[0, 0] - expect))
    assert errs[0] > errs[2]
    assert errs[2] < 1e-10


def test_sampling_honors_sample_dt():
    g = gen_ring(10, 2)
    eq = equilibrium(P)
    init = perturb_homogeneous(eq, 10, magnitude=1e-2, seed=0)
    res = simulate_skt(P, g, [init], IntegratorConfig(t_max=10.0, sample_dt=1.0, steady_state_tol=1e-30))[0]
    assert res.times[0] == 0.0
    assert res.times[-1] == pytest.approx(10.0, abs=1e-12)
    # grid-aligned sampling: at most one sample per sample_dt interval
    assert np.all(np.diff(res.times) > 0)
    assert res.times.size <= 10 / 1.0 + 2
    assert res.traj.shape == (res.times.size, 2, 10)


def _rotation(y):
    # a rotation about (2, 2) from (3, 2) never settles, so a run takes many
    # more accepted steps than it keeps samples
    u, v = y[:, 0], y[:, 1]
    return np.stack((2.0 - v, u - 2.0), axis=1)


_ROTATION_START = [np.array([[3.0], [2.0]])]


def test_unset_sample_dt_samples_on_the_t_max_over_1024_grid():
    cfg = IntegratorConfig(t_max=500.0, steady_state_tol=0.0)
    res = integrate_batch(_rotation, _ROTATION_START, cfg)[0]
    grid = integrate_batch(_rotation, _ROTATION_START, dataclasses.replace(cfg, sample_dt=500.0 / 1024))[0]
    assert res.steps_accepted > 4096
    assert np.array_equal(res.times, grid.times) and np.array_equal(res.traj, grid.traj)
    # the start, at most one sample in each grid interval after the first, and the final state
    assert res.times[0] == 0.0 and res.times[-1] == res.t_final == pytest.approx(500.0)
    cells = np.floor(res.times[1:-1] / (500.0 / 1024))
    assert cells.min() >= 1 and np.all(np.diff(cells) >= 1)
    assert 1000 < res.times.size <= 1026
    assert np.array_equal(res.traj[-1], res.final)


def test_infinite_t_max_keeps_the_start_and_the_final_state():
    cfg = IntegratorConfig(t_max=math.inf, steady_state_tol=0.0, max_steps=500)
    res = integrate_batch(_rotation, _ROTATION_START, cfg)[0]
    assert res.reason == "max_steps" and res.steps_accepted > 100
    assert res.times.tolist() == [0.0, res.t_final]
    assert np.array_equal(res.traj, [_ROTATION_START[0], res.final])


def test_positivity_check_and_flag():
    g = gen_ring(15, 2)
    eq = equilibrium(P)
    init = perturb_homogeneous(eq, 15, magnitude=1e-2, seed=2)
    res = simulate_skt(P, g, [init], IntegratorConfig(t_max=50.0, steady_state_tol=1e-30))[0]
    assert not res.positivity_violated


def test_shallow_undershoots_are_clamped_counted_and_reported():
    # du/dt = -u - eps has its rest point at u = -eps, a shallow undershoot
    # (eps < 10*abs_tol): the stepper crosses zero, clamps u back to 0 on
    # every step that ends below it, and records the lowest unclamped value
    cfg = IntegratorConfig(t_max=40.0, steady_state_tol=0.0)
    eps = 5.0 * cfg.abs_tol
    res = integrate_batch(_per_species(lambda u, v: (-u - eps, np.zeros_like(v))), [np.array([[1.0], [0.5]])], cfg)[0]
    assert not res.positivity_violated
    assert res.positivity_clamps >= 1
    assert res.positivity_clamps <= res.steps_accepted
    assert -eps <= res.min_state < 0.0
    assert res.final[0, 0] == 0.0 and res.final[1, 0] == 0.5

    # a growing state clamps nothing; its minimum is the initial one
    res = integrate_batch(_per_species(lambda u, v: (u, np.zeros_like(v))), [np.array([[1.0], [0.5]])], dataclasses.replace(cfg, t_max=1.0))[0]
    assert res.positivity_clamps == 0
    assert res.min_state == 0.5


# ----------------------------------------------------------------- batches


def _assert_same_result(a, b):
    """Every field of two SimulationResults is bit for bit equal."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.shape == y.shape and np.array_equal(x, y), f.name
        else:
            assert type(x) is type(y) and x == y, f.name


@pytest.mark.parametrize("n, k, t_max", [(37, 3, 300.0), (400, 20, 30.0)])
def test_batch_members_equal_their_solo_runs(n, k, t_max):
    # mixed perturbation sizes give the members different step counts and
    # fates (steady state or t_max), so they leave the batch at different steps
    g = gen_ring(n, k)
    eq = equilibrium(P)
    inits = [perturb_homogeneous(eq, n, m, seed=s) for s, m in enumerate((1e-2, 0.3, 1e-4, 0.1, 1e-3))]
    cfg = IntegratorConfig(t_max=t_max, steady_state_tol=1e-6)
    solo = [simulate_skt(P, g, [init], cfg)[0] for init in inits]
    assert len({r.steps_accepted for r in solo}) > 1
    assert {r.reason for r in solo} >= {"steady_state"}
    for members in ((3, 0), (0, 1, 2, 3, 4)):
        batch = simulate_skt(P, g, [inits[j] for j in members], cfg)
        assert len(batch) == len(members)
        for j, res in zip(members, batch):
            _assert_same_result(res, solo[j])


def test_batch_mixing_rkc_and_dp5_members_equals_their_solo_runs():
    # by t = 20 three of these states have handed over to RKC, at different
    # times, and two have not; one of them converges
    g = gen_ring(30, 3)
    eq = equilibrium(P)
    inits = [perturb_homogeneous(eq, 30, m, seed=s) for s, m in enumerate((1e-2, 0.3, 1e-4, 0.1, 1e-3))]
    cfg = IntegratorConfig(t_max=20.0, steady_state_tol=1e-6)
    solo = [simulate_skt(P, g, [init], cfg)[0] for init in inits]
    switched = [r.t_stiff is not None for r in solo]
    assert any(switched) and not all(switched)
    assert len({r.t_stiff for r in solo if r.t_stiff is not None}) > 1
    assert {r.reason for r in solo} == {"steady_state", "t_max"}
    for members in ((1, 0), (0, 1, 2, 3, 4), (4, 3)):
        for j, res in zip(members, simulate_skt(P, g, [inits[j] for j in members], cfg)):
            _assert_same_result(res, solo[j])


def _relax_at_rate_v(y):
    # u relaxes at rate v towards -eps, a shallow undershoot of 0; v is constant
    u, v = y[:, 0], y[:, 1]
    return np.stack((-v * (u + 5e-10), np.zeros_like(v)), axis=1)


def test_batch_with_mixed_fates_matches_solo_runs():
    cfg = IntegratorConfig(t_max=40.0, steady_state_tol=0.0, max_steps=300)
    u0 = [1.0, 0.5, 2.0]
    rates = (1000.0, 0.0, 1.0, 0.01, 10.0)
    inits = [np.array((u0, [rate] * 3)) for rate in rates]
    batch = integrate_batch(_relax_at_rate_v, inits, cfg)
    for init, res in zip(inits, batch):
        _assert_same_result(res, integrate_batch(_relax_at_rate_v, [init], cfg)[0])
    stiff, steady, clamping, slow, fast = batch
    assert steady.reason == "steady_state" and steady.steps_accepted == 0 and steady.rhs_evaluations == 1
    assert slow.reason == "t_max" and slow.positivity_clamps == 0
    assert clamping.reason == "t_max" and clamping.positivity_clamps >= 1 and not clamping.positivity_violated
    assert fast.reason == "max_steps" and fast.steps_rejected == 0
    assert stiff.reason == "max_steps" and stiff.steps_rejected >= 1


def test_batch_of_rkc_members_on_different_stage_counts_equals_their_solo_runs(monkeypatch):
    # u relaxes towards 1 at the rate v, so each state turns stiff, and the
    # stiffer it is, the more stages its RKC steps take
    def relax(y):
        u, v = y[:, 0], y[:, 1]
        return np.stack((-v * (u - 1.0), np.zeros_like(v)), axis=1)

    cfg = IntegratorConfig(t_max=5.0)
    inits = [np.array(([1.5, 0.5, 1.0], [rate] * 3)) for rate in (50.0, 400.0, 3000.0)]
    solo = [integrate_batch(relax, [init], cfg)[0] for init in inits]
    assert all(r.t_stiff is not None for r in solo)

    calls = []  # the states of each RKC step call, named by their rounded v
    rkc_step = dynamics._rkc_step

    def recording(field, y, f, h, s, cfg):
        calls.append(set(np.rint(y[:, -1]).tolist()))
        return rkc_step(field, y, f, h, s, cfg)

    monkeypatch.setattr(dynamics, "_rkc_step", recording)
    for res, alone in zip(integrate_batch(relax, inits, cfg), solo):
        _assert_same_result(res, alone)
    # stepping all RKC states in one call per pass of the loop would put a
    # state in every call from its first RKC step to its last; a state
    # missing from a call in between was left to another stage count's call
    spans = [[i for i, states in enumerate(calls) if rate in states] for rate in (50.0, 400.0, 3000.0)]
    assert any(len(span) < span[-1] - span[0] + 1 for span in spans)


def test_batch_raises_the_error_of_the_first_failing_member():
    # du/dt = u*(v*u - 1) with u(0) = 1 blows up for v > 1 and decays for v < 1;
    # the v = 100 member fails after fewer steps than the v = 1.05 member
    def field(y):
        u, v = y[:, 0], y[:, 1]
        return np.stack((u * (v * u - 1.0), np.zeros_like(v)), axis=1)

    cfg = IntegratorConfig(t_max=100.0, steady_state_tol=1e-30)
    decays, late, early = (np.array([[1.0], [v]]) for v in (1e-3, 1.05, 100.0))
    assert integrate_batch(field, [decays], cfg)[0].reason == "t_max"

    def error(inits):
        with pytest.raises(IntegrationError) as err:
            integrate_batch(field, inits, cfg)
        return str(err.value), err.value.time

    for inits, first in (([decays, early], early), ([early, decays], early),
                         ([late, early], late), ([decays, early, late], early)):
        assert error(inits) == error([first])
    assert error([late]) != error([early])


# ----------------------------------------------------------------- workers


def test_results_do_not_depend_on_the_number_of_workers():
    # the mixed DP5 and RKC batch above: its members stop at different steps
    g = gen_ring(30, 3)
    eq = equilibrium(P)
    inits = [perturb_homogeneous(eq, 30, m, seed=s) for s, m in enumerate((1e-2, 0.3, 1e-4, 0.1, 1e-3))]
    cfg = IntegratorConfig(t_max=20.0, steady_state_tol=1e-6)
    serial = simulate_skt(P, g, inits, cfg, workers=1)
    assert len({r.steps_accepted for r in serial}) == len(serial)
    assert {r.t_stiff is None for r in serial} == {True, False}
    for workers in (2, 3, 9):
        results = simulate_skt(P, g, inits, cfg, workers=workers)
        assert len(results) == len(inits)
        for a, b in zip(results, serial):
            _assert_same_result(a, b)
        assert_no_child_left()


def _failing(*depths):
    """Four perturbed states on the ring (30, 3); state j with a depth has
    u = -depth at node 0, and its step size underflows, the sooner the deeper."""
    eq = equilibrium(P)
    inits = [perturb_homogeneous(eq, 30, 1e-2, seed=s) for s in range(4)]
    for y, depth in zip(inits, depths):
        if depth:
            y[0, 0] = -depth
    return inits


@pytest.mark.parametrize("inits, first", [
    (_failing(0, 0, 0, 2.0), 3),  # in the second slice only
    (_failing(0, 2.0, 10.0, 0), 1),  # in both slices, the later failure first
    (_failing(10.0, 0, 2.0, 2.0), 0),
])
def test_a_failing_state_raises_the_serial_error_whatever_the_workers(inits, first):
    g = gen_ring(30, 3)
    cfg = IntegratorConfig(t_max=20.0, steady_state_tol=1e-6)

    def error(states, workers):
        with pytest.raises(IntegrationError) as err:
            simulate_skt(P, g, states, cfg, workers=workers)
        assert_no_child_left()
        return str(err.value), err.value.time

    serial = error(inits, 1)
    assert serial == error([inits[first]], 1)
    assert serial[1] > 0.0
    for workers in (2, 3):
        assert error(inits, workers) == serial


def test_a_worker_count_below_one_is_rejected():
    inits = [np.ones((2, 3))]
    for workers in (0, -1, 1.5):
        with pytest.raises(ValueError, match="workers"):
            simulate_skt(P, gen_ring(3, 1), inits, workers=workers)


def test_finished_members_keep_their_samples_once():
    # a rotation keeps every step small, so each of the four members records
    # about a thousand samples, which dominate the traced peak: the samples
    # once, plus one member's list while it is stacked into its traj (a
    # quarter), plus one step's working arrays
    def rotate(y):
        return np.stack((-y[:, 1], y[:, 0]), axis=1)

    cfg = IntegratorConfig(t_max=32.0, sample_dt=1e-3, rel_tol=1e-10, steady_state_tol=0.0)
    inits = [np.ones((2, 500))] * 4
    tracemalloc.start()
    try:
        results = integrate_batch(rotate, inits, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(len(r.times) > 1000 for r in results)
    assert peak < 1.3 * sum(r.traj.nbytes for r in results)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_max=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(max_steps=0)
    with pytest.raises(ValueError):
        IntegratorConfig(sample_dt=0.0)


@pytest.mark.parametrize("name, value", [
    ("rel_tol", math.nan), ("abs_tol", math.nan), ("t_max", math.nan), ("steady_state_tol", math.nan),
    ("max_steps", math.nan), ("sample_dt", math.nan),
    ("rel_tol", math.inf), ("abs_tol", math.inf), ("steady_state_tol", math.inf), ("sample_dt", math.inf),
])
def test_config_rejects_nan_and_infinite_settings(name, value):
    with pytest.raises(ValueError, match=name):
        IntegratorConfig(**{name: value})


def test_config_accepts_infinite_t_max():
    assert IntegratorConfig(t_max=math.inf).t_max == math.inf


@pytest.mark.parametrize("inits", [
    pytest.param([np.zeros(3)], id="one-species"),
    pytest.param([np.zeros((3, 4))], id="three-species"),
    pytest.param([np.zeros((2, 2, 2))], id="2-d-species"),
    pytest.param([np.zeros((2, 0))], id="no-nodes"),
    pytest.param([], id="no-states"),
    pytest.param(np.zeros((2, 3)), id="bare-state"),
    pytest.param([np.zeros((2, 3)), np.zeros((2, 4))], id="ragged"),
])
def test_integrate_batch_rejects_states_that_are_not_2_by_n(inits):
    field = _per_species(lambda u, v: (-u, -v))
    with pytest.raises(ValueError):
        integrate_batch(field, inits)


def test_integrate_batch_takes_a_stack_or_a_sequence_of_states():
    field = _per_species(lambda u, v: (-u, -v))
    cfg = IntegratorConfig(t_max=1.0)
    stack = np.array([[[1.0, 2.0], [3.0, 4.0]], [[0.5, 0.5], [0.0, 1.0]]])
    for a, b in zip(integrate_batch(field, stack, cfg), integrate_batch(field, list(stack), cfg)):
        _assert_same_result(a, b)
        assert a.final.shape == (2, 2) and a.traj.shape == (a.times.size, 2, 2)


# ------------------------------------------------------------ metrics, I/O


def test_pattern_metrics_homogeneous_is_flat():
    eq = equilibrium(P)
    state = np.array((np.full(8, eq.u_star), np.full(8, eq.v_star)))
    m = pattern_metrics(state, eq)
    assert m.heterogeneity == 0.0
    assert m.pct_change_u == 0.0
    assert m.pct_change_v == 0.0


def test_pattern_metrics_known_values():
    state = np.array([[1.0, 3.0], [2.0, 2.0]])
    m = pattern_metrics(state, equilibrium(SktParams(r1=2, r2=1, a1=1, a2=1, b1=0, b2=0)))  # (u*, v*) = (2, 1)
    assert m.heterogeneity == 1.0  # u deviates by 1, v by 0
    assert m.total_u == 4.0
    assert m.pct_change_u == 0.0
    assert m.pct_change_v == pytest.approx(100.0)


def test_trajectory_csv_layout(tmp_path):
    g = gen_ring(4, 1)
    eq = equilibrium(P)
    init = perturb_homogeneous(eq, 4, magnitude=1e-2, seed=0)
    res = simulate_skt(P, g, [init], IntegratorConfig(t_max=1.0, sample_dt=0.5, steady_state_tol=1e-30))[0]
    path = tmp_path / "traj.csv"
    write_trajectory_csv(res, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t," + ",".join(f"u_{i}" for i in range(4)) + "," + ",".join(f"v_{i}" for i in range(4))
    assert len(lines) == res.times.size + 1
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1:5] == list(init[0])


def test_final_state_csv_layout(tmp_path):
    state = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "final.csv"
    write_final_state_csv(state, path)
    assert path.read_text() == "node,u,v\n0,1,3\n1,2,4\n"
