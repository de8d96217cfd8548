"""Linear stability pipeline against hand-derived and high-precision constants.

The benchmark parameter set (r1=5, r2=2, a1=a2=3, b1=b2=1, d=0.03, d12=3,
d21=0) has an exact rational equilibrium, so most expected values below are
exact in double precision.  The two window endpoints were frozen from a
60-digit decimal evaluation of the quadratic.
"""
import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crossnet import (
    DEFAULT_SKT_PARAMS,
    NonCoexistenceError,
    SktParams,
    StabilityError,
    classify_modes,
    det_sign_scan,
    equilibrium,
    report_to_dict,
    ring_spectrum_closed_form,
    stability_report,
)

P = DEFAULT_SKT_PARAMS

# frozen from exact rational / 60-digit decimal evaluation
U_STAR, V_STAR = 1.625, 0.125            # 13/8, 1/8
TRACE_J, DET_J = -5.25, 1.625            # -21/4, 13/8
ALPHA, BETA = 0.15625, -7.71875          # 5/32, -247/32
CROSS_GAIN = 0.46875                     # 15/32
LAMBDA_STAR = 52.0 / 15.0
LAMBDA_1 = 7.30260408181750832340544980257
LAMBDA_2 = 18.3146798687997756272118341480


# ------------------------------------------------------------- equilibrium


def test_benchmark_equilibrium_exact():
    eq = equilibrium(P)
    u, v = eq.u_star, eq.v_star
    assert u == U_STAR
    assert v == V_STAR


def test_equilibrium_solves_reaction_zero():
    eq = equilibrium(P)
    u, v = eq.u_star, eq.v_star
    assert P.r1 - P.a1 * u - P.b1 * v == pytest.approx(0.0, abs=1e-14)
    assert P.r2 - P.b2 * u - P.a2 * v == pytest.approx(0.0, abs=1e-14)


def test_noncoexistence_raises():
    # r1 large enough that species 2 is excluded: v* <= 0
    p = SktParams(r1=50.0, r2=2.0, a1=3.0, a2=3.0, b1=1.0, b2=1.0)
    with pytest.raises(NonCoexistenceError):
        equilibrium(p)


def test_degenerate_competition_raises():
    p = SktParams(r1=5.0, r2=2.0, a1=1.0, a2=1.0, b1=1.0, b2=1.0)
    with pytest.raises(StabilityError, match="a1\\*a2"):
        equilibrium(p)


def test_weak_competition_flag():
    assert P.weak_competition
    strong = SktParams(r1=5.0, r2=2.0, a1=1.0, a2=1.0, b1=2.0, b2=2.0)
    assert not strong.weak_competition


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.5, 8.0), st.floats(0.5, 8.0),
    st.floats(1.0, 5.0), st.floats(1.0, 5.0),
    st.floats(0.0, 0.9), st.floats(0.0, 0.9),
)
def test_equilibrium_satisfies_linear_system(r1, r2, a1, a2, b1, b2):
    p = SktParams(r1=r1, r2=r2, a1=a1, a2=a2, b1=b1, b2=b2)
    assume(p.weak_competition)
    try:
        eq = equilibrium(p)
        u, v = eq.u_star, eq.v_star
    except NonCoexistenceError:
        return
    assert u > 0 and v > 0
    assert np.isclose(a1 * u + b1 * v, r1, atol=1e-9)
    assert np.isclose(b2 * u + a2 * v, r2, atol=1e-9)


# ---------------------------------------------------------------- matrices


def test_jacobian_benchmark_exact():
    eq = equilibrium(P)
    expect = np.array([[-4.875, -1.625], [-0.125, -0.375]])
    assert np.array_equal(eq.j_star, expect)
    assert eq.trace_j == TRACE_J
    assert eq.det_j == DET_J


def test_diffusion_matrix_benchmark_exact():
    eq = equilibrium(P)
    expect = np.array([[0.405, 4.875], [0.0, 0.03]])
    assert np.allclose(eq.d_star, expect, atol=1e-15)


def test_jacobian_stable_under_weak_competition():
    eq = equilibrium(P)
    eigs = np.linalg.eigvals(eq.j_star)
    assert np.all(eigs.real < 0)


# -------------------------------------------------------- window constants


def test_benchmark_report_constants():
    rep = stability_report(P)
    assert rep.alpha == ALPHA
    assert rep.beta == BETA
    assert rep.cross_gain == CROSS_GAIN
    assert rep.lambda_star == pytest.approx(LAMBDA_STAR, rel=1e-15)
    qa, qb, qc = rep.lambda_quad
    assert qa == pytest.approx(0.01215, rel=1e-15)
    assert qb == pytest.approx(-0.31125, rel=1e-15)
    assert qc == DET_J


def test_benchmark_window_endpoints():
    rep = stability_report(P)
    lo, hi = rep.region
    assert lo == pytest.approx(LAMBDA_1, rel=1e-13)
    assert hi == pytest.approx(LAMBDA_2, rel=1e-13)
    assert rep.lambda_star <= lo < hi


def test_det_negative_strictly_inside_window_only():
    eq = equilibrium(P)
    rep = stability_report(P)
    lo, hi = rep.region
    for lam, expect_sign in [(lo - 0.5, 1), (lo + 0.5, -1), (0.5 * (lo + hi), -1), (hi - 0.5, -1), (hi + 0.5, 1)]:
        det = np.linalg.det(eq.j_star - lam * eq.d_star)
        assert np.sign(det) == expect_sign, lam


def test_trace_stays_negative_across_modes():
    eq = equilibrium(P)
    for lam in np.linspace(0, 40, 81):
        m = eq.j_star - lam * eq.d_star
        assert np.trace(m) < 0
    # weak competition gives tr J < 0 and every transport term gives tr D >= 0
    # (module docstring), so det(M) alone decides growth, with self-diffusion too
    rng = np.random.default_rng(2024)
    self_rng = np.random.default_rng(4202)
    for _ in range(300):
        p = dataclasses.replace(
            _random_weak_params(rng),
            d11=float(self_rng.uniform(0.01, 1.0)), d22=float(self_rng.uniform(0.01, 1.0)),
        )
        eq = equilibrium(p)
        assert eq.trace_j < 0
        assert np.trace(eq.d_star) >= 0
        for lam in np.linspace(0.0, 1000.0, 101):
            assert np.trace(eq.j_star - lam * eq.d_star) < 0


def test_sign_scan_brackets_the_endpoints():
    eq = equilibrium(P)
    brackets = det_sign_scan(eq.j_star, eq.d_star, lam_max=40.0)
    assert len(brackets) == 2
    (a1_, b1_), (a2_, b2_) = brackets
    assert a1_ <= LAMBDA_1 <= b1_
    assert a2_ <= LAMBDA_2 <= b2_


def test_sign_scan_brackets_a_root_on_the_grid_and_skips_a_touch():
    # with J = diag(1, s) and D = I, det(J - lam*D) = (1 - lam)(s - lam) is
    # exactly zero at the grid point lam = 1
    grid = np.arange(0.0, 2.0 + 1e-3, 1e-3)
    assert grid[1000] == 1.0
    crossing = det_sign_scan(np.diag([1.0, -1.0]), np.eye(2), lam_max=2.0)
    assert crossing == [(float(grid[999]), float(grid[1001]))]
    assert det_sign_scan(np.diag([1.0, 1.0]), np.eye(2), lam_max=2.0) == []


def _exact_det(p: SktParams, lam: float) -> Fraction:
    """det(J - lam*D) at the coexistence state, in exact rational arithmetic."""
    q = {name: Fraction(getattr(p, name)) for name in
         ("r1", "r2", "a1", "a2", "b1", "b2", "d", "d11", "d22", "d12", "d21")}
    det_c = q["a1"] * q["a2"] - q["b1"] * q["b2"]
    u = (q["r1"] * q["a2"] - q["b1"] * q["r2"]) / det_c
    v = (q["a1"] * q["r2"] - q["r1"] * q["b2"]) / det_c
    lam = Fraction(lam)
    m11 = -q["a1"] * u - lam * (q["d"] + 2 * q["d11"] * u + q["d12"] * v)
    m12 = -q["b1"] * u - lam * q["d12"] * u
    m21 = -q["b2"] * v - lam * q["d21"] * v
    m22 = -q["a2"] * v - lam * (q["d"] + 2 * q["d22"] * v + q["d21"] * u)
    return m11 * m22 - m12 * m21


# a scan grid point on the root: determinant exactly zero there
@example(5.0, 2.0, 3.0, 3.0, 1.0, 1.0, 0.03, 0.0, 0.0, 2.7300129666666666, 0.0)
@example(5.0, 2.0, 3.0, 3.0, 1.0, 1.0, 0.03, 0.0, 0.0, 2.9999900333333334, 0.0)
# an upper root near 1e61, far past what the direct determinant resolves
@example(5.0, 2.0, 3.0, 3.0, 1.0, 1.0, 1e-60, 0.0, 0.0, 3.0, 0.0)
# an upper root near 3e14 that det(D0) computed as a difference put 0.24 % too low
@example(1.0, 4.0, 1.0, 1.5, 0.25, 0.5, 0.0, 0.0, 1e-15, 0.0078125, 1.0)
@settings(max_examples=300, deadline=None)
@given(
    st.floats(0.5, 8.0), st.floats(0.5, 8.0),
    st.floats(1.0, 5.0), st.floats(1.0, 5.0),
    st.floats(0.0, 0.9), st.floats(0.0, 0.9),
    st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
    st.floats(0.0, 10.0), st.floats(0.0, 10.0),
)
def test_window_ends_are_sign_changes_of_the_determinant(r1, r2, a1, a2, b1, b2, d, d11, d22, d12, d21):
    p = SktParams(r1=r1, r2=r2, a1=a1, a2=a2, b1=b1, b2=b2, d=d, d11=d11, d22=d22, d12=d12, d21=d21)
    try:
        rep = stability_report(p)
    except NonCoexistenceError:
        return
    if rep.region is None:
        return
    lo, hi = rep.region
    # positive below the window, negative inside it, positive above it
    for root, outside in ((lo, -1), (hi, 1)):
        if not np.isfinite(root):
            continue
        h = 1e-6 * max(1.0, root)
        if hi - lo <= 4.0 * h:
            continue
        assert _exact_det(p, root + outside * h) > 0
        assert _exact_det(p, root - outside * h) < 0


def test_stability_report_verifies_window_by_default():
    rep = stability_report(P)
    assert rep.region is not None


def test_no_cross_diffusion_gives_no_window():
    p = dataclasses.replace(P, d12=0.0, d21=0.0)
    rep = stability_report(p)
    assert rep.lambda_star is None
    assert rep.region is None


def test_zero_plain_diffusion_gives_half_line():
    p = dataclasses.replace(P, d=0.0)
    rep = stability_report(p)
    assert rep.lambda_star == pytest.approx(LAMBDA_STAR, rel=1e-15)
    lo, hi = rep.region
    assert lo == pytest.approx(LAMBDA_STAR, rel=1e-12)
    assert np.isinf(hi)
    # with d12, d21 > 0 the transport matrix is still singular; its
    # determinant must be an exact zero, not a rounding residue of either sign
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = dataclasses.replace(_random_weak_params(rng), d=0.0)
        rep = stability_report(p)
        assert rep.lambda_quad[0] == 0.0
        if rep.lambda_star is None:
            assert rep.region is None
        else:
            lo, hi = rep.region
            assert lo == pytest.approx(rep.lambda_star, rel=1e-9)
            assert np.isinf(hi)


def test_strong_competition_rejected():
    # u* = v* = 1/3: the coexistence state exists, so the weak-competition check is reached
    strong = SktParams(r1=1.0, r2=1.0, a1=1.0, a2=1.0, b1=2.0, b2=2.0)
    with pytest.raises(StabilityError, match="weak competition"):
        stability_report(strong)


# ------------------------------------- determinant expansions vs direct det


def _random_weak_params(rng) -> SktParams:
    while True:
        a1, a2 = rng.uniform(1.0, 4.0, size=2)
        b1, b2 = rng.uniform(0.05, 0.95, size=2)
        p = SktParams(
            r1=float(rng.uniform(0.5, 6.0)),
            r2=float(rng.uniform(0.5, 6.0)),
            a1=float(a1), a2=float(a2), b1=float(b1), b2=float(b2),
            d=float(rng.uniform(0.0, 0.2)),
            d12=float(rng.uniform(0.0, 5.0)),
            d21=float(rng.uniform(0.0, 5.0)),
        )
        if not p.weak_competition:
            continue
        try:
            equilibrium(p)
        except NonCoexistenceError:
            continue
        return p


def test_both_expansions_match_direct_determinant():
    rng = np.random.default_rng(1234)
    self_rng = np.random.default_rng(4321)  # keeps the shared parameter stream unchanged
    for _ in range(300):
        p = _random_weak_params(rng)
        lam = float(rng.uniform(0.0, 30.0))
        with_self = dataclasses.replace(
            p, d11=float(self_rng.uniform(0.0, 1.0)), d22=float(self_rng.uniform(0.0, 1.0))
        )
        for q in (p, with_self):
            eq = equilibrium(q)
            rep = stability_report(q)
            direct = float(np.linalg.det(eq.j_star - lam * eq.d_star))
            coeff_a, coeff_b, coeff_c = rep.det_coeffs_in_d(lam)
            in_d = coeff_a * q.d**2 + coeff_b * q.d + coeff_c
            in_lam = rep.det_in_lambda(lam)
            scale = max(1.0, abs(direct))
            assert abs(in_d - direct) <= 1e-10 * scale
            assert abs(in_lam - direct) <= 1e-10 * scale


def test_alpha_beta_reconstruction_identity():
    # alpha and beta are exactly the determinant's linear response to d12, d21
    rng = np.random.default_rng(77)
    for _ in range(50):
        p = _random_weak_params(rng)
        rep = stability_report(p)
        base = dataclasses.replace(p, d=0.0, d12=0.0, d21=0.0)
        eqb = equilibrium(base)
        lam = 1.0
        d12_only = dataclasses.replace(base, d12=1.0)
        d21_only = dataclasses.replace(base, d21=1.0)
        det12 = np.linalg.det(eqb.j_star - lam * equilibrium(d12_only).d_star)
        det21 = np.linalg.det(eqb.j_star - lam * equilibrium(d21_only).d_star)
        assert det12 - eqb.det_j == pytest.approx(-rep.alpha, rel=1e-9, abs=1e-12)
        assert det21 - eqb.det_j == pytest.approx(-rep.beta, rel=1e-9, abs=1e-12)


# ------------------------------------------------------------- mode classing


def test_classify_modes_benchmark_ring():
    eigs = ring_spectrum_closed_form(100, 10)
    rep = stability_report(P)
    modes = classify_modes(eigs, rep)
    assert len(modes) == 6
    assert all(LAMBDA_1 < eigs[i] < LAMBDA_2 for i in modes)


def test_classify_modes_strictly_interior():
    rep = stability_report(P)
    lo, hi = rep.region
    modes = classify_modes(np.array([lo, hi, 0.5 * (lo + hi)]), rep)
    assert modes == (2,)


def test_classify_modes_empty_without_region():
    p = dataclasses.replace(P, d12=0.0, d21=0.0)
    rep = stability_report(p)
    assert classify_modes(np.array([1.0, 10.0]), rep) == ()


def test_growth_rate_positive_exactly_on_unstable_modes():
    eq = equilibrium(P)
    rep = stability_report(P)
    lo, hi = rep.region
    for lam in np.linspace(0.0, 30.0, 301):
        rate = np.linalg.eigvals(eq.j_star - lam * eq.d_star).real.max()
        if lo + 1e-9 < lam < hi - 1e-9:
            assert rate > 0.0, lam
        else:
            assert rate <= 1e-12, lam


def test_stability_report_and_json_shape():
    eigs = ring_spectrum_closed_form(100, 10)
    rep = stability_report(P, eigs)
    payload = report_to_dict(rep)
    assert list(payload) == [
        "u_star", "v_star", "trace_J", "det_J", "alpha", "beta",
        "lambda_star", "lambda_star_1", "lambda_star_2", "unstable_modes",
    ]
    assert payload["u_star"] == U_STAR
    assert payload["unstable_modes"] == [5, 6, 7, 8, 9, 10]
    json.dumps(payload)  # serializable as-is


def test_report_carries_the_equilibrium_it_was_built_from():
    rep = stability_report(P)
    eq = rep.equilibrium
    assert (eq.u_star, eq.v_star, eq.trace_j, eq.det_j) == (U_STAR, V_STAR, TRACE_J, DET_J)
    assert np.array_equal(eq.j_star, equilibrium(P).j_star)
    assert np.array_equal(eq.d_star, equilibrium(P).d_star)
    # the report keeps no copies of the state's fields
    assert {f.name for f in dataclasses.fields(rep)}.isdisjoint({"u_star", "v_star", "trace_j", "det_j"})


def test_report_json_nulls_without_cross_diffusion():
    p = dataclasses.replace(P, d12=0.0, d21=0.0)
    payload = report_to_dict(stability_report(p, np.array([0.0, 1.0, 5.0])))
    assert payload["lambda_star"] is None
    assert payload["lambda_star_1"] is None
    assert payload["lambda_star_2"] is None
    assert payload["unstable_modes"] == []


def test_params_validation():
    with pytest.raises(ValueError):
        SktParams(r1=-1.0, r2=1.0, a1=1.0, a2=1.0, b1=0.1, b2=0.1)
    with pytest.raises(ValueError):
        SktParams(r1=float("nan"), r2=1.0, a1=1.0, a2=1.0, b1=0.1, b2=0.1)
