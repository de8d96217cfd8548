"""Stencil route vs network route for the 1-d zero-flux discretization."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossnet import PdeParams, build_laplacian, discretize_skt_1d, rhs, stencil_rhs


def bench_pde(n: int, ell: float = 1.0) -> PdeParams:
    return PdeParams(r1=5.0, r2=2.0, a1=3.0, a2=3.0, b1=1.0, b2=1.0,
                     d=0.03, d12=3.0, d21=0.0, ell=ell, n=n)


def test_h_property():
    p = PdeParams(r1=1, r2=1, a1=1, a2=1, b1=0, b2=0, ell=2.0, n=5)
    assert p.h == 0.5


def test_discretize_scales_by_h_squared():
    p = bench_pde(11, ell=1.0)  # h = 0.1
    skt, g = discretize_skt_1d(p)
    assert g.n_nodes == 11
    assert np.array_equal(g.edges, [(i, i + 1) for i in range(10)])
    assert skt.d == pytest.approx(0.03 / 0.01, rel=1e-15)
    assert skt.d12 == pytest.approx(3.0 / 0.01, rel=1e-15)
    assert skt.d21 == 0.0
    # reaction coefficients pass through untouched
    assert (skt.r1, skt.r2, skt.a1, skt.a2, skt.b1, skt.b2) == (5.0, 2.0, 3.0, 3.0, 1.0, 1.0)


def test_param_validation():
    with pytest.raises(ValueError, match="grid points"):
        PdeParams(r1=1, r2=1, a1=1, a2=1, b1=0, b2=0, n=1)
    with pytest.raises(ValueError, match="length"):
        PdeParams(r1=1, r2=1, a1=1, a2=1, b1=0, b2=0, ell=0.0)
    # every coefficient as SktParams checks it: real, finite and non-negative
    with pytest.raises(ValueError, match="parameter r1 must be finite and >= 0, got -1"):
        PdeParams(r1=-1, r2=1, a1=1, a2=1, b1=0, b2=0, d=float("nan"), d12=-3, ell=float("nan"), n=5)
    for name, bad in (("d", float("nan")), ("d12", -3.0), ("d21", float("inf")), ("b1", -1e-300)):
        with pytest.raises(ValueError, match=f"parameter {name} must be finite and >= 0"):
            PdeParams(**{**dict(r1=1, r2=1, a1=1, a2=1, b1=0, b2=0), name: bad})
    with pytest.raises(ValueError, match="a1 must be a real number"):
        PdeParams(r1=1, r2=1, a1="1", a2=1, b1=0, b2=0)
    for ell in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="interval length must be finite and positive"):
            PdeParams(r1=1, r2=1, a1=1, a2=1, b1=0, b2=0, ell=ell)
    with pytest.raises(ValueError, match="ell must be a real number"):
        PdeParams(r1=1, r2=1, a1=1, a2=1, b1=0, b2=0, ell="2")
    for n in (5.0, 2.5, True):
        with pytest.raises(ValueError, match="n must be an integer"):
            PdeParams(r1=1, r2=1, a1=1, a2=1, b1=0, b2=0, n=n)


def test_stencil_second_difference_constant_is_zero():
    # constants are in the zero-flux kernel: both routes must return pure reaction
    p = bench_pde(9)
    u = np.full(9, 1.3)
    v = np.full(9, 0.4)
    du_s, dv_s = stencil_rhs(u, v, p)
    skt, g = discretize_skt_1d(p)
    du_n, dv_n = rhs(np.stack((u, v)), skt, build_laplacian(g))
    assert np.allclose(du_s, du_n, atol=1e-14)
    assert np.array_equal(du_s, np.full(9, 1.3 * (5.0 - 3.0 * 1.3 - 0.4)))
    assert np.allclose(dv_s, dv_n, atol=1e-14)


# both routes evaluate the same arithmetic with different association, so
# the honest comparison is 14-digit agreement relative to the field scale;
# an absolute 1e-14 would be below one ulp once entries reach ~50


def assert_rhs_agree(p, skt, lap, u, v):
    du_s, dv_s = stencil_rhs(u, v, p)
    du_n, dv_n = rhs(np.stack((u, v)), skt, lap)
    scale_u = max(1.0, float(np.abs(du_n).max()))
    scale_v = max(1.0, float(np.abs(dv_n).max()))
    assert np.abs(du_s - du_n).max() <= 1e-14 * scale_u
    assert np.abs(dv_s - dv_n).max() <= 1e-14 * scale_v


@pytest.mark.parametrize("n", [2, 17, 64])
def test_stencil_equals_network_rhs_unit_spacing(n):
    p = bench_pde(n, ell=float(n - 1))  # h = 1
    skt, g = discretize_skt_1d(p)
    lap = build_laplacian(g)
    rng = np.random.default_rng(n)
    for _ in range(100):
        u = rng.uniform(0.0, 3.0, n)
        v = rng.uniform(0.0, 3.0, n)
        assert_rhs_agree(p, skt, lap, u, v)


@pytest.mark.parametrize("n", [2, 17, 64])
def test_stencil_equals_network_rhs_fine_grid(n):
    # h ~ 1/(n-1) scales transport terms to ~1e3
    p = bench_pde(n, ell=1.0)
    skt, g = discretize_skt_1d(p)
    lap = build_laplacian(g)
    rng = np.random.default_rng(100 + n)
    for _ in range(100):
        u = rng.uniform(0.0, 3.0, n)
        v = rng.uniform(0.0, 3.0, n)
        assert_rhs_agree(p, skt, lap, u, v)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.integers(0, 2**32 - 1))
def test_stencil_equivalence_property(n, seed):
    p = bench_pde(n, ell=float(n - 1))
    skt, g = discretize_skt_1d(p)
    lap = build_laplacian(g)
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 3.0, n)
    v = rng.uniform(0.0, 3.0, n)
    assert_rhs_agree(p, skt, lap, u, v)


def test_stencil_shape_guard():
    p = bench_pde(5)
    with pytest.raises(ValueError, match="length-5"):
        stencil_rhs(np.zeros(4), np.zeros(4), p)
