"""End-to-end acceptance checks, one test per advertised guarantee.

Every test prints a single verdict line (run ``pytest -s`` to see them all;
failures carry the line in their captured output) and enforces the numeric
tolerance together with a wall-clock budget.  Heavy checks reuse the same
public entry points a downstream user would call; the reference values they
are compared against are computed by an independent route inside the test
(direct determinant evaluation, grid sign scans, brute-force eigensolves,
simulation measurements).
"""

import dataclasses
import time

import numpy as np
import pytest

from crossnet import (
    DEFAULT_SKT_PARAMS,
    GraphSpec,
    IntegratorConfig,
    PdeParams,
    SktParams,
    SweepSpec,
    build_graph,
    build_laplacian,
    det_sign_scan,
    discretize_skt_1d,
    eig_symmetric,
    ensemble_report,
    equilibrium,
    lattice_comparison,
    path_spectrum_closed_form,
    pattern_metrics,
    perturb_homogeneous,
    rhs,
    ring_spectrum_closed_form,
    ring_sweep,
    simulate_skt,
    stability_report,
    stencil_rhs,
)
from crossnet.rng import rng_from


def _verdict(num: int, label: str, ok: bool, elapsed: float, limit: float) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{state}] {label} ({elapsed:.2f}s of {limit:g}s budget)")


def test_criterion_01_ring_spectrum_closed_vs_numeric():
    t0 = time.perf_counter()
    cases = [(n, k) for n in (20, 100, 200) for k in (1, 8, 10, 25)]
    worst = 0.0
    for n, k in cases:
        if 2 * k >= n:
            # the ring construction cannot host k neighbors per side
            with pytest.raises(ValueError):
                build_graph(GraphSpec(family="ring", n=n, k=k))
            continue
        closed = np.sort(ring_spectrum_closed_form(n, k))
        numeric = eig_symmetric(build_laplacian(build_graph(GraphSpec(family="ring", n=n, k=k))))
        worst = max(worst, float(np.abs(closed - np.sort(numeric)).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    _verdict(1, f"ring spectra closed form vs eigensolver, max |diff| = {worst:.3e}", ok, elapsed, 30.0)
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_02_path_spectrum_closed_vs_numeric():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 50, 200):
        closed = np.sort(path_spectrum_closed_form(n))
        numeric = eig_symmetric(build_laplacian(build_graph(GraphSpec(family="path", n=n))))
        worst = max(worst, float(np.abs(closed - np.sort(numeric)).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _verdict(2, f"path spectra closed form vs eigensolver, max |diff| = {worst:.3e}", ok, elapsed, 10.0)
    assert worst <= 1e-8
    assert elapsed < 10.0


def _random_coexistence_params(rng) -> SktParams:
    # rejection-sample weak competition with a moderate coexistence state so
    # determinant magnitudes stay well inside the absolute tolerance
    while True:
        a1, a2 = rng.uniform(0.5, 4.0, 2)
        b1, b2 = rng.uniform(0.05, 1.5, 2)
        if a1 * a2 <= 1.05 * b1 * b2:
            continue
        r1, r2 = rng.uniform(0.5, 6.0, 2)
        det_c = a1 * a2 - b1 * b2
        u = (r1 * a2 - b1 * r2) / det_c
        v = (a1 * r2 - r1 * b2) / det_c
        if not (1e-2 < u < 2.5 and 1e-2 < v < 2.5):
            continue
        return SktParams(
            r1=float(r1), r2=float(r2), a1=float(a1), a2=float(a2),
            b1=float(b1), b2=float(b2), d=float(rng.uniform(0.0, 0.3)),
            d12=float(rng.uniform(0.0, 3.0)), d21=float(rng.uniform(0.0, 3.0)),
        )


def test_criterion_03_determinant_expansions_vs_direct():
    t0 = time.perf_counter()
    rng = rng_from(2026, 3)
    worst_lam = worst_d = 0.0
    for _ in range(1000):
        p = _random_coexistence_params(rng)
        eq = equilibrium(p)
        rep = stability_report(p)
        lam = float(rng.uniform(0.0, 20.0))
        m = eq.j_star - lam * eq.d_star
        direct = float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
        via_lambda = rep.det_in_lambda(lam)
        ca, cb, cc = rep.det_coeffs_in_d(lam)
        via_d = ca * p.d * p.d + cb * p.d + cc
        worst_lam = max(worst_lam, abs(via_lambda - direct))
        worst_d = max(worst_d, abs(via_d - direct))
    elapsed = time.perf_counter() - t0
    worst = max(worst_lam, worst_d)
    ok = worst <= 1e-10 and elapsed < 5.0
    _verdict(3, f"determinant expansions vs direct 2x2, max |diff| = {worst:.3e}", ok, elapsed, 5.0)
    assert worst_lam <= 1e-10
    assert worst_d <= 1e-10
    assert elapsed < 5.0


def test_criterion_04_benchmark_pipeline_and_grid_scan():
    t0 = time.perf_counter()
    p = DEFAULT_SKT_PARAMS
    eq = equilibrium(p)
    rep = stability_report(p)
    assert abs(eq.u_star - 1.625) <= 1e-12
    assert abs(eq.v_star - 0.125) <= 1e-12
    assert abs(eq.trace_j + 5.25) <= 1e-12
    assert abs(eq.det_j - 1.625) <= 1e-12

    lo, hi = rep.region
    brackets = det_sign_scan(eq.j_star, eq.d_star, lam_max=25.0)
    assert len(brackets) == 2
    scan_lo = 0.5 * (brackets[0][0] + brackets[0][1])
    scan_hi = 0.5 * (brackets[1][0] + brackets[1][1])

    # the onset threshold is the root of the zero-linear-diffusion determinant
    p0 = dataclasses.replace(p, d=0.0)
    eq0 = equilibrium(p0)
    brackets0 = det_sign_scan(eq0.j_star, eq0.d_star, lam_max=10.0)
    assert len(brackets0) == 1
    scan_star = 0.5 * (brackets0[0][0] + brackets0[0][1])

    worst = max(abs(lo - scan_lo), abs(hi - scan_hi), abs(rep.lambda_star - scan_star))
    elapsed = time.perf_counter() - t0
    ordered = rep.lambda_star <= lo < hi
    ok = worst <= 2e-3 and ordered and elapsed < 5.0
    _verdict(4, f"benchmark thresholds formula vs sign scan, max |diff| = {worst:.2e}", ok, elapsed, 5.0)
    assert worst <= 2e-3
    assert ordered
    assert elapsed < 5.0


def test_criterion_05_lattice_classification():
    t0 = time.perf_counter()
    dims = {"hexagonal": (10, 11), "square": (10, 11), "triangular": (10, 11)}
    results = lattice_comparison(dims)
    counts = {kind: len(r.unstable_modes) for kind, r in results.items()}
    elapsed = time.perf_counter() - t0
    ok = (
        counts["hexagonal"] == 0
        and counts["triangular"] >= 1
        and counts["square"] >= 1
        and all(90 <= r.n_nodes <= 130 for r in results.values())
        and elapsed < 10.0
    )
    _verdict(5, f"lattice unstable-mode counts {counts}", ok, elapsed, 10.0)
    assert counts["hexagonal"] == 0
    assert counts["triangular"] >= 1
    assert counts["square"] >= 1
    assert elapsed < 10.0


def test_criterion_06_ring_sweep_window():
    t0 = time.perf_counter()
    values = (1, 2, 3, 5, 10, 15, 20, 26, 30, 40, 49)
    rows = ring_sweep(SweepSpec(base=GraphSpec(family="ring", n=100, k=1), swept="k", values=values))
    counts = {row.value: row.unstable_count for row in rows}
    elapsed = time.perf_counter() - t0
    small_zero = all(counts[k] == 0 for k in (1, 2))
    large_zero = all(counts[k] == 0 for k in (26, 30, 40, 49))
    mid_nonempty = all(counts[k] > 0 for k in (10, 15, 20))
    ok = small_zero and large_zero and mid_nonempty and elapsed < 10.0
    _verdict(6, f"ring sweep N=100 unstable counts {counts}", ok, elapsed, 10.0)
    assert small_zero, counts
    assert large_zero, counts
    assert mid_nonempty, counts
    assert elapsed < 10.0


def test_criterion_07_patterned_dynamics_abundance_shift():
    t0 = time.perf_counter()
    p = DEFAULT_SKT_PARAMS
    eq = equilibrium(p)
    g = build_graph(GraphSpec(family="ring", n=100, k=10))
    cfg = IntegratorConfig(steady_state_tol=1e-6, t_max=2000.0)
    du, dv = [], []
    for seed in range(5):
        init = perturb_homogeneous(eq, 100, magnitude=0.01, seed=seed)
        res = simulate_skt(p, g, [init], cfg)[0]
        m = pattern_metrics(res.final, eq)
        assert res.converged, f"seed {seed} did not converge: {res.reason}"
        assert m.heterogeneity > 1e-2, f"seed {seed} stayed homogeneous"
        assert m.pct_change_u < 0.0
        assert m.pct_change_v > 0.0
        du.append(m.pct_change_u)
        dv.append(m.pct_change_v)
    mean_u = float(np.mean(du))
    mean_v = float(np.mean(dv))
    elapsed = time.perf_counter() - t0
    ok = abs(mean_u + 1.78) <= 1.0 and abs(mean_v - 12.3) <= 3.0 and elapsed < 300.0
    _verdict(7, f"patterned runs mean du={mean_u:+.2f}%, dv={mean_v:+.2f}%", ok, elapsed, 300.0)
    assert abs(mean_u + 1.78) <= 1.0, mean_u
    assert abs(mean_v - 12.3) <= 3.0, mean_v
    assert elapsed < 300.0


def test_criterion_08_no_cross_diffusion_control():
    t0 = time.perf_counter()
    p = dataclasses.replace(DEFAULT_SKT_PARAMS, d12=0.0, d21=0.0)
    eq = equilibrium(p)
    g = build_graph(GraphSpec(family="ring", n=100, k=10))
    cfg = IntegratorConfig(steady_state_tol=1e-7, t_max=500.0)
    worst = 0.0
    for seed in range(5):
        init = perturb_homogeneous(eq, 100, magnitude=0.01, seed=seed)
        res = simulate_skt(p, g, [init], cfg)[0]
        assert res.converged, f"seed {seed} did not converge: {res.reason}"
        worst = max(worst, pattern_metrics(res.final, eq).heterogeneity)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 120.0
    _verdict(8, f"control without cross-diffusion, max heterogeneity = {worst:.2e}", ok, elapsed, 120.0)
    assert worst < 1e-6
    assert elapsed < 120.0


def test_criterion_09_positivity_randomized_runs():
    t0 = time.perf_counter()
    failures = []
    for trial in range(50):
        rng = rng_from(99, trial)
        fam = ("ring", "erdos-renyi", "watts-strogatz")[trial % 3]
        if fam == "ring":
            spec = GraphSpec(family="ring", n=int(rng.integers(10, 60)), k=int(rng.integers(1, 4)))
        elif fam == "erdos-renyi":
            spec = GraphSpec(family="erdos-renyi", n=int(rng.integers(10, 60)), p=0.2, seed=trial)
        else:
            spec = GraphSpec(family="watts-strogatz", n=int(rng.integers(10, 60)), k=3, p=0.1, seed=trial)
        g = build_graph(spec)
        p = SktParams(
            r1=float(rng.uniform(0.5, 6)), r2=float(rng.uniform(0.5, 6)),
            a1=float(rng.uniform(1, 4)), a2=float(rng.uniform(1, 4)),
            b1=float(rng.uniform(0.1, 1.5)), b2=float(rng.uniform(0.1, 1.5)),
            d=float(rng.uniform(0, 0.1)), d12=float(rng.uniform(0, 4)), d21=float(rng.uniform(0, 4)),
            d11=float(rng.uniform(0, 0.5)), d22=float(rng.uniform(0, 0.5)),
        )
        init = np.array((rng.uniform(0.0, 3.0, g.n_nodes), rng.uniform(0.0, 3.0, g.n_nodes)))
        res = simulate_skt(p, g, [init], IntegratorConfig(t_max=50.0, steady_state_tol=1e-7))[0]
        if res.positivity_violated:
            failures.append(trial)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    _verdict(9, f"positivity over 50 randomized runs, {len(failures)} with a step below -10*abs_tol", ok, elapsed, 300.0)
    assert not failures, failures
    assert elapsed < 300.0


def test_criterion_10_linear_growth_rate_fit():
    t0 = time.perf_counter()
    p = DEFAULT_SKT_PARAMS
    eq = equilibrium(p)
    g = build_graph(GraphSpec(family="ring", n=100, k=10))
    vals, vecs = np.linalg.eigh(build_laplacian(g))
    rates = np.array([np.linalg.eigvals(eq.j_star - lam * eq.d_star).real.max() for lam in vals])
    imax = int(np.argmax(rates))
    predicted = float(rates[imax])

    init = perturb_homogeneous(eq, 100, magnitude=1e-4, seed=0)
    cfg = IntegratorConfig(t_max=120.0, steady_state_tol=1e-30, sample_dt=1.0)
    res = simulate_skt(p, g, [init], cfg)[0]
    times = res.times
    c = (res.traj[:, 0] - eq.u_star) @ vecs
    b = (res.traj[:, 1] - eq.v_star) @ vecs
    # ring modes come in degenerate pairs; track the total amplitude on the pair
    pair = np.abs(vals - vals[imax]) < 1e-9
    amp = np.sqrt((c[:, pair] ** 2 + b[:, pair] ** 2).sum(axis=1))
    window = (times >= 10.0) & (times <= 100.0)
    fitted = float(np.polyfit(times[window], np.log(amp[window]), 1)[0])
    rel_err = abs(fitted - predicted) / predicted
    elapsed = time.perf_counter() - t0
    ok = rel_err <= 0.05 and elapsed < 60.0
    _verdict(
        10,
        f"mode growth fit {fitted:.5f} vs predicted {predicted:.5f} (rel err {rel_err:.2%})",
        ok, elapsed, 60.0,
    )
    assert rel_err <= 0.05
    assert elapsed < 60.0


def test_criterion_11_stencil_matches_network_rhs():
    t0 = time.perf_counter()
    worst_rel = 0.0
    for n in (2, 17, 64):
        pde = PdeParams(
            r1=5.0, r2=2.0, a1=3.0, a2=3.0, b1=1.0, b2=1.0,
            d=0.03, d11=0.1, d22=0.2, d12=3.0, d21=0.5,
            ell=1.0, n=n,
        )
        net_params, g = discretize_skt_1d(pde)
        lap = build_laplacian(g)
        for trial in range(100):
            rng = rng_from(11, n, trial)
            u = rng.uniform(0.0, 5.0, n)
            v = rng.uniform(0.0, 5.0, n)
            fu_s, fv_s = stencil_rhs(u, v, pde)
            fu_n, fv_n = rhs(np.stack((u, v)), net_params, lap)
            for s_side, n_side in ((fu_s, fu_n), (fv_s, fv_n)):
                scale = max(1.0, float(np.abs(n_side).max()))
                worst_rel = max(worst_rel, float(np.abs(s_side - n_side).max()) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-14 and elapsed < 5.0
    _verdict(11, f"stencil vs network rhs, max scaled |diff| = {worst_rel:.3e}", ok, elapsed, 5.0)
    assert worst_rel <= 1e-14
    assert elapsed < 5.0


def test_criterion_12_random_graph_ensembles():
    t0 = time.perf_counter()
    n_real = 200

    reg = ensemble_report(SweepSpec(
        base=GraphSpec(family="regular-random", n=100, k=8),
        swept="k", values=(8, 16, 24, 40), realizations=n_real, master_seed=7,
    ))
    intersects = {row.value: row.mean_spectrum_unstable_count > 0 for row in reg}

    er = ensemble_report(SweepSpec(
        base=GraphSpec(family="erdos-renyi", n=100, p=0.3),
        swept="p", values=(0.3,), realizations=n_real, master_seed=7,
    ))[0]

    ws = ensemble_report(SweepSpec(
        base=GraphSpec(family="watts-strogatz", n=100, k=15, p=0.0),
        swept="p", values=(0.0,), realizations=n_real, master_seed=7,
    ))[0]
    ws_var_zero = bool(np.all(ws.stats.variance == 0.0))

    elapsed = time.perf_counter() - t0
    ok = (
        intersects[8] and intersects[16] and intersects[24] and not intersects[40]
        and er.instability_fraction > 0.0
        and ws_var_zero
        and elapsed < 600.0
    )
    _verdict(
        12,
        f"ensembles: regular-random intersections {intersects}, "
        f"ER fraction {er.instability_fraction:.2f}, WS p=0 variance all zero: {ws_var_zero}",
        ok, elapsed, 600.0,
    )
    assert intersects[8] and intersects[16] and intersects[24]
    assert not intersects[40]
    assert er.instability_fraction > 0.0
    assert ws_var_zero
    assert elapsed < 600.0
