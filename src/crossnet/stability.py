"""Linear stability of the two-species competition model with cross-diffusion.

The homogeneous coexistence state of the network system is stable against
uniform perturbations under weak competition; spatial (network) modes can
still destabilize it through cross-diffusion.  Each Laplacian eigenvalue
``lam`` contributes a 2x2 characteristic matrix ``M = J - lam * D`` built
from the reaction Jacobian ``J`` and the linearized diffusion matrix ``D``
at the coexistence state.

``trace(M) < 0`` for every mode.  Weak competition, ``a1*a2 > b1*b2 >= 0``
with all coefficients non-negative, forces ``a1, a2 > 0``, so
``trace(J) = -a1*u* - a2*v* < 0`` at the positive coexistence state.  Every
entry of the diagonal of ``D`` is a sum of non-negative coefficients times
non-negative densities, so ``trace(D) >= 0`` and
``trace(J - lam*D) <= trace(J) < 0`` for every ``lam >= 0``.  Hence a mode
grows iff ``det(M) < 0``; expanding the determinant in the linear diffusion
coefficient and in ``lam`` yields the onset threshold and the window of
unstable eigenvalues computed below.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from math import sqrt

import numpy as np

from .errors import NonCoexistenceError, StabilityError, require_real

__all__ = [
    "SktParams",
    "DEFAULT_SKT_PARAMS",
    "Equilibrium",
    "InstabilityReport",
    "equilibrium",
    "classify_modes",
    "unstable_mask",
    "stability_report",
    "report_to_dict",
    "det_sign_scan",
]

_SCAN_STEP = 1e-3
_BOUNDARY_TOL = 1e-9
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SktParams:
    """Coefficients of the competition model with nonlinear diffusion.

    ``r1, r2`` growth rates, ``a1, a2`` intra-species competition,
    ``b1, b2`` inter-species competition, ``d`` linear diffusion (same for
    both species), ``d11, d22`` self-diffusion, ``d12, d21`` cross-diffusion
    (``d12`` drives species 1 away from species 2).  All must be
    non-negative.
    """

    r1: float
    r2: float
    a1: float
    a2: float
    b1: float
    b2: float
    d: float = 0.0
    d11: float = 0.0
    d22: float = 0.0
    d12: float = 0.0
    d21: float = 0.0

    def __post_init__(self):
        for field in fields(SktParams):
            name, val = field.name, getattr(self, field.name)
            require_real(name, val)
            if not np.isfinite(val) or val < 0:
                raise ValueError(f"parameter {name} must be finite and >= 0, got {val}")

    @property
    def weak_competition(self) -> bool:
        """True iff intra-species competition dominates: a1*a2 - b1*b2 > 0."""
        return self.a1 * self.a2 - self.b1 * self.b2 > 0


# benchmark parameter set: weak competition, one-sided cross-diffusion
DEFAULT_SKT_PARAMS = SktParams(
    r1=5.0, r2=2.0, a1=3.0, a2=3.0, b1=1.0, b2=1.0, d=0.03, d12=3.0, d21=0.0
)


@dataclass(frozen=True)
class Equilibrium:
    """Coexistence state together with both 2x2 linearizations.

    ``j_star`` is the reaction Jacobian; on the coexistence ray the growth
    terms cancel, leaving ``[[-a1*u, -b1*u], [-b2*v, -a2*v]]``.  ``d_star``
    is the linearized transport: the derivative of the fluxes
    ``d*u + d11*u^2 + d12*u*v`` and ``d*v + d22*v^2 + d21*u*v`` with respect
    to (u, v).
    """

    u_star: float
    v_star: float
    j_star: np.ndarray
    d_star: np.ndarray
    trace_j: float
    det_j: float


def equilibrium(p: SktParams) -> Equilibrium:
    """Positive solution of r1 = a1*u + b1*v, r2 = b2*u + a2*v, with J and D there.

    Raises StabilityError when the competition matrix is degenerate and
    NonCoexistenceError when either component is non-positive.
    """
    det_c = p.a1 * p.a2 - p.b1 * p.b2
    if det_c == 0.0:
        raise StabilityError("degenerate competition matrix: a1*a2 == b1*b2")
    u = (p.r1 * p.a2 - p.b1 * p.r2) / det_c
    v = (p.a1 * p.r2 - p.r1 * p.b2) / det_c
    if not (u > 0.0 and v > 0.0):
        raise NonCoexistenceError(f"no positive coexistence state: u*={u:g}, v*={v:g}")
    j = np.array([[-p.a1 * u, -p.b1 * u], [-p.b2 * v, -p.a2 * v]])
    d = np.array(
        [
            [p.d + 2.0 * p.d11 * u + p.d12 * v, p.d12 * u],
            [p.d21 * v, p.d + 2.0 * p.d22 * v + p.d21 * u],
        ]
    )
    return Equilibrium(
        u_star=u,
        v_star=v,
        j_star=j,
        d_star=d,
        trace_j=float(j[0, 0] + j[1, 1]),
        det_j=float(j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]),
    )


def _det2(m: np.ndarray) -> float:
    """2x2 determinant, exactly zero when below the rounding error of its products.

    Without self-diffusion the cross-diffusion part of the transport matrix
    is singular by construction; the guard keeps that zero exact instead of
    leaving a rounding residue of either sign.
    """
    ad = m[0, 0] * m[1, 1]
    bc = m[0, 1] * m[1, 0]
    det = ad - bc
    return 0.0 if abs(det) <= 4.0 * _EPS * (abs(ad) + abs(bc)) else float(det)


@dataclass(frozen=True)
class InstabilityReport:
    """Everything the mode analysis produces for one parameter set, with the
    ``equilibrium`` (state, J and D) it linearizes about.

    ``lambda_quad`` holds (qa, qb, qc) with
    ``det(M) = qa*lam^2 + qb*lam + qc``; ``region`` is the open interval of
    Laplacian eigenvalues with negative determinant, when it exists.  The
    region accounts for every transport coefficient and alone decides
    instability.

    ``alpha = v*(b2*u - a2*v)`` and ``beta = u*(b1*v - a1*u)`` are the
    equilibrium factors multiplying the two cross-diffusion coefficients in
    the determinant, ``cross_gain = d12*alpha + d21*beta``, and
    ``lambda_star = det(J)/cross_gain`` the onset threshold.  These three are
    cross-diffusion-only quantities: they describe the determinant exactly
    when ``d = d11 = d22 = 0``.
    """

    params: SktParams
    equilibrium: Equilibrium
    alpha: float
    beta: float
    cross_gain: float
    lambda_quad: tuple[float, float, float]
    lambda_star: float | None
    region: tuple[float, float] | None
    unstable_modes: tuple[int, ...] | None = None

    def det_coeffs_in_d(self, lam: float) -> tuple[float, float, float]:
        """(A, B, C) with det(M) = A*d^2 + B*d + C at fixed mode eigenvalue.

        With ``D = d*I + D0`` and ``M0 = J - lam*D0``,
        ``det(M) = det(M0 - lam*d*I) = lam^2*d^2 - lam*tr(M0)*d + det(M0)``.
        """
        eq = self.equilibrium
        m0 = eq.j_star - lam * (eq.d_star - self.params.d * np.eye(2))
        return lam * lam, -lam * float(m0[0, 0] + m0[1, 1]), _det2(m0)

    def det_in_lambda(self, lam: float) -> float:
        qa, qb, qc = self.lambda_quad
        return qa * lam * lam + qb * lam + qc


def det_sign_scan(
    j_star: np.ndarray,
    d_star: np.ndarray,
    lam_max: float,
    lam_min: float = 0.0,
) -> list[tuple[float, float]]:
    """Brackets where det(J - lam*D) changes sign on a uniform grid (step 1e-3).

    Direct 2x2 determinant evaluation, independent of the polynomial
    expansions; used to cross-check the closed-form roots.  Grid points
    where the determinant is exactly zero are skipped, so a root on the
    grid is bracketed by its neighbours when their signs differ, and a
    touch (+, 0, +) brackets nothing.
    """
    grid = np.arange(lam_min, lam_max + _SCAN_STEP, _SCAN_STEP)
    m11 = j_star[0, 0] - grid * d_star[0, 0]
    m12 = j_star[0, 1] - grid * d_star[0, 1]
    m21 = j_star[1, 0] - grid * d_star[1, 0]
    m22 = j_star[1, 1] - grid * d_star[1, 1]
    dets = m11 * m22 - m12 * m21
    nonzero = np.flatnonzero(dets)
    signs = np.sign(dets[nonzero])
    flips = np.flatnonzero(signs[:-1] != signs[1:])
    return [(float(grid[nonzero[i]]), float(grid[nonzero[i + 1]])) for i in flips]


def _scan_resolves(eq: Equilibrium, slope: float, lam: float) -> bool:
    """Whether ``det_sign_scan`` can see a simple root at ``lam`` where the
    determinant has slope ``slope``: the determinant's change over one scan
    step must exceed the rounding bound of its direct evaluation, the bound
    ``_det2`` uses.  That bound grows as lam^2, and transport coefficients
    below the rounding of D's entries move the root without moving the
    direct determinant, so very large roots (from about 1e5 on) may go
    unscanned."""
    (m11, m12), (m21, m22) = (eq.j_star - lam * eq.d_star).tolist()
    return abs(slope) * _SCAN_STEP > 4.0 * _EPS * (abs(m11 * m22) + abs(m12 * m21))


def unstable_mask(eigenvalues: np.ndarray, report: InstabilityReport) -> np.ndarray:
    """Elementwise over an array of any shape: strictly inside the unstable
    window, 1e-9 clear of either endpoint."""
    vals = np.asarray(eigenvalues, dtype=float)
    if report.region is None:
        return np.zeros(vals.shape, dtype=bool)
    lo, hi = report.region
    return (vals > lo + _BOUNDARY_TOL) & (vals < hi - _BOUNDARY_TOL)


def classify_modes(eigenvalues: np.ndarray, report: InstabilityReport) -> tuple[int, ...]:
    """Indices of eigenvalues strictly inside the unstable window.

    Eigenvalues within 1e-9 of either endpoint count as stable.
    """
    return tuple(int(i) for i in np.nonzero(unstable_mask(eigenvalues, report))[0])


def stability_report(p: SktParams, eigenvalues: np.ndarray | None = None) -> InstabilityReport:
    """Both expansions of the characteristic determinant and the unstable window.

    Requires weak competition (otherwise the uniform mode itself is
    already unstable and the mode window is meaningless).  The closed-form
    roots of the determinant quadratic are cross-checked against a direct
    determinant sign scan around each root the scan resolves; disagreement raises
    StabilityError.  When eigenvalues are given the unstable modes are
    attached.
    """
    eq = equilibrium(p)
    if not p.weak_competition:
        raise StabilityError("instability analysis requires weak competition: a1*a2 > b1*b2")
    u, v = eq.u_star, eq.v_star
    alpha = v * (p.b2 * u - p.a2 * v)
    beta = u * (p.b1 * v - p.a1 * u)
    cross_gain = p.d12 * alpha + p.d21 * beta
    # det(J - lam*(d*I + D0)) expanded in lam, with D0 the transport without
    # plain diffusion; expanding in d, and det(D0) into its non-negative
    # terms, keeps qa accurate for small d and small self-diffusion, where
    # det(D) and det(D0) themselves would cancel
    j = eq.j_star
    d0 = eq.d_star - p.d * np.eye(2)
    mixed = j[0, 0] * d0[1, 1] + j[1, 1] * d0[0, 0] - j[0, 1] * d0[1, 0] - j[1, 0] * d0[0, 1]
    det_d0 = 2.0 * (2.0 * p.d11 * p.d22 * u * v + p.d11 * p.d21 * u * u + p.d12 * p.d22 * v * v)
    qa = p.d * (p.d + float(d0[0, 0] + d0[1, 1])) + det_d0
    qb = -(float(mixed) + p.d * eq.trace_j)
    qc = eq.det_j

    lambda_star = eq.det_j / cross_gain if cross_gain > 0.0 else None

    region: tuple[float, float] | None = None
    if qa > 0.0 and qb < 0.0:
        disc = qb * qb - 4.0 * qa * qc
        if disc > 0.0:
            # numerically stable quadratic roots: q = -(qb + sign(qb)*sqrt(disc))/2
            q = -(qb - sqrt(disc)) / 2.0
            roots = sorted((qc / q, q / qa))
            region = (float(roots[0]), float(roots[1]))
    elif qa == 0.0 and qb < 0.0:
        # singular transport matrix (no plain or self-diffusion): the
        # determinant is linear in the mode value and the unstable window is
        # unbounded above
        region = (float(qc / -qb), math.inf)

    # roots closer than the scan resolution cannot be bracketed separately,
    # and a root the direct determinant cannot resolve cannot be scanned
    if region is not None and region[1] - region[0] > 4.0 * _SCAN_STEP:
        for root in region:
            if not (math.isfinite(root) and _scan_resolves(eq, 2.0 * qa * root + qb, root)):
                continue
            brackets = det_sign_scan(
                eq.j_star, eq.d_star, root + 2.0 * _SCAN_STEP,
                lam_min=max(0.0, root - 2.0 * _SCAN_STEP),
            )
            if not any(b[0] - _SCAN_STEP <= root <= b[1] + _SCAN_STEP for b in brackets):
                raise StabilityError(
                    f"determinant sign scan does not bracket the computed root {root:.6g}"
                )

    report = InstabilityReport(
        params=p,
        equilibrium=eq,
        alpha=alpha,
        beta=beta,
        cross_gain=cross_gain,
        lambda_quad=(qa, qb, qc),
        lambda_star=lambda_star,
        region=region,
    )
    if eigenvalues is not None:
        report = replace(report, unstable_modes=classify_modes(eigenvalues, report))
    return report


def report_to_dict(report: InstabilityReport) -> dict:
    """JSON-ready stability report with fixed key names."""
    region = report.region
    eq = report.equilibrium
    return {
        "u_star": eq.u_star,
        "v_star": eq.v_star,
        "trace_J": eq.trace_j,
        "det_J": eq.det_j,
        "alpha": report.alpha,
        "beta": report.beta,
        "lambda_star": report.lambda_star,
        "lambda_star_1": None if region is None else region[0],
        "lambda_star_2": None if region is None else region[1],
        "unstable_modes": (
            None if report.unstable_modes is None else list(report.unstable_modes)
        ),
    }
