"""Laplacian spectra: numeric eigensolver, closed forms, ensemble statistics.

Eigenvalues are always reported in ascending order and indexed from 0, so
index 0 carries the zero eigenvalue of the constant mode and index 1 is the
algebraic connectivity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EigenSolverError
from .graphs import GraphSpec, _check_ring, build_graph, build_laplacian, ensemble_specs
from .parallel import _forked
from .textio import fmt_float

__all__ = [
    "SpectralStats",
    "eig_symmetric",
    "ring_spectrum_closed_form",
    "path_spectrum_closed_form",
    "ensemble_eigenvalues",
    "stats_from_eigenvalues",
    "write_spectrum_csv",
]


@dataclass(frozen=True)
class SpectralStats:
    """Per-sorted-index mean and population variance over an ensemble."""

    mean: np.ndarray
    variance: np.ndarray
    realizations: int


def eig_symmetric(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a dense symmetric real matrix, in ascending order.

    Backed by the LAPACK symmetric eigensolver; non-finite or asymmetric
    input is rejected, and solver non-convergence surfaces as EigenSolverError.
    The checks build one n x n temporary, ``a - a.T``, and the solver works
    on its own copy of the input, so the peak is the input plus one copy.
    The difference is exactly antisymmetric (fl(x - y) = -fl(y - x)), so its
    largest entry is its largest magnitude.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not a.size:
        return np.linalg.eigvalsh(a)  # the empty spectrum
    # a NaN entry makes both operands NaN; max() would drop a lone second one
    peak = max(float(a.max()), -float(a.min()))
    if not math.isfinite(peak):
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, peak)
    if float((a - a.T).max()) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"symmetric eigensolver failed to converge: {exc}") from exc


def ring_spectrum_closed_form(n: int, k: int) -> np.ndarray:
    """Eigenvalues of the ring Laplacian, sorted ascending.

    The ring on ``n`` nodes with ``k`` neighbors per side is a circulant
    graph, so mode ``j`` (0-based) has eigenvalue
    ``2k - sum_{m=1..k} 2 cos(2 pi m j / n)``.
    """
    _check_ring("ring", n, k)
    j = np.arange(n)
    m = np.arange(1, k + 1)
    vals = 2.0 * k - 2.0 * np.cos(2.0 * np.pi * np.outer(m, j) / n).sum(axis=0)
    return np.sort(vals)


def path_spectrum_closed_form(n: int) -> np.ndarray:
    """Eigenvalues of the path Laplacian: ``2 - 2 cos(pi j / n)``, j = 0..n-1.

    Already ascending.  These are the discrete analogues of the zero-flux
    second-derivative eigenvalues on an interval.
    """
    if n < 2:
        raise ValueError(f"path requires n >= 2, got {n}")
    return 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)


def stats_from_eigenvalues(eigs: np.ndarray) -> SpectralStats:
    """Per-index mean/variance over realization rows.

    Uses the shifted-data form of the variance: identical to var(eigs)
    analytically, but exactly zero when every realization produced the
    same spectrum.
    """
    eigs = np.asarray(eigs, dtype=float)
    if eigs.ndim != 2 or eigs.shape[0] < 1:
        raise ValueError(f"expected a (realizations, n) array, got shape {eigs.shape}")
    return SpectralStats(eigs.mean(axis=0), (eigs - eigs[0]).var(axis=0), eigs.shape[0])


def ensemble_eigenvalues(spec: GraphSpec, realizations: int, master_seed: int, workers: int = 1) -> np.ndarray:
    """(realizations, n) array of sorted eigenvalues, one row per realization.

    Realization ``i`` is built from ``ensemble_specs(spec, realizations,
    master_seed)``, so its seed is derived from (master_seed, i).  Each of up
    to ``workers`` contiguous slices (``parallel._forked``) builds, checks and
    solves its own graphs in order, so neither the rows nor the error raised,
    the first failing realization's, depend on ``workers``.
    """

    def solve(members: list[GraphSpec]) -> np.ndarray:
        return np.stack([eig_symmetric(build_laplacian(build_graph(m))) for m in members])

    return np.concatenate(_forked(solve, list(ensemble_specs(spec, realizations, master_seed)), workers))


def write_spectrum_csv(eigenvalues: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        fh.write("index,eigenvalue\n")
        for i, val in enumerate(eigenvalues):
            fh.write(f"{i},{fmt_float(val)}\n")
