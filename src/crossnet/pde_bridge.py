"""Finite-difference bridge between the 1-d continuum model and the path graph.

Discretizing the one-dimensional cross-diffusion system on a uniform grid
of ``n`` points with zero-flux boundaries and spacing ``h = ell / (n - 1)``
yields exactly the network model on a path graph whose coefficients are the
continuum ones divided by ``h^2``.  ``stencil_rhs`` evaluates the same
right-hand side directly from the three-point second-difference stencil
(one-sided at the ends, matching a path Laplacian whose corner diagonal
entries equal 1), which gives an independent route for equivalence checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import require_int, require_real
from .graphs import Graph, GraphSpec, build_graph
from .stability import SktParams
from .dynamics import reaction_terms

__all__ = ["PdeParams", "discretize_skt_1d", "stencil_rhs"]


@dataclass(frozen=True)
class PdeParams(SktParams):
    """Continuum coefficients, named and checked as in ``SktParams``, plus the
    discretization: a finite interval length ``ell`` > 0 and ``n`` >= 2 points."""

    ell: float = 1.0
    n: int = 2

    def __post_init__(self):
        super().__post_init__()
        require_real("ell", self.ell)
        if not 0 < self.ell < math.inf:
            raise ValueError(f"interval length must be finite and positive, got {self.ell}")
        require_int("n", self.n)
        if self.n < 2:
            raise ValueError(f"need at least 2 grid points, got {self.n}")

    @property
    def h(self) -> float:
        return self.ell / (self.n - 1)


def discretize_skt_1d(p: PdeParams) -> tuple[SktParams, Graph]:
    """Network coefficients and path graph equivalent to the 1-d system.

    All transport coefficients are scaled by ``1 / h^2``; reaction
    coefficients pass through unchanged.
    """
    scale = 1.0 / (p.h * p.h)
    given = {f.name: getattr(p, f.name) for f in fields(SktParams)}
    params = SktParams(**{name: value * scale if name.startswith("d") else value for name, value in given.items()})
    return params, build_graph(GraphSpec(family="path", n=p.n))


def _second_difference(w: np.ndarray) -> np.ndarray:
    # interior: w[i-1] - 2 w[i] + w[i+1]; ends use the one-sided difference
    # that corresponds to diagonal entries of 1 in the path Laplacian
    out = np.empty_like(w)
    out[1:-1] = w[:-2] - 2.0 * w[1:-1] + w[2:]
    out[0] = w[1] - w[0]
    out[-1] = w[-2] - w[-1]
    return out


def stencil_rhs(u: np.ndarray, v: np.ndarray, p: PdeParams) -> tuple[np.ndarray, np.ndarray]:
    """Direct finite-difference right-hand side of the 1-d system.

    Applies the second-difference stencil once to each species' flux,
    ``d*u + d11*u^2 + d12*u*v`` and its v counterpart, with the boundary
    handling described above.
    """
    if u.shape != v.shape or u.ndim != 1 or u.size != p.n:
        raise ValueError(f"expected two length-{p.n} arrays, got {u.shape} and {v.shape}")
    scale = 1.0 / (p.h * p.h)
    fu, gv = reaction_terms(u, v, p)
    uv = u * v
    du = fu + scale * _second_difference(p.d * u + p.d11 * (u * u) + p.d12 * uv)
    dv = gv + scale * _second_difference(p.d * v + p.d22 * (v * v) + p.d21 * uv)
    return du, dv
