"""Finite-difference Schrodinger reference, the independent oracle the tests
hold the quasilinearization spectrum against. It uses scipy, which only the
tests need."""
from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal

from entangler.numerics import Grid1D


def fd_schrodinger_oracle(potential: Callable[[np.ndarray], np.ndarray],
                          grid: Grid1D, m_eff: float, n_levels: int) -> np.ndarray:
    """Lowest n_levels eigenvalues of -(1/2 m*) d2/dy2 + V(y), Dirichlet ends.

    Second-order central differences on the interior points give a symmetric
    tridiagonal problem; convergence is O(h^2). Used as the independent
    reference for the quasilinearization spectrum.
    """
    if m_eff <= 0:
        raise ValueError("m_eff must be positive")
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    if grid.n_points < 3 * n_levels:
        raise ValueError(
            f"grid too coarse: {grid.n_points} points for {n_levels} levels "
            f"(need at least {3 * n_levels})"
        )
    y = grid.points()
    h = grid.spacing
    v = np.asarray(potential(y[1:-1]), dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("potential not finite on the grid interior")
    diag = 1.0 / (m_eff * h * h) + v
    off = np.full(grid.n_points - 3, -0.5 / (m_eff * h * h))
    return eigh_tridiagonal(diag, off, select="i",
                            select_range=(0, n_levels - 1), eigvals_only=True)
