"""Shared numerical kernel: erfcx, small eigen solvers and a quadrature.

The adaptive Simpson quadrature ``integrate`` has no caller in the program
any more: both integrals it served (the source log-Coulomb term and the
two-qubit Coulomb expectation) are taken in closed form. It stays, with
QuadratureError, while the benchmark's tracer (bench/tracing.py) names it.

Everything here works in natural units (hbar = m = 1, effective masses are
dimensionless ratios) and is a pure function of its inputs, so results are
bit-deterministic and safe to call from multiple threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Grid1D",
    "DomainError",
    "QuadratureError",
    "integrate",
    "erfcx",
    "EigenSystem",
    "eigen_small",
    "is_hermitian",
]

_SQRT_PI = math.sqrt(math.pi)


class DomainError(ValueError):
    """A parameter outside its domain; ``name`` is the field that holds it."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge on some subinterval."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [y_min, y_max] with n_points strictly increasing points."""

    y_min: float
    y_max: float
    n_points: int

    def __post_init__(self):
        if not self.y_min < self.y_max:
            raise DomainError(
                "y_max", f"need y_min < y_max, got [{self.y_min}, {self.y_max}]")
        if self.n_points < 3:
            raise DomainError("n_points", f"need n_points >= 3, got {self.n_points}")

    @property
    def spacing(self) -> float:
        return (self.y_max - self.y_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.n_points)


def integrate(f: Callable[[float], float], a: float, b: float, tol: float,
              max_depth: int = 48, initial_panels: int = 16) -> float:
    """Adaptive composite Simpson quadrature of f on [a, b].

    Starts from a uniform split (so structure narrower than the interval is
    seen before the error estimate is trusted), then bisects each panel
    until the local Richardson estimate |S2 - S1|/10 meets its share of the
    absolute tolerance. Raises QuadratureError naming the offending
    subinterval if max_depth is exhausted.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if a == b:
        return 0.0

    def simpson(x0, x2, f0, f2):
        f1 = f(0.5 * (x0 + x2))
        return f1, (x2 - x0) * (f0 + 4.0 * f1 + f2) / 6.0

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        xm = 0.5 * (x0 + x2)
        fm_l, left = simpson(x0, xm, f0, f1)
        fm_r, right = simpson(xm, x2, f1, f2)
        # /10 instead of the asymptotic /15: the estimate is not reliable
        # enough at coarse scales to spend the whole budget on it.
        err = (left + right - whole) / 10.0
        if abs(err) <= eps:
            return left + right + (left + right - whole) / 15.0
        if depth >= max_depth:
            raise QuadratureError(
                f"no convergence on [{x0:.17g}, {x2:.17g}] after depth {max_depth}"
            )
        half = 0.5 * eps
        return (recurse(x0, xm, f0, fm_l, f1, left, half, depth + 1)
                + recurse(xm, x2, f1, fm_r, f2, right, half, depth + 1))

    edges = [a + (b - a) * i / initial_panels for i in range(initial_panels + 1)]
    values = [f(x) for x in edges]
    for v, x in zip(values, edges):
        if not math.isfinite(v):
            raise ValueError(f"integrand not finite at {x}")
    total = 0.0
    eps = tol / initial_panels
    for x0, x2, f0, f2 in zip(edges[:-1], edges[1:], values[:-1], values[1:]):
        f1, whole = simpson(x0, x2, f0, f2)
        total += recurse(x0, x2, f0, f1, f2, whole, eps, 0)
    return total


def erfcx(x: float) -> float:
    """Scaled complementary error function exp(x^2) * erfc(x).

    Stable for all real x: the naive product overflows near x = 26.6 and the
    direct erfc underflows, so large arguments use the asymptotic series
    1/(x sqrt(pi)) * sum_k (-1)^k (2k-1)!! / (2 x^2)^k instead. Negative x
    uses the reflection erfcx(-x) = 2 exp(x^2) - erfcx(x); the function
    itself overflows to inf once 2 exp(x^2) does (x < -26.64).
    """
    x = float(x)
    if x != x:
        return x
    if x < 0.0:
        x2 = x * x
        if x2 > 709.0:
            return math.inf
        return 2.0 * math.exp(x2) - erfcx(-x)
    if x < 8.0:
        return math.exp(x * x) * math.erfc(x)
    # Asymptotic series: terms fall below double rounding well before they
    # start diverging for x >= 8.
    inv2x2 = 1.0 / (2.0 * x * x)
    total = 1.0
    term = 1.0
    for k in range(1, 30):
        term *= -(2 * k - 1) * inv2x2
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return total / (x * _SQRT_PI)


@dataclass
class EigenSystem:
    """Full eigen decomposition of a small dense matrix.

    Eigenvalues are sorted by ascending real part, ties broken by ascending
    imaginary part; eigenvectors[:, i] is the unit-norm vector for
    eigenvalues[i]. residuals[i] = ||M v - lambda v||_2. ``defective`` is set
    when some residual exceeds the acceptance threshold instead of failing.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    defective: bool


def eigen_small(m: Sequence[Sequence[complex]] | np.ndarray) -> EigenSystem:
    """Eigen decomposition of a 2x2 or 4x4 complex matrix.

    Hermitian input goes through the symmetric solver (real spectrum,
    orthonormal vectors); anything else through the general solver. Output
    ordering is deterministic for fixed input.
    """
    a = np.asarray(m, dtype=complex)
    if a.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")

    if is_hermitian(a):
        vals, vecs = np.linalg.eigh(a)
        vals = vals.astype(complex)
    else:
        vals, vecs = np.linalg.eig(a)

    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    vecs = vecs[:, order]
    vecs = vecs / np.linalg.norm(vecs, axis=0)

    scale = max(1.0, np.linalg.norm(a, 2))
    residuals = np.linalg.norm(a @ vecs - vecs * vals, axis=0)
    defective = bool(np.any(residuals > 1e-10 * scale))
    return EigenSystem(vals, vecs, residuals, defective)


def is_hermitian(m: np.ndarray, tol: float = 1e-12) -> bool:
    a = np.asarray(m, dtype=complex)
    scale = max(1.0, float(np.abs(a).max()))
    return bool(np.abs(a - a.conj().T).max() <= tol * scale)
