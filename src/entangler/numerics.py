"""Shared numerical kernel: erfcx, small eigen solvers and a quadrature,
and the checks the modules share: check_domain (of scalars, or of arrays
over the points of a sweep) and check_finite.

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
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Grid1D",
    "DomainError",
    "check_domain",
    "first_failure",
    "check_finite",
    "QuadratureError",
    "integrate",
    "erfcx",
    "EigenSystem",
    "eigen_small",
    "is_hermitian",
]

_SQRT_PI = math.sqrt(math.pi)


class DomainError(ValueError):
    """A parameter outside its domain; ``name`` is the field that holds it and
    ``index`` the first point of a sweep where it fails (0 for one point)."""

    def __init__(self, name: str, message: str, index: int = 0):
        super().__init__(message)
        self.name, self.index = name, index


def first_failure(bad, *values):
    """None where bad holds nowhere, else (i, the values at point i), i the
    first point where it holds. bad is a bool (i = 0) or a bool array over
    the points of a sweep; array values come back as Python scalars."""
    array = isinstance(bad, np.ndarray)
    if not (bad.any() if array else bad):
        return None
    i = int(bad.argmax()) if array else 0
    return (i,) + tuple(v[i].item() if isinstance(v, np.ndarray) else v for v in values)


def check_domain(params, positive=(), non_negative=()) -> None:
    """Raise DomainError for the first of the named fields of params that is
    not positive, then for the first of the others that is negative. A field
    may hold an array (a sweep); its first failing value is named."""
    for names, word, fails in ((positive, "positive", operator.le),
                               (non_negative, "non-negative", operator.lt)):
        for name in names:
            value = getattr(params, name)
            bad = first_failure(fails(value, 0), value)
            if bad:
                raise DomainError(name, f"{name} must be {word}, got {bad[1]}", bad[0])


def check_finite(names, columns) -> None:
    """Raise ValueError("non-finite <name>") for the first row of the columns
    (arrays or lists, one per name) that holds a float that is not finite,
    naming that row's first such column: the error of that row alone."""
    bad = [(int(np.isfinite(a).argmin()), name)
           for name, a in zip(names, map(np.asarray, columns))
           if a.dtype.kind in "fc" and not np.isfinite(a).all()]
    if bad:  # min keeps the first of equal rows
        raise ValueError(f"non-finite {min(bad, key=operator.itemgetter(0))[1]}")


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


def erfcx(x: float | np.ndarray) -> float | np.ndarray:
    """Scaled complementary error function exp(x^2) * erfc(x), of a float or
    elementwise of an array; a scalar or 0-d input gives a float.

    Stable for all real x: the naive product overflows near x = 26.6 and the
    direct erfc underflows, so |x| >= 8 uses the asymptotic series
    1/(x sqrt(pi)) * sum_k (-1)^k (2k-1)!! / (2 x^2)^k instead. |x| < 8
    evaluates the degree-13 Taylor polynomial of erfcx at the centre of its
    interval of width 1/4 (the generated table in _erfcx_table, after the
    piecewise design of S. G. Johnson's Faddeeva package), within 1 ulp of
    the correctly rounded value, with erfcx(0) = 1 exactly. Negative x uses
    the reflection erfcx(-x) = 2 exp(x^2) - erfcx(x); the function itself
    overflows to inf once 2 exp(x^2) does (x < -26.64). One vectorised path
    for all samples, of adds and multiplies and libm's exp: its bits do not
    depend on numpy's SIMD dispatch, whose np.exp kernels differ in the last
    bit.
    """
    a = np.asarray(x, dtype=float)
    flat = a.ravel()
    negative = flat < 0.0
    out = np.where(negative, -flat, flat)  # erfcx(|x|), reflected last
    taylor = out < 8.0  # nan compares false here and below: it stays as is
    if taylor.any():
        from ._erfcx_table import TAYLOR, WIDTH  # on first use: 448 floats to compile
        t = out[taylor]
        i = (t * (1.0 / WIDTH)).astype(np.intp)  # t / WIDTH is exact, below 32
        dt = t - (i + 0.5) * WIDTH
        c = np.take(TAYLOR, i, axis=1)  # (14, n): c_k of each sample's interval
        p = c[-1]
        for c_k in c[-2::-1]:  # Horner, in place in the taken columns
            p *= dt
            p += c_k
        out[taylor] = p
    series = out >= 8.0
    with np.errstate(all="ignore"):  # x * x overflows to inf past ~1.3e154
        if series.any():
            t = out[series]
            inv2x2 = 1.0 / (2.0 * t * t)
            total, term = np.ones(t.size), np.ones(t.size)
            # Terms shrink for x >= 8, k < 30: once a sample's term is below 1e-18
            # of its sum, later ones are below half its ulp and leave its bits.
            for k in range(1, 30):
                term *= -(2 * k - 1) * inv2x2
                total += term
                if (np.abs(term) < 1e-18 * np.abs(total)).all():
                    break
            out[series] = total / (t * _SQRT_PI)
        if negative.any():
            x2 = flat[negative] * flat[negative]
            e = np.fromiter(map(math.exp, np.minimum(x2, 709.0).tolist()), float, x2.size)
            out[negative] = np.where(x2 > 709.0, math.inf, 2.0 * e - out[negative])
    out = out.reshape(a.shape)
    return float(out) if out.ndim == 0 else out


@dataclass
class EigenSystem:
    """Full eigen decomposition of a small dense matrix, or of each matrix
    of a stack.

    Eigenvalues are sorted by ascending real part, ties broken by ascending
    imaginary part; eigenvectors[..., :, i] is the unit-norm vector for
    eigenvalues[..., i]. ``hermitian`` records the solver branch: True when
    the input passed is_hermitian and went through the symmetric solver (a
    bool array over a stack).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    hermitian: bool | np.ndarray


def eigen_small(m: Sequence[Sequence[complex]] | np.ndarray) -> EigenSystem:
    """Eigen decomposition of a 2x2 or 4x4 complex matrix, or of a stack of
    them, shape (n, k, k).

    Hermitian matrices go through the symmetric solver (real spectrum,
    orthonormal vectors), the rest through the general solver, one LAPACK
    call per branch for the whole stack; each matrix gets the bits a call
    on it alone would give. Output ordering is deterministic for fixed
    input.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-2:] not in ((2, 2), (4, 4)):
        raise ValueError(f"expected a 2x2 or 4x4 matrix or a stack of them, "
                         f"got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")

    stack = a.reshape((-1,) + a.shape[-2:])
    hermitian = is_hermitian(stack)
    vals = np.empty(stack.shape[:2], dtype=complex)
    vecs = np.empty_like(stack)
    for branch, solve in ((hermitian, np.linalg.eigh), (~hermitian, np.linalg.eig)):
        if branch.any():
            vals[branch], vecs[branch] = solve(stack[branch])

    order = np.lexsort((vals.imag, vals.real), axis=-1)
    vals = np.take_along_axis(vals, order, axis=-1)
    vecs = np.take_along_axis(vecs, order[:, None, :], axis=-1)
    vecs = vecs / np.linalg.norm(vecs, axis=-2, keepdims=True)
    if a.ndim == 2:
        return EigenSystem(vals[0], vecs[0], bool(hermitian[0]))
    return EigenSystem(vals, vecs, hermitian)


def is_hermitian(m: np.ndarray) -> bool | np.ndarray:
    """m == m^dagger within 1e-12 * max(1, max |m_ij|), of a matrix or of
    each matrix of a stack."""
    a = np.asarray(m, dtype=complex)
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    dev = np.abs(a - np.swapaxes(a.conj(), -1, -2)).max(axis=(-2, -1))
    ok = dev <= 1e-12 * scale
    return bool(ok) if ok.ndim == 0 else ok
