"""Spin-split spectrum of the 2DEG source lead.

The lead Hamiltonian combines transverse particle-in-a-box confinement,
plane-wave propagation along y, a harmonic term, a logarithmic 2D Coulomb
interaction, and the Rashba spin-orbit coupling alpha (sigma_x P_y -
sigma_y P_x). Its 2x2 expectation matrix in the {up, down} spinor basis is
built two ways:

* integrated mode (build_hmatrix): x-expectations over the sin(pi x / L_x)
  profile, plane-wave momenta acting analytically per unit length. The
  y-dependent potential pieces have no per-unit-length limit for a plane
  wave, so they are evaluated at the channel-entrance cross-section y = 0.
* local mode (chart_delta_e): symmetrized integrand densities at each
  (x, y), which is what a splitting map over the lead area means. For the
  real transverse profile the symmetrized transverse momentum density
  vanishes, so the local off-diagonal is alpha k |phi(x)|^2 and the local
  splitting 2 alpha |k| |phi(x)|^2 varies across the lead width.

The log singularity at x = y is handled as -beta ln(|x - y| / R) with an
exclusion window of half-width reg_delta, the standard principal-value
treatment of the 2D logarithmic interaction.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .numerics import DomainError, Grid1D, eigen_small

__all__ = [
    "SourceParams",
    "HMatrix2",
    "SpinSplitResult",
    "build_hmatrix",
    "spin_split",
    "chart_delta_e",
]

_DEGENERATE_TOL = 1e-14


@dataclass(frozen=True)
class SourceParams:
    m_eff: float = 1.0
    omega: float = 1.0
    beta: float = 0.5
    r_coulomb: float = 1.0
    alpha_r: float = 0.2
    l_x: float = math.pi
    k: float = 1.0
    reg_delta: float = 1e-3

    def __post_init__(self):
        for name in ("m_eff", "omega", "r_coulomb", "l_x", "reg_delta"):
            if getattr(self, name) <= 0:
                raise DomainError(
                    name, f"{name} must be positive, got {getattr(self, name)}")
        for name in ("beta", "alpha_r"):
            if getattr(self, name) < 0:
                raise DomainError(
                    name, f"{name} must be non-negative, got {getattr(self, name)}")
        if self.reg_delta >= self.l_x / 10.0:
            raise DomainError(
                "reg_delta", f"reg_delta = {self.reg_delta} must be below "
                             f"l_x / 10 = {self.l_x / 10.0}")


@dataclass(frozen=True)
class HMatrix2:
    """2x2 expectation matrix of the lead Hamiltonian in the spinor basis."""

    h11: complex
    h12: complex
    h21: complex
    h22: complex

    def to_array(self) -> np.ndarray:
        return np.array([[self.h11, self.h12], [self.h21, self.h22]], dtype=complex)

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        scale = max(1.0, abs(self.h11), abs(self.h12), abs(self.h21), abs(self.h22))
        return (abs(self.h21 - self.h12.conjugate()) <= tol * scale
                and abs(self.h11.imag) <= tol * scale
                and abs(self.h22.imag) <= tol * scale)


@dataclass(frozen=True)
class SpinSplitResult:
    e_up: float
    e_down: float
    delta_e: float
    eigvec_up: np.ndarray
    eigvec_down: np.ndarray


def _transverse_density(p: SourceParams, x: float) -> float:
    """|phi(x)|^2 for the normalized sin profile on [0, L_x]."""
    return (2.0 / p.l_x) * math.sin(math.pi * x / p.l_x) ** 2


# Terms of the Si power series: at z = 2 pi the 22nd term is below 1e-20.
_SI_TERMS = 22


def _si(z: float) -> float:
    """Sine integral Si(z) = int_0^z sin(t)/t dt for 0 <= z <= 2 pi, by its
    power series sum_n (-1)^n z^(2n+1) / ((2n+1) (2n+1)!) (Abramowitz &
    Stegun 5.2.14) with a fixed number of terms."""
    term = z
    total = z
    for n in range(1, _SI_TERMS):
        term *= -z * z / ((2 * n) * (2 * n + 1))
        total += term / (2 * n + 1)
    return total


def _log_coulomb(p: SourceParams) -> float:
    """-(beta/L) [F(L) - F(delta)], the log-Coulomb term of build_hmatrix."""
    c = 2.0 * math.pi / p.l_x

    def antiderivative(x: float) -> float:
        log_x = math.log(x / p.r_coulomb)
        return x * log_x - x - (math.sin(c * x) * log_x - _si(c * x)) / c

    return -(p.beta / p.l_x) * (antiderivative(p.l_x) - antiderivative(p.reg_delta))


def build_hmatrix(p: SourceParams) -> HMatrix2:
    """Integrated 2x2 expectation matrix of the lead Hamiltonian.

    Diagonal: transverse box kinetic pi^2/(2 m* L_x^2), longitudinal k^2/2m*,
    harmonic (m* w^2 / 2) <x^2>, and the regularized log-Coulomb expectation
    at the y = 0 cross-section. Off-diagonal: the Rashba coupling; the
    transverse momentum expectation vanishes for the real sin profile, so
    h12 = h21 = alpha k.

    The log-Coulomb expectation int_delta^L (2/L) sin^2(pi x/L)
    (-beta ln(x/R)) dx is taken in closed form. With
    2 sin^2(pi x/L) = 1 - cos(c x), c = 2 pi/L, and integration by parts of
    the cosine term, it is -(beta/L) [F(L) - F(delta)] with

        F(x) = x ln(x/R) - x - (sin(c x) ln(x/R) - Si(c x)) / c.

    Si is only needed on [0, 2 pi], where its power series converges in ~20
    terms; scipy.special.sici would load scipy in every source run.
    """
    kinetic_x = math.pi ** 2 / (2.0 * p.m_eff * p.l_x ** 2)
    kinetic_y = p.k ** 2 / (2.0 * p.m_eff)
    # <x^2> over the sin^2 profile has the closed form L^2 (1/3 - 1/(2 pi^2)).
    harmonic_x = 0.5 * p.m_eff * p.omega ** 2 * p.l_x ** 2 * (1.0 / 3.0 - 0.5 / math.pi ** 2)
    diag = kinetic_x + kinetic_y + harmonic_x + _log_coulomb(p)
    rashba = complex(p.alpha_r * p.k)
    return HMatrix2(h11=complex(diag), h12=rashba, h21=rashba.conjugate(),
                    h22=complex(diag))


def spin_split(h: HMatrix2) -> SpinSplitResult:
    """Eigenvalue pair of the 2x2 matrix with the closed-form two-component
    eigenvectors, reading the discriminant as (h11-h22)^2 + 4 h12 h21.

    Degenerate matrices return the basis spinors; h21 = 0 with distinct
    diagonal falls back to the dense solver since the closed form divides
    by h21.
    """
    disc = (h.h11 - h.h22) ** 2 + 4.0 * h.h12 * h.h21
    scale = max(1.0, abs(h.h11), abs(h.h22), abs(h.h12), abs(h.h21)) ** 2
    if abs(disc) < _DEGENERATE_TOL * scale:
        e = 0.5 * (h.h11 + h.h22)
        return SpinSplitResult(
            e_up=e.real, e_down=e.real, delta_e=0.0,
            eigvec_up=np.array([1.0, 0.0], dtype=complex),
            eigvec_down=np.array([0.0, 1.0], dtype=complex),
        )
    root = cmath.sqrt(disc)
    if root.real < 0 or (root.real == 0 and root.imag < 0):
        root = -root
    e_up = 0.5 * (h.h11 + h.h22 - root)
    e_down = 0.5 * (h.h11 + h.h22 + root)
    if abs(h.h21) < _DEGENERATE_TOL * math.sqrt(scale):
        sys = eigen_small(h.to_array())
        vec_up, vec_down = sys.eigenvectors[:, 0], sys.eigenvectors[:, 1]
    else:
        vec_up = np.array([-(-h.h11 + h.h22 + root) / (2.0 * h.h21), 1.0],
                          dtype=complex)
        vec_down = np.array([-(-h.h11 + h.h22 - root) / (2.0 * h.h21), 1.0],
                            dtype=complex)
        vec_up = vec_up / np.linalg.norm(vec_up)
        vec_down = vec_down / np.linalg.norm(vec_down)
    return SpinSplitResult(
        e_up=e_up.real, e_down=e_down.real, delta_e=(e_down - e_up).real,
        eigvec_up=vec_up, eigvec_down=vec_down,
    )


def chart_delta_e(p: SourceParams, x_values, y_grid: Grid1D) -> list[tuple]:
    """Local splitting map over the lead: one row (x, y, e_up, e_down,
    delta_e) per grid point, row-major over x then y.

    Uses symmetrized energy densities at each point: the common diagonal
    density carries the kinetic constants plus (m* w^2 / 2)(x^2 + y^2) and
    the regularized log term, all weighted by |phi(x)|^2; the off-diagonal
    density is alpha k |phi(x)|^2.

    The local matrix has equal diagonals, so its eigenvalues are
    dens -+ |off|, evaluated for the whole grid at once; this equals
    spin_split on each local HMatrix2 bit for bit, degenerate branch
    included. The log term is taken per point with math.log, because
    np.log differs from it by 1 ulp on some arguments.
    """
    x_values = [float(x) for x in x_values]
    for x in x_values:
        if not 0.0 < x < p.l_x:
            raise ValueError(f"x = {x} outside the open interval (0, {p.l_x})")
    kinetic = math.pi ** 2 / (2.0 * p.m_eff * p.l_x ** 2) + p.k ** 2 / (2.0 * p.m_eff)
    ys = y_grid.points()
    x = np.repeat(x_values, len(ys))
    y = np.tile(ys, len(x_values))
    weight = np.repeat([_transverse_density(p, xv) for xv in x_values], len(ys))
    ratio = np.maximum(np.abs(x - y), p.reg_delta) / p.r_coulomb
    log_term = -p.beta * np.fromiter(map(math.log, ratio.tolist()), float, len(ratio))
    dens = (kinetic + 0.5 * p.m_eff * p.omega ** 2 * (x * x + y * y) + log_term) * weight
    off = np.abs(p.alpha_r * p.k * weight)
    scale = np.maximum(np.maximum(1.0, np.abs(dens)), off) ** 2
    off = np.where(4.0 * (off * off) < _DEGENERATE_TOL * scale, 0.0, off)
    e_up = dens - off
    e_down = dens + off
    return list(zip(x.tolist(), y.tolist(), e_up.tolist(), e_down.tolist(),
                    (e_down - e_up).tolist()))
