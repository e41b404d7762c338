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
  splitting 2 alpha |k| |phi(x)|^2 varies across the lead width. The map
  is spin_split's arrays over the grid points, without their (x, y).

The log singularity at x = y is handled as -beta ln(|x - y| / R) with an
exclusion window of half-width reg_delta, the standard principal-value
treatment of the 2D logarithmic interaction.

Any SourceParams field may hold an array, one value per point of a sweep;
build_hmatrix and spin_split then work on every point at once, and each
point gets the bits it gets alone. An overflow, or a
division by an underflowed zero, is inf or nan in its point's entries or
energies, for the caller to check; the only error raised is a DomainError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import DomainError, Grid1D, _libm, check_domain, check_finite, first_failure

__all__ = [
    "SourceParams",
    "HMatrix2",
    "SpinSplitResult",
    "build_hmatrix",
    "spin_split",
    "chart_delta_e",
]

@dataclass(frozen=True)
class SourceParams:
    """Lead parameters; any field may be an array over the points of a sweep."""

    m_eff: float = 1.0
    omega: float = 1.0
    beta: float = 0.5
    r_coulomb: float = 1.0
    alpha_r: float = 0.2
    l_x: float = math.pi
    k: float = 1.0
    reg_delta: float = 1e-3

    def __post_init__(self):
        check_domain(self,
                     positive=("m_eff", "omega", "r_coulomb", "l_x", "reg_delta"),
                     non_negative=("beta", "alpha_r"))
        bad = first_failure(self.reg_delta >= self.l_x / 10.0, self.reg_delta, self.l_x)
        if bad:
            i, reg_delta, l_x = bad
            raise DomainError("reg_delta", f"reg_delta = {reg_delta} must be below "
                                           f"l_x / 10 = {l_x / 10.0}", i)


@dataclass(frozen=True)
class HMatrix2:
    """2x2 expectation matrix of the lead Hamiltonian in the spinor basis;
    entries are arrays for a sweep."""

    h11: float
    h12: complex
    h21: complex
    h22: float

    def to_array(self) -> np.ndarray:
        return np.array([[self.h11, self.h12], [self.h21, self.h22]], dtype=complex)


@dataclass(frozen=True)
class SpinSplitResult:
    """Spin-up and spin-down energies of the lead and their splitting;
    arrays for a sweep or over a chart grid."""

    e_up: float
    e_down: float
    delta_e: float


# Terms of the Si power series: at z = 2 pi the 22nd term is below 1e-20.
_SI_TERMS = 22


def _si(z):
    """Sine integral Si(z) = int_0^z sin(t)/t dt for 0 <= z <= 2 pi, of a float
    or elementwise of an array, by its power series sum_n (-1)^n z^(2n+1) /
    ((2n+1) (2n+1)!) (Abramowitz & Stegun 5.2.14) with a fixed number of terms."""
    term = total = z
    for n in range(1, _SI_TERMS):
        term = term * (-z * z / ((2 * n) * (2 * n + 1)))
        total = total + term / (2 * n + 1)
    return total


def _log_ratio(x, r_coulomb) -> np.ndarray:
    """ln(x/R) of each x > 0, by libm per sample (numerics._libm), in the
    broadcast shape; ln x - ln R where x/R is 0, subnormal or inf."""
    ratio = x / r_coulomb
    odd = (ratio < 2.0 ** -1022) | np.isinf(ratio)  # 2^-1022: the smallest normal
    logs = _libm(math.log, np.where(odd, x, ratio))
    if odd.any():
        logs[odd] -= _libm(math.log, np.broadcast_to(r_coulomb, odd.shape)[odd])
    return logs


def _log_coulomb(p: SourceParams):
    """-(beta/L) [F(L) - F(delta)], the log-Coulomb term of build_hmatrix.
    The bracket depends on l_x, r_coulomb and reg_delta only: one pass over
    the points where one of them is an array, on numpy scalars where none
    is. nan where 2 pi/L overflows (so does the box term pi^2/(2 m* L^2))."""
    l_x, r, delta = (a[()] for a in np.broadcast_arrays(p.l_x, p.r_coulomb, p.reg_delta))
    c = 2.0 * math.pi / l_x
    c = np.where(np.isinf(c), math.nan, c)[()]  # math.sin(inf) raises, sin(nan) is nan

    def antiderivative(x):
        cx, log_x = c * x, _log_ratio(x, r)
        return x * log_x - x - (_libm(math.sin, cx) * log_x - _si(cx)) / c

    return -(p.beta / p.l_x) * (antiderivative(l_x) - antiderivative(delta))


def build_hmatrix(p: SourceParams) -> HMatrix2:
    """Integrated 2x2 expectation matrix of the lead Hamiltonian.

    Diagonal: transverse box kinetic pi^2/(2 m* L_x^2), longitudinal k^2/2m*,
    harmonic (m* w^2 / 2) <x^2>, and the regularized log-Coulomb expectation
    at the y = 0 cross-section. Off-diagonal: the Rashba coupling; the
    transverse momentum expectation vanishes for the real sin profile, so
    the entries are real and h12 = h21 = alpha k.

    The log-Coulomb expectation int_delta^L (2/L) sin^2(pi x/L)
    (-beta ln(x/R)) dx is taken in closed form. With
    2 sin^2(pi x/L) = 1 - cos(c x), c = 2 pi/L, and integration by parts of
    the cosine term, it is -(beta/L) [F(L) - F(delta)] with

        F(x) = x ln(x/R) - x - (sin(c x) ln(x/R) - Si(c x)) / c.

    Si is only needed on [0, 2 pi], where its power series converges in ~20
    terms; scipy.special.sici would load scipy in every source run.
    Squares are np.float_power, so one that overflows is inf instead of
    OverflowError.
    """
    with np.errstate(all="ignore"):
        l_x2 = np.float_power(p.l_x, 2)
        kinetic_x = math.pi ** 2 / (2.0 * p.m_eff * l_x2)
        kinetic_y = np.float_power(p.k, 2) / (2.0 * p.m_eff)
        # <x^2> over the sin^2 profile has the closed form L^2 (1/3 - 1/(2 pi^2)).
        harmonic_x = (0.5 * p.m_eff * np.float_power(p.omega, 2) * l_x2
                      * (1.0 / 3.0 - 0.5 / math.pi ** 2))
        diag = kinetic_x + kinetic_y + harmonic_x + _log_coulomb(p)
        rashba = p.alpha_r * p.k
    return HMatrix2(h11=diag, h12=rashba, h21=rashba, h22=diag)


def spin_split(h: HMatrix2) -> SpinSplitResult:
    """Eigenvalue pair of the Hermitian 2x2 matrix (real h11, h22 and
    h21 = conj(h12), which is not read) and its splitting, in closed form:
    m -+ r with m the diagonal mean and r = hypot((h11 - h22)/2, |h12|),
    so delta_e = 2 r never cancels against the diagonal and no entry is
    squared. Entries may be arrays, one matrix per point.
    """
    with np.errstate(all="ignore"):
        half_gap = 0.5 * h.h11 - 0.5 * h.h22
        mean = h.h11 - half_gap  # h11 itself where h11 == h22
        r = np.hypot(half_gap, np.abs(h.h12))
        return SpinSplitResult(e_up=(mean - r)[()], e_down=(mean + r)[()],
                               delta_e=(2.0 * r)[()])


def chart_delta_e(p: SourceParams, x_values, y_grid: Grid1D) -> SpinSplitResult:
    """Local splitting map over the lead: spin_split's arrays over the grid
    points, row-major over x then y.

    The common diagonal density is the kinetic constants plus
    (m* w^2 / 2)(x^2 + y^2) and the regularized log term, the off-diagonal
    density alpha k, both weighted by |phi(x)|^2. The log term is
    _log_ratio's, per point. A value that is not finite raises ValueError
    naming its column (x, y or an energy).
    """
    x_values = np.asarray(x_values, dtype=float)
    bad = first_failure(~((0.0 < x_values) & (x_values < p.l_x)), x_values)
    if bad:
        raise ValueError(f"x = {bad[1]} outside the open interval (0, {p.l_x})")
    with np.errstate(all="ignore"):  # a value that overflows is inf, named below
        l_x2, k2, omega2 = np.float_power((p.l_x, p.k, p.omega), 2)
        kinetic = math.pi ** 2 / (2.0 * p.m_eff * l_x2) + k2 / (2.0 * p.m_eff)
        # |phi(x)|^2 of the sin profile on [0, L_x] by libm's sin and pow; where
        # pi x overflows, the phase is taken on x/4 and L_x/4, which keeps its bits.
        scale = np.where(np.isfinite(math.pi * x_values), 1.0, 0.25)
        phase = math.pi * (x_values * scale) / (p.l_x * scale)
        profile = (2.0 / p.l_x) * _libm(lambda a: math.sin(a) ** 2, phase)
        ys = y_grid.points()
        x = np.repeat(x_values, len(ys))
        y = np.tile(ys, len(x_values))
        weight = np.repeat(profile, len(ys))
        log_term = -p.beta * _log_ratio(np.maximum(np.abs(x - y), p.reg_delta), p.r_coulomb)
        dens = (kinetic + 0.5 * p.m_eff * omega2 * (x * x + y * y) + log_term) * weight
        off = p.alpha_r * p.k * weight
    s = spin_split(HMatrix2(h11=dens, h12=off, h21=off, h22=dens))
    check_finite(("x", "y", "e_up", "e_down", "delta_e"),
                 (x, y, s.e_up, s.e_down, s.delta_e))
    return s
