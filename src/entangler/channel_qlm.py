"""Channel energy spectrum via quasilinearization of the Riccati equation.

The 1D channel Schrodinger problem phi'' + k^2(y) phi = 0 with
k^2(y) = 2 m* [E - V(y)] turns, through the log-derivative substitution
l = phi'/phi, into the Riccati equation l' + l^2 + k^2 = 0. Newton-type
linearization gives the iteration

    l_n' + 2 l_{n-1} l_n = l_{n-1}^2 - k_n^2,

solved with the integrating factor u(y) = exp(int 2 l_{n-1}). The energy of
each iterate comes from the decay condition u(y) l_n(y) -> 0 at large y,
which fixes

    E_n = int w (l_{n-1}^2 + 2 m* V) / (2 m* int w),   w = exp(2 int l_{n-1}).

Everything lives on the half line [0, y_max] with even-parity states
(l(0) = 0), matching the zero iterate l_0 = -g y of a symmetric well.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import DomainError, Grid1D, erfcx

__all__ = [
    "ChannelPotentialParams",
    "QlmConfig",
    "QlmIterate",
    "QlmError",
    "channel_potential",
    "harmonic_reference_potential",
    "qlm_step",
    "qlm_energy",
    "qlm_spectrum",
    "default_qlm_grid",
]


class QlmError(RuntimeError):
    """Iteration failure: integrating-factor blow-up or non-decaying weight."""


@dataclass(frozen=True)
class ChannelPotentialParams:
    """Quartic double-well channel plus optional effective 1D Coulomb term.

    The confinement is (m* w^2 / 8 a^2)(y^2 - a^2)^2; the screened
    interaction is sqrt(pi/2) (k/l) erfcx(y / (sqrt(2) l)) with Fermi length
    l. In natural units the harmonic length is 1/sqrt(omega); passing an
    inconsistent ``a`` is allowed but warned about.
    """

    m_eff: float = 1.0
    omega: float = 1.0
    a: float = 1.0
    coulomb_k: float = 0.0
    fermi_l: float = 1.0
    include_vc: bool = False

    def __post_init__(self):
        for name in ("m_eff", "omega", "a", "fermi_l"):
            if getattr(self, name) <= 0:
                raise DomainError(
                    name, f"{name} must be positive, got {getattr(self, name)}")
        if self.coulomb_k < 0:
            raise DomainError(
                "coulomb_k", f"coulomb_k must be non-negative, got {self.coulomb_k}")
        a_natural = 1.0 / math.sqrt(self.omega)
        if abs(self.a - a_natural) > 1e-9 * a_natural:
            warnings.warn(
                f"a = {self.a} differs from the natural-unit harmonic length "
                f"1/sqrt(omega) = {a_natural:.6g}",
                stacklevel=3,  # past the generated __init__, to its caller
            )


@dataclass(frozen=True)
class QlmConfig:
    """Iteration controls: zero-iterate slope g, half-line grid, loop count."""

    g: float
    grid: Grid1D
    max_iterations: int = 3

    def __post_init__(self):
        if self.g <= 0:
            raise DomainError("g", f"g must be positive, got {self.g}")
        if self.grid.y_min != 0.0:
            raise ValueError("grid must start at y = 0 (half line, even parity)")
        if self.max_iterations < 1:
            raise DomainError("max_iterations", "max_iterations must be >= 1, "
                                                f"got {self.max_iterations}")
        # The zero-iterate weight exp(-g y^2) must be negligible at the edge.
        if math.exp(-self.g * self.grid.y_max ** 2) >= 1e-12:
            raise ValueError(
                f"y_max = {self.grid.y_max} too small: exp(-g y_max^2) = "
                f"{math.exp(-self.g * self.grid.y_max ** 2):.3g} >= 1e-12"
            )


@dataclass
class QlmIterate:
    """One iterate: index n >= 1, sampled log-derivative, and its energy."""

    n: int
    l_n: np.ndarray
    e_n: float


def default_qlm_grid(g: float, n_points: int = 4001) -> Grid1D:
    """Half-line grid sized for slope g.

    y_max = 7.5/sqrt(g) keeps exp(-g y_max^2) ~ 4e-25, leaving enough margin
    that the truncated tail of the backward integral in qlm_step stays below
    1e-8 everywhere inside 6/sqrt(g).
    """
    if not g > 0:
        raise DomainError("g", f"g must be positive, got {g}")
    return Grid1D(0.0, 7.5 / math.sqrt(g), n_points)


def channel_potential(p: ChannelPotentialParams, y):
    """Channel potential at y (scalar or array)."""
    y = np.asarray(y, dtype=float)
    quartic = (p.m_eff * p.omega ** 2 / (8.0 * p.a ** 2)) * (y ** 2 - p.a ** 2) ** 2
    if not p.include_vc:
        return quartic if quartic.ndim else float(quartic)
    scale = math.sqrt(math.pi / 2.0) * p.coulomb_k / p.fermi_l
    vc = scale * np.vectorize(erfcx)(y / (math.sqrt(2.0) * p.fermi_l))
    out = quartic + vc
    return out if out.ndim else float(out)


def harmonic_reference_potential(p: ChannelPotentialParams, y):
    """Validation potential (m*/2) w^2 y^2; exact QLM fixed point l = -m* w y."""
    y = np.asarray(y, dtype=float)
    out = 0.5 * p.m_eff * p.omega ** 2 * y ** 2
    return out if out.ndim else float(out)


def _cumulative(f: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral of samples f from index 0, composite Simpson.

    Chained Simpson: out[i] = out[i-2] + Simpson(i-2, i-1, i), with a single
    trapezoid panel seeding the odd chain. Order 4 away from the seed panel.
    """
    n = f.shape[0]
    out = np.empty(n)
    out[0] = 0.0
    if n == 1:
        return out
    out[1] = 0.5 * h * (f[0] + f[1])
    if n == 2:
        return out
    panels = (h / 3.0) * (f[:-2] + 4.0 * f[1:-1] + f[2:])
    out[2::2] = np.cumsum(panels[0::2])
    if n > 3:
        out[3::2] = out[1] + np.cumsum(panels[1::2])
    return out


def _backward_cumulative(f: np.ndarray, h: float) -> np.ndarray:
    """b[i] = integral from y_i to y_max of f, same panel rule as _cumulative.

    Accumulating from the tail keeps b relatively accurate where f is tiny,
    which is what the division by the integrating factor needs.
    """
    return _cumulative(f[::-1], h)[::-1]


def _resolve_potential(p: ChannelPotentialParams,
                       potential: Callable | None) -> Callable:
    if potential is None:
        return lambda y: channel_potential(p, y)
    return potential


def _weight(prev_l: np.ndarray, cfg: QlmConfig) -> np.ndarray:
    """exp(2 int_0^y prev_l), guarded against overflow of the exponent."""
    h = cfg.grid.spacing
    expo = 2.0 * _cumulative(np.asarray(prev_l, dtype=float), h)
    if expo.max() > 700.0:
        i = int(np.argmax(expo > 700.0))
        raise QlmError(
            f"integrating factor overflows at y = {cfg.grid.points()[i]:.6g}; "
            "previous iterate grows instead of decaying"
        )
    return np.exp(expo)


def qlm_step(prev_l: np.ndarray, energy_guess: float, p: ChannelPotentialParams,
             cfg: QlmConfig, *, potential: Callable | None = None,
             assume_decay: bool = True) -> np.ndarray:
    """One linearized update: returns l_n on the grid given l_{n-1} and E.

    With assume_decay=True (the iteration default) the forward integral
    (1/u) int_0^y u Q is evaluated from the tail side as -B(y)/u(y) with
    B(y) = int_y^ymax u Q, using the decay condition int_0^inf u Q = 0 that
    defines the energy. This keeps the far tail accurate; the plain forward
    form amplifies quadrature rounding by 1/u(y) and is numerically
    meaningless beyond a few decay lengths. With assume_decay=False the
    literal forward value (B(0) - B(y))/u(y) is returned, which is the right
    reading for arbitrary energies that do not satisfy the decay condition.
    """
    prev_l = np.asarray(prev_l, dtype=float)
    y = cfg.grid.points()
    if prev_l.shape != y.shape:
        raise ValueError("prev_l must be sampled on cfg.grid")
    v = np.asarray(_resolve_potential(p, potential)(y), dtype=float)
    u = _weight(prev_l, cfg)
    if u.min() == 0.0:
        i = int(np.argmin(u))
        raise QlmError(f"integrating factor underflows to zero at y = {y[i]:.6g}; "
                       "shorten the grid")
    q = prev_l ** 2 - 2.0 * p.m_eff * (energy_guess - v)
    b = _backward_cumulative(u * q, cfg.grid.spacing)
    total = 0.0 if assume_decay else b[0]
    return (total - b) / u


def qlm_energy(prev_l: np.ndarray, p: ChannelPotentialParams, cfg: QlmConfig,
               *, potential: Callable | None = None) -> float:
    """Energy from the decay condition for the current log-derivative.

    E = int w (prev_l^2 + 2 m* V) / (2 m* int w) with w = exp(2 int prev_l).
    For prev_l = -g y this is the Gaussian-weighted first iterate energy.
    """
    prev_l = np.asarray(prev_l, dtype=float)
    y = cfg.grid.points()
    if prev_l.shape != y.shape:
        raise ValueError("prev_l must be sampled on cfg.grid")
    v = np.asarray(_resolve_potential(p, potential)(y), dtype=float)
    w = _weight(prev_l, cfg)
    if w[-1] > 1e-8 * w.max():
        raise QlmError(
            f"weight does not decay: w(y_max)/max(w) = {w[-1] / w.max():.3g}; "
            "the energy integral would be truncation dominated"
        )
    h = cfg.grid.spacing
    num = _cumulative(w * (prev_l ** 2 + 2.0 * p.m_eff * v), h)[-1]
    den = _cumulative(w, h)[-1]
    return num / (2.0 * p.m_eff * den)


def qlm_spectrum(p: ChannelPotentialParams, cfg: QlmConfig,
                 *, potential: Callable | None = None) -> list[QlmIterate]:
    """Run the full iteration: energy from the decay condition, then the
    linearized step, repeated max_iterations times.

    The potential is evaluated on the grid once per spectrum.

    Returns all iterates in order. A non-finite iterate stops the loop early
    with a warning; callers see the partial list.
    """
    y = cfg.grid.points()
    # One sample serves every call: qlm_energy and qlm_step evaluate the
    # potential on cfg.grid only.
    v = np.asarray(_resolve_potential(p, potential)(y), dtype=float)

    def sampled(_grid_points):
        return v

    l_cur = -cfg.g * y
    out: list[QlmIterate] = []
    for n in range(1, cfg.max_iterations + 1):
        e_n = qlm_energy(l_cur, p, cfg, potential=sampled)
        if not math.isfinite(e_n):
            warnings.warn(f"iteration {n} produced a non-finite energy; "
                          f"returning {len(out)} iterates", stacklevel=2)
            break
        l_cur = qlm_step(l_cur, e_n, p, cfg, potential=sampled, assume_decay=True)
        if not np.all(np.isfinite(l_cur)):
            warnings.warn(f"iteration {n} produced a non-finite log-derivative; "
                          f"returning {len(out)} iterates", stacklevel=2)
            break
        out.append(QlmIterate(n=n, l_n=l_cur, e_n=e_n))
    return out
