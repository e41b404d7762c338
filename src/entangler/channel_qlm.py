"""Channel energy spectrum via quasilinearization of the Riccati equation.

The 1D channel Schrodinger problem phi'' + k^2(y) phi = 0 with
k^2(y) = 2 m* [E - V(y)] turns, through the log-derivative substitution
l = phi'/phi, into the Riccati equation l' + l^2 + k^2 = 0. Newton-type
linearization gives the iteration

    l_n' + 2 l_{n-1} l_n = l_{n-1}^2 - k_n^2,

solved with the integrating factor w(y) = exp(int 2 l_{n-1}). The energy of
each iterate comes from the decay condition w(y) l_n(y) -> 0 at large y,
which fixes

    E_n = int w (l_{n-1}^2 + 2 m* V) / (2 m* int w).

Everything lives on the half line [0, y_max] with even-parity states
(l(0) = 0), matching the zero iterate l_0 = -g y of a symmetric well.
qlm_spectrum runs the iteration; qlm_weight, qlm_energy and qlm_step are its
per-iterate kernels on arrays sampled on the grid.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import DomainError, Grid1D, check_domain, erfcx

__all__ = [
    "ChannelPotentialParams",
    "QlmConfig",
    "QlmIterate",
    "QlmError",
    "channel_potential",
    "harmonic_reference_potential",
    "qlm_weight",
    "qlm_energy",
    "qlm_step",
    "qlm_spectrum",
    "default_qlm_grid",
]


class QlmError(RuntimeError):
    """Iteration failure: integrating-factor blow-up, non-decaying weight or a
    non-finite iterate."""


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
        check_domain(self, positive=("m_eff", "omega", "a", "fermi_l"),
                     non_negative=("coulomb_k",))
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
        check_domain(self, positive=("g",))
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
    vc = scale * erfcx(y / (math.sqrt(2.0) * p.fermi_l))
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
    f holds at least the 3 samples of a Grid1D.
    """
    out = np.empty(f.shape[0])
    out[0] = 0.0
    out[1] = 0.5 * h * (f[0] + f[1])
    panels = (h / 3.0) * (f[:-2] + 4.0 * f[1:-1] + f[2:])
    out[2::2] = np.cumsum(panels[0::2])
    out[3::2] = out[1] + np.cumsum(panels[1::2])
    return out


def qlm_weight(prev_l: np.ndarray, cfg: QlmConfig) -> np.ndarray:
    """w = exp(2 int_0^y prev_l) on cfg.grid: the integrating factor of the
    step and the weight of the energy integral.

    Raises QlmError if the exponent would overflow, if w(y_max) > 1e-8 max(w)
    (the energy integral would be truncation dominated) or if w underflows to
    zero (the step divides by it); ValueError if prev_l is not on cfg.grid.
    """
    prev_l = np.asarray(prev_l, dtype=float)
    if prev_l.shape != (cfg.grid.n_points,):
        raise ValueError("prev_l must be sampled on cfg.grid")
    expo = 2.0 * _cumulative(prev_l, cfg.grid.spacing)
    if expo.max() > 700.0:
        i = int(np.argmax(expo > 700.0))
        raise QlmError(f"integrating factor overflows at y = "
                       f"{cfg.grid.points()[i]:.6g}; previous iterate grows "
                       "instead of decaying")
    w = np.exp(expo)
    if w[-1] > 1e-8 * w.max():
        raise QlmError(f"weight does not decay: w(y_max)/max(w) = "
                       f"{w[-1] / w.max():.3g}; the energy integral would be "
                       "truncation dominated")
    if w.min() == 0.0:
        i = int(np.argmin(w))
        raise QlmError(f"integrating factor underflows to zero at "
                       f"y = {cfg.grid.points()[i]:.6g}; shorten the grid")
    return w


def qlm_energy(prev_l: np.ndarray, w: np.ndarray, v: np.ndarray,
               p: ChannelPotentialParams, cfg: QlmConfig) -> float:
    """Energy from the decay condition for the current log-derivative.

    E = int w (prev_l^2 + 2 m* V) / (2 m* int w), with w = qlm_weight(prev_l)
    and v the potential, both sampled on cfg.grid. For prev_l = -g y this is
    the Gaussian-weighted first iterate energy.
    """
    h = cfg.grid.spacing
    num = _cumulative(w * (prev_l ** 2 + 2.0 * p.m_eff * v), h)[-1]
    den = _cumulative(w, h)[-1]
    return num / (2.0 * p.m_eff * den)


def qlm_step(prev_l: np.ndarray, w: np.ndarray, energy: float, v: np.ndarray,
             p: ChannelPotentialParams, cfg: QlmConfig) -> np.ndarray:
    """One linearized update: l_n on cfg.grid from l_{n-1}, its weight w and
    the energy that qlm_energy gives them.

    The forward integral (1/w) int_0^y w Q is evaluated from the tail side as
    -B(y)/w(y) with B(y) = int_y^ymax w Q, using the decay condition
    int_0^inf w Q = 0 that defines the energy. This keeps the far tail
    accurate; the plain forward form amplifies quadrature rounding by 1/w(y)
    and is numerically meaningless beyond a few decay lengths.
    """
    q = prev_l ** 2 - 2.0 * p.m_eff * (energy - v)
    b = _cumulative((w * q)[::-1], cfg.grid.spacing)[::-1]
    return (0.0 - b) / w  # 0.0 - b keeps the last sample +0.0, not -0.0


def qlm_spectrum(p: ChannelPotentialParams, cfg: QlmConfig,
                 *, potential: Callable | None = None) -> list[QlmIterate]:
    """Run the iteration max_iterations times: weight, energy from the decay
    condition, then the linearized step. V (channel_potential unless
    potential is given) is sampled on cfg.grid once, the weight once per
    iterate.

    Returns every iterate in order. A failing iterate, including one whose
    energy or log-derivative is not finite, raises QlmError naming it.
    numpy's floating-point warnings are silenced here, because each
    non-finite value they would announce ends in that QlmError.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y = cfg.grid.points()
        v = np.asarray(channel_potential(p, y) if potential is None
                       else potential(y), dtype=float)
        l_cur = -cfg.g * y
        out: list[QlmIterate] = []
        for n in range(1, cfg.max_iterations + 1):
            try:
                w = qlm_weight(l_cur, cfg)
                e_n = qlm_energy(l_cur, w, v, p, cfg)
                if not math.isfinite(e_n):
                    raise QlmError("non-finite energy")
                l_cur = qlm_step(l_cur, w, e_n, v, p, cfg)
                if not np.all(np.isfinite(l_cur)):
                    raise QlmError("non-finite log-derivative")
            except QlmError as exc:
                raise QlmError(f"iteration {n}: {exc}") from None
            out.append(QlmIterate(n=n, l_n=l_cur, e_n=e_n))
    return out
