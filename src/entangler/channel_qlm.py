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

Everything lives on the half line [0, y_max] of QlmConfig's grid with
even-parity states (l(0) = 0), matching the zero iterate l_0 = -g y of a
symmetric well. qlm_spectrum runs the iteration on a potential sampled on
that grid and returns each iterate's energy and the last log-derivative;
qlm_weight, qlm_energy and qlm_step are its per-iterate kernels on arrays
sampled on the grid.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .numerics import DomainError, Grid1D, check_domain, erfcx

__all__ = [
    "ChannelPotentialParams",
    "QlmConfig",
    "QlmError",
    "coulomb_profile",
    "channel_potential",
    "harmonic_reference_potential",
    "qlm_weight",
    "qlm_energy",
    "qlm_step",
    "qlm_spectrum",
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
    """Iteration controls: zero-iterate slope g, grid size, loop count.

    The half-line grid [0, 7.5/sqrt(g)] is derived from g: exp(-g y_max^2)
    ~ 4e-25 leaves enough margin that the truncated tail of the backward
    integral in qlm_step stays below 1e-8 everywhere inside 6/sqrt(g).
    """

    g: float
    n_points: int = 4001
    iterations: int = 3
    grid: Grid1D = field(init=False)

    def __post_init__(self):
        check_domain(self, positive=("g",))
        object.__setattr__(self, "grid",
                           Grid1D(0.0, 7.5 / math.sqrt(self.g), self.n_points))
        if self.iterations < 1:
            raise DomainError("iterations", "iterations must be >= 1, "
                                            f"got {self.iterations}")


def coulomb_profile(y, fermi_l: float):
    """erfcx(y / (sqrt(2) fermi_l)), the shape of the screened Coulomb term.
    A quotient that overflows is inf, as in channel_potential."""
    with np.errstate(all="ignore"):
        u = np.asarray(y, dtype=float) / (math.sqrt(2.0) * fermi_l)
    return erfcx(u)


def channel_potential(p: ChannelPotentialParams, y, profile=None):
    """Channel potential at y (scalar or array). profile, when given, is
    coulomb_profile(y, p.fermi_l) sampled already: the points of a sweep
    that share the grid and fermi_l share one erfcx pass. A value that
    overflows is inf, which qlm_spectrum reports (squares as C's pow)."""
    y = np.asarray(y, dtype=float)
    with np.errstate(all="ignore"):
        omega2, a2 = np.float64(p.omega) ** 2, np.float64(p.a) ** 2
        quartic = (p.m_eff * omega2 / (8.0 * a2)) * (y ** 2 - a2) ** 2
        if not p.include_vc:
            return quartic if quartic.ndim else float(quartic)
        if profile is None:
            profile = coulomb_profile(y, p.fermi_l)
        scale = math.sqrt(math.pi / 2.0) * p.coulomb_k / p.fermi_l
        out = quartic + scale * profile
    return out if out.ndim else float(out)


def harmonic_reference_potential(p: ChannelPotentialParams, y):
    """Validation potential (m*/2) w^2 y^2; exact QLM fixed point l = -m* w y."""
    y = np.asarray(y, dtype=float)
    with np.errstate(all="ignore"):  # as channel_potential: overflow is inf
        out = 0.5 * p.m_eff * np.float64(p.omega) ** 2 * y ** 2
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


def _total(f: np.ndarray, h: float) -> float:
    """_cumulative(f, h)[-1] alone: the chain that ends at the last sample,
    the even one for an odd count, else the trapezoid seed plus the odd one,
    in the same panels and summation order."""
    odd = f.shape[0] % 2 == 0  # the last sample is on the odd chain
    g = f[1:] if odd else f
    total = np.cumsum((h / 3.0) * (g[:-2:2] + 4.0 * g[1:-1:2] + g[2::2]))[-1]
    return 0.5 * h * (f[0] + f[1]) + total if odd else total


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
    num = _total(w * (prev_l ** 2 + 2.0 * p.m_eff * v), h)
    den = _total(w, h)
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
                 v: np.ndarray) -> tuple[list[float], np.ndarray]:
    """Run the iteration cfg.iterations times on the potential v sampled on
    cfg.grid: weight, energy from the decay condition, then the linearized
    step, with the weight computed once per iterate.

    Returns (energies, l): the energy of every iterate in order and the last
    log-derivative on cfg.grid. A failing iterate, including one whose
    energy or log-derivative is not finite, raises QlmError naming it; a v
    not on cfg.grid raises ValueError. numpy's floating-point warnings are
    silenced here, because each non-finite value they would announce ends
    in that QlmError.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (cfg.grid.n_points,):
        raise ValueError("v must be sampled on cfg.grid")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        l_cur = -cfg.g * cfg.grid.points()
        energies = []
        for n in range(1, cfg.iterations + 1):
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
            energies.append(e_n)
    return energies, l_cur
