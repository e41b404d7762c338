"""4x4 two-qubit channel matrix from Gaussian expectations and its eigen
system, checked against the claimed closed forms.

The two-electron channel wavefunction is a product Gaussian
exp[-y^2/(2 lambda^2) - x^2/(2 a_B^2)] times a plane wave riding either the
x or the y factor, attached to the 4-spinor (uu, ud, du, dd). The spinless
expectation <H0> collects the longitudinal kinetic energy, the quartic
confinement (by Gaussian moments: E[x^2] = a_B^2/2, E[x^4] = 3 a_B^4/4), and
the screened 1D Coulomb term, whose Gaussian average has the closed form
sqrt(pi/2) (K/l) / sqrt(1 - lam^2 / (2 l^2)) (K = coulomb_k, l = fermi_l)
because erf is odd (Ng & Geller, J. Res. NBS 73B (1969) 1; see
_vc_expectation); the Rashba expectation is <H_R> = -i alpha <d/dy>, which
is alpha k for propagation along y and zero along x.

The 4x4 matrix is reproduced exactly as the claimed pattern

    [[H0, 0, HR, 0], [HR, 0, H0, 0], [0, H0, 0, HR], [0, HR, 0, H0]]

which is not Hermitian; the report states Hermiticity instead of repairing
it, and cross-checks the claimed eigenpairs against the dense solver. The
closed-form vectors for the +-sqrt(H0^2 - HR^2) branch are singular when
|HR| >= |H0|, in which case the report flags the degenerate branch and
falls back to numeric vectors.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .numerics import (DomainError, EigenSystem, check_domain, check_finite, eigen_small,
                       first_failure)

__all__ = [
    "ALONG_X",
    "ALONG_Y",
    "TwoQubitParams",
    "TwoQubitMatrix",
    "EigenReport",
    "expectations",
    "build_matrix",
    "claimed_vs_numeric",
]

ALONG_Y = "along_y"
ALONG_X = "along_x"


@dataclass(frozen=True)
class TwoQubitParams:
    """Channel parameters; any float field may be an array over sweep points."""

    m_eff: float = 1.0
    omega: float = 1.0
    a_b: float = 1.0
    lam: float = 1.0
    k: float = 0.0
    alpha_r: float = 0.0
    coulomb_k: float = 0.0
    fermi_l: float = 1.0
    wave_direction: str = ALONG_Y

    def __post_init__(self):
        check_domain(self, positive=("m_eff", "omega", "a_b", "lam", "fermi_l"),
                     non_negative=("alpha_r", "coulomb_k"))
        if self.wave_direction not in (ALONG_Y, ALONG_X):
            raise DomainError("wave_direction",
                              f"wave_direction must be {ALONG_Y!r} or {ALONG_X!r}")
        bad = first_failure((self.coulomb_k > 0) & (_vc_radicand(self) <= 0.0),
                            self.lam, self.fermi_l)
        if bad:
            raise DomainError(
                "lam", "Coulomb expectation diverges unless lam < sqrt(2) * fermi_l, "
                       "i.e. 1 - lam^2 / (2 fermi_l^2) > 0 "
                       f"(got lam = {bad[1]}, fermi_l = {bad[2]})", bad[0])


@dataclass(frozen=True)
class TwoQubitMatrix:
    """The channel matrix of (h0, hr), or the stack of one matrix per point
    when h0 and hr are arrays over the points of a sweep."""

    h0: float
    hr: complex

    @property
    def matrix(self) -> np.ndarray:
        h0, hr = np.broadcast_arrays(np.asarray(self.h0, dtype=complex),
                                     np.asarray(self.hr, dtype=complex))
        m = np.zeros(h0.shape + (4, 4), dtype=complex)
        m[..., 0, 0] = m[..., 1, 2] = m[..., 2, 1] = m[..., 3, 3] = h0
        m[..., 0, 2] = m[..., 1, 0] = m[..., 2, 3] = m[..., 3, 1] = hr
        return m


def _vc_radicand(p: TwoQubitParams) -> float:
    """1 - lam^2 / (2 fermi_l^2) in float64, the radicand of the closed form of
    <V_c>; 1 - (lam / fermi_l)^2 / 2 where that is not finite (inf / inf)."""
    with np.errstate(all="ignore"):
        plain = 1.0 - np.float_power(p.lam, 2) / (2.0 * np.float_power(p.fermi_l, 2))
        ratio = np.float_power(p.lam / p.fermi_l, 2)
        return np.where(np.isfinite(plain), plain, 1.0 - ratio / 2.0)[()]


def _vc_expectation(p: TwoQubitParams) -> float:
    """Gaussian expectation of the screened 1D Coulomb term, in closed form.

    With K = coulomb_k and l = fermi_l,
    <V_c> = int exp(-y^2/lam^2) / (lam sqrt(pi)) * sqrt(pi/2) (K/l)
    erfcx(y / (sqrt(2) l)) dy. Writing erfcx(u) = exp(u^2) (1 - erf(u)), the
    erf part integrates to zero against the even Gaussian because erf is odd,
    and what is left is the Gaussian integral of exp(-a y^2) with
    a = 1/lam^2 - 1/(2 l^2), i.e. sqrt(pi/a) (Ng & Geller, J. Res. NBS 73B
    (1969) 1). Hence

        <V_c> = sqrt(pi/2) (K/l) / sqrt(1 - lam^2 / (2 l^2)),

    finite exactly where the radicand is positive, which TwoQubitParams
    checks, and 0 where K is.
    """
    with np.errstate(all="ignore"):
        vc = math.sqrt(math.pi / 2.0) * p.coulomb_k / p.fermi_l / np.sqrt(_vc_radicand(p))
        return np.where(p.coulomb_k == 0.0, 0.0, vc)[()]


def expectations(p: TwoQubitParams) -> tuple[float, complex]:
    """(<H0>, <H_R>) over the product-Gaussian two-qubit wavefunction, arrays
    where a field they depend on is one. Float64 arithmetic, squares by C's
    pow as in np.float_power: an overflow is inf or nan, for the caller."""
    along_y = p.wave_direction == ALONG_Y
    with np.errstate(all="ignore"):
        zero_point = 1.0 / (4.0 * p.m_eff * np.float_power(p.lam, 2))
        plane_wave = np.float_power(p.k, 2) / (2.0 * p.m_eff) if along_y else 0.0
        quartic = 3.0 * p.m_eff * np.float_power(p.omega, 2) * np.float_power(p.a_b, 2) / 32
        h0 = zero_point + plane_wave + quartic + _vc_expectation(p)
        hr = np.asarray(p.alpha_r * p.k if along_y else 0.0, dtype=complex)[()]
    return h0, hr


def build_matrix(h0: float, hr: complex) -> TwoQubitMatrix:
    check_finite(("h0", "hr"), (h0, hr))
    return TwoQubitMatrix(h0=float(h0), hr=complex(hr))


@dataclass
class EigenReport:
    """Claimed eigen system next to the dense-solver answer."""

    h0: float
    hr: complex
    claimed_eigenvalues: list[complex]
    claimed_residuals: list[float]
    numeric: EigenSystem
    hermitian: bool
    degenerate: bool
    eigenvalue_set_distance: float

    def to_json_dict(self) -> dict:
        return {
            "h0": self.h0,
            "hr": [self.hr.real, self.hr.imag],
            "claimed_eigenvalues": [[v.real, v.imag] for v in self.claimed_eigenvalues],
            "numeric_eigenvalues": [[v.real, v.imag] for v in self.numeric.eigenvalues],
            "residuals": list(self.claimed_residuals),
            "hermitian": self.hermitian,
            "degenerate": self.degenerate,
        }


def _closed_form_pairs(h0: complex, hr: complex, use_numeric_vectors: bool,
                       numeric: EigenSystem):
    """The four claimed eigenpairs, exactly as printed.

    The first two hold by direct multiplication for any (h0, hr). The +-root
    pair divides by hr sqrt(h0^2 - hr^2); where that is singular the vectors
    are replaced by the numeric ones closest to the claimed values.
    """
    vals = [h0 - hr, h0 + hr]
    vecs = [np.array([1, -1, -1, 1], dtype=complex) / 2.0,
            np.array([1, 1, 1, 1], dtype=complex) / 2.0]
    s = cmath.sqrt(h0 * h0 - hr * hr)
    vals += [-s, s]
    if use_numeric_vectors:
        for lam in (-s, s):
            idx = int(np.argmin(np.abs(numeric.eigenvalues - lam)))
            vecs.append(numeric.eigenvectors[:, idx].copy())
    else:
        v_minus = np.array(
            [-1,
             -(h0 + s) / hr,
             -(-h0 * h0 + hr * hr - h0 * s) / (hr * s),
             1], dtype=complex)
        v_plus = np.array(
            [-1,
             -(h0 - s) / hr,
             -(h0 * h0 - hr * hr - h0 * s) / (hr * s),
             1], dtype=complex)
        vecs.append(v_minus / np.linalg.norm(v_minus))
        vecs.append(v_plus / np.linalg.norm(v_plus))
    return vals, vecs


def claimed_vs_numeric(m: TwoQubitMatrix) -> EigenReport:
    """Evaluate the claimed eigen system of the 4x4 channel matrix and
    cross-check it against the dense solver."""
    a = m.matrix
    numeric = eigen_small(a)
    h0, hr = complex(m.h0), complex(m.hr)
    degenerate = abs(hr) >= abs(h0)
    singular_vectors = degenerate or abs(hr) <= 1e-14 * max(1.0, abs(h0))
    with np.errstate(all="ignore"):  # an overflow is inf or nan in the report
        vals, vecs = _closed_form_pairs(h0, hr, singular_vectors, numeric)
        residuals = [float(np.linalg.norm(a @ v - lam * v)) for lam, v in zip(vals, vecs)]
        forward = max(min(abs(c - n) for n in numeric.eigenvalues) for c in vals)
        backward = max(min(abs(n - c) for c in vals) for n in numeric.eigenvalues)
    return EigenReport(
        h0=m.h0,
        hr=m.hr,
        claimed_eigenvalues=[complex(v) for v in vals],
        claimed_residuals=residuals,
        numeric=numeric,
        hermitian=numeric.hermitian,
        degenerate=degenerate,
        eigenvalue_set_distance=float(max(forward, backward)),
    )
