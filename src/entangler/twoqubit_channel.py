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
_vc_expectation); the Rashba
expectation is <H_R> = -i alpha <d/dy>, which is alpha k for propagation
along y and zero along x.

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
from dataclasses import dataclass, field

import numpy as np

from .numerics import DomainError, EigenSystem, eigen_small, is_hermitian

__all__ = [
    "ALONG_X",
    "ALONG_Y",
    "TwoQubitParams",
    "TwoQubitMatrix",
    "EigenReport",
    "expectations",
    "build_matrix",
    "claimed_vs_numeric",
    "exchange_strength",
]

ALONG_Y = "along_y"
ALONG_X = "along_x"


@dataclass(frozen=True)
class TwoQubitParams:
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
        for name in ("m_eff", "omega", "a_b", "lam", "fermi_l"):
            if getattr(self, name) <= 0:
                raise DomainError(
                    name, f"{name} must be positive, got {getattr(self, name)}")
        for name in ("alpha_r", "coulomb_k"):
            if getattr(self, name) < 0:
                raise DomainError(
                    name, f"{name} must be non-negative, got {getattr(self, name)}")
        if self.wave_direction not in (ALONG_Y, ALONG_X):
            raise DomainError("wave_direction",
                              f"wave_direction must be {ALONG_Y!r} or {ALONG_X!r}")
        if self.coulomb_k > 0 and _vc_radicand(self) <= 0.0:
            raise DomainError(
                "lam", "Coulomb expectation diverges unless lam < sqrt(2) * fermi_l, "
                       "i.e. 1 - lam^2 / (2 fermi_l^2) > 0 "
                       f"(got lam = {self.lam}, fermi_l = {self.fermi_l})")


@dataclass(frozen=True)
class TwoQubitMatrix:
    h0: float
    hr: complex

    @property
    def matrix(self) -> np.ndarray:
        h0, hr = complex(self.h0), complex(self.hr)
        return np.array(
            [[h0, 0, hr, 0],
             [hr, 0, h0, 0],
             [0, h0, 0, hr],
             [0, hr, 0, h0]],
            dtype=complex,
        )


def _vc_radicand(p: TwoQubitParams) -> float:
    """1 - lam^2 / (2 fermi_l^2), the radicand of the closed form of <V_c>."""
    return 1.0 - p.lam ** 2 / (2.0 * p.fermi_l ** 2)


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
    checks.
    """
    if p.coulomb_k == 0.0:
        return 0.0
    return (math.sqrt(math.pi / 2.0) * p.coulomb_k / p.fermi_l
            / math.sqrt(_vc_radicand(p)))


def expectations(p: TwoQubitParams) -> tuple[float, complex]:
    """(<H0>, <H_R>) over the product-Gaussian two-qubit wavefunction."""
    zero_point = 1.0 / (4.0 * p.m_eff * p.lam ** 2)
    plane_wave = p.k ** 2 / (2.0 * p.m_eff) if p.wave_direction == ALONG_Y else 0.0
    quartic = 3.0 * p.m_eff * p.omega ** 2 * p.a_b ** 2 / 32.0
    h0 = zero_point + plane_wave + quartic + _vc_expectation(p)
    hr = complex(p.alpha_r * p.k) if p.wave_direction == ALONG_Y else 0.0 + 0.0j
    return h0, hr


def build_matrix(h0: float, hr: complex) -> TwoQubitMatrix:
    if not (math.isfinite(h0) and cmath.isfinite(hr)):
        raise ValueError("h0 and hr must be finite")
    return TwoQubitMatrix(h0=float(h0), hr=complex(hr))


@dataclass
class EigenReport:
    """Claimed eigen system next to the dense-solver answer."""

    h0: float
    hr: complex
    claimed_eigenvalues: list[complex]
    claimed_eigenvectors: list[np.ndarray]
    claimed_residuals: list[float]
    numeric: EigenSystem
    hermitian: bool
    degenerate: bool
    eigenvalue_set_distance: float = field(default=0.0)

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
    vals, vecs = _closed_form_pairs(h0, hr, singular_vectors, numeric)
    residuals = [float(np.linalg.norm(a @ v - lam * v)) for lam, v in zip(vals, vecs)]
    forward = max(min(abs(c - n) for n in numeric.eigenvalues) for c in vals)
    backward = max(min(abs(n - c) for c in vals) for n in numeric.eigenvalues)
    return EigenReport(
        h0=m.h0,
        hr=m.hr,
        claimed_eigenvalues=[complex(v) for v in vals],
        claimed_eigenvectors=vecs,
        claimed_residuals=residuals,
        numeric=numeric,
        hermitian=is_hermitian(a),
        degenerate=degenerate,
        eigenvalue_set_distance=float(max(forward, backward)),
    )


def exchange_strength(e_triplet_low: float, e_singlet_high: float) -> float:
    """Exchange constant as the lowest-triplet minus highest-singlet energy."""
    return float(e_triplet_low) - float(e_singlet_high)
