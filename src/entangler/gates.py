"""Bell states, the exchange-driven SWAP-family gates, and entanglement
measures on the two-qubit state space.

Basis ordering everywhere is (uu, ud, du, dd) for (source, channel) spins,
shared with the 4x4 channel matrix module. Spin operators use the spin-1/2
convention S = sigma/2, under which the dot product satisfies the exact
operator identity 4 S_s.S_c = 2 U_SWAP - I; combined with U_SWAP^2 = I this
gives the closed form

    exp(-i alpha S_s.S_c) = e^{i alpha/4} (cos(alpha/2) I
                                           - i sin(alpha/2) U_SWAP),

equal to the one-parameter gate family U_SWAP^alpha up to the global phase
e^{-i alpha/4}. Gate equality is therefore always judged up to global phase
through the fidelity |tr(U^dag V)| / 4.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BELL_LABELS",
    "SOURCE",
    "CHANNEL",
    "TwoQubitState",
    "Gate4",
    "bell_state",
    "u_swap_alpha",
    "exchange_evolution_expm",
    "spin_dot_operator",
    "single_qubit_rz",
    "hadamard",
    "global_phase",
    "cnot_from_sqrt_swap",
    "concurrence",
    "apply",
    "gate_fidelity",
    "SWAP",
    "SQRT_SWAP",
    "CNOT",
]

SOURCE = "source"
CHANNEL = "channel"
BELL_LABELS = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_H2 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)


@dataclass(frozen=True)
class TwoQubitState:
    """Normalized 4-component state in the (uu, ud, du, dd) ordering."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex).reshape(4)
        object.__setattr__(self, "amplitudes", a)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class Gate4:
    """4x4 gate; unitarity is a checkable predicate, not an assumption."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex).reshape(4, 4)
        object.__setattr__(self, "matrix", m)

    def is_unitary(self, tol: float = 1e-12) -> bool:
        dev = np.abs(self.matrix.conj().T @ self.matrix - np.eye(4)).max()
        return bool(dev <= tol)

    def __matmul__(self, other: "Gate4") -> "Gate4":
        return Gate4(self.matrix @ other.matrix)


def bell_state(which: str) -> TwoQubitState:
    """One of the four Bell states by label."""
    s = 1.0 / math.sqrt(2.0)
    table = {
        "phi_plus": (s, 0, 0, s),
        "phi_minus": (s, 0, 0, -s),
        "psi_plus": (0, s, s, 0),
        "psi_minus": (0, s, -s, 0),
    }
    if which not in table:
        raise ValueError(f"unknown Bell label {which!r}; choose from {BELL_LABELS}")
    return TwoQubitState(np.array(table[which], dtype=complex))


def u_swap_alpha(alpha: float) -> Gate4:
    """Exchange gate family: identity on the triplet sector, phase e^{i a}
    on the singlet. alpha is the integrated exchange angle int J(t) dt
    (hbar = 1): alpha = pi gives SWAP, alpha = pi/2 gives sqrt(SWAP)."""
    a = float(alpha)
    c1 = 0.5 * (1.0 + cmath.exp(1j * a))
    c2 = 0.5 * (1.0 - cmath.exp(1j * a))
    return Gate4(np.array(
        [[1, 0, 0, 0],
         [0, c1, c2, 0],
         [0, c2, c1, 0],
         [0, 0, 0, 1]], dtype=complex))


def spin_dot_operator() -> np.ndarray:
    """S_s.S_c = (sx x sx + sy x sy + sz x sz) / 4 in the spin-1/2 convention."""
    return (np.kron(_SX, _SX) + np.kron(_SY, _SY) + np.kron(_SZ, _SZ)) / 4.0


def exchange_evolution_expm(alpha: float) -> Gate4:
    """exp(-i alpha S_s.S_c) as V diag(exp(-i alpha w)) V^dag from the eigen
    decomposition of S_s.S_c: u_swap_alpha(alpha) times e^{-i alpha/4}, found
    without the SWAP identity behind the module's closed form."""
    w, v = _spin_dot_eigh()
    phases = np.exp(-1j * float(alpha) * w)
    return Gate4((v * phases) @ v.conj().T)


@functools.cache
def _spin_dot_eigh() -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of S_s.S_c, taken once. Not at import:
    the first LAPACK call adds ~1.4 MiB of resident memory, which runs
    that never cross-check a gate should not pay."""
    return np.linalg.eigh(spin_dot_operator())


def _embed(which_qubit: str, gate2: np.ndarray) -> np.ndarray:
    if which_qubit == SOURCE:
        return np.kron(gate2, _I2)
    if which_qubit == CHANNEL:
        return np.kron(_I2, gate2)
    raise ValueError(f"which_qubit must be {SOURCE!r} or {CHANNEL!r}")


def single_qubit_rz(which_qubit: str, angle: float) -> Gate4:
    """z rotation diag(e^{-i a/2}, e^{i a/2}) on one qubit (half-angle
    convention, so angle = 2 pi gives -I on that factor)."""
    r = np.diag([cmath.exp(-0.5j * angle), cmath.exp(0.5j * angle)])
    return Gate4(_embed(which_qubit, r))


def hadamard(which_qubit: str) -> Gate4:
    return Gate4(_embed(which_qubit, _H2))


def global_phase(phase: float) -> Gate4:
    return Gate4(cmath.exp(1j * phase) * np.eye(4, dtype=complex))


def cnot_from_sqrt_swap() -> tuple[list[Gate4], Gate4]:
    """CNOT (control = source, active on down) from two sqrt(SWAP) gates
    plus single-qubit unitaries.

    The z-rotation core rz_s(pi/2) rz_c(-pi/2) sqrtSWAP rz_s(pi) sqrtSWAP
    equals -i times the controlled-phase gate diag(1, 1, 1, -1); any product
    of z rotations and SWAP powers stays in that diagonal family, so turning
    it into CNOT needs the basis change on the target: Hadamards on the
    channel qubit around the core, and a compensating global phase i.

    Returns the gate list in application order (first applied first) and the
    product, which reproduces the canonical CNOT; a fidelity shortfall is an
    implementation bug and raises.
    """
    sqrt_swap = u_swap_alpha(math.pi / 2.0)
    circuit = [
        hadamard(CHANNEL),
        sqrt_swap,
        single_qubit_rz(SOURCE, math.pi),
        sqrt_swap,
        single_qubit_rz(CHANNEL, -math.pi / 2.0),
        single_qubit_rz(SOURCE, math.pi / 2.0),
        hadamard(CHANNEL),
        global_phase(math.pi / 2.0),
    ]
    result = np.eye(4, dtype=complex)
    for gate in circuit:
        result = gate.matrix @ result
    product = Gate4(result)
    if abs(gate_fidelity(product, Gate4(CNOT)) - 1.0) > 1e-10:
        raise RuntimeError("sqrt(SWAP) CNOT construction failed its fidelity bound")
    return circuit, product


def concurrence(s: TwoQubitState) -> float:
    """Pure-state concurrence |<s*| sy x sy |s>| = |2 (a_ud a_du - a_uu a_dd)|."""
    if abs(s.norm - 1.0) > 1e-9:
        raise ValueError(f"state not normalized: |norm - 1| = {abs(s.norm - 1.0):.3g}")
    a = s.amplitudes
    return float(abs(2.0 * (a[1] * a[2] - a[0] * a[3])))


def apply(g: Gate4, s: TwoQubitState) -> TwoQubitState:
    """Apply a unitary gate to a normalized state."""
    if not g.is_unitary(1e-9):
        raise ValueError("gate is not unitary within 1e-9")
    if abs(s.norm - 1.0) > 1e-9:
        raise ValueError("state not normalized")
    return TwoQubitState(g.matrix @ s.amplitudes)


def gate_fidelity(u: Gate4, v: Gate4) -> float:
    """Global-phase-insensitive gate match: |tr(U^dag V)| / 4, equal to 1
    iff U = e^{i phi} V."""
    return float(abs(np.trace(u.matrix.conj().T @ v.matrix)) / 4.0)


SWAP = np.array(
    [[1, 0, 0, 0],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1]], dtype=complex)

SQRT_SWAP = u_swap_alpha(math.pi / 2.0).matrix

CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]], dtype=complex)
