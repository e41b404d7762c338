"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line at its stated tolerance. Run with ``pytest tests/test_acceptance.py -v -s``
to see the lines; the whole suite stays well under a minute.
"""
import json
import math

import numpy as np

from entangler.channel_qlm import (ChannelPotentialParams, QlmConfig,
                                   channel_potential,
                                   harmonic_reference_potential, qlm_spectrum)
from entangler.cli import main, parse_config, run
from entangler.gates import (BELL_LABELS, CNOT, SWAP, Gate4, TwoQubitState,
                             apply, bell_state, cnot_from_sqrt_swap,
                             concurrence, exchange_evolution_expm,
                             gate_fidelity, spin_dot_operator, u_swap_alpha)
from entangler.numerics import Grid1D, eigen_small
from entangler.source_spectrum import HMatrix2, SourceParams, build_hmatrix, spin_split
from entangler.twoqubit_channel import build_matrix, claimed_vs_numeric
from fd_oracle import fd_schrodinger_oracle

PRINTED_SQRT_SWAP = np.array(
    [[1, 0, 0, 0],
     [0, (1 + 1j) / 2, (1 - 1j) / 2, 0],
     [0, (1 - 1j) / 2, (1 + 1j) / 2, 0],
     [0, 0, 0, 1]], dtype=complex)

E0_FD_QUARTIC = 0.29398020956462745  # frozen fixture, [-10, 10] x 4001


def check(num: int, desc: str, ok: bool) -> None:
    print(f"[criterion {num:02d}] {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {desc}"


def bell_projector_sum(alpha: float) -> np.ndarray:
    total = np.zeros((4, 4), dtype=complex)
    for label, phase in zip(BELL_LABELS, (1.0, 1.0, 1.0, np.exp(1j * alpha))):
        v = bell_state(label).amplitudes
        total += phase * np.outer(v, v.conj())
    return total


def test_c01_gate_identities():
    ok = np.abs(u_swap_alpha(math.pi).matrix - SWAP).max() <= 1e-13
    ok &= np.abs(u_swap_alpha(math.pi / 2).matrix - PRINTED_SQRT_SWAP).max() <= 1e-13
    sq = u_swap_alpha(math.pi / 2)
    ok &= np.abs((sq @ sq).matrix - SWAP).max() <= 1e-13
    check(1, "SWAP and sqrt(SWAP) match the printed matrices", bool(ok))


def test_c02_projector_exponential_equivalence():
    from scipy.linalg import expm  # a second, independent exponential
    rng = np.random.default_rng(202)
    ok = True
    for alpha in rng.uniform(0.0, 4 * math.pi, size=100):
        forms = [Gate4(bell_projector_sum(alpha)), u_swap_alpha(alpha),
                 exchange_evolution_expm(alpha),
                 Gate4(expm(-1j * alpha * spin_dot_operator()))]
        for i in range(4):
            for j in range(i + 1, 4):
                ok &= gate_fidelity(forms[i], forms[j]) >= 1.0 - 1e-12
    check(2, "projector, matrix, and exponential forms agree up to phase",
          bool(ok))


def test_c03_exchange_identity():
    dev = np.abs(4.0 * spin_dot_operator() - (2.0 * SWAP - np.eye(4))).max()
    check(3, "4 S_s.S_c equals 2 U_SWAP - I (spin-1/2 convention)",
          bool(dev <= 1e-14))


def test_c04_cnot_synthesis():
    circuit, result = cnot_from_sqrt_swap()
    ok = gate_fidelity(result, Gate4(CNOT)) >= 1.0 - 1e-10
    plus_up = TwoQubitState(np.array([1, 0, 1, 0], dtype=complex) / math.sqrt(2))
    ok &= abs(concurrence(apply(result, plus_up)) - 1.0) <= 1e-10
    n_sqrt = sum(1 for g in circuit
                 if np.abs(g.matrix - u_swap_alpha(math.pi / 2).matrix).max() <= 1e-13)
    ok &= n_sqrt == 2
    check(4, "two sqrt(SWAP) plus single-qubit gates reproduce CNOT", bool(ok))


def test_c05_bell_basis():
    vecs = np.column_stack([bell_state(b).amplitudes for b in BELL_LABELS])
    gram = vecs.conj().T @ vecs
    ok = np.abs(gram - np.eye(4)).max() <= 1e-13
    ok &= all(abs(concurrence(bell_state(b)) - 1.0) <= 1e-12 for b in BELL_LABELS)
    check(5, "Bell basis orthonormal and maximally entangled", bool(ok))


def test_c06_qlm_harmonic_exactness():
    ok = True
    for omega in (0.5, 1.0, 2.0):
        p = ChannelPotentialParams(omega=omega, a=1.0 / math.sqrt(omega))
        cfg = QlmConfig(g=omega, iterations=2)
        v = harmonic_reference_potential(p, cfg.grid.points())
        energies, l_2 = qlm_spectrum(p, cfg, v)
        _, l_1 = qlm_spectrum(p, QlmConfig(g=omega, iterations=1), v)
        ok &= abs(energies[0] - omega / 2.0) <= 1e-8
        mask = cfg.grid.points() <= 6.0 / math.sqrt(omega)
        ok &= np.abs(l_2 - l_1)[mask].max() <= 1e-5
    check(6, "harmonic first energy is omega/2 and the iteration is stationary",
          bool(ok))


def test_c07_qlm_vs_fd_quartic():
    quartic = lambda y: 0.125 * (y * y - 1.0) ** 2
    e_fd = fd_schrodinger_oracle(quartic, Grid1D(-10.0, 10.0, 4001), 1.0, 1)[0]
    e_fd_fine = fd_schrodinger_oracle(quartic, Grid1D(-10.0, 10.0, 8001), 1.0, 1)[0]
    ok = abs(e_fd - E0_FD_QUARTIC) <= 1e-9
    ok &= abs(e_fd_fine - e_fd) <= 1e-5  # self-convergence of the fixture
    p = ChannelPotentialParams()
    cfg = QlmConfig(g=1.0, iterations=3)
    energies, _ = qlm_spectrum(p, cfg, channel_potential(p, cfg.grid.points()))
    gaps = [abs(e_n - E0_FD_QUARTIC) for e_n in energies]
    ok &= gaps[0] >= gaps[1] >= gaps[2]
    ok &= gaps[2] / E0_FD_QUARTIC <= 0.10
    check(7, "quartic iteration closes on the finite-difference ground state",
          bool(ok))


def test_c08_twoqubit_eigen_system():
    rng = np.random.default_rng(808)
    ok = True
    for _ in range(100):
        h0 = rng.uniform(-3.0, 3.0)
        hr = rng.uniform(-0.999, 0.999) * abs(h0)
        report = claimed_vs_numeric(build_matrix(h0, hr))
        scale = max(1.0, abs(h0) + abs(hr))
        ok &= report.claimed_residuals[0] <= 1e-12 * scale
        ok &= report.claimed_residuals[1] <= 1e-12 * scale
        ok &= report.eigenvalue_set_distance <= 1e-10
        ok &= abs(sum(report.numeric.eigenvalues) - 2.0 * h0) <= 1e-10
    check(8, "closed-form eigenpairs and numeric spectrum agree", bool(ok))


def test_c09_source_spectrum():
    rng = np.random.default_rng(909)
    ok = True
    for _ in range(50):
        d1, d2 = rng.normal(size=2)
        off = rng.normal() + 1j * rng.normal()
        h = HMatrix2(h11=d1, h12=off, h21=off.conjugate(), h22=d2)
        s = spin_split(h)
        ev = eigen_small(h.to_array()).eigenvalues
        ok &= abs(s.e_up - ev[0].real) <= 1e-10
        ok &= abs(s.e_down - ev[1].real) <= 1e-10
    s0 = spin_split(build_hmatrix(SourceParams(alpha_r=0.0)))
    ok &= s0.delta_e == 0.0
    for _ in range(20):
        d = rng.normal()
        off = rng.normal() + 1j * rng.normal()
        h = HMatrix2(h11=d, h12=off, h21=off.conjugate(), h22=d)
        ok &= abs(spin_split(h).delta_e - 2.0 * abs(off)) <= 1e-12
    check(9, "spin splitting matches the dense solver and its closed forms",
          bool(ok))


def test_c10_cli_determinism(tmp_path):
    golden = ("target=source_delta_e\nx_count=4\ny_points=9\n"
              "alpha_r=0.25\nk=1.5\n")
    outputs = []
    for name in ("one.csv", "two.csv"):
        spec = parse_config(golden)
        spec.output_path = str(tmp_path / name)
        ok_run = run(spec) == 0
        assert ok_run
        outputs.append((tmp_path / name).read_bytes())
    ok = outputs[0] == outputs[1]
    chart = tmp_path / "chart.csv"
    ok &= main(["source", "--out", str(chart)]) == 0
    lines = chart.read_text().splitlines()
    ok &= lines[0] == "x,y,e_up,e_down,delta_e"
    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    ok &= len(rows) > 0 and all(len(r) == 5 for r in rows)
    ok &= all(r[4] >= 0.0 for r in rows)
    check(10, "byte-identical reruns and a well-formed splitting chart", bool(ok))
