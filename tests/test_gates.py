import math

import numpy as np
import pytest

from entangler.gates import (BELL_LABELS, CHANNEL, CNOT, SOURCE, SQRT_SWAP,
                             SWAP, Gate4, TwoQubitState, apply,
                             bell_state, cnot_from_sqrt_swap, concurrence,
                             exchange_evolution_expm, gate_fidelity,
                             global_phase, hadamard, single_qubit_rz,
                             spin_dot_operator, u_swap_alpha)


def bell_projector_sum(alpha):
    total = np.zeros((4, 4), dtype=complex)
    for label, phase in zip(BELL_LABELS, (1.0, 1.0, 1.0, np.exp(1j * alpha))):
        v = bell_state(label).amplitudes
        total += phase * np.outer(v, v.conj())
    return total


class TestBellStates:
    def test_phi_plus_components(self):
        s = bell_state("phi_plus").amplitudes
        assert np.allclose(s, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])

    def test_psi_minus_components(self):
        s = bell_state("psi_minus").amplitudes
        assert np.allclose(s, [0, 1 / math.sqrt(2), -1 / math.sqrt(2), 0])

    def test_normalized(self):
        for label in BELL_LABELS:
            assert bell_state(label).norm == pytest.approx(1.0, abs=1e-15)

    def test_orthonormal_basis(self):
        vecs = np.column_stack([bell_state(b).amplitudes for b in BELL_LABELS])
        gram = vecs.conj().T @ vecs
        assert np.abs(gram - np.eye(4)).max() <= 1e-13

    def test_maximally_entangled(self):
        for label in BELL_LABELS:
            assert concurrence(bell_state(label)) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            bell_state("sigma_plus")


class TestUSwapAlpha:
    def test_swap_at_pi(self):
        assert np.abs(u_swap_alpha(math.pi).matrix - SWAP).max() <= 1e-13

    def test_sqrt_swap_at_half_pi(self):
        expected = np.array(
            [[1, 0, 0, 0],
             [0, (1 + 1j) / 2, (1 - 1j) / 2, 0],
             [0, (1 - 1j) / 2, (1 + 1j) / 2, 0],
             [0, 0, 0, 1]], dtype=complex)
        assert np.abs(u_swap_alpha(math.pi / 2).matrix - expected).max() <= 1e-13

    def test_identity_at_zero(self):
        assert np.abs(u_swap_alpha(0.0).matrix - np.eye(4)).max() <= 1e-15

    def test_sqrt_swap_squares_to_swap(self):
        sq = u_swap_alpha(math.pi / 2)
        assert np.abs((sq @ sq).matrix - SWAP).max() <= 1e-13
        assert np.abs((Gate4(SWAP) @ Gate4(SWAP)).matrix - np.eye(4)).max() <= 1e-13

    def test_matches_bell_projector_sum(self):
        for alpha in (0.0, 0.3, math.pi / 2, math.pi, 2.7, 4 * math.pi):
            dev = np.abs(u_swap_alpha(alpha).matrix - bell_projector_sum(alpha))
            assert dev.max() <= 1e-13

    def test_unitary_family(self):
        rng = np.random.default_rng(61)
        for alpha in rng.uniform(0.0, 4 * math.pi, size=100):
            assert u_swap_alpha(alpha).is_unitary(1e-12)
            assert exchange_evolution_expm(alpha).is_unitary(1e-12)

    def test_one_parameter_group(self):
        rng = np.random.default_rng(67)
        for _ in range(25):
            a, b = rng.uniform(0.0, 2 * math.pi, size=2)
            prod = (u_swap_alpha(a) @ u_swap_alpha(b)).matrix
            assert np.abs(prod - u_swap_alpha(a + b).matrix).max() <= 1e-12


class TestExchangeEvolution:
    def test_spin_dot_identity(self):
        # 4 S_s.S_c = 2 U_SWAP - I exactly in the spin-1/2 convention
        lhs = 4.0 * spin_dot_operator()
        rhs = 2.0 * SWAP - np.eye(4)
        assert np.abs(lhs - rhs).max() <= 1e-14

    def test_closed_form_equals_expm(self):
        # the gates module docstring's closed form, and two exponentials of
        # -i alpha S_s.S_c: the package's spectral one and scipy's expm
        from scipy.linalg import expm
        for alpha in (0.1, math.pi / 2, math.pi, 2.7):
            closed = np.exp(0.25j * alpha) * (math.cos(0.5 * alpha) * np.eye(4)
                                              - 1j * math.sin(0.5 * alpha) * SWAP)
            spectral = exchange_evolution_expm(alpha).matrix
            reference = expm(-1j * alpha * spin_dot_operator())
            assert np.abs(spectral - reference).max() <= 1e-13
            assert np.abs(closed - reference).max() <= 1e-13

    def test_phase_relation_to_swap_family(self):
        # triplet phase e^{-ia/4}, singlet e^{3ia/4}: same gate up to the
        # global factor e^{-ia/4}
        for alpha in (0.1, math.pi / 2, math.pi, 2.7):
            u = u_swap_alpha(alpha)
            v = exchange_evolution_expm(alpha)
            assert gate_fidelity(u, v) == pytest.approx(1.0, abs=1e-12)
            dev = np.abs(v.matrix - np.exp(-0.25j * alpha) * u.matrix)
            assert dev.max() <= 1e-12

    def test_identity_at_zero(self):
        assert np.abs(exchange_evolution_expm(0.0).matrix - np.eye(4)).max() <= 1e-15


class TestSingleQubitGates:
    def test_rz_identity_at_zero(self):
        assert np.abs(single_qubit_rz(SOURCE, 0.0).matrix - np.eye(4)).max() == 0.0

    def test_rz_half_angle_convention(self):
        g = single_qubit_rz(CHANNEL, 2 * math.pi)
        assert np.abs(g.matrix + np.eye(4)).max() <= 1e-15

    def test_rz_commute_across_qubits(self):
        a = single_qubit_rz(SOURCE, 0.7)
        b = single_qubit_rz(CHANNEL, -1.3)
        assert np.abs((a @ b).matrix - (b @ a).matrix).max() <= 1e-14

    def test_hadamard_involution(self):
        h = hadamard(CHANNEL)
        assert np.abs((h @ h).matrix - np.eye(4)).max() <= 1e-14

    def test_unknown_qubit(self):
        with pytest.raises(ValueError):
            single_qubit_rz("drain", 1.0)


class TestCnotSynthesis:
    def test_product_is_cnot(self):
        circuit, result = cnot_from_sqrt_swap()
        assert gate_fidelity(result, Gate4(CNOT)) >= 1.0 - 1e-10
        # the compensating phase makes it entrywise exact, not just projective
        assert np.abs(result.matrix - CNOT).max() <= 1e-12

    def test_exactly_two_sqrt_swaps(self):
        circuit, _ = cnot_from_sqrt_swap()
        count = sum(1 for g in circuit
                    if g.matrix.shape == (4, 4)
                    and np.abs(g.matrix - SQRT_SWAP).max() <= 1e-13)
        assert count == 2

    def test_circuit_product_matches_result(self):
        circuit, result = cnot_from_sqrt_swap()
        acc = np.eye(4, dtype=complex)
        for gate in circuit:
            acc = gate.matrix @ acc
        assert np.abs(acc - result.matrix).max() == 0.0

    def test_creates_bell_state_from_superposed_control(self):
        _, cnot = cnot_from_sqrt_swap()
        plus_up = TwoQubitState(np.array([1, 0, 1, 0], dtype=complex) / math.sqrt(2))
        out = apply(cnot, plus_up)
        assert concurrence(out) == pytest.approx(1.0, abs=1e-10)

    def test_basis_action(self):
        # control = source, active on down: uu->uu, ud->ud, du->dd, dd->du
        _, cnot = cnot_from_sqrt_swap()
        for src, dst in ((0, 0), (1, 1), (2, 3), (3, 2)):
            e = np.zeros(4, dtype=complex)
            e[src] = 1.0
            out = apply(cnot, TwoQubitState(e)).amplitudes
            assert abs(out[dst]) == pytest.approx(1.0, abs=1e-12)


class TestConcurrenceAndApply:
    def test_product_state_unentangled(self):
        up_up = TwoQubitState(np.array([1, 0, 0, 0], dtype=complex))
        assert concurrence(up_up) == 0.0

    def test_sqrt_swap_entangles_antiparallel(self):
        out = apply(u_swap_alpha(math.pi / 2),
                    TwoQubitState(np.array([0, 1, 0, 0], dtype=complex)))
        assert np.allclose(out.amplitudes, [0, (1 + 1j) / 2, (1 - 1j) / 2, 0])
        assert concurrence(out) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            concurrence(TwoQubitState(np.array([1, 1, 0, 0], dtype=complex)))

    def test_apply_identity(self):
        s = bell_state("psi_plus")
        out = apply(Gate4(np.eye(4)), s)
        assert np.array_equal(out.amplitudes, s.amplitudes)

    def test_swap_exchanges_antiparallel(self):
        out = apply(u_swap_alpha(math.pi),
                    TwoQubitState(np.array([0, 1, 0, 0], dtype=complex)))
        assert np.allclose(out.amplitudes, [0, 0, 1, 0], atol=1e-15)

    def test_swap_is_involution_on_states(self):
        rng = np.random.default_rng(71)
        swap = u_swap_alpha(math.pi)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        s = TwoQubitState(v / np.linalg.norm(v))
        out = apply(swap, apply(swap, s))
        assert np.abs(out.amplitudes - s.amplitudes).max() <= 1e-13

    def test_apply_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            apply(Gate4(np.ones((4, 4))), bell_state("phi_plus"))

    def test_concurrence_invariant_under_local_z(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            s = TwoQubitState(v / np.linalg.norm(v))
            base = concurrence(s)
            g = (single_qubit_rz(SOURCE, rng.uniform(0, 2 * math.pi))
                 @ single_qubit_rz(CHANNEL, rng.uniform(0, 2 * math.pi)))
            assert concurrence(apply(g, s)) == pytest.approx(base, abs=1e-12)

    def test_global_phase_gate(self):
        g = global_phase(math.pi / 2)
        assert np.abs(g.matrix - 1j * np.eye(4)).max() <= 1e-15
        assert g.is_unitary()
