import math

import numpy as np
import pytest

from entangler.twoqubit_channel import (ALONG_X, ALONG_Y, TwoQubitParams,
                                        _vc_expectation, build_matrix,
                                        claimed_vs_numeric,
                                        expectations)
from entangler.channel_qlm import channel_potential, ChannelPotentialParams
from entangler.numerics import Grid1D, is_hermitian
from fd_oracle import fd_schrodinger_oracle

SQRT_PI = math.sqrt(math.pi)


class TestExpectations:
    def test_transverse_wave_kills_rashba(self):
        p = TwoQubitParams(k=1.5, alpha_r=0.2, wave_direction=ALONG_X)
        _, hr = expectations(p)
        assert hr == 0.0

    def test_rashba_expectation_is_alpha_k(self):
        p = TwoQubitParams(k=1.5, alpha_r=0.2)
        _, hr = expectations(p)
        assert abs(hr - 0.3) < 1e-10

    def test_gaussian_moments_at_rest(self):
        # zero-point 1/(4 m lam^2) plus quartic moment 3 m w^2 aB^2 / 32
        p = TwoQubitParams(k=0.0)
        h0, hr = expectations(p)
        assert h0 == pytest.approx(0.34375, rel=1e-12)
        assert hr == 0.0

    def test_coulomb_expectation_closed_form(self):
        # for lam = fermi_l the Gaussian average of the screened term is
        # exactly sqrt(pi) * coulomb_k (substitution collapses the erfcx
        # against its own reflection)
        p = TwoQubitParams(k=0.0, coulomb_k=1.0)
        h0, _ = expectations(p)
        assert h0 == pytest.approx(0.34375 + SQRT_PI, rel=1e-9)

    @pytest.mark.parametrize("lam, fermi_l, coulomb_k", [
        (1.0, 1.0, 1.0), (0.8, 1.0, 0.3), (0.5, 0.7, 0.5), (1.2, 1.0, 0.7),
        (1.37, 1.0, 0.7), (0.3, 2.0, 1.2), (1.40, 1.0, 0.7)])
    def test_coulomb_expectation_matches_quadrature(self, lam, fermi_l, coulomb_k):
        from scipy.integrate import quad
        from scipy.special import erfc

        # the Gaussian times erfcx(u) = exp(u^2) erfc(u), erfc not split
        # into 1 - erf as the closed form does
        def integrand(y):
            return math.exp(-y * y / lam ** 2 + y * y / (2.0 * fermi_l ** 2)) * erfc(
                y / (math.sqrt(2.0) * fermi_l))

        halves = [quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                  for a, b in ((-math.inf, 0.0), (0.0, math.inf))]
        ref = (math.sqrt(math.pi / 2.0) * coulomb_k / fermi_l
               / (lam * SQRT_PI) * sum(halves))
        p = TwoQubitParams(lam=lam, fermi_l=fermi_l, coulomb_k=coulomb_k)
        assert _vc_expectation(p) == pytest.approx(ref, rel=1e-13)

    def test_plane_wave_kinetic_term(self):
        h0_rest, _ = expectations(TwoQubitParams(k=0.0))
        h0_move, _ = expectations(TwoQubitParams(k=2.0))
        assert h0_move - h0_rest == pytest.approx(2.0, rel=1e-12)

    def test_rejects_divergent_coulomb_window(self):
        with pytest.raises(ValueError, match="sqrt"):
            TwoQubitParams(coulomb_k=1.0, lam=2.0, fermi_l=1.0)

    def test_hr_linearity(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            alpha, k = rng.uniform(0.0, 2.0), rng.uniform(-3.0, 3.0)
            _, hr = expectations(TwoQubitParams(alpha_r=alpha, k=k))
            assert hr == pytest.approx(alpha * k, abs=1e-14)


class TestBuildMatrix:
    def test_pattern_h0_only(self):
        m = build_matrix(1.0, 0.0).matrix
        expected = np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                             [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
        assert np.array_equal(m, expected)

    def test_first_row(self):
        m = build_matrix(2.0, 1.0).matrix
        assert np.array_equal(m[0], np.array([2, 0, 1, 0], dtype=complex))

    def test_zero(self):
        assert not build_matrix(0.0, 0.0).matrix.any()

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            build_matrix(math.nan, 0.0)


class TestClaimedVsNumeric:
    def test_reference_point(self):
        report = claimed_vs_numeric(build_matrix(2.0, 1.0))
        claimed = sorted(v.real for v in report.claimed_eigenvalues)
        expected = sorted([1.0, 3.0, -math.sqrt(3.0), math.sqrt(3.0)])
        assert np.allclose(claimed, expected, atol=1e-12)
        assert report.eigenvalue_set_distance < 1e-10
        assert not report.degenerate
        assert not report.hermitian  # the printed pattern is not symmetric
        assert max(report.claimed_residuals) < 1e-10

    def test_zero_coupling_multiset(self):
        report = claimed_vs_numeric(build_matrix(3.0, 0.0))
        claimed = sorted(v.real for v in report.claimed_eigenvalues)
        assert claimed == [-3.0, 3.0, 3.0, 3.0]
        assert report.eigenvalue_set_distance < 1e-10
        # the printed +-root eigenvector formulas divide by hr here
        assert max(report.claimed_residuals) < 1e-9

    def test_degenerate_branch_flagged(self):
        report = claimed_vs_numeric(build_matrix(1.0, 1.0))
        assert report.degenerate
        # fallback numeric vectors keep the residuals finite and small
        assert max(report.claimed_residuals) < 1e-9

    def test_exact_pairs_residuals(self):
        # {1,-1,-1,1} and {1,1,1,1} are eigenvectors by direct multiplication
        rng = np.random.default_rng(43)
        for _ in range(100):
            h0 = rng.uniform(-3.0, 3.0)
            hr = rng.uniform(-1.0, 1.0) * abs(h0) * 0.999
            report = claimed_vs_numeric(build_matrix(h0, hr))
            scale = max(1.0, abs(h0) + abs(hr))
            assert report.claimed_residuals[0] <= 1e-12 * scale
            assert report.claimed_residuals[1] <= 1e-12 * scale

    def test_trace_identity(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            h0 = rng.uniform(-3.0, 3.0)
            hr = rng.uniform(-3.0, 3.0)
            report = claimed_vs_numeric(build_matrix(h0, hr))
            assert sum(report.numeric.eigenvalues) == pytest.approx(
                2.0 * h0, abs=1e-10)

    def test_spectrum_has_opposite_pair(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            h0 = rng.uniform(-3.0, 3.0)
            hr = rng.uniform(-1.0, 1.0) * abs(h0) * 0.9
            ev = claimed_vs_numeric(build_matrix(h0, hr)).numeric.eigenvalues
            sums = [abs(a + b) for i, a in enumerate(ev) for b in ev[i + 1:]]
            assert min(sums) < 1e-10

    @pytest.mark.parametrize("h0", [-2.0, 0.5, 3.0])
    @pytest.mark.parametrize("hr", [0.0, 1e-13, 0.4, 0.5j, 3.0])
    def test_hermitian_flag_is_the_solver_branch(self, h0, hr):
        m = build_matrix(h0, hr)
        report = claimed_vs_numeric(m)
        assert report.hermitian == report.numeric.hermitian == is_hermitian(m.matrix)

    def test_json_report_fields(self):
        d = claimed_vs_numeric(build_matrix(2.0, 1.0)).to_json_dict()
        assert set(d) == {"h0", "hr", "claimed_eigenvalues",
                          "numeric_eigenvalues", "residuals", "hermitian",
                          "degenerate"}
        assert len(d["claimed_eigenvalues"]) == 4
        assert isinstance(d["hermitian"], bool)


class TestExchangeStrength:
    def test_from_fd_channel_levels(self):
        # lowest two channel orbitals of the quartic well stand in for the
        # lowest triplet / highest singlet pair
        p = ChannelPotentialParams()
        levels = fd_schrodinger_oracle(lambda y: channel_potential(p, y),
                                       Grid1D(-10.0, 10.0, 4001), 1.0, 2)
        assert levels[1] - levels[0] == pytest.approx(0.637385, abs=5e-4)
