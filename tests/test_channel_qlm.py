import math

import numpy as np
import pytest

from entangler import channel_qlm
from entangler.channel_qlm import (ChannelPotentialParams, QlmConfig, QlmError,
                                   channel_potential,
                                   harmonic_reference_potential, qlm_energy,
                                   qlm_spectrum, qlm_step, qlm_weight)

from entangler.numerics import DomainError, Grid1D
from fd_oracle import fd_schrodinger_oracle

# Frozen finite-difference ground truth for the quartic double well
# (m* = omega = a = 1, no Coulomb term), grid [-10, 10] x 4001; doubling the
# grid moves it by 3.1e-7, so it is self-converged far below 1e-5.
E0_FD_QUARTIC = 0.29398020956462745

QUARTIC = ChannelPotentialParams()


def harmonic_cfg(omega=1.0, n_points=4001, iters=2):
    return QlmConfig(g=omega, n_points=n_points, iterations=iters)


def harmonic_v(p, cfg):
    return harmonic_reference_potential(p, cfg.grid.points())


def quartic_v(p, cfg):
    return channel_potential(p, cfg.grid.points())


def step(prev_l, energy, v, p, cfg):
    """qlm_step with the weight of prev_l, as one iterate of qlm_spectrum."""
    return qlm_step(prev_l, qlm_weight(prev_l, cfg), energy, v, p, cfg)


def energy(prev_l, v, p, cfg):
    """qlm_energy with the weight of prev_l, as one iterate of qlm_spectrum."""
    return qlm_energy(prev_l, qlm_weight(prev_l, cfg), v, p, cfg)


class TestChannelPotential:
    def test_zero_at_well_minima(self):
        assert channel_potential(QUARTIC, 1.0) == 0.0
        assert channel_potential(QUARTIC, -1.0) == 0.0

    def test_central_barrier_height(self):
        assert channel_potential(QUARTIC, 0.0) == pytest.approx(0.125, abs=1e-15)

    def test_with_coulomb_term(self):
        p = ChannelPotentialParams(coulomb_k=1.0, fermi_l=1.0, include_vc=True)
        expected = 0.125 + math.sqrt(math.pi / 2.0)  # erfcx(0) = 1
        assert channel_potential(p, 0.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("fermi_l", [1e-300, 1e-308])
    def test_coulomb_term_keeps_its_limit_where_the_profile_argument_overflows(
            self, fermi_l):
        # at 1e-308, y / (sqrt(2) fermi_l) is inf for y = 3 and 5; the term's
        # limit there is k / y, not 0
        y = np.array([0.5, 2.0, 3.0, 5.0])
        on = channel_potential(ChannelPotentialParams(
            coulomb_k=1.0, fermi_l=fermi_l, include_vc=True), y)
        np.testing.assert_allclose(on - channel_potential(QUARTIC, y), 1.0 / y, rtol=1e-12)

    def test_vectorized(self):
        y = np.linspace(-2.0, 2.0, 9)
        v = channel_potential(QUARTIC, y)
        assert v.shape == y.shape
        assert v.min() >= 0.0

    def test_warns_on_inconsistent_harmonic_length(self):
        with pytest.warns(UserWarning, match="harmonic length") as record:
            ChannelPotentialParams(omega=2.0, a=1.0)
        assert record[0].filename == __file__  # the caller, not __init__


class TestQlmStep:
    def test_harmonic_fixed_point(self):
        # l = -omega y reproduces itself at E = omega/2
        cfg = harmonic_cfg()
        y = cfg.grid.points()
        out = step(-y, 0.5, harmonic_reference_potential(QUARTIC, y), QUARTIC, cfg)
        mask = y <= 6.0
        assert np.abs(out + y)[mask].max() < 2e-6

    def test_sign_below_potential_minimum(self):
        # E below min(V) leaves no classical turning point: Q = l^2 - k^2 > 0
        # everywhere, so the decaying branch is strictly negative, and falls
        # with y once the WKB tail takes over
        cfg = harmonic_cfg()
        y = cfg.grid.points()
        out = step(-y, -1.0, harmonic_reference_potential(QUARTIC, y), QUARTIC, cfg)
        interior = (y > 0.0) & (y <= 6.0)
        assert np.all(out[interior] < 0.0)
        outer = (y >= 1.0) & (y <= 6.0)
        assert np.all(np.diff(out[outer]) < 0.0)

    def test_even_parity_at_origin(self):
        cfg = harmonic_cfg()
        y = cfg.grid.points()
        out = step(-y, 0.5, harmonic_reference_potential(QUARTIC, y), QUARTIC, cfg)
        assert abs(out[0]) < 1e-12

    def test_growing_iterate_raises(self):
        cfg = harmonic_cfg(n_points=1001)
        with pytest.raises(QlmError, match="overflows"):
            qlm_weight(+50.0 * cfg.grid.points(), cfg)


class TestQlmEnergy:
    @pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
    def test_harmonic_first_energy(self, omega):
        p = ChannelPotentialParams(omega=omega, a=1.0 / math.sqrt(omega))
        cfg = harmonic_cfg(omega)
        y = cfg.grid.points()
        e1 = energy(-omega * y, harmonic_reference_potential(p, y), p, cfg)
        assert e1 == pytest.approx(omega / 2.0, abs=1e-8)

    def test_free_particle_gaussian_moment(self):
        # V = 0, g = 1: E = <s^2>/2 under exp(-s^2) = 1/4
        cfg = harmonic_cfg()
        y = cfg.grid.points()
        e = energy(-y, 0.0 * y, QUARTIC, cfg)
        assert e == pytest.approx(0.25, abs=1e-10)

    def test_quartic_first_energy_closed_form(self):
        # Gaussian moments give E1 = 1/4 + 3/32 = 11/32 exactly
        cfg = harmonic_cfg()
        y = cfg.grid.points()
        e1 = energy(-y, channel_potential(QUARTIC, y), QUARTIC, cfg)
        assert e1 == pytest.approx(11.0 / 32.0, abs=1e-9)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 401, 4000, 4001])
    def test_total_is_the_last_cumulative_sample_bit_for_bit(self, n):
        # odd n ends on the even Simpson chain, even n on the trapezoid-seeded one
        rng = np.random.default_rng(n)
        for _ in range(50):
            f = rng.standard_normal(n) * 10.0 ** rng.uniform(-5.0, 5.0)
            h = rng.uniform(1e-3, 1.0)
            total = channel_qlm._total(f, h)
            assert total.hex() == channel_qlm._cumulative(f, h)[-1].hex()

    def test_non_decaying_weight_raises(self):
        cfg = QlmConfig(g=1.0, n_points=501, iterations=1)
        with pytest.raises(QlmError, match="decay"):
            qlm_weight(np.full(cfg.grid.n_points, -1e-3), cfg)

    def test_prev_l_off_the_grid_raises(self):
        cfg = QlmConfig(g=1.0, n_points=501, iterations=1)
        with pytest.raises(ValueError, match="prev_l must be sampled on cfg.grid"):
            qlm_weight(-cfg.grid.points()[:-1], cfg)


class TestQlmSpectrum:
    def test_harmonic_energies_stationary(self):
        cfg = harmonic_cfg(iters=3)
        v = harmonic_v(QUARTIC, cfg)
        energies, _ = qlm_spectrum(QUARTIC, cfg, v)
        for e_n in energies:
            assert e_n == pytest.approx(0.5, abs=1e-7)
        # the last l of a 2-iterate run against that of a 1-iterate run
        _, l_1 = qlm_spectrum(QUARTIC, harmonic_cfg(iters=1), v)
        _, l_2 = qlm_spectrum(QUARTIC, harmonic_cfg(iters=2), v)
        mask = cfg.grid.points() <= 6.0
        assert np.abs(l_2 - l_1)[mask].max() <= 1e-5

    def test_iteration_count_contract(self):
        cfg = harmonic_cfg(iters=1)
        energies, l_n = qlm_spectrum(QUARTIC, cfg, quartic_v(QUARTIC, cfg))
        assert len(energies) == 1
        assert l_n.shape == (cfg.grid.n_points,)

    def test_quartic_converges_toward_fd_oracle(self):
        cfg = QlmConfig(g=1.0, iterations=3)
        energies, _ = qlm_spectrum(QUARTIC, cfg, quartic_v(QUARTIC, cfg))
        assert energies[0] == pytest.approx(11.0 / 32.0, abs=1e-9)
        gaps = [abs(e_n - E0_FD_QUARTIC) for e_n in energies]
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert gaps[2] / E0_FD_QUARTIC <= 0.10

    def test_iterates_match_public_loop(self, monkeypatch):
        p = ChannelPotentialParams(coulomb_k=0.4, fermi_l=0.8, include_vc=True)
        cfg = QlmConfig(g=1.0, n_points=1001, iterations=3)
        weights = []

        def counting_weight(prev_l, cfg):
            weights.append(len(prev_l))
            return qlm_weight(prev_l, cfg)

        monkeypatch.setattr(channel_qlm, "qlm_weight", counting_weight)
        v = quartic_v(p, cfg)
        energies, l_n = qlm_spectrum(p, cfg, v)
        assert weights == [1001] * cfg.iterations
        # reference: the same iteration through the public kernels
        l_cur = -cfg.g * cfg.grid.points()
        expected = []
        for _ in range(cfg.iterations):
            w = qlm_weight(l_cur, cfg)
            expected.append(qlm_energy(l_cur, w, v, p, cfg))
            l_cur = qlm_step(l_cur, w, expected[-1], v, p, cfg)
        assert energies == expected
        assert np.array_equal(l_n, l_cur)
        # the tail sample is +0.0, so a dump_l row never prints -0
        assert math.copysign(1.0, l_n[-1]) == 1.0

    def test_non_finite_iterate_raises_naming_it(self):
        cfg = harmonic_cfg(iters=3)
        v = np.full(cfg.grid.n_points, np.inf)
        with pytest.raises(QlmError, match="^iteration 1: non-finite energy"):
            qlm_spectrum(QUARTIC, cfg, v)

    @pytest.mark.parametrize("n", [1000, 1002])
    def test_potential_off_the_grid_raises(self, n):
        cfg = QlmConfig(g=1.0, n_points=1001, iterations=1)
        y = np.linspace(0.0, cfg.grid.y_max, n)
        with pytest.raises(ValueError, match="v must be sampled on cfg.grid"):
            qlm_spectrum(QUARTIC, cfg, channel_potential(QUARTIC, y))

    def test_fd_fixture_still_valid(self):
        e0 = fd_schrodinger_oracle(lambda y: channel_potential(QUARTIC, y),
                                   Grid1D(-10.0, 10.0, 4001), 1.0, 1)[0]
        assert e0 == pytest.approx(E0_FD_QUARTIC, abs=1e-9)


class TestInvariants:
    def test_grid_convergence_order(self):
        # quadrature order consistency: refining the grid shrinks the move
        energies = []
        for n in (1001, 2001, 4001):
            cfg = QlmConfig(g=1.0, n_points=n, iterations=1)
            energies.append(qlm_spectrum(QUARTIC, cfg, quartic_v(QUARTIC, cfg))[0][0])
        d1, d2 = abs(energies[1] - energies[0]), abs(energies[2] - energies[1])
        assert d2 < 4.0 * d1 or d2 < 1e-13

    def test_frequency_scaling(self):
        # (omega -> c omega, g -> c g) scales the harmonic energy by c
        base = harmonic_cfg(1.0)
        y1 = base.grid.points()
        p1 = ChannelPotentialParams()
        e1 = energy(-y1, harmonic_reference_potential(p1, y1), p1, base)
        c = 3.0
        scaled = harmonic_cfg(c)
        y2 = scaled.grid.points()
        p2 = ChannelPotentialParams(omega=c, a=1.0 / math.sqrt(c))
        e2 = energy(-c * y2, harmonic_reference_potential(p2, y2), p2, scaled)
        assert e2 == pytest.approx(c * e1, abs=1e-8)

    def test_config_validation(self):
        # g first, then the grid, then the loop count
        with pytest.raises(DomainError, match=r"^g must be positive, got -1\.0$"):
            QlmConfig(g=-1.0, n_points=2, iterations=0)
        with pytest.raises(DomainError, match=r"^need n_points >= 3, got 2$"):
            QlmConfig(g=1.0, n_points=2, iterations=0)
        with pytest.raises(DomainError, match=r"^iterations must be >= 1, got 0$"):
            QlmConfig(g=1.0, n_points=3, iterations=0)

    def test_grid_derived_from_g(self):
        cfg = QlmConfig(g=4.0, n_points=101)
        assert cfg.grid == Grid1D(0.0, 3.75, 101)
        assert cfg.iterations == 3
        with pytest.raises(TypeError):
            QlmConfig(g=1.0, grid=cfg.grid)
