import math

import numpy as np
import pytest

from entangler.channel_qlm import (ChannelPotentialParams, QlmConfig, QlmError,
                                   channel_potential, default_qlm_grid,
                                   harmonic_reference_potential, qlm_energy,
                                   qlm_spectrum, qlm_step)

from entangler.numerics import Grid1D
from fd_oracle import fd_schrodinger_oracle

# Frozen finite-difference ground truth for the quartic double well
# (m* = omega = a = 1, no Coulomb term), grid [-10, 10] x 4001; doubling the
# grid moves it by 3.1e-7, so it is self-converged far below 1e-5.
E0_FD_QUARTIC = 0.29398020956462745

QUARTIC = ChannelPotentialParams()


def harmonic_cfg(omega=1.0, n_points=4001, iters=2):
    return QlmConfig(g=omega, grid=default_qlm_grid(omega, n_points),
                     max_iterations=iters)


def harmonic_pot(p):
    return lambda y: harmonic_reference_potential(p, y)


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
        out = qlm_step(-y, 0.5, QUARTIC, cfg, potential=harmonic_pot(QUARTIC))
        mask = y <= 6.0
        assert np.abs(out + y)[mask].max() < 2e-6

    def test_sign_below_potential_minimum(self):
        # E below min(V) leaves no classical turning point: Q = l^2 - k^2 > 0
        # everywhere, so the decaying branch is strictly negative, and falls
        # with y once the WKB tail takes over
        cfg = harmonic_cfg()
        y = cfg.grid.points()
        out = qlm_step(-y, -1.0, QUARTIC, cfg, potential=harmonic_pot(QUARTIC))
        interior = (y > 0.0) & (y <= 6.0)
        assert np.all(out[interior] < 0.0)
        outer = (y >= 1.0) & (y <= 6.0)
        assert np.all(np.diff(out[outer]) < 0.0)

    def test_zero_previous_iterate_reduces_to_plain_integral(self):
        # u = 1, so the step is -int_0^y k^2 = -(2 E y - y^3 / 3) exactly
        cfg = harmonic_cfg(n_points=2001)
        y = cfg.grid.points()
        energy = 0.7
        out = qlm_step(np.zeros_like(y), energy, QUARTIC, cfg,
                       potential=harmonic_pot(QUARTIC), assume_decay=False)
        expected = -(2.0 * energy * y - y ** 3 / 3.0)
        assert np.abs(out - expected).max() < 1e-7

    def test_even_parity_at_origin(self):
        cfg = harmonic_cfg()
        out = qlm_step(-cfg.grid.points(), 0.5, QUARTIC, cfg,
                       potential=harmonic_pot(QUARTIC))
        assert abs(out[0]) < 1e-12

    def test_growing_iterate_raises(self):
        cfg = harmonic_cfg(n_points=1001)
        with pytest.raises(QlmError, match="overflows"):
            qlm_step(+50.0 * cfg.grid.points(), 0.5, QUARTIC, cfg)


class TestQlmEnergy:
    @pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
    def test_harmonic_first_energy(self, omega):
        p = ChannelPotentialParams(omega=omega, a=1.0 / math.sqrt(omega))
        cfg = harmonic_cfg(omega)
        e1 = qlm_energy(-omega * cfg.grid.points(), p, cfg,
                        potential=harmonic_pot(p))
        assert e1 == pytest.approx(omega / 2.0, abs=1e-8)

    def test_free_particle_gaussian_moment(self):
        # V = 0, g = 1: E = <s^2>/2 under exp(-s^2) = 1/4
        cfg = harmonic_cfg()
        e = qlm_energy(-cfg.grid.points(), QUARTIC, cfg, potential=lambda y: 0.0 * y)
        assert e == pytest.approx(0.25, abs=1e-10)

    def test_quartic_first_energy_closed_form(self):
        # Gaussian moments give E1 = 1/4 + 3/32 = 11/32 exactly
        cfg = harmonic_cfg()
        e1 = qlm_energy(-cfg.grid.points(), QUARTIC, cfg)
        assert e1 == pytest.approx(11.0 / 32.0, abs=1e-9)

    def test_non_decaying_weight_raises(self):
        grid = Grid1D(0.0, 6.0, 501)
        cfg = QlmConfig(g=1.0, grid=grid, max_iterations=1)
        with pytest.raises(QlmError, match="decay"):
            qlm_energy(np.full(grid.n_points, -1e-3), QUARTIC, cfg)


class TestQlmSpectrum:
    def test_harmonic_energies_stationary(self):
        cfg = harmonic_cfg(iters=3)
        its = qlm_spectrum(QUARTIC, cfg, potential=harmonic_pot(QUARTIC))
        for it in its:
            assert it.e_n == pytest.approx(0.5, abs=1e-7)
        y = cfg.grid.points()
        mask = y <= 6.0
        assert np.abs(its[1].l_n - its[0].l_n)[mask].max() <= 1e-5

    def test_iteration_count_contract(self):
        cfg = harmonic_cfg(iters=1)
        its = qlm_spectrum(QUARTIC, cfg)
        assert len(its) == 1
        assert its[0].n == 1

    def test_quartic_converges_toward_fd_oracle(self):
        cfg = QlmConfig(g=1.0, grid=default_qlm_grid(1.0), max_iterations=3)
        its = qlm_spectrum(QUARTIC, cfg)
        assert its[0].e_n == pytest.approx(11.0 / 32.0, abs=1e-9)
        gaps = [abs(it.e_n - E0_FD_QUARTIC) for it in its]
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert gaps[2] / E0_FD_QUARTIC <= 0.10

    def test_potential_sampled_once_and_iterates_match_public_loop(self):
        p = ChannelPotentialParams(coulomb_k=0.4, fermi_l=0.8, include_vc=True)
        cfg = QlmConfig(g=1.0, grid=default_qlm_grid(1.0, 1001), max_iterations=3)
        calls = []

        def counting(y):
            calls.append(len(y))
            return channel_potential(p, y)

        its = qlm_spectrum(p, cfg, potential=counting)
        assert calls == [1001]
        # reference: the same iteration through the public functions, each
        # sampling the potential itself
        l_cur = -cfg.g * cfg.grid.points()
        for it in its:
            e_n = qlm_energy(l_cur, p, cfg)
            l_cur = qlm_step(l_cur, e_n, p, cfg)
            assert it.e_n == e_n
            assert np.array_equal(it.l_n, l_cur)
        assert len(its) == 3

    def test_fd_fixture_still_valid(self):
        e0 = fd_schrodinger_oracle(lambda y: channel_potential(QUARTIC, y),
                                   Grid1D(-10.0, 10.0, 4001), 1.0, 1)[0]
        assert e0 == pytest.approx(E0_FD_QUARTIC, abs=1e-9)


class TestInvariants:
    def test_grid_convergence_order(self):
        # quadrature order consistency: refining the grid shrinks the move
        energies = []
        for n in (1001, 2001, 4001):
            cfg = QlmConfig(g=1.0, grid=default_qlm_grid(1.0, n), max_iterations=1)
            energies.append(qlm_spectrum(QUARTIC, cfg)[0].e_n)
        d1, d2 = abs(energies[1] - energies[0]), abs(energies[2] - energies[1])
        assert d2 < 4.0 * d1 or d2 < 1e-13

    def test_frequency_scaling(self):
        # (omega -> c omega, g -> c g) scales the harmonic energy by c
        base = harmonic_cfg(1.0)
        p1 = ChannelPotentialParams()
        e1 = qlm_energy(-base.grid.points(), p1, base, potential=harmonic_pot(p1))
        c = 3.0
        scaled = harmonic_cfg(c)
        p2 = ChannelPotentialParams(omega=c, a=1.0 / math.sqrt(c))
        e2 = qlm_energy(-c * scaled.grid.points(), p2, scaled,
                        potential=harmonic_pot(p2))
        assert e2 == pytest.approx(c * e1, abs=1e-8)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="y_max"):
            QlmConfig(g=1.0, grid=Grid1D(0.0, 2.0, 101), max_iterations=1)
        with pytest.raises(ValueError, match="half line"):
            QlmConfig(g=1.0, grid=Grid1D(-1.0, 8.0, 101), max_iterations=1)
        with pytest.raises(ValueError):
            QlmConfig(g=-1.0, grid=Grid1D(0.0, 8.0, 101), max_iterations=1)
