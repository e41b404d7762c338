import math

import numpy as np
import pytest

from entangler.numerics import Grid1D, eigen_small
from entangler.source_spectrum import (HMatrix2, SourceParams, _log_coulomb,
                                       _si, build_hmatrix, chart_delta_e,
                                       spin_split)

DEFAULTS = dict(m_eff=1.0, omega=1.0, beta=0.5, r_coulomb=1.0, alpha_r=0.2,
                l_x=math.pi, k=1.0, reg_delta=1e-3)


def random_params(rng):
    return SourceParams(
        m_eff=rng.uniform(0.3, 3.0), omega=rng.uniform(0.3, 3.0),
        beta=rng.uniform(0.0, 1.0), r_coulomb=rng.uniform(0.5, 2.0),
        alpha_r=rng.uniform(0.0, 1.0), l_x=rng.uniform(1.0, 5.0),
        k=rng.uniform(-2.0, 2.0), reg_delta=1e-3)


class TestBuildHMatrix:
    def test_spin_independent_is_degenerate_diagonal(self):
        h = build_hmatrix(SourceParams(**{**DEFAULTS, "alpha_r": 0.0, "beta": 0.0}))
        assert h.h12 == 0 and h.h21 == 0
        assert h.h11 == h.h22

    def test_rashba_off_diagonal_is_alpha_k(self):
        # <P_x> vanishes by parity for the real sin profile
        h = build_hmatrix(SourceParams(**{**DEFAULTS, "alpha_r": 0.3, "k": 2.0}))
        assert abs(h.h12 - 0.6) < 1e-10

    def test_hermitian_over_random_parameters(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            h = build_hmatrix(random_params(rng))
            assert h.is_hermitian()

    def test_transverse_pieces(self):
        p = SourceParams(**{**DEFAULTS, "beta": 0.0, "alpha_r": 0.0, "k": 0.0})
        h = build_hmatrix(p)
        box = math.pi ** 2 / (2.0 * p.m_eff * p.l_x ** 2)
        x2 = p.l_x ** 2 * (1.0 / 3.0 - 0.5 / math.pi ** 2)
        assert h.h11.real == pytest.approx(box + 0.5 * x2, rel=1e-12)

    @pytest.mark.parametrize("changes", [
        {}, {"beta": 0.0}, {"reg_delta": 1e-9}, {"reg_delta": 0.3},
        {"l_x": 1.0, "r_coulomb": 0.3, "beta": 1.7, "reg_delta": 0.05},
        {"l_x": 6.0, "r_coulomb": 2.5, "beta": 0.9, "reg_delta": 1e-5}])
    def test_log_coulomb_matches_quadrature(self, changes):
        from scipy.integrate import quad
        p = SourceParams(**{**DEFAULTS, **changes})

        def integrand(x):
            return (2.0 / p.l_x) * math.sin(math.pi * x / p.l_x) ** 2 * (
                -p.beta * math.log(x / p.r_coulomb))

        ref = quad(integrand, p.reg_delta, p.l_x, points=[p.r_coulomb],
                   epsabs=0.0, epsrel=1e-13, limit=200)[0] if p.beta else 0.0
        got = _log_coulomb(p)
        assert abs(got - ref) <= 1e-14 * abs(ref)
        diag = (math.pi ** 2 / (2.0 * p.m_eff * p.l_x ** 2) + p.k ** 2 / (2.0 * p.m_eff)
                + 0.5 * p.m_eff * p.omega ** 2 * p.l_x ** 2
                * (1.0 / 3.0 - 0.5 / math.pi ** 2) + got)
        assert build_hmatrix(p).h11 == diag

    def test_sine_integral_series_matches_sici(self):
        from scipy.special import sici
        z = np.linspace(0.0, 2.0 * math.pi, 1001)
        assert _si(0.0) == 0.0
        assert max(abs(_si(v) - sici(v)[0]) for v in z) <= 1e-14

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SourceParams(**{**DEFAULTS, "reg_delta": 1.0})
        with pytest.raises(ValueError):
            SourceParams(**{**DEFAULTS, "l_x": -1.0})


class TestSpinSplit:
    def test_direct_substitution(self):
        s = spin_split(HMatrix2(h11=3.0, h12=1.0, h21=1.0, h22=1.0))
        assert s.delta_e == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    def test_degenerate_diagonal(self):
        s = spin_split(HMatrix2(h11=2.5, h12=0.0, h21=0.0, h22=2.5))
        assert s.delta_e == 0.0
        assert s.e_up == s.e_down == 2.5
        assert np.allclose(s.eigvec_up, [1, 0])
        assert np.allclose(s.eigvec_down, [0, 1])

    def test_matches_dense_solver_on_random_hermitian(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            d1, d2 = rng.normal(size=2)
            off = rng.normal() + 1j * rng.normal()
            h = HMatrix2(h11=d1, h12=off, h21=off.conjugate(), h22=d2)
            s = spin_split(h)
            ev = eigen_small(h.to_array()).eigenvalues
            assert abs(s.e_up - ev[0].real) < 1e-10
            assert abs(s.e_down - ev[1].real) < 1e-10

    def test_trace_identity(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            d1, d2 = rng.normal(size=2)
            off = rng.normal() + 1j * rng.normal()
            h = HMatrix2(h11=d1, h12=off, h21=off.conjugate(), h22=d2)
            s = spin_split(h)
            assert s.e_up + s.e_down == pytest.approx(d1 + d2, abs=1e-10)
            assert s.delta_e == pytest.approx(s.e_down - s.e_up, abs=1e-12)

    def test_equal_diagonal_gives_twice_off_diagonal(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            d = rng.normal()
            off = rng.normal() + 1j * rng.normal()
            h = HMatrix2(h11=d, h12=off, h21=off.conjugate(), h22=d)
            assert spin_split(h).delta_e == pytest.approx(2.0 * abs(off), abs=1e-12)

    def test_zero_h21_with_split_diagonal_uses_fallback(self):
        s = spin_split(HMatrix2(h11=2.0, h12=0.0, h21=0.0, h22=1.0))
        assert (s.e_up, s.e_down) == (1.0, 2.0)
        m = np.array([[2.0, 0.0], [0.0, 1.0]])
        for vec, lam in ((s.eigvec_up, 1.0), (s.eigvec_down, 2.0)):
            assert np.linalg.norm(m @ vec - lam * vec) < 1e-12

    def test_composed_pipeline_matches_dense_solver(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            h = build_hmatrix(random_params(rng))
            s = spin_split(h)
            ev = eigen_small(h.to_array()).eigenvalues
            assert abs(s.e_up - ev[0].real) < 1e-10
            assert abs(s.e_down - ev[1].real) < 1e-10

    def test_eigenvectors_satisfy_eigenproblem(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            d1, d2 = rng.normal(size=2)
            off = rng.normal() + 1j * rng.normal()
            h = HMatrix2(h11=d1, h12=off, h21=off.conjugate(), h22=d2)
            s = spin_split(h)
            m = h.to_array()
            assert np.linalg.norm(m @ s.eigvec_up - s.e_up * s.eigvec_up) < 1e-9
            assert np.linalg.norm(m @ s.eigvec_down - s.e_down * s.eigvec_down) < 1e-9


class TestChartDeltaE:
    GRID = Grid1D(-1.0, 1.0, 5)

    def test_zero_without_rashba(self):
        rows = chart_delta_e(SourceParams(**{**DEFAULTS, "alpha_r": 0.0}),
                             [1.0, 2.0], self.GRID)
        assert all(r[4] == 0.0 for r in rows)

    def test_linear_in_alpha(self):
        xs = [0.5, 1.0, 1.5, 2.0, 2.5]
        lo = chart_delta_e(SourceParams(**{**DEFAULTS, "alpha_r": 0.1}), xs, self.GRID)
        hi = chart_delta_e(SourceParams(**{**DEFAULTS, "alpha_r": 0.2}), xs, self.GRID)
        for r1, r2 in zip(lo, hi):
            assert r2[4] == pytest.approx(2.0 * r1[4], abs=1e-13)

    def test_row_count_and_order(self):
        xs = [0.5, 1.5, 2.5]
        rows = chart_delta_e(SourceParams(**DEFAULTS), xs, self.GRID)
        assert len(rows) == len(xs) * self.GRID.n_points
        assert [r[0] for r in rows[:5]] == [0.5] * 5
        assert [r[1] for r in rows[:5]] == list(self.GRID.points())

    def test_splitting_non_negative_and_x_dependent(self):
        rows = chart_delta_e(SourceParams(**DEFAULTS), [0.3, math.pi / 2.0],
                             self.GRID)
        assert all(r[4] >= 0.0 for r in rows)
        assert rows[0][4] != rows[-1][4]

    def test_monotone_in_alpha(self):
        values = []
        for alpha in (0.0, 0.1, 0.2, 0.4):
            rows = chart_delta_e(SourceParams(**{**DEFAULTS, "alpha_r": alpha}),
                                 [1.0], Grid1D(-1.0, 1.0, 3))
            values.append(rows[0][4])
        assert values == sorted(values)

    def test_rejects_x_outside_width(self):
        with pytest.raises(ValueError):
            chart_delta_e(SourceParams(**DEFAULTS), [math.pi], self.GRID)


def per_point_chart(p, x_values, grid):
    """Reference chart: spin_split on each local HMatrix2, log term by math.log."""
    kinetic = math.pi ** 2 / (2.0 * p.m_eff * p.l_x ** 2) + p.k ** 2 / (2.0 * p.m_eff)
    rows = []
    for x in x_values:
        weight = (2.0 / p.l_x) * math.sin(math.pi * x / p.l_x) ** 2
        off = complex(p.alpha_r * p.k * weight)
        for y in grid.points():
            log_term = -p.beta * math.log(max(abs(x - y), p.reg_delta) / p.r_coulomb)
            dens = (kinetic + 0.5 * p.m_eff * p.omega ** 2 * (x * x + y * y)
                    + log_term) * weight
            s = spin_split(HMatrix2(h11=complex(dens), h12=off,
                                    h21=off.conjugate(), h22=complex(dens)))
            rows.append((x, float(y), s.e_up, s.e_down, s.delta_e))
    return rows


def chart_cases():
    rng = np.random.default_rng(5)
    cases = [random_params(rng) for _ in range(12)]
    cases += [SourceParams(**{**DEFAULTS, "alpha_r": 10.0 ** rng.uniform(-9.0, -6.0)})
              for _ in range(6)]
    # alpha_r = 0, 1e-12 and 3e-9 take the degenerate branch everywhere;
    # 1e-7 crosses its threshold inside the chart.
    cases += [SourceParams(**{**DEFAULTS, "alpha_r": a})
              for a in (0.0, 1e-12, 3e-9, 1e-7)]
    cases += [SourceParams(**{**DEFAULTS, "k": -1.3}),
              SourceParams(**{**DEFAULTS, "beta": 0.0})]
    return cases


@pytest.mark.parametrize("case", range(len(chart_cases())))
def test_chart_equals_per_point_spin_split_bit_for_bit(case):
    p = chart_cases()[case]
    xs = [p.l_x * (i + 1) / 8 for i in range(7)]
    grid = Grid1D(-2.0, 2.0, 41)
    rows = chart_delta_e(p, xs, grid)
    expected = per_point_chart(p, xs, grid)
    assert [tuple(v.hex() for v in r) for r in rows] == \
        [tuple(v.hex() for v in r) for r in expected]
    assert all(type(v) is float for r in rows for v in r)


def test_chart_degenerate_threshold_crossed_inside():
    p = SourceParams(**{**DEFAULTS, "alpha_r": 1e-7})
    rows = chart_delta_e(p, [p.l_x * (i + 1) / 8 for i in range(7)],
                         Grid1D(-2.0, 2.0, 41))
    zero = sum(r[4] == 0.0 for r in rows)
    assert 0 < zero < len(rows)
