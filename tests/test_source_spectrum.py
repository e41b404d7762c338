import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from entangler.numerics import DomainError, Grid1D, eigen_small, is_hermitian
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
            assert is_hermitian(h.to_array())

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

    def test_zero_h21_with_split_diagonal(self):
        s = spin_split(HMatrix2(h11=2.0, h12=0.0, h21=0.0, h22=1.0))
        assert (s.e_up, s.e_down) == (1.0, 2.0)

    def test_composed_pipeline_matches_dense_solver(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            h = build_hmatrix(random_params(rng))
            s = spin_split(h)
            ev = eigen_small(h.to_array()).eigenvalues
            assert abs(s.e_up - ev[0].real) < 1e-10
            assert abs(s.e_down - ev[1].real) < 1e-10

    def test_result_holds_energies_only(self):
        s = spin_split(HMatrix2(h11=3.0, h12=1.0, h21=1.0, h22=1.0))
        assert [f.name for f in dataclasses.fields(s)] == ["e_up", "e_down", "delta_e"]


class TestChartDeltaE:
    GRID = Grid1D(-1.0, 1.0, 5)

    def test_zero_without_rashba(self):
        s = chart_delta_e(SourceParams(**{**DEFAULTS, "alpha_r": 0.0}),
                          [1.0, 2.0], self.GRID)
        assert (s.delta_e == 0.0).all()

    def test_linear_in_alpha(self):
        xs = [0.5, 1.0, 1.5, 2.0, 2.5]
        lo = chart_delta_e(SourceParams(**{**DEFAULTS, "alpha_r": 0.1}), xs, self.GRID)
        hi = chart_delta_e(SourceParams(**{**DEFAULTS, "alpha_r": 0.2}), xs, self.GRID)
        np.testing.assert_allclose(hi.delta_e, 2.0 * lo.delta_e, rtol=0, atol=1e-13)

    def test_row_count_and_order(self):
        xs = [0.5, 1.5, 2.5]
        p = SourceParams(**DEFAULTS)
        s = chart_delta_e(p, xs, self.GRID)
        n = self.GRID.n_points
        for column in (s.e_up, s.e_down, s.delta_e):
            assert column.shape == (len(xs) * n,)
        # row-major: the rows of x_i are the chart of x_i alone
        for i, x in enumerate(xs):
            alone = chart_delta_e(p, [x], self.GRID)
            assert s.e_up[i * n:(i + 1) * n].tolist() == alone.e_up.tolist()
            assert s.delta_e[i * n:(i + 1) * n].tolist() == alone.delta_e.tolist()

    def test_splitting_non_negative_and_x_dependent(self):
        s = chart_delta_e(SourceParams(**DEFAULTS), [0.3, math.pi / 2.0], self.GRID)
        assert (s.delta_e >= 0.0).all()
        assert s.delta_e[0] != s.delta_e[-1]

    def test_monotone_in_alpha(self):
        values = []
        for alpha in (0.0, 0.1, 0.2, 0.4):
            s = chart_delta_e(SourceParams(**{**DEFAULTS, "alpha_r": alpha}),
                              [1.0], Grid1D(-1.0, 1.0, 3))
            values.append(s.delta_e[0])
        assert values == sorted(values)

    def test_rejects_x_outside_width(self):
        with pytest.raises(ValueError):
            chart_delta_e(SourceParams(**DEFAULTS), [math.pi], self.GRID)

    def test_non_finite_energy_names_its_column(self):
        # k^2 overflows to inf, as in build_hmatrix, instead of raising
        with pytest.raises(ValueError, match="^non-finite e_up$"):
            chart_delta_e(SourceParams(**{**DEFAULTS, "k": 1e200}), [1.0], self.GRID)


def per_point_chart(p, x_values, grid):
    """Reference chart: spin_split on each local HMatrix2, log term by math.log;
    one (e_up, e_down, delta_e) row per point, row-major over x then y."""
    kinetic = math.pi ** 2 / (2.0 * p.m_eff * p.l_x ** 2) + p.k ** 2 / (2.0 * p.m_eff)
    rows = []
    for x in x_values:
        weight = (2.0 / p.l_x) * math.sin(math.pi * x / p.l_x) ** 2
        off = p.alpha_r * p.k * weight
        for y in grid.points():
            log_term = -p.beta * math.log(max(abs(x - y), p.reg_delta) / p.r_coulomb)
            dens = (kinetic + 0.5 * p.m_eff * p.omega ** 2 * (x * x + y * y)
                    + log_term) * weight
            s = spin_split(HMatrix2(h11=dens, h12=off, h21=off, h22=dens))
            rows.append((s.e_up, s.e_down, s.delta_e))
    return rows


def chart_cases():
    rng = np.random.default_rng(5)
    cases = [random_params(rng) for _ in range(12)]
    cases += [SourceParams(**{**DEFAULTS, "alpha_r": 10.0 ** rng.uniform(-9.0, -6.0)})
              for _ in range(6)]
    # splittings far below the diagonal, and none at alpha_r = 0
    cases += [SourceParams(**{**DEFAULTS, "alpha_r": a})
              for a in (0.0, 1e-12, 3e-9, 1e-7)]
    cases += [SourceParams(**{**DEFAULTS, "k": -1.3}),
              SourceParams(**{**DEFAULTS, "beta": 0.0})]
    # densities near 1e200, whose squares overflow; spin_split squares no entry
    cases += [SourceParams(**{**DEFAULTS, "m_eff": 1e-200})]
    return cases


@pytest.mark.parametrize("case", range(len(chart_cases())))
def test_chart_equals_per_point_spin_split_bit_for_bit(case):
    p = chart_cases()[case]
    xs = [p.l_x * (i + 1) / 8 for i in range(7)]
    grid = Grid1D(-2.0, 2.0, 41)
    s = chart_delta_e(p, xs, grid)
    assert all(a.dtype == np.float64 for a in (s.e_up, s.e_down, s.delta_e))
    rows = zip(s.e_up.tolist(), s.e_down.tolist(), s.delta_e.tolist())
    expected = per_point_chart(p, xs, grid)
    assert [tuple(v.hex() for v in r) for r in rows] == \
        [tuple(float(v).hex() for v in r) for r in expected]


def assert_within_2_ulp(got, exact):
    assert (np.abs(got - exact) <= 2.0 * np.spacing(exact)).all()


def test_chart_splitting_is_twice_the_off_diagonal():
    # |off| ~ 1e-7 of the diagonal, where e_down - e_up kept ~9 digits, and
    # a degeneracy threshold once zeroed delta_e at some of these points
    p = SourceParams(**{**DEFAULTS, "alpha_r": 1e-7})
    xs = [p.l_x * (i + 1) / 8 for i in range(7)]
    grid = Grid1D(-2.0, 2.0, 41)
    weight = np.repeat([(2.0 / p.l_x) * math.sin(math.pi * x / p.l_x) ** 2 for x in xs],
                       grid.n_points)
    s = chart_delta_e(p, xs, grid)
    assert_within_2_ulp(s.delta_e, 2.0 * np.abs(p.alpha_r * p.k * weight))


@pytest.mark.parametrize("alpha_r", [0.2, 1e-3, 7.0])
def test_sweep_splitting_is_twice_alpha_r_k(alpha_r):
    # log-uniform |k| in [1e-10, 1e3], with k = 1e-8, where delta_e was 0
    k = np.append(10.0 ** np.random.default_rng(7).uniform(-10.0, 3.0, 500), 1e-8)
    k = np.concatenate([k, -k])
    s = spin_split(build_hmatrix(SourceParams(**{**DEFAULTS, "alpha_r": alpha_r, "k": k})))
    assert_within_2_ulp(s.delta_e, 2.0 * np.abs(alpha_r * k))


@st.composite
def charts(draw):
    """(params, x_count, grid) of a chart: every float key log-uniform, of
    magnitude in [1e-6, 1e6] or over the whole float range, or at either
    end of it (beta, alpha_r and k may be 0, k of either sign), and
    reg_delta below l_x / 10."""
    magnitude = st.one_of(st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e),
                          st.floats(-320.0, 308.0).map(lambda e: 10.0 ** e),
                          st.sampled_from([5e-324, 1.7976931348623157e308]))
    params = {key: draw(magnitude) for key in ("m_eff", "omega", "r_coulomb", "l_x")}
    for key in ("beta", "alpha_r"):
        params[key] = draw(st.one_of(st.just(0.0), magnitude))
    params["k"] = draw(st.one_of(st.just(0.0), magnitude, magnitude.map(lambda v: -v)))
    params["reg_delta"] = params["l_x"] * draw(st.floats(1e-12, 0.099))
    y_min, y_max = sorted([draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0))])
    return params, draw(st.integers(1, 5)), (y_min, y_max, draw(st.integers(3, 9)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(charts())
@example((DEFAULTS, 5, (-2.0, 2.0, 21)))
@example(({**DEFAULTS, "m_eff": 1e-200}, 5, (-2.0, 2.0, 21)))
@example(({**DEFAULTS, "alpha_r": 5e-324}, 5, (-2.0, 2.0, 21)))
@example(({**DEFAULTS, "k": -1.3}, 3, (-2.0, 2.0, 7)))
# x = y = 1, where |x - y| / R = reg_delta / R underflows to 0
@example(({**DEFAULTS, "l_x": 2.0, "reg_delta": 5e-324, "r_coulomb": 2.0}, 1,
          (-1.0, 1.0, 3)))
def test_property_chart_splitting_is_one_value_per_x_block(case):
    """A chart fails only out of domain or on a value it names as not
    finite. Wherever it computes, h11 == h22 at each point, so delta_e is
    2 |alpha_r k| |phi(x)|^2 with the bits of its x alone: each x block
    holds one value, bit for bit."""
    params, n, (y_min, y_max, y_points) = case
    try:
        p = SourceParams(**params)
        grid = Grid1D(y_min, y_max, y_points)
        s = chart_delta_e(p, [p.l_x * (i + 1) / (n + 1) for i in range(n)], grid)
    except DomainError:
        return
    except ValueError as exc:  # an x that rounds onto an end, or not finite
        assert str(exc).startswith(("x = ", "non-finite ")), exc
        return
    bits = s.delta_e.view(np.int64).reshape(n, y_points)
    assert (bits == bits[:, :1]).all()
