import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from entangler.numerics import (DomainError, Grid1D, QuadratureError,
                                check_domain, check_finite, eigen_small, erfcx,
                                integrate, is_hermitian)
from fd_oracle import fd_schrodinger_oracle

# Oracle constants, computed independently before the build:
# - exp(1) * (1 - erf(1)) with erf from its exact-rational Taylor series
# - asymptotic series 1/(x sqrt(pi)) sum (-1)^k (2k-1)!!/(2x^2)^k at x = 50
# - sqrt(pi)/2 * erf(9) from the closed form of the Gaussian integral
ERFCX_1 = 0.4275835761558072
ERFCX_50 = 0.011281536265323773
GAUSS_0_TO_9 = 0.8862269254527579


class TestIntegrate:
    def test_polynomial_exact(self):
        assert integrate(lambda x: x * x, 0.0, 1.0, 1e-10) == pytest.approx(
            1.0 / 3.0, abs=1e-10)

    def test_zero_integrand(self):
        assert integrate(lambda x: 0.0, 0.0, 1.0, 1e-10) == 0.0

    def test_truncated_gaussian(self):
        # upper limit where exp(-s^2) < 1e-35 stands in for infinity
        v = integrate(lambda s: math.exp(-s * s), 0.0, 9.0, 1e-10)
        assert v == pytest.approx(GAUSS_0_TO_9, abs=1e-10)

    def test_richardson_consistency(self):
        # halving tol never moves the result by more than the previous tol
        rng = np.random.default_rng(42)
        for _ in range(20):
            coeffs = rng.uniform(-2.0, 2.0, size=5)
            mu = rng.uniform(-1.0, 1.0)
            width = rng.uniform(0.2, 1.0)

            def f(x, c=coeffs, m=mu, w=width):
                return float(np.polyval(c, x) + math.exp(-((x - m) ** 2) / w))

            tol = 1e-6
            prev = integrate(f, -3.0, 3.0, tol)
            for _ in range(5):
                cur = integrate(f, -3.0, 3.0, tol / 2.0)
                assert abs(cur - prev) <= tol
                prev, tol = cur, tol / 2.0

    def test_nonconvergence_names_interval(self):
        # a kink cannot satisfy an absurd tolerance within the depth budget
        with pytest.raises(QuadratureError, match=r"no convergence on \["):
            integrate(lambda x: abs(x - 0.123456), -1.0, 1.0, 1e-300, max_depth=4)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate(lambda x: math.inf, 0.0, 1.0, 1e-8)


class TestErfcx:
    def test_at_zero(self):
        assert erfcx(0.0) == 1.0

    def test_at_one(self):
        assert erfcx(1.0) == pytest.approx(ERFCX_1, rel=1e-12)

    def test_at_fifty(self):
        assert erfcx(50.0) == pytest.approx(ERFCX_50, rel=1e-10)
        # leading asymptotic order
        assert erfcx(50.0) == pytest.approx(1.0 / (50.0 * math.sqrt(math.pi)),
                                            rel=3e-4)

    def test_against_integral_representation(self):
        # erfcx(x) = (2/sqrt(pi)) int_0^inf exp(-t^2 - 2xt) dt: a quadrature
        # route fully independent of both the erfc call and the series
        for x in (0.5, 2.0, 8.0, 20.0, 50.0):
            cut = min(40.0 / (2.0 * x), 6.0) + 1.0
            ref = 2.0 / math.sqrt(math.pi) * integrate(
                lambda t: math.exp(-t * t - 2.0 * x * t), 0.0, cut, 1e-14)
            assert erfcx(x) == pytest.approx(ref, rel=1e-11)

    def test_reflection_identity(self):
        # erfcx(x) e^{-x^2} + erfcx(-x) e^{-x^2} = erfc(x) + erfc(-x) = 2
        for x in np.linspace(-3.0, 3.0, 100):
            w = math.exp(-x * x)
            assert erfcx(x) * w + erfcx(-x) * w == pytest.approx(2.0, abs=1e-11)

    def test_branches_agree_at_switch_point(self):
        # x = 8 takes the series branch; the erfc product is still exact there
        assert erfcx(8.0) == pytest.approx(math.exp(64.0) * math.erfc(8.0),
                                           rel=1e-12)

    def test_overflow_branch(self):
        assert erfcx(-30.0) == math.inf


# Each branch of erfcx and its edges: the sign, the switch to the
# series at 8, the product overflow near 26.6, the reflection overflow below
# -26.64, the largest magnitudes and the non-finite values.
ERFCX_EDGES = [-0.0, 0.0, 8.0, math.nextafter(8.0, 0.0), math.nextafter(8.0, 9.0),
               26.6, -26.65, 1e300, math.nan, math.inf, -math.inf]
# Finite floats of both signs, and floats drawn inside each branch.
ERFCX_ARGS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.floats(-27.0, 0.0), st.floats(0.0, 8.0),
                       st.floats(8.0, 27.0))


def float_bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


class TestErfcxArray:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(ERFCX_ARGS, max_size=40))
    @example(ERFCX_EDGES)
    @example([])
    def test_matches_scalar_bit_for_bit(self, values):
        out = erfcx(np.array(values, dtype=float))
        assert out.shape == (len(values),)
        assert float_bits(out) == float_bits([erfcx(v) for v in values])

    def test_dense_grid_across_branches(self):
        x = np.linspace(-27.0, 27.0, 5401)
        assert float_bits(erfcx(x)) == float_bits([erfcx(v) for v in x.tolist()])

    def test_keeps_shape(self):
        x = np.array(ERFCX_EDGES[:10]).reshape(2, 5)
        out = erfcx(x)
        assert out.shape == (2, 5)
        assert float_bits(out.ravel()) == float_bits([erfcx(v) for v in x.ravel()])

    @pytest.mark.parametrize("x", ERFCX_EDGES)
    def test_zero_dim_gives_float(self, x):
        out = erfcx(np.array(x))
        assert type(out) is float
        assert float_bits([out]) == float_bits([erfcx(x)])


@pytest.mark.parametrize("low, high, log", [(8.0, 1e300, True), (-26.6, 0.0, False),
                                            (0.0, 8.0, False)])
def test_erfcx_within_8_ulp_of_scipy(low, high, log):
    # An independent implementation (the Faddeeva package's, in scipy) on
    # seeded samples of the series, the reflection and the Taylor table:
    # every sample takes one path, so the array-against-scalar tests above
    # compare it with itself. A log-uniform draw covers [8, 1e300) up to the
    # largest decade. The table is within 1 ulp of the correctly rounded
    # value, scipy within 4 of it here.
    special = pytest.importorskip("scipy.special")
    bound = 5 if (low, high) == (0.0, 8.0) else 8
    rng = np.random.default_rng(20)
    if log:
        x = 10.0 ** rng.uniform(math.log10(low), math.log10(high), 20_000)
    else:
        x = rng.uniform(low, high, 20_000)
    ours, ref = erfcx(x), special.erfcx(x)
    assert (ours > 0).all() and (ref > 0).all()
    # positive doubles order as their bit patterns: the difference is in ulps
    assert np.abs(ours.view(np.int64) - ref.view(np.int64)).max() <= bound


# Both sides of each interior join k/4 of the Taylor table's intervals.
ERFCX_JOINS = np.arange(1, 32) / 4.0
ERFCX_BEFORE_JOINS = np.nextafter(ERFCX_JOINS, 0.0)


def test_erfcx_falls_across_each_table_join():
    # erfcx decreases: a join's left neighbour is not below it, and within
    # the 2 ulp that two values each within 1 ulp of their own can differ by
    right, left = erfcx(ERFCX_JOINS), erfcx(ERFCX_BEFORE_JOINS)
    steps = left.view(np.int64) - right.view(np.int64)
    assert ((steps >= 0) & (steps <= 2)).all(), steps
    assert float_bits(erfcx(np.array([0.0, -0.0]))) == float_bits([1.0, 1.0])


@pytest.mark.parametrize("branch, bound", [("table", 1), ("tail", 2)])
def test_erfcx_within_ulp_bound_of_mpmath(branch, bound):
    # The correctly rounded value, from mpmath at 40 digits. The table: seeded
    # samples of [0, 8) and both sides of every join. The asymptotic tail:
    # seeded log-uniform samples of [8, 1e6], 8 and the float after it
    # (mpmath's erfc overflows at 1e300; 1e6 keeps the reference cheap).
    mpmath = pytest.importorskip("mpmath")
    if branch == "table":
        x = np.concatenate([np.random.default_rng(30).uniform(0.0, 8.0, 6000),
                            ERFCX_JOINS, ERFCX_BEFORE_JOINS, [0.0, 5e-324, 1e-300]])
    else:
        logs = np.random.default_rng(31).uniform(math.log10(8.0), 6.0, 6000)
        x = np.concatenate([10.0 ** logs, [8.0, math.nextafter(8.0, 9.0)]])
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.exp(v * v) * mpmath.erfc(v))
                        for v in map(mpmath.mpf, x.tolist())])
    assert np.abs(erfcx(x).view(np.int64) - ref.view(np.int64)).max() <= bound


def test_committed_erfcx_table_is_the_generators_output():
    pytest.importorskip("mpmath")
    spec = importlib.util.spec_from_file_location(
        "erfcx_table", Path(__file__).resolve().parents[1] / "tools" / "erfcx_table.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["--check"]) == 0


def eigen_residuals(m, sys):
    """||M v - lambda v||_2 of each eigenpair and the bound 1e-10 * max(1,
    ||M||_2) they must meet, computed here rather than by eigen_small."""
    a = np.asarray(m, dtype=complex)
    vecs = sys.eigenvectors
    residuals = np.linalg.norm(a @ vecs - vecs * sys.eigenvalues, axis=0)
    return residuals, 1e-10 * max(1.0, np.linalg.norm(a, 2))


class TestEigenSmall:
    def test_identity(self):
        sys = eigen_small(np.eye(2))
        assert np.allclose(sys.eigenvalues, [1.0, 1.0])
        residuals, bound = eigen_residuals(np.eye(2), sys)
        assert np.all(residuals <= bound)

    def test_symmetric_2x2(self):
        sys = eigen_small([[3.0, 1.0], [1.0, 1.0]])
        assert np.allclose(sys.eigenvalues,
                           [2.0 - math.sqrt(2.0), 2.0 + math.sqrt(2.0)])

    def test_channel_matrix_spectrum(self):
        # hand-expanded characteristic polynomial of the 4x4 channel pattern
        # with (h0, hr) = (2, 1) factorizes to {h0 -+ hr, +-sqrt(h0^2 - hr^2)}
        m = [[2, 0, 1, 0], [1, 0, 2, 0], [0, 2, 0, 1], [0, 1, 0, 2]]
        sys = eigen_small(np.array(m, dtype=complex))
        expected = sorted([-math.sqrt(3.0), 1.0, math.sqrt(3.0), 3.0])
        assert np.allclose(sys.eigenvalues.real, expected, atol=1e-10)
        assert np.abs(sys.eigenvalues.imag).max() < 1e-10

    def test_sorted_and_normalized(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        sys = eigen_small(m)
        assert np.all(np.diff(sys.eigenvalues.real) >= -1e-12)
        assert np.allclose(np.linalg.norm(sys.eigenvectors, axis=0), 1.0,
                           atol=1e-12)

    def test_reconstruction_property(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            sys = eigen_small(m)
            rebuilt = sys.eigenvectors @ np.diag(sys.eigenvalues) @ np.linalg.inv(
                sys.eigenvectors)
            assert np.linalg.norm(m - rebuilt) <= 1e-9 * np.linalg.norm(m)

    def test_residual_invariant(self):
        rng = np.random.default_rng(13)
        m = rng.normal(size=(4, 4))
        residuals, bound = eigen_residuals(m, eigen_small(m))
        assert np.all(residuals <= bound)

    def test_hermitian_records_the_solver_branch(self):
        rng = np.random.default_rng(17)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        sys = eigen_small(g + g.conj().T)
        assert sys.hermitian
        assert np.all(sys.eigenvalues.imag == 0.0)  # eigh: a real spectrum
        # the 4x4 channel pattern with (h0, hr) = (2, 1) is not Hermitian
        m = [[2, 0, 1, 0], [1, 0, 2, 0], [0, 2, 0, 1], [0, 1, 0, 2]]
        assert not eigen_small(np.array(m, dtype=complex)).hermitian

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            eigen_small(np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_a_stack_with_a_non_finite_entry(self, bad):
        stack = np.stack([np.eye(4, dtype=complex)] * 3)
        stack[2, 1, 3] = bad
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            eigen_small(stack)

    def test_is_hermitian(self):
        assert is_hermitian(np.array([[1.0, 2j], [-2j, 0.5]]))
        assert not is_hermitian(np.array([[1.0, 2j], [2j, 0.5]]))


class TestFdOracle:
    def test_harmonic_ground(self):
        e = fd_schrodinger_oracle(lambda y: 0.5 * y * y,
                                  Grid1D(-10.0, 10.0, 2001), 1.0, 1)
        assert e[0] == pytest.approx(0.5, abs=1e-5)

    def test_harmonic_first_excited(self):
        e = fd_schrodinger_oracle(lambda y: 0.5 * y * y,
                                  Grid1D(-10.0, 10.0, 2001), 1.0, 2)
        assert e[1] == pytest.approx(1.5, abs=1e-4)

    def test_quartic_fixture_value(self):
        # frozen ground truth for the channel_qlm comparison
        e = fd_schrodinger_oracle(lambda y: 0.125 * (y * y - 1.0) ** 2,
                                  Grid1D(-10.0, 10.0, 4001), 1.0, 1)
        assert e[0] == pytest.approx(0.29398020956462745, abs=1e-9)

    @pytest.mark.parametrize("potential", [
        lambda y: 0.5 * y * y,
        lambda y: 0.125 * (y * y - 1.0) ** 2,
    ])
    def test_second_order_convergence(self, potential):
        es = [fd_schrodinger_oracle(potential, Grid1D(-10.0, 10.0, n), 1.0, 1)[0]
              for n in (1001, 2001, 4001)]
        assert abs(es[1] - es[0]) >= 3.0 * abs(es[2] - es[1])

    def test_too_coarse_grid(self):
        with pytest.raises(ValueError, match="too coarse"):
            fd_schrodinger_oracle(lambda y: 0.0 * y, Grid1D(0.0, 1.0, 5), 1.0, 2)


class TestGrid1D:
    def test_points_and_spacing(self):
        g = Grid1D(0.0, 1.0, 5)
        assert g.spacing == 0.25
        assert np.all(np.diff(g.points()) > 0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 0.0, 5)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 2)


class TestCheckDomain:
    @pytest.mark.parametrize("values, name, message", [
        (dict(a=1.0, b=-0.0, c=-1.0, d=-2.0), "b", "b must be positive, got -0.0"),
        (dict(a=1.0, b=1.0, c=-1.0, d=-2.0), "c", "c must be non-negative, got -1.0"),
        (dict(a=math.nan, b=1.0, c=0.0, d=-2.5), "d", "d must be non-negative, got -2.5"),
    ])
    def test_first_failing_field_in_order(self, values, name, message):
        """Positive fields first, each group in the order given; NaN passes,
        as every comparison with it is false."""
        with pytest.raises(DomainError) as exc:
            check_domain(SimpleNamespace(**values), positive=("a", "b"),
                         non_negative=("c", "d"))
        assert (exc.value.name, str(exc.value)) == (name, message)

    def test_in_domain_passes(self):
        check_domain(SimpleNamespace(a=1e-300, c=0.0),
                     positive=("a",), non_negative=("c",))


class TestCheckFinite:
    @pytest.mark.parametrize("columns, name", [
        # the first failing row decides, not the first failing column
        (([1.0, math.inf], [math.nan, 1.0]), "b"),
        # within that row, the first of its failing columns
        (([1.0, math.inf], [1.0, -math.inf], [2.0, 3.0]), "a"),
        ((np.array([1.0, 2.0]), np.array([1j, complex(math.inf, 0)]), [0, 1]), "b"),
    ])
    def test_names_the_first_failing_row(self, columns, name):
        with pytest.raises(ValueError, match=f"^non-finite {name}$"):
            check_finite("abc", columns)
