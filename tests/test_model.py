import numpy as np
import pytest
from hypothesis import given, strategies as st

from neuralfield.model import ChebyshevGrid, FiringRate, Interval, UniformGrid

FR = FiringRate(gain=5.0, threshold=0.3)


def derivative(fr, u):
    """Slope r'(u) = -gain * e^s / (1 + e^s)^2 with s = gain*(u - threshold),
    the oracle for ``sup_derivative``."""
    s = fr.gain * (np.asarray(u, dtype=float) - fr.threshold)
    z = np.exp(-np.abs(s))
    out = -fr.gain * z / (1.0 + z) ** 2
    return out if out.ndim else out[()]


def bisect_inverse(fr, target, lo=-100.0, hi=100.0):
    """Independent oracle: solve fr(u) = target by bisection (fr decreasing)."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fr(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _dense_sample():
    """A ramp over [-1e6, 1e6], decades from 1e-300 to 1e6 of both signs, the
    threshold's neighbourhood, and every point's two float neighbours."""
    ramp = np.linspace(-1e6, 1e6, 400_001)
    decades = np.logspace(-300, 6, 3_000)
    near = FR.threshold + np.linspace(-1e-12, 1e-12, 2_001)
    u = np.concatenate([ramp, decades, -decades, near, [0.0, -0.0, FR.threshold]])
    return np.concatenate([u, np.nextafter(u, np.inf), np.nextafter(u, -np.inf)])


class TestInterval:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)
        with pytest.raises(ValueError):
            Interval(2.0, -1.0)

    def test_length(self):
        assert Interval(-1.0, 1.0).length == 2.0


class TestGrids:
    def test_uniform_nodes(self):
        grid = UniformGrid(Interval(-1.0, 1.0), 8)
        assert grid.h == 0.25
        assert len(grid.nodes) == 9
        assert grid.nodes[0] == -1.0
        assert abs(grid.nodes[-1] - 1.0) < 1e-15
        assert np.all(np.diff(grid.nodes) > 0)

    def test_periodic_uniform_drops_endpoint(self):
        grid = UniformGrid(Interval(0.0, 2.0 * np.pi, periodic=True), 7)
        assert len(grid.nodes) == 7
        assert grid.nodes[-1] < 2.0 * np.pi

    def test_chebyshev_nodes(self):
        grid = ChebyshevGrid(8)
        assert grid.nodes[0] == 1.0
        assert grid.nodes[-1] == -1.0
        assert np.all(np.diff(grid.nodes) < 0)
        assert np.allclose(grid.nodes, np.cos(np.pi * np.arange(9) / 8))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            UniformGrid(Interval(-1.0, 1.0), 0)
        with pytest.raises(ValueError):
            ChebyshevGrid(0)


class TestFiringRate:
    def test_half_at_threshold(self):
        # zero exponent forces 1/2 (Table-1 parameters)
        assert FR(0.3) == 0.5

    def test_limits_without_overflow(self):
        with np.errstate(over="raise"):
            assert FR(1e6) == 0.0
            assert FR(-1e6) == 1.0
            assert FR(200.0) == pytest.approx(0.0, abs=1e-300)
            assert FR(-200.0) == pytest.approx(1.0, abs=1e-15)

    def test_value_at_one(self):
        # frozen from a high-precision scalar evaluation of 1/(1 + e^3.5)
        assert FR(1.0) == pytest.approx(0.02931223075135632, rel=1e-14)

    @given(st.floats(min_value=-6.0, max_value=6.0))
    def test_range_is_open_unit_interval(self, u):
        # far outside this window the float image saturates to exactly 0 or 1
        assert 0.0 < FR(u) < 1.0

    def test_range_saturates_cleanly(self):
        u = np.linspace(-500.0, 500.0, 2001)
        out = FR(u)
        assert np.all((0.0 <= out) & (out <= 1.0))

    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_strictly_decreasing(self, u1, u2):
        if abs(u2 - u1) >= 1e-6:  # below that the float values can collide
            assert np.sign(FR(u2) - FR(u1)) == -np.sign(u2 - u1)

    def test_one_division_matches_the_two_branch_formula_bitwise(self):
        def two_branch(u):
            s = FR.gain * (u - FR.threshold)
            z = np.exp(-np.abs(s))
            return np.where(s >= 0, z / (1.0 + z), 1.0 / (1.0 + z))

        u = _dense_sample()
        # e^(-|s|) underflows to 0 beyond |s| = 745 in both forms: that is the
        # saturation, so only overflow, invalid and division are errors
        with np.errstate(all="raise", under="ignore"):
            out = FR(u)
        assert np.array_equal(out.view(np.int64), two_branch(u).view(np.int64))

    def test_tanh_form_matches_the_logistic_within_one_epsilon(self):
        kappa, mu = FR.tanh_form
        assert (kappa, mu) == (2.5, 0.75)
        u = _dense_sample()
        with np.errstate(all="raise", under="ignore"):
            folded = 0.5 - 0.5 * np.tanh(kappa * u - mu)
            exact = FR(u)
        assert np.max(np.abs(folded - exact)) <= np.finfo(float).eps

    def test_derivative_extremum_at_threshold(self):
        assert derivative(FR, 0.3) == pytest.approx(-1.25, rel=1e-15)
        assert FR.sup_derivative == 1.25

    def test_derivative_bound_on_dense_sample(self):
        u = np.linspace(-10.0, 10.0, 1_000_000)
        assert np.max(np.abs(derivative(FR, u))) <= 1.25 + 1e-12
        # and the bound is attained at the threshold
        assert np.max(np.abs(derivative(FR, np.array([0.3])))) == pytest.approx(1.25)

    def test_derivative_matches_central_difference(self):
        eps = 1e-5
        fd = (FR(1.0 + eps) - FR(1.0 - eps)) / (2.0 * eps)
        assert derivative(FR, 1.0) == pytest.approx(fd, abs=1e-7)

    def test_in_place_inverse_matches_the_one_expression_form_bitwise(self):
        # a (checkpoints x points) grid of activities, as the closed form sees
        t, x = np.linspace(0.0, 1.0, 51)[:, None], np.linspace(-1.0, 1.0, 2048)
        r = 0.8 * np.exp(-0.5 * t - x**2)
        oracle = FR.threshold + np.log((1.0 - r) / r) / FR.gain
        assert np.array_equal(FR.inverse(r).view(np.int64), oracle.view(np.int64))
        assert isinstance(FR.inverse(0.8), float)

    def test_inverse_at_half_is_threshold(self):
        assert FR.inverse(0.5) == pytest.approx(0.3, abs=1e-16)

    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    def test_inverse_round_trip(self, r):
        assert FR(FR.inverse(r)) == pytest.approx(r, rel=1e-14)

    def test_inverse_of_forward_is_identity(self):
        u = np.linspace(0.3 - 2.0, 0.3 + 2.0, 4001)
        assert np.max(np.abs(FR.inverse(FR(u)) - u)) <= 1e-12

    def test_inverse_against_bisection_oracle(self):
        # the decreasing sigmoid's true inverse: 0.3 + log(0.25)/5
        oracle = bisect_inverse(FR, 0.8)
        value = FR.inverse(0.8)
        assert value == pytest.approx(oracle, abs=1e-13)
        assert value == pytest.approx(0.02274112777602183, rel=1e-14)

    @pytest.mark.parametrize(
        "bad",
        [0.0, 1.0, -0.2, 1.3, np.nan, [0.5, np.nan], [0.5, np.inf], [-np.inf, 0.5], 5e-324,
         [0.5, 1e-310]],
    )
    def test_inverse_domain_errors(self, bad):
        # NaN compares False both ways, so it used to pass as inside (0, 1);
        # a subnormal activity used to overflow in (1 - r) / r
        with pytest.raises(ValueError, match="strictly inside"):
            FR.inverse(bad)

    def test_the_least_normal_activity_has_a_finite_inverse(self):
        assert np.isfinite(FR.inverse(np.finfo(float).tiny))

    def test_inverse_of_no_activities_is_empty(self):
        assert FR.inverse(np.empty((3, 0))).shape == (3, 0)

    def test_gain_must_be_positive(self):
        with pytest.raises(ValueError):
            FiringRate(gain=0.0, threshold=0.0)


class TestKernel:
    def test_p1_kernel_values(self, p1):
        assert p1.kernel(0.0, 0.0) == pytest.approx(1.0, rel=1e-15)
        # exp(-1) * exp(0) * cos(0), frozen scalar oracle
        assert p1.kernel(1.0, 0.0) == pytest.approx(0.36787944117144233, rel=1e-14)

    def test_p7p_kernel_at_origin(self, p7p):
        # exp(-1 + 1) * cos(0)^2 = 1 by cancellation
        assert p7p.kernel(0.0, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_in_place_kernel_matches_the_one_expression_form_bitwise(self, p1):
        x, y = np.linspace(-1.0, 1.0, 51)[:, None], np.linspace(-1.0, 1.0, 2048)
        oracle = np.exp(-(x**2) + y**2) * (np.exp(y) * np.cos(y))
        assert np.array_equal(p1.kernel(x, y).view(np.int64), oracle.view(np.int64))
        assert isinstance(p1.kernel(0.5, -0.25), float)
