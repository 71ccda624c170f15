import numpy as np
import pytest

from neuralfield.harness import default_checkpoints, eval_grid
from neuralfield.model import FiringRate
from neuralfield.problems import (
    PROBLEM_IDS,
    canonical_id,
    continuum_residual,
    exact_time_derivative,
    make_problem,
    modulation_integral,
    zero_kernel_problem,
)
from neuralfield.quadrature import clenshaw_curtis, trapezium_rule


class TestIds:
    def test_ten_problems(self):
        assert len(PROBLEM_IDS) == 10
        assert PROBLEM_IDS[:6] == ("P1", "P2", "P3", "P4", "P5", "P6")

    @pytest.mark.parametrize("token", ["p1", "P1", " p7P "])
    def test_case_insensitive(self, token):
        assert canonical_id(token) in PROBLEM_IDS

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown problem id"):
            make_problem("P11")


class TestParameters:
    def test_shared_table_row(self, p1):
        assert p1.amplitude == 0.8
        assert p1.decay == 0.5
        assert p1.firing == FiringRate(gain=5.0, threshold=0.3)

    def test_domains(self, p1, p7p):
        assert (p1.interval.a, p1.interval.b, p1.interval.periodic) == (-1.0, 1.0, False)
        assert p7p.interval.periodic
        assert p7p.interval.length == pytest.approx(2.0 * np.pi)

    def test_exact_at_origin(self, p1):
        # the inverse firing rate of 0.8; frozen from the bisection oracle
        assert p1.exact(0.0, 0.0) == pytest.approx(0.02274112777602183, rel=1e-14)

    def test_initial_is_exact_at_time_zero(self, p1, p7p):
        for problem in (p1, p7p):
            xs = np.linspace(problem.interval.a, problem.interval.b, 101)
            assert np.array_equal(problem.initial(xs), problem.exact(xs, 0.0))


class TestModulationIntegral:
    def test_p2_monomial(self):
        assert modulation_integral("P2") == pytest.approx(2.0 / 21.0, rel=1e-12)

    def test_p7p_half_angle(self):
        assert modulation_integral("P7p") == pytest.approx(np.pi, rel=1e-12)

    def test_p4_against_erf_series(self):
        # sqrt(pi) * erf(1) through the Maclaurin series oracle
        import math

        total = sum(
            (-1) ** m / (math.factorial(m) * (2 * m + 1)) for m in range(30)
        )
        assert modulation_integral("P4") == pytest.approx(2.0 * total, rel=1e-12)

    def test_p9p_piecewise_analytic(self):
        # 4 * integral of cos^3 over a quarter period = 4 * 2/3
        assert modulation_integral("P9p") == pytest.approx(8.0 / 3.0, rel=1e-12)

    def test_problem_carries_the_value(self, p1):
        assert p1.modulation_integral == pytest.approx(modulation_integral("P1"), rel=1e-15)


class TestExactTimeDerivative:
    def test_matches_central_difference(self, p1):
        # mandatory validation of the hand derivation
        eps = 1e-6
        fd = (p1.exact(0.3, 0.5 + eps) - p1.exact(0.3, 0.5 - eps)) / (2.0 * eps)
        assert exact_time_derivative(p1, 0.3, 0.5) == pytest.approx(fd, abs=1e-7)

    def test_matches_central_difference_periodic(self, p7p):
        eps = 1e-6
        fd = (p7p.exact(1.0, 0.25 + eps) - p7p.exact(1.0, 0.25 - eps)) / (2.0 * eps)
        assert exact_time_derivative(p7p, 1.0, 0.25) == pytest.approx(fd, abs=1e-7)

    def test_long_time_limit(self, p1):
        # envelope -> 0, derivative -> decay/gain
        assert exact_time_derivative(p1, 0.0, 1e6) == pytest.approx(0.5 / 5.0, rel=1e-12)

    def test_rejects_non_manufactured(self, pure_decay_problem):
        with pytest.raises(ValueError):
            exact_time_derivative(pure_decay_problem(), 0.0, 0.0)


class TestContinuumResidual:
    def test_p1_at_origin(self, p1):
        assert abs(continuum_residual(p1, 0.0, 0.0, clenshaw_curtis(2048))) <= 1e-9

    def test_p7p_spot(self, p7p):
        ref = trapezium_rule(p7p.interval, 4096)
        assert abs(continuum_residual(p7p, 1.0, 0.25, ref)) <= 1e-10

    def test_zero_kernel_residual_is_exactly_zero(self):
        problem = zero_kernel_problem()
        ref = clenshaw_curtis(64)
        for x, t in [(0.0, 0.0), (0.5, 0.3), (-0.9, 1.0)]:
            assert continuum_residual(problem, x, t, ref) == 0.0

    def test_p1_smoke_sweep(self, p1):
        ref = clenshaw_curtis(2048)
        xs = np.linspace(-1.0, 1.0, 7)
        ts = np.linspace(0.0, 1.0, 4)
        worst = max(abs(continuum_residual(p1, x, t, ref)) for x in xs for t in ts)
        assert worst <= 1e-8


class TestRangeSafety:
    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_envelope_stays_inside_unit_interval(self, pid):
        problem = make_problem(pid)
        xs = np.linspace(problem.interval.a, problem.interval.b, 201)
        for t in np.linspace(0.0, 4.0, 17):
            env = problem.amplitude * np.exp(-problem.decay * t - problem.envelope_exponent(xs))
            assert np.all(env <= 0.8)
            assert np.all(env > 0.8 * np.exp(-problem.decay * 4.0 - 1.0) * (1.0 - 1e-12))


class TestForcing:
    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_matches_the_checked_inverse_bitwise(self, pid):
        problem = make_problem(pid)
        firing = problem.firing
        xs = eval_grid(problem.interval, 2048)
        for t in default_checkpoints(0.0, 1.0, 51):
            env = problem.amplitude * np.exp(-problem.decay * t - problem.envelope_exponent(xs))
            checked = (
                problem.decay / (firing.gain * (1.0 - env))
                + firing.inverse(env)
                - problem.modulation_integral * env
            )
            assert np.array_equal(problem.forcing(xs, t), checked)

    def test_rejects_an_envelope_peak_outside_the_unit_interval(self, p1):
        # 0.8 * exp(0.5 * 2) > 1: the inverse firing rate is undefined
        with pytest.raises(ValueError, match="strictly inside"):
            p1.forcing(np.zeros(3), -2.0)

    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_node_bound_forcing_matches_the_closed_form(self, pid):
        # the bound form reassociates the closed form around its precomputed
        # spatial factors, so it agrees to a few roundings, not bitwise
        problem = make_problem(pid)
        xs = eval_grid(problem.interval, 2048)
        bound = problem.forcing_at(xs)
        for t in default_checkpoints(0.0, 1.0, 51):
            closed = problem.forcing(xs, t)
            tolerance = 16.0 * np.finfo(float).eps * np.max(np.abs(closed))
            assert np.max(np.abs(bound(t) - closed)) <= tolerance

    def test_node_bound_forcing_keeps_the_envelope_checks(self, p1):
        bound = p1.forcing_at(np.zeros(3))
        for t in (-2.0, 1600.0, float("nan")):
            with pytest.raises(ValueError, match="strictly inside"):
                bound(t)


class TestHelpers:
    def test_pure_decay_exact_solution(self, pure_decay_problem):
        problem = pure_decay_problem()
        xs = np.linspace(-1.0, 1.0, 5)
        assert np.allclose(problem.exact(xs, 1.0), 0.4 * np.exp(-1.0))
        assert np.all(problem.kernel(xs[:, None], xs[None, :]) == 0.0)
        assert np.all(problem.forcing(xs, 0.3) == 0.0)

    def test_zero_kernel_keeps_manufactured_solution(self, p1):
        problem = zero_kernel_problem()
        xs = np.linspace(-1.0, 1.0, 5)
        assert np.allclose(problem.exact(xs, 0.5), p1.exact(xs, 0.5))
        assert problem.modulation_integral == 0.0

    def test_cross_check_guard_fires_on_rough_integrand(self):
        # a modulation the reference rule cannot resolve must be rejected,
        # not silently mis-integrated
        from neuralfield.problems import _MODULATIONS

        assert all(callable(fn) for fn, _ in _MODULATIONS.values())
