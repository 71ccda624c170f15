import math

import numpy as np
import pytest

from neuralfield import problems
from neuralfield.harness import StudyConfig, _cell, default_checkpoints, eval_grid
from neuralfield.model import FiringRate
from neuralfield.problems import (
    AMPLITUDE,
    DECAY,
    GAIN,
    PROBLEM_IDS,
    THRESHOLD,
    canonical_id,
    continuum_residual,
    make_problem,
    modulation_integral,
)
from neuralfield.quadrature import QuadratureRule, clenshaw_curtis, trapezium_rule


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
        assert (AMPLITUDE, DECAY) == (0.8, 0.5)
        assert p1.firing == FiringRate(gain=5.0, threshold=0.3)

    def test_domains(self, p1, p7p):
        assert (p1.interval.a, p1.interval.b, p1.interval.periodic) == (-1.0, 1.0, False)
        assert p7p.interval.periodic
        assert p7p.interval.length == pytest.approx(2.0 * np.pi)

    def test_exact_at_origin(self, p1):
        # the inverse firing rate of 0.8; frozen from the bisection oracle
        assert p1.exact(0.0, 0.0) == pytest.approx(0.02274112777602183, rel=1e-14)

    @pytest.mark.parametrize("pid", ["P1", "P7p"])
    def test_in_place_exact_matches_the_one_expression_form_bitwise(
        self, pid, closed_form_envelope
    ):
        # the closed form on the (checkpoints x points) grid of the sweeps
        problem = make_problem(pid)
        x, t = eval_grid(problem.interval, 2048), default_checkpoints(0.0, 1.0, 51)[:, None]
        env = closed_form_envelope(problem, x, t)
        oracle = THRESHOLD + np.log((1.0 - env) / env) / GAIN
        assert np.array_equal(problem.exact(x, t).view(np.int64), oracle.view(np.int64))
        assert isinstance(problem.exact(0.5, 0.25), float)

    def test_initial_is_exact_at_time_zero(self, p1, p7p):
        # a study cell starts from the encoded closed form at its t0 = 0
        for problem, scheme in ((p1, "fe-collocation"), (p7p, "spectral-galerkin")):
            cfg = StudyConfig(problems=(problem,), scheme=scheme, n_values=(16,))
            cps = default_checkpoints(cfg.t0, cfg.duration, cfg.checkpoint_count)
            system, traj, _, _ = _cell(problem, cfg, 16, cps)
            assert np.array_equal(traj.states[0], system.encode(lambda x: problem.exact(x, 0.0)))


class TestModulationIntegral:
    def test_p2_monomial(self):
        assert modulation_integral("P2") == 2.0 / 21.0

    def test_p7p_half_angle(self):
        assert modulation_integral("P7p") == np.pi

    def test_p4_against_erf_series(self):
        # sqrt(pi) * erf(1) through the Maclaurin series oracle
        total = sum((-1) ** m / (math.factorial(m) * (2 * m + 1)) for m in range(30))
        assert modulation_integral("P4") == 2.0 * total

    def test_p9p_piecewise_analytic(self):
        # 4 * integral of cos^3 over a quarter period = 4 * 2/3
        assert modulation_integral("P9p") == 8.0 / 3.0

    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_closed_form_agrees_with_a_fine_rule(self, pid):
        # fine rules as the oracle: Clenshaw-Curtis 4096 on the box and
        # trapezium 8192 on the ring. The |y|^3 and |cos y|^3 kinks limit
        # them on P6 (1.1e-14) and P9p (4.2e-15); elsewhere they agree to 3e-16
        problem = make_problem(pid)
        if problem.interval.periodic:
            rule = trapezium_rule(problem.interval, 8192)
        else:
            rule = clenshaw_curtis(4096)
        modulation = problems._MODULATIONS[pid][0]
        closed = modulation_integral(pid)
        assert abs(rule.integrate(modulation) - closed) <= 2e-14 * abs(closed)

    def test_make_problem_runs_no_quadrature(self, monkeypatch):
        def refuse(rule, fn):
            raise AssertionError("make_problem integrated with a quadrature rule")

        monkeypatch.setattr(QuadratureRule, "integrate", refuse)
        for pid in PROBLEM_IDS:
            make_problem(pid).forcing_at(np.zeros(3))([0.5])


class TestExactTimeDerivative:
    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_matches_central_difference(self, pid):
        # mandatory validation of the hand derivation
        problem = make_problem(pid)
        x, t = (1.0, 0.25) if problem.interval.periodic else (0.3, 0.5)
        eps = 1e-6
        fd = (problem.exact(x, t + eps) - problem.exact(x, t - eps)) / (2.0 * eps)
        assert problem.time_derivative(x, t) == pytest.approx(fd, abs=1e-7)

    def test_long_time_limit(self, p1):
        # envelope -> 0, derivative -> decay/gain
        assert p1.time_derivative(0.0, 1e6) == pytest.approx(0.5 / 5.0, rel=1e-12)


class TestContinuumResidual:
    def test_p1_at_origin(self, p1):
        assert abs(continuum_residual(p1, 0.0, 0.0, clenshaw_curtis(2048))) <= 1e-9

    def test_p7p_spot(self, p7p):
        ref = trapezium_rule(p7p.interval, 4096)
        assert abs(continuum_residual(p7p, 1.0, 0.25, ref)) <= 1e-10

    @pytest.mark.parametrize("periodic", [False, True])
    def test_pure_decay_residual_is_exactly_zero(self, periodic, pure_decay_problem):
        problem = pure_decay_problem(periodic=periodic)
        ref = trapezium_rule(problem.interval, 64) if periodic else clenshaw_curtis(64)
        for x, t in [(0.0, 0.0), (0.5, 0.3), (0.9, 1.0)]:
            assert continuum_residual(problem, x, t, ref) == 0.0

    def test_zero_kernel_residual_is_the_forcings_rounding(self, zero_kernel_problem):
        # no quadrature error at all: the residual does not depend on the rule,
        # and what is left is the node-bound forcing's reassociation against
        # du/dt + u, 1.4 eps relative at most on a 41 x 11 grid
        problem = zero_kernel_problem()
        for x, t in [(0.0, 0.0), (0.5, 0.3), (-0.9, 1.0)]:
            residual = continuum_residual(problem, x, t, clenshaw_curtis(64))
            assert residual == continuum_residual(problem, x, t, clenshaw_curtis(8))
            assert abs(residual) <= 4.0 * np.finfo(float).eps * abs(problem.forcing_at(x)([t]).item())

    def test_p1_smoke_sweep(self, p1):
        ref = clenshaw_curtis(2048)
        xs = np.linspace(-1.0, 1.0, 7)
        ts = np.linspace(0.0, 1.0, 4)
        worst = max(abs(continuum_residual(p1, x, t, ref)) for x in xs for t in ts)
        assert worst <= 1e-8


class TestRangeSafety:
    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_envelope_stays_inside_unit_interval(self, pid, closed_form_envelope):
        problem = make_problem(pid)
        xs = np.linspace(problem.interval.a, problem.interval.b, 201)
        for t in np.linspace(0.0, 4.0, 17):
            env = closed_form_envelope(problem, xs, t)
            assert np.array_equal(problem.exact(xs, t), problem.firing.inverse(env))
            assert np.all(env <= 0.8)
            assert np.all(env > 0.8 * np.exp(-DECAY * 4.0 - 1.0) * (1.0 - 1e-12))


class TestForcing:
    def test_rejects_an_envelope_peak_outside_the_unit_interval(self, p1):
        # 0.8 * exp(0.5 * 2) > 1: the inverse firing rate is undefined, so
        # the closed form u the forcing is built from has no value there
        with pytest.raises(ValueError, match="strictly inside"):
            p1.exact(np.zeros(3), -2.0)

    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_the_closed_form_rejects_a_nan_time(self, pid):
        # its envelope is NaN, which used to pass the inverse's domain check
        with pytest.raises(ValueError, match="strictly inside"):
            make_problem(pid).exact(0.0, float("nan"))

    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_node_bound_forcing_matches_the_closed_form(self, pid, closed_form_forcing):
        # the bound form reassociates the pointwise closed form around its
        # precomputed spatial factors, so it agrees to a few roundings, not bitwise
        problem = make_problem(pid)
        xs = eval_grid(problem.interval, 2048)
        bound = problem.forcing_at(xs)
        for t in default_checkpoints(0.0, 1.0, 51):
            closed = closed_form_forcing(problem, xs, t)
            tolerance = 16.0 * np.finfo(float).eps * np.max(np.abs(closed))
            assert np.max(np.abs(bound([t])[0] - closed)) <= tolerance

    def test_node_bound_forcing_keeps_the_envelope_checks(self, p1):
        bound = p1.forcing_at(np.zeros(3))
        for t in (-2.0, 1600.0, float("nan")):
            with pytest.raises(ValueError, match="strictly inside"):
                bound([t])

    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_a_batch_of_times_gives_each_times_values_bitwise(self, pid, time_batches):
        # each row is bitwise the row of its singleton batch, at every batch
        # size a stepper makes; 257 nodes leave a ragged tail
        problem = make_problem(pid)
        xs = eval_grid(problem.interval, 257)
        bound = problem.forcing_at(xs)
        for ts in time_batches:
            rows = bound(ts)
            assert rows.shape == (len(ts), len(xs))
            for t, row in zip(ts, rows):
                assert np.array_equal(row, bound([t])[0])

    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_a_scalar_time_is_refused(self, pid):
        bound = make_problem(pid).forcing_at(np.zeros(3))
        for t in (0.3, np.float64(0.3), np.array(0.3)):
            with pytest.raises(TypeError):
                bound(t)

    def test_one_time_outside_the_domain_fails_the_batch(self, p1):
        bound = p1.forcing_at(np.zeros(3))
        for bad in (-2.0, 1600.0, float("nan")):
            for where in range(3):
                ts = [0.1, 0.2, 0.3]
                ts[where] = bad
                with pytest.raises(ValueError, match="strictly inside"):
                    bound(ts)


class TestHelpers:
    def test_pure_decay_exact_solution(self, pure_decay_problem):
        problem = pure_decay_problem()
        xs = np.linspace(-1.0, 1.0, 5)
        assert np.allclose(problem.exact(xs, 1.0), 0.4 * np.exp(-1.0))
        assert np.all(problem.kernel(xs[:, None], xs[None, :]) == 0.0)
        assert np.all(problem.forcing_at(xs)([0.3]) == 0.0)
        assert np.array_equal(problem.time_derivative(xs, 0.3), -problem.exact(xs, 0.3))

    def test_zero_kernel_keeps_manufactured_solution(self, p1, zero_kernel_problem):
        problem = zero_kernel_problem()
        xs = np.linspace(-1.0, 1.0, 5)
        assert np.allclose(problem.exact(xs, 0.5), p1.exact(xs, 0.5))
        assert np.all(problem.kernel(xs[:, None], xs[None, :]) == 0.0)
