import math

import numpy as np
import pytest

from neuralfield import checks, problems
from neuralfield.checks import _cc_panels, _reference_rule
from neuralfield.problems import BOX, PROBLEM_IDS, RING, make_problem
from neuralfield.quadrature import QuadratureRule, clenshaw_curtis, trapezium_rule

EPS = np.finfo(float).eps


class TestPanels:
    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_weights_sum_to_the_interval_length(self, pid):
        problem = make_problem(pid)
        rule = _reference_rule(problem)
        assert rule.interval == problem.interval
        assert rule.weights.sum() == pytest.approx(problem.interval.length, rel=4.0 * EPS)

    def test_no_kink_on_the_box_is_clenshaw_curtis_bitwise(self):
        plain, rule = clenshaw_curtis(256), _reference_rule(make_problem("P1"))
        for ours, theirs in ((rule.nodes, plain.nodes), (rule.weights, plain.weights)):
            assert np.array_equal(ours.view(np.int64), theirs.view(np.int64))

    def test_a_smooth_ring_problem_gets_the_periodic_trapezium_rule(self):
        plain, rule = trapezium_rule(RING, 256), _reference_rule(make_problem("P8p"))
        assert np.array_equal(rule.nodes, plain.nodes) and np.array_equal(rule.weights, plain.weights)

    def test_a_split_at_zero_integrates_the_cubic_kink(self):
        # an unsplit Clenshaw-Curtis rule on the same 513 nodes misses by 2.4e-11
        rule = _cc_panels(BOX, (0.0,))
        assert rule.nodes.size == 513
        assert abs(rule.integrate(lambda y: np.abs(y) ** 3) - 0.5) <= 4.0 * EPS * 0.5
        assert abs(clenshaw_curtis(512).integrate(lambda y: np.abs(y) ** 3) - 0.5) > 1e-11

    def test_a_split_at_the_zeros_of_cos_integrates_its_cubic_kinks_on_the_ring(self):
        # a periodic trapezium rule on the same 769 nodes misses by 8.1e-12
        rule = _cc_panels(RING, (0.5 * np.pi, 1.5 * np.pi))
        assert rule.nodes.size == 769
        assert rule.nodes.min() == 0.0 and rule.nodes.max() == 2.0 * np.pi
        modulation = lambda y: np.abs(np.cos(y)) ** 3  # noqa: E731
        assert abs(rule.integrate(modulation) - 8.0 / 3.0) <= 4.0 * EPS * 8.0 / 3.0
        assert abs(trapezium_rule(RING, 769).integrate(modulation) - 8.0 / 3.0) > 1e-12


def test_the_residual_check_fails_a_modulation_integral_off_by_one_part_in_1e10(monkeypatch):
    # each perturbed problem's worst residual, 7.6e-12 (P2) to 2.5e-10 (P7p),
    # lies inside a 1e-8 bound, so only a bound near roundoff catches it
    def perturbed(pid):
        modulation, periodic, integral = problems._MODULATIONS[pid]
        return problems._manufactured(pid, modulation, periodic, integral * (1.0 + 1e-10))

    monkeypatch.setattr(checks, "make_problem", perturbed)
    results = checks.residual_suite()
    assert [r.name for r in results] == [f"residual sweep {pid}" for pid in PROBLEM_IDS]
    assert not any(r.passed for r in results)
    worst = [float(r.detail.rsplit("= ", 1)[1]) for r in results]
    assert all(1e-12 < w <= 1e-8 for w in worst)


def test_the_residual_suite_reports_roundoff():
    results = checks.residual_suite()
    assert all(r.passed for r in results)
    assert all(float(r.detail.rsplit("= ", 1)[1]) <= 1e-15 for r in results)


def test_importing_checks_builds_no_rule_or_array():
    # the benchmark's setup_s imports checks: its rules are built per call
    built = [name for name, value in vars(checks).items() if isinstance(value, (np.ndarray, QuadratureRule))]
    assert built == []


# the P2 fe-collocation n = 16 cell's numbers, to three digits
P2_CELL = {"projector": 0.0037, "beta_n": 0.473, "floor": 1e-6}


class TestSandwichVerdict:
    def test_an_error_above_the_upper_bound_names_it_with_its_numbers(self):
        assert checks.sandwich_verdict(0.0187, **P2_CELL) == (
            False,
            "err/proj = 5.05 > exp(beta_n)*(1 + 0.1) = 1.77 "
            "(err = 0.0187, proj = 0.0037, beta_n = 0.473)",
        )

    def test_an_error_below_the_lower_bound_names_it_with_its_numbers(self):
        assert checks.sandwich_verdict(0.00185, **P2_CELL) == (
            False,
            "err/proj = 0.5 < (1 - 0.1)/(1 + beta_n) = 0.611 "
            "(err = 0.00185, proj = 0.0037, beta_n = 0.473)",
        )

    def test_a_passing_ratio_is_shown_in_the_unwidened_bounds(self):
        assert checks.sandwich_verdict(0.0037, **P2_CELL) == (True, "ratio=1 in [0.679, 1.6]")

    def test_the_slack_widens_each_bound_by_ten_percent(self):
        upper, lower = math.exp(0.473), 1.0 / 1.473
        cell = {**P2_CELL, "projector": 1.0}
        assert checks.sandwich_verdict(1.05 * upper, **cell)[0]
        assert not checks.sandwich_verdict(1.15 * upper, **cell)[0]
        assert checks.sandwich_verdict(0.95 * lower, **cell)[0]
        assert not checks.sandwich_verdict(0.85 * lower, **cell)[0]

    def test_a_nan_projector_error_fails(self):
        passed, detail = checks.sandwich_verdict(0.0187, math.nan, 0.473, 1e-6)
        assert not passed
        assert detail.startswith("err/proj = nan ")

    # a projector error above the floor and one below it, which would be inconclusive
    @pytest.mark.parametrize("projector", [0.0037, 1e-9])
    @pytest.mark.parametrize("error,shown", [(math.nan, "nan"), (math.inf, "inf")])
    def test_a_non_finite_scheme_error_fails_before_the_floor_is_read(self, error, shown, projector):
        assert checks.sandwich_verdict(error, projector, 0.5, 1e-6) == (
            False,
            f"scheme error={shown} is not finite (projector error={projector:.3g})",
        )

    def test_a_projector_error_below_the_floor_is_inconclusive_and_passes(self):
        # the ratio 47.6 would break the widened upper bound 1.81 of a conclusive cell
        assert checks.sandwich_verdict(4.76e-7, 1e-8, 0.5, 6e-6) == (
            True,
            "scheme error=4.76e-07, projector error=1e-08 "
            "(inconclusive: projector error at the temporal floor)",
        )

    def test_a_projector_error_at_the_floor_is_conclusive(self):
        assert not checks.sandwich_verdict(1.0, 6e-6, 0.473, 6e-6)[0]
        assert checks.sandwich_verdict(1.0, np.nextafter(6e-6, 0.0), 0.473, 6e-6)[0]


def test_the_p2_fe_collocation_n16_cell_breaks_the_upper_bound():
    # one of the sandwich suite's four known failures, measured end to end
    assert checks.sandwich_check("P2", "fe-collocation", 16) == checks.CheckResult(
        "sandwich P2 fe-collocation n=16",
        False,
        "err/proj = 5.04 > exp(beta_n)*(1 + 0.1) = 1.77 (err = 0.0187, proj = 0.0037, beta_n = 0.473)",
    )
