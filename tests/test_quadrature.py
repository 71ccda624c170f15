import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neuralfield.checks import clenshaw_curtis_direct
from neuralfield.model import Interval
from neuralfield.quadrature import clenshaw_curtis, gauss_legendre_2, trapezium_rule

BOX = Interval(-1.0, 1.0)
RING = Interval(0.0, 2.0 * np.pi, periodic=True)


def erf_series(x, terms=30):
    """Error-function oracle via its Maclaurin series (fast for |x| <= 1)."""
    total = 0.0
    for m in range(terms):
        total += (-1) ** m * x ** (2 * m + 1) / (math.factorial(m) * (2 * m + 1))
    return 2.0 / np.sqrt(np.pi) * total


def richardson_trapezium(fn, interval, n):
    """Richardson-extrapolated trapezium oracle: (4 T(h/2) - T(h)) / 3."""
    coarse = trapezium_rule(interval, n).integrate(fn)
    fine = trapezium_rule(interval, 2 * n).integrate(fn)
    return (4.0 * fine - coarse) / 3.0


class TestTrapezium:
    def test_n2_nodes_and_weights(self):
        rule = trapezium_rule(BOX, 2)
        assert np.array_equal(rule.nodes, [-1.0, 0.0, 1.0])
        assert np.array_equal(rule.weights, [0.5, 1.0, 0.5])

    def test_constant_exactness(self):
        assert trapezium_rule(BOX, 2).integrate(lambda y: np.ones_like(y)) == 2.0

    def test_odd_symmetry(self):
        assert trapezium_rule(BOX, 2).integrate(lambda y: y) == 0.0

    def test_periodic_variant(self):
        rule = trapezium_rule(RING, 8)
        assert len(rule.nodes) == 8
        assert np.allclose(rule.weights, 2.0 * np.pi / 8)
        assert rule.weights.sum() == pytest.approx(2.0 * np.pi, rel=1e-15)

    def test_p1_modulation_matches_richardson_oracle(self):
        # the Euler-Maclaurin constant puts the n=4096 error at 2.63e-8
        fn = lambda y: np.exp(y) * np.cos(y)  # noqa: E731
        oracle = richardson_trapezium(fn, BOX, 1024)
        value = trapezium_rule(BOX, 4096).integrate(fn)
        assert value == pytest.approx(oracle, abs=1e-7)

    def test_second_order_slope_on_exp(self):
        exact = np.exp(1.0) - np.exp(-1.0)
        ns = np.array([8, 16, 32, 64, 128, 256, 512])
        errs = np.array([abs(trapezium_rule(BOX, n).integrate(np.exp) - exact) for n in ns])
        slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert 1.9 <= slope <= 2.1

    @given(st.integers(min_value=1, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_weights_sum_to_length(self, n):
        for interval in (BOX, RING, Interval(0.25, 7.5)):
            rule = trapezium_rule(interval, n)
            assert rule.weights.sum() == pytest.approx(interval.length, rel=1e-12)


class TestClenshawCurtis:
    def test_n2_against_moment_system_oracle(self):
        # solve the 3x3 moment-matching system on the nodes {1, 0, -1}
        rule = clenshaw_curtis(2)
        vander = np.vander(rule.nodes, 3, increasing=True).T
        moments = np.array([2.0, 0.0, 2.0 / 3.0])
        oracle = np.linalg.solve(vander, moments)
        assert np.allclose(rule.nodes, [1.0, 0.0, -1.0], atol=1e-15)
        assert np.allclose(rule.weights, oracle, atol=1e-14)
        assert np.allclose(rule.weights, [1 / 3, 4 / 3, 1 / 3], atol=1e-15)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_weights_sum_to_two(self, n):
        assert clenshaw_curtis(n).weights.sum() == pytest.approx(2.0, rel=1e-14)

    def test_quartic_with_n4(self):
        assert abs(clenshaw_curtis(4).integrate(lambda y: y**4) - 2.0 / 5.0) <= 1e-14

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_monomial_exactness_up_to_degree_n(self, n):
        rule = clenshaw_curtis(n)
        for p in range(n + 1):
            exact = 0.0 if p % 2 else 2.0 / (p + 1)
            assert abs(rule.integrate(lambda y, p=p: y**p) - exact) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16, 33, 64, 101])
    def test_fft_weights_match_direct_cosine_sum(self, n):
        fft = clenshaw_curtis(n)
        direct = clenshaw_curtis_direct(n)
        assert np.allclose(fft.weights, direct.weights, atol=1e-14)
        assert np.array_equal(fft.nodes, direct.nodes)

    def test_gaussian_against_erf_series_oracle(self):
        oracle = np.sqrt(np.pi) * erf_series(1.0)
        value = clenshaw_curtis(16).integrate(lambda y: np.exp(-(y**2)))
        assert value == pytest.approx(oracle, abs=1e-10)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            clenshaw_curtis(1)


class TestGauss2:
    def test_cubic_odd_symmetry(self):
        assert gauss_legendre_2().integrate(lambda y: y**3) == 0.0

    def test_quadratic(self):
        assert abs(gauss_legendre_2().integrate(lambda y: y**2) - 2.0 / 3.0) <= 1e-15

    def test_moment_equations(self):
        rule = gauss_legendre_2()
        w1, w2 = rule.weights
        z1, z2 = rule.nodes
        assert w1 + w2 == pytest.approx(2.0, abs=1e-15)
        assert w1 * z1**2 + w2 * z2**2 == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_mapped_cubic_exactness_per_element(self):
        # affine map g(z) = x0 + (1 + z) * (x1 - x0) / 2 onto [0.25, 0.75]
        rule = gauss_legendre_2()
        x0, x1 = 0.25, 0.75
        half = (x1 - x0) / 2.0
        mapped = half * rule.integrate(lambda z: (x0 + (1.0 + z) * half) ** 3)
        assert mapped == pytest.approx((x1**4 - x0**4) / 4.0, rel=1e-14)


class TestApply:
    def test_zero_integrand(self):
        for rule in (trapezium_rule(BOX, 5), clenshaw_curtis(8), gauss_legendre_2()):
            assert rule.integrate(lambda y: np.zeros_like(y)) == 0.0

    def test_mismatched_weights_rejected(self):
        from neuralfield.quadrature import QuadratureRule

        with pytest.raises(ValueError):
            QuadratureRule(np.array([0.0, 1.0]), np.array([1.0]), BOX)
