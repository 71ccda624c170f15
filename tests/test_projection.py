import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neuralfield.checks import dft_backward_direct, dft_forward_direct
from neuralfield.model import ChebyshevGrid, Interval, UniformGrid
from neuralfield.projection import (
    ChebyshevBasis,
    TentBasis,
    dft_backward,
    dft_forward,
    fourier_reconstruct,
)

BOX = Interval(-1.0, 1.0)


def tent_basis(n):
    return TentBasis(UniformGrid(BOX, n))


class TestTentBasis:
    def test_lagrange_delta(self):
        basis = tent_basis(8)
        for i in range(basis.size):
            for j in range(basis.size):
                expected = 1.0 if i == j else 0.0
                assert basis.eval(i, basis.grid.nodes[j]) == pytest.approx(expected, abs=1e-15)

    def test_midpoint_ramp(self):
        basis = tent_basis(8)
        mid = 0.5 * (basis.grid.nodes[3] + basis.grid.nodes[4])
        assert basis.eval(3, mid) == pytest.approx(0.5, abs=1e-15)

    def test_partition_of_unity_spot(self):
        basis = tent_basis(10)
        total = sum(basis.eval(i, 0.37) for i in range(basis.size))
        assert total == pytest.approx(1.0, abs=1e-14)

    @given(st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_partition_of_unity(self, x):
        basis = tent_basis(13)
        assert sum(basis.eval(i, x) for i in range(basis.size)) == pytest.approx(1.0, abs=1e-13)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            tent_basis(4).eval(5, 0.0)

    def test_rejects_periodic_grid(self):
        with pytest.raises(ValueError):
            TentBasis(UniformGrid(Interval(0, 1, periodic=True), 4))


class TestPiecewiseLinearInterp:
    def test_reproduces_linears(self, rng):
        basis = tent_basis(9)
        values = 2.0 * basis.grid.nodes + 1.0
        xs = rng.uniform(-1.0, 1.0, size=100)
        assert np.allclose(basis.interpolate(values, xs), 2.0 * xs + 1.0, atol=1e-14)

    def test_parabola_chord_error_bound(self):
        basis = tent_basis(8)
        h = basis.grid.h
        values = basis.grid.nodes**2
        xs = np.linspace(-1.0, 1.0, 4001)
        err = np.max(np.abs(basis.interpolate(values, xs) - xs**2))
        # max chord error of x^2 is h^2/8 * max|v''| = h^2/4, attained mid-element
        assert err <= h * h / 4.0 * (1.0 + 1e-12)
        assert err >= h * h / 4.0 * 0.99

    def test_nodal_values_exact(self):
        basis = tent_basis(8)
        values = np.sin(3.0 * basis.grid.nodes)
        assert np.array_equal(basis.interpolate(values, basis.grid.nodes), values)

    def test_outside_domain_rejected(self):
        basis = tent_basis(4)
        with pytest.raises(ValueError):
            basis.interpolate(np.zeros(5), 1.5)

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_smooth_error_bound(self, n):
        # interpolation error of sin(3x) stays within h^2/8 * max|v''|
        basis = tent_basis(n)
        values = np.sin(3.0 * basis.grid.nodes)
        xs = np.linspace(-1.0, 1.0, 8192)
        err = np.max(np.abs(basis.interpolate(values, xs) - np.sin(3.0 * xs)))
        bound = basis.grid.h**2 / 8.0 * 9.0
        assert err <= bound * (1.0 + 1e-6)

    def test_wrong_value_count(self):
        with pytest.raises(ValueError):
            tent_basis(4).interpolate(np.zeros(4), 0.0)


class TestBarycentricInterp:
    def test_reproduces_nodal_values_exactly(self):
        basis = ChebyshevBasis(ChebyshevGrid(12))
        values = np.exp(basis.grid.nodes)
        assert np.array_equal(basis.interpolate(values, basis.grid.nodes), values)

    def test_reproduces_cubic(self, rng):
        basis = ChebyshevBasis(ChebyshevGrid(5))
        p = lambda x: x**3 - 2.0 * x  # noqa: E731
        values = p(basis.grid.nodes)
        xs = rng.uniform(-1.0, 1.0, size=100)
        assert np.max(np.abs(basis.interpolate(values, xs) - p(xs))) <= 1e-13

    def test_barycentric_weight_pattern(self):
        basis = ChebyshevBasis(ChebyshevGrid(6))
        expected = np.array([0.5, -1.0, 1.0, -1.0, 1.0, -1.0, 0.5])
        assert np.array_equal(basis.barycentric_weights, expected)

    def test_abs_error_decreases(self):
        xs = np.linspace(-1.0, 1.0, 4001)
        errs = {}
        for n in (32, 64):
            basis = ChebyshevBasis(ChebyshevGrid(n))
            values = np.abs(basis.grid.nodes)
            errs[n] = np.max(np.abs(basis.interpolate(values, xs) - np.abs(xs)))
        assert errs[64] < errs[32] < 0.1

    def test_exp_geometric_decay(self):
        xs = np.linspace(-1.0, 1.0, 2001)
        errors = []
        for n in (4, 8, 12, 16, 20):
            basis = ChebyshevBasis(ChebyshevGrid(n))
            values = np.exp(basis.grid.nodes)
            errors.append(np.max(np.abs(basis.interpolate(values, xs) - np.exp(xs))))
        for coarse, fine in zip(errors, errors[1:]):
            if coarse <= 1e-13:
                break
            assert fine / coarse < 0.1

    def test_projector_idempotence(self, rng):
        basis = ChebyshevBasis(ChebyshevGrid(9))
        values = rng.standard_normal(basis.size)
        resampled = basis.interpolate(values, basis.grid.nodes)
        assert np.array_equal(basis.interpolate(resampled, basis.grid.nodes), resampled)


class TestDft:
    def test_constant_samples(self):
        c = dft_forward(np.ones(7))
        assert c[0] == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(c[1:])) <= 1e-15

    def test_cosine_and_sine_modes(self):
        # packed layout [Re c_0, Re c_1, Im c_1, ...]: cos x = (e^ix + e^-ix)/2
        # has Re c_1 = 1/2, and sin 2x = (e^2ix - e^-2ix)/2i has Im c_2 = -1/2
        m = 9
        x = 2.0 * np.pi * np.arange(m) / m
        c = dft_forward(np.cos(x) + np.sin(2.0 * x))
        assert c[1] == pytest.approx(0.5, abs=1e-15)
        assert c[4] == pytest.approx(-0.5, abs=1e-15)
        assert np.max(np.abs(np.delete(c, [1, 4]))) <= 1e-15

    def test_matches_direct_summation(self, rng):
        v = rng.standard_normal(9)
        assert np.max(np.abs(dft_forward(v) - dft_forward_direct(v))) <= 1e-13
        c = dft_forward(v)
        assert np.max(np.abs(dft_backward(c) - dft_backward_direct(c))) <= 1e-13

    @given(st.integers(min_value=1, max_value=24))
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, n):
        m = 2 * n + 1
        rng = np.random.default_rng(n)
        v = rng.standard_normal(m)
        back = dft_backward(dft_forward(v))
        assert np.max(np.abs(back - v)) <= 1e-13 * max(1.0, np.max(np.abs(v)))

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            dft_forward(np.ones(8))
        with pytest.raises(ValueError):
            dft_backward(np.ones(4))

    def test_parseval(self, rng):
        v = rng.standard_normal(15)
        c = dft_forward(v)
        lhs = np.sum(v**2)
        rhs = 15 * (c[0] ** 2 + 2.0 * np.sum(c[1:] ** 2))
        assert lhs == pytest.approx(rhs, rel=1e-11)


class TestFourierReconstruct:
    def test_reconstruct_at_samples(self, rng):
        m = 11
        x = 2.0 * np.pi * np.arange(m) / m
        v = rng.standard_normal(m)
        c = dft_forward(v)
        assert np.max(np.abs(fourier_reconstruct(c, x) - v)) <= 1e-12

    def test_bandlimited_exactness(self):
        m = 7
        x = 2.0 * np.pi * np.arange(m) / m
        c = dft_forward(np.sin(2.0 * x))
        xs = np.linspace(0.0, 2.0 * np.pi, 101)
        assert np.max(np.abs(fourier_reconstruct(c, xs) - np.sin(2.0 * xs))) <= 1e-12

    def test_matches_direct_summation(self, rng):
        # sum over j = -4..4 of the conjugate-symmetric complex modes
        a = rng.standard_normal(9)
        half = a[1::2] + 1j * a[2::2]
        c = np.concatenate([np.conj(half[::-1]), [a[0]], half])
        xs = rng.uniform(0.0, 2.0 * np.pi, size=17)
        modes = np.arange(-4, 5)
        direct = np.array([np.sum(c * np.exp(1j * modes * x)).real for x in xs])
        assert np.max(np.abs(fourier_reconstruct(a, xs) - direct)) <= 1e-12
