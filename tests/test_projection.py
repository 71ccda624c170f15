import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neuralfield.checks import dft_backward_direct, dft_forward_direct
from neuralfield.harness import eval_grid
from neuralfield.model import ChebyshevGrid, Interval, UniformGrid
from neuralfield.projection import (
    ChebyshevBasis,
    TentBasis,
    _unit_powers,
    dft_forward,
    fourier_reconstruct,
)

BOX = Interval(-1.0, 1.0)
RING = Interval(0.0, 2.0 * np.pi, periodic=True)


def tent_basis(n):
    return TentBasis(UniformGrid(BOX, n))


def tents(basis, x):
    """Row i holds tent i at the points x: the interpolant of unit vector i."""
    return basis.interpolate(np.eye(basis.size), x)


class TestTentBasis:
    def test_lagrange_delta(self):
        basis = tent_basis(8)
        assert np.max(np.abs(tents(basis, basis.grid.nodes) - np.eye(basis.size))) <= 1e-15

    def test_midpoint_ramp(self):
        basis = tent_basis(8)
        mid = 0.5 * (basis.grid.nodes[3] + basis.grid.nodes[4])
        assert tents(basis, mid)[3] == pytest.approx(0.5, abs=1e-15)

    def test_partition_of_unity_spot(self):
        basis = tent_basis(10)
        assert tents(basis, 0.37).sum() == pytest.approx(1.0, abs=1e-14)

    @given(st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_partition_of_unity(self, x):
        basis = tent_basis(13)
        assert tents(basis, x).sum() == pytest.approx(1.0, abs=1e-13)

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

    @pytest.mark.parametrize("x", [np.nan, [0.0, np.nan, 0.5], [-np.inf, 0.0], np.inf])
    def test_non_finite_point_rejected(self, x):
        # NaN fails every comparison, so it must not pass the range check
        with pytest.raises(ValueError):
            tent_basis(4).interpolate(np.ones(5), x)

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

    @pytest.mark.parametrize("x", [np.nan, [0.0, np.nan, 0.5], [np.inf, 0.0], -np.inf])
    def test_non_finite_point_rejected(self, x):
        # a NaN row sum would pass for a node hit and return node 0's value
        basis = ChebyshevBasis(ChebyshevGrid(4))
        with pytest.raises(ValueError):
            basis.interpolate(np.ones(5), x)
        with pytest.raises(ValueError):
            basis.interpolation_matrix(x)

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

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_matches_the_interpolation_matrix(self, n, rng):
        # the formula applied without normalising, against the normalised matrix
        basis = ChebyshevBasis(ChebyshevGrid(n))
        xs = eval_grid(BOX, 2048)
        values = rng.standard_normal((51, basis.size))
        got = basis.interpolate(values, xs)
        want = values @ basis.interpolation_matrix(xs).T
        # x = -1 and x = 1 hit the last and first nodes; no other point hits one
        assert np.array_equal(got[:, [0, -1]], values[:, [-1, 0]])
        assert np.array_equal(got[:, [0, -1]], want[:, [0, -1]])
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(values))

    def test_projector_idempotence(self, rng):
        basis = ChebyshevBasis(ChebyshevGrid(9))
        values = rng.standard_normal(basis.size)
        resampled = basis.interpolate(values, basis.grid.nodes)
        assert np.array_equal(basis.interpolate(resampled, basis.grid.nodes), resampled)


def ring_nodes(m):
    return 2.0 * np.pi * np.arange(m) / m


class TestDft:
    def test_constant_samples(self):
        c = dft_forward(np.ones(7))
        assert c[0] == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(c[1:])) <= 1e-15

    def test_cosine_and_sine_modes(self):
        # cos x = (e^ix + e^-ix)/2 has c_1 = 1/2, and sin 2x = (e^2ix - e^-2ix)/2i
        # has c_2 = -i/2
        x = ring_nodes(9)
        c = dft_forward(np.cos(x) + np.sin(2.0 * x))
        assert c.shape == (5,)
        assert c[1] == pytest.approx(0.5, abs=1e-15)
        assert c[2] == pytest.approx(-0.5j, abs=1e-15)
        assert np.max(np.abs(np.delete(c, [1, 2]))) <= 1e-15

    @pytest.mark.parametrize("m", [9, 17, 33, 257, 513])
    def test_matches_direct_summation(self, m, rng):
        # the oracles' phases j * x_l reach pi * m, so their own rounding grows with m
        tolerance = 1e-14 * m
        v = rng.standard_normal(m)
        assert np.max(np.abs(dft_forward(v) - dft_forward_direct(v))) <= tolerance
        c = dft_forward(v)
        assert np.max(np.abs(fourier_reconstruct(c, ring_nodes(m)) - dft_backward_direct(c))) <= tolerance

    @given(st.integers(min_value=1, max_value=24))
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, n):
        m = 2 * n + 1
        rng = np.random.default_rng(n)
        v = rng.standard_normal(m)
        back = fourier_reconstruct(dft_forward(v), ring_nodes(m))
        assert np.max(np.abs(back - v)) <= 1e-13 * max(1.0, np.max(np.abs(v)))

    def test_a_stack_of_rows_transforms_row_by_row(self, rng):
        stack = rng.standard_normal((4, 11))
        rows = np.stack([dft_forward(row) for row in stack])
        assert np.max(np.abs(dft_forward(stack) - rows)) <= 1e-15 * np.max(np.abs(stack))
        with pytest.raises(ValueError):
            dft_forward(np.ones((3, 8)))

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            dft_forward(np.ones(8))

    def test_parseval(self, rng):
        v = rng.standard_normal(15)
        c = dft_forward(v)
        lhs = np.sum(v**2)
        rhs = 15 * (abs(c[0]) ** 2 + 2.0 * np.sum(np.abs(c[1:]) ** 2))
        assert lhs == pytest.approx(rhs, rel=1e-11)


class TestFourierReconstruct:
    def test_reconstruct_at_samples(self, rng):
        m = 11
        v = rng.standard_normal(m)
        c = dft_forward(v)
        assert np.max(np.abs(fourier_reconstruct(c, ring_nodes(m)) - v)) <= 1e-12

    def test_bandlimited_exactness(self):
        c = dft_forward(np.sin(2.0 * ring_nodes(7)))
        xs = np.linspace(0.0, 2.0 * np.pi, 101)
        assert np.max(np.abs(fourier_reconstruct(c, xs) - np.sin(2.0 * xs))) <= 1e-12

    @pytest.mark.parametrize("n", [4, 256], ids=["n=4-random-points", "n=256-ring-grid"])
    def test_matches_direct_summation(self, n, rng):
        # sum over j = -n..n of the conjugate-symmetric complex modes
        half = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        half[0] = half[0].real
        c = np.concatenate([np.conj(half[:0:-1]), half])
        xs = rng.uniform(0.0, 2.0 * np.pi, size=17) if n == 4 else eval_grid(RING, 2048)
        modes = np.arange(-n, n + 1)
        direct = np.array([np.sum(c * np.exp(1j * modes * x)).real for x in xs])
        tolerance = 1e-13 * np.sum(np.abs(c))
        assert np.max(np.abs(fourier_reconstruct(half, xs) - direct)) <= tolerance


def tent_oracle(basis, values, x):
    """The unblocked tent interpolant: one gather over every point."""
    iv, h, n = basis.grid.interval, basis.grid.h, basis.grid.n
    idx = np.clip((x - iv.a) // h, 0, n - 1).astype(int)
    t = (x - (iv.a + idx * h)) / h
    return values[..., idx] * (1.0 - t) + values[..., idx + 1] * t


def barycentric_oracle(basis, values, x):
    """The unblocked second barycentric formula: one (points, n + 1) ratio
    table R for every point and one product values @ R.T / R.sum(axis=1)."""
    with np.errstate(all="ignore"):
        ratio = basis.barycentric_weights / np.subtract.outer(x, basis.grid.nodes)
        sums = ratio.sum(axis=1)
        out = values @ ratio.T / sums
    hits = np.flatnonzero(~np.isfinite(sums))
    out[..., hits] = values[..., np.abs(ratio[hits]).argmax(axis=1)]
    return out


def fourier_oracle(coeffs, x):
    """The unblocked trigonometric sum: one e^(i j x) table for every point."""
    n = coeffs.shape[-1] - 1
    return coeffs[..., :1].real + 2.0 * (coeffs[..., 1:] @ _unit_powers(x, n)).real


# n = 256 with 51 checkpoint states on 2048 points, as in the spectral sweeps
N_BIG, STATES, POINTS = 256, 51, 2048
# what one block of points may hold while a basis is evaluated
BLOCK_BYTES = 256 * 1024
# numpy's iterator buffers for broadcast operands (128 KiB), the length-POINTS
# vectors and array headers; any further n x POINTS table would add 4 MiB
SLACK = 256 * 1024

BLOCKED_N = [8, 16, 128, 256, 512]
STACKS = [pytest.param((STATES,), id="51-states"), pytest.param((), id="one-state")]


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("n", BLOCKED_N)
class TestBlockedEvaluationIsBitwiseTheOneShot:
    """Blocked evaluation gives the bits of one evaluation over every point.

    The barycentric product is bitwise only for these stack heights:
    OpenBLAS picks another kernel for some blocks of 2 to 18 states, which
    then agree to roundoff (see the short-stack test below).
    """

    def test_tents(self, n, stack, rng):
        basis = tent_basis(n)
        values = rng.standard_normal(stack + (basis.size,))
        xs = eval_grid(BOX, POINTS)
        got = basis.interpolate(values, xs)
        assert np.array_equal(got, tent_oracle(basis, values, xs))
        # a gather along the last axis is F-ordered; the L2 norm's diff @ weights
        # sums a C-ordered table in another order
        assert got.flags.f_contiguous

    def test_barycentric(self, n, stack, rng):
        basis = ChebyshevBasis(ChebyshevGrid(n))
        values = rng.standard_normal(stack + (basis.size,))
        xs = eval_grid(BOX, POINTS)
        assert np.array_equal(basis.interpolate(values, xs), barycentric_oracle(basis, values, xs))

    def test_fourier(self, n, stack, rng):
        coeffs = rng.standard_normal(stack + (n + 1,)) + 1j * rng.standard_normal(stack + (n + 1,))
        xs = eval_grid(RING, POINTS)
        assert np.array_equal(fourier_reconstruct(coeffs, xs), fourier_oracle(coeffs, xs))


def test_a_short_barycentric_stack_agrees_with_the_one_shot_to_roundoff(rng):
    basis = ChebyshevBasis(ChebyshevGrid(N_BIG))
    values = rng.standard_normal((7, basis.size))
    xs = eval_grid(BOX, POINTS)
    want = barycentric_oracle(basis, values, xs)
    assert np.max(np.abs(basis.interpolate(values, xs) - want)) <= 1e-14 * np.max(np.abs(values))


@pytest.mark.parametrize(
    "evaluate, size",
    [
        (tent_basis(8).interpolate, 9),
        (ChebyshevBasis(ChebyshevGrid(8)).interpolate, 9),
        (lambda c, x: fourier_reconstruct(c + 0j, x), 9),
    ],
    ids=["tents", "barycentric", "fourier"],
)
def test_no_points_give_an_empty_table(evaluate, size):
    assert evaluate(np.ones((3, size)), np.empty(0)).shape == (3, 0)
    assert evaluate(np.ones(size), np.empty(0)).shape == (0,)


def test_fourier_reconstruct_peak_stays_within_the_output_and_one_block(rng, peak_bytes):
    coeffs = rng.standard_normal((STATES, N_BIG + 1)) + 1j * rng.standard_normal((STATES, N_BIG + 1))
    xs = eval_grid(RING, POINTS)
    peak, _ = peak_bytes(lambda: fourier_reconstruct(coeffs, xs))
    assert peak <= 8 * STATES * POINTS + BLOCK_BYTES + SLACK


def test_barycentric_peak_stays_within_the_output_and_one_block(rng, peak_bytes):
    # a (points, n + 1) ratio table over every point would add 4.2 MB
    basis = ChebyshevBasis(ChebyshevGrid(N_BIG))
    values = rng.standard_normal((STATES, basis.size))
    xs = eval_grid(BOX, POINTS)
    peak, _ = peak_bytes(lambda: basis.interpolate(values, xs))
    assert peak <= 8 * STATES * POINTS + BLOCK_BYTES + SLACK
