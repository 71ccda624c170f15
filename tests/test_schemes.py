import numpy as np
import pytest

from neuralfield.checks import dft_backward_direct, dft_forward_direct
from neuralfield.harness import default_checkpoints
from neuralfield.model import INVERSE_DOMAIN_ERROR, ChebyshevGrid, UniformGrid
from neuralfield.problems import make_problem
from neuralfield.projection import ChebyshevBasis, TentBasis, dft_forward
from neuralfield.quadrature import clenshaw_curtis, gauss_legendre_2, trapezium_rule
from neuralfield.schemes import (
    SCHEMES,
    _tent_gram_solve,
    _two_tap,
    _two_tap_load,
    build_cheb_collocation,
    build_fe_collocation,
    build_fe_galerkin,
    build_spectral_galerkin,
    reconstruct_on,
)
from neuralfield.timestep import euler_integrate, rk54_integrate
from test_projection import NON_FINITE_POINTS

# every (scheme, variant) of the table, with whether it runs on the ring
ALL_BUILDERS = [
    pytest.param(builder, scheme == "spectral-galerkin", id=f"{scheme}/{variant}")
    for (scheme, variant), builder in SCHEMES.items()
]


def _encoded_start(system, problem):
    """The closed form of ``problem`` at t = 0 in the state space of ``system``."""
    return system.encode(lambda x: problem.exact(x, 0.0))


def rhs_at(system, t, a):
    """The right-hand side of ``system`` at time t and state a."""
    return system.rhs(system.drive([t])[0], a)


class TestDecayReduction:
    @pytest.mark.parametrize("builder,periodic", ALL_BUILDERS)
    def test_rhs_is_pure_decay_for_zero_kernel_and_forcing(
        self, builder, periodic, rng, pure_decay_problem
    ):
        system = builder(pure_decay_problem(periodic=periodic), 8)
        a = rng.standard_normal(system.dim)
        assert np.array_equal(rhs_at(system, 0.7, a), -a)

    @pytest.mark.parametrize("builder,periodic", ALL_BUILDERS)
    def test_rhs_deterministic_bitwise(self, builder, periodic, rng):
        problem = make_problem("P7p" if periodic else "P1")
        system = builder(problem, 8)
        a = rng.standard_normal(system.dim)
        assert np.array_equal(rhs_at(system, 0.3, a), rhs_at(system, 0.3, a))


def per_time(drive):
    """``drive`` evaluated one singleton batch at a time."""
    return lambda ts: np.concatenate([drive([t]) for t in ts])


class TestDrive:
    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("builder,periodic", ALL_BUILDERS)
    def test_each_row_is_bitwise_the_drive_at_its_time(self, builder, periodic, n, time_batches):
        system = builder(make_problem("P7p" if periodic else "P1"), n)
        for ts in time_batches:
            rows = system.drive(ts)
            assert rows.shape == (len(ts), system.dim)
            assert np.array_equal(rows, per_time(system.drive)(ts))

    @pytest.mark.parametrize("builder,periodic", ALL_BUILDERS)
    def test_a_scalar_time_is_refused(self, builder, periodic):
        system = builder(make_problem("P7p" if periodic else "P1"), 8)
        for t in (0.3, np.float64(0.3), np.array(0.3)):
            with pytest.raises(TypeError):
                system.drive(t)

    @pytest.mark.parametrize("builder,periodic", ALL_BUILDERS)
    def test_rhs_refuses_anything_but_a_drive_value(self, builder, periodic, rng):
        # a time in place of a row of the drive used to broadcast into wrong numbers
        system = builder(make_problem("P7p" if periodic else "P1"), 8)
        a = rng.standard_normal(system.dim)
        times = (0.3, np.float64(0.3), np.array(0.3))
        for g in (*times, system.drive([0.3, 0.4]), np.zeros(system.dim + 1)):
            with pytest.raises(TypeError, match="drive"):
                system.rhs(g, a)

    @pytest.mark.parametrize("n", [8, 64, 256])
    @pytest.mark.parametrize("builder,periodic", ALL_BUILDERS)
    def test_encoding_a_table_is_bitwise_each_time_alone(self, builder, periodic, n):
        # the projector error encodes its checkpoint table in one call
        problem = make_problem("P7p" if periodic else "P1")
        system = builder(problem, n)
        ts = np.linspace(0.0, 1.0, 51)
        table = system.encode(lambda x: problem.exact(x, ts[:, None]))
        rows = np.stack([system.encode(lambda x, t=t: problem.exact(x, t)) for t in ts])
        assert table.shape == (len(ts), system.dim)
        assert np.array_equal(table, rows)

    @pytest.mark.parametrize("stepper", ["rk54", "euler"])
    @pytest.mark.parametrize("builder,periodic", ALL_BUILDERS)
    def test_integrating_with_the_drive_is_bitwise_the_per_time_form(self, builder, periodic, stepper):
        problem = make_problem("P7p" if periodic else "P1")
        system = builder(problem, 16)
        u0 = _encoded_start(system, problem)
        cps = np.linspace(0.0, 1.0, 11)

        def run(rhs, drive):
            if stepper == "rk54":
                return rk54_integrate(rhs, u0, 0.0, 1.0, 1e-6, 1e-9, cps, drive=drive)
            # 1000 steps: 15 full blocks and a ragged one
            return euler_integrate(rhs, u0, 0.0, 1.0, 1e-3, cps, drive=drive)

        batched = run(system.rhs, system.drive)
        single = run(system.rhs, per_time(system.drive))
        assert np.array_equal(batched.states, single.states)
        assert batched.stats == single.stats

    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("builder,periodic", ALL_BUILDERS)
    def test_rk54_on_the_sweep_grid_is_bitwise_the_per_time_form(self, builder, periodic, n):
        # past the first checkpoint every step runs from one checkpoint to the next,
        # so the batched run takes the rows of up to 10 steps from one drive call
        problem = make_problem("P7p" if periodic else "P2")
        system = builder(problem, n)
        u0 = _encoded_start(system, problem)
        cps = default_checkpoints(0.0, 1.0, 51)
        sizes = []

        def drive(ts):
            sizes.append(len(ts))
            return system.drive(ts)

        batched = rk54_integrate(system.rhs, u0, 0.0, 1.0, 1e-6, 1e-9, cps, drive=drive)
        single = rk54_integrate(system.rhs, u0, 0.0, 1.0, 1e-6, 1e-9, cps,
                                drive=per_time(system.drive))
        assert max(sizes) > 6
        assert np.array_equal(batched.states, single.states)
        assert batched.stats == single.stats

    def test_a_drive_block_past_the_envelope_raises_the_domain_error(self):
        # from t0 = 1300 the steps soon span the checkpoint gaps of 4, and P1's
        # envelope trough leaves the normal floats near t = 1414, inside a block
        problem = make_problem("P1")
        system = build_fe_collocation(problem, 8)
        u0 = system.encode(lambda x: problem.exact(x, 1300.0))
        sizes = []

        def drive(ts):
            sizes.append(len(ts))
            return system.drive(ts)

        for each in (drive, per_time(system.drive)):
            with pytest.raises(ValueError) as raised:
                rk54_integrate(system.rhs, u0, 1300.0, 200.0, 1e-6, 1e-9,
                               np.linspace(1300.0, 1500.0, 51), drive=each)
            assert str(raised.value) == INVERSE_DOMAIN_ERROR
        assert sizes[-1] > 6


class TestFeCollocation:
    def test_dimensions_and_initial(self, p1):
        system = build_fe_collocation(p1, 16)
        assert system.dim == 17
        x = np.linspace(-1.0, 1.0, 17)
        assert np.allclose(_encoded_start(system, p1), p1.exact(x, 0.0), atol=1e-15)

    def test_rejects_periodic_problem(self, p7p):
        with pytest.raises(ValueError):
            build_fe_collocation(p7p, 16)

    def test_consistency_residual_is_second_order(self, p1):
        residuals = {}
        for n in (128, 256):
            system = build_fe_collocation(p1, n)
            x = UniformGrid(p1.interval, n).nodes
            state = system.encode(lambda xx: p1.exact(xx, 0.0))
            residuals[n] = np.max(np.abs(rhs_at(system, 0.0, state) - p1.time_derivative(x, 0.0)))
        ratio = residuals[128] / residuals[256]
        assert 3.2 <= ratio <= 4.8

    @pytest.mark.parametrize("pid", ["P1", "P3", "P5"])
    def test_weight_row_sums_against_fine_oracle(self, pid):
        # row sum approximates the row integral of the kernel at second order;
        # P4's kernel row exp(-x^2) does not vary in y, so the rule is exact
        # there and the gap is roundoff
        problem = make_problem(pid)
        fine = trapezium_rule(problem.interval, 10_000)
        oracle = fine.integrate(lambda y: problem.kernel(-1.0, y))
        gaps = {}
        for n in (64, 128):
            rule = trapezium_rule(problem.interval, n)
            x = UniformGrid(problem.interval, n).nodes
            row = problem.kernel(x[0], x) * rule.weights
            gaps[n] = abs(row.sum() - oracle)
        assert 3.0 <= gaps[64] / gaps[128] <= 5.5

    def test_reconstruct_at_own_nodes_returns_nodal_values(self, p1, rng):
        system = build_fe_collocation(p1, 16)
        a = rng.standard_normal(system.dim)
        x = UniformGrid(p1.interval, 16).nodes
        assert np.array_equal(reconstruct_on(system, a, x), a)

    def test_initial_reconstruction_error_is_second_order(self, p1):
        xs = np.linspace(-1.0, 1.0, 2048)
        errs = {}
        for n in (64, 128):
            system = build_fe_collocation(p1, n)
            values = reconstruct_on(system, _encoded_start(system, p1), xs)
            errs[n] = np.max(np.abs(values - p1.exact(xs, 0.0)))
        assert 3.2 <= errs[64] / errs[128] <= 4.8


class TestChebCollocation:
    def test_cc_consistency_residual_tiny(self, p4):
        system = build_cheb_collocation(p4, 32, quadrature="cc")
        x = np.cos(np.pi * np.arange(33) / 32)
        state = system.encode(lambda xx: p4.exact(xx, 0.0))
        residual = np.max(np.abs(rhs_at(system, 0.0, state) - p4.time_derivative(x, 0.0)))
        assert residual <= 1e-8

    def test_trapezium_quadrature_pollutes_at_second_order(self, p4):
        # n panels for n + 1 collocation nodes: the projector converges
        # spectrally, so the residual is the rule's, ~ n^-2 (ratios 4.006,
        # 4.0004 and 4.0001)
        res = {}
        for n in (16, 32, 64, 128):
            system = build_cheb_collocation(p4, n, quadrature="trapezium")
            x = ChebyshevGrid(n).nodes
            state = system.encode(lambda xx: p4.exact(xx, 0.0))
            res[n] = np.max(np.abs(rhs_at(system, 0.0, state) - p4.time_derivative(x, 0.0)))
        assert 3.2 <= res[16] / res[32] <= 4.8
        assert 3.2 <= res[32] / res[64] <= 4.8
        assert 3.2 <= res[64] / res[128] <= 4.8

    def test_initial_reconstruction_is_spectral(self, p1):
        # inverse(0.8 exp(-x^2)) is singular where exp(-x^2) = 1.25, at
        # x = +-0.4724i; the Bernstein ellipse through them has parameter
        # rho = 0.4724 + sqrt(1 + 0.4724^2) = 1.578, the geometric rate of
        # Chebyshev interpolation (Trefethen, ATAP, Thm 8.2)
        y = np.sqrt(np.log(1.25))
        rho = y + np.sqrt(1.0 + y * y)
        xs = np.linspace(-1.0, 1.0, 2048)
        errs = []
        for n in range(12, 40, 4):
            system = build_cheb_collocation(p1, n)
            values = reconstruct_on(system, _encoded_start(system, p1), xs)
            errs.append(np.max(np.abs(values - p1.exact(xs, 0.0))))
        ratios = np.array(errs[1:]) / np.array(errs[:-1])
        assert np.all(ratios <= rho**-4), ratios

    def test_rejects_periodic_and_bad_quadrature(self, p7p, p1):
        with pytest.raises(ValueError):
            build_cheb_collocation(p7p, 8)
        with pytest.raises(ValueError):
            build_cheb_collocation(p1, 8, quadrature="simpson")


class TestFeGalerkin:
    def test_gauss2_mass_matrix_matches_elementwise_assembly(self, p1, rng):
        # oracle: assemble the hat-product Gram matrix element by element with
        # mapped 2-point Gauss, which is exact for the piecewise quadratics
        n, h = 4, 0.5
        grid = UniformGrid(p1.interval, n)
        rule = gauss_legendre_2()
        mass = np.zeros((n + 1, n + 1))
        for e in range(n):
            pts = grid.nodes[e] + (1.0 + rule.nodes) * h / 2.0
            left = (grid.nodes[e + 1] - pts) / h
            right = (pts - grid.nodes[e]) / h
            for la, va in ((e, left), (e + 1, right)):
                for lb, vb in ((e, left), (e + 1, right)):
                    mass[la, lb] += h / 2.0 * np.sum(rule.weights * va * vb)
        expected_diag = np.array([h / 3, 2 * h / 3, 2 * h / 3, 2 * h / 3, h / 3])
        assert np.allclose(np.diag(mass), expected_diag, atol=1e-15)
        assert np.allclose(np.diag(mass, 1), h / 6, atol=1e-15)

        # the scheme's projector M^-1 L with that exact mass matrix reproduces
        # every function of the tent space; a lumped M would not
        for n in (8, 64, 256):
            tents = TentBasis(UniformGrid(p1.interval, n))
            v = rng.standard_normal(n + 1)
            encoded = build_fe_galerkin(p1, n).encode(lambda x: tents.interpolate(v, x))
            assert np.max(np.abs(encoded - v)) <= 1e-13 * np.max(np.abs(v))

    @pytest.mark.parametrize("n", [2, 3, 64])
    def test_gram_sweep_matches_a_dense_solve(self, n, rng):
        # G = tridiag(1, 4, 1) with 2 in the corners, 6 / h times the Gram matrix
        gram = np.diag(np.full(n + 1, 4.0)) + np.diag(np.ones(n), 1) + np.diag(np.ones(n), -1)
        gram[0, 0] = gram[n, n] = 2.0
        rhs = rng.standard_normal((n + 1, 5))
        want = np.linalg.solve(gram, rhs)
        got = _tent_gram_solve(rhs.copy())
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_load_is_the_transpose_of_the_stencil(self, n, rng):
        ref = gauss_legendre_2().nodes
        local, _ = _gauss2_interpolation(n)
        values = rng.standard_normal((2 * n, 3))
        got = _two_tap_load(values.copy(), (1.0 - ref) / 2.0, (1.0 + ref) / 2.0)
        want = local.T @ values
        assert got.shape == (n + 1, 3)
        assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * np.max(np.abs(values))

    def test_lumped_equals_collocation_trajectory(self, p1):
        cps = np.linspace(0.0, 1.0, 51)
        coll = build_fe_collocation(p1, 64)
        lump = build_fe_galerkin(p1, 64, variant="lumped")
        traj_c, traj_l = (
            rk54_integrate(s.rhs, _encoded_start(s, p1), 0.0, 1.0, 1e-6, 1e-9, cps, drive=s.drive)
            for s in (coll, lump)
        )
        assert np.max(np.abs(traj_c.states - traj_l.states)) <= 1e-12

    def test_lumped_rhs_equals_collocation_rhs(self, p1, rng):
        coll = build_fe_collocation(p1, 32)
        lump = build_fe_galerkin(p1, 32, variant="lumped")
        a = rng.standard_normal(33)
        assert np.max(np.abs(rhs_at(coll, 0.4, a) - rhs_at(lump, 0.4, a))) <= 1e-14

    def test_gauss2_consistency_residual_is_second_order(self, p1):
        res = {}
        for n in (64, 128):
            system = build_fe_galerkin(p1, n, variant="gauss2")
            x = UniformGrid(p1.interval, n).nodes
            state = system.encode(lambda xx: p1.exact(xx, 0.0))
            res[n] = np.max(np.abs(rhs_at(system, 0.0, state) - p1.time_derivative(x, 0.0)))
        assert 3.0 <= res[64] / res[128] <= 5.5

    def test_rejects_unknown_variant(self, p1):
        with pytest.raises(ValueError):
            build_fe_galerkin(p1, 8, variant="mass-free")


class TestSpectralGalerkin:
    @pytest.mark.parametrize("x", NON_FINITE_POINTS)
    def test_reconstruct_on_rejects_a_non_finite_point(self, p7p, x):
        system = build_spectral_galerkin(p7p, 8)
        with pytest.raises(ValueError, match="^evaluation point is not finite$"):
            reconstruct_on(system, _encoded_start(system, p7p), x)

    def test_dim_is_the_ring_node_count(self, p7p):
        system = build_spectral_galerkin(p7p, 16)
        assert system.dim == 33
        start = _encoded_start(system, p7p)
        assert start.shape == (33,) and start.dtype == np.float64

    def test_consistency_with_exact_coefficients(self, p7p):
        system = build_spectral_galerkin(p7p, 16)
        m = 33
        x = 2.0 * np.pi * np.arange(m) / m
        state = system.encode(lambda xx: p7p.exact(xx, 0.0))
        target = dft_forward(p7p.time_derivative(x, 0.0))
        assert np.max(np.abs(dft_forward(rhs_at(system, 0.0, state)) - target)) <= 1e-6

    def test_rhs_matches_direct_summation_oracle(self, p7p, rng, closed_form_forcing):
        # the coefficient form a' = -a + D(F + W f(D^-1 a)), with the direct
        # transforms, against the nodal right-hand side conjugated by them
        system = build_spectral_galerkin(p7p, 10)
        m = 21
        x = 2.0 * np.pi * np.arange(m) / m
        weight = (2.0 * np.pi / m) * p7p.kernel(x[:, None], x[None, :])
        c = dft_forward_direct(rng.standard_normal(system.dim))
        samples = closed_form_forcing(p7p, x, 0.25) + weight @ p7p.firing(dft_backward_direct(c))
        oracle = -c + dft_forward_direct(samples)
        rhs = dft_forward_direct(rhs_at(system, 0.25, dft_backward_direct(c)))
        assert np.max(np.abs(rhs - oracle)) <= 1e-12

    @pytest.mark.parametrize("pid", ["P7p", "P9p"])
    @pytest.mark.parametrize("n", [16, 64])
    def test_trajectory_matches_the_coefficient_form(self, pid, n):
        # rk54 on the coefficient Galerkin system, built here from the direct
        # transforms, takes the same steps as on the nodal system, and its
        # checkpoint states are the nodal ones carried into coefficients
        problem = make_problem(pid)
        nodal = build_spectral_galerkin(problem, n)
        coefficient_rhs, coefficient_start = _coefficient_form(problem, n)
        cps = np.linspace(0.0, 1.0, 51)
        expected = rk54_integrate(
            coefficient_rhs, coefficient_start, 0.0, 1.0, 1e-6, 1e-9, cps, drive=np.asarray
        )
        u0 = _encoded_start(nodal, problem)
        got = rk54_integrate(nodal.rhs, u0, 0.0, 1.0, 1e-6, 1e-9, cps, drive=nodal.drive)
        assert got.stats == expected.stats
        gap = np.max(np.abs(_real_parts(dft_forward(got.states)) - expected.states))
        assert gap <= 1e-13 * np.max(np.abs(expected.states))

    def test_initial_reconstruction_is_spectral(self, p7p):
        # inverse(0.8 exp(-cos(z)^2)) is singular where cos(z)^2 = -log(1.25),
        # at Im z = asinh(sqrt(log 1.25)) = 0.4555: trigonometric
        # interpolation converges like exp(-0.4555 n) inside that strip
        strip = np.arcsinh(np.sqrt(np.log(1.25)))
        xs = 2.0 * np.pi * np.arange(2048) / 2048
        errs = []
        for n in range(8, 40, 4):
            system = build_spectral_galerkin(p7p, n)
            values = reconstruct_on(system, _encoded_start(system, p7p), xs)
            errs.append(np.max(np.abs(values - p7p.exact(xs, 0.0))))
        ratios = np.array(errs[1:]) / np.array(errs[:-1])
        assert np.all(ratios <= np.exp(-4.0 * strip)), ratios

    def test_rejects_compact_problem(self, p1):
        with pytest.raises(ValueError):
            build_spectral_galerkin(p1, 8)


def _real_parts(c):
    """[Re c_0..c_n, Im c_1..c_n], the real state of coefficients c_0..c_n
    with a real c_0; rk54's max-norm does not depend on the order."""
    return np.concatenate((c.real, c[..., 1:].imag), axis=-1)


def _coefficients(a):
    """Inverse of :func:`_real_parts`."""
    n = (a.shape[-1] - 1) // 2
    c = a[..., : n + 1].astype(complex)
    c[..., 1:] += 1j * a[..., n + 1 :]
    return c


def _coefficient_form(problem, n):
    """The spectral Galerkin system in Fourier coefficients,
    c' = -c + D(F(X, t) + W f(D^-1 c)), with D the direct DFT on the
    2n + 1 ring nodes and W the kernel under the trapezium weight 2 pi / m,
    integrated in the real state :func:`_real_parts` of c: its right-hand
    side and the real state of the closed form at t = 0."""
    m = 2 * n + 1
    x = 2.0 * np.pi * np.arange(m) / m
    weight = (2.0 * np.pi / m) * problem.kernel(x[:, None], x[None, :])
    forcing = problem.forcing_at(x)

    def rhs(t, a):
        samples = forcing([t])[0] + weight @ problem.firing(dft_backward_direct(_coefficients(a)))
        return _real_parts(dft_forward_direct(samples)) - a

    return rhs, _real_parts(dft_forward_direct(problem.exact(x, 0.0)))


class TestPlumbing:
    def test_reconstruct_on_length_mismatch(self, p1):
        system = build_fe_collocation(p1, 8)
        with pytest.raises(ValueError):
            reconstruct_on(system, np.zeros(4), np.zeros(3))

    @pytest.mark.parametrize("builder,periodic", ALL_BUILDERS)
    def test_reconstruct_on_rejects_a_wrong_last_axis_and_three_dimensions(
        self, builder, periodic, pure_decay_problem
    ):
        system = builder(pure_decay_problem(periodic=periodic), 8)
        with pytest.raises(ValueError):
            reconstruct_on(system, np.zeros((3, system.dim + 1)), np.zeros(3))
        with pytest.raises(ValueError):
            reconstruct_on(system, np.zeros((2, 3, system.dim)), np.zeros(3))


# the tent schemes index nodal values, so a stack reproduces the rows bitwise;
# the dense maps of the global bases may sum in another order in one product
STACK_BITWISE = {
    "fe-collocation": True,
    "cheb-collocation": False,
    "fe-galerkin": True,
    "spectral-galerkin": False,
}
STACK_CASES = [
    pytest.param(builder, scheme == "spectral-galerkin", STACK_BITWISE[scheme], id=f"{scheme}/{variant}")
    for (scheme, variant), builder in SCHEMES.items()
]


@pytest.mark.parametrize("builder,periodic,bitwise", STACK_CASES)
def test_stacked_reconstruction_matches_row_by_row(builder, periodic, bitwise):
    problem = make_problem("P7p" if periodic else "P1")
    system = builder(problem, 16)
    u0 = _encoded_start(system, problem)
    cps = np.linspace(0.0, 1.0, 11)
    states = rk54_integrate(system.rhs, u0, 0.0, 1.0, 1e-6, 1e-9, cps, drive=system.drive).states
    xs = np.linspace(problem.interval.a, problem.interval.b, 2048)
    stacked = reconstruct_on(system, states, xs)
    rows = np.array([reconstruct_on(system, a, xs) for a in states])
    assert stacked.shape == (11, 2048)
    if bitwise:
        assert np.array_equal(stacked, rows)
    else:
        assert np.max(np.abs(stacked - rows)) <= 1e-15 * np.max(np.abs(states))


# cheb-collocation/trapezium's ||W B|| does not settle; it has a test of its own
SETTLING_CASES = [case for case in ALL_BUILDERS if case.id != "cheb-collocation/trapezium"]


@pytest.mark.parametrize("builder,periodic", SETTLING_CASES)
def test_weight_infnorm_stabilizes(builder, periodic):
    # the assembled weight matrix's norm is a convergent quadrature image of
    # the integral operator's norm; it must settle well before n = 256
    problems = ("P7p", "P8p", "P9p", "P10p") if periodic else ("P1", "P2", "P3", "P4", "P5", "P6")
    for pid in problems:
        problem = make_problem(pid)
        coarse = builder(problem, 128).weight_infnorm
        fine = builder(problem, 256).weight_infnorm
        assert abs(fine - coarse) / coarse < 0.01, pid


def test_cheb_trapezium_weight_infnorm_follows_its_documented_sequence():
    # the n-panel rule cannot integrate the kernel against degree-n Lagrange
    # polynomials, so on P2 ||W B|| moves by 4% to 17% between doublings
    # (build_cheb_collocation's docstring) instead of settling
    problem = make_problem("P2")
    documented = (0.4179, 0.3456, 0.2915, 0.3056, 0.3472, 0.3327)
    for n, expected in zip((16, 32, 64, 128, 256, 512), documented):
        got = build_cheb_collocation(problem, n, quadrature="trapezium").weight_infnorm
        assert abs(got - expected) <= 1e-3 * expected, n


def _gauss2_interpolation(n):
    """The dense 2n x (n + 1) map from nodal values to the two Gauss points
    of every element, element-major, and the points themselves."""
    ref = gauss_legendre_2().nodes
    x, h = np.linspace(-1.0, 1.0, n + 1), 2.0 / n
    local = np.zeros((2 * n, n + 1))
    for e in range(n):
        for q in range(2):
            local[2 * e + q, e] = (1.0 - ref[q]) / 2.0
            local[2 * e + q, e + 1] = (1.0 + ref[q]) / 2.0
    points = (x[:-1, None] + (1.0 + ref[None, :]) * (h / 2.0)).ravel()
    return local, points


def _same(values):
    return values


def _parent_form(key, problem, n):
    """Nodes X, weight W, pre and post of the unfolded formula
    post(forcing(X, t) + W @ firing(pre(a))) - a, assembled independently."""
    iv = problem.interval

    def kernel(rows, cols):
        return problem.kernel(rows[:, None], cols[None, :])

    if key == ("spectral-galerkin", "fft"):
        # the nodal form of the coefficient system: pre = D^-1 and post = D
        # cancel, D the real DFT on the ring nodes
        m = 2 * n + 1
        x = 2.0 * np.pi * np.arange(m) / m
        return x, (2.0 * np.pi / m) * kernel(x, x), _same, _same
    if key in (("fe-collocation", "trapezium"), ("fe-galerkin", "lumped")):
        rule = trapezium_rule(iv, n)
        return rule.nodes, kernel(rule.nodes, rule.nodes) * rule.weights, _same, _same
    x = ChebyshevGrid(n).nodes
    if key == ("cheb-collocation", "cc"):
        return x, kernel(x, x) * clenshaw_curtis(n).weights, _same, _same
    if key == ("cheb-collocation", "trapezium"):
        rule = trapezium_rule(iv, n)
        onto = ChebyshevBasis(ChebyshevGrid(n)).interpolation_matrix(rule.nodes)
        return x, kernel(x, rule.nodes) * rule.weights, (lambda a: onto @ a), _same
    # fe-galerkin/gauss2: the dense Gauss-point interpolation and the mass
    # matrix solved densely
    assert key == ("fe-galerkin", "gauss2"), key
    h = iv.length / n
    local, points = _gauss2_interpolation(n)
    mass = np.diag(np.full(n + 1, 2.0 * h / 3.0)) + np.diag(np.full(n, h / 6.0), 1) + np.diag(
        np.full(n, h / 6.0), -1
    )
    mass[0, 0] = mass[n, n] = h / 3.0
    projector = np.linalg.solve(mass, (h / 2.0) * local.T)
    return points, (h / 2.0) * kernel(points, points), (lambda a: local @ a), (lambda v: projector @ v)


FOLD_CASES = [pytest.param(key, builder, id="/".join(key)) for key, builder in SCHEMES.items()]


def _fold_problem(key):
    return make_problem("P7p" if key[0] == "spectral-galerkin" else "P1")


@pytest.mark.parametrize("n", [8, 64, 256])
@pytest.mark.parametrize("key,builder", FOLD_CASES)
def test_folded_rhs_matches_the_unfolded_formula(key, builder, n, rng, closed_form_forcing):
    # the right-hand side folds the logistic's constant half into the forcing
    # and its slope into post(-W/2); unfolded, it is the parent formula
    problem = _fold_problem(key)
    system = builder(problem, n)
    nodes, weight, pre, post = _parent_form(key, problem, n)
    states = [
        _encoded_start(system, problem),
        rng.standard_normal(system.dim),
        0.3 * rng.standard_normal(system.dim),
    ]
    for t, a in zip((0.0, 0.37, 0.91), states):
        oracle = post(closed_form_forcing(problem, nodes, t) + weight @ problem.firing(pre(a))) - a
        rhs = rhs_at(system, t, a)
        assert np.max(np.abs(rhs - oracle)) <= 1e-14 * np.max(np.abs(rhs))


@pytest.mark.parametrize("n", [8, 64, 256])
def test_gauss2_stencil_matches_the_dense_interpolation(n, rng):
    ref = gauss_legendre_2().nodes
    local, _ = _gauss2_interpolation(n)
    for a in (rng.standard_normal(n + 1), 1e3 * rng.standard_normal(n + 1)):
        stencil = _two_tap(a, (1.0 - ref) / 2.0, (1.0 + ref) / 2.0)
        assert stencil.shape == (2 * n,)
        assert np.max(np.abs(stencil - local @ a)) <= np.finfo(float).eps * np.max(np.abs(a))


@pytest.mark.parametrize("key,builder", FOLD_CASES)
def test_weight_infnorm_matches_the_unfolded_operator(key, builder):
    # ||W_n|| is the row-sum norm of the nodal operator post W pre where the
    # state is mapped onto other quadrature nodes (cheb/trapezium's W B, with B
    # the interpolation onto the panel nodes, and gauss2's P W L), and of W
    # itself elsewhere
    problem = _fold_problem(key)
    system = builder(problem, 64)
    _, weight, pre, post = _parent_form(key, problem, 64)
    if key in (("cheb-collocation", "trapezium"), ("fe-galerkin", "gauss2")):
        weight = post(weight) @ pre(np.eye(system.dim))
    oracle = np.max(np.sum(np.abs(weight), axis=1))
    assert abs(system.weight_infnorm - oracle) <= 1e-13 * oracle


# the weight matrix W of each entry at n = 256: rows x quadrature nodes
BUILD_N = 256
WEIGHT_SHAPES = {
    ("fe-collocation", "trapezium"): (BUILD_N + 1, BUILD_N + 1),
    ("cheb-collocation", "cc"): (BUILD_N + 1, BUILD_N + 1),
    ("cheb-collocation", "trapezium"): (BUILD_N + 1, BUILD_N + 1),
    ("fe-galerkin", "gauss2"): (2 * BUILD_N, 2 * BUILD_N),
    ("fe-galerkin", "lumped"): (BUILD_N + 1, BUILD_N + 1),
    ("spectral-galerkin", "fft"): (2 * BUILD_N + 1, 2 * BUILD_N + 1),
}
# numpy's iterator buffers, the node-length vectors and array headers; a
# further (n + 1) x (n + 1) matrix would add 0.5 MiB
BUILD_SLACK = 256 * 1024


# the entries whose K is W scaled in place and whose ||W_n|| is taken from K
# itself, block by block; the other two form one product for K or its norm
IN_PLACE = {
    ("fe-collocation", "trapezium"),
    ("cheb-collocation", "cc"),
    ("fe-galerkin", "lumped"),
    ("spectral-galerkin", "fft"),
}


@pytest.mark.parametrize("key,builder", FOLD_CASES)
def test_build_makes_no_dense_solve_or_inverse(key, builder, monkeypatch):
    # gauss2's tridiagonal Gram matrix is swept, never solved densely
    problem = _fold_problem(key)

    def refuse(*args, **kwargs):
        raise AssertionError("assembly called a dense solve or inverse")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    assert builder(problem, 64).dim > 0


@pytest.mark.parametrize("key,builder", FOLD_CASES)
def test_build_peak_is_the_system_and_one_weight_matrix(key, builder, peak_bytes):
    # assembly holds at most one full-size temporary at a time: gauss2's dense
    # interpolation, load map and solve copies are gone before W is built,
    # and W becomes K in place; at n = 256 gauss2 peaked at 8.4 MB to keep
    # 2.1 MB and spectral-galerkin at 6.3 MB. Where K is W itself, the norm
    # copies no W either: the build holds the system and nothing full-size
    # besides (spectral-galerkin peaked 2.01 MiB above it with a copy of W)
    problem = _fold_problem(key)
    peak, held = peak_bytes(lambda: builder(problem, BUILD_N))
    rows, cols = WEIGHT_SHAPES[key]
    if key in IN_PLACE:
        assert peak <= held + BUILD_SLACK
    else:
        assert peak <= held + 8 * rows * cols + BUILD_SLACK
    if key == ("fe-galerkin", "gauss2"):
        # it keeps K, (n + 1) x 2n, and G^-1, (n + 1) x (n + 1), and no projector
        gram_bytes = 8 * (BUILD_N + 1) ** 2
        assert held <= 8 * (BUILD_N + 1) * 2 * BUILD_N + gram_bytes + BUILD_SLACK
        # G^-1 is formed after W is freed: built first, it peaked 0.53 MB higher
        assert peak <= held - gram_bytes + 8 * rows * cols + BUILD_SLACK
