import numpy as np
import pytest

from neuralfield.checks import dft_backward_direct, dft_forward_direct
from neuralfield.model import ChebyshevGrid, UniformGrid
from neuralfield.problems import exact_time_derivative, make_problem
from neuralfield.projection import ChebyshevBasis, dft_backward, dft_forward
from neuralfield.quadrature import clenshaw_curtis, gauss_legendre_2, trapezium_rule
from neuralfield.schemes import (
    SCHEMES,
    _two_tap,
    build_cheb_collocation,
    build_fe_collocation,
    build_fe_galerkin,
    build_spectral_galerkin,
    reconstruct_on,
)
from neuralfield.timestep import rk54_integrate

# every (scheme, variant) of the table, with whether it runs on the ring
ALL_BUILDERS = [
    pytest.param(builder, scheme == "spectral-galerkin", id=f"{scheme}/{variant}")
    for (scheme, variant), builder in SCHEMES.items()
]


class TestDecayReduction:
    @pytest.mark.parametrize("builder,periodic", ALL_BUILDERS)
    def test_rhs_is_pure_decay_for_zero_kernel_and_forcing(
        self, builder, periodic, rng, pure_decay_problem
    ):
        system = builder(pure_decay_problem(periodic=periodic), 8)
        a = rng.standard_normal(system.dim)
        assert np.array_equal(system.rhs(0.7, a), -a)

    @pytest.mark.parametrize("builder,periodic", ALL_BUILDERS)
    def test_rhs_deterministic_bitwise(self, builder, periodic, rng):
        problem = make_problem("P7p" if periodic else "P1")
        system = builder(problem, 8)
        a = rng.standard_normal(system.dim)
        assert np.array_equal(system.rhs(0.3, a), system.rhs(0.3, a))


class TestFeCollocation:
    def test_dimensions_and_initial(self, p1):
        system = build_fe_collocation(p1, 16)
        assert system.dim == 17
        x = np.linspace(-1.0, 1.0, 17)
        assert np.allclose(system.initial, p1.exact(x, 0.0), atol=1e-15)

    def test_rejects_periodic_problem(self, p7p):
        with pytest.raises(ValueError):
            build_fe_collocation(p7p, 16)

    def test_consistency_residual_is_second_order(self, p1):
        residuals = {}
        for n in (128, 256):
            system = build_fe_collocation(p1, n)
            x = UniformGrid(p1.interval, n).nodes
            state = system.encode(lambda xx: p1.exact(xx, 0.0))
            residuals[n] = np.max(
                np.abs(system.rhs(0.0, state) - exact_time_derivative(p1, x, 0.0))
            )
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
            errs[n] = np.max(np.abs(reconstruct_on(system, system.initial, xs) - p1.initial(xs)))
        assert 3.2 <= errs[64] / errs[128] <= 4.8


class TestChebCollocation:
    def test_cc_consistency_residual_tiny(self, p4):
        system = build_cheb_collocation(p4, 32, quadrature="cc")
        x = np.cos(np.pi * np.arange(33) / 32)
        state = system.encode(lambda xx: p4.exact(xx, 0.0))
        residual = np.max(np.abs(system.rhs(0.0, state) - exact_time_derivative(p4, x, 0.0)))
        assert residual <= 1e-8

    def test_trapezium_quadrature_pollutes_at_second_order(self, p4):
        # collocation degree fixed, panel count m grows: residual ~ m^-2
        x = np.cos(np.pi * np.arange(33) / 32)
        res = {}
        for m in (32, 64, 128):
            system = build_cheb_collocation(p4, 32, quadrature="trapezium", m=m)
            state = system.encode(lambda xx: p4.exact(xx, 0.0))
            res[m] = np.max(np.abs(system.rhs(0.0, state) - exact_time_derivative(p4, x, 0.0)))
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
            errs.append(np.max(np.abs(reconstruct_on(system, system.initial, xs) - p1.initial(xs))))
        ratios = np.array(errs[1:]) / np.array(errs[:-1])
        assert np.all(ratios <= rho**-4), ratios

    def test_rejects_periodic_and_bad_quadrature(self, p7p, p1):
        with pytest.raises(ValueError):
            build_cheb_collocation(p7p, 8)
        with pytest.raises(ValueError):
            build_cheb_collocation(p1, 8, quadrature="simpson")


class TestFeGalerkin:
    def test_gauss2_mass_matrix_matches_elementwise_assembly(self, p1):
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

    def test_lumped_equals_collocation_trajectory(self, p1):
        cps = np.linspace(0.0, 1.0, 51)
        coll = build_fe_collocation(p1, 64)
        lump = build_fe_galerkin(p1, 64, variant="lumped")
        traj_c = rk54_integrate(coll, 0.0, 1.0, 1e-6, 1e-9, cps)
        traj_l = rk54_integrate(lump, 0.0, 1.0, 1e-6, 1e-9, cps)
        assert np.max(np.abs(traj_c.states - traj_l.states)) <= 1e-12

    def test_lumped_rhs_equals_collocation_rhs(self, p1, rng):
        coll = build_fe_collocation(p1, 32)
        lump = build_fe_galerkin(p1, 32, variant="lumped")
        a = rng.standard_normal(33)
        assert np.max(np.abs(coll.rhs(0.4, a) - lump.rhs(0.4, a))) <= 1e-14

    def test_gauss2_consistency_residual_is_second_order(self, p1):
        res = {}
        for n in (64, 128):
            system = build_fe_galerkin(p1, n, variant="gauss2")
            x = UniformGrid(p1.interval, n).nodes
            state = system.encode(lambda xx: p1.exact(xx, 0.0))
            res[n] = np.max(np.abs(system.rhs(0.0, state) - exact_time_derivative(p1, x, 0.0)))
        assert 3.0 <= res[64] / res[128] <= 5.5

    def test_rejects_unknown_variant(self, p1):
        with pytest.raises(ValueError):
            build_fe_galerkin(p1, 8, variant="mass-free")


class TestSpectralGalerkin:
    def test_dim_is_packed_real(self, p7p):
        system = build_spectral_galerkin(p7p, 16)
        assert system.dim == 33
        assert system.initial.dtype == np.float64

    def test_consistency_with_exact_coefficients(self, p7p):
        system = build_spectral_galerkin(p7p, 16)
        m = 33
        x = 2.0 * np.pi * np.arange(m) / m
        state = system.encode(p7p.initial)
        target = dft_forward(exact_time_derivative(p7p, x, 0.0))
        assert np.max(np.abs(system.rhs(0.0, state) - target)) <= 1e-6

    def test_rhs_matches_direct_summation_oracle(self, p7p, rng):
        system = build_spectral_galerkin(p7p, 10)
        m = 21
        x = 2.0 * np.pi * np.arange(m) / m
        weight = (2.0 * np.pi / m) * p7p.kernel(x[:, None], x[None, :])
        a = rng.standard_normal(system.dim)
        samples = p7p.forcing(x, 0.25) + weight @ p7p.firing(dft_backward_direct(a))
        oracle = -a + dft_forward_direct(samples)
        assert np.max(np.abs(system.rhs(0.25, a) - oracle)) <= 1e-12

    def test_initial_reconstruction_is_spectral(self, p7p):
        # inverse(0.8 exp(-cos(z)^2)) is singular where cos(z)^2 = -log(1.25),
        # at Im z = asinh(sqrt(log 1.25)) = 0.4555: trigonometric
        # interpolation converges like exp(-0.4555 n) inside that strip
        strip = np.arcsinh(np.sqrt(np.log(1.25)))
        xs = 2.0 * np.pi * np.arange(2048) / 2048
        errs = []
        for n in range(8, 40, 4):
            system = build_spectral_galerkin(p7p, n)
            errs.append(np.max(np.abs(reconstruct_on(system, system.initial, xs) - p7p.initial(xs))))
        ratios = np.array(errs[1:]) / np.array(errs[:-1])
        assert np.all(ratios <= np.exp(-4.0 * strip)), ratios

    def test_rejects_compact_problem(self, p1):
        with pytest.raises(ValueError):
            build_spectral_galerkin(p1, 8)


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

    def test_diagnostics_relations(self, p1):
        system = build_fe_collocation(p1, 32)
        d = system.diagnostics
        assert d.beta_n(2.0) == pytest.approx(2.0 * d.weight_infnorm * 1.25)


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
    states = rk54_integrate(system, 0.0, 1.0, 1e-6, 1e-9, np.linspace(0.0, 1.0, 11)).states
    xs = np.linspace(problem.interval.a, problem.interval.b, 2048)
    stacked = reconstruct_on(system, states, xs)
    rows = np.array([reconstruct_on(system, a, xs) for a in states])
    assert stacked.shape == (11, 2048)
    if bitwise:
        assert np.array_equal(stacked, rows)
    else:
        assert np.max(np.abs(stacked - rows)) <= 1e-15 * np.max(np.abs(states))


@pytest.mark.parametrize(
    "scheme,problems",
    [
        ("fe-collocation", ("P1", "P2", "P3", "P4", "P5", "P6")),
        ("cheb-collocation", ("P1", "P2", "P3", "P4", "P5", "P6")),
        ("fe-galerkin", ("P1", "P2", "P3", "P4", "P5", "P6")),
        ("spectral-galerkin", ("P7p", "P8p", "P9p", "P10p")),
    ],
)
def test_weight_infnorm_stabilizes(scheme, problems):
    # the assembled weight matrix's norm is a convergent quadrature image of
    # the integral operator's norm; it must settle well before n = 256
    from neuralfield.harness import build_system

    for pid in problems:
        problem = make_problem(pid)
        coarse = build_system(problem, scheme, 128).diagnostics.weight_infnorm
        fine = build_system(problem, scheme, 256).diagnostics.weight_infnorm
        assert abs(fine - coarse) / coarse < 0.01, f"{scheme} {pid}"


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
        m = 2 * n + 1
        x = 2.0 * np.pi * np.arange(m) / m
        return x, (2.0 * np.pi / m) * kernel(x, x), dft_backward, dft_forward
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
def test_folded_rhs_matches_the_unfolded_formula(key, builder, n, rng):
    # the right-hand side folds the logistic's constant half into the forcing
    # and its slope into post(-W/2); unfolded, it is the parent formula
    problem = _fold_problem(key)
    system = builder(problem, n)
    nodes, weight, pre, post = _parent_form(key, problem, n)
    states = [system.initial, rng.standard_normal(system.dim), 0.3 * rng.standard_normal(system.dim)]
    for t, a in zip((0.0, 0.37, 0.91), states):
        oracle = post(problem.forcing(nodes, t) + weight @ problem.firing(pre(a))) - a
        rhs = system.rhs(t, a)
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
    assert abs(system.diagnostics.weight_infnorm - oracle) <= 1e-13 * oracle
