"""Assembly of the four semi-discrete systems in one operator form.

Every scheme integrates the state a in the projected form

    a' = -a + post(F(X, t) + W f(pre(a)))

on quadrature nodes X with weight matrix W: ``pre`` maps the state to
values at X, the firing rate f acts pointwise there, and ``post`` maps
values at X back to the state space, so that ``encode(fn) = post(fn(X))``
is the scheme's projector and the quadrature is enslaved to it. Everything
but the state is therefore known when the scheme is built. The logistic's
tanh form f(u) = 1/2 - tanh(kappa u - mu) / 2 and the linearity of
``post`` fold W into a constant half and a slope, so a right-hand side
evaluates

    a' = post(G(t)) + K tanh(kappa pre(a) - mu) - a,
    G(t) = F(X, t) + W 1 / 2,   K = post(-W / 2),

with K, W 1 / 2 and every factor of F(X, t) that depends on X alone
computed once at build. Per scheme (nodes X; weight W; pre; post; K):

- fe-collocation and fe-galerkin/lumped: the n + 1 uniform nodes;
  trapezium weights; identity; identity; -W/2, (n + 1) x (n + 1).
- cheb-collocation/cc: the n + 1 Chebyshev nodes; Clenshaw-Curtis weights;
  identity; identity; -W/2, (n + 1) x (n + 1).
- cheb-collocation/trapezium: m + 1 uniform panel nodes; trapezium
  weights; barycentric interpolation onto the panel nodes; identity;
  -W/2, (n + 1) x (m + 1).
- fe-galerkin/gauss2: two Gauss points per element; element-scaled
  kernel; tents at the Gauss points, a two-tap stencil per element; the
  mass-matrix solve of the Gauss-rule load vector, P = M^-1 L,
  precomputed as one dense matrix; -P W / 2, (n + 1) x 2n.
- spectral-galerkin: the 2n + 1 uniform ring nodes; trapezium weights;
  inverse real DFT of the packed coefficients; forward real DFT; the
  forward DFT of the columns of -W/2, (2n + 1) x (2n + 1).

``SCHEMES`` is the one list of these six (scheme, variant) pairs: it maps
each to a builder (problem, n) -> system, and the harness and the CLI read
their scheme names, selectors and variant labels from it.

Systems are immutable and their right-hand sides allocate no shared
scratch, so they are safe to evaluate concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .model import ChebyshevGrid, UniformGrid
from .problems import TestProblem
from .projection import ChebyshevBasis, TentBasis, dft_backward, dft_forward, fourier_reconstruct
from .quadrature import clenshaw_curtis, gauss_legendre_2, trapezium_rule

__all__ = [
    "SCHEMES",
    "SchemeDiagnostics",
    "SemiDiscreteSystem",
    "build_fe_collocation",
    "build_cheb_collocation",
    "build_fe_galerkin",
    "build_spectral_galerkin",
    "reconstruct_on",
]


@dataclass(frozen=True)
class SchemeDiagnostics:
    """Computable proxies for the operator norms entering the error bounds.

    ``weight_infnorm`` is the maximum absolute row sum of the assembled
    weight matrix, or of the nodal operator that the scheme runs where the
    state is mapped onto other quadrature nodes (W B for
    cheb-collocation/trapezium, P W L for fe-galerkin/gauss2): the discrete
    stand-in for the norm of the projected integral operator (for continuous
    kernels that operator norm equals the largest row integral, and the row
    sum is its quadrature image).
    """

    weight_infnorm: float
    firing_derivative_sup: float

    def beta_n(self, duration: float) -> float:
        """Growth exponent duration * ||W_n|| * sup|f'| of the two-sided bound."""
        return duration * self.weight_infnorm * self.firing_derivative_sup


@dataclass(frozen=True, eq=False)
class SemiDiscreteSystem:
    """State-space form of one spatial discretization.

    ``rhs(t, a)`` is pure; ``reconstruct(a, xs)`` maps a state of shape
    (dim,), or a stack of states of shape (k, dim), and evaluation points
    to function values, one row per state; ``encode(fn)`` maps a spatial
    function to the state representing it (nodal samples, a Galerkin
    projection, or packed real Fourier coefficients depending on the
    scheme). ``norm`` names the scheme's ambient space, "sup" for
    collocation and "l2" for Galerkin, and controls how errors are measured
    downstream.
    """

    rhs: Callable
    initial: np.ndarray
    reconstruct: Callable
    diagnostics: SchemeDiagnostics
    norm: str
    encode: Callable

    @property
    def dim(self) -> int:
        return len(self.initial)


def _require_compact(problem: TestProblem, scheme: str) -> None:
    if problem.interval.periodic:
        raise ValueError(f"{scheme} needs a compact (non-periodic) domain, got a ring")


def _infnorm(matrix: np.ndarray) -> float:
    return float(np.abs(matrix).sum(axis=1).max())


def _identity(values):
    return values


def _two_tap(a, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Values of the tent interpolant of ``a`` at the two Gauss points of each
    element, element-major: a[e] * left[q] + a[e + 1] * right[q] at point q
    of element e."""
    return (a[:-1, None] * left + a[1:, None] * right).ravel()


def _kernel_matrix(problem: TestProblem, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    return np.asarray(problem.kernel(rows[:, None], cols[None, :]), dtype=float)


def _projected(
    problem: TestProblem,
    nodes: np.ndarray,
    weight: np.ndarray,
    reconstruct: Callable,
    norm: str,
    pre: Callable = _identity,
    post: Callable = _identity,
    weight_infnorm: Optional[Callable] = None,
) -> SemiDiscreteSystem:
    """The system a' = -a + post(F(nodes, t) + weight @ f(pre(a))), evaluated as
    a' = post(G(t)) + K tanh(kappa pre(a) - mu) - a.

    f(u) = 1/2 - tanh(kappa u - mu) / 2 splits weight @ f into the constant
    weight @ 1 / 2, which joins the forcing in G(t), and the slope
    -weight / 2, which ``post`` maps once into K = post(-weight / 2). So
    ``post`` must be linear and accept a matrix, acting on its columns.

    ``weight_infnorm(K)`` gives the ||W_n|| entering beta_n; by default it
    is the row-sum norm of ``weight`` itself. cheb-collocation/trapezium and
    gauss2 pass that of their nodal operator post @ weight @ pre = -2 K @ pre
    instead, which reuses the product in K.
    """
    firing = problem.firing
    forcing = problem.forcing_at(nodes)
    kappa, mu = firing.tanh_form
    half_row_sums = 0.5 * weight.sum(axis=1)
    slope = post(-0.5 * weight)

    def rhs(t, a):
        return post(forcing(t) + half_row_sums) + slope @ np.tanh(kappa * pre(a) - mu) - a

    def encode(fn):
        return post(np.asarray(fn(nodes), dtype=float))

    return SemiDiscreteSystem(
        rhs=rhs,
        initial=encode(problem.initial),
        reconstruct=reconstruct,
        diagnostics=SchemeDiagnostics(
            _infnorm(weight) if weight_infnorm is None else weight_infnorm(slope),
            firing.sup_derivative,
        ),
        norm=norm,
        encode=encode,
    )


def _fe_nodal(problem: TestProblem, n: int, norm: str) -> SemiDiscreteSystem:
    grid = UniformGrid(problem.interval, n)
    rule = trapezium_rule(problem.interval, n)
    weight = _kernel_matrix(problem, grid.nodes, grid.nodes) * rule.weights[None, :]
    return _projected(problem, grid.nodes, weight, TentBasis(grid).interpolate, norm)


def build_fe_collocation(problem: TestProblem, n: int) -> SemiDiscreteSystem:
    """Piecewise-linear collocation on a uniform grid.

    The nonlocal term is discretized by the composite trapezium rule on the
    same nodes, whose second order matches the tent basis, giving the dense
    matrix W[i, j] = w(x_i, x_j) * rho_j applied to the fired state.
    """
    _require_compact(problem, "fe-collocation")
    if n < 2:
        raise ValueError("fe-collocation needs n >= 2")
    return _fe_nodal(problem, n, "sup")


def build_cheb_collocation(
    problem: TestProblem,
    n: int,
    quadrature: str = "cc",
    m: Optional[int] = None,
) -> SemiDiscreteSystem:
    """Chebyshev-Lagrange collocation on [-1, 1].

    quadrature="cc" pairs the spectral basis with Clenshaw-Curtis weights on
    the collocation nodes themselves, so the fired state enters directly.
    quadrature="trapezium" deliberately mismatches the basis with an m-panel
    composite trapezium rule on separate evenly spaced nodes (m defaults to
    n): the state is interpolated barycentrically onto those nodes first,
    and the rule's second order caps the observable convergence rate however
    accurate the projector is.
    """
    _require_compact(problem, "cheb-collocation")
    if n < 2:
        raise ValueError("cheb-collocation needs n >= 2")
    iv = problem.interval
    if not (iv.a == -1.0 and iv.b == 1.0):
        raise ValueError("cheb-collocation is implemented on [-1, 1] only")
    basis = ChebyshevBasis(ChebyshevGrid(n))
    x = basis.grid.nodes

    if quadrature == "cc":
        weight = _kernel_matrix(problem, x, x) * clenshaw_curtis(n).weights[None, :]
        return _projected(problem, x, weight, basis.interpolate, "sup")
    if quadrature != "trapezium":
        raise ValueError(f"unknown quadrature {quadrature!r}; use 'cc' or 'trapezium'")
    panels = n if m is None else int(m)
    if panels < 1:
        raise ValueError("trapezium variant needs m >= 1 panels")
    rule = trapezium_rule(iv, panels)
    onto_quad = basis.interpolation_matrix(rule.nodes)
    weight = _kernel_matrix(problem, x, rule.nodes) * rule.weights[None, :]
    return _projected(
        problem, x, weight, basis.interpolate, "sup", pre=lambda a: onto_quad @ a,
        # K = -W / 2 exactly, so 2 ||K B|| is ||W B|| to the bit
        weight_infnorm=lambda slope: 2.0 * _infnorm(slope @ onto_quad),
    )


def build_fe_galerkin(problem: TestProblem, n: int, variant: str = "gauss2") -> SemiDiscreteSystem:
    """Galerkin scheme in the tent basis on a uniform grid.

    variant="lumped" evaluates every inner product with the trapezium rule,
    which diagonalizes the mass matrix; after dividing by the weights the
    equations coincide with fe-collocation, and the right-hand side is
    assembled through that identical path (no inner-product integration at
    run time).

    variant="gauss2" keeps the exact tridiagonal mass matrix (h/3 at the two
    corner diagonal entries, 2h/3 inside, h/6 off the diagonal) and builds
    the load vector by 2-point Gauss per element, both for the forcing inner
    products and for the double kernel integral. The mass solve of the load
    map is done once at build time, and so is its product with the kernel,
    so a right-hand side evaluation is a two-tap stencil onto the Gauss
    points and two (n + 1) x 2n products.
    """
    _require_compact(problem, "fe-galerkin")
    if n < 2:
        raise ValueError("fe-galerkin needs n >= 2")
    if variant == "lumped":
        return _fe_nodal(problem, n, "l2")
    if variant != "gauss2":
        raise ValueError(f"unknown variant {variant!r}; use 'lumped' or 'gauss2'")

    grid = UniformGrid(problem.interval, n)
    x, h = grid.nodes, grid.h
    ref = gauss_legendre_2().nodes

    # two Gauss points per element, element-major ordering
    gauss_points = (x[:-1, None] + (1.0 + ref[None, :]) * (h / 2.0)).ravel()
    hat_left = (1.0 - ref) / 2.0  # element's left hat at the two Gauss points
    hat_right = (1.0 + ref) / 2.0
    local_interp = np.zeros((2 * n, n + 1))
    rows = 2 * np.arange(n)
    for q in range(2):
        local_interp[rows + q, np.arange(n)] = hat_left[q]
        local_interp[rows + q, np.arange(n) + 1] = hat_right[q]
    load_map = (h / 2.0) * local_interp.T  # integrates Gauss-point values against each hat

    band = np.zeros((2, n + 1))
    band[0, 1:] = h / 6.0
    band[1, :] = 2.0 * h / 3.0
    band[1, 0] = band[1, n] = h / 3.0
    projector = cho_solve_banded((cholesky_banded(band), False), load_map)

    weight = (h / 2.0) * _kernel_matrix(problem, gauss_points, gauss_points)
    return _projected(
        problem,
        gauss_points,
        weight,
        TentBasis(grid).interpolate,
        "l2",
        pre=lambda a: _two_tap(a, hat_left, hat_right),
        post=lambda v: projector @ v,
        # K = -P W / 2 exactly, so 2 ||K L|| is ||P W L|| to the bit
        weight_infnorm=lambda slope: 2.0 * _infnorm(slope @ local_interp),
    )


def build_spectral_galerkin(problem: TestProblem, n: int) -> SemiDiscreteSystem:
    """Fourier-Galerkin scheme on the ring with pseudospectral evaluation.

    The state holds the 2n + 1 real numbers [Re c_0, Re c_1, Im c_1, ...,
    Re c_n, Im c_n] of the modes j = -n..n, the negative modes being the
    conjugates of the positive ones. Each evaluation transforms the state
    back to the m = 2n + 1 sample grid x_l = 2*pi*l/m, applies the firing
    rate pointwise, multiplies by the kernel matrix scaled with the uniform
    trapezium weight 2*pi/m, adds the forcing samples, and transforms
    forward again.
    """
    if not problem.interval.periodic:
        raise ValueError("spectral-galerkin needs a periodic domain (ring)")
    if n < 1:
        raise ValueError("spectral-galerkin needs n >= 1")
    grid = UniformGrid(problem.interval, 2 * n + 1)
    weight = grid.h * _kernel_matrix(problem, grid.nodes, grid.nodes)
    return _projected(
        problem, grid.nodes, weight, fourier_reconstruct, "l2", pre=dft_backward, post=dft_forward
    )


# (scheme, variant) -> builder (problem, n) -> system; the variant is the
# CSV's label, and the selector the builder takes where it has one
SCHEMES: dict[tuple[str, str], Callable[[TestProblem, int], SemiDiscreteSystem]] = {
    ("fe-collocation", "trapezium"): build_fe_collocation,
    ("cheb-collocation", "cc"): partial(build_cheb_collocation, quadrature="cc"),
    ("cheb-collocation", "trapezium"): partial(build_cheb_collocation, quadrature="trapezium"),
    ("fe-galerkin", "gauss2"): partial(build_fe_galerkin, variant="gauss2"),
    ("fe-galerkin", "lumped"): partial(build_fe_galerkin, variant="lumped"),
    ("spectral-galerkin", "fft"): build_spectral_galerkin,
}


def reconstruct_on(system: SemiDiscreteSystem, a, xs) -> np.ndarray:
    """Function values of ``a`` on an arbitrary evaluation grid.

    ``a`` is one state of shape (dim,) or a stack of shape (k, dim); a
    stack gives a (k, len(xs)) array, one row per state, from a single
    evaluation map.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim not in (1, 2) or a.shape[-1] != system.dim:
        raise ValueError(
            f"state of shape {a.shape} is neither ({system.dim},) nor (k, {system.dim})"
        )
    return np.asarray(system.reconstruct(a, np.asarray(xs, dtype=float)), dtype=float)
