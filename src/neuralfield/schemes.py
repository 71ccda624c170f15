"""Assembly of the four semi-discrete systems in one operator form.

Every scheme integrates the state a in the projected form

    a' = -a + post(F(X, t) + W f(pre(a)))

on quadrature nodes X with weight matrix W: ``pre`` maps the state to
values at X, the firing rate f acts pointwise there, and ``post`` maps
values at X back to the state space, so that ``encode(fn) = post(fn(X))``
is the scheme's projector and the quadrature is enslaved to it. Everything
but the state is therefore known when the scheme is built. The logistic's
tanh form f(u) = 1/2 - tanh(kappa u - mu) / 2 and the linearity of
``post`` fold W into a constant half and a slope, so the right-hand side
splits into a drive that depends on t alone and a field of the state:

    a' = rhs(drive(t), a),
    drive(t) = post(G(t)),   G(t) = F(X, t) + W 1 / 2,
    rhs(g, a) = g + K tanh(kappa pre(a) - mu) - a,   K = post(-W / 2),

with K, W 1 / 2 and every factor of F(X, t) that depends on X alone
computed once at build. ``drive`` takes a 1-D sequence of times and
returns one row per time, so the steppers evaluate it once per rk54
attempt and once per block of Euler steps, not once per stage or step.
Per scheme (nodes X; weight W; pre; post; K):

- fe-collocation and fe-galerkin/lumped: the n + 1 uniform nodes;
  trapezium weights; identity; identity; -W/2, (n + 1) x (n + 1).
- cheb-collocation/cc: the n + 1 Chebyshev nodes; Clenshaw-Curtis weights;
  identity; identity; -W/2, (n + 1) x (n + 1).
- cheb-collocation/trapezium: n + 1 uniform panel nodes; trapezium
  weights; barycentric interpolation onto the panel nodes; identity;
  -W/2, (n + 1) x (n + 1).
- fe-galerkin/gauss2: two Gauss points per element; element-scaled kernel;
  tents at the Gauss points, a two-tap stencil per element; P = M^-1 L,
  the Gauss-rule load map L solved against the same rule's (exact) Gram
  matrix M of the tents, as one dense matrix; -P W / 2, (n + 1) x 2n.
- spectral-galerkin: the 2n + 1 uniform ring nodes; trapezium weights;
  identity; identity; -W/2, (2n + 1) x (2n + 1). The state holds the
  samples at the nodes, and their complex Fourier coefficients c_0..c_n
  are formed only to reconstruct (see :func:`build_spectral_galerkin`).

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

from .model import ChebyshevGrid, UniformGrid
from .problems import TestProblem
from .projection import ChebyshevBasis, TentBasis, dft_forward, fourier_reconstruct
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
    """State-space form of one spatial discretization, a' = rhs(drive(t), a).

    ``drive(ts)`` maps a 1-D sequence of times to one row of shape (dim,)
    per time, post(F(X, t) + W 1 / 2), the part of the right-hand side that
    depends on time alone; each row is bitwise that of the singleton batch
    [t]. ``rhs(g, a)`` is the rest, g + K tanh(kappa pre(a) - mu) - a, for g
    a row of ``drive``; it is pure and raises ``TypeError`` when g is not an
    array of shape (dim,), such as a time. ``reconstruct(a, xs)`` maps a
    state of shape (dim,), or a stack of states of shape (k, dim), and
    evaluation points to function values, one row per state; ``encode(fn)``
    maps a spatial function to the state representing it: its values at the
    scheme's nodes, or, for fe-galerkin/gauss2, its Galerkin projection onto
    the tents. ``norm`` names the scheme's ambient space, "sup" for
    collocation and "l2" for Galerkin, and controls how errors are measured
    downstream. ``dim`` is the length of a state; a study starts ``rhs``
    from ``encode`` of the closed form at its t0.
    """

    drive: Callable
    rhs: Callable
    dim: int
    reconstruct: Callable
    diagnostics: SchemeDiagnostics
    norm: str
    encode: Callable


def _require_compact(problem: TestProblem, scheme: str) -> None:
    if problem.interval.periodic:
        raise ValueError(f"{scheme} needs a compact (non-periodic) domain, got a ring")


def _infnorm(matrix: np.ndarray) -> float:
    """Largest absolute row sum of ``matrix``, with |.| taken over blocks of
    32 rows so that no full-size copy is made; each row is still summed
    whole, so the row sums are bitwise those of np.abs(matrix).sum(axis=1)."""
    blocks = range(0, len(matrix), 32)
    return float(np.max([np.abs(matrix[i : i + 32]).sum(axis=1).max() for i in blocks]))


def _identity(values):
    return values


def _two_tap(a, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Values of the tent interpolant of ``a`` at the two Gauss points of each
    element, element-major: a[e] * left[q] + a[e + 1] * right[q] at point q
    of element e."""
    return (a[:-1, None] * left + a[1:, None] * right).ravel()


def _two_tap_infnorm(matrix: np.ndarray, left: np.ndarray, right: np.ndarray) -> float:
    """||matrix @ L|| with L the (2n) x (n + 1) map of :func:`_two_tap`, from
    the stencil on the columns of ``matrix``: column e of the product takes
    element e's Gauss-point pair of columns against ``left``, and column
    e + 1 the same pair against ``right``."""
    rows = len(matrix)
    pairs = matrix.reshape(-1, 2)  # one element's Gauss-point pair per row
    product = np.zeros((rows, matrix.shape[1] // 2 + 1))
    product[:, :-1] = (pairs @ left).reshape(rows, -1)
    product[:, 1:] += (pairs @ right).reshape(rows, -1)
    return _infnorm(product)


def _projected(
    problem: TestProblem,
    nodes: np.ndarray,
    columns: np.ndarray,
    scale,
    reconstruct: Callable,
    norm: str,
    pre: Callable = _identity,
    post: Callable = _identity,
    weight_infnorm: Optional[Callable] = None,
) -> SemiDiscreteSystem:
    """The system a' = -a + post(F(nodes, t) + W @ f(pre(a))), evaluated as
    a' = rhs(drive(t), a) with drive(t) = post(G(t)) and
    rhs(g, a) = g + K tanh(kappa pre(a) - mu) - a.

    W[i, j] = w(nodes_i, columns_j) * scale is the kernel matrix on the
    quadrature nodes ``columns``, scaled in place by the rule's weights (one
    per column) or by a number.

    f(u) = 1/2 - tanh(kappa u - mu) / 2 splits W @ f into the constant
    W @ 1 / 2, which joins the forcing in G(t), and the slope -W / 2, which
    ``post`` maps once into K = post(-W / 2). So ``post`` must be linear and
    accept a matrix, acting on its columns. Only fe-galerkin/gauss2 has a
    ``post``, its projector; gauss2 and cheb-collocation/trapezium have a
    ``pre``, the map of the nodal state onto their quadrature nodes. Every
    other scheme integrates its values at the quadrature nodes themselves.

    W is formed here, so this function holds its only reference, and it is
    consumed. Its row sums and, by default, its norm are taken first, the
    norm without a copy of W. Then it is scaled in place by -1/2 into K,
    which is exact, so K keeps its bits. For gauss2, ``post`` maps the
    scaled W into a new K, and W is freed before the norm of K is taken. So
    assembly holds at most one full-size temporary at a time.

    ``weight_infnorm(K)`` gives the ||W_n|| entering beta_n; by default it
    is the row-sum norm of W itself. cheb-collocation/trapezium and gauss2
    pass that of their nodal operator post @ W @ pre = -2 K @ pre instead,
    which reuses the product in K.
    """
    firing = problem.firing
    forcing = problem.forcing_at(nodes)
    kappa, mu = firing.tanh_form
    weight = np.asarray(problem.kernel(nodes[:, None], columns[None, :]), dtype=float)
    weight *= scale
    half_row_sums = 0.5 * weight.sum(axis=1)
    weight_norm = _infnorm(weight) if weight_infnorm is None else None
    weight *= -0.5
    slope = post(weight)
    del weight  # where post made a new K (gauss2), W is freed before the norm of K
    if weight_norm is None:
        weight_norm = weight_infnorm(slope)

    shape = (len(slope),)

    def drive(ts):
        values = forcing(ts)
        values += half_row_sums
        # post maps each row alone, so a row does not depend on the batch
        return values if post is _identity else np.stack([post(row) for row in values])

    def rhs(g, a):
        if getattr(g, "shape", None) != shape:
            raise TypeError(
                f"rhs(g, a) takes g = drive(ts)[i], a row of the drive of shape {shape}, "
                f"not {type(g).__name__} of shape {getattr(g, 'shape', ())}"
            )
        # g + K tanh(kappa pre(a) - mu) - a, with the sums in that order
        fired = kappa * pre(a)
        fired -= mu
        np.tanh(fired, out=fired)
        out = slope @ fired
        out += g
        out -= a
        return out

    def encode(fn):
        return post(np.asarray(fn(nodes), dtype=float))

    return SemiDiscreteSystem(
        drive=drive,
        rhs=rhs,
        dim=len(slope),
        reconstruct=reconstruct,
        diagnostics=SchemeDiagnostics(weight_norm, firing.sup_derivative),
        norm=norm,
        encode=encode,
    )


def _fe_nodal(problem: TestProblem, n: int, norm: str) -> SemiDiscreteSystem:
    grid = UniformGrid(problem.interval, n)
    weights = trapezium_rule(problem.interval, n).weights
    return _projected(problem, grid.nodes, grid.nodes, weights, TentBasis(grid).interpolate, norm)


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
    problem: TestProblem, n: int, quadrature: str = "cc"
) -> SemiDiscreteSystem:
    """Chebyshev-Lagrange collocation on [-1, 1].

    quadrature="cc" pairs the spectral basis with Clenshaw-Curtis weights on
    the collocation nodes themselves, so the fired state enters directly.
    quadrature="trapezium" deliberately mismatches the basis with an n-panel
    composite trapezium rule on separate evenly spaced nodes: the state is
    interpolated barycentrically onto those nodes first, and the rule's
    second order caps the observable convergence rate however accurate the
    projector is.

    The trapezium variant's ||W B||, and so its beta_n, does not settle as n
    grows: the n-panel rule cannot integrate the kernel against degree-n
    Lagrange polynomials, and the interpolation's aliasing shows in the
    norm. On P2 it runs 0.418, 0.346, 0.292, 0.306, 0.347, 0.333 at
    n = 16, 32, 64, 128, 256, 512, where every other scheme's ||W_n|| settles.
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
        return _projected(problem, x, x, clenshaw_curtis(n).weights, basis.interpolate, "sup")
    if quadrature != "trapezium":
        raise ValueError(f"unknown quadrature {quadrature!r}; use 'cc' or 'trapezium'")
    rule = trapezium_rule(iv, n)
    onto_quad = basis.interpolation_matrix(rule.nodes)
    return _projected(
        problem, x, rule.nodes, rule.weights, basis.interpolate, "sup",
        pre=lambda a: onto_quad @ a,
        # K = -W / 2 exactly, so 2 ||K B|| is ||W B|| to the bit
        weight_infnorm=lambda slope: 2.0 * _infnorm(slope @ onto_quad),
    )


def _gauss2_projector(n: int, h: float, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """P = M^-1 L, (n + 1) x 2n: the Gauss-rule load map L solved against the
    same rule's Gram matrix M of the tents.

    L = (h / 2) T^T and M = L T, with T the dense 2n x (n + 1) interpolation
    onto the Gauss points (``left`` and ``right``: the element's left and
    right hats there). T, L, M and the solve's copies are all freed on
    return, before the kernel matrix is built.
    """
    interp = np.zeros((2 * n, n + 1))
    rows, elements = 2 * np.arange(n), np.arange(n)
    for q in range(2):
        interp[rows + q, elements] = left[q]
        interp[rows + q, elements + 1] = right[q]
    load_map = (h / 2.0) * interp.T  # integrates Gauss-point values against each hat
    mass = load_map @ interp
    del interp  # the solve copies M and L and returns a third matrix
    return np.linalg.solve(mass, load_map)


def build_fe_galerkin(problem: TestProblem, n: int, variant: str = "gauss2") -> SemiDiscreteSystem:
    """Galerkin scheme in the tent basis on a uniform grid.

    variant="lumped" evaluates every inner product with the trapezium rule,
    which diagonalizes the mass matrix; after dividing by the weights the
    equations coincide with fe-collocation, and the right-hand side is
    assembled through that identical path (no inner-product integration at
    run time).

    variant="gauss2" builds the load vector, for the forcing and for the
    double kernel integral, by 2-point Gauss per element, and its mass matrix
    as the same rule's Gram matrix of the tents: exact, as their products are
    quadratic per element (h/3 at the two corner diagonal entries, 2h/3
    inside, h/6 off the diagonal). :func:`_gauss2_projector` forms the
    projector P = M^-1 L once, from a dense interpolation matrix that it
    frees before the kernel matrix is built, and P is multiplied into the
    kernel once at build time, so a right-hand side evaluation is a two-tap
    stencil and two (n + 1) x 2n products. ||P W L|| = 2 ||K L|| is taken
    with the same two-tap stencil on the columns of K (see
    :func:`_two_tap_infnorm`), with no dense L.
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
    projector = _gauss2_projector(n, h, hat_left, hat_right)
    return _projected(
        problem,
        gauss_points,
        gauss_points,
        h / 2.0,
        TentBasis(grid).interpolate,
        "l2",
        pre=lambda a: _two_tap(a, hat_left, hat_right),
        post=lambda v: projector @ v,
        # K = -P W / 2 exactly, so 2 ||K L|| is ||P W L||
        weight_infnorm=lambda slope: 2.0 * _two_tap_infnorm(slope, hat_left, hat_right),
    )


def _ring_interpolate(samples, x):
    """Trigonometric interpolant through samples at the 2n + 1 ring nodes,
    one state of shape (m,) or a stack of shape (k, m), evaluated at x: one
    forward FFT of the whole stack, then :func:`fourier_reconstruct`."""
    return fourier_reconstruct(dft_forward(samples), x)


def build_spectral_galerkin(problem: TestProblem, n: int) -> SemiDiscreteSystem:
    """Fourier-Galerkin scheme on the ring, integrated in nodal values.

    The Galerkin state is the Fourier coefficients c = D u of the modes
    j = -n..n, D the DFT (:func:`dft_forward`) of the samples u at
    x_l = 2*pi*l/m, m = 2n + 1; real samples give c_{-j} = conj(c_j), so
    the 2n + 1 real numbers in c_0..c_n carry the state. Its integrals use
    the trapezium rule on those samples, with the uniform weight 2*pi/m.
    That rule is tied to the projector: on m samples D is square and
    invertible, so the Galerkin system c' = -c + D(F(X, t) + W f(D^-1 c))
    is, exactly, the nodal system u' = -u + F(X, t) + W f(u) in the
    coordinates c = D u (the pseudospectral Galerkin-collocation identity;
    Boyd, Chebyshev and Fourier Spectral Methods, 2nd ed., ch. 4). The
    scheme integrates the nodal form, which needs no transform in the
    right-hand side; a state is carried into coefficients only to
    reconstruct it.

    So the rk54 controller weighs the error of each nodal value against
    atol + rtol * max(|u_l|, |u_new_l|), as for every collocation scheme,
    not that of each real or imaginary part of c_0..c_n. On P7p and P9p the
    two forms take the same steps, and their trajectories agree to roundoff
    after D.
    """
    if not problem.interval.periodic:
        raise ValueError("spectral-galerkin needs a periodic domain (ring)")
    if n < 1:
        raise ValueError("spectral-galerkin needs n >= 1")
    grid = UniformGrid(problem.interval, 2 * n + 1)
    return _projected(problem, grid.nodes, grid.nodes, grid.h, _ring_interpolate, "l2")


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
