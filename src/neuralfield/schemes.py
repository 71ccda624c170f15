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
computed once at build. ``post`` maps a stack of rows, and K is its image
of the columns of -W / 2. ``drive`` takes a 1-D sequence of times and
returns one row per time, so the steppers evaluate it once per block of
Euler steps and once per rk54 attempt or run of steps from checkpoint to
checkpoint, not once per stage or step.
Per scheme (nodes X; weight W; pre; post; K):

- fe-collocation, fe-galerkin/lumped, cheb-collocation/cc and
  spectral-galerkin: the n + 1 uniform, n + 1 Chebyshev or 2n + 1 ring
  nodes; trapezium or Clenshaw-Curtis weights; identity; identity; -W/2,
  square. spectral-galerkin's state holds the samples at the nodes, and
  their Fourier coefficients are formed only to reconstruct or measure it.
- cheb-collocation/trapezium: n + 1 uniform panel nodes; trapezium
  weights; barycentric interpolation onto the panel nodes; identity;
  -W/2, (n + 1) x (n + 1).
- fe-galerkin/gauss2: two Gauss points per element; element-scaled kernel;
  tents at the Gauss points, a two-tap stencil per element; P = M^-1 L,
  the stencil's transpose L (the Gauss-rule load) and then the inverse of
  the same rule's exact, tridiagonal Gram matrix M of the tents; -P W / 2,
  (n + 1) x 2n, formed by two sweeps of M, with no dense solve.

``SCHEMES`` is the one list of these six (scheme, variant) pairs: it maps
each to a builder (problem, n) -> system, and the harness and the CLI read
their scheme names, selectors and variant labels from it.

Systems are immutable and their right-hand sides allocate no shared
scratch, so they are safe to evaluate concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .model import ChebyshevGrid, UniformGrid
from .problems import TestProblem
from .projection import ChebyshevBasis, TentBasis, dft_forward, fourier_reconstruct
from .quadrature import clenshaw_curtis, gauss_legendre_2, trapezium_rule

__all__ = [
    "SCHEMES",
    "SemiDiscreteSystem",
    "build_fe_collocation",
    "build_cheb_collocation",
    "build_fe_galerkin",
    "build_spectral_galerkin",
    "reconstruct_on",
]


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
    the tents. ``fn`` takes the nodes and may return one row per time, a
    (k, nodes) table, which ``encode`` maps to a (k, dim) stack of states,
    each row bitwise that of its own call. ``norm`` names the scheme's
    ambient space, "sup" for collocation and "l2" for Galerkin, and controls
    how errors are measured downstream: on a uniform grid of points, through
    ``reconstruct``, except that an "l2" state on the ring is read as the
    samples at the 2n + 1 ring nodes, whose L2 error the harness takes from
    their Fourier coefficients by discrete Parseval. ``dim`` is the length
    of a state; a study starts ``rhs`` from ``encode`` of the closed form at
    its t0.

    ``weight_infnorm`` is ||W_n||, the largest absolute row sum of W or of
    the nodal operator the scheme runs (W B for cheb-collocation/trapezium,
    P W T for gauss2), the quadrature image of the integral operator's norm:
    the scheme's factor of the bounds' exponent beta_n = T ||W_n|| sup|f'|.
    """

    drive: Callable
    rhs: Callable
    dim: int
    reconstruct: Callable
    weight_infnorm: float
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


def _two_tap_load(values: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The transpose of :func:`_two_tap` along axis 0, (2n, ...) -> (n + 1, ...):
    node e takes element e's Gauss-point pair against ``left``, node e + 1
    against ``right``; ``values`` is overwritten, to make no temporary."""
    even, odd = values[0::2], values[1::2]
    out = np.zeros((len(even) + 1,) + values.shape[1:])
    np.multiply(even, left[0], out=out[:-1])
    even *= right[0]
    out[1:] += even
    np.multiply(odd, right[1], out=even)
    out[1:] += even
    odd *= left[1]
    out[:-1] += odd
    return out


def _tent_gram_solve(rhs: np.ndarray) -> np.ndarray:
    """Solve G X = rhs in place along axis 0, G = tridiag(1, 4, 1) with 2 in
    both corners (6 / h times the tents' Gram matrix), by a forward and a
    backward (Thomas) sweep over all columns; G is strictly diagonally
    dominant, so needs no pivoting (Golub & Van Loan, Matrix Computations 4.3)."""
    rows = list(rhs)  # views: indexing a list is cheaper than the array
    last = len(rows) - 1
    pivots = [2.0]
    rows[0] /= 2.0
    for i in range(1, last + 1):
        pivots.append((2.0 if i == last else 4.0) - 1.0 / pivots[-1])
        rows[i] -= rows[i - 1]
        rows[i] /= pivots[-1]
    quotient = np.empty_like(rows[0])
    for i in range(last - 1, -1, -1):
        np.divide(rows[i + 1], pivots[i], out=quotient)
        rows[i] -= quotient
    return rhs


def _projected(
    problem: TestProblem,
    nodes: np.ndarray,
    columns: np.ndarray,
    scale,
    reconstruct: Callable,
    norm: str,
    pre: Callable = _identity,
    post: Callable = _identity,
    assemble: Callable = _identity,
    weight_infnorm: Callable = lambda slope: 2.0 * _infnorm(slope),
) -> SemiDiscreteSystem:
    """The system a' = -a + post(F(nodes, t) + W @ f(pre(a))), evaluated as
    a' = rhs(drive(t), a) with drive(t) = post(G(t)) and
    rhs(g, a) = g + K tanh(kappa pre(a) - mu) - a.

    W[i, j] = w(nodes_i, columns_j) * scale is the kernel matrix on the
    quadrature nodes ``columns``, scaled in place by the rule's weights (one
    per column) or by a number.

    f(u) = 1/2 - tanh(kappa u - mu) / 2 splits W @ f into the constant
    W @ 1 / 2, which joins the forcing in G(t), and the slope -W / 2, which
    ``assemble`` maps once into K, ``post`` applied to its columns. ``post``
    maps a row of values at the nodes, or a stack of rows, to one state per
    row, each bitwise that of its singleton stack, and may overwrite them.

    W is formed here and consumed: its row sums are taken, it is scaled in
    place by -1/2, exactly, and, where ``assemble`` makes a new K (gauss2),
    freed, so assembly holds one full-size temporary at most.
    ``weight_infnorm(K)`` gives ||W_n||: by default 2 ||K||, which is ||W|| to
    the bit (K = -W / 2 is a power-of-two scaling), and for
    cheb-collocation/trapezium and gauss2 the norm of post @ W @ pre = -2 K @ pre.
    """
    forcing = problem.forcing_at(nodes)
    kappa, mu = problem.firing.tanh_form
    weight = np.asarray(problem.kernel(nodes[:, None], columns[None, :]), dtype=float)
    weight *= scale
    half_row_sums = 0.5 * weight.sum(axis=1)
    weight *= -0.5
    slope = assemble(weight)
    del weight  # where assemble made a new K (gauss2), W is freed before the norm of K
    weight_norm = weight_infnorm(slope)

    shape = (len(slope),)

    def drive(ts):
        values = forcing(ts)
        values += half_row_sums
        return post(values)

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
        return post(np.array(fn(nodes), dtype=float))

    return SemiDiscreteSystem(
        drive=drive,
        rhs=rhs,
        dim=len(slope),
        reconstruct=reconstruct,
        weight_infnorm=weight_norm,
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
    norm. On P2 it runs 0.4179, 0.3456, 0.2915, 0.3056, 0.3472, 0.3327 at
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
        weight_infnorm=lambda slope: 2.0 * _infnorm(slope @ onto_quad),
    )


def build_fe_galerkin(problem: TestProblem, n: int, variant: str = "gauss2") -> SemiDiscreteSystem:
    """Galerkin scheme in the tent basis on a uniform grid.

    variant="lumped" evaluates every inner product with the trapezium rule,
    which diagonalizes the mass matrix; after dividing by the weights the
    equations coincide with fe-collocation, and the right-hand side is
    assembled through that identical path (no inner-product integration at
    run time).

    variant="gauss2" builds the load vector, for the forcing and for the
    double kernel integral, by 2-point Gauss per element, and its mass matrix
    as the same rule's Gram matrix of the tents, exact for their piecewise
    quadratic products: M = (h / 6) G, G = tridiag(1, 4, 1) with 2 in the
    corners. With the load L = (h / 2) T^T, T the two-tap interpolation onto
    the Gauss points, P = M^-1 L = G^-1 (3 T^T). K = -P W / 2 is the load on
    W's rows and two sweeps of G (:func:`_tent_gram_solve`), in place and in
    O(n^2); a row of the drive or of ``encode`` is its load times G^-1.
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
    load_left, load_right = 3.0 * hat_left, 3.0 * hat_right  # 3 T^T

    def project_rows(values):
        loads = np.ascontiguousarray(_two_tap_load(values.T, load_left, load_right).T)
        # one vector-matrix product per row, so a row does not depend on the stack
        return (loads[..., None, :] @ inverse_gram)[..., 0, :]

    system = _projected(
        problem, gauss_points, gauss_points, h / 2.0, TentBasis(grid).interpolate, "l2",
        pre=lambda a: _two_tap(a, hat_left, hat_right),
        post=project_rows,
        assemble=lambda weight: _tent_gram_solve(_two_tap_load(weight, load_left, load_right)),
        # K T is the load on K's columns, copied into contiguous rows so each row sums pairwise
        weight_infnorm=lambda k: 2.0 * _infnorm(
            _two_tap_load(k.T.copy(), hat_left, hat_right).T.copy()
        ),
    )
    # project_rows reads G^-1 only once built; formed here, after assembly has
    # freed W, it is never held beside W and its load
    inverse_gram = _tent_gram_solve(np.eye(n + 1))
    return system


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
    reconstruct it or to measure its L2 error, which the harness takes on
    c_0..c_n by discrete Parseval, with no reconstruction.

    So the rk54 controller weighs the error of each nodal value, as for
    every collocation scheme, not of each part of c_0..c_n; on P7p and P9p
    the two forms take the same steps and agree to roundoff after D.
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
    stack gives a (k, len(xs)) array, one row per state, from one call of
    the scheme's evaluator, which works over fixed-size blocks of points.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim not in (1, 2) or a.shape[-1] != system.dim:
        raise ValueError(
            f"state of shape {a.shape} is neither ({system.dim},) nor (k, {system.dim})"
        )
    return np.asarray(system.reconstruct(a, np.asarray(xs, dtype=float)), dtype=float)
