"""Basis evaluation and interpolation for the three projector families.

Piecewise-linear tents on a uniform grid, the Chebyshev-Lagrange basis
evaluated with the second barycentric formula, and real trigonometric
polynomials of odd length m = 2n + 1, held as numpy's complex half-spectrum
c_0..c_n of their samples (c_{-j} = conj(c_j) for real samples). Every
evaluator takes one state or a stack of states as rows and evaluates them
over blocks of points, so its temporaries fit a fixed budget however many
points it is asked for: the result is the only (states x points) table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ChebyshevGrid, UniformGrid, _frozen

__all__ = [
    "TentBasis",
    "ChebyshevBasis",
    "dft_forward",
    "fourier_reconstruct",
]


def _states(values, size: int) -> np.ndarray:
    """One state of shape (size,) or a stack of shape (k, size), as floats."""
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2) or values.shape[-1] != size:
        raise ValueError(f"expected {size} nodal values per state, got shape {values.shape}")
    return values


# bytes of temporaries one block of points may take in _by_point_blocks, and
# the multiple of points a block's width is rounded down to: OpenBLAS takes
# another kernel for a narrow block, so blocks of 120 points, whose 8-point
# tail was one, changed the bits of a 51-state barycentric product; multiples
# of 64 points kept them for one state and for 19 or more at n = 8..512, but
# not for every stack of 2 to 18 states, which then agree to roundoff
_BLOCK_BYTES = 256 * 1024
_BLOCK_ALIGN = 64


def _by_point_blocks(evaluate, values, x, point_bytes: int):
    """``evaluate(values, xs)`` over blocks xs of the points x, written into
    one table with values' leading shape and a column per point; a single
    point x gives values' leading shape.

    ``point_bytes`` is what ``evaluate`` holds per point of a block; blocks
    are as wide as the budget allows, in multiples of 64 points and at least
    64. The table takes the first block's memory layout (a tent gather is
    F-ordered, and the L2 norm's product sums it in that order), and one
    block is the only temporary besides it. Points that fit in one block
    are evaluated in one call, whose result is returned as it is.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    width = max(_BLOCK_ALIGN, _BLOCK_BYTES // point_bytes // _BLOCK_ALIGN * _BLOCK_ALIGN)
    out = evaluate(values, xs[:width])
    if len(xs) > width:
        first, out = out, np.empty_like(out, shape=out.shape[:-1] + xs.shape)
        out[..., :width] = first
        del first
        for start in range(width, len(xs), width):
            out[..., start : start + width] = evaluate(values, xs[start : start + width])
    return out[..., 0][()] if np.ndim(x) == 0 else out


@dataclass(frozen=True, eq=False)
class TentBasis:
    """Lagrange basis of shifted tents on a uniform grid.

    Tent i peaks at node i, vanishes at the neighbouring nodes, and the
    family sums to one everywhere on the interval (the two boundary tents
    have their outward half truncated).
    """

    grid: UniformGrid

    def __post_init__(self) -> None:
        if self.grid.interval.periodic:
            raise ValueError("tent basis needs a compact (non-periodic) grid")

    @property
    def size(self) -> int:
        return self.grid.n + 1

    def interpolate(self, values, x):
        """Continuous piecewise-linear interpolant of nodal values.

        ``values`` is one state of shape (size,) or a stack of shape
        (k, size); the result has one row per state. The element index
        comes from direct arithmetic on (x - a) / h, not from a search, so
        evaluation is O(1) per point and state. Blocks of points are
        gathered and both end values weighted in place, so one block of
        each end value is held besides the result.
        """
        values = _states(values, self.size)
        iv = self.grid.interval
        xs = np.asarray(x, dtype=float)
        if not (np.all(xs >= iv.a) and np.all(xs <= iv.b)):  # refuses NaN too
            raise ValueError(f"evaluation point outside [{iv.a}, {iv.b}] or not a number")
        h, last = self.grid.h, self.grid.n - 1

        def evaluate(values, xs):
            idx = np.clip((xs - iv.a) // h, 0, last).astype(int)
            t = (xs - (iv.a + idx * h)) / h
            out = values[..., idx]
            out *= 1.0 - t
            right = values[..., idx + 1]
            right *= t
            out += right
            return out

        # two end values per state and about four point vectors
        return _by_point_blocks(evaluate, values, xs, 8 * (2 * (values.size // self.size) + 4))


@dataclass(frozen=True, eq=False)
class ChebyshevBasis:
    """Chebyshev-Lagrange basis evaluated with the second barycentric formula.

    Barycentric evaluation (Berrut & Trefethen, SIAM Rev. 46, 2004) is O(n)
    per point and numerically stable; for these nodes the weights reduce to
    the sign-alternating pattern with halved endpoints.
    """

    grid: ChebyshevGrid
    barycentric_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        w = np.ones(self.grid.n + 1)
        w[1::2] = -1.0
        w[0] *= 0.5
        w[-1] *= 0.5
        object.__setattr__(self, "barycentric_weights", _frozen(w))

    @property
    def size(self) -> int:
        return self.grid.n + 1

    def _ratios(self, xs):
        """R[p, j] = w_j / (x_p - x_j) at the finite 1-D points xs, formed in
        place, with its row sums, the points whose row sum is not finite and,
        for each, the node it hits. Callers ignore the division's errors.

        A point that coincides with a node divides by zero there, so its row
        sum is infinite; so is that of a point a subnormal distance away, for
        which the nodal value is the interpolant to machine precision.
        """
        ratio = np.subtract.outer(xs, self.grid.nodes)
        np.divide(self.barycentric_weights, ratio, out=ratio)
        sums = ratio.sum(axis=1)
        hits = np.flatnonzero(~np.isfinite(sums))
        return ratio, sums, hits, np.abs(ratio[hits]).argmax(axis=1)

    @staticmethod
    def _finite_points(x) -> np.ndarray:
        """The points x as a 1-D float array; a non-finite point would pass
        for a node hit, so it raises ``ValueError``."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.all(np.isfinite(xs)):
            raise ValueError("evaluation point is not finite")
        return xs

    def interpolation_matrix(self, x) -> np.ndarray:
        """Matrix mapping nodal values to interpolant values at the points x.

        A point that coincides exactly with a node gets a unit row, so nodal
        data is reproduced bitwise.
        """
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ratio, sums, hits, nodes = self._ratios(self._finite_points(x))
            ratio /= sums[:, None]
        ratio[hits] = 0.0
        ratio[hits, nodes] = 1.0
        return ratio

    def interpolate(self, values, x):
        """Barycentric interpolant of nodal values at the points x.

        ``values`` is one state of shape (size,) or a stack of shape
        (k, size). For each block of points the second barycentric formula
        is applied to every state in one product, (values @ R.T) /
        R.sum(axis=1), with no normalised matrix, so R spans one block, not
        every point; a point that hits a node takes that node's value
        exactly.
        """
        values = _states(values, self.size)
        self._finite_points(x)

        def evaluate(values, xs):
            ratio, sums, hits, nodes = self._ratios(xs)
            out = values @ ratio.T
            out /= sums
            out[..., hits] = values[..., nodes]
            return out

        # a row of R and one value per state
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return _by_point_blocks(evaluate, values, x, 8 * (self.size + values.size // self.size))


def dft_forward(samples) -> np.ndarray:
    """Complex coefficients c_0..c_n of real samples, one row per state.

    c_j = (1/m) sum_l v_l exp(-i j x_l) for real samples v_l on
    x_l = 2*pi*l/m with m = 2n + 1 odd: numpy's "forward" norm, which puts
    the 1/m here so the coefficients approximate the continuous Fourier
    coefficients directly. Real samples give c_{-j} = conj(c_j) and a real
    c_0, so c_0..c_n determine the transform. ``samples`` is one vector of
    length m or a stack of shape (k, m), each row transformed by the same
    FFT call into a row of n + 1 coefficients.
    """
    v = np.asarray(samples, dtype=float)
    if v.shape[-1] % 2 == 0:
        raise ValueError(f"transform length must be odd, got {v.shape[-1]}")
    return np.fft.rfft(v, norm="forward")


def _unit_powers(xs: np.ndarray, n: int) -> np.ndarray:
    """Table of e^(i j x) for j = 1..n (rows) and the points x (columns).

    Built as powers of e^(i x): each pass multiplies the rows filled so far
    by the last of them, doubling the filled rows with one complex multiply
    per entry.
    """
    powers = np.empty((n, len(xs)), dtype=complex)
    powers[:1] = np.exp(1j * xs)
    filled = 1
    while filled < n:
        step = min(filled, n - filled)
        np.multiply(powers[:step], powers[filled - 1], out=powers[filled : filled + step])
        filled += step
    return powers


def fourier_reconstruct(coeffs, x):
    """Trigonometric polynomial c_0 + 2 Re sum_j c_j e^(i j x) of complex
    coefficients c_0..c_n, evaluated at the points x.

    ``coeffs`` is one vector of n + 1 coefficients or a stack of shape
    (k, n + 1). For each block of points the table of e^(i j x) is built
    once and applied to every vector in one complex product with c_1..c_n,
    so the table spans one block, not every point. For coefficients that
    came from real samples (:func:`dft_forward`) this is the trigonometric
    interpolant through those samples.
    """
    c = np.asarray(coeffs, dtype=complex)
    n = c.shape[-1] - 1
    c0 = c[..., :1].real

    def evaluate(c1, xs):
        out = np.multiply((c1 @ _unit_powers(xs, n)).real, 2.0)
        out += c0
        return out

    # a column of the table, e^(i x) and its temporary and, per vector, the
    # complex product and its doubled real part
    return _by_point_blocks(evaluate, c[..., 1:], x, 16 * (n + 2) + 24 * (c.size // (n + 1)))
