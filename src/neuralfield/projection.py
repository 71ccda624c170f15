"""Basis evaluation and interpolation for the three projector families.

Piecewise-linear tents on a uniform grid, the Chebyshev-Lagrange basis
evaluated with the second barycentric formula, and real trigonometric
polynomials of odd length m = 2n + 1, held as numpy's complex half-spectrum
c_0..c_n of their samples (c_{-j} = conj(c_j) for real samples). Every
evaluator takes one state or a stack of states as rows.
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
        evaluation is O(1) per point and state. Both end values are weighted
        in place, so at most one table besides the result is held.
        """
        values = _states(values, self.size)
        iv = self.grid.interval
        xs = np.asarray(x, dtype=float)
        if not (np.all(xs >= iv.a) and np.all(xs <= iv.b)):  # refuses NaN too
            raise ValueError(f"evaluation point outside [{iv.a}, {iv.b}] or not a number")
        idx = np.clip((xs - iv.a) // self.grid.h, 0, self.grid.n - 1).astype(int)
        t = (xs - (iv.a + idx * self.grid.h)) / self.grid.h
        out = values[..., idx]
        out *= 1.0 - t
        right = values[..., idx + 1]
        right *= t
        out += right
        return out if out.ndim else out[()]


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

    def _ratios(self, x):
        """R[p, j] = w_j / (x_p - x_j), formed in place, with its row sums, the
        points whose row sum is not finite and, for each, the node it hits.

        A point that coincides with a node divides by zero there, so its row
        sum is infinite; so is that of a point a subnormal distance away, for
        which the nodal value is the interpolant to machine precision. A
        non-finite point would pass for a hit, so it raises ``ValueError``.
        """
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.all(np.isfinite(xs)):
            raise ValueError("evaluation point is not finite")
        ratio = np.subtract.outer(xs, self.grid.nodes)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.divide(self.barycentric_weights, ratio, out=ratio)
            sums = ratio.sum(axis=1)
        hits = np.flatnonzero(~np.isfinite(sums))
        return ratio, sums, hits, np.abs(ratio[hits]).argmax(axis=1)

    def interpolation_matrix(self, x) -> np.ndarray:
        """Matrix mapping nodal values to interpolant values at the points x.

        A point that coincides exactly with a node gets a unit row, so nodal
        data is reproduced bitwise.
        """
        ratio, sums, hits, nodes = self._ratios(x)
        with np.errstate(invalid="ignore"):
            ratio /= sums[:, None]
        ratio[hits] = 0.0
        ratio[hits, nodes] = 1.0
        return ratio

    def interpolate(self, values, x):
        """Barycentric interpolant of nodal values at the points x.

        ``values`` is one state of shape (size,) or a stack of shape
        (k, size). The second barycentric formula is applied to every state
        in one product, (values @ R.T) / R.sum(axis=1), with no normalised
        matrix; a point that hits a node takes that node's value exactly.
        """
        values = _states(values, self.size)
        ratio, sums, hits, nodes = self._ratios(x)
        with np.errstate(invalid="ignore"):
            out = values @ ratio.T
            out /= sums
        out[..., hits] = values[..., nodes]
        return out[..., 0][()] if np.ndim(x) == 0 else out


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


# points per e^(i j x) table in fourier_reconstruct: at n = 256 one table
# takes 1 MiB where the 2048-point evaluation grid would take 8 MiB, and
# the smaller table is as fast or faster from n = 8 to 256
_POINT_BLOCK = 256


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
    (k, n + 1). For each block of up to 256 points the table of e^(i j x)
    is built once and applied to every vector in one complex product with
    c_1..c_n, so the table's size does not grow with the number of points.
    For coefficients that came from real samples (:func:`dft_forward`) this
    is the trigonometric interpolant through those samples.
    """
    c = np.asarray(coeffs, dtype=complex)
    n = c.shape[-1] - 1
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty(c.shape[:-1] + xs.shape)
    for start in range(0, len(xs), _POINT_BLOCK):
        block = slice(start, start + _POINT_BLOCK)
        out[..., block] = c[..., :1].real + 2.0 * (c[..., 1:] @ _unit_powers(xs[block], n)).real
    return out[..., 0][()] if np.ndim(x) == 0 else out
