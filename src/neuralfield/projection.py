"""Basis evaluation and interpolation for the three projector families.

Piecewise-linear tents on a uniform grid, the Chebyshev-Lagrange basis
evaluated with the second barycentric formula, and real trigonometric
polynomials of odd length 2n + 1, stored as packed real Fourier
coefficients with a forward/backward transform pair to samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ChebyshevGrid, UniformGrid, _frozen

__all__ = [
    "TentBasis",
    "ChebyshevBasis",
    "dft_forward",
    "dft_backward",
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

    def eval(self, i: int, x):
        if not 0 <= i <= self.grid.n:
            raise IndexError(f"basis index {i} outside 0..{self.grid.n}")
        x = np.asarray(x, dtype=float)
        out = np.maximum(0.0, 1.0 - np.abs(x - self.grid.nodes[i]) / self.grid.h)
        return out if out.ndim else out[()]

    def interpolate(self, values, x):
        """Continuous piecewise-linear interpolant of nodal values.

        ``values`` is one state of shape (size,) or a stack of shape
        (k, size); the result has one row per state. The element index
        comes from direct arithmetic on (x - a) / h, not from a search, so
        evaluation is O(1) per point and state.
        """
        values = _states(values, self.size)
        iv = self.grid.interval
        xs = np.asarray(x, dtype=float)
        if np.any(xs < iv.a) or np.any(xs > iv.b):
            raise ValueError(f"evaluation point outside [{iv.a}, {iv.b}]")
        idx = np.clip((xs - iv.a) // self.grid.h, 0, self.grid.n - 1).astype(int)
        t = (xs - (iv.a + idx * self.grid.h)) / self.grid.h
        out = values[..., idx] * (1.0 - t) + values[..., idx + 1] * t
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

    def interpolation_matrix(self, x) -> np.ndarray:
        """Matrix mapping nodal values to interpolant values at the points x.

        A point that coincides exactly with a node gets a unit row, so nodal
        data is reproduced bitwise.
        """
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        diff = xs[:, None] - self.grid.nodes[None, :]
        hit_row, hit_col = np.nonzero(diff == 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = self.barycentric_weights / diff
            mat = ratio / ratio.sum(axis=1, keepdims=True)
        mat[hit_row, :] = 0.0
        mat[hit_row, hit_col] = 1.0
        return mat

    def interpolate(self, values, x):
        """Barycentric interpolant of nodal values at the points x.

        ``values`` is one state of shape (size,) or a stack of shape
        (k, size); the interpolation matrix is built once and applied to
        every state in one product.
        """
        values = _states(values, self.size)
        out = values @ self.interpolation_matrix(x).T
        return out[..., 0][()] if np.ndim(x) == 0 else out


def _odd_length(values, axis: int = -1) -> int:
    m = np.shape(values)[axis]
    if m % 2 == 0:
        raise ValueError(f"transform length must be odd, got {m}")
    return m


def dft_forward(samples) -> np.ndarray:
    """Packed real coefficients [Re c_0, Re c_1, Im c_1, ..., Re c_n, Im c_n].

    c_j = (1/m) sum_l v_l exp(-i j x_l) for real samples v_l on
    x_l = 2*pi*l/m with m = 2n + 1 odd; the 1/m factor sits here so the
    coefficients approximate the continuous Fourier coefficients directly.
    Real samples give c_{-j} = conj(c_j) and Im c_0 = 0, so those are not
    stored and the packed vector has m entries. ``samples`` is one vector
    of length m or a stack of columns of shape (m, k), each column
    transformed into one packed column, so that a linear map on samples can
    be carried into coefficient space.
    """
    v = np.asarray(samples, dtype=float)
    _odd_length(v, axis=0)
    c = np.fft.rfft(v, axis=0, norm="forward")
    out = np.empty(v.shape)
    out[0] = c[0].real
    out[1::2] = c[1:].real
    out[2::2] = c[1:].imag
    return out


def dft_backward(coeffs) -> np.ndarray:
    """Inverse of :func:`dft_forward`: samples v_l = sum_j c_j exp(i j x_l)."""
    a = np.asarray(coeffs, dtype=float)
    m = _odd_length(a)
    c = np.concatenate(([a[0]], a[1::2] + 1j * a[2::2]))
    return np.fft.irfft(c, m) * m


def fourier_reconstruct(coeffs, x):
    """Trigonometric polynomial c_0 + 2 sum_j (Re c_j cos(j x) - Im c_j sin(j x))
    of packed coefficients, evaluated at the points x.

    ``coeffs`` is one packed vector of odd length m or a stack of shape
    (k, m); cos(j x) and sin(j x) are built once and applied to every
    vector in one product. For coefficients that came from real samples
    this is the trigonometric interpolant through those samples.
    """
    a = np.asarray(coeffs, dtype=float)
    n = (_odd_length(a) - 1) // 2
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    phase = np.outer(xs, np.arange(1, n + 1))
    out = a[..., :1] + 2.0 * (a[..., 1::2] @ np.cos(phase).T - a[..., 2::2] @ np.sin(phase).T)
    return out[..., 0][()] if np.ndim(x) == 0 else out
