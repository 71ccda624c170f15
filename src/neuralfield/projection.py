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

        The element index comes from direct arithmetic on (x - a) / h, not
        from a search, so evaluation is O(1) per point.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != (self.size,):
            raise ValueError(f"expected {self.size} nodal values, got {values.shape}")
        iv = self.grid.interval
        xs = np.asarray(x, dtype=float)
        if np.any(xs < iv.a) or np.any(xs > iv.b):
            raise ValueError(f"evaluation point outside [{iv.a}, {iv.b}]")
        idx = np.clip((xs - iv.a) // self.grid.h, 0, self.grid.n - 1).astype(int)
        t = (xs - (iv.a + idx * self.grid.h)) / self.grid.h
        out = values[idx] * (1.0 - t) + values[idx + 1] * t
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
        values = np.asarray(values, dtype=float)
        if values.shape != (self.size,):
            raise ValueError(f"expected {self.size} nodal values, got {values.shape}")
        out = self.interpolation_matrix(x) @ values
        return out[0] if np.ndim(x) == 0 else out


def _odd_length(values) -> int:
    m = len(values)
    if m % 2 == 0:
        raise ValueError(f"transform length must be odd, got {m}")
    return m


def dft_forward(samples) -> np.ndarray:
    """Packed real coefficients [Re c_0, Re c_1, Im c_1, ..., Re c_n, Im c_n].

    c_j = (1/m) sum_l v_l exp(-i j x_l) for real samples v_l on
    x_l = 2*pi*l/m with m = 2n + 1 odd; the 1/m factor sits here so the
    coefficients approximate the continuous Fourier coefficients directly.
    Real samples give c_{-j} = conj(c_j) and Im c_0 = 0, so those are not
    stored and the packed vector has m entries.
    """
    v = np.asarray(samples, dtype=float)
    m = _odd_length(v)
    c = np.fft.rfft(v) / m
    out = c.view(np.float64)[1:].copy()
    out[0] = c[0].real
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

    For coefficients that came from real samples this is the trigonometric
    interpolant through those samples.
    """
    a = np.asarray(coeffs, dtype=float)
    n = (_odd_length(a) - 1) // 2
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    phase = np.outer(xs, np.arange(1, n + 1))
    out = a[0] + 2.0 * (np.cos(phase) @ a[1::2] - np.sin(phase) @ a[2::2])
    return out[0] if np.ndim(x) == 0 else out
