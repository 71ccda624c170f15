"""Quadrature rules: composite trapezium, Clenshaw-Curtis, and 2-point Gauss.

Rules are immutable node/weight pairs and integration is a plain weighted
sum. There is no adaptivity anywhere: each discretization commits to one
fixed rule whose order matches its basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ChebyshevGrid, Interval, UniformGrid, _frozen

__all__ = [
    "QuadratureRule",
    "trapezium_rule",
    "clenshaw_curtis",
    "gauss_legendre_2",
]

_REFERENCE = Interval(-1.0, 1.0)


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights on an interval; weights sum to the interval length."""

    nodes: np.ndarray
    weights: np.ndarray
    interval: Interval

    def __post_init__(self) -> None:
        nodes = _frozen(self.nodes)
        weights = _frozen(self.weights)
        if nodes.shape != weights.shape:
            raise ValueError("nodes and weights must pair up one to one")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def integrate(self, fn) -> float:
        """Weighted sum over the nodes; ``fn`` must accept an ndarray."""
        return float(self.weights @ np.asarray(fn(self.nodes), dtype=float))


def trapezium_rule(interval: Interval, n: int) -> QuadratureRule:
    """Composite trapezium rule with n panels.

    Non-periodic intervals get n + 1 nodes with halved endpoint weights.
    Periodic intervals get n nodes of uniform weight h (the endpoint is
    identified away), the form that is spectrally accurate for smooth
    periodic integrands.
    """
    if n < 1:
        raise ValueError("trapezium rule needs n >= 1 panels")
    grid = UniformGrid(interval, n)
    if interval.periodic:
        weights = np.full(n, grid.h)
    else:
        weights = np.full(n + 1, grid.h)
        weights[0] = weights[-1] = grid.h / 2.0
    return QuadratureRule(grid.nodes, weights, interval)


def clenshaw_curtis(n: int) -> QuadratureRule:
    """Clenshaw-Curtis rule on [-1, 1]: Chebyshev nodes, weights via inverse FFT.

    Exact for every polynomial of degree <= n. The weights follow
    Waldvogel's O(n log n) DFT construction (BIT Numer. Math. 43, 2003),
    which inverse-transforms the even Chebyshev moments 2/(1 - 4k^2).
    """
    if n < 2:
        raise ValueError("Clenshaw-Curtis needs n >= 2")
    odd = np.arange(1, n, 2)
    m = n - len(odd)
    v0 = np.concatenate([2.0 / (odd * (odd - 2.0)), [1.0 / odd[-1]], np.zeros(m)])
    v = -v0[:-1] - v0[-1:0:-1]
    g0 = -np.ones(n)
    g0[len(odd)] += n
    g0[m] += n
    g = g0 / (n * n - 1 + (n % 2))
    weights = np.fft.ifft(v + g).real
    weights = np.concatenate([weights, weights[:1]])
    return QuadratureRule(ChebyshevGrid(n).nodes, weights, _REFERENCE)


def gauss_legendre_2() -> QuadratureRule:
    """Two-point Gauss-Legendre rule on the reference element [-1, 1].

    Nodes at -1/sqrt(3) and +1/sqrt(3) with unit weights; exact for cubics.
    """
    r = 1.0 / np.sqrt(3.0)
    return QuadratureRule(np.array([-r, r]), np.array([1.0, 1.0]), _REFERENCE)
