"""Core domain types: spatial grids and the sigmoidal firing rate.

Everything in this module is an immutable value object, safe to share across
concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Interval",
    "UniformGrid",
    "ChebyshevGrid",
    "FiringRate",
]


def _frozen(values) -> np.ndarray:
    out = np.asarray(values, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Interval:
    """A 1-D domain [a, b]; ``periodic`` identifies the endpoints (a ring)."""

    a: float
    b: float
    periodic: bool = False

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError(f"interval needs a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a


@dataclass(frozen=True, eq=False)
class UniformGrid:
    """Evenly spaced nodes a + i*h with spacing h = (b - a) / n.

    Non-periodic grids carry n + 1 nodes and end at b up to machine
    precision; periodic grids drop the right endpoint (n nodes) because it
    is identified with the left one.
    """

    interval: Interval
    n: int
    h: float = field(init=False)
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("grid needs n >= 1 elements")
        h = self.interval.length / self.n
        count = self.n if self.interval.periodic else self.n + 1
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "nodes", _frozen(self.interval.a + np.arange(count) * h))


@dataclass(frozen=True, eq=False)
class ChebyshevGrid:
    """Chebyshev points cos(i*pi/n), i = 0..n, ordered from +1 down to -1."""

    n: int
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("Chebyshev grid needs degree n >= 1")
        nodes = np.cos(np.pi * np.arange(self.n + 1) / self.n)
        object.__setattr__(self, "nodes", _frozen(nodes))


INVERSE_DOMAIN_ERROR = (
    "firing-rate inverse needs an activity strictly inside (0, 1), "
    "no smaller than the least normal float"
)
_LEAST_ACTIVITY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class FiringRate:
    """Logistic voltage-to-activity map r(u) = 1 / (1 + exp(gain * (u - threshold))).

    The curve decreases strictly from 1 to 0, maps all of R into (0, 1), and
    satisfies |r'(u)| <= gain/4 with equality at u = threshold. Evaluation
    only ever exponentiates non-positive arguments, so it cannot overflow
    however large the voltage.
    """

    gain: float
    threshold: float

    def __post_init__(self) -> None:
        if not self.gain > 0:
            raise ValueError("gain must be positive")

    def __call__(self, u):
        s = self.gain * (np.asarray(u, dtype=float) - self.threshold)
        z = np.exp(-np.abs(s))
        # z / (1 + z) for s >= 0 and 1 / (1 + z) below: one division serves both branches
        out = np.where(s >= 0, z, 1.0) / (1.0 + z)
        return out if out.ndim else out[()]

    def inverse(self, r):
        """Exact functional inverse: the voltage u with r(u) = r.

        Only defined for activities strictly inside (0, 1), and refused below
        the least normal float, where (1 - r) / r would overflow; the
        manufactured solutions keep their argument there by construction. The
        log-odds threshold + log((1 - r) / r) / gain is evaluated into one
        array in place.
        """
        r = np.asarray(r, dtype=float)
        # two reductions and no boolean table; a NaN minimum or maximum fails
        # both comparisons, and an empty r has no point to check
        if r.size and not (r.min() >= _LEAST_ACTIVITY and r.max() < 1.0):
            raise ValueError(INVERSE_DOMAIN_ERROR)
        out = np.asarray(1.0 - r)
        out /= r
        np.log(out, out=out)
        out /= self.gain
        out += self.threshold
        return out if out.ndim else out[()]

    @property
    def sup_derivative(self) -> float:
        return self.gain / 4.0

    @property
    def tanh_form(self) -> tuple[float, float]:
        """Coefficients (kappa, mu) of r(u) = 1/2 - tanh(kappa * u - mu) / 2.

        The identity 1 / (1 + e^s) = (1 - tanh(s / 2)) / 2 gives
        kappa = gain / 2 and mu = gain * threshold / 2. It splits r into a
        constant half and a slope, which lets a linear map applied to r(u)
        be folded into its constant and slope once. Evaluated in floating
        point, 1/2 - tanh(kappa * u - mu) / 2 differs from :meth:`__call__`,
        the exact reference, by at most one machine epsilon (2.2e-16)
        absolute over [-1e6, 1e6]. The error is absolute, not relative:
        activities far below epsilon come out as 0 or a multiple of it.
        """
        return self.gain / 2.0, self.gain * self.threshold / 2.0

