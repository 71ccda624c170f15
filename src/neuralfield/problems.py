"""The ten manufactured-solution benchmarks, P1-P6 on [-1, 1] and P7p-P10p on a ring.

Every benchmark combines the logistic firing rate with a kernel of the
separable form xpart(x) * exp(q(y)) * modulation(y), where q is the same
exponent that shapes the solution envelope. Because of that pairing, the
voltage u(x, t) = inverse_rate(amplitude * exp(-decay*t - q(x))) turns the
nonlocal term into a multiple of the envelope itself, and choosing the
forcing accordingly makes u an exact solution. Measured solver error is
then pure discretization error.

The spatial profile q(x) is x^2 on the compact domain and cos(x)^2 on the
ring; a single closure is shared by kernel, solution, time derivative and
forcing so the four can never drift apart. Each quantity has one closed
form: u and its time derivative pointwise, the forcing bound to the nodes
a scheme evaluates it at, and the modulation's integral over the domain as
an exact number (see :func:`modulation_integral`), so building a problem
runs no quadrature. The bound forcing is the time-dependent part of each
scheme's drive in a' = rhs(drive(t), a) and, like the drive, takes a 1-D
sequence of times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import INVERSE_DOMAIN_ERROR, FiringRate, Interval
from .quadrature import QuadratureRule

__all__ = [
    "TestProblem",
    "PROBLEM_IDS",
    "canonical_id",
    "make_problem",
    "modulation_integral",
    "continuum_residual",
]

BOX = Interval(-1.0, 1.0)
RING = Interval(0.0, 2.0 * np.pi, periodic=True)

# shared by every benchmark; only the kernel modulation varies
AMPLITUDE = 0.8
DECAY = 0.5
GAIN = 5.0
THRESHOLD = 0.3
# the envelope's peak AMPLITUDE * e^rate and its trough AMPLITUDE * e^(rate - 1), with
# rate = -DECAY * t, compared as exponents on Python floats: no exp, so no overflow
# however negative t is
_PEAK_RATE = -math.log(AMPLITUDE)  # peak < 1
_TROUGH_RATE = math.log(np.finfo(float).tiny / AMPLITUDE)  # trough >= the least normal float

# id -> (kernel modulation, on the ring?, its integral over the domain)
_MODULATIONS: dict[str, tuple[Callable, bool, float]] = {
    "P1": (
        (lambda y: np.exp(y) * np.cos(y)),
        False,
        math.sin(1.0) * math.cosh(1.0) + math.cos(1.0) * math.sinh(1.0),
    ),
    "P2": ((lambda y: y**20), False, 2.0 / 21.0),
    "P3": ((lambda y: 1.0 / (1.0 + 16.0 * y**2)), False, math.atan(4.0) / 2.0),
    "P4": ((lambda y: np.exp(-(y**2))), False, math.sqrt(math.pi) * math.erf(1.0)),
    "P5": ((lambda y: np.exp(-y)), False, math.e - 1.0 / math.e),
    "P6": ((lambda y: np.abs(y) ** 3), False, 0.5),
    "P7p": ((lambda y: np.cos(y) ** 2), True, math.pi),
    "P8p": ((lambda y: 1.0 / (1.0 + 16.0 * np.cos(y) ** 2)), True, 2.0 * math.pi / math.sqrt(17.0)),
    "P9p": ((lambda y: np.abs(np.cos(y)) ** 3), True, 8.0 / 3.0),
    "P10p": ((lambda y: np.cos(y) ** 20), True, 2.0 * math.pi * math.comb(20, 10) / 2.0**20),
}

PROBLEM_IDS = tuple(_MODULATIONS)


@dataclass(frozen=True)
class TestProblem:
    """One benchmark: a closed-form solution plus everything schemes assemble from.

    ``exact(x, t)`` is the solution u and ``time_derivative(x, t)`` its
    closed-form time derivative, both pointwise. ``forcing_at(X)`` binds the
    forcing to fixed nodes X, with every factor that depends on X alone
    computed once; it is the forcing's only form. The bound forcing maps a
    1-D sequence of times to one row F(X, t) per time, each bitwise that of
    the singleton batch [t], and one time outside the envelope's domain
    fails the whole sequence before any array work.
    """

    id: str
    interval: Interval
    kernel: Callable
    firing: FiringRate
    forcing_at: Callable
    exact: Callable
    time_derivative: Callable


def canonical_id(token: str) -> str:
    """Resolve a case-insensitive problem token to its canonical id."""
    wanted = token.strip().lower()
    for pid in PROBLEM_IDS:
        if pid.lower() == wanted:
            return pid
    raise ValueError(f"unknown problem id {token!r}; expected one of {', '.join(PROBLEM_IDS)}")


def modulation_integral(problem_id: str) -> float:
    """The kernel modulation's integral over the domain, in closed form.

    On the box they are elementary: P1's (e (sin 1 + cos 1) - e^-1 (cos 1 -
    sin 1)) / 2 comes from the antiderivative e^y (sin y + cos y) / 2 and is
    evaluated as sin 1 cosh 1 + cos 1 sinh 1, which rounds correctly; P4's is
    sqrt(pi) erf(1). On the ring, P8p's is the integral of
    d theta / (1 + 16 cos^2 theta) over a period, 2 pi / sqrt(1 * 17); P9p's
    is four times that of cos^3 over [0, pi/2]; and P10p's, of cos^20, is
    2 pi C(20, 10) / 2^20 by Wallis' formula.
    """
    return _MODULATIONS[canonical_id(problem_id)][2]


def _checked_rate(t) -> float:
    """The envelope's time exponent -DECAY * t, once the envelope is known to
    lie strictly inside (0, 1) at every x.

    0 <= q <= 1 on both domains, so the envelope lies between its trough and
    its peak: two scalar checks stand for the inverse's check at every x,
    and a trough no smaller than the least normal float keeps
    (1 - env) / env finite.
    """
    rate = -DECAY * float(t)
    if not (rate < _PEAK_RATE and rate - 1.0 >= _TROUGH_RATE):
        raise ValueError(INVERSE_DOMAIN_ERROR)
    return rate


def _manufactured(pid: str, mod: Callable, periodic: bool, mod_integral: float) -> TestProblem:
    firing = FiringRate(gain=GAIN, threshold=THRESHOLD)
    if periodic:
        interval = RING
        exponent = lambda x: np.cos(x) ** 2  # noqa: E731
    else:
        interval = BOX
        exponent = lambda x: np.asarray(x) ** 2  # noqa: E731

    # kernel and envelope evaluate into one array, exponentiated and scaled in
    # place, and return a scalar for scalar input

    def kernel(x, y):
        out = np.asarray(-exponent(x) + exponent(y), dtype=float)
        np.exp(out, out=out)
        out *= mod(y)
        return out if out.ndim else out[()]

    def envelope(x, t):
        out = np.asarray(-DECAY * t - exponent(x), dtype=float)
        np.exp(out, out=out)
        out *= AMPLITUDE
        return out if out.ndim else out[()]

    def exact(x, t):
        return firing.inverse(envelope(x, t))

    def time_derivative(x, t):
        # the envelope g has dg/dt = -DECAY g and the inverse firing rate the
        # slope -1 / (GAIN g (1 - g)), so the chain rule leaves DECAY / (GAIN (1 - g))
        return DECAY / (GAIN * (1.0 - envelope(x, t)))

    def forcing_at(nodes):
        # F = du/dt + u - mod_integral * env, for env = A e^(-DECAY t - q(X)).
        # env = e^rate * A e^-q(X); with d = e^-rate - A e^-q(X), 1 - env = e^rate * d.
        # So DECAY / (GAIN (1 - env)) = (DECAY / GAIN) e^-rate / d, and the log-odds
        # inverse log((1 - env) / env) / GAIN + THRESHOLD splits into log(d) / GAIN
        # plus THRESHOLD - log(A e^-q(X)) / GAIN: 8 array operations per call.
        # _checked_rate keeps e^-rate > A >= A e^-q(X), so d > 0, and e^-rate finite
        scale = AMPLITUDE * np.exp(-exponent(np.asarray(nodes, dtype=float)))
        shift = THRESHOLD - np.log(scale) / GAIN
        modulated = mod_integral * scale

        def at(ts):
            # the times are checked whole before any array work, and their
            # e^-rate and e^rate enter as columns: the same scalars across a
            # row, so each row is bitwise the value at its time alone
            rates = [_checked_rate(t) for t in ts]
            shrink = np.array([math.exp(-rate) for rate in rates])[:, None]
            grow = np.array([math.exp(rate) for rate in rates])[:, None]
            d = shrink - scale
            return ((DECAY / GAIN) * shrink) / d + np.log(d) / GAIN + shift - grow * modulated

        return at

    return TestProblem(
        id=pid,
        interval=interval,
        kernel=kernel,
        firing=firing,
        forcing_at=forcing_at,
        exact=exact,
        time_derivative=time_derivative,
    )


def make_problem(problem_id: str) -> TestProblem:
    """Build one of the ten benchmarks; ids are case-insensitive."""
    pid = canonical_id(problem_id)
    return _manufactured(pid, *_MODULATIONS[pid])


def continuum_residual(problem: TestProblem, x: float, t: float, ref_quad: QuadratureRule) -> float:
    """Defect of the closed form in the field equation at one point (x, t).

    The nonlocal term is evaluated with the supplied high-resolution rule
    and the forcing is bound to the single node x; by construction the true
    residual is zero, so what comes back is the rule's quadrature error on
    the kernel modulation plus the bound forcing's rounding (a few ulp).
    """
    firing = problem.firing
    integral = ref_quad.integrate(lambda y: problem.kernel(x, y) * firing(problem.exact(y, t)))
    forcing = problem.forcing_at(x)([t]).item()
    return float(problem.time_derivative(x, t) + problem.exact(x, t) - integral - forcing)
