"""The ten manufactured-solution benchmarks, P1-P6 on [-1, 1] and P7p-P10p on a ring.

Every benchmark combines the logistic firing rate with a kernel of the
separable form xpart(x) * exp(q(y)) * modulation(y), where q is the same
exponent that shapes the solution envelope. Because of that pairing, the
voltage u(x, t) = inverse_rate(amplitude * exp(-decay*t - q(x))) turns the
nonlocal term into a multiple of the envelope itself, and choosing the
forcing accordingly makes u an exact solution. Measured solver error is
then pure discretization error.

The spatial profile q(x) is x^2 on the compact domain and cos(x)^2 on the
ring; a single closure is shared by kernel, solution, and forcing so the
three can never drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import INVERSE_DOMAIN_ERROR, FiringRate, Interval
from .quadrature import QuadratureRule, clenshaw_curtis, trapezium_rule

__all__ = [
    "TestProblem",
    "PROBLEM_IDS",
    "canonical_id",
    "make_problem",
    "modulation_integral",
    "exact_time_derivative",
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

_MODULATIONS: dict[str, tuple[Callable, bool]] = {
    "P1": ((lambda y: np.exp(y) * np.cos(y)), False),
    "P2": ((lambda y: y**20), False),
    "P3": ((lambda y: 1.0 / (1.0 + 16.0 * y**2)), False),
    "P4": ((lambda y: np.exp(-(y**2))), False),
    "P5": ((lambda y: np.exp(-y)), False),
    "P6": ((lambda y: np.abs(y) ** 3), False),
    "P7p": ((lambda y: np.cos(y) ** 2), True),
    "P8p": ((lambda y: 1.0 / (1.0 + 16.0 * np.cos(y) ** 2)), True),
    "P9p": ((lambda y: np.abs(np.cos(y)) ** 3), True),
    "P10p": ((lambda y: np.cos(y) ** 20), True),
}

PROBLEM_IDS = tuple(_MODULATIONS)


@dataclass(frozen=True)
class TestProblem:
    """One benchmark: a closed-form solution plus everything schemes assemble from.

    ``forcing(x, t)`` is the pointwise closed form; ``forcing_at(X)`` binds
    it to fixed nodes X and returns t -> forcing(X, t) with every factor
    that depends on X alone computed once, for right-hand sides that
    evaluate it at the same nodes many times. ``envelope_exponent`` is the
    shared spatial profile q. The three optional fields are None for
    problems built outside the manufactured family.
    """

    id: str
    interval: Interval
    kernel: Callable
    firing: FiringRate
    forcing: Callable
    forcing_at: Callable
    initial: Callable
    exact: Callable
    amplitude: Optional[float] = None
    decay: Optional[float] = None
    envelope_exponent: Optional[Callable] = None


def canonical_id(token: str) -> str:
    """Resolve a case-insensitive problem token to its canonical id."""
    wanted = token.strip().lower()
    for pid in PROBLEM_IDS:
        if pid.lower() == wanted:
            return pid
    raise ValueError(f"unknown problem id {token!r}; expected one of {', '.join(PROBLEM_IDS)}")


def modulation_integral(problem_id: str) -> float:
    """Reference value of the kernel modulation's integral over the domain.

    Computed once per problem by a high-resolution rule (Clenshaw-Curtis
    with 4096 panels on the box, 8192-point periodic trapezium on the ring)
    and cross-checked against the doubled resolution to 1e-11 relative.
    """
    pid = canonical_id(problem_id)
    mod, periodic = _MODULATIONS[pid]
    if periodic:
        base = trapezium_rule(RING, 8192).integrate(mod)
        fine = trapezium_rule(RING, 16384).integrate(mod)
    else:
        base = clenshaw_curtis(4096).integrate(mod)
        fine = clenshaw_curtis(8192).integrate(mod)
    if abs(base - fine) > 1e-11 * max(1.0, abs(base)):
        raise ArithmeticError(
            f"{pid}: reference integral failed its doubled-resolution cross-check "
            f"({base!r} vs {fine!r})"
        )
    return float(base)


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
        kernel = lambda x, y: np.exp(-np.cos(x) ** 2 + np.cos(y) ** 2) * mod(y)  # noqa: E731
    else:
        interval = BOX
        exponent = lambda x: np.asarray(x) ** 2  # noqa: E731
        kernel = lambda x, y: np.exp(-(x**2) + y**2) * mod(y)  # noqa: E731

    def envelope(x, t):
        return AMPLITUDE * np.exp(-DECAY * t - exponent(x))

    def exact(x, t):
        return firing.inverse(envelope(x, t))

    def forcing(x, t):
        _checked_rate(t)
        env = envelope(x, t)
        return DECAY / (GAIN * (1.0 - env)) + firing._inverse_unchecked(env) - mod_integral * env

    def forcing_at(nodes):
        # env = e^rate * A e^-q(X), and the log-odds inverse splits into
        # log(1 - env) / GAIN - rate / GAIN plus THRESHOLD - log(A e^-q(X)) / GAIN
        scale = AMPLITUDE * np.exp(-exponent(np.asarray(nodes, dtype=float)))
        shift = THRESHOLD - np.log(scale) / GAIN
        modulated = mod_integral * scale

        def at(t):
            rate = _checked_rate(t)
            growth = math.exp(rate)
            complement = 1.0 - growth * scale
            return (
                (DECAY / GAIN) / complement
                + ((np.log(complement) - rate) / GAIN + shift)
                - growth * modulated
            )

        return at

    def initial(x):
        return exact(x, 0.0)

    return TestProblem(
        id=pid,
        interval=interval,
        kernel=kernel,
        firing=firing,
        forcing=forcing,
        forcing_at=forcing_at,
        initial=initial,
        exact=exact,
        amplitude=AMPLITUDE,
        decay=DECAY,
        envelope_exponent=exponent,
    )


def make_problem(problem_id: str) -> TestProblem:
    """Build one of the ten benchmarks; ids are case-insensitive."""
    pid = canonical_id(problem_id)
    mod, periodic = _MODULATIONS[pid]
    return _manufactured(pid, mod, periodic, modulation_integral(pid))


def exact_time_derivative(problem: TestProblem, x, t):
    """Closed-form time derivative of the manufactured solution.

    The envelope g = amplitude * exp(-decay*t - q(x)) satisfies
    dg/dt = -decay * g, and the inverse firing rate has slope
    -1 / (gain * g * (1 - g)), so the chain rule collapses to
    decay / (gain * (1 - g)).
    """
    if problem.envelope_exponent is None:
        raise ValueError(f"problem {problem.id!r} has no manufactured envelope")
    env = problem.amplitude * np.exp(-problem.decay * t - problem.envelope_exponent(x))
    return problem.decay / (problem.firing.gain * (1.0 - env))


def continuum_residual(problem: TestProblem, x: float, t: float, ref_quad: QuadratureRule) -> float:
    """Defect of the closed form in the field equation at one point (x, t).

    The nonlocal term is evaluated with the supplied high-resolution rule;
    by construction the true residual is zero, so what comes back is the
    rule's quadrature error on the kernel modulation.
    """
    firing = problem.firing
    integral = ref_quad.integrate(lambda y: problem.kernel(x, y) * firing(problem.exact(y, t)))
    return float(
        exact_time_derivative(problem, x, t) + problem.exact(x, t) - integral - problem.forcing(x, t)
    )
