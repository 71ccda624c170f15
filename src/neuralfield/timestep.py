"""Time integrators: fixed-step forward Euler and adaptive Dormand-Prince 5(4).

Both integrators are deterministic functions of their inputs and record
states only at the requested checkpoints, landing on them exactly (Euler by
requiring checkpoints to sit on the step lattice, the Runge-Kutta pair by
clipping steps). There is no dense output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["StepStats", "Trajectory", "IntegrationError", "euler_integrate", "rk54_integrate"]


class IntegrationError(RuntimeError):
    """Raised on step-size underflow, a non-finite right-hand side, or a
    non-finite recorded state."""


@dataclass(frozen=True)
class StepStats:
    accepted: int
    rejected: int
    rhs_evals: int


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States recorded at strictly increasing checkpoint times.

    When the first checkpoint is the initial time, states[0] is the
    system's initial state verbatim.
    """

    checkpoints: np.ndarray
    states: np.ndarray
    stats: StepStats


def _validated_checkpoints(t0: float, duration: float, checkpoints) -> np.ndarray:
    cps = np.asarray(checkpoints, dtype=float)
    if cps.ndim != 1 or len(cps) == 0:
        raise ValueError("checkpoints must be a non-empty 1-D sequence of times")
    if np.any(np.diff(cps) <= 0):
        raise ValueError("checkpoints must be strictly increasing")
    tiny = 1e-12 * max(1.0, abs(duration))
    if cps[0] < t0 - tiny or cps[-1] > t0 + duration + tiny:
        raise ValueError(f"checkpoints must lie inside [{t0}, {t0 + duration}]")
    return cps


def _finish(checkpoints, states, accepted, rejected, evals) -> Trajectory:
    stacked = np.asarray(states, dtype=float)
    stacked.setflags(write=False)
    return Trajectory(checkpoints, stacked, StepStats(accepted, rejected, evals))


def euler_integrate(system, t0: float, duration: float, ht: float, checkpoints) -> Trajectory:
    """Fixed-step explicit Euler over [t0, t0 + duration].

    Every checkpoint must be an exact multiple of ht away from t0 (within a
    1e-8 relative alignment tolerance); anything off the lattice is rejected
    outright rather than silently interpolated. A non-finite state at a
    checkpoint raises IntegrationError.
    """
    if not ht > 0:
        raise ValueError("step size must be positive")
    cps = _validated_checkpoints(t0, duration, checkpoints)
    indices = []
    for c in cps:
        k = int(round((c - t0) / ht))
        if abs(t0 + k * ht - c) > 1e-8 * ht:
            raise ValueError(
                f"checkpoint {c!r} is not a multiple of the step {ht!r} from t0={t0!r}; "
                "euler records states only on the step lattice"
            )
        indices.append(k)

    u = np.array(system.initial, dtype=float)
    states = []
    evals = 0
    next_rec = 0
    last = indices[-1]
    for k in range(last + 1):
        if next_rec < len(indices) and indices[next_rec] == k:
            # a non-finite component stays non-finite under u + ht * rhs, so
            # checking only the recorded states catches every blow-up
            if not np.all(np.isfinite(u)):
                raise IntegrationError(f"non-finite state at checkpoint t={float(cps[next_rec])!r}")
            states.append(u.copy())
            next_rec += 1
        if k < last:
            u = u + ht * system.rhs(t0 + k * ht, u)
            evals += 1
    return _finish(cps, states, accepted=last, rejected=0, evals=evals)


# Dormand-Prince 5(4) tableau (Dormand & Prince, J. Comput. Appl. Math. 6, 1980)
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = (
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# fifth-order weights minus the embedded fourth-order ones
_DP_ERR = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])


def _dormand_prince_step(rhs, t, u, h, k1=None):
    """One 7-stage attempt; returns the 5th-order proposal and the error vector.

    Passing a precomputed first stage saves one evaluation (the first stage
    depends only on (t, u), not on h).
    """
    stages = np.empty((7, len(u)))
    stages[0] = rhs(t, u) if k1 is None else k1
    for i, row in enumerate(_DP_A):
        stages[i + 1] = rhs(t + _DP_C[i + 1] * h, u + h * (row @ stages[: i + 1]))
    proposal = u + h * (_DP_B5 @ stages)
    error = h * (_DP_ERR @ stages)
    return proposal, error


def rk54_integrate(
    system, t0: float, duration: float, rtol: float, atol: float, checkpoints
) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) over [t0, t0 + duration].

    Error-per-step control with err = max_i |e_i| / (atol + rtol * max(|u_i|,
    |u_new_i|)); a step is accepted when err <= 1 and the next step is
    h * min(5, max(0.2, 0.9 * err^(-1/5))). Steps are clipped to land exactly
    on each checkpoint. The deterministic initial step is
    min(duration/100, 0.1 * (atol / max(||rhs(t0, u0)||_inf, 1e-12))^(1/5)),
    and its right-hand side probe is reused as the first stage of the first
    attempt, so rhs_evals is exactly 7 per attempted step (no FSAL reuse).
    """
    if not (rtol > 0 and atol > 0):
        raise ValueError("rtol and atol must be positive")
    cps = _validated_checkpoints(t0, duration, checkpoints)
    u = np.array(system.initial, dtype=float)
    t = t0
    accepted = rejected = 0

    probe = np.asarray(system.rhs(t0, u), dtype=float)
    evals = 1
    if not np.all(np.isfinite(probe)):
        raise IntegrationError(f"non-finite right-hand side at t={t0}")
    scale = max(float(np.max(np.abs(probe))), 1e-12)
    h = min(duration / 100.0, 0.1 * (atol / scale) ** 0.2)
    first_stage = probe

    states = []
    start = 0
    if cps[0] == t0:
        states.append(u.copy())
        start = 1
    floor = 1e-14 * max(duration, 1e-300)

    for target in cps[start:]:
        while t < target:
            gap = target - t
            clipped = h >= gap
            h_try = gap if clipped else h
            if h_try < floor:
                raise IntegrationError(
                    f"step size underflow at t={t!r} (h={h_try!r} below 1e-14 * duration); "
                    f"{accepted} accepted / {rejected} rejected steps so far"
                )
            proposal, error = _dormand_prince_step(system.rhs, t, u, h_try, first_stage)
            evals += 7 if first_stage is None else 6
            first_stage = None
            denom = atol + rtol * np.maximum(np.abs(u), np.abs(proposal))
            err = float(np.max(np.abs(error) / denom))
            if not np.isfinite(err):
                raise IntegrationError(
                    f"non-finite right-hand side in the step attempted at t={t!r} (h={h_try!r})"
                )
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            if err <= 1.0:
                accepted += 1
                t = target if clipped else t + h_try
                u = proposal
            else:
                rejected += 1
            h = h_try * factor
        states.append(u.copy())
    return _finish(cps, states, accepted, rejected, evals)
