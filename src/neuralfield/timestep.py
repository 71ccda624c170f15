"""Time integrators: fixed-step forward Euler and adaptive Dormand-Prince 5(4).

Like ``solve_ivp(fun, t_span, y0)``, both integrate from the state u0 that
the caller passes for t0, here a' = rhs(drive(t), a): ``drive`` takes a 1-D
sequence of times and returns one row per time, the part of the
right-hand side that depends on time alone (see
:class:`schemes.SemiDiscreteSystem`). It is called once per block of
``EULER_BLOCK`` Euler steps, and once per rk54 attempt at its six stage
times, except that one call serves a run of rk54 steps from checkpoint to
checkpoint.
A right-hand side f(t, a) of the time itself is integrated with
``drive=np.asarray``, since the times are their own drive. Both steppers
are deterministic functions of their inputs and record states only at the
requested checkpoints, landing on them exactly (Euler by requiring
checkpoints to sit on the step lattice, the Runge-Kutta pair by clipping
steps). There is no dense output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EULER_BLOCK",
    "MAX_EULER_STEPS",
    "StepStats",
    "Trajectory",
    "IntegrationError",
    "euler_integrate",
    "rk54_integrate",
]

# The most fixed steps one euler_integrate call takes. 10^8 steps of a small
# system already run for about 25 minutes (15 us per step on a 2-core Xeon),
# so a step small enough to need more fails at once instead of for days.
MAX_EULER_STEPS = 10**8

# Euler steps per drive call: large enough that the call's fixed cost is
# spread thin, small enough that one block of drive rows stays small
EULER_BLOCK = 64

# bytes of drive rows of one rk54 call for a run of steps from checkpoint to
# checkpoint, 6 rows a step: 10 steps of a 65-long state, 1 of a 513-long one
_DRIVE_BLOCK_BYTES = 32 * 1024


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

    When the first checkpoint is the initial time, states[0] is u0 verbatim.
    """

    checkpoints: np.ndarray
    states: np.ndarray
    stats: StepStats


def _validated_checkpoints(t0: float, duration: float, checkpoints) -> np.ndarray:
    if not math.isfinite(t0):
        raise ValueError("t0 must be finite")
    if not 0.0 < duration < math.inf:
        raise ValueError("duration must be positive and finite")
    if not math.isfinite(t0 + duration):
        raise ValueError("t0 + duration must be finite")
    cps = np.asarray(checkpoints, dtype=float)
    if cps.ndim != 1 or len(cps) == 0:
        raise ValueError("checkpoints must be a non-empty 1-D sequence of times")
    finite = np.isfinite(cps)
    if not finite.all():
        raise ValueError(f"checkpoint {float(cps[~finite][0])!r} is not finite")
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


def euler_integrate(
    rhs, u0, t0: float, duration: float, ht: float, checkpoints, *, drive
) -> Trajectory:
    """Fixed-step explicit Euler from a(t0) = u0 over [t0, t0 + duration].

    Every checkpoint must be an exact multiple of ht away from t0 (within a
    1e-8 relative alignment tolerance); anything off the lattice is rejected
    outright rather than silently interpolated, and so is a checkpoint more
    than ``MAX_EULER_STEPS`` steps away or on the same step as the one
    before it. A non-finite state at a checkpoint raises IntegrationError.
    Step k evaluates rhs(drive(ts)[j], a) with ts the lattice times of the
    ``EULER_BLOCK`` steps from k - j on: one drive call per block, and only
    one block of rows held at a time.
    """
    if not 0.0 < ht < math.inf:
        raise ValueError("step size must be positive and finite")
    cps = _validated_checkpoints(t0, duration, checkpoints)
    indices = []
    for c in cps.tolist():
        steps = (c - t0) / ht
        if not math.isfinite(steps):
            raise ValueError(f"step {ht!r} is too small for the window [{t0!r}, {t0 + duration!r}]")
        k = int(round(steps))
        if k > MAX_EULER_STEPS:
            raise ValueError(
                f"checkpoint {c!r} is {k:.17g} steps of {ht!r} from t0={t0!r}, "
                f"more than the maximum of {MAX_EULER_STEPS}"
            )
        if abs(t0 + k * ht - c) > 1e-8 * ht:
            raise ValueError(
                f"checkpoint {c!r} is not a multiple of the step {ht!r} from t0={t0!r}; "
                "euler records states only on the step lattice"
            )
        if indices and k == indices[-1]:
            raise ValueError(
                f"checkpoints {previous!r} and {c!r} both fall on step {k} of {ht!r} "
                f"from t0={t0!r}; euler records one state per lattice step"
            )
        indices.append(k)
        previous = c

    u = np.array(u0, dtype=float)
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
            j = k % EULER_BLOCK
            if j == 0:
                values = None  # the last block's rows go before the next block's are made
                values = drive([t0 + i * ht for i in range(k, min(k + EULER_BLOCK, last))])
            u = u + ht * rhs(values[j], u)
            evals += 1
    return _finish(cps, states, accepted=last, rejected=0, evals=evals)


# Dormand-Prince 5(4) tableau (Dormand & Prince, J. Comput. Appl. Math. 6, 1980).
# The seventh stage sits at the landing point (c_7 = 1) and evaluates the
# proposal itself, since its row of A equals the fifth-order weights.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_DP_A = (
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
)
# fifth-order weights; the seventh stage's weight is zero
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
# fifth-order weights minus the embedded fourth-order ones
_DP_ERR = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])


def _dormand_prince_step(rhs, values, u, h, stages, state):
    """One attempt from u with step h, whose first stage is ``stages[0]``.

    ``values`` holds the drive's rows at the six stages the attempt
    evaluates: the stage times t + c_i h and the time t_new that the step
    lands on (t + h, or the checkpoint a clipped step ends at exactly).
    The stages are written into ``stages``, the seventh being the
    right-hand side at the proposal where it lands, which is the first
    stage of the next attempt once the step is accepted ("first same as
    last"). Returns the 5th-order proposal and the error vector, which is
    formed in ``state``. The stage inputs share that buffer too, so ``rhs``
    must not keep its state argument past the call.
    """
    for i, row in enumerate(_DP_A):
        np.dot(row, stages[: i + 1], out=state)  # the stage input u + h * (row @ stages)
        state *= h
        state += u
        stages[i + 1] = rhs(values[i], state)
    proposal = np.dot(_DP_B5, stages[:6])
    proposal *= h
    proposal += u
    stages[6] = rhs(values[5], proposal)
    error = np.dot(_DP_ERR, stages, out=state)
    error *= h
    return proposal, error


def rk54_integrate(
    rhs, u0, t0: float, duration: float, rtol: float, atol: float, checkpoints, *, drive
) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) from a(t0) = u0 over [t0, t0 + duration].

    Error-per-step control with err = max_i |e_i| / (atol + rtol * max(|u_i|,
    |u_new_i|)); a step is accepted when err <= 1 and the next step is
    h * min(5, max(0.2, 0.9 * err^(-1/5))). Steps are clipped to land exactly
    on each checkpoint. The deterministic initial step is
    min(duration/100, 0.1 * (atol / max(||f(t0, u0)||_inf, 1e-12))^(1/5)),
    with f(t, a) = rhs(drive([t])[0], a), and its right-hand side probe is
    the first stage of the first attempt.
    Every attempt then makes 6 evaluations: an accepted step hands its last
    stage, the right-hand side at the state it lands on, to the next attempt
    as its first stage (FSAL), and a rejected attempt's successor keeps the
    rejected one's first stage. So rhs_evals is 1 + 6 * attempts. ``drive``
    is called for the probe and for each attempt's six stage times, except
    that an attempt from checkpoint c_{j-1} clipped to c_j takes its rows,
    bitwise those of its own call, from one call for the steps c_{j-1} to
    c_j, c_j to c_{j+1}, ..., as many as fit ``_DRIVE_BLOCK_BYTES`` when
    two or more do.
    """
    if not (0.0 < rtol < math.inf and 0.0 < atol < math.inf):
        raise ValueError("rtol and atol must be positive and finite")
    cps = _validated_checkpoints(t0, duration, checkpoints)
    u = np.array(u0, dtype=float)
    t = t0
    accepted = rejected = 0

    probe = np.asarray(rhs(drive([t0])[0], u), dtype=float)
    evals = 1
    if not np.all(np.isfinite(probe)):
        raise IntegrationError(f"non-finite right-hand side at t={t0}")
    scale = max(float(np.max(np.abs(probe))), 1e-12)
    h = min(duration / 100.0, 0.1 * (atol / scale) ** 0.2)
    # row 0 holds the first stage of the next attempt; both buffers serve every attempt
    stages = np.empty((7, len(u)))
    stages[0] = probe
    state = np.empty(len(u))

    states = []
    start = 0
    if cps[0] == t0:
        states.append(u.copy())
        start = 1
    floor = 1e-14 * max(duration, 1e-300)

    first, block = 0, ()  # the drive rows of the steps to cps[first], cps[first + 1], ...
    per_block = _DRIVE_BLOCK_BYTES // (6 * 8 * len(u))  # steps whose rows fit the budget
    abs_u = np.abs(u)
    for j in range(start, len(cps)):
        target = cps[j]
        while t < target:
            gap = target - t
            clipped = h >= gap
            h_try = gap if clipped else h
            if h_try < floor:
                raise IntegrationError(
                    f"step size underflow at t={t!r} (h={h_try!r} below 1e-14 * duration); "
                    f"{accepted} accepted / {rejected} rejected steps so far"
                )
            t_new = target if clipped else t + h_try
            values = None  # the last attempt's rows go before the next ones are made
            if per_block > 1 and clipped and j > 0 and t == cps[j - 1]:
                # a step from checkpoint to checkpoint: its six times are known
                # before it is tried, so one drive call serves a run of them;
                # a block of one step would only add the cost of building it
                if not first <= j < first + len(block) // 6:
                    edges = cps[j - 1 : j + per_block]
                    times = edges[:-1, None] + _DP_C[1:] * np.diff(edges)[:, None]
                    first, block = j, ()
                    block = drive(np.column_stack([times, edges[1:]]).ravel())
                values = block[6 * (j - first) : 6 * (j - first) + 6]
            else:
                values = drive([*(t + _DP_C[1:] * h_try), t_new])
            proposal, error = _dormand_prince_step(rhs, values, u, h_try, stages, state)
            evals += 6
            # |error| / (atol + rtol * max(|u|, |proposal|)), in place
            abs_new = np.abs(proposal)
            scale = np.maximum(abs_u, abs_new)
            scale *= rtol
            scale += atol
            np.abs(error, out=error)
            error /= scale
            err = float(error.max())
            if not math.isfinite(err):
                raise IntegrationError(
                    f"non-finite right-hand side in the step attempted at t={t!r} (h={h_try!r})"
                )
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            if err <= 1.0:
                accepted += 1
                t, u, abs_u = t_new, proposal, abs_new
                stages[0] = stages[6]
            else:
                rejected += 1
            h = h_try * factor
        states.append(u.copy())
    return _finish(cps, states, accepted, rejected, evals)
