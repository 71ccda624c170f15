import weakref

import numpy as np
import pytest

from neuralfield.harness import default_checkpoints, trajectory_error
from neuralfield.schemes import build_fe_collocation
from neuralfield.timestep import (
    _DP_C,
    _DRIVE_BLOCK_BYTES,
    EULER_BLOCK,
    MAX_EULER_STEPS,
    IntegrationError,
    _dormand_prince_step,
    euler_integrate,
    rk54_integrate,
)


# the right-hand sides f(t, a) here that depend on the time itself are
# integrated with the times as their own drive, drive=np.asarray
def decay(t, a):
    """a' = -a; from a(0) = 1 the solution is exp(-t)."""
    return -a


def counted(rhs):
    """``rhs`` wrapped to record each call's time."""
    calls = []

    def recorded(t, a):
        calls.append(t)
        return rhs(t, a)

    return recorded, calls


def counted_drive(dim):
    """A drive of zeros for states of length ``dim``, one row per time,
    wrapped to record each call's argument."""
    calls = []

    def drive(ts):
        calls.append(ts)
        return np.zeros((len(ts), dim))

    return drive, calls


def spike(t, a):
    """a' = 50 exp(-((t - 0.51) / 0.005)^2) - a: with checkpoints 0.02 apart,
    the steps from one checkpoint to the next meet the pulse and are rejected."""
    return 50.0 * np.exp(-(((t - 0.51) / 0.005) ** 2)) - a


def stiff_decay(t, a):
    """a' = -50 a: from (1, 2) the controller grows the step into the
    stability limit and has attempts rejected."""
    return -50.0 * a


def encoded_at(system, problem, t):
    """The closed form of ``problem`` at time t in the state space of ``system``."""
    return system.encode(lambda x: problem.exact(x, t))


# Dormand-Prince 5(4) in its classic seven-stage form (Hairer, Norsett & Wanner,
# Solving ODEs I, Table II.5.2): the last row of A is the fifth-order weights b
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.zeros((7, 7))
_A[1, :1] = [1 / 5]
_A[2, :2] = [3 / 40, 9 / 40]
_A[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_A[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_A[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
_A[6, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
_B = _A[6].copy()
# b minus the embedded fourth-order weights, each difference as one rounded fraction
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])


def seven_evaluation_rk54(rhs, u0, t0, duration, rtol, atol, checkpoints):
    """Reference for rk54_integrate that evaluates all seven stages of every
    attempt afresh, the first at (t, u) and the last at the landing time.

    Same initial step, controller and checkpoint clipping; returns the
    recorded states and the accepted and rejected counts.
    """
    cps = np.asarray(checkpoints, dtype=float)
    u = np.array(u0, dtype=float)
    t = t0
    probe = rhs(t0, u)
    h = min(duration / 100.0, 0.1 * (atol / max(float(np.max(np.abs(probe))), 1e-12)) ** 0.2)
    states = [u.copy()] if cps[0] == t0 else []
    accepted = rejected = 0
    for target in cps[len(states):]:
        while t < target:
            clipped = h >= target - t
            h_try = target - t if clipped else h
            t_new = target if clipped else t + h_try
            k = np.empty((7, len(u)))
            k[0] = rhs(t, u)
            for i in range(1, 7):
                time_i = t_new if i == 6 else t + _C[i] * h_try
                k[i] = rhs(time_i, u + h_try * (_A[i, :i] @ k[:i]))
            proposal = u + h_try * (_B @ k)
            error = h_try * (_E @ k)
            err = float(np.max(np.abs(error) / (atol + rtol * np.maximum(np.abs(u), np.abs(proposal)))))
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**-0.2))
            if err <= 1.0:
                accepted += 1
                t, u = t_new, proposal
            else:
                rejected += 1
            h = h_try * factor
        states.append(u.copy())
    return np.array(states), accepted, rejected


class TestEuler:
    def test_single_step_decay(self):
        traj = euler_integrate(decay, [1.0], 0.0, 0.1, 0.1, [0.0, 0.1], drive=np.asarray)
        assert len(traj.states) == len(traj.checkpoints) == 2
        assert traj.states[0][0] == 1.0
        assert traj.states[1][0] == pytest.approx(0.9, abs=1e-16)

    def test_zero_field_is_constant(self):
        zero = lambda t, a: np.zeros(3)  # noqa: E731
        cps = np.linspace(0.0, 1.0, 11)
        traj = euler_integrate(zero, [1.0, -2.0, 0.5], 0.0, 1.0, 0.05, cps, drive=np.asarray)
        assert len(traj.states) == len(traj.checkpoints) == 11
        assert np.all(traj.states == traj.states[0])
        assert traj.stats.rhs_evals == 20

    def test_first_order_convergence(self):
        hs = np.array([1e-2, 5e-3, 2.5e-3, 1.25e-3])
        runs = [euler_integrate(decay, [1.0], 0.0, 1.0, h, [0.0, 1.0], drive=np.asarray) for h in hs]
        errs = np.abs(np.array([run.states[-1][0] for run in runs]) - np.exp(-1.0))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 0.95 <= slope <= 1.05

    def test_off_lattice_checkpoint_rejected(self):
        # the checkpoint prints as a plain float, not as np.float64(0.35)
        with pytest.raises(ValueError, match=r"^checkpoint 0\.35 is not .* lattice$"):
            euler_integrate(decay, [1.0], 0.0, 1.0, 0.1, [0.0, 0.35], drive=np.asarray)

    def test_checkpoint_validation(self):
        with pytest.raises(ValueError):
            euler_integrate(decay, [1.0], 0.0, 1.0, 0.1, [0.5, 0.2], drive=np.asarray)
        with pytest.raises(ValueError):
            euler_integrate(decay, [1.0], 0.0, 1.0, 0.1, [0.0, 1.5], drive=np.asarray)
        with pytest.raises(ValueError):
            euler_integrate(decay, [1.0], 0.0, 1.0, -0.1, [0.0, 0.5], drive=np.asarray)
        # a positive step whose step count overflows, rather than an OverflowError
        with pytest.raises(ValueError, match=r"step 1e-320 is too small for the window \[0\.0, 1\.0\]"):
            euler_integrate(decay, [1.0], 0.0, 1.0, 1e-320, [0.0, 0.5], drive=np.asarray)

    def test_a_step_count_past_the_cap_is_rejected_before_any_step(self):
        def rhs(t, a):  # without the cap the run would take 2^40 steps, so fail at once
            raise AssertionError(f"right-hand side called at t={t}")

        ht = 2.0**-40  # on the lattice of every checkpoint below, 2^40 steps to t = 1
        message = rf"^checkpoint 1\.0 is {2**40} steps of .* more than the maximum of {MAX_EULER_STEPS}$"
        with pytest.raises(ValueError, match=message):
            euler_integrate(rhs, [1.0], 0.0, 1.0, ht, [0.0, 1.0], drive=np.asarray)
        # one step past the cap is enough
        with pytest.raises(ValueError, match=f"is {MAX_EULER_STEPS + 1} steps"):
            ht = 1.0 / (MAX_EULER_STEPS + 1)
            euler_integrate(rhs, [1.0], 0.0, 1.0, ht, [0.0, 1.0], drive=np.asarray)

    def test_two_checkpoints_on_one_step_are_rejected_before_any_step(self):
        # both used to return fewer states than checkpoints: one state for
        # all three below, and two for three with right-hand side calls
        with pytest.raises(ValueError, match=r"^checkpoints 0\.0 and 5e-10 both fall on step 0 of 1\.0 "):
            euler_integrate(decay, [1.0], 0, 1e-9, 1.0, [0, 5e-10, 1e-9], drive=np.asarray)

        def rhs(t, a):
            raise AssertionError(f"right-hand side called at t={t}")

        with pytest.raises(ValueError, match=r"^checkpoints 0\.5 and 0\.5000000001 both fall on step 5 of 0\.1 "):
            euler_integrate(rhs, [1.0], 0.0, 1.0, 0.1, [0.0, 0.5, 0.5 + 1e-10], drive=np.asarray)

    def test_blowup_raises_at_the_first_non_finite_checkpoint(self):
        # u' = u^2 from u(0) = 1 blows up at t = 1; with ht = 0.01 the Euler
        # iterate is 30.4 at t = 1 and has overflowed by t = 1.5
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError, match="non-finite state at checkpoint t=1.5"):
                cps = [0.0, 0.5, 1.0, 1.5, 2.0]
                euler_integrate(lambda t, a: a * a, [1.0], 0.0, 2.0, 0.01, cps, drive=np.asarray)

    @pytest.mark.parametrize(
        "field", [lambda g, a: a, lambda g, a: g], ids=["its-state", "its-drive-row"]
    )
    def test_a_field_returning_its_argument_steps_bitwise_as_the_plain_update(self, field):
        # euler steps into two buffers of its own, which take turns as the
        # state; a right-hand side may return its state argument or the drive
        # row it was given, and the states stay those of u = u + ht * rhs(g, u)
        ht, steps = 0.01, 3 * EULER_BLOCK + 5

        def drive(ts):
            return np.outer(ts, [1.0, -2.0, 0.5])

        u0 = np.array([1.0, -0.3, 2.0])
        cps = [0.01 * k for k in range(0, steps + 1, 10)]
        traj = euler_integrate(field, u0, 0.0, steps * ht, ht, cps, drive=drive)
        u, plain = u0.copy(), [u0.copy()]
        for k in range(1, steps + 1):
            u = u + ht * field(drive([(k - 1) * ht])[0], u)
            if k % 10 == 0:
                plain.append(u)
        assert np.array_equal(traj.states, np.array(plain))
        assert np.array_equal(u0, [1.0, -0.3, 2.0])

    def test_vector_decay_matches_exponential(self, pure_decay_problem):
        problem = pure_decay_problem()
        system = build_fe_collocation(problem, 8)
        u0 = encoded_at(system, problem, 0.0)
        traj = euler_integrate(system.rhs, u0, 0.0, 1.0, 1e-4, [0.0, 0.5, 1.0], drive=system.drive)
        assert len(traj.states) == len(traj.checkpoints) == 3
        exact = 0.4 * np.exp(-np.asarray([0.0, 0.5, 1.0]))
        assert np.max(np.abs(traj.states[:, 0] - exact)) <= 1e-4


class TestDormandPrince:
    def test_scalar_decay_accuracy(self):
        traj = rk54_integrate(decay, [1.0], 0.0, 1.0, 1e-8, 1e-10, [0.0, 1.0], drive=np.asarray)
        assert abs(traj.states[-1][0] - np.exp(-1.0)) <= 1e-7

    def test_zero_field_one_step_per_gap(self):
        # gaps equal the deterministic initial step T/100, so each gap costs
        # exactly one accepted (clipped) step and nothing is ever rejected
        cps = np.linspace(0.0, 1.0, 101)
        zero = lambda t, a: np.zeros(2)  # noqa: E731
        traj = rk54_integrate(zero, [2.0, -1.0], 0.0, 1.0, 1e-6, 1e-10, cps, drive=np.asarray)
        assert len(traj.states) == len(traj.checkpoints) == 101
        assert traj.stats.accepted == 100
        assert traj.stats.rejected == 0
        assert np.all(traj.states == traj.states[0])

    def test_quintic_single_forced_step(self):
        # u' = 5 t^4 integrated by one stage sweep: the 5th-order weights are
        # exact on u = t^5, and the embedded difference bounds the 4th-order
        # proposal's true error
        rhs = lambda t, u: np.array([5.0 * t**4])  # noqa: E731
        u0 = np.array([0.0])
        stages, state = np.empty((7, 1)), np.empty(1)
        stages[0] = rhs(0.0, u0)
        times = [*(0.3 * np.array([1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])), 0.3]
        proposal, error = _dormand_prince_step(rhs, times, u0, 0.3, stages, state)
        assert proposal[0] == pytest.approx(0.3**5, abs=1e-15)
        assert abs(error[0]) > 0.0
        assert abs(proposal[0] - 0.3**5) <= abs(error[0])
        # the last stage is the right-hand side where the step lands
        assert np.array_equal(stages[6], rhs(0.3, proposal))

    def test_stats_accounting(self):
        # the probe is the first attempt's first stage, and every accepted step
        # hands its last stage on as the next first stage
        cases = (
            (decay, [1.0], np.linspace(0.0, 1.0, 6), False),
            (stiff_decay, [1.0, 2.0], [0.0, 0.5, 1.0], True),
        )
        for rhs, u0, cps, rejects in cases:
            rhs, calls = counted(rhs)
            traj = rk54_integrate(rhs, u0, 0.0, 1.0, 1e-8, 1e-10, cps, drive=np.asarray)
            assert len(traj.states) == len(traj.checkpoints) == len(cps)
            attempts = traj.stats.accepted + traj.stats.rejected
            assert (traj.stats.rejected > 0) == rejects
            assert len(calls) == traj.stats.rhs_evals == 1 + 6 * attempts
            assert attempts >= len(cps) - 1  # at least one per checkpoint gap

    @pytest.mark.parametrize(
        "case", ["p1-fe-collocation-n16", "stiff-with-rejections", "spike-with-rejections"]
    )
    def test_fsal_matches_the_seven_evaluation_reference_bitwise(self, case, p1):
        # the system's drive is evaluated per time for the reference and
        # batched per attempt, or per run of steps between checkpoints, by rk54_integrate
        if case == "stiff-with-rejections":
            rhs, drive, u0, cps = stiff_decay, np.asarray, np.array([1.0, 2.0]), [0.0, 0.5, 1.0]
        elif case == "spike-with-rejections":
            rhs, drive, u0, cps = spike, np.asarray, np.array([1.0, 2.0]), np.linspace(0.0, 1.0, 51)
        else:
            system = build_fe_collocation(p1, 16)
            rhs, drive = system.rhs, system.drive
            u0, cps = encoded_at(system, p1, 0.0), np.linspace(0.0, 1.0, 51)
        timed = lambda t, a: rhs(drive([t])[0], a)  # noqa: E731
        states, accepted, rejected = seven_evaluation_rk54(timed, u0, 0.0, 1.0, 1e-6, 1e-9, cps)
        assert (rejected > 0) == case.endswith("with-rejections")
        rhs, calls = counted(rhs)
        traj = rk54_integrate(rhs, u0, 0.0, 1.0, 1e-6, 1e-9, cps, drive=drive)
        assert np.array_equal(traj.states, states)
        assert (traj.stats.accepted, traj.stats.rejected) == (accepted, rejected)
        assert len(calls) == 1 + 6 * (accepted + rejected)

    def test_determinism_bitwise(self, p1):
        system = build_fe_collocation(p1, 16)
        u0 = encoded_at(system, p1, 0.0)
        cps = np.linspace(0.0, 1.0, 11)
        a = rk54_integrate(system.rhs, u0, 0.0, 1.0, 1e-6, 1e-9, cps, drive=system.drive)
        b = rk54_integrate(system.rhs, u0, 0.0, 1.0, 1e-6, 1e-9, cps, drive=system.drive)
        assert np.array_equal(a.states, b.states)
        assert a.stats == b.stats

    def test_blowup_raises_underflow(self):
        # u' = u^2 with u(0) = 3 blows up at t = 1/3; the controller must
        # shrink past the floor and raise instead of looping forever
        with pytest.raises(IntegrationError, match="underflow"):
            square = lambda t, a: a * a  # noqa: E731
            rk54_integrate(square, [3.0], 0.0, 1.0, 1e-6, 1e-9, [0.0, 1.0], drive=np.asarray)

    def test_nonfinite_rhs_raises(self):
        with pytest.raises(IntegrationError, match="non-finite"):
            nan = lambda t, a: a * np.nan  # noqa: E731
            rk54_integrate(nan, [1.0], 0.0, 1.0, 1e-6, 1e-9, [0.0, 1.0], drive=np.asarray)

    def test_non_finite_windows_and_tolerances_rejected(self):
        for t0, duration in ((np.nan, 1.0), (-np.inf, 1.0), (0.0, np.inf), (0.0, np.nan), (0.0, 0.0)):
            with pytest.raises(ValueError, match="t0 must be finite|duration must be positive"):
                rk54_integrate(decay, [1.0], t0, duration, 1e-6, 1e-9, [0.0, 1.0], drive=np.asarray)
            with pytest.raises(ValueError, match="t0 must be finite|duration must be positive"):
                euler_integrate(decay, [1.0], t0, duration, 0.1, [0.0, 1.0], drive=np.asarray)
        for rtol, atol in ((np.inf, 1e-9), (1e-6, np.inf), (np.nan, 1e-9)):
            with pytest.raises(ValueError, match="rtol and atol"):
                rk54_integrate(decay, [1.0], 0.0, 1.0, rtol, atol, [0.0, 1.0], drive=np.asarray)
        for ht in (np.inf, np.nan):
            with pytest.raises(ValueError, match="step size"):
                euler_integrate(decay, [1.0], 0.0, 1.0, ht, [0.0, 1.0], drive=np.asarray)

    def test_an_overflowing_window_end_is_rejected(self):
        with pytest.raises(ValueError, match=r"t0 \+ duration must be finite"):
            rk54_integrate(decay, [1.0], 1e308, 1e308, 1e-6, 1e-9, [1e308], drive=np.asarray)
        with pytest.raises(ValueError, match=r"t0 \+ duration must be finite"):
            euler_integrate(decay, [1.0], 1e308, 1e308, 1e307, [1e308], drive=np.asarray)

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            rk54_integrate(decay, [1.0], 0.0, 1.0, -1e-6, 1e-9, [0.0, 1.0], drive=np.asarray)

    def test_checkpoint_error_tracks_tolerance(self):
        # heuristic tolerance proportionality on the scalar problem
        for rtol in (1e-6, 1e-8):
            cps = [0.0, 0.5, 1.0]
            traj = rk54_integrate(decay, [1.0], 0.0, 1.0, rtol, rtol * 1e-3, cps, drive=np.asarray)
            assert len(traj.states) == len(traj.checkpoints) == 3
            err = abs(traj.states[-1][0] - np.exp(-1.0))
            assert err <= 50.0 * rtol


@pytest.mark.parametrize("stepper", [euler_integrate, rk54_integrate])
def test_a_non_finite_checkpoint_is_rejected_before_any_step(stepper):
    # NaN compares False both ways, so it used to pass the ordering and
    # range checks: rk54 recorded u0 at it, and euler blamed the step
    def drive(ts):
        raise AssertionError(f"drive called at {ts}")

    control = (0.1,) if stepper is euler_integrate else (1e-6, 1e-9)
    for bad, cps in (("nan", [0.0, np.nan, 1.0]), ("inf", [0.0, np.inf]), ("-inf", [-np.inf, 1.0])):
        with pytest.raises(ValueError, match=rf"^checkpoint {bad} is not finite$"):
            stepper(decay, [1.0], 0.0, 1.0, *control, cps, drive=drive)


@pytest.mark.parametrize("stepper", ["euler", "rk54"])
def test_the_first_state_is_u0_verbatim(stepper, p1, rng):
    system = build_fe_collocation(p1, 16)
    u0 = rng.standard_normal(system.dim)
    cps = np.linspace(0.25, 0.75, 6)
    if stepper == "euler":
        traj = euler_integrate(system.rhs, u0, 0.25, 0.5, 0.01, cps, drive=system.drive)
    else:
        traj = rk54_integrate(system.rhs, u0, 0.25, 0.5, 1e-6, 1e-9, cps, drive=system.drive)
    assert np.array_equal(traj.states[0].view(np.int64), u0.view(np.int64))


def test_a_window_starts_where_its_u0_was_encoded(p1):
    # the steppers take the start state, so a window from t0 = 0.5 runs from
    # u(., 0.5); when the system carried u(., 0) as its start, this direct
    # call silently started there and measured 0.177 against 1.29e-4
    system = build_fe_collocation(p1, 64)
    cps = default_checkpoints(0.5, 1.0, 51)
    u0 = encoded_at(system, p1, 0.5)
    traj = rk54_integrate(system.rhs, u0, 0.5, 1.0, 1e-6, 1e-9, cps, drive=system.drive)
    assert trajectory_error(system, traj, p1) <= 1e-3


class TestDrive:
    def test_rk54_calls_the_drive_once_per_attempt(self):
        # the probe takes drive([t0]), then each attempt one batch of its six
        # stage times, with and without rejected attempts; rhs keeps its count
        cases = (
            (1.0, [1.0], np.linspace(0.0, 1.0, 6), False),
            (50.0, [1.0, 2.0], [0.0, 0.5, 1.0], True),
        )
        for rate, u0, cps, rejects in cases:
            rhs, calls = counted(lambda g, a, rate=rate: g - rate * a)
            drive, drives = counted_drive(len(u0))
            traj = rk54_integrate(rhs, u0, 0.0, 1.0, 1e-8, 1e-10, cps, drive=drive)
            attempts = traj.stats.accepted + traj.stats.rejected
            assert (traj.stats.rejected > 0) == rejects
            assert [len(ts) for ts in drives] == [1] + [6] * attempts
            assert list(drives[0]) == [0.0]
            assert len(calls) == traj.stats.rhs_evals == 1 + 6 * attempts

    def test_rk54_takes_one_drive_call_for_a_run_of_steps_between_checkpoints(self):
        # decay from a 65-long state with checkpoints 0.02 apart: three steps
        # reach the first checkpoint, then each step goes from one checkpoint
        # to the next, and one call serves 10 of them (60 rows of 520 bytes)
        dim = 65
        cps = 0.02 * np.arange(26)
        rhs, calls = counted(lambda g, a: g - a)
        drive, drives = counted_drive(dim)
        traj = rk54_integrate(rhs, np.ones(dim), 0.0, 1.0, 1e-6, 1e-9, cps, drive=drive)
        assert [len(ts) for ts in drives] == [1, 6, 6, 6, 60, 60, 24]
        # each step's times bitwise as the attempt's own call makes them
        steps = [[*(a + _DP_C[1:] * (b - a)), b] for a, b in zip(cps[:-1], cps[1:])]
        for ts, run in zip(drives[4:], (steps[1:11], steps[11:21], steps[21:])):
            assert list(ts) == [t for step in run for t in step]
        attempts = traj.stats.accepted + traj.stats.rejected
        assert len(calls) == traj.stats.rhs_evals == 1 + 6 * attempts

    @pytest.mark.parametrize("dim", [1, 65])
    def test_rk54_asks_the_drive_for_no_time_past_the_last_checkpoint(self, dim):
        # the window runs to 1.0, the checkpoints to 0.5: one block would reach
        # past it for both states, which take 682 and 10 steps per block
        drive, drives = counted_drive(dim)
        cps = 0.02 * np.arange(26)
        rk54_integrate(lambda g, a: g - a, np.ones(dim), 0.0, 1.0, 1e-6, 1e-9, cps, drive=drive)
        assert max(len(ts) for ts in drives) > 6
        assert max(t for ts in drives for t in ts) == cps[-1]

    def test_rk54_holds_one_byte_budget_of_drive_rows(self, peak_bytes):
        # a 513-long state over 20 steps between checkpoints: all their drive
        # rows take 492 KB, one step's 24.6 KB fits the budget and two do not.
        # At each drive call, the rows still alive from earlier calls and the
        # new ones fit it; besides them the stepper holds 7 stages and 9 other
        # states, and the trajectory its list of states and their stack
        dim = 513
        row = 8 * dim
        alive = []

        def run():
            made = []

            def drive(ts):
                kept = sum(r().nbytes for r in made if r() is not None)
                alive.append(kept + len(ts) * row)
                rows = np.zeros((len(ts), dim))
                made.append(weakref.ref(rows))
                return rows

            cps = 0.02 * np.arange(22)
            return rk54_integrate(lambda g, a: g - a, np.ones(dim), 0.0, 0.42, 1e-6, 1e-9, cps,
                                  drive=drive)

        peak, held = peak_bytes(run)
        assert max(alive) <= _DRIVE_BLOCK_BYTES
        assert peak <= 2 * held + _DRIVE_BLOCK_BYTES + 16 * row

    def test_euler_calls_the_drive_once_per_block(self):
        steps = 3 * EULER_BLOCK + 5
        ht = 2.0**-10
        drive, drives = counted_drive(2)
        rhs, calls = counted(lambda g, a: g - a)
        cps = [0.25, 0.25 + steps * ht]
        traj = euler_integrate(rhs, [1.0, 2.0], 0.25, steps * ht, ht, cps, drive=drive)
        assert [len(ts) for ts in drives] == [EULER_BLOCK] * 3 + [5]
        # the lattice times, bitwise as t0 + k * ht
        assert [t for ts in drives for t in ts] == [0.25 + k * ht for k in range(steps)]
        assert len(calls) == traj.stats.rhs_evals == steps

    def test_euler_holds_one_block_of_drive_rows(self, peak_bytes):
        # 10^5 steps of a 64-long state: all the drive rows would take 51 MB,
        # one block of them 32 KiB; the state, its temporaries, one block of
        # lattice times and the trajectory take a few KiB besides
        dim = 64
        block = 8 * EULER_BLOCK * dim

        def run():
            def drive(ts):
                return np.zeros((len(ts), dim))

            rhs = lambda g, a: g - a  # noqa: E731
            return euler_integrate(rhs, np.ones(dim), 0.0, 1.0, 1e-5, [0.0, 1.0], drive=drive)

        peak, _ = peak_bytes(run)
        assert peak <= block + 16 * 1024
