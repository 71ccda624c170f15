import numpy as np
import pytest

from neuralfield.checks import scalar_decay_system
from neuralfield.problems import pure_decay_problem
from neuralfield.schemes import SchemeDiagnostics, SemiDiscreteSystem, build_fe_collocation
from neuralfield.timestep import (
    IntegrationError,
    _dormand_prince_step,
    euler_integrate,
    rk54_integrate,
)


def make_system(dim, rhs, initial):
    assert len(initial) == dim
    return SemiDiscreteSystem(
        rhs=rhs,
        initial=np.asarray(initial, dtype=float),
        reconstruct=lambda a, xs: a[..., :1] * np.ones(np.shape(xs)),
        diagnostics=SchemeDiagnostics(0.0, 0.0),
        norm="sup",
        encode=lambda fn: np.asarray(initial, dtype=float),
    )


class TestEuler:
    def test_single_step_decay(self):
        traj = euler_integrate(scalar_decay_system(), 0.0, 0.1, 0.1, [0.0, 0.1])
        assert traj.states[0][0] == 1.0
        assert traj.states[1][0] == pytest.approx(0.9, abs=1e-16)

    def test_zero_field_is_constant(self):
        system = make_system(3, lambda t, a: np.zeros(3), [1.0, -2.0, 0.5])
        traj = euler_integrate(system, 0.0, 1.0, 0.05, np.linspace(0.0, 1.0, 11))
        assert np.all(traj.states == traj.states[0])
        assert traj.stats.rhs_evals == 20

    def test_first_order_convergence(self):
        system = scalar_decay_system()
        hs = np.array([1e-2, 5e-3, 2.5e-3, 1.25e-3])
        errs = np.array(
            [
                abs(euler_integrate(system, 0.0, 1.0, h, [0.0, 1.0]).states[-1][0] - np.exp(-1.0))
                for h in hs
            ]
        )
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 0.95 <= slope <= 1.05

    def test_off_lattice_checkpoint_rejected(self):
        with pytest.raises(ValueError, match="lattice"):
            euler_integrate(scalar_decay_system(), 0.0, 1.0, 0.1, [0.0, 0.35])

    def test_checkpoint_validation(self):
        system = scalar_decay_system()
        with pytest.raises(ValueError):
            euler_integrate(system, 0.0, 1.0, 0.1, [0.5, 0.2])
        with pytest.raises(ValueError):
            euler_integrate(system, 0.0, 1.0, 0.1, [0.0, 1.5])
        with pytest.raises(ValueError):
            euler_integrate(system, 0.0, 1.0, -0.1, [0.0, 0.5])

    def test_blowup_raises_at_the_first_non_finite_checkpoint(self):
        # u' = u^2 from u(0) = 1 blows up at t = 1; with ht = 0.01 the Euler
        # iterate is 30.4 at t = 1 and has overflowed by t = 1.5
        system = make_system(1, lambda t, a: a * a, [1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError, match="non-finite state at checkpoint t=1.5"):
                euler_integrate(system, 0.0, 2.0, 0.01, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_vector_decay_matches_exponential(self, p1):
        system = build_fe_collocation(pure_decay_problem(), 8)
        traj = euler_integrate(system, 0.0, 1.0, 1e-4, [0.0, 0.5, 1.0])
        exact = 0.4 * np.exp(-np.asarray([0.0, 0.5, 1.0]))
        assert np.max(np.abs(traj.states[:, 0] - exact)) <= 1e-4


class TestDormandPrince:
    def test_scalar_decay_accuracy(self):
        traj = rk54_integrate(scalar_decay_system(), 0.0, 1.0, 1e-8, 1e-10, [0.0, 1.0])
        assert abs(traj.states[-1][0] - np.exp(-1.0)) <= 1e-7

    def test_zero_field_one_step_per_gap(self):
        # gaps equal the deterministic initial step T/100, so each gap costs
        # exactly one accepted (clipped) step and nothing is ever rejected
        system = make_system(2, lambda t, a: np.zeros(2), [2.0, -1.0])
        cps = np.linspace(0.0, 1.0, 101)
        traj = rk54_integrate(system, 0.0, 1.0, 1e-6, 1e-10, cps)
        assert traj.stats.accepted == 100
        assert traj.stats.rejected == 0
        assert np.all(traj.states == traj.states[0])

    def test_quintic_single_forced_step(self):
        # u' = 5 t^4 integrated by one stage sweep: the 5th-order weights are
        # exact on u = t^5, and the embedded difference bounds the 4th-order
        # proposal's true error
        rhs = lambda t, u: np.array([5.0 * t**4])  # noqa: E731
        proposal, error = _dormand_prince_step(rhs, 0.0, np.array([0.0]), 0.3)
        assert proposal[0] == pytest.approx(0.3**5, abs=1e-15)
        assert abs(error[0]) > 0.0
        assert abs(proposal[0] - 0.3**5) <= abs(error[0])

    def test_stats_accounting(self):
        system = scalar_decay_system()
        traj = rk54_integrate(system, 0.0, 1.0, 1e-8, 1e-10, np.linspace(0.0, 1.0, 6))
        attempts = traj.stats.accepted + traj.stats.rejected
        assert traj.stats.rhs_evals == 7 * attempts
        assert attempts >= 5  # at least one per checkpoint gap

    def test_determinism_bitwise(self, p1):
        system = build_fe_collocation(p1, 16)
        cps = np.linspace(0.0, 1.0, 11)
        a = rk54_integrate(system, 0.0, 1.0, 1e-6, 1e-9, cps)
        b = rk54_integrate(system, 0.0, 1.0, 1e-6, 1e-9, cps)
        assert np.array_equal(a.states, b.states)
        assert a.stats == b.stats

    def test_blowup_raises_underflow(self):
        # u' = u^2 with u(0) = 3 blows up at t = 1/3; the controller must
        # shrink past the floor and raise instead of looping forever
        system = make_system(1, lambda t, a: a * a, [3.0])
        with pytest.raises(IntegrationError, match="underflow"):
            rk54_integrate(system, 0.0, 1.0, 1e-6, 1e-9, [0.0, 1.0])

    def test_nonfinite_rhs_raises(self):
        system = make_system(1, lambda t, a: a * np.nan, [1.0])
        with pytest.raises(IntegrationError, match="non-finite"):
            rk54_integrate(system, 0.0, 1.0, 1e-6, 1e-9, [0.0, 1.0])

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            rk54_integrate(scalar_decay_system(), 0.0, 1.0, -1e-6, 1e-9, [0.0, 1.0])

    def test_checkpoint_error_tracks_tolerance(self):
        # heuristic tolerance proportionality on the scalar problem
        system = scalar_decay_system()
        for rtol in (1e-6, 1e-8):
            traj = rk54_integrate(system, 0.0, 1.0, rtol, rtol * 1e-3, [0.0, 0.5, 1.0])
            err = abs(traj.states[-1][0] - np.exp(-1.0))
            assert err <= 50.0 * rtol
