import numpy as np
import pytest

from neuralfield.harness import (
    build_system,
    default_checkpoints,
    eval_grid,
    projector_error,
    trajectory_error,
)
from neuralfield.problems import make_problem
from neuralfield.schemes import reconstruct_on
from neuralfield.timestep import rk54_integrate

CELLS = [
    ("P1", "fe-collocation", {}),
    ("P3", "cheb-collocation", {"quadrature": "cc"}),
    ("P3", "cheb-collocation", {"quadrature": "trapezium"}),
    ("P2", "fe-galerkin", {"variant": "lumped"}),
    ("P5", "fe-galerkin", {"variant": "gauss2"}),
    ("P8p", "spectral-galerkin", {}),
]


def _loop_oracle(system, problem, states, checkpoints, eval_points):
    """Per-checkpoint reference: one reconstruction and one norm per state."""
    iv = problem.interval
    xs = eval_grid(iv, eval_points)
    if iv.periodic:
        weights = np.full(eval_points, iv.length / eval_points)
    else:
        weights = np.full(eval_points, iv.length / (eval_points - 1))
        weights[0] /= 2.0
        weights[-1] /= 2.0
    worst = 0.0
    for t, state in zip(checkpoints, states):
        diff = reconstruct_on(system, state, xs) - problem.exact(xs, t)
        err = np.sqrt(weights @ diff**2) if system.norm == "l2" else np.max(np.abs(diff))
        worst = max(worst, float(err))
    return worst


def _agrees(measured, oracle):
    return abs(measured - oracle) <= max(1e-12 * oracle, 1e-15)


@pytest.mark.parametrize("pid,scheme,selectors", CELLS)
def test_errors_match_the_per_checkpoint_loop(pid, scheme, selectors):
    problem = make_problem(pid)
    system = build_system(problem, scheme, 16, **selectors)
    cps = default_checkpoints(0.0, 1.0, 11)
    traj = rk54_integrate(system, 0.0, 1.0, 1e-6, 1e-9, cps)
    assert _agrees(
        trajectory_error(system, traj, problem, 1024),
        _loop_oracle(system, problem, traj.states, cps, 1024),
    )
    encoded = [system.encode(lambda x, t=t: problem.exact(x, t)) for t in cps]
    assert _agrees(
        projector_error(system, problem, cps, 1024),
        _loop_oracle(system, problem, encoded, cps, 1024),
    )
