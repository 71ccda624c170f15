import dataclasses

import numpy as np
import pytest

from neuralfield.harness import (
    StudyConfig,
    build_system,
    default_checkpoints,
    euler_split_study,
    eval_grid,
    observed_order,
    projector_error,
    run_study,
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


def test_euler_split_record_layout():
    hts, ns, spatial_ht = (0.02, 0.01), (8, 16), 1e-3
    result = euler_split_study("P1", 128, hts, spatial_n_values=ns, spatial_ht=spatial_ht)
    temporal, spatial, grid = result.temporal_records, result.spatial_records, result.grid_records

    assert [r.variant for r in temporal] == [f"euler-temporal;ht={ht:.17g}" for ht in hts]
    assert all(r.n == 128 and r.observed_order is None for r in temporal)

    assert [r.variant for r in spatial] == [f"euler-spatial;ht={spatial_ht:.17g}"] * len(ns)
    assert [r.n for r in spatial] == list(ns)
    assert spatial[0].observed_order is None
    assert spatial[1].observed_order == observed_order(spatial[0].error, spatial[1].error, 8, 16)

    # ht-major, n-minor
    assert [(r.variant, r.n) for r in grid] == [(f"euler-grid;ht={ht:.17g}", n) for ht in hts for n in ns]
    assert all(r.observed_order is None for r in grid)

    assert all(r.h_x == 2.0 / r.n for r in temporal + spatial + grid)

    cfg = StudyConfig(problems=("P1",), scheme="fe-collocation", n_values=ns, stepper="euler", ht=spatial_ht)
    studied = run_study(cfg)

    def fields(records):
        return [dataclasses.replace(r, variant="", wall_time_s=0.0) for r in records]

    assert fields(spatial) == fields(studied)
