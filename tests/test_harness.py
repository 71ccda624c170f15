import dataclasses

import numpy as np
import pytest

from neuralfield import harness
from neuralfield.harness import (
    StudyConfig,
    _h_x,
    default_checkpoints,
    euler_split_study,
    eval_grid,
    exact_grid,
    observed_order,
    projector_error,
    render_csv,
    run_study,
    sandwich_check,
    trajectory_error,
)
from neuralfield.problems import make_problem
from neuralfield.schemes import SCHEMES, reconstruct_on
from neuralfield.timestep import rk54_integrate

# the problem each (scheme, variant) of the table is measured on
CELL_PROBLEMS = {
    ("fe-collocation", "trapezium"): "P1",
    ("cheb-collocation", "cc"): "P3",
    ("cheb-collocation", "trapezium"): "P3",
    ("fe-galerkin", "gauss2"): "P5",
    ("fe-galerkin", "lumped"): "P2",
    ("spectral-galerkin", "fft"): "P8p",
}
CELLS = [pytest.param(CELL_PROBLEMS[key], key, id="/".join(key)) for key in SCHEMES]


# the StudyConfig field that picks among a scheme's entries, where it has several
SELECTORS = {"cheb-collocation": "quadrature", "fe-galerkin": "variant"}


def _selectors(key):
    """StudyConfig's scheme and selector that name ``key``; the other selector
    keeps its default."""
    scheme, variant = key
    return {"scheme": scheme, **({SELECTORS[scheme]: variant} if scheme in SELECTORS else {})}


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


@pytest.mark.parametrize("pid,key", CELLS)
def test_errors_match_the_per_checkpoint_loop(pid, key):
    problem = make_problem(pid)
    system = SCHEMES[key](problem, 16)
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


def _counting_exact(pid):
    """The problem with its closed form wrapped to count the checkpoint x point
    grid evaluations (the calls with a 2-D time argument)."""
    problem = make_problem(pid)
    grid_calls = []

    def exact(x, t):
        if np.ndim(t) == 2:
            grid_calls.append(np.shape(t))
        return problem.exact(x, t)

    return dataclasses.replace(problem, exact=exact), grid_calls


def test_run_study_evaluates_the_closed_form_grid_once_per_problem():
    (p1, p1_calls), (p3, p3_calls) = _counting_exact("P1"), _counting_exact("P3")
    run_study(StudyConfig(problems=(p1, p3), scheme="fe-collocation", n_values=(8, 16, 32)))
    assert p1_calls == p3_calls == [(51, 1)]


def test_sandwich_check_evaluates_the_closed_form_grid_once():
    p1, calls = _counting_exact("P1")
    sandwich_check(p1, "fe-collocation", 16)
    assert calls == [(51, 1)]


@pytest.mark.parametrize("pid,key", CELLS)
def test_a_passed_grid_gives_the_same_bits(pid, key):
    problem = make_problem(pid)
    system = SCHEMES[key](problem, 16)
    cps = default_checkpoints(0.0, 1.0, 11)
    traj = rk54_integrate(system, 0.0, 1.0, 1e-6, 1e-9, cps)
    exact = exact_grid(problem, cps, 1024)
    assert trajectory_error(system, traj, problem, 1024, exact) == trajectory_error(
        system, traj, problem, 1024
    )
    assert projector_error(system, problem, cps, 1024, exact) == projector_error(
        system, problem, cps, 1024
    )


# run_study's 17-digit CSV records without the wall time. P1, P3 and P7p reach
# their worst error at t = 0, the encoded initial state, so their rows pin the
# assembly and the measurement; P6 and P9p peak later, so a change to the
# integration loop or the right-hand side that moves any bit fails here too
GOLDEN = {
    (("P1", "P3", "P6"), "fe-collocation"): """\
P1,fe-collocation,trapezium,8,0.25,0.012833304598058912,,3.5188642679514266
P1,fe-collocation,trapezium,16,0.125,0.0037037834432228425,1.7928210615886482,3.491866001292347
P1,fe-collocation,trapezium,32,0.0625,0.00096327397217380734,1.9429816584659902,3.4851800212176864
P3,fe-collocation,trapezium,8,0.25,0.012833304598058912,,0.96531702752213799
P3,fe-collocation,trapezium,16,0.125,0.0037037834432228425,1.7928210615886482,0.96168612336501491
P3,fe-collocation,trapezium,32,0.0625,0.00096327397217380734,1.9429816584659902,0.96163358827717427
P6,fe-collocation,trapezium,8,0.25,0.015185251897026408,,1.4229315629007546
P6,fe-collocation,trapezium,16,0.125,0.0039334493116099933,1.9488039429672301,1.2939831684214189
P6,fe-collocation,trapezium,32,0.0625,0.00099282435599729046,1.9861845791821715,1.2610443683117403
""",
    (("P7p", "P9p"), "spectral-galerkin"): """\
P7p,spectral-galerkin,fft,8,0.36959913571644626,0.0022164686805541049,,8.4827515581815192
P7p,spectral-galerkin,fft,16,0.19039955476301776,3.234226326159387e-05,6.0986985267438438,8.5359297559964542
P7p,spectral-galerkin,fft,32,0.096664389341224399,1.1631193337841871e-08,11.441205802461891,8.5502834713904257
P9p,spectral-galerkin,fft,8,0.36959913571644626,0.0022164686805541049,,7.5109370868022252
P9p,spectral-galerkin,fft,16,0.19039955476301776,3.234226326159387e-05,6.0986985267438438,7.5580620552248359
P9p,spectral-galerkin,fft,32,0.096664389341224399,4.341857018940396e-08,9.5408927070198093,7.5707742101005699
""",
}


@pytest.mark.parametrize("problems,scheme", list(GOLDEN), ids=["fe-collocation", "spectral-galerkin"])
def test_study_records_match_the_golden_csv(problems, scheme):
    text = render_csv(run_study(StudyConfig(problems=problems, scheme=scheme, n_values=(8, 16, 32))))
    rows = [line.rsplit(",", 1)[0] for line in text.splitlines()[1:]]
    assert rows == GOLDEN[problems, scheme].splitlines()


def test_an_unknown_selector_fails_validation_before_any_work(monkeypatch):
    cfg = StudyConfig(problems=("P1",), scheme="fe-galerkin", n_values=(8,), variant="mass-free")
    with pytest.raises(ValueError, match="unknown variant 'mass-free' for fe-galerkin"):
        cfg.validate()
    builds = []
    monkeypatch.setattr(harness, "build_system", lambda *args, **kwargs: builds.append(args))
    with pytest.raises(ValueError, match="unknown variant 'mass-free'"):
        run_study(cfg)
    assert builds == []
    with pytest.raises(ValueError, match="unknown quadrature 'simpson' for cheb-collocation"):
        dataclasses.replace(cfg, scheme="cheb-collocation", quadrature="simpson").validate()
    with pytest.raises(ValueError, match="unknown scheme 'fe-petrov'"):
        dataclasses.replace(cfg, scheme="fe-petrov").validate()


@pytest.mark.parametrize("pid,key", CELLS)
def test_run_study_labels_each_record_with_the_table_variant(pid, key):
    cfg = StudyConfig(
        problems=(pid,), n_values=(8,), eval_points=32, checkpoint_count=2, **_selectors(key)
    )
    (record,) = run_study(cfg)
    assert (record.scheme, record.variant) == key
    problem = make_problem(pid)
    assert record.h_x == _h_x(problem, SCHEMES[key](problem, 8))


@pytest.mark.parametrize("pid,key", CELLS)
def test_mesh_size_is_the_interval_per_degree_of_freedom(pid, key):
    # h_x is length / n for the compact schemes and length / (2n + 1) on the
    # ring, where 2n + 1 samples carry the modes -n..n
    problem = make_problem(pid)
    for n in (8, 16, 32, 64, 128, 256):
        intervals = 2 * n + 1 if key[0] == "spectral-galerkin" else n
        assert _h_x(problem, SCHEMES[key](problem, n)) == problem.interval.length / intervals
