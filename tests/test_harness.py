import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from neuralfield import checks, harness
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
from neuralfield.problems import PROBLEM_IDS, make_problem
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


def test_a_stack_with_the_wrong_state_count_is_rejected():
    # one state for 51 checkpoints broadcast over them all: an Euler run with
    # --T 1e-300 once printed the t = 0 error 0.012833... for it
    problem = make_problem("P1")
    system = SCHEMES["fe-collocation", "trapezium"](problem, 8)
    start = system.encode(lambda x: problem.exact(x, 0.0))
    stub = SimpleNamespace(checkpoints=default_checkpoints(0.0, 1e-300, 51), states=start[None, :])
    with pytest.raises(ValueError, match="got 1 for 51 checkpoints"):
        trajectory_error(system, stub, problem)


# one (checkpoints x points) float table of the sweeps: 51 states on 2048 points
TABLE_BYTES = 8 * 51 * 2048
# what a basis evaluation holds for one block of points
BLOCK_BYTES = 256 * 1024
# numpy's iterator buffers, the point-length vectors and array headers; a
# second table would add 0.8 MiB
MEASURE_SLACK = 256 * 1024


@pytest.mark.parametrize(
    "key", [("fe-collocation", "trapezium"), ("fe-galerkin", "gauss2")], ids="/".join
)
def test_measuring_tent_states_holds_one_table_and_a_block(key, rng, peak_bytes):
    # the reconstruction and one block of its weighted end values; the
    # difference, square and absolute value are taken in place, in the sup
    # and the L2 norm alike
    problem = make_problem("P1")
    cps = default_checkpoints(0.0, 1.0, 51)
    exact = exact_grid(problem, cps, 2048)
    system = SCHEMES[key](problem, 256)
    traj = SimpleNamespace(checkpoints=cps, states=rng.standard_normal((51, system.dim)))
    peak, _ = peak_bytes(lambda: trajectory_error(system, traj, problem, 2048, exact))
    assert peak <= TABLE_BYTES + BLOCK_BYTES + MEASURE_SLACK


@pytest.mark.parametrize("pid,key", CELLS)
def test_errors_match_the_per_checkpoint_loop(pid, key):
    problem = make_problem(pid)
    system = SCHEMES[key](problem, 16)
    cps = default_checkpoints(0.0, 1.0, 11)
    u0 = system.encode(lambda x: problem.exact(x, 0.0))
    traj = rk54_integrate(system.rhs, u0, 0.0, 1.0, 1e-6, 1e-9, cps, drive=system.drive)
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


@pytest.mark.parametrize("eval_points", [1000, 2048])
@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_exact_grid_is_bitwise_the_one_expression_form(pid, eval_points):
    problem = make_problem(pid)
    cps = default_checkpoints(0.0, 1.0, 51)
    grid = exact_grid(problem, cps, eval_points)
    assert not grid.flags.writeable
    whole = problem.exact(eval_grid(problem.interval, eval_points), cps[:, None])
    assert np.array_equal(grid, whole)


@pytest.mark.parametrize("pid", ["P1", "P7p"])
def test_exact_grid_peaks_at_one_table(pid, peak_bytes):
    # the closed form evaluated whole kept its envelope table beside the
    # inverse's output: 1.69 MB at its peak for the 0.84 MB it returned on P1
    problem = make_problem(pid)
    table = 8 * 51 * 2048
    peak, held = peak_bytes(lambda: exact_grid(problem, default_checkpoints(0.0, 1.0, 51), 2048))
    assert held >= table
    assert peak <= table + 256 * 1024


# the default checkpoints, one row each of the checkpoint x point grid
GRID_ROWS = default_checkpoints(0.0, 1.0, 51).tolist()


def _counting_exact(pid):
    """The problem with its closed form wrapped to record the checkpoints of
    the checkpoint x point grid rows it evaluates (the calls on the default
    evaluation grid with a 2-D time argument, one column of checkpoints in
    each block of rows; a projector error's table at the scheme's nodes is
    not such a row)."""
    problem = make_problem(pid)
    grid_rows = []

    def exact(x, t):
        if np.ndim(t) == 2 and np.shape(x) == (StudyConfig.eval_points,):
            grid_rows.extend(np.ravel(t).tolist())
        return problem.exact(x, t)

    return dataclasses.replace(problem, exact=exact), grid_rows


def test_run_study_evaluates_the_closed_form_grid_once_per_problem():
    (p1, p1_calls), (p3, p3_calls) = _counting_exact("P1"), _counting_exact("P3")
    run_study(StudyConfig(problems=(p1, p3), scheme="fe-collocation", n_values=(8, 16, 32)))
    assert p1_calls == p3_calls == GRID_ROWS


def test_a_later_start_integrates_from_the_closed_form_at_that_time():
    # at t0 = 0.5 the state starts from u(., 0.5); u(., 0) would leave an O(1) error
    def sweep(t0):
        cfg = StudyConfig(problems=("P1",), scheme="fe-collocation", n_values=(16, 32), t0=t0)
        return run_study(cfg)

    at_zero, later = sweep(0.0), sweep(0.5)
    for start, shifted in zip(at_zero, later):
        assert shifted.error <= 2.0 * start.error
    assert 1.8 <= later[1].observed_order <= 2.2


def test_sandwich_check_evaluates_the_closed_form_grid_once():
    p1, calls = _counting_exact("P1")
    sandwich_check(p1, "fe-collocation", 16)
    assert calls == GRID_ROWS


def test_the_sandwich_suite_builds_each_problem_once(monkeypatch):
    built = []

    def counting_make_problem(pid):
        built.append(pid)
        return make_problem(pid)

    # sandwich_check would build a problem it is given by name through harness's binding
    monkeypatch.setattr(checks, "make_problem", counting_make_problem)
    monkeypatch.setattr(harness, "make_problem", counting_make_problem)
    results = checks.sandwich_suite()
    assert built == ["P1", "P2", "P3", "P4", "P5", "P6"]
    assert len(results) == 36


def test_the_sandwich_suite_evaluates_each_closed_form_grid_once(monkeypatch):
    counted = {pid: _counting_exact(pid) for pid in ("P1", "P2", "P3", "P4", "P5", "P6")}
    monkeypatch.setattr(checks, "make_problem", lambda pid: counted[pid][0])
    checks.sandwich_suite()
    assert all(calls == GRID_ROWS for _, calls in counted.values())


@pytest.mark.parametrize("pid,key", CELLS)
def test_projector_error_encodes_its_checkpoint_table_in_one_call(pid, key):
    problem = make_problem(pid)
    system = SCHEMES[key](problem, 16)
    tables = []

    def encode(fn):
        tables.append(system.encode(fn))
        return tables[-1]

    cps = default_checkpoints(0.0, 1.0, 11)
    projector_error(dataclasses.replace(system, encode=encode), problem, cps, 1024)
    assert len(tables) == 1 and tables[0].shape == (len(cps), system.dim)


def test_a_passed_grid_gives_the_same_sandwich_result():
    p1 = make_problem("P1")
    exact = exact_grid(p1, default_checkpoints(0.0, 1.0, 51), 2048)
    for scheme, n in (("fe-collocation", 16), ("cheb-collocation", 64)):
        assert sandwich_check(p1, scheme, n, exact) == sandwich_check(p1, scheme, n)


@pytest.mark.parametrize("pid,key", CELLS)
def test_a_passed_grid_gives_the_same_bits(pid, key):
    problem = make_problem(pid)
    system = SCHEMES[key](problem, 16)
    cps = default_checkpoints(0.0, 1.0, 11)
    u0 = system.encode(lambda x: problem.exact(x, 0.0))
    traj = rk54_integrate(system.rhs, u0, 0.0, 1.0, 1e-6, 1e-9, cps, drive=system.drive)
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
P6,fe-collocation,trapezium,8,0.25,0.015185251897028018,,1.4229315629007546
P6,fe-collocation,trapezium,16,0.125,0.0039334493116114921,1.9488039429668336,1.2939831684214189
P6,fe-collocation,trapezium,32,0.0625,0.00099282435599881702,1.9861845791805028,1.2610443683117403
""",
    (("P7p", "P9p"), "spectral-galerkin"): """\
P7p,spectral-galerkin,fft,8,0.36959913571644626,0.0022164686805541036,,8.4827515581815192
P7p,spectral-galerkin,fft,16,0.19039955476301776,3.2342263261592637e-05,6.098698526743898,8.5359297559964542
P7p,spectral-galerkin,fft,32,0.096664389341224399,1.1631193337589738e-08,11.44120580249311,8.5502834713904257
P9p,spectral-galerkin,fft,8,0.36959913571644626,0.0022164686805541036,,7.5109370868022252
P9p,spectral-galerkin,fft,16,0.19039955476301776,3.2342263261592637e-05,6.098698526743898,7.5580620552248359
P9p,spectral-galerkin,fft,32,0.096664389341224399,4.3418566694429566e-08,9.5408928231493846,7.5707742101005699
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
