import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from neuralfield import checks, cli, harness
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
    trajectory_error,
)
from neuralfield.problems import PROBLEM_IDS, make_problem
from neuralfield.schemes import SCHEMES, build_fe_collocation, reconstruct_on
from neuralfield.timestep import IntegrationError, euler_integrate, rk54_integrate

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


# the SCHEMES entries of the sandwich suite's cells, under the StudyConfig defaults
SANDWICH_ENTRIES = (("fe-collocation", "trapezium"), ("cheb-collocation", "cc"))


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


RING_NS = (8, 16, 32, 64, 128, 256)
# how a caller passes the closed form to a ring measurement: run_study's
# shared spectrum for n = 8..256, or not at all
RING_EXACT = {
    "spectrum": lambda problem, cps: harness._ring_spectrum(problem, cps, 2048, RING_NS),
    "none": lambda problem, cps: None,
}


@pytest.mark.parametrize("given", list(RING_EXACT))
def test_measuring_ring_states_holds_less_than_one_table(given, rng, peak_bytes):
    # discrete Parseval reads 51 x 257 coefficients of the states and of the
    # closed form, and one block of rows of its spectrum; a reconstruction
    # on the grid would take a whole table
    problem = make_problem("P7p")
    cps = default_checkpoints(0.0, 1.0, 51)
    exact = RING_EXACT[given](problem, cps)
    system = SCHEMES["spectral-galerkin", "fft"](problem, 256)
    traj = SimpleNamespace(checkpoints=cps, states=rng.standard_normal((51, system.dim)))
    peak, _ = peak_bytes(lambda: trajectory_error(system, traj, problem, 2048, exact))
    assert peak < TABLE_BYTES


def _sampled_l2(system, problem, states, table):
    """The worst checkpoint's trapezium L2 error of the states reconstructed
    on the ring grid of ``table``, the exact_grid of their checkpoints."""
    xs = eval_grid(problem.interval, table.shape[1])
    diff = reconstruct_on(system, states, xs) - table
    weights = np.full(len(xs), problem.interval.length / len(xs))
    return float(np.sqrt(diff**2 @ weights).max())


@pytest.mark.parametrize("pid", ["P7p", "P8p", "P9p", "P10p"])
def test_ring_errors_by_parseval_match_the_sampled_l2_norm(pid):
    problem = make_problem(pid)
    cps = default_checkpoints(0.0, 1.0, 51)
    table = exact_grid(problem, cps, 2048)
    shared = RING_EXACT["spectrum"](problem, cps)
    for n in RING_NS:
        system = SCHEMES["spectral-galerkin", "fft"](problem, n)
        u0 = system.encode(lambda x: problem.exact(x, 0.0))
        traj = rk54_integrate(system.rhs, u0, 0.0, 1.0, 1e-6, 1e-9, cps, drive=system.drive)
        measured = trajectory_error(system, traj, problem, 2048, shared)
        assert _agrees(measured, _sampled_l2(system, problem, traj.states, table))
        assert measured == trajectory_error(system, traj, problem, 2048)
        encoded = system.encode(lambda x: problem.exact(x, cps[:, None]))
        assert _agrees(
            projector_error(system, problem, cps, 2048, shared),
            _sampled_l2(system, problem, encoded, table),
        )


def test_a_table_for_a_ring_measurement_is_refused():
    # on the ring an L2 error reads the closed form's spectrum, never its table
    problem = make_problem("P7p")
    system = SCHEMES["spectral-galerkin", "fft"](problem, 8)
    cps = default_checkpoints(0.0, 1.0, 3)
    table = exact_grid(problem, cps, 64)
    stub = SimpleNamespace(checkpoints=cps, states=system.encode(lambda x: problem.exact(x, cps[:, None])))
    with pytest.raises(TypeError, match="exact on the ring is a _RingSpectrum or None, not ndarray"):
        trajectory_error(system, stub, problem, 64, table)
    with pytest.raises(TypeError, match="exact on the ring is a _RingSpectrum or None, not ndarray"):
        projector_error(system, problem, cps, 64, table)


def test_a_ring_grid_on_which_mode_n_aliases_is_refused():
    problem = make_problem("P7p")
    system = SCHEMES["spectral-galerkin", "fft"](problem, 8)
    cps = default_checkpoints(0.0, 1.0, 3)
    encoded = system.encode(lambda x: problem.exact(x, cps[:, None]))
    stub = SimpleNamespace(checkpoints=cps, states=encoded)
    with pytest.raises(ValueError, match=r"eval_points = 16 is below 2n \+ 1 = 17"):
        trajectory_error(system, stub, problem, 16)
    with pytest.raises(ValueError, match=r"eval_points = 16 is below 2n \+ 1 = 17"):
        projector_error(system, problem, cps, 16)
    # on 2n + 1 points mode n is still resolved
    assert _agrees(
        projector_error(system, problem, cps, 17),
        _sampled_l2(system, problem, encoded, exact_grid(problem, cps, 17)),
    )


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


@pytest.mark.parametrize("pid,key", CELLS)
def test_one_n_builds_the_cell_itself(pid, key, rng):
    problem = make_problem(pid)
    system = harness.build_system(problem, key, 16)
    cell = SCHEMES[key](problem, 16)
    assert system.parts == (system,)
    g, a = cell.drive([0.3])[0], rng.standard_normal(cell.dim)
    assert np.array_equal(system.rhs(g, a), cell.rhs(g, a))


def _counted_euler(monkeypatch):
    """The (state length, steps) of each harness.euler_integrate call, in call order."""
    calls = []

    def counted(rhs, u0, t0, duration, ht, *args, **kwargs):
        calls.append((len(u0), round(duration / ht)))
        return euler_integrate(rhs, u0, t0, duration, ht, *args, **kwargs)

    monkeypatch.setattr(harness, "euler_integrate", counted)
    return calls


def test_an_euler_study_integrates_its_n_as_one_stack(monkeypatch):
    calls = _counted_euler(monkeypatch)
    cfg = StudyConfig(problems=("P2",), scheme="fe-collocation", n_values=(8, 16, 32, 64),
                      stepper="euler", ht=1e-3)
    records = run_study(cfg)
    assert calls == [(9 + 17 + 33 + 65, 1000)]
    # each row takes a quarter of the stack's time
    assert len({r.wall_time_s for r in records}) == 1
    calls.clear()
    euler_split_study("P1", 256, (0.02, 0.01, 0.005, 0.0025), spatial_ht=1e-3)
    # four temporal runs at n = 256, the spatial sweep's stack and one stack
    # per grid row; one call per cell was 4 + 4 + 16 = 24
    stacked = 17 + 33 + 65 + 129
    assert calls == [(257, 50), (257, 100), (257, 200), (257, 400), (stacked, 1000),
                     (stacked, 50), (stacked, 100), (stacked, 200), (stacked, 400)]


def _blowing_builder(onsets):
    """fe-collocation whose drive turns infinite from time ``onsets[n]`` on."""

    def build(problem, n):
        system = build_fe_collocation(problem, n)
        if n not in onsets:
            return system

        def drive(ts):
            rows = system.drive(ts)
            rows[np.asarray(ts) >= onsets[n]] = np.inf
            return rows

        return dataclasses.replace(system, drive=drive)

    return build


def test_a_failing_stack_raises_the_error_of_its_first_failing_cell(monkeypatch, capsys):
    # the stack fails first at n = 64's onset, but one cell at a time n = 16
    # fails first, later
    build = _blowing_builder({16: 0.5, 64: 0.2})
    monkeypatch.setitem(harness.SCHEMES, ("fe-collocation", "trapezium"), build)
    p1, cps = make_problem("P1"), default_checkpoints(0.0, 1.0, 51)
    alone = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for n in (16, 64):
            cell = build(p1, n)
            with pytest.raises(IntegrationError) as raised:
                euler_integrate(cell.rhs, cell.encode(lambda x: p1.exact(x, 0.0)), 0.0, 1.0, 1e-2,
                                cps, drive=cell.drive)
            alone[n] = str(raised.value)
        assert alone[16] != alone[64]
        calls = _counted_euler(monkeypatch)
        cfg = StudyConfig(problems=(p1,), scheme="fe-collocation", n_values=(8, 16, 32, 64),
                          stepper="euler", ht=1e-2)
        with pytest.raises(IntegrationError) as raised:
            run_study(cfg)
        assert str(raised.value) == alone[16]
        # the failed stack, then n = 8 to its end and n = 16 to its failure
        assert [dim for dim, _ in calls] == [9 + 17 + 33 + 65, 9, 17]
        code = cli.main(["converge", "--problems", "P1", "--n", "8,16,32,64",
                         "--scheme", "fe-collocation", "--stepper", "euler", "--ht", "0.01"])
    assert code == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err == f"numerical failure: {alone[16]}\n"


# the Euler split's own configurations and checkpoints, besides its cells
SPLIT_SLACK = 4 * 1024


def test_the_euler_split_peaks_at_its_reference_cell(peak_bytes):
    # the n = 256 reference cell's K and states, held through the spatial and
    # grid sweeps, put the split's peak at 2,923 KiB, against 2,557 KiB for the
    # cell itself
    p1 = make_problem("P1")
    reference_cfg = StudyConfig(problems=(p1,), scheme="fe-collocation", n_values=(256,),
                                rtol=1e-10, atol=1e-12)

    def reference_cell():
        cps = default_checkpoints(0.0, 1.0, 51)
        return list(harness._records(p1, reference_cfg, cps, exact_grid(p1, cps, 2048)))

    reference, _ = peak_bytes(reference_cell)
    split, _ = peak_bytes(lambda: euler_split_study(p1, 256, (0.02, 0.01, 0.005, 0.0025),
                                                    spatial_ht=1e-3))
    assert split <= reference + SPLIT_SLACK


def _verdict_inputs(monkeypatch):
    """The (error, projector, beta_n, floor) of each sandwich cell, in call order."""
    seen = []
    verdict = checks.sandwich_verdict

    def record(*args):
        seen.append(args)
        return verdict(*args)

    monkeypatch.setattr(checks, "sandwich_verdict", record)
    return seen


def test_diagnostics_relations(monkeypatch):
    # every record's and every sandwich cell's beta_n is T ||W_n|| sup|f'|,
    # bitwise, in that order of multiplication
    p1 = make_problem("P1")
    slope = p1.firing.sup_derivative

    def beta(n, duration, key):
        return duration * harness.build_system(p1, key, n).weight_infnorm * slope

    for key in SCHEMES:
        if key[0] == "spectral-galerkin":
            continue
        cfg = StudyConfig(problems=(p1,), n_values=(8, 16), duration=0.5, **_selectors(key))
        assert [r.beta_n for r in run_study(cfg)] == [beta(n, 0.5, key) for n in (8, 16)]
    seen = _verdict_inputs(monkeypatch)
    for key in SANDWICH_ENTRIES:
        checks.sandwich_check(p1, key[0], 16)
        assert seen[-1][2] == beta(16, 1.0, key)

    result = euler_split_study(p1, 128, (0.02, 0.01), spatial_n_values=(8, 16), spatial_ht=1e-3)
    records = result.temporal_records + result.spatial_records + result.grid_records
    assert [r.beta_n for r in records] == [beta(r.n, 1.0, ("fe-collocation", "trapezium")) for r in records]


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


# on the ring the closed form's rows feed the shared spectrum, not a table
@pytest.mark.parametrize(
    "scheme,pids", [("fe-collocation", ("P1", "P3")), ("spectral-galerkin", ("P7p", "P9p"))]
)
def test_run_study_evaluates_the_closed_form_grid_once_per_problem(scheme, pids):
    counted = [_counting_exact(pid) for pid in pids]
    run_study(StudyConfig(problems=[p for p, _ in counted], scheme=scheme, n_values=(8, 16, 32)))
    assert [calls for _, calls in counted] == [GRID_ROWS] * len(pids)


def test_a_later_start_integrates_from_the_closed_form_at_that_time():
    # at t0 = 0.5 the state starts from u(., 0.5); u(., 0) would leave an O(1) error
    def sweep(t0):
        cfg = StudyConfig(problems=("P1",), scheme="fe-collocation", n_values=(16, 32), t0=t0)
        return run_study(cfg)

    at_zero, later = sweep(0.0), sweep(0.5)
    for start, shifted in zip(at_zero, later):
        assert shifted.error <= 2.0 * start.error
    assert 1.8 <= later[1].observed_order <= 2.2


def test_the_euler_split_evaluates_the_closed_form_grid_once():
    # its reference cell, spatial sweep and grid sweeps share one exact_grid
    p1, calls = _counting_exact("P1")
    euler_split_study(p1, 128, (0.02, 0.01), spatial_n_values=(8, 16), spatial_ht=1e-3)
    assert calls == GRID_ROWS


def test_sandwich_check_evaluates_the_closed_form_grid_once():
    p1, calls = _counting_exact("P1")
    checks.sandwich_check(p1, "fe-collocation", 16)
    assert calls == GRID_ROWS


def test_the_sandwich_suite_builds_each_problem_once(monkeypatch):
    built = []

    def counting_make_problem(pid):
        built.append(pid)
        return make_problem(pid)

    # a problem built by name anywhere on a cell's path, in checks or in harness, counts
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


def test_a_sandwich_cell_is_the_sweep_cell_bitwise(monkeypatch):
    seen = _verdict_inputs(monkeypatch)
    results = checks.sandwich_suite()
    swept = [
        record
        for pid in ("P1", "P2", "P3", "P4", "P5", "P6")
        for key in SANDWICH_ENTRIES
        for record in run_study(StudyConfig(problems=(pid,), n_values=(16, 32, 64), **_selectors(key)))
    ]
    assert [r.name for r in results] == [f"sandwich {r.problem} {r.scheme} n={r.n}" for r in swept]
    assert [(error, beta_n) for error, _, beta_n, _ in seen] == [(r.error, r.beta_n) for r in swept]


@pytest.mark.parametrize("pid,key", CELLS)
def test_a_sandwich_check_reads_its_sweep_cell_on_every_entry(pid, key, monkeypatch):
    # on the ring it passed its exact_grid table to the Parseval path and
    # raised TypeError; the check picks an entry by StudyConfig's selector
    # defaults, here set to the entry's own
    selectors = _selectors(key)
    scheme = selectors.pop("scheme")
    fields = [(name, str, dataclasses.field(default=value)) for name, value in selectors.items()]
    selected = dataclasses.make_dataclass("Selected", fields, bases=(StudyConfig,))
    monkeypatch.setattr(checks, "StudyConfig", selected)
    seen = _verdict_inputs(monkeypatch)
    result = checks.sandwich_check(pid, scheme, 16)
    problem = make_problem(pid)
    cps = default_checkpoints(0.0, 1.0, 51)
    (record,) = run_study(StudyConfig(problems=(pid,), n_values=(16,), **_selectors(key)))
    projector = projector_error(SCHEMES[key](problem, 16), problem, cps)
    floor = 10.0 * (1e-6 * float(np.max(np.abs(exact_grid(problem, cps, 2048)))) + 1e-9)
    assert result.name == f"sandwich {pid} {scheme} n=16"
    assert seen == [(record.error, projector, record.beta_n, floor)]


def test_a_passed_grid_gives_the_same_sandwich_result(monkeypatch):
    seen = _verdict_inputs(monkeypatch)
    p1 = make_problem("P1")
    exact = exact_grid(p1, default_checkpoints(0.0, 1.0, 51), 2048)
    for scheme, n in (("fe-collocation", 16), ("cheb-collocation", 64)):
        assert checks.sandwich_check(p1, scheme, n, exact) == checks.sandwich_check(p1, scheme, n)
        assert seen[-2] == seen[-1]


@pytest.mark.parametrize("pid,key", CELLS)
def test_a_passed_grid_gives_the_same_bits(pid, key):
    problem = make_problem(pid)
    system = SCHEMES[key](problem, 16)
    cps = default_checkpoints(0.0, 1.0, 11)
    u0 = system.encode(lambda x: problem.exact(x, 0.0))
    traj = rk54_integrate(system.rhs, u0, 0.0, 1.0, 1e-6, 1e-9, cps, drive=system.drive)
    # on the ring an L2 error reads the shared spectrum, not the table
    if problem.interval.periodic:
        exact = harness._ring_spectrum(problem, cps, 1024, (16,))
    else:
        exact = exact_grid(problem, cps, 1024)
    assert trajectory_error(system, traj, problem, 1024, exact) == trajectory_error(
        system, traj, problem, 1024
    )
    assert projector_error(system, problem, cps, 1024, exact) == projector_error(
        system, problem, cps, 1024
    )


# run_study's 17-digit CSV records without the wall time, per study: its
# StudyConfig fields besides n_values = (8, 16, 32), and its rows. On
# fe-collocation and spectral-galerkin, P1, P3 and P7p reach their worst error
# at t = 0, the encoded initial state, so their rows pin the assembly and the
# measurement; P6 and P9p peak later, so a change to the integration loop or
# the right-hand side that moves any bit fails here too. The rk54 rows of the
# other four SCHEMES entries pin each entry's pre and post, and the Euler rows
# pin that stepper's loop; cheb-collocation/trapezium is in no benchmark
# workload.
GOLDEN = {
    "fe-collocation": (
        dict(problems=("P1", "P3", "P6"), scheme="fe-collocation"),
        """\
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
    ),
    "spectral-galerkin": (
        dict(problems=("P7p", "P9p"), scheme="spectral-galerkin"),
        """\
P7p,spectral-galerkin,fft,8,0.36959913571644626,0.0022164686805540936,,8.4827515581815192
P7p,spectral-galerkin,fft,16,0.19039955476301776,3.2342263261596716e-05,6.0986985267437097,8.5359297559964542
P7p,spectral-galerkin,fft,32,0.096664389341224399,1.1631193336748048e-08,11.441205802597691,8.5502834713904257
P9p,spectral-galerkin,fft,8,0.36959913571644626,0.0022164686805540936,,7.5109370868022252
P9p,spectral-galerkin,fft,16,0.19039955476301776,3.2342263261596716e-05,6.0986985267437097,7.5580620552248359
P9p,spectral-galerkin,fft,32,0.096664389341224399,4.3418566737389641e-08,9.540892821722105,7.5707742101005699
""",
    ),
    "cheb-collocation/cc": (
        dict(problems=("P3", "P6"), scheme="cheb-collocation", quadrature="cc"),
        """\
P3,cheb-collocation,cc,8,0.25,0.0083271872131005509,,0.99806333675350978
P3,cheb-collocation,cc,16,0.125,0.00015783938650737461,5.7213001004090822,0.96229947982994979
P3,cheb-collocation,cc,32,0.0625,6.2087556151890766e-08,11.31186548681025,0.96161853526907437
P6,cheb-collocation,cc,8,0.25,0.0017992542859016913,,1.2504869052765211
P6,cheb-collocation,cc,16,0.125,2.740369934342568e-05,6.0368846227425044,1.2500310841541817
P6,cheb-collocation,cc,32,0.0625,4.7580843998140665e-07,5.8478459889341803,1.2500019364000938
""",
    ),
    "cheb-collocation/trapezium": (
        dict(problems=("P2", "P6"), scheme="cheb-collocation", quadrature="trapezium"),
        """\
P2,cheb-collocation,trapezium,8,0.25,0.054478038052230393,,0.85393760140598174
P2,cheb-collocation,trapezium,16,0.125,0.017311696974815272,1.6539275962486828,0.52237927217515645
P2,cheb-collocation,trapezium,32,0.0625,0.0046614914958680309,1.8928836113370897,0.43203976585062553
P6,cheb-collocation,trapezium,8,0.25,0.0095233246202979793,,1.4229315629007546
P6,cheb-collocation,trapezium,16,0.125,0.0023856001987495601,1.997113027569265,1.5061875414869648
P6,cheb-collocation,trapezium,32,0.0625,0.0005969556680424648,1.9986565817861246,1.4290278958757618
""",
    ),
    "fe-galerkin/gauss2": (
        dict(problems=("P2", "P6"), scheme="fe-galerkin", variant="gauss2"),
        """\
P2,fe-galerkin,gauss2,8,0.25,0.0034918325727502295,,0.26939324157930067
P2,fe-galerkin,gauss2,16,0.125,0.00072989776287369029,2.2582180816508757,0.29527259900983382
P2,fe-galerkin,gauss2,32,0.0625,0.00017971179884437852,2.0220092681380635,0.29753650330023163
P6,fe-galerkin,gauss2,8,0.25,0.0030903784835150357,,1.2625485873244058
P6,fe-galerkin,gauss2,16,0.125,0.00072989776287369029,2.0820172338046756,1.2532245573288583
P6,fe-galerkin,gauss2,32,0.0625,0.00017971179884437852,2.0220092681380635,1.2508118707532254
""",
    ),
    "fe-galerkin/lumped": (
        dict(problems=("P2", "P6"), scheme="fe-galerkin", variant="lumped"),
        """\
P2,fe-galerkin,lumped,8,0.25,0.063007630567896211,,0.85294236815886648
P2,fe-galerkin,lumped,16,0.125,0.019855238883249197,1.6660068390506482,0.47301633125390075
P2,fe-galerkin,lumped,32,0.0625,0.0053341981714969747,1.8961763896346182,0.34490528969215295
P6,fe-galerkin,lumped,8,0.25,0.014220980401748507,,1.4229315629007546
P6,fe-galerkin,lumped,16,0.125,0.0035785113735417682,1.990589458452922,1.2939831684214189
P6,fe-galerkin,lumped,32,0.0625,0.00089609108572776376,1.9976422732720327,1.2610443683117403
""",
    ),
    "fe-collocation/euler": (
        dict(problems=("P2",), scheme="fe-collocation", stepper="euler", ht=1e-3),
        """\
P2,fe-collocation,trapezium,8,0.25,0.058842319279830191,,0.85294236815886648
P2,fe-collocation,trapezium,16,0.125,0.018764077392738998,1.6488807554014229,0.47301633125390075
P2,fe-collocation,trapezium,32,0.0625,0.0051111458096116946,1.8762547024620353,0.34490528969215295
""",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_study_records_match_the_golden_csv(name):
    fields, golden = GOLDEN[name]
    text = render_csv(run_study(StudyConfig(n_values=(8, 16, 32), **fields)))
    rows = [line.rsplit(",", 1)[0] for line in text.splitlines()[1:]]
    assert rows == golden.splitlines()


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


@pytest.mark.parametrize(
    "scheme,selector,value",
    [
        ("fe-collocation", "variant", "lumped"),
        ("fe-collocation", "quadrature", "trapezium"),
        ("cheb-collocation", "variant", "lumped"),
        ("fe-galerkin", "quadrature", "trapezium"),
        ("spectral-galerkin", "variant", "lumped"),
    ],
)
def test_a_selector_its_scheme_does_not_read_fails_validation_before_any_work(
    scheme, selector, value, monkeypatch
):
    cfg = StudyConfig(problems=("P1",), scheme=scheme, n_values=(8,), **{selector: value})
    builds = []
    monkeypatch.setattr(harness, "build_system", lambda *args, **kwargs: builds.append(args))
    with pytest.raises(ValueError, match=f"{selector} '{value}' applies to [a-z-]+ only, not to {scheme}"):
        run_study(cfg)
    assert builds == []
    # at its default the selector is accepted, as the benchmark's configurations pass it
    dataclasses.replace(cfg, **{selector: getattr(StudyConfig, selector)}).validate()


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
