"""Error measurement, convergence studies, the Euler error split, and CSV emission.

This is the engine behind the reproduction studies: it builds a scheme per
(problem, n) cell, integrates it, measures the worst-over-time spatial
error against the closed form, records each cell's beta_n, and emits
deterministic CSV records. One loop, :func:`_records`, runs every
study's cells; :mod:`neuralfield.checks` tests its records against the
paper's bounds. A forward-Euler study integrates all of its cells at once,
as one :func:`schemes.stack`, since with no step-size controller each cell
keeps its own bits; an rk54 cell is integrated alone, as its controller
would couple the cells of a stack.

Errors are measured on a uniform grid of ``eval_points`` points, in the
sup norm for collocation and the trapezium L2 norm for Galerkin. On the
box the states are reconstructed on the grid and compared with the closed
form's table. On the ring, spectral-galerkin's L2 error is taken in
coefficient space instead, by discrete Parseval: the trapezium norm of
the trigonometric interpolant's difference with the table is a weighted
sum over the modes of the two half-spectra (Boyd, Chebyshev and Fourier
Spectral Methods, 2nd ed., ch. 4; Trefethen & Weideman, SIAM Rev. 56,
2014), so no state is reconstructed on the grid.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .model import Interval
from .problems import TestProblem, make_problem
from .projection import dft_forward
from .quadrature import trapezium_rule
from .schemes import SCHEMES, SemiDiscreteSystem, reconstruct_on, stack

# not called here: the benchmark's tracer rebinds this name, so it stays importable
from .schemes import build_fe_collocation  # noqa: F401
from .timestep import IntegrationError, Trajectory, euler_integrate, rk54_integrate

__all__ = [
    "StudyConfig",
    "ConvergenceRecord",
    "EulerSplitResult",
    "CSV_HEADER",
    "build_system",
    "default_checkpoints",
    "eval_grid",
    "exact_grid",
    "trajectory_error",
    "projector_error",
    "observed_order",
    "run_study",
    "euler_split_study",
    "emit_csv",
    "render_csv",
]

CSV_HEADER = "problem,scheme,variant,n,h_x,error,observed_order,beta_n,wall_time_s"


@dataclass
class StudyConfig:
    """Sweep description for a convergence study.

    ``scheme`` with its selector names one entry of :data:`schemes.SCHEMES`:
    ``quadrature`` selects cheb-collocation's ("cc" or "trapezium") and
    ``variant`` fe-galerkin's ("lumped" or "gauss2"); a selector that its
    scheme does not read must keep its default. ``ht`` is required when the
    stepper is "euler" and ignored otherwise.
    """

    problems: Sequence[str]
    scheme: str
    n_values: Sequence[int]
    quadrature: str = "cc"
    variant: str = "gauss2"
    t0: float = 0.0
    duration: float = 1.0
    stepper: str = "rk54"
    rtol: float = 1e-6
    atol: float = 1e-9
    ht: Optional[float] = None
    eval_points: int = 2048
    checkpoint_count: int = 51

    def validate(self) -> None:
        _entry(self)
        if not self.problems:
            raise ValueError("need at least one problem")
        ns = tuple(self.n_values)
        if not ns:
            raise ValueError("need at least one n")
        if any(n < 2 for n in ns):
            raise ValueError("every n must be >= 2")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("n_values must be strictly increasing")
        if self.eval_points < 4 * max(ns):
            raise ValueError(f"eval_points must be >= 4 * max(n) = {4 * max(ns)}")
        if self.checkpoint_count < 2:
            raise ValueError("need at least two checkpoints")
        if self.stepper not in ("rk54", "euler"):
            raise ValueError(f"unknown stepper {self.stepper!r}")
        if self.stepper == "rk54" and not (0.0 < self.rtol < math.inf and 0.0 < self.atol < math.inf):
            raise ValueError("rk54 stepping needs positive finite rtol and atol")
        if self.stepper == "euler" and not (self.ht and 0.0 < self.ht < math.inf):
            raise ValueError("euler stepping needs a positive finite ht")
        if not math.isfinite(self.t0):
            raise ValueError("t0 must be finite")
        if not 0.0 < self.duration < math.inf:
            raise ValueError("duration must be positive and finite")
        if not math.isfinite(self.t0 + self.duration):
            raise ValueError("t0 + duration must be finite")


@dataclass(frozen=True)
class ConvergenceRecord:
    """One row of a study: the measured error at one (problem, n) cell.

    ``wall_time_s`` is the monotonic time to build and integrate the cell,
    the error measurement excluded; where a forward-Euler study integrates
    its cells as one stack, each cell takes an equal share of the stack's
    time, so a study's rows still add up to its time.
    """

    problem: str
    scheme: str
    variant: str
    n: int
    h_x: float
    error: float
    observed_order: Optional[float]
    beta_n: float
    wall_time_s: float


# each study selector and the one scheme that reads it
_SELECTORS = {"quadrature": "cheb-collocation", "variant": "fe-galerkin"}


def _entry(cfg: StudyConfig) -> tuple[str, str]:
    """The :data:`schemes.SCHEMES` key that ``cfg`` names; an unknown name, or
    a selector off its default on another scheme, raises ``ValueError``."""
    variants = [v for s, v in SCHEMES if s == cfg.scheme]
    if not variants:
        names = ", ".join(dict.fromkeys(s for s, _ in SCHEMES))
        raise ValueError(f"unknown scheme {cfg.scheme!r}; expected one of {names}")
    entry = (cfg.scheme, variants[0])
    for selector, scheme in _SELECTORS.items():
        value = getattr(cfg, selector)
        if scheme == cfg.scheme:
            if value not in variants:
                raise ValueError(
                    f"unknown {selector} {value!r} for {scheme}; expected one of {', '.join(variants)}"
                )
            entry = (scheme, value)
        elif value != getattr(StudyConfig, selector):
            raise ValueError(f"{selector} {value!r} applies to {scheme} only, not to {cfg.scheme}")
    return entry


def build_system(problem: TestProblem, key: tuple[str, str], *ns: int) -> SemiDiscreteSystem:
    """The :func:`schemes.stack` of the :data:`schemes.SCHEMES` entry
    ``key``'s cells at ``ns``, in that order; one n gives its cell's system
    itself. Every cell builds here."""
    return stack(problem, [SCHEMES[key](problem, n) for n in ns])


def default_checkpoints(t0: float, duration: float, count: int) -> np.ndarray:
    return np.linspace(t0, t0 + duration, count)


def eval_grid(interval: Interval, eval_points: int) -> np.ndarray:
    """Uniform evaluation grid; periodic intervals drop the identified endpoint."""
    if interval.periodic:
        return interval.a + interval.length * np.arange(eval_points) / eval_points
    return np.linspace(interval.a, interval.b, eval_points)


# bytes of exact_grid rows evaluated at once (two rows at 2048 points): the
# closed form's temporaries, its envelope and the inverse's output, span one
# such block each, and so does a block's half-spectrum
_EXACT_BLOCK_BYTES = 32 * 1024


def _row_blocks(count: int, eval_points: int):
    """Slices of ``count`` checkpoint rows, each block of rows within the budget."""
    rows = max(1, _EXACT_BLOCK_BYTES // (8 * eval_points))
    return (slice(i, i + rows) for i in range(0, count, rows))


def exact_grid(problem: TestProblem, checkpoints, eval_points: int) -> np.ndarray:
    """The closed form on the checkpoint x point grid, one row per checkpoint.

    It depends only on the problem, the checkpoints and the evaluation grid,
    so one evaluation serves every cell of a study; the array is read-only.
    It is filled in blocks of checkpoint rows, so the closed form's own
    temporaries span one block, not a second table.
    """
    xs = eval_grid(problem.interval, eval_points)
    ts = np.asarray(checkpoints, dtype=float)
    grid = np.empty((len(ts), len(xs)))
    for rows in _row_blocks(len(ts), len(xs)):
        grid[rows] = problem.exact(xs, ts[rows, None])
    grid.setflags(write=False)
    return grid


def _mode_weights(eval_points: int) -> np.ndarray:
    """Parseval's weights of the half-spectrum modes 0..M // 2 of M real
    samples: 1 for mode 0 and, for even M, mode M / 2; 2 for every other
    mode, which stands for itself and its conjugate."""
    weights = np.full(eval_points // 2 + 1, 2.0)
    weights[0] = 1.0
    if eval_points % 2 == 0:
        weights[-1] = 1.0
    return weights


def _power(coeffs: np.ndarray) -> np.ndarray:
    """|c|^2 = re^2 + im^2 of each complex coefficient."""
    power = np.square(coeffs.real)
    power += np.square(coeffs.imag)
    return power


@dataclass(frozen=True, eq=False)
class _RingSpectrum:
    """The closed form's checkpoint x point table on the ring in coefficient
    space, all that a spectral-galerkin L2 error reads of it.

    ``modes`` holds each row's half-spectrum e_0..e_N (numpy's "forward"
    ``rfft``) up to the largest n of the study; ``tails[n]`` holds each
    row's weighted power sum_{k > n} w_k |e_k|^2 of the modes beyond n,
    which no state of that n carries.
    """

    modes: np.ndarray
    tails: dict[int, np.ndarray]


def _ring_spectrum(problem: TestProblem, checkpoints, eval_points: int, ns) -> _RingSpectrum:
    """The :class:`_RingSpectrum` of the closed form for the n in ``ns``.

    The closed form is evaluated in :func:`exact_grid`'s blocks of rows,
    bitwise its table's, and each block is transformed on its own, so
    neither the table nor its whole spectrum is held.
    """
    xs = eval_grid(problem.interval, eval_points)
    ts = np.asarray(checkpoints, dtype=float)
    weights = _mode_weights(eval_points)
    modes = np.empty((len(ts), max(ns) + 1), dtype=complex)
    tails = {n: np.empty(len(ts)) for n in ns}
    for rows in _row_blocks(len(ts), eval_points):
        spectrum = np.fft.rfft(problem.exact(xs, ts[rows, None]), norm="forward")
        modes[rows] = spectrum[:, : modes.shape[1]]
        power = _power(spectrum)
        power *= weights
        for n, tail in tails.items():
            tail[rows] = power[:, n + 1 :].sum(axis=1)
    modes.setflags(write=False)
    return _RingSpectrum(modes, tails)


def _parseval_l2(
    problem: TestProblem,
    states: np.ndarray,
    checkpoints,
    eval_points: int,
    exact: Optional[_RingSpectrum],
) -> np.ndarray:
    """Per checkpoint, the trapezium L2 error on the ``eval_points`` ring grid
    of the trigonometric interpolants of spectral-galerkin's ``states``, the
    samples at 2n + 1 ring nodes, taken by discrete Parseval.

    With c = dft_forward(states) and e the closed form's half-spectrum,
    err^2 = L (sum_{k <= n} w_k |c_k - e_k|^2 + sum_{k > n} w_k |e_k|^2),
    L the ring's length and w the :func:`_mode_weights`. It is exact up to
    roundoff when mode n does not alias on the grid, that is for
    eval_points >= 2n + 1; fewer points raise ``ValueError``. ``exact`` is
    a :class:`_RingSpectrum` with a tail for this n, or None to form one
    here; anything else raises ``TypeError``.
    """
    n = np.shape(states)[-1] // 2
    if eval_points < 2 * n + 1:
        raise ValueError(
            f"eval_points = {eval_points} is below 2n + 1 = {2 * n + 1}: mode n would alias"
        )
    if exact is None:
        exact = _ring_spectrum(problem, checkpoints, eval_points, (n,))
    elif not isinstance(exact, _RingSpectrum):
        raise TypeError(f"exact on the ring is a _RingSpectrum or None, not {type(exact).__name__}")
    coeffs = dft_forward(states)
    coeffs -= exact.modes[:, : n + 1]
    squared = _power(coeffs) @ _mode_weights(eval_points)[: n + 1]
    squared += exact.tails[n]
    squared *= problem.interval.length
    return np.sqrt(squared, out=squared)


def _worst_error(
    system: SemiDiscreteSystem,
    problem: TestProblem,
    states: np.ndarray,
    checkpoints,
    eval_points: int,
    exact: Optional[Union[np.ndarray, _RingSpectrum]],
) -> float:
    """Largest error over the checkpoints of the stacked ``states`` (one row
    per checkpoint) against the closed form, in the scheme's norm.

    An L2 error on the ring is taken by :func:`_parseval_l2`. Otherwise the
    states are reconstructed on the evaluation grid in one call and compared
    with ``exact``, the :func:`exact_grid` of the checkpoints, evaluated here
    when None; the reconstruction is differenced, squared or made absolute
    in place, and the L2 norm is the trapezium rule on the grid's points. A
    stack whose row count is not the number of checkpoints raises
    ``ValueError``.
    """
    if len(states) != len(checkpoints):
        raise ValueError(
            f"need one state per checkpoint, got {len(states)} for {len(checkpoints)} checkpoints"
        )
    if system.norm == "l2" and problem.interval.periodic:
        return float(_parseval_l2(problem, states, checkpoints, eval_points, exact).max())
    xs = eval_grid(problem.interval, eval_points)
    if exact is None:
        exact = exact_grid(problem, checkpoints, eval_points)
    diff = reconstruct_on(system, states, xs)
    diff -= exact
    if system.norm == "l2":
        diff *= diff
        per_checkpoint = np.sqrt(diff @ trapezium_rule(problem.interval, eval_points - 1).weights)
    else:
        per_checkpoint = np.abs(diff, out=diff).max(axis=1)
    return float(per_checkpoint.max())


def trajectory_error(
    system: SemiDiscreteSystem,
    trajectory: Trajectory,
    problem: TestProblem,
    eval_points: int = 2048,
    exact: Optional[Union[np.ndarray, _RingSpectrum]] = None,
) -> float:
    """Worst checkpoint error of the reconstruction against the closed form.

    Collocation schemes are measured in the sup norm over a uniform
    evaluation grid of ``eval_points`` points, and Galerkin schemes in the
    trapezium L2 norm on the same grid, following each scheme's ambient
    space. On the box the (k, dim) stack of checkpoint states is
    reconstructed on the grid in one call; spectral-galerkin's L2 norm on
    the ring is formed from the states' Fourier coefficients by discrete
    Parseval, with no reconstruction (:func:`_parseval_l2`). ``exact`` is
    the closed form as the caller shares it: the :func:`exact_grid` of the
    checkpoints, or for spectral-galerkin :func:`run_study`'s spectrum of
    it, not a table; None evaluates it here.
    """
    return _worst_error(
        system, problem, trajectory.states, trajectory.checkpoints, eval_points, exact
    )


def projector_error(
    system: SemiDiscreteSystem,
    problem: TestProblem,
    checkpoints,
    eval_points: int = 2048,
    exact: Optional[Union[np.ndarray, _RingSpectrum]] = None,
) -> float:
    """Worst checkpoint error of projecting the closed form itself.

    No time integration is involved: the closed form's table at the nodes,
    one row per checkpoint, is encoded in one call, and the (k, dim) stack of
    states is measured as in :func:`trajectory_error`, in the scheme's own
    norm: reconstructed in one call on the box, by discrete Parseval on the
    ring. ``exact`` is as for :func:`trajectory_error`.
    """
    ts = np.asarray(checkpoints, dtype=float)
    states = system.encode(lambda x: problem.exact(x, ts[:, None]))
    return _worst_error(system, problem, states, ts, eval_points, exact)


def observed_order(e1: float, e2: float, n1: int, n2: int) -> Optional[float]:
    """Pairwise rate log(e1/e2) / log(n2/n1); None when an error is non-positive."""
    if e1 <= 0.0 or e2 <= 0.0:
        return None
    return float(np.log(e1 / e2) / np.log(n2 / n1))


def _integrate(problem: TestProblem, cfg: StudyConfig, key, ns, checkpoints):
    """Build the stack of the ``key`` entry's cells at ``ns`` and integrate it
    from the encoded closed form at ``cfg.t0``; returns it and its trajectory."""
    system = build_system(problem, key, *ns)
    u0 = system.encode(lambda x: problem.exact(x, cfg.t0))
    rhs, drive = system.rhs, system.drive
    if cfg.stepper == "rk54":
        traj = rk54_integrate(
            rhs, u0, cfg.t0, cfg.duration, cfg.rtol, cfg.atol, checkpoints, drive=drive
        )
    else:
        traj = euler_integrate(rhs, u0, cfg.t0, cfg.duration, cfg.ht, checkpoints, drive=drive)
    return system, traj


def _h_x(problem: TestProblem, system: SemiDiscreteSystem) -> float:
    """h_x: the interval length per degree of freedom of the built system,
    which has one more state than intervals unless the domain is a ring."""
    interval = problem.interval
    return interval.length / (system.dim if interval.periodic else system.dim - 1)


def _beta_n(system: SemiDiscreteSystem, problem: TestProblem, duration: float) -> float:
    """The two-sided bound's growth exponent beta_n = T ||W_n|| sup|f'|."""
    return duration * system.weight_infnorm * problem.firing.sup_derivative


def _records(problem: TestProblem, cfg: StudyConfig, checkpoints, exact):
    """Yield each n's :class:`ConvergenceRecord` of ``cfg`` on ``problem``
    (order chained to the previous n) with its system and its states at the
    checkpoints; ``exact`` is passed on to :func:`trajectory_error` and
    shared by every cell.

    A forward-Euler study's cells are built and integrated once, as one
    stack over every n, and an rk54 study's one stack per n; each cell is
    measured on its own columns of the stack's trajectory, and takes an
    equal share of the stack's build and integration time as its wall time
    (monotonic clock; the error measurement is excluded). The stack needs
    no byte budget: on a doubling ladder of n its K matrices hold at most
    4/3 of the largest n's. An ``IntegrationError`` of a stack of several
    cells integrates them again one at a time, in ascending n, so the
    error raised is that of the first cell that fails on its own.
    """
    key = _entry(cfg)
    ns = tuple(cfg.n_values)
    stacks = [ns] if cfg.stepper == "euler" else [(n,) for n in ns]
    previous: Optional[ConvergenceRecord] = None
    for cells in stacks:
        start = time.perf_counter()
        try:
            system, traj = _integrate(problem, cfg, key, cells, checkpoints)
        except IntegrationError:
            if len(cells) > 1:  # raise the error of the first cell to fail alone
                for n in cells:
                    _integrate(problem, cfg, key, (n,), checkpoints)
            raise
        wall = (time.perf_counter() - start) / len(cells)
        end = 0
        for n, part in zip(cells, system.parts):
            # C-ordered, as a trajectory of its own, so it is measured in the same layout
            states = np.ascontiguousarray(traj.states[:, end : end + part.dim])
            end += part.dim
            error = trajectory_error(
                part, Trajectory(traj.checkpoints, states, traj.stats), problem,
                cfg.eval_points, exact,
            )
            order = None if previous is None else observed_order(previous.error, error, previous.n, n)
            record = ConvergenceRecord(
                problem.id, cfg.scheme, key[1], n, _h_x(problem, part), error, order,
                _beta_n(part, problem, cfg.duration), wall,
            )
            yield record, part, states
            previous = record


def run_study(cfg: StudyConfig) -> list[ConvergenceRecord]:
    """The :func:`_records` of every (problem, n) cell, problem-major, n-minor.

    The closed form is evaluated on the checkpoint x point grid once per
    problem and shared by its cells: on the box as its :func:`exact_grid`,
    on the ring as the spectrum that spectral-galerkin's L2 errors read,
    modes 0..max(n) and the tail power beyond each n, with no table held.
    Output ordering and values are deterministic.
    """
    cfg.validate()
    cps = default_checkpoints(cfg.t0, cfg.duration, cfg.checkpoint_count)
    records: list[ConvergenceRecord] = []
    for pid in cfg.problems:
        problem = make_problem(pid) if isinstance(pid, str) else pid
        if problem.interval.periodic:
            exact = _ring_spectrum(problem, cps, cfg.eval_points, cfg.n_values)
        else:
            exact = exact_grid(problem, cps, cfg.eval_points)
        records.extend(record for record, _, _ in _records(problem, cfg, cps, exact))
    return records


@dataclass(frozen=True)
class EulerSplitResult:
    """Outcome of the forward-Euler error split on the fe-collocation scheme."""

    temporal_records: list[ConvergenceRecord]
    spatial_records: list[ConvergenceRecord]
    grid_records: list[ConvergenceRecord]
    temporal_order: float
    spatial_order: float
    fit_time_coefficient: float
    fit_space_coefficient: float
    fit_residual: float


def euler_split_study(
    problem: Union[str, TestProblem],
    n_fixed: int,
    ht_values: Sequence[float],
    *,
    t0: float = 0.0,
    duration: float = 1.0,
    spatial_n_values: Sequence[int] = (16, 32, 64, 128),
    spatial_ht: float = 1e-4,
    checkpoint_count: int = 51,
    eval_points: int = 2048,
) -> EulerSplitResult:
    """Split the forward-Euler error into its temporal and spatial parts.

    Three sweeps on the fe-collocation scheme: (1) step sizes at the fixed
    large n, measured per checkpoint against a tight rk54 reference cell of
    the same semi-discrete system from the same start state (the reference's
    first checkpoint state, encoded at t0), isolating the temporal error; the
    reference's record gives the spatial floor, h_x and beta_n of its rows,
    and its system and states are freed once they are built; (2)
    :func:`_records` over n at the fixed small step, recovering the spatial
    order; (3) :func:`_records` over n at each step size, the ht-major (ht, n)
    grid, least-squares fitted to err ~ a*ht + b*hx^2. Sweeps (2) and (3)
    keep those records, relabelled, with no orders on the grid; each of their
    studies integrates its n as one stack, so the split makes one Euler
    integration per step size of (1), one for (2) and one per row of (3).
    Every cell shares one :func:`exact_grid`.

    Every setting, ``n_fixed`` included, passes :meth:`StudyConfig.validate`
    before any work, and the fitted orders need two distinct step sizes and
    two spatial n; otherwise ``ValueError``. Raises ``ArithmeticError``,
    reporting the measured floor, when the spatial floor at n_fixed is not
    below a tenth of the coarsest temporal error: the temporal errors would
    then not be separable from it.
    """
    prob = make_problem(problem) if isinstance(problem, str) else problem
    hts = tuple(float(h) for h in ht_values)
    if len(set(hts)) < 2:
        raise ValueError("ht_values need at least two distinct step sizes")
    if len(spatial_n_values) < 2:
        raise ValueError("spatial_n_values need at least two n")
    spatial_cfg = StudyConfig(
        problems=(prob,), scheme="fe-collocation", n_values=tuple(spatial_n_values),
        t0=t0, duration=duration, stepper="euler", ht=spatial_ht,
        eval_points=eval_points, checkpoint_count=checkpoint_count,
    )
    reference_cfg = replace(spatial_cfg, n_values=(n_fixed,), stepper="rk54", rtol=1e-10, atol=1e-12)
    grid_cfgs = [replace(spatial_cfg, ht=ht) for ht in hts]
    for cfg in (reference_cfg, spatial_cfg, *grid_cfgs):
        cfg.validate()

    cps = default_checkpoints(t0, duration, checkpoint_count)
    exact = exact_grid(prob, cps, eval_points)
    ((fixed_record, fixed, reference),) = _records(prob, reference_cfg, cps, exact)
    spatial_floor = fixed_record.error

    # the one hand-written sweep: it measures state differences, not reconstruction error
    temporal: list[ConvergenceRecord] = []
    for ht in hts:
        start = time.perf_counter()
        traj = euler_integrate(fixed.rhs, reference[0], t0, duration, ht, cps, drive=fixed.drive)
        wall = time.perf_counter() - start
        err = float(np.max(np.abs(traj.states - reference)))
        temporal.append(
            replace(fixed_record, variant=f"euler-temporal;ht={ht:.17g}", error=err, wall_time_s=wall)
        )
    # held through the stacked sweeps, the n_fixed cell's K and states would set the peak
    del fixed, reference, traj

    coarse = temporal[int(np.argmax(hts))].error
    if spatial_floor >= 0.1 * coarse:
        raise ArithmeticError(
            f"spatial resolution n={n_fixed} leaves a floor of {spatial_floor:.3e}, "
            f"not below a tenth of the coarsest temporal error {coarse:.3e}"
        )
    temporal_order = float(np.polyfit(np.log(hts), np.log([r.error for r in temporal]), 1)[0])

    label = f"euler-spatial;ht={spatial_ht:.17g}"
    spatial = [replace(r, variant=label) for r, _, _ in _records(prob, spatial_cfg, cps, exact)]
    spatial_order = float(
        -np.polyfit(np.log(list(spatial_n_values)), np.log([r.error for r in spatial]), 1)[0]
    )

    runs = [(cfg.ht, r) for cfg in grid_cfgs for r, _, _ in _records(prob, cfg, cps, exact)]
    grid = [replace(r, variant=f"euler-grid;ht={ht:.17g}", observed_order=None) for ht, r in runs]
    design = np.array([(ht, r.h_x * r.h_x) for ht, r in runs])
    measured = np.array([r.error for r in grid])
    coeffs, *_ = np.linalg.lstsq(design, measured, rcond=None)
    residual = float(np.linalg.norm(design @ coeffs - measured) / np.linalg.norm(measured))

    return EulerSplitResult(
        temporal_records=temporal,
        spatial_records=spatial,
        grid_records=grid,
        temporal_order=temporal_order,
        spatial_order=spatial_order,
        fit_time_coefficient=float(coeffs[0]),
        fit_space_coefficient=float(coeffs[1]),
        fit_residual=residual,
    )


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def render_csv(records: Sequence[ConvergenceRecord]) -> str:
    """Render records under the fixed header; floats carry 17 significant
    digits so a re-parse reproduces every value bit for bit."""
    lines = [CSV_HEADER]
    for r in records:
        order = "" if r.observed_order is None else _g17(r.observed_order)
        lines.append(
            ",".join(
                (
                    r.problem, r.scheme, r.variant, str(r.n),
                    _g17(r.h_x), _g17(r.error), order, _g17(r.beta_n), _g17(r.wall_time_s),
                )
            )
        )
    return "\n".join(lines) + "\n"


def emit_csv(records: Sequence[ConvergenceRecord], path) -> None:
    """Write the CSV rendering to ``path`` (UTF-8, LF line endings)."""
    text = render_csv(records)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"could not write {path}: {exc}") from exc
