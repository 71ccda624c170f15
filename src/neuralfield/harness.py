"""Error measurement, convergence studies, bound diagnostics, and CSV emission.

This is the engine behind the reproduction studies: it builds a scheme per
(problem, n) cell, integrates it, measures the worst-over-time spatial
error against the closed form, and emits deterministic CSV records.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .model import Interval
from .problems import TestProblem, make_problem
from .schemes import SCHEMES, SemiDiscreteSystem, reconstruct_on

# not called here: the benchmark's tracer rebinds this name, so it stays importable
from .schemes import build_fe_collocation  # noqa: F401
from .timestep import Trajectory, euler_integrate, rk54_integrate

__all__ = [
    "StudyConfig",
    "ConvergenceRecord",
    "SandwichResult",
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
    "sandwich_check",
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
    ``variant`` fe-galerkin's ("lumped" or "gauss2"); the other schemes have
    one entry each and ignore both. ``ht`` is required when the stepper is
    "euler" and ignored otherwise.
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
        _scheme_key(self.scheme, self.quadrature, self.variant)
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
    """One row of a study: the measured error at one (problem, n) cell."""

    problem: str
    scheme: str
    variant: str
    n: int
    h_x: float
    error: float
    observed_order: Optional[float]
    beta_n: float
    wall_time_s: float


def _scheme_key(scheme: str, quadrature: str, variant: str) -> tuple[str, str]:
    """The :data:`schemes.SCHEMES` key that a scheme and the study selectors name.

    cheb-collocation reads ``quadrature`` and fe-galerkin ``variant``; a
    scheme with one entry ignores both. Unknown names raise ``ValueError``.
    """
    variants = [v for s, v in SCHEMES if s == scheme]
    if not variants:
        names = ", ".join(dict.fromkeys(s for s, _ in SCHEMES))
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {names}")
    if len(variants) == 1:
        return scheme, variants[0]
    selector, chosen = (
        ("quadrature", quadrature) if scheme == "cheb-collocation" else ("variant", variant)
    )
    if chosen not in variants:
        raise ValueError(
            f"unknown {selector} {chosen!r} for {scheme}; expected one of {', '.join(variants)}"
        )
    return scheme, chosen


def build_system(
    problem: TestProblem, scheme: str, n: int, *, quadrature: str = "cc", variant: str = "gauss2"
) -> SemiDiscreteSystem:
    """Build the :data:`schemes.SCHEMES` entry that the study-level selectors name."""
    return SCHEMES[_scheme_key(scheme, quadrature, variant)](problem, n)


def default_checkpoints(t0: float, duration: float, count: int) -> np.ndarray:
    return np.linspace(t0, t0 + duration, count)


def eval_grid(interval: Interval, eval_points: int) -> np.ndarray:
    """Uniform evaluation grid; periodic intervals drop the identified endpoint."""
    if interval.periodic:
        return interval.a + interval.length * np.arange(eval_points) / eval_points
    return np.linspace(interval.a, interval.b, eval_points)


def _l2_weights(interval: Interval, eval_points: int) -> np.ndarray:
    if interval.periodic:
        return np.full(eval_points, interval.length / eval_points)
    h = interval.length / (eval_points - 1)
    w = np.full(eval_points, h)
    w[0] = w[-1] = h / 2.0
    return w


def exact_grid(problem: TestProblem, checkpoints, eval_points: int) -> np.ndarray:
    """The closed form on the checkpoint x point grid, one row per checkpoint.

    It depends only on the problem, the checkpoints and the evaluation grid,
    so one evaluation serves every cell of a study; the array is read-only.
    """
    xs = eval_grid(problem.interval, eval_points)
    ts = np.asarray(checkpoints, dtype=float)
    grid = np.asarray(problem.exact(xs, ts[:, None]), dtype=float)
    grid.setflags(write=False)
    return grid


def _worst_error(
    system: SemiDiscreteSystem,
    problem: TestProblem,
    states: np.ndarray,
    checkpoints,
    eval_points: int,
    exact: Optional[np.ndarray],
) -> float:
    """Largest error over the checkpoints of the stacked ``states`` (one row
    per checkpoint) against the closed form, in the scheme's norm.

    The states are reconstructed in one call and compared with ``exact``,
    the :func:`exact_grid` of the checkpoints, evaluated here when None.
    """
    xs = eval_grid(problem.interval, eval_points)
    if exact is None:
        exact = exact_grid(problem, checkpoints, eval_points)
    diff = reconstruct_on(system, states, xs) - exact
    if system.norm == "l2":
        per_checkpoint = np.sqrt((diff * diff) @ _l2_weights(problem.interval, eval_points))
    else:
        per_checkpoint = np.abs(diff).max(axis=1)
    return float(per_checkpoint.max())


def trajectory_error(
    system: SemiDiscreteSystem,
    trajectory: Trajectory,
    problem: TestProblem,
    eval_points: int = 2048,
    exact: Optional[np.ndarray] = None,
) -> float:
    """Worst checkpoint error of the reconstruction against the closed form.

    The (k, dim) stack of checkpoint states is reconstructed in one call.
    Collocation schemes are measured in the sup norm over a uniform
    evaluation grid; Galerkin schemes in the trapezium-quadrature L2 norm on
    the same grid, following each scheme's ambient space. ``exact`` is the
    :func:`exact_grid` of the trajectory's checkpoints, when the caller has it.
    """
    return _worst_error(
        system, problem, trajectory.states, trajectory.checkpoints, eval_points, exact
    )


def projector_error(
    system: SemiDiscreteSystem,
    problem: TestProblem,
    checkpoints,
    eval_points: int = 2048,
    exact: Optional[np.ndarray] = None,
) -> float:
    """Worst checkpoint error of projecting the closed form itself.

    No time integration is involved: the exact solution is encoded into the
    scheme's state space at every checkpoint, and the (k, dim) stack of
    encoded states is reconstructed in one call and compared with the
    original, in the scheme's own norm. ``exact`` is the :func:`exact_grid`
    of the checkpoints, when the caller has it.
    """
    ts = np.asarray(checkpoints, dtype=float)
    states = np.stack([system.encode(lambda x, t=t: problem.exact(x, t)) for t in ts])
    return _worst_error(system, problem, states, ts, eval_points, exact)


def observed_order(e1: float, e2: float, n1: int, n2: int) -> Optional[float]:
    """Pairwise rate log(e1/e2) / log(n2/n1); None when an error is non-positive."""
    if e1 <= 0.0 or e2 <= 0.0:
        return None
    return float(np.log(e1 / e2) / np.log(n2 / n1))


def _integrate(system, cfg: StudyConfig, checkpoints) -> Trajectory:
    if cfg.stepper == "rk54":
        return rk54_integrate(system, cfg.t0, cfg.duration, cfg.rtol, cfg.atol, checkpoints)
    return euler_integrate(system, cfg.t0, cfg.duration, cfg.ht, checkpoints)


def _h_x(problem: TestProblem, system: SemiDiscreteSystem) -> float:
    """h_x: the interval length per degree of freedom of the built system,
    which has one more state than intervals unless the domain is a ring."""
    interval = problem.interval
    return interval.length / (system.dim if interval.periodic else system.dim - 1)


def _cell(
    problem: TestProblem, cfg: StudyConfig, n: int, checkpoints, exact: Optional[np.ndarray] = None
):
    """Build, integrate and measure one (problem, n) cell of ``cfg``.

    Returns the system, its trajectory, the worst checkpoint error and the
    wall time of build plus integration (monotonic clock; the error
    measurement is excluded). ``exact`` is passed on to :func:`trajectory_error`.
    """
    start = time.perf_counter()
    system = build_system(problem, cfg.scheme, n, quadrature=cfg.quadrature, variant=cfg.variant)
    traj = _integrate(system, cfg, checkpoints)
    wall = time.perf_counter() - start
    return system, traj, trajectory_error(system, traj, problem, cfg.eval_points, exact), wall


def run_study(cfg: StudyConfig) -> list[ConvergenceRecord]:
    """Run every (problem, n) cell of the sweep, problem-major, n-minor.

    Each record's wall time is that of :func:`_cell`: build plus integration.
    The closed form is evaluated on the checkpoint x point grid once per
    problem and shared by its cells. Output ordering and values are
    deterministic.
    """
    cfg.validate()
    records: list[ConvergenceRecord] = []
    cps = default_checkpoints(cfg.t0, cfg.duration, cfg.checkpoint_count)
    _, variant = _scheme_key(cfg.scheme, cfg.quadrature, cfg.variant)
    for pid in cfg.problems:
        problem = make_problem(pid) if isinstance(pid, str) else pid
        exact = exact_grid(problem, cps, cfg.eval_points)
        previous: Optional[ConvergenceRecord] = None
        for n in cfg.n_values:
            system, _, err, wall = _cell(problem, cfg, n, cps, exact)
            order = (
                observed_order(previous.error, err, previous.n, n) if previous is not None else None
            )
            record = ConvergenceRecord(
                problem=problem.id,
                scheme=cfg.scheme,
                variant=variant,
                n=n,
                h_x=_h_x(problem, system),
                error=err,
                observed_order=order,
                beta_n=system.diagnostics.beta_n(cfg.duration),
                wall_time_s=wall,
            )
            records.append(record)
            previous = record
    return records


@dataclass(frozen=True)
class SandwichResult:
    """Outcome of the two-sided bound check at one (problem, scheme, n) cell."""

    ratio: float
    lower: float
    upper: float
    passed: bool
    conclusive: bool
    scheme_error: float
    projector_error: float
    beta_n: float


# relative widening of both sandwich bounds, to absorb temporal error
SANDWICH_SLACK = 0.1


def sandwich_check(problem: Union[str, TestProblem], scheme: str, n: int) -> SandwichResult:
    """Check that the integrated scheme error sits inside the two-sided bound
    [projector_error / (1 + beta_n), projector_error * exp(beta_n)].

    The cell runs under the :class:`StudyConfig` defaults (rk54, the default
    window, checkpoints and evaluation grid, cc quadrature, gauss2 variant).
    Both bounds are widened by the relative ``SANDWICH_SLACK`` (10%) to
    absorb temporal error. When the projector error has sunk below ten times
    the temporal-error scale (rtol * sup|u| + atol) the comparison says
    nothing about the bound; such cells are flagged inconclusive and count
    as not-failed.
    """
    prob = make_problem(problem) if isinstance(problem, str) else problem
    cfg = StudyConfig(problems=(prob,), scheme=scheme, n_values=(n,))
    cfg.validate()
    cps = default_checkpoints(cfg.t0, cfg.duration, cfg.checkpoint_count)
    exact = exact_grid(prob, cps, cfg.eval_points)
    system, _, scheme_err, _ = _cell(prob, cfg, n, cps, exact)
    proj_err = projector_error(system, prob, cps, cfg.eval_points, exact)
    beta = system.diagnostics.beta_n(cfg.duration)
    lower, upper = 1.0 / (1.0 + beta), float(np.exp(beta))

    sup_u = float(np.max(np.abs(exact)))
    conclusive = proj_err >= 10.0 * (cfg.rtol * sup_u + cfg.atol)
    ratio = scheme_err / proj_err if proj_err > 0.0 else float("inf")
    passed = not conclusive or lower * (1.0 - SANDWICH_SLACK) <= ratio <= upper * (1.0 + SANDWICH_SLACK)
    return SandwichResult(ratio, lower, upper, passed, conclusive, scheme_err, proj_err, beta)


@dataclass(frozen=True)
class EulerSplitResult:
    """Outcome of the forward-Euler error split on the fe-collocation scheme."""

    temporal_records: list[ConvergenceRecord]
    spatial_records: list[ConvergenceRecord]
    grid_records: list[ConvergenceRecord]
    temporal_order: float
    spatial_order: float
    spatial_floor: float
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
    the same semi-discrete system, isolating the temporal error; (2)
    ``run_study`` over n at the fixed small step, recovering the spatial
    order; (3) ``run_study`` over n at each step size, the ht-major (ht, n)
    grid, least-squares fitted to err ~ a*ht + b*hx^2. Sweeps (2) and (3)
    keep ``run_study``'s records, relabelled, with no orders on the grid.

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
    fixed, reference, spatial_floor, _ = _cell(prob, reference_cfg, n_fixed, cps)
    hx_fixed = _h_x(prob, fixed)
    beta_fixed = fixed.diagnostics.beta_n(duration)

    # the one hand-written sweep: it measures state differences, not reconstruction error
    temporal: list[ConvergenceRecord] = []
    for ht in hts:
        start = time.perf_counter()
        traj = euler_integrate(fixed, t0, duration, ht, cps)
        wall = time.perf_counter() - start
        err = float(np.max(np.abs(traj.states - reference.states)))
        temporal.append(
            ConvergenceRecord(
                prob.id, "fe-collocation", f"euler-temporal;ht={ht:.17g}",
                n_fixed, hx_fixed, err, None, beta_fixed, wall,
            )
        )

    coarse = temporal[int(np.argmax(hts))].error
    if spatial_floor >= 0.1 * coarse:
        raise ArithmeticError(
            f"spatial resolution n={n_fixed} leaves a floor of {spatial_floor:.3e}, "
            f"not below a tenth of the coarsest temporal error {coarse:.3e}"
        )
    temporal_order = float(np.polyfit(np.log(hts), np.log([r.error for r in temporal]), 1)[0])

    spatial = [replace(r, variant=f"euler-spatial;ht={spatial_ht:.17g}") for r in run_study(spatial_cfg)]
    spatial_order = float(
        -np.polyfit(np.log(list(spatial_n_values)), np.log([r.error for r in spatial]), 1)[0]
    )

    runs = [(cfg.ht, r) for cfg in grid_cfgs for r in run_study(cfg)]
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
        spatial_floor=spatial_floor,
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
