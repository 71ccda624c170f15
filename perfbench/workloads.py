"""The three workloads, one pass of each, and the judgement of a pass's outputs.

A pass calls the functions behind the `nf` commands rather than the CLI:
``harness.run_study`` and ``harness.render_csv`` (`nf converge`),
``checks.SUITES`` (`nf check`) and ``harness.euler_split_study`` (`nf euler`).
So it measures the same work whether or not the CLI parses its arguments.
All settings not named here are the harness defaults: rk54, rtol 1e-6,
atol 1e-9, 51 checkpoints, 2048 evaluation points.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from neuralfield import checks, harness
from neuralfield.problems import PROBLEM_IDS, make_problem

from .reference import cell_failure, g17, order_failure, temporal_floor

N_VALUES = (8, 16, 32, 64, 128, 256)
COMPACT = ("P1", "P2", "P3", "P4", "P5", "P6")
RING = ("P7p", "P8p", "P9p", "P10p")
SUITES = ("quadrature", "residual", "sandwich")
EULER_SPLIT = "euler-split"


@dataclass(frozen=True)
class Block:
    """One scheme configuration and the problems a sweep runs it on."""

    scheme: str
    problems: tuple[str, ...]
    variant: str = "gauss2"  # fe-galerkin only
    quadrature: str = "cc"  # cheb-collocation only

    @property
    def label(self) -> str:
        if self.scheme == "fe-galerkin":
            return f"{self.scheme}/{self.variant}"
        if self.scheme == "cheb-collocation":
            return f"{self.scheme}/{self.quadrature}"
        return self.scheme

    def config(self, problem: str, n_values) -> harness.StudyConfig:
        """What `nf converge --problems <problem>` runs for this scheme."""
        return harness.StudyConfig(
            problems=(problem,),
            scheme=self.scheme,
            n_values=tuple(n_values),
            quadrature=self.quadrature,
            variant=self.variant,
        )


def cell_key(problem: str, label: str, n: int) -> str:
    return f"{problem} {label} n={n}"


@dataclass
class Judgement:
    """Operations attempted in a pass and those that failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    regressions: list[str] = field(default_factory=list)  # failures the reference lacks
    checks_passed: int = 0
    checks_total: int = 0

    def fail(self, name: str, reason: str, known: bool = False) -> None:
        self.failures.append(f"{name}: {reason}")
        if not known:
            self.regressions.append(f"{name}: {reason}")


def _timed(tracer, span: str, call):
    """Run one study; a study that raises is recorded and the pass goes on."""
    start = time.perf_counter()
    try:
        with tracer.span(span):
            result = call()
    except Exception as exc:  # the benchmark must finish the pass and count the failure
        traceback.print_exc()
        result = exc
    return result, time.perf_counter() - start


def _raised(result) -> str:
    return "raised " + "".join(traceback.format_exception_only(result)).strip()


@dataclass(frozen=True)
class Sweep:
    """Convergence studies: every block's problems at every n."""

    why: str
    blocks: tuple[Block, ...]
    n_values: tuple[int, ...] = N_VALUES

    @property
    def problems(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(p for b in self.blocks for p in b.problems))

    def warm_up(self) -> None:
        """Run each block once at the largest n, untimed.

        Besides one-time costs, this leaves the allocator holding the largest
        working set: after spectral-galerkin's 16 MB evaluation matrices have
        been freed, cheb-collocation studies run about 30% faster, so without
        it a study's time would depend on the seed's block order.
        """
        for block in self.blocks:
            harness.run_study(block.config(block.problems[0], self.n_values[-1:]))

    def run_pass(self, rng, tracer):
        """Run every study once, in an order drawn from ``rng``.

        The seed permutes the scheme blocks and the problems inside each;
        n stays ascending because observed_order chains consecutive n.
        Returns the outcomes and each study's wall time.
        """
        outcomes, seconds = [], []
        for block in rng.sample(self.blocks, len(self.blocks)):
            for problem in rng.sample(block.problems, len(block.problems)):
                cfg = block.config(problem, self.n_values)
                result, elapsed = _timed(tracer, "harness.run_study", lambda: harness.run_study(cfg))
                outcomes.append((block, problem, result))
                seconds.append(elapsed)
        with tracer.span("harness.emit"):
            harness.render_csv(
                [r for _, _, result in outcomes if not isinstance(result, Exception) for r in result]
            )
        return outcomes, seconds

    def judge(self, outcomes, ref: dict) -> Judgement:
        verdict = Judgement()
        for block, problem, result in outcomes:
            errors = {} if isinstance(result, Exception) else {r.n: r.error for r in result}
            for n in self.n_values:
                key = cell_key(problem, block.label, n)
                stored = ref["cells"].get(key)
                verdict.attempted += 1
                reason = cell_failure(
                    None if stored is None else float(stored["error"]),
                    errors.get(n),
                    float(ref["floor"][problem]),
                )
                if reason == "raised":
                    reason = _raised(result)
                if reason:
                    verdict.fail(key, reason)
        return verdict

    def record(self, outcomes, ref: dict) -> None:
        for block, problem, result in outcomes:
            if isinstance(result, Exception):
                raise RuntimeError(f"cannot store a reference: {problem} {block.label} {_raised(result)}")
            for r in result:
                ref["cells"][cell_key(problem, block.label, r.n)] = {
                    "error": g17(r.error),
                    "beta_n": g17(r.beta_n),
                    "observed_order": g17(r.observed_order),
                }


@dataclass(frozen=True)
class Verify:
    """The `nf check` suites plus one forward-Euler error split."""

    why: str
    euler_problem: str = "P1"
    euler_n: int = 256
    euler_ht: tuple[float, ...] = (0.02, 0.01, 0.005, 0.0025)
    euler_spatial_n: tuple[int, ...] = (16, 32, 64, 128)
    euler_spatial_ht: float = 1e-4

    problems = PROBLEM_IDS  # the residual suite builds all ten

    def warm_up(self) -> None:
        checks.SUITES["quadrature"]()

    def _euler_split(self, tracer):
        result = harness.euler_split_study(
            self.euler_problem,
            self.euler_n,
            self.euler_ht,
            spatial_n_values=self.euler_spatial_n,
            spatial_ht=self.euler_spatial_ht,
        )
        with tracer.span("harness.emit"):  # `nf euler` prints its records as CSV
            harness.render_csv(result.temporal_records + result.spatial_records + result.grid_records)
        return result

    def run_pass(self, rng, tracer):
        """Run each suite and the Euler split once, in an order drawn from ``rng``."""
        outcomes, seconds = [], []
        items = (*SUITES, EULER_SPLIT)
        for item in rng.sample(items, len(items)):
            if item == EULER_SPLIT:
                result, elapsed = _timed(tracer, "checks.euler_split", lambda: self._euler_split(tracer))
            else:
                result, elapsed = _timed(tracer, f"checks.{item}", checks.SUITES[item])
            outcomes.append((item, result))
            seconds.append(elapsed)
        return outcomes, seconds

    def judge(self, outcomes, ref: dict) -> Judgement:
        """Each check that reports FAIL is a failed operation, known failures included."""
        verdict = Judgement()
        for item, result in outcomes:
            raised = isinstance(result, Exception)
            if item == EULER_SPLIT:
                verdict.attempted += 1
                stored = ref["euler_split"]
                if raised:
                    reasons = [_raised(result)]
                else:
                    reasons = [
                        order_failure(float(stored[key]), getattr(result, key))
                        for key in ("temporal_order", "spatial_order")
                    ]
                reasons = [r for r in reasons if r]
                if reasons:
                    verdict.fail(f"euler split {self.euler_problem}", "; ".join(reasons))
                continue
            stored = ref["checks"][item]
            seen = set()
            for check in [] if raised else result:
                seen.add(check.name)
                verdict.attempted += 1
                verdict.checks_total += 1
                if check.passed:
                    verdict.checks_passed += 1
                else:
                    verdict.fail(check.name, f"FAIL [{check.detail}]", known=stored.get(check.name) is False)
            for name in stored.keys() - seen:
                verdict.attempted += 1
                verdict.fail(name, _raised(result) if raised else "missing", known=not stored[name])
        return verdict

    def record(self, outcomes, ref: dict) -> None:
        for item, result in outcomes:
            if isinstance(result, Exception):
                raise RuntimeError(f"cannot store a reference: {item} {_raised(result)}")
            if item == EULER_SPLIT:
                ref["euler_split"] = {
                    "temporal_order": g17(result.temporal_order),
                    "spatial_order": g17(result.spatial_order),
                }
            else:
                ref["checks"][item] = {check.name: check.passed for check in result}


def floors(problem_ids) -> dict[str, str]:
    """Each problem's temporal floor under the harness defaults, at 17 digits.

    sup|u| is taken over the default evaluation grid and checkpoints, as in
    ``sandwich_check``.
    """
    cfg = harness.StudyConfig(problems=(), scheme="fe-collocation", n_values=())
    cps = harness.default_checkpoints(cfg.t0, cfg.duration, cfg.checkpoint_count)
    out = {}
    for pid in problem_ids:
        problem = make_problem(pid)
        xs = harness.eval_grid(problem.interval, cfg.eval_points)
        sup_u = max(float(np.max(np.abs(problem.exact(xs, t)))) for t in cps)
        out[pid] = g17(temporal_floor(sup_u, cfg.rtol, cfg.atol))
    return out


WORKLOADS = {
    "sweep-nodal": Sweep(
        why=(
            "P1-P6 on the three tent-basis schemes: reconstruction is O(1) per point, so the "
            "time goes to rk54 and the RHS, and assembly shows through gauss2"
        ),
        blocks=(
            Block("fe-collocation", COMPACT),
            Block("fe-galerkin", COMPACT, variant="lumped"),
            Block("fe-galerkin", COMPACT, variant="gauss2"),
        ),
    ),
    "sweep-spectral": Sweep(
        why=(
            "global bases rebuild a dense 2048-row evaluation matrix at each of the 51 "
            "checkpoints, so reconstruction and error measurement dominate"
        ),
        blocks=(
            Block("cheb-collocation", COMPACT, quadrature="cc"),
            Block("spectral-galerkin", RING),
        ),
    ),
    "verify": Verify(
        why=(
            "the check suites and an Euler split use the same layers differently: "
            "closed-form projector errors, ~1e4 tiny Euler steps, pointwise residuals"
        ),
    ),
}
