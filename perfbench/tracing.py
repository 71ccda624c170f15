"""Spans around the package's layers, recorded from outside the package.

The harness and checks modules look their collaborators up as module
globals at call time, so rebinding those names to wrappers traces every
call without touching the package. Each built system's ``rhs`` is wrapped
once through ``dataclasses.replace``; right-hand-side calls are aggregated
into the span that makes them (the integrator's) as a count plus summed
time, instead of one span per call.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from neuralfield import checks, harness

BUILD = "schemes.build"
RK54 = "timestep.rk54"
EULER = "timestep.euler"
MEASURE = "harness.measure"
PROJECTOR = "harness.projector"
RECONSTRUCT = "projection.reconstruct"


@dataclass
class Span:
    """One call into a layer: name, interval, and the span that caused it."""

    name: str
    start: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level
    end: float = 0.0
    child_s: float = 0.0  # time covered by child spans and by aggregated RHS calls
    rhs_calls: int = 0
    rhs_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Keeps spans in memory in the order they were opened."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        record = Span(name, self.clock(), parent)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._open.pop()
            if parent >= 0:
                self.spans[parent].child_s += record.duration

    @property
    def current(self) -> Span | None:
        return self.spans[self._open[-1]] if self._open else None

    def traced_rhs(self, rhs):
        """Wrap a right-hand side so each call adds its count and time to the open span."""

        def traced(t, a):
            start = self.clock()
            try:
                return rhs(t, a)
            finally:
                elapsed = self.clock() - start
                owner = self.current
                owner.rhs_calls += 1
                owner.rhs_s += elapsed
                owner.child_s += elapsed

        return traced

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


class NullTracer:
    """The tracer of an untraced pass: every span is a no-op."""

    @contextmanager
    def span(self, name: str):
        yield None


def _traced_call(tracer: Tracer, name: str, fn, finish=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
        return finish(span, args, result) if finish else result

    return wrapper


def _traced_build(tracer: Tracer, fn):
    @functools.wraps(fn)
    def build(*args, **kwargs):
        owner = tracer.current
        if owner is not None and owner.name == BUILD:
            # build_system dispatching to a builder: the outer span covers it
            # and wraps the rhs, so wrapping here too would count it twice
            return fn(*args, **kwargs)
        with tracer.span(BUILD):
            system = fn(*args, **kwargs)
        return dataclasses.replace(system, rhs=tracer.traced_rhs(system.rhs))

    return build


def _record_steps(span: Span, args, trajectory):
    stats = trajectory.stats
    span.counts.update(
        attempts=stats.accepted + stats.rejected,
        accepted=stats.accepted,
        rhs_evals=stats.rhs_evals,
    )
    return trajectory


def _record_points(span: Span, args, values):
    span.counts["points"] = len(values)
    return values


@contextmanager
def installed(tracer: Tracer):
    """Rebind the package's call-time lookups to traced wrappers, restoring them on exit."""
    plain = functools.partial(_traced_call, tracer)
    targets = (
        (harness, "build_system", functools.partial(_traced_build, tracer)),
        (harness, "build_fe_collocation", functools.partial(_traced_build, tracer)),
        (harness, "rk54_integrate", lambda fn: plain(RK54, fn, _record_steps)),
        (harness, "euler_integrate", lambda fn: plain(EULER, fn, _record_steps)),
        (harness, "trajectory_error", lambda fn: plain(MEASURE, fn)),
        (harness, "projector_error", lambda fn: plain(PROJECTOR, fn)),
        (harness, "reconstruct_on", lambda fn: plain(RECONSTRUCT, fn, _record_points)),
        (harness, "make_problem", lambda fn: plain("problems.make", fn)),
        (checks, "make_problem", lambda fn: plain("problems.make", fn)),
        (checks, "sandwich_check", lambda fn: plain("checks.sandwich_check", fn)),
        (checks, "continuum_residual", lambda fn: plain("problems.residual", fn)),
    )
    saved = []
    try:
        for module, attr, wrap in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, wrap(original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _total(spans) -> float:
    return sum(s.duration for s in spans)


def _self(spans) -> float:
    return sum(s.self_s for s in spans)


def _count(spans, key: str) -> int:
    return sum(s.counts.get(key, 0) for s in spans)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in seconds unless named _us)."""
    builds = tracer.named(BUILD)
    steppers = tracer.named(RK54) + tracer.named(EULER)
    measures = tracer.named(MEASURE) + tracer.named(PROJECTOR)
    rebuilt = tracer.named(RECONSTRUCT)
    rhs_evals = sum(s.rhs_calls for s in tracer.spans)
    rhs_s = sum(s.rhs_s for s in tracer.spans)
    attempts = _count(steppers, "attempts")
    accepted = _count(steppers, "accepted")
    stepper_self = _self(steppers)
    return {
        "problems.make_s": _total(tracer.named("problems.make")),
        "problems.make_calls": len(tracer.named("problems.make")),
        "problems.residual_calls": len(tracer.named("problems.residual")),
        "schemes.build_s": _total(builds),
        "schemes.build_calls": len(builds),
        "schemes.rhs_evals": rhs_evals,
        "schemes.rhs_s": rhs_s,
        "schemes.rhs_us": 1e6 * rhs_s / rhs_evals if rhs_evals else 0.0,
        "timestep.self_s": stepper_self,
        "timestep.rk54_self_s": _self(tracer.named(RK54)),
        "timestep.euler_steps": _count(tracer.named(EULER), "attempts"),
        "timestep.attempts": attempts,
        "timestep.accepted": accepted,
        "timestep.accept_ratio": accepted / attempts if attempts else 0.0,
        "timestep.step_us": 1e6 * stepper_self / attempts if attempts else 0.0,
        "projection.reconstruct_s": _total(rebuilt),
        "projection.reconstruct_calls": len(rebuilt),
        "projection.points": _count(rebuilt, "points"),
        "harness.measure_s": _total(measures),
        "harness.measure_self_s": _self(measures),
        "harness.projector_calls": len(tracer.named(PROJECTOR)),
        "harness.emit_s": _total(tracer.named("harness.emit")),
    }


# Layer self times for the printed breakdown; schemes is split into assembly and RHS.
LAYER_GROUPS = (
    ("problems", ("problems.make", "problems.residual")),
    ("schemes.build", (BUILD,)),
    ("timestep", (RK54, EULER)),
    ("projection", (RECONSTRUCT,)),
    ("harness", ("harness.run_study", MEASURE, PROJECTOR, "harness.emit")),
    ("checks", ("checks.quadrature", "checks.residual", "checks.sandwich",
                "checks.sandwich_check", "checks.euler_split")),
    ("benchmark", ("pass",)),
)


def breakdown(tracer: Tracer) -> dict:
    """Self time per layer and per span name, each with its share of the traced pass."""
    pass_s = _total(tracer.named("pass"))
    layers = {group: _self(s for n in names for s in tracer.named(n)) for group, names in LAYER_GROUPS}
    layers["schemes.rhs"] = sum(s.rhs_s for s in tracer.spans)
    by_name = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)
    spans = {
        name: {"calls": len(group), "total_s": _total(group), "self_s": _self(group)}
        for name, group in by_name.items()
    }
    return {
        "pass_s": pass_s,
        "layers": {k: {"self_s": v, "share": v / pass_s} for k, v in layers.items()},
        "spans": spans,
    }
