"""Tests of the benchmark itself: span arithmetic, the reference comparator,
and a traced pass of each workload at reduced size."""

import dataclasses
import random

import pytest

from perfbench import reference
from perfbench.reference import cell_failure, order_failure
from perfbench.tracing import Tracer, installed, layer_metrics
from perfbench.workloads import EULER_SPLIT, WORKLOADS

FLOOR = 6.0e-6


def _clock(*ticks):
    return iter(ticks).__next__


def test_self_time_subtracts_nested_children():
    tracer = Tracer(clock=_clock(0.0, 1.0, 2.0, 5.0, 7.0, 8.0, 9.0, 10.0))
    with tracer.span("outer"):
        with tracer.span("child"):
            with tracer.span("grandchild"):
                pass
        with tracer.span("child"):
            pass
    outer, child, grandchild, second = tracer.spans
    assert (outer.duration, child.duration, grandchild.duration, second.duration) == (10.0, 6.0, 3.0, 1.0)
    assert grandchild.self_s == 3.0
    assert child.self_s == 3.0
    assert second.self_s == 1.0
    assert outer.self_s == 3.0
    assert (outer.parent, child.parent, grandchild.parent, second.parent) == (-1, 0, 1, 0)


def test_rhs_calls_aggregate_into_the_open_span():
    tracer = Tracer(clock=_clock(0.0, 1.0, 3.0, 4.0, 5.0, 10.0))
    rhs = tracer.traced_rhs(lambda t, a: 2.0 * a)
    with tracer.span("timestep.rk54") as span:
        assert rhs(0.0, 1.5) == 3.0
        rhs(0.0, 1.0)
    assert (span.rhs_calls, span.rhs_s) == (2, 3.0)
    assert span.self_s == 7.0


def test_tracing_restores_the_package():
    from neuralfield import checks, harness

    before = (harness.build_system, harness.reconstruct_on, checks.sandwich_check)
    with installed(Tracer()):
        assert harness.build_system is not before[0]
    assert (harness.build_system, harness.reconstruct_on, checks.sandwich_check) == before


def test_roundoff_passes():
    ref = 1.2345e-3
    assert cell_failure(ref, ref * (1.0 + 1e-12), FLOOR) is None
    assert cell_failure(ref, ref * 0.5, FLOOR) is None


def test_worse_error_fails():
    assert "worse than the reference" in cell_failure(1.2345e-3, 1.2346e-3, FLOOR)


def test_raise_and_non_finite_fail():
    assert cell_failure(1.2345e-3, None, FLOOR) == "raised"
    assert "non-finite" in cell_failure(1.2345e-3, float("nan"), FLOOR)
    assert "non-finite" in cell_failure(1.2345e-3, float("inf"), FLOOR)


def test_errors_below_the_floor_pass():
    assert cell_failure(1e-12, 5e-7, FLOOR) is None
    assert cell_failure(1e-12, 2.0 * FLOOR, FLOOR) is not None


def test_order_drift():
    assert order_failure(1.0086, 1.0086 * (1.0 + 1e-12)) is None
    assert order_failure(1.0086, 1.02) is not None
    assert order_failure(1.0086, float("nan")) is not None


@pytest.fixture(scope="module")
def ref():
    return reference.load()


def _traced_pass(workload):
    tracer = Tracer()
    with installed(tracer), tracer.span("pass"):
        outcomes, seconds = workload.run_pass(random.Random(1), tracer)
    return tracer, outcomes, seconds


def _steppers(tracer):
    return tracer.named("timestep.rk54") + tracer.named("timestep.euler")


@pytest.mark.parametrize("name", ["sweep-nodal", "sweep-spectral"])
def test_sweep_smoke_at_reduced_n(name, ref):
    workload = dataclasses.replace(WORKLOADS[name], n_values=(8, 16))
    tracer, outcomes, seconds = _traced_pass(workload)
    studies = sum(len(block.problems) for block in workload.blocks)
    verdict = workload.judge(outcomes, ref)
    assert (verdict.attempted, verdict.failures) == (2 * studies, [])
    assert len(seconds) == studies
    metrics = layer_metrics(tracer)
    assert metrics["schemes.build_calls"] == 2 * studies
    # each built system's rhs is wrapped exactly once
    assert metrics["schemes.rhs_evals"] == sum(s.counts["rhs_evals"] for s in _steppers(tracer))
    assert all(s.self_s >= 0.0 for s in tracer.spans)


def test_verify_smoke_reports_the_known_sandwich_failures(ref):
    workload = dataclasses.replace(
        WORKLOADS["verify"], euler_n=128, euler_ht=(0.02, 0.01), euler_spatial_n=(8, 16), euler_spatial_ht=1e-3
    )
    tracer, outcomes, _ = _traced_pass(workload)
    # the reduced Euler split has orders of its own, so only the suites meet the reference
    split = dict(outcomes).pop(EULER_SPLIT)
    assert 0.9 < split.temporal_order < 1.1
    verdict = workload.judge([o for o in outcomes if o[0] != EULER_SPLIT], ref)
    known = sorted(name for name, passed in ref["checks"]["sandwich"].items() if not passed)
    assert len(known) == 4
    assert sorted(f.split(":")[0] for f in verdict.failures) == known
    assert verdict.regressions == []
    assert (verdict.checks_passed, verdict.checks_total) == (60, 64)
    metrics = layer_metrics(tracer)
    assert metrics["timestep.euler_steps"] > 0
    assert metrics["harness.projector_calls"] == 36
    assert metrics["problems.residual_calls"] == 10 * 21 * 11
    assert metrics["schemes.rhs_evals"] == sum(s.counts["rhs_evals"] for s in _steppers(tracer))
