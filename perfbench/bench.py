"""Command line, run loop, metrics and the result line.

Untraced runs (``--trace 0``) report the end-to-end metrics; traced runs
(``--trace 1``) alternate an untraced and a traced pass and report the
per-layer metrics of the traced ones. The last line of standard output is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import reference
from .tracing import NullTracer, Tracer, breakdown, installed, layer_metrics
from .workloads import WORKLOADS, floors

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

# Runs in a fresh interpreter so that every repeat pays the cold import a
# user of `nf` pays; the clock starts after interpreter start-up.
_SETUP_SCRIPT = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import neuralfield.checks, neuralfield.harness
from neuralfield.problems import make_problem
for pid in sys.argv[2:]:
    make_problem(pid)
print(time.perf_counter() - start)
"""


def measure_setup(problems) -> float:
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_SCRIPT, str(SRC), *problems],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas() -> tuple[str, int | None]:
    """OpenBLAS version numpy was built with, and the thread count the library reports."""
    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        version = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return version, getter()
    return version, None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    """SHA-256 of the package sources, identifying the code where git is absent."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_record(seed: int) -> dict:
    version, threads = _openblas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": version,
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def _one_pass(workload, rng, ref, tracer):
    start = time.perf_counter()
    with tracer.span("pass"):
        outcomes, study_seconds = workload.run_pass(rng, tracer)
    seconds = time.perf_counter() - start
    return seconds, study_seconds, workload.judge(outcomes, ref)


def _p90(samples) -> float:
    return samples[0] if len(samples) == 1 else statistics.quantiles(samples, n=10, method="inclusive")[8]


def _tail_note(samples) -> str:
    beyond = sum(s > _p90(samples) for s in samples)
    highest = 100.0 * (1.0 - 10.0 / len(samples))
    tail = f"p{highest:.0f}" if highest > 0 else "none"
    return (
        f"{len(samples)} studies, median {statistics.median(samples):.4g} s, {beyond} beyond p90; "
        f"highest percentile with >= 10 beyond: {tail}"
    )


def timed_run(workload, rng, ref, seconds: float):
    setup = [measure_setup(workload.problems) for _ in range(SETUP_REPEATS)]
    workload.warm_up()
    passes, studies, verdicts = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + statistics.median(passes) <= seconds:
        elapsed, study_seconds, verdict = _one_pass(workload, rng, ref, NullTracer())
        passes.append(elapsed)
        studies.extend(study_seconds)
        verdicts.append(verdict)
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters"),
        "pass_s": (statistics.median(passes), "s", f"median of {len(passes)} passes"),
        "study_s.p90": (_p90(studies), "s", _tail_note(studies)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "peak resident set of this process"),
    }
    return metrics, verdicts, {"pass_s": passes, "setup_s": setup, "study_s": studies}


def traced_run(workload, rng, ref, seconds: float):
    workload.warm_up()
    untraced, traced, layers, verdicts = [], [], [], []
    last = None
    start = time.perf_counter()
    while not traced or (
        time.perf_counter() - start + statistics.median(untraced) + statistics.median(traced) <= seconds
    ):
        elapsed, _, verdict = _one_pass(workload, rng, ref, NullTracer())
        untraced.append(elapsed)
        verdicts.append(verdict)
        tracer = Tracer()
        with installed(tracer):
            elapsed, _, verdict = _one_pass(workload, rng, ref, tracer)
        traced.append(elapsed)
        verdicts.append(verdict)
        values = layer_metrics(tracer)
        values["checks.passed"] = verdict.checks_passed
        values["checks.total"] = verdict.checks_total
        layers.append(values)
        last = tracer
    metrics = {
        name: (statistics.median(v[name] for v in layers), _unit(name), f"median of {len(layers)} traced passes")
        for name in layers[0]
    }
    metrics["trace.overhead"] = (
        statistics.median(traced) / statistics.median(untraced), "ratio",
        f"traced over untraced pass_s, {len(traced)} + {len(untraced)} passes",
    )
    return metrics, verdicts, {"traced_pass_s": traced, "untraced_pass_s": untraced, "breakdown": breakdown(last)}


def _unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def write_reference() -> None:
    """Store one pass of every workload as the reference its later runs are judged by."""
    from neuralfield.problems import PROBLEM_IDS

    ref = {"cells": {}, "checks": {}, "floor": floors(PROBLEM_IDS), "machine": machine_record(0)}
    for workload in WORKLOADS.values():
        outcomes, _ = workload.run_pass(random.Random(0), NullTracer())
        workload.record(outcomes, ref)
    reference.save(ref)
    print(f"wrote {reference.PATH}")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true", help="store the reference outputs and exit")
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None or not args.seconds > 0:
        parser.error("--workload is required and --seconds must be positive")
    workload = WORKLOADS[args.workload]
    ref = reference.load()
    rng = random.Random(args.seed)
    print(f"# workload {args.workload}: {workload.why}")
    print("# machine " + json.dumps(machine_record(args.seed)))
    run = traced_run if args.trace else timed_run
    metrics, verdicts, detail = run(workload, rng, ref, args.seconds)

    attempted = sum(v.attempted for v in verdicts)
    failures = [f for v in verdicts for f in v.failures]
    regressions = [f for v in verdicts for f in v.regressions]
    for name, (value, unit, note) in metrics.items():
        print(f"# {name:<28} {value:>14.6g} {unit:<6} {note}")
    print(f"# failed {len(failures)} of {attempted} operations; {len(regressions)} not failing in the reference")
    for failure in dict.fromkeys(failures):
        print(f"#   {failure}")
    print("# detail " + json.dumps(detail))
    result = {
        "correct": not regressions,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0
