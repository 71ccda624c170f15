import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from neuralfield import cli, harness
from neuralfield.schemes import SchemeDiagnostics, SemiDiscreteSystem
from test_harness import GOLDEN

RUN_P1 = ["run", "--problem", "P1", "--n", "8", "--scheme", "fe-collocation"]


def _exit(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    return code, out, err


def test_run_prints_one_csv_record(capsys):
    code, out, _ = _exit(RUN_P1, capsys)
    assert code == cli.EXIT_OK
    lines = out.splitlines()
    assert lines[0] == harness.CSV_HEADER
    assert lines[1].startswith("P1,fe-collocation,trapezium,8,")


RUN_CHEB_TRAPEZIUM = ["run", "--problem", "P1", "--n", "8", "--scheme", "cheb-collocation",
                      "--quadrature", "trapezium"]


def test_run_cheb_collocation_with_the_trapezium_rule(capsys):
    code, out, _ = _exit(RUN_CHEB_TRAPEZIUM, capsys)
    assert code == cli.EXIT_OK
    assert out.splitlines()[1].startswith("P1,cheb-collocation,trapezium,8,0.25,")


def test_converge_writes_csv(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    argv = ["converge", "--problems", "P1,p2", "--n", "8,16", "--scheme", "fe-galerkin",
            "--variant", "lumped", "--out", str(path)]
    code, out, _ = _exit(argv, capsys)
    assert code == cli.EXIT_OK
    assert "wrote 4 records" in out
    assert len(path.read_text().splitlines()) == 5


def test_converge_spectral_galerkin_prints_the_golden_rows(capsys):
    argv = ["converge", "--scheme", "spectral-galerkin", "--problems", "P7p,P9p", "--n", "8,16,32"]
    code, out, _ = _exit(argv, capsys)
    assert code == cli.EXIT_OK
    lines = out.splitlines()
    assert lines[0] == harness.CSV_HEADER
    rows = [line.rsplit(",", 1)[0] for line in lines[1:]]
    assert rows == GOLDEN[("P7p", "P9p"), "spectral-galerkin"].splitlines()


EULER_P1 = ["euler", "--problem", "P1", "--ht", "0.02,0.01", "--spatial-n", "8,16",
            "--spatial-ht", "1e-3"]


def _euler_128(*extra, ht="0.02,0.01", spatial_n="8,16"):
    """An `nf euler` run at n = 128 that passes its floor check with the defaults."""
    return ["euler", "--problem", "P1", "--n", "128", "--ht", ht, "--spatial-n", spatial_n,
            "--spatial-ht", "1e-3", *extra]


def test_euler_split(capsys):
    code, out, err = _exit(EULER_P1 + ["--n", "128"], capsys)
    assert code == cli.EXIT_OK
    lines = out.splitlines()
    assert lines[0] == harness.CSV_HEADER
    # 2 temporal, 2 spatial and 2 x 2 grid records
    assert len(lines) == 9
    assert all(len(line.split(",")) == 9 for line in lines[1:])
    assert "temporal order" in err
    assert "two-term fit" in err


def test_euler_spatial_floor_exits_2(capsys):
    # at n = 64 the spatial floor is not below a tenth of the temporal error
    code, _, err = _exit(EULER_P1 + ["--n", "64"], capsys)
    assert code == cli.EXIT_NUMERICAL
    assert err.startswith("numerical failure: spatial resolution n=64")


def test_check_quadrature_suite(capsys):
    code, out, _ = _exit(["check", "--suite", "quadrature"], capsys)
    assert code == cli.EXIT_OK
    assert "checks passed in suite 'quadrature'" in out


@pytest.mark.parametrize(
    "argv",
    [
        RUN_P1 + ["--bogus"],
        ["run", "--problem", "P1", "--n", "1", "--scheme", "fe-collocation"],
        ["run", "--problem", "P11", "--n", "8", "--scheme", "fe-collocation"],
        # euler steps on its own --ht list and takes no rk54 tolerances
        ["euler", "--problem", "P1", "--n", "64", "--ht", "0.01", "--rtol", "1e-3"],
        # the envelope 0.8 * exp(-t / 2) exceeds 1 before t = -0.45
        RUN_P1 + ["--t0", "-2"],
        # its trough 0.8 * exp(-t / 2 - 1) falls below the least normal float near t = 1414
        RUN_P1 + ["--T", "1600", "--checkpoints", "2"],
        ["converge", "--problems", "P1", "--n", "", "--scheme", "fe-collocation"],
        ["converge", "--problems", "", "--n", "8,16", "--scheme", "fe-collocation"],
        _euler_128(spatial_n=""),
        _euler_128(spatial_n="16,8"),
        _euler_128("--eval-points", "4"),
        _euler_128("--checkpoints", "1"),
        # the orders are fitted slopes, which one point does not determine
        _euler_128(ht="0.02"),
        _euler_128(spatial_n="8"),
        # n = 128 is validated like any sweep n: it needs 512 evaluation points
        _euler_128("--eval-points", "256"),
        # the window and the step controls must be finite
        RUN_P1 + ["--T", "inf"],
        RUN_P1 + ["--t0", "nan"],
        RUN_P1 + ["--rtol", "inf"],
        RUN_P1 + ["--atol", "inf"],
        RUN_P1 + ["--stepper", "euler", "--ht", "inf"],
        # a positive step whose step count over the window overflows
        RUN_P1 + ["--stepper", "euler", "--ht", "1e-320"],
        # a step on the checkpoint lattice that needs 2^40 steps, past the cap
        RUN_P1 + ["--stepper", "euler", "--checkpoints", "2", "--ht", "9.094947017729282e-13"],
        # a window so short that all 51 checkpoints fall on the first step
        RUN_P1 + ["--stepper", "euler", "--ht", "0.01", "--T", "1e-300"],
        # a finite start and length whose end overflows
        RUN_P1 + ["--t0", "1e308", "--T", "1e308"],
        # the trapezium panel count is the scheme's own, not a flag
        RUN_CHEB_TRAPEZIUM + ["--trap-m", "32"],
    ],
    ids=[
        "bad-flag", "n=1", "unknown-problem", "euler-rtol", "t0-outside-the-domain",
        "T-past-the-representable-envelope", "converge-no-n", "converge-no-problems",
        "euler-no-spatial-n", "euler-spatial-n-decreasing", "euler-too-few-eval-points",
        "euler-one-checkpoint", "euler-one-ht", "euler-one-spatial-n", "euler-n-fixed-eval-points",
        "T-inf", "t0-nan", "rtol-inf", "atol-inf", "euler-ht-inf", "euler-ht-subnormal",
        "euler-too-many-steps", "euler-checkpoints-on-one-step",
        "window-end-overflows", "trap-m",
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    code, _, err = _exit(argv, capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith("usage error:")


def test_a_nan_t0_is_reported_as_such(capsys):
    # it used to reach the forcing and be reported as a firing-rate domain error
    code, _, err = _exit(RUN_P1 + ["--t0", "nan"], capsys)
    assert code == cli.EXIT_USAGE
    assert err == "usage error: t0 must be finite\n"


def test_an_overflowing_window_end_is_reported_as_such(capsys):
    # it used to warn from np.linspace and blame the firing-rate inverse
    code, _, err = _exit(RUN_P1 + ["--t0", "1e308", "--T", "1e308"], capsys)
    assert code == cli.EXIT_USAGE
    assert err == "usage error: t0 + duration must be finite\n"


@pytest.mark.parametrize("message", ["Unable to allocate 745. GiB for an array", ""])
def test_memory_error_is_one_line(message, capsys, monkeypatch):
    def exhausted(cfg):
        raise MemoryError(message)

    monkeypatch.setattr(harness, "run_study", exhausted)
    code, out, err = _exit(RUN_P1 + ["--checkpoints", "100000000000"], capsys)
    assert code == cli.EXIT_MEMORY
    assert out == ""
    assert err == (f"out of memory: {message}\n" if message else "out of memory\n")


def test_euler_blowup_exits_2(capsys, monkeypatch):
    blowup = SemiDiscreteSystem(
        drive=lambda ts: np.zeros((len(ts), 1)),
        rhs=lambda g, a: a * a,
        dim=1,
        reconstruct=lambda a, xs: a[..., :1] * np.ones(np.shape(xs)),
        diagnostics=SchemeDiagnostics(0.0, 0.0),
        norm="sup",
        encode=lambda fn: np.array([1.0]),
    )
    monkeypatch.setattr(harness, "build_system", lambda *args, **kwargs: blowup)
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, err = _exit(RUN_P1 + ["--stepper", "euler", "--ht", "0.01", "--T", "2"], capsys)
    assert code == cli.EXIT_NUMERICAL
    assert err.startswith("numerical failure: non-finite state at checkpoint")


def test_unwritable_output_exits_3(capsys, tmp_path):
    code, _, err = _exit(RUN_P1 + ["--out", str(tmp_path / "missing" / "out.csv")], capsys)
    assert code == cli.EXIT_IO
    assert err.startswith("i/o failure:")


def test_the_package_imports_no_scipy():
    # numpy is the one runtime dependency; only the benchmark's machine record reads scipy
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys; import neuralfield, neuralfield.cli, neuralfield.checks; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"
