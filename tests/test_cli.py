import numpy as np
import pytest

from neuralfield import checks, cli, harness
from neuralfield.model import INVERSE_DOMAIN_ERROR
from neuralfield.schemes import SemiDiscreteSystem
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


@pytest.mark.parametrize("t0", ["-1e-3", "-1E-2"])
def test_a_negative_start_time_in_exponent_notation_is_a_value(t0, capsys):
    # argparse's own negative-number pattern has no exponent, so it reads
    # these as flags and fails with "expected one argument"
    code, out, _ = _exit(RUN_P1 + ["--t0", t0], capsys)
    assert code == cli.EXIT_OK
    assert out.splitlines()[1].startswith("P1,fe-collocation,trapezium,8,")


@pytest.mark.parametrize("scheme,label", [("cheb-collocation", "cc"), ("fe-galerkin", "gauss2")])
def test_an_unset_selector_takes_the_study_default(scheme, label, capsys):
    code, out, _ = _exit(["run", "--problem", "P1", "--n", "8", "--scheme", scheme], capsys)
    assert code == cli.EXIT_OK
    assert out.splitlines()[1].startswith(f"P1,{scheme},{label},8,")


@pytest.mark.parametrize(
    "command,scheme,selector,value,owner",
    [
        ("run", "fe-collocation", "--variant", "lumped", "fe-galerkin"),
        ("run", "cheb-collocation", "--variant", "gauss2", "fe-galerkin"),
        ("run", "fe-galerkin", "--quadrature", "trapezium", "cheb-collocation"),
        ("converge", "spectral-galerkin", "--quadrature", "cc", "cheb-collocation"),
    ],
)
def test_a_selector_the_scheme_does_not_read_exits_1(command, scheme, selector, value, owner, capsys):
    where = ["--problem", "P1", "--n", "8"] if command == "run" else ["--problems", "P1", "--n", "8,16"]
    code, out, err = _exit([command, *where, "--scheme", scheme, selector, value], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == f"usage error: {selector} applies to {owner} only, not to {scheme}\n"


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
    assert rows == GOLDEN["spectral-galerkin"][1].splitlines()


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


def test_check_sandwich_suite_prints_every_cell_and_its_four_failures(capsys):
    code, out, _ = _exit(["check", "--suite", "sandwich"], capsys)
    assert code == cli.EXIT_NUMERICAL
    cells = [f"{'ok  ' if r.passed else 'FAIL'} {r.name}  [{r.detail}]" for r in checks.sandwich_suite()]
    assert out.splitlines() == cells + ["32/36 checks passed in suite 'sandwich'"]


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
        RUN_P1 + ["--t0", "-inf"],
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
        "T-inf", "t0-minus-inf", "t0-nan", "rtol-inf", "atol-inf", "euler-ht-inf", "euler-ht-subnormal",
        "euler-too-many-steps", "euler-checkpoints-on-one-step",
        "window-end-overflows", "trap-m",
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    code, _, err = _exit(argv, capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith("usage error:")


@pytest.mark.parametrize(
    "t0", [["--t0", "nan"], ["--t0", "-nan"], ["--t0", "-inf"], ["--t0", "-Infinity"], ["--t0=-inf"]]
)
def test_a_non_finite_t0_is_reported_as_such(t0, capsys):
    # validation names the range: nan must not reach the forcing's firing-rate
    # domain check, nor argparse take "-inf" or "-nan" for a flag
    code, _, err = _exit(RUN_P1 + t0, capsys)
    assert code == cli.EXIT_USAGE
    assert err == "usage error: t0 must be finite\n"


def test_an_astronomical_euler_step_count_is_printed_in_17_digits(capsys):
    # printed as an integer, the count would run to 299 digits
    code, _, err = _exit(RUN_P1 + ["--stepper", "euler", "--ht", "1e-300"], capsys)
    assert code == cli.EXIT_USAGE
    assert err == (
        "usage error: checkpoint 0.02 is 1.9999999999999999e+298 steps of 1e-300 from t0=0.0, "
        "more than the maximum of 100000000\n"
    )


def test_an_overflowing_window_end_is_reported_as_such(capsys):
    # it used to warn from np.linspace and blame the firing-rate inverse
    code, _, err = _exit(RUN_P1 + ["--t0", "1e308", "--T", "1e308"], capsys)
    assert code == cli.EXIT_USAGE
    assert err == "usage error: t0 + duration must be finite\n"


def test_a_window_past_the_envelope_is_a_usage_error_with_no_warning(capsys):
    # past t = 1414 the closed form's activity is subnormal at x = -1 and 1,
    # and its inverse warned of an overflow in (1 - r) / r before this error;
    # tier-1 turns that RuntimeWarning into an exception
    code, out, err = _exit(RUN_P1 + ["--t0", "1300", "--T", "200"], capsys)
    assert code == cli.EXIT_USAGE
    assert (out, err) == ("", f"usage error: {INVERSE_DOMAIN_ERROR}\n")


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
        weight_infnorm=0.0,
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

