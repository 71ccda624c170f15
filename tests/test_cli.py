import numpy as np
import pytest

from neuralfield import cli, harness
from neuralfield.schemes import SchemeDiagnostics, SemiDiscreteSystem

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


def test_converge_writes_csv(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    argv = ["converge", "--problems", "P1,p2", "--n", "8,16", "--scheme", "fe-galerkin",
            "--variant", "lumped", "--out", str(path)]
    code, out, _ = _exit(argv, capsys)
    assert code == cli.EXIT_OK
    assert "wrote 4 records" in out
    assert len(path.read_text().splitlines()) == 5


def test_euler_split(capsys):
    argv = ["euler", "--problem", "P1", "--n", "128", "--ht", "0.02,0.01",
            "--spatial-n", "8,16", "--spatial-ht", "1e-3"]
    code, out, _ = _exit(argv, capsys)
    assert code == cli.EXIT_OK
    assert "temporal order" in out


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
    ],
    ids=["bad-flag", "n=1", "unknown-problem", "euler-rtol"],
)
def test_usage_errors_exit_1(argv, capsys):
    code, _, err = _exit(argv, capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith("usage error:")


def test_euler_blowup_exits_2(capsys, monkeypatch):
    blowup = SemiDiscreteSystem(
        rhs=lambda t, a: a * a,
        initial=np.array([1.0]),
        reconstruct=lambda a, xs: a[0] * np.ones(np.shape(xs)),
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
