"""Command-line interface `nf`: single runs, convergence sweeps, the forward
Euler error split, and standalone property suites.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 I/O failure,
4 out of memory (say, a checkpoint or evaluation grid too large to allocate).
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Optional, Sequence

from . import harness
from .checks import SUITES
from .problems import canonical_id
from .schemes import SCHEMES
from .timestep import IntegrationError

EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL, EXIT_IO, EXIT_MEMORY = 0, 1, 2, 3, 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern has no exponent, inf or nan: it takes "-1e-3" and "-inf" for flags
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|(?i:inf(inity)?|nan))$"
        )

    def error(self, message):  # argparse would exit(2); usage errors are exit 1 here
        raise _UsageError(message)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok)


def _problem_list(text: str) -> tuple[str, ...]:
    return tuple(canonical_id(tok) for tok in text.split(",") if tok)


# each flag's default is the harness's own: the StudyConfig field's, or the
# keyword's of euler_split_study; an unset scheme selector leaves the field's
_STUDY = harness.StudyConfig
_EULER = harness.euler_split_study.__kwdefaults__


def _add_window(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--t0", type=float, default=_STUDY.t0, help="start time (default %(default)s)")
    parser.add_argument("--T", type=float, default=_STUDY.duration, dest="duration",
                        help="time window length (default %(default)s)")
    parser.add_argument("--eval-points", type=int, default=_STUDY.eval_points, dest="eval_points")
    parser.add_argument("--checkpoints", type=int, default=_STUDY.checkpoint_count, dest="checkpoint_count")
    parser.add_argument("--out", default=None, help="CSV output path (default: print to stdout)")


def _add_stepper(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--stepper", choices=("rk54", "euler"), default=_STUDY.stepper)
    parser.add_argument("--rtol", type=float, default=_STUDY.rtol, help="rk54 relative tolerance")
    parser.add_argument("--atol", type=float, default=_STUDY.atol, help="rk54 absolute tolerance")
    parser.add_argument("--ht", type=float, default=None, help="euler step size")


# each scheme selector and the one scheme that reads it; giving one to
# another scheme is a usage error, even at its default
_SELECTORS = harness._SELECTORS


def _add_scheme_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scheme", required=True, choices=tuple(dict.fromkeys(s for s, _ in SCHEMES)))
    for selector, scheme in _SELECTORS.items():
        parser.add_argument(f"--{selector}", choices=tuple(v for s, v in SCHEMES if s == scheme),
                            help=f"{scheme} {selector} (default {getattr(_STUDY, selector)})")


def _study_config(args, problems, n_values) -> harness.StudyConfig:
    selectors = {key: getattr(args, key) for key in _SELECTORS if getattr(args, key) is not None}
    for key in selectors:
        if _SELECTORS[key] != args.scheme:
            raise _UsageError(f"--{key} applies to {_SELECTORS[key]} only, not to {args.scheme}")
    return harness.StudyConfig(
        problems=problems,
        scheme=args.scheme,
        n_values=n_values,
        **selectors,
        t0=args.t0,
        duration=args.duration,
        stepper=args.stepper,
        rtol=args.rtol,
        atol=args.atol,
        ht=args.ht,
        eval_points=args.eval_points,
        checkpoint_count=args.checkpoint_count,
    )


def _emit(records, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(harness.render_csv(records))
    else:
        harness.emit_csv(records, out)
        print(f"wrote {len(records)} records to {out}")


def _cmd_run(args) -> int:
    cfg = _study_config(args, _problem_list(args.problem), (args.n,))
    _emit(harness.run_study(cfg), args.out)
    return EXIT_OK


def _cmd_converge(args) -> int:
    cfg = _study_config(args, _problem_list(args.problems), _int_list(args.n))
    _emit(harness.run_study(cfg), args.out)
    return EXIT_OK


def _cmd_euler(args) -> int:
    result = harness.euler_split_study(
        canonical_id(args.problem),
        args.n,
        _float_list(args.ht),
        t0=args.t0,
        duration=args.duration,
        spatial_n_values=_int_list(args.spatial_n),
        spatial_ht=args.spatial_ht,
        checkpoint_count=args.checkpoint_count,
        eval_points=args.eval_points,
    )
    records = result.temporal_records + result.spatial_records + result.grid_records
    _emit(records, args.out)
    # the summary goes to stderr so that stdout stays a pure CSV stream
    print(
        f"temporal order {result.temporal_order:.3f}, spatial order {result.spatial_order:.3f}",
        file=sys.stderr,
    )
    print(
        f"two-term fit: err ~ {result.fit_time_coefficient:.3e}*ht "
        f"+ {result.fit_space_coefficient:.3e}*hx^2, relative residual {result.fit_residual:.1%}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_check(args) -> int:
    results = SUITES[args.suite]()
    failures = 0
    for res in results:
        status = "ok  " if res.passed else "FAIL"
        detail = f"  [{res.detail}]" if res.detail else ""
        print(f"{status} {res.name}{detail}")
        failures += 0 if res.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed in suite '{args.suite}'")
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


def _build_parser() -> _Parser:
    parser = _Parser(prog="nf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="one (problem, n) cell")
    run.add_argument("--problem", required=True)
    run.add_argument("--n", type=int, required=True)
    _add_scheme_flags(run)
    _add_stepper(run)
    _add_window(run)
    run.set_defaults(func=_cmd_run)

    conv = sub.add_parser("converge", help="convergence sweep over n")
    conv.add_argument("--problems", required=True, help="comma-separated problem ids")
    conv.add_argument("--n", required=True, help="comma-separated n values")
    _add_scheme_flags(conv)
    _add_stepper(conv)
    _add_window(conv)
    conv.set_defaults(func=_cmd_converge)

    euler = sub.add_parser("euler", help="forward-Euler temporal/spatial error split")
    euler.add_argument("--problem", required=True)
    euler.add_argument("--n", type=int, required=True, help="fixed fine spatial resolution")
    euler.add_argument("--ht", required=True, help="comma-separated euler step sizes")
    euler.add_argument("--spatial-n", default=",".join(map(str, _EULER["spatial_n_values"])),
                       dest="spatial_n", help="n values for the spatial sweep")
    euler.add_argument("--spatial-ht", type=float, default=_EULER["spatial_ht"], dest="spatial_ht",
                       help="fixed small step for the spatial sweep")
    _add_window(euler)
    euler.set_defaults(func=_cmd_euler)

    check = sub.add_parser("check", help="standalone property suites")
    check.add_argument("--suite", choices=tuple(SUITES), default="quadrature")
    check.set_defaults(func=_cmd_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (_UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IntegrationError, ArithmeticError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"out of memory: {exc}" if str(exc) else "out of memory", file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())
