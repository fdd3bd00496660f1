"""Command line front end.

Exit codes: 0 success, 1 suite violation or failed reproduction,
2 unparseable input (files or arguments) or an unwritable output path,
3 validation failure, 4 numerical contract failure.

Each process runs one command, so the verification layers (harness, and
inequalities for mean) are imported by the commands that run them, and a
spectra command starts without them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from ._version import __version__
from .core import (
    METHODS,
    _factor_spectra,
    check_positive_definite,
    compress,
    half_dim,
    symplectic_eigenvalues,
    williamson,
)
from .errors import (
    ConstructionError,
    MatrixFormatError,
    NumericalContractError,
    ValidationError,
    _bound,
)
from .matio import load_matrix, matrix_to_obj, save_matrix, save_williamson

COUNTEREXAMPLE_BLOCKS = ([[1.0, 0.0], [0.0, 2.0]], [[0.0, 1.0], [2.0, 0.0]])


def _spectrum_line(d):
    return " ".join(f"{v:.15g}" for v in d)


def cmd_eig(args):
    a = load_matrix(args.input)
    d = symplectic_eigenvalues(a, method=args.method)
    print(_spectrum_line(d))
    return 0


def cmd_williamson(args):
    a = load_matrix(args.input)
    dec = williamson(a)
    save_williamson(dec, args.output)
    print(_spectrum_line(dec.d))
    return 0


def cmd_mean(args):
    from .inequalities import _mean_factor

    pd_a = check_positive_definite(load_matrix(args.a))
    pd_b = check_positive_definite(load_matrix(args.b))
    mean, f = _mean_factor(pd_a, pd_b)
    # d(A # B) comes from the factor F of the mean, as in lidskii-mult, so
    # the mean is not checked again; an odd size is refused before
    # anything is written.
    half_dim(mean)
    d = _factor_spectra(f)
    if args.output:
        save_matrix(mean, args.output)
    print(json.dumps(matrix_to_obj(mean), sort_keys=True))
    print(_spectrum_line(d))
    return 0


def cmd_compress(args):
    a = load_matrix(args.input)
    tup = load_matrix(args.tuple)
    if tup.shape[1] % 2 == 1:
        raise ValidationError(
            f"tuple file needs an even number of columns, got {tup.shape[1]}"
        )
    k = tup.shape[1] // 2
    a_m, d_m = compress(a, tup[:, :k], tup[:, k:])
    payload = {"A_M": matrix_to_obj(a_m), "d_M": [float(v) for v in d_m]}
    print(json.dumps(payload, sort_keys=True))
    return 0


def _replay_spec(text):
    parts = text.rsplit(":", 2)
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected PATH:SUITE:TRIAL, got {text!r}"
        )
    path, suite, trial = parts
    try:
        trial_no = int(trial)
    except ValueError:
        raise argparse.ArgumentTypeError(f"trial must be an integer, got {trial!r}")
    return path, suite, trial_no


def _suite_id(text):
    """A --suite value; the suite table is loaded only when verify parses one."""
    from .harness import SUITE_IDS

    choices = ("all",) + SUITE_IDS
    if text not in choices:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {', '.join(choices)})"
        )
    return text


def cmd_verify(args):
    from .harness import DEFAULT_TOL, SuiteConfig, replay, run_all, write_report

    if args.replay is not None:
        path, suite, trial = args.replay
        fresh, stored, match = replay(path, suite, trial)
        print(f"replay {suite} trial {trial}: {len(fresh)} records")
        if match:
            print("replay matches the stored report")
            return 0
        print("replay DIFFERS from the stored report")
        print("fresh: " + json.dumps(fresh, sort_keys=True))
        print("stored: " + json.dumps(stored, sort_keys=True))
        return 1

    config = SuiteConfig(
        suite=args.suite,
        trials=args.trials,
        n_min=args.nmin,
        n_max=args.nmax,
        master_seed=args.seed,
        tol=DEFAULT_TOL if args.tol is None else args.tol,
        report_path=args.report,
        jobs=args.jobs,
    )
    if args.report:
        # Open the path before the suites run, so an unwritable one
        # costs no run; the report itself is written after the run.
        existed = os.path.exists(args.report)
        with open(args.report, "a", encoding="utf-8"):
            pass
        if not existed:
            os.remove(args.report)
    report, code = run_all(config)
    for sid in report["overall"]["suites_run"]:
        agg = report["suites"][sid]["aggregate"]
        status = "pass" if agg["passed"] else "FAIL"
        print(
            f"[{sid}] {status}: {agg['n_trials']} trials, "
            f"{agg['n_records']} records, {agg['n_failed']} failed, "
            f"min slack {agg['min_slack']:.3e}"
        )
    if args.report:
        write_report(report, args.report)
        print(f"report written to {args.report}")
    overall = "PASS" if report["overall"]["passed"] else "FAIL"
    print(f"overall: {overall} (seed {args.seed})")
    return code


def _tuple_text(d):
    return "(" + ", ".join(f"{v:.12g}" for v in d) + ")"


def cmd_repro(args):
    a = np.zeros((4, 4))
    a[:2, :2] = COUNTEREXAMPLE_BLOCKS[0]
    a[2:, 2:] = COUNTEREXAMPLE_BLOCKS[1]
    d_left = symplectic_eigenvalues(a.T @ a)
    d_right = symplectic_eigenvalues(a @ a.T)
    print(f"d(AᵀA) = {_tuple_text(d_left)}; d(AAᵀ) = {_tuple_text(d_right)}")
    dets = np.linalg.det(np.stack([a.T @ a, a @ a.T]))
    gaps = np.abs(np.concatenate([d_left - [2.0, 2.0], d_right - [1.0, 4.0], dets - 16.0]))
    if not gaps.max() <= _bound("repro"):
        print("reproduction FAILED: spectra differ from the recorded values")
        return 1
    print("two congruent positive matrices with equal determinant, different spectra")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sympspec",
        description="Symplectic spectra: decompositions, inequalities, verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eig", help="print the symplectic eigenvalues of a matrix file")
    p.add_argument("input", help="matrix file (JSON or CSV)")
    p.add_argument("--method", choices=METHODS, default="skew-canonical")
    p.set_defaults(func=cmd_eig)

    p = sub.add_parser("williamson", help="write the full decomposition to a file")
    p.add_argument("input", help="matrix file (JSON or CSV)")
    p.add_argument("output", help="destination JSON file")
    p.set_defaults(func=cmd_williamson)

    p = sub.add_parser("mean", help="geometric mean of two matrices")
    p.add_argument("a", help="first matrix file")
    p.add_argument("b", help="second matrix file")
    p.add_argument("--output", help="optional JSON destination for the mean")
    p.set_defaults(func=cmd_mean)

    p = sub.add_parser("compress", help="compress a matrix onto a normalized tuple")
    p.add_argument("input", help="matrix file (JSON or CSV)")
    p.add_argument("tuple", help="2n x 2k matrix file, x columns then y columns")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("verify", help="run randomized verification suites")
    p.add_argument("--suite", default="all", type=_suite_id,
                   help="suite id, or all (default)")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--nmin", type=int, default=2)
    p.add_argument("--nmax", type=int, default=5)
    p.add_argument("--seed", type=int, default=0, help="master seed (default: 0)")
    p.add_argument("--tol", type=float, default=None,
                   help="tolerance of each record (default: harness.DEFAULT_TOL)")
    p.add_argument("--report", default="sympspec_report.json",
                   help="report path; pass an empty string to skip writing")
    p.add_argument("--jobs", type=int, default=1,
                   help="recorded in timing.jobs; trials run serially (a thread pool was slower)")
    p.add_argument("--replay", type=_replay_spec, default=None,
                   metavar="PATH:SUITE:TRIAL",
                   help="re-run one recorded trial from a report and compare")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "repro",
        help="reproduce the transpose-product counterexample",
    )
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MatrixFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericalContractError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
