"""Command-line interface: commands, formats, exit codes, seeding."""

import json

import numpy as np
import pytest

import sympspec.harness
from sympspec.cli import build_parser, main
from sympspec.core import random_pd, symplectic_eigenvalues, williamson
from sympspec.errors import NumericalContractError
from sympspec.inequalities import geometric_mean
from sympspec.matio import save_matrix

RNG = np.random.default_rng(707)


def _matrix_file(tmp_path, a, name="a.json"):
    path = tmp_path / name
    save_matrix(a, path)
    return str(path)


def test_eig_prints_spectrum(tmp_path, capsys):
    a = np.diag([1.0, 2.0, 3.0, 4.0])
    code = main(["eig", _matrix_file(tmp_path, a)])
    out = capsys.readouterr().out.strip()
    assert code == 0
    printed = np.array([float(v) for v in out.split()])
    assert np.allclose(printed, [np.sqrt(3.0), np.sqrt(8.0)], atol=1e-12)


def test_eig_methods_agree_via_cli(tmp_path, capsys):
    a = random_pd(2, RNG)
    path = _matrix_file(tmp_path, a)
    outs = []
    for method in ("skew-canonical", "ja-eigen", "williamson"):
        assert main(["eig", path, "--method", method]) == 0
        outs.append(capsys.readouterr().out.strip())
    vals = [np.array([float(v) for v in o.split()]) for o in outs]
    assert np.allclose(vals[0], vals[1], rtol=1e-10)
    assert np.allclose(vals[0], vals[2], rtol=1e-10)


def test_williamson_writes_decomposition(tmp_path, capsys):
    a = random_pd(2, RNG)
    out_path = tmp_path / "dec.json"
    code = main(["williamson", _matrix_file(tmp_path, a), str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    m = np.array(data["M"])
    d = np.array(data["d"])
    assert np.allclose(m.T @ a @ m, np.diag(np.tile(d, 2)), atol=1e-8 * np.linalg.norm(a))
    printed = capsys.readouterr().out.strip()
    assert np.allclose([float(v) for v in printed.split()], d)


def test_mean_command_matches_library(tmp_path, capsys):
    a = 4.0 * np.eye(4)
    b = 9.0 * np.eye(4)
    code = main(["mean", _matrix_file(tmp_path, a, "a.json"),
                 _matrix_file(tmp_path, b, "b.json")])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    obj = json.loads(lines[0])
    mean = np.array(obj["entries"])
    assert np.allclose(mean, geometric_mean(a, b), atol=1e-12)
    assert np.allclose([float(v) for v in lines[1].split()], [6.0, 6.0], atol=1e-9)


def test_compress_command(tmp_path, capsys):
    a = np.diag([1.0, 2.0, 3.0, 4.0])
    tuple_cols = np.eye(4)[:, [0, 2]]
    t_path = tmp_path / "tuple.json"
    save_matrix(tuple_cols, t_path)
    code = main(["compress", _matrix_file(tmp_path, a), str(t_path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert np.allclose(np.array(payload["A_M"]["entries"]), np.diag([1.0, 3.0]))
    assert payload["d_M"][0] == pytest.approx(np.sqrt(3.0), abs=1e-12)


def test_compress_rejects_odd_tuple(tmp_path, capsys):
    a = np.diag([1.0, 2.0, 3.0, 4.0])
    t_path = tmp_path / "tuple.json"
    save_matrix(np.eye(4)[:, :3], t_path)
    assert main(["compress", _matrix_file(tmp_path, a), str(t_path)]) == 3


def test_compress_rejects_odd_dimension(tmp_path, capsys):
    t_path = tmp_path / "tuple.json"
    save_matrix(np.eye(3)[:, :2], t_path)
    assert main(["compress", _matrix_file(tmp_path, np.eye(3)), str(t_path)]) == 3
    assert "matrix must have even positive size" in capsys.readouterr().err


def test_repro_output_and_exit_code(capsys):
    code = main(["repro"])
    out = capsys.readouterr().out
    assert code == 0
    assert "d(AᵀA) = (2, 2); d(AAᵀ) = (1, 4)" in out
    assert "equal determinant, different spectra" in out


def test_verify_small_run_writes_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["verify", "--suite", "majorization", "--trials", "3",
                 "--seed", "5", "--report", str(report_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: PASS (seed 5)" in out
    assert "[majorization] pass" in out
    report = json.loads(report_path.read_text())
    assert report["overall"]["passed"]
    assert report["config"]["master_seed"] == 5
    assert report["config"]["tol"] == sympspec.harness.DEFAULT_TOL


def test_verify_refuses_an_unknown_suite_and_lists_the_valid_ids(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "'nope'" in err
    assert all(sid in err for sid in sympspec.harness.SUITE_IDS)


def test_verify_seed_defaults_to_zero():
    assert build_parser().parse_args(["verify"]).seed == 0


def test_verify_replay_flow(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["verify", "--suite", "lidskii-add", "--trials", "3",
                 "--seed", "9", "--report", str(report_path)]) == 0
    capsys.readouterr()
    code = main(["verify", "--replay", f"{report_path}:lidskii-add:1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "replay lidskii-add trial 1" in out
    assert "matches the stored report" in out


def test_verify_with_two_jobs_writes_the_serial_report(tmp_path, capsys):
    # The pool draws and certifies trials out of order; each trial's own
    # generator, and the Lidskii suites' one stacked pass per size, keep
    # every record as the serial run writes it.
    reports, codes = [], []
    for jobs in ("1", "2"):
        path = tmp_path / f"jobs-{jobs}.json"
        codes.append(main(["verify", "--trials", "12", "--seed", "105", "--jobs", jobs,
                           "--report", str(path)]))
        reports.append(json.loads(path.read_text()))
    capsys.readouterr()
    assert codes[0] == codes[1]
    assert reports[1]["timing"]["jobs"] == 2
    assert sympspec.harness.reports_match(*reports)
    assert all(reports[0]["suites"][s]["records"] for s in sympspec.harness.SUITE_IDS)


def test_verify_contract_error_exits_1_with_a_full_report(tmp_path, capsys, monkeypatch):
    def broken(a):
        raise NumericalContractError("forced defect")

    monkeypatch.setattr(sympspec.harness, "williamson", broken)
    report_path = tmp_path / "report.json"
    assert main(["verify", "--suite", "williamson", "--trials", "2",
                 "--seed", "9", "--report", str(report_path)]) == 1
    records = json.loads(report_path.read_text())["suites"]["williamson"]["records"]
    assert [(r["trial"], r["name"], r["passed"]) for r in records] == [
        (0, "contract-error", False), (1, "contract-error", False)]
    capsys.readouterr()
    assert main(["verify", "--replay", f"{report_path}:williamson:1"]) == 0
    assert "matches the stored report" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["inf", "nan", "0"])
def test_verify_refuses_a_tolerance_that_is_not_positive_and_finite(capsys, tol):
    # With tol = inf every slack is infinite, so a run that has a failed
    # record without --tol (lidskii-mult at seed 105) would pass.
    assert main(["verify", "--suite", "lidskii-mult", "--seed", "105", "--tol", tol]) == 3
    captured = capsys.readouterr()
    assert "tolerance must be positive and finite" in captured.err
    assert "[lidskii-mult]" not in captured.out


def test_verify_replay_malformed_spec(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--replay", "no-colons-here"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "report, message",
    [
        ([{"suites": {}}], "the report is of type list"),
        ({"suites": {"maxmin": {}}}, "suites.maxmin.aggregate is missing"),
        (
            {"config": {"master_seed": "7"},
             "suites": {"maxmin": {"aggregate": {"n_trials": 1}, "records": []}}},
            "config.master_seed is of type str",
        ),
        (
            {"config": {"tol": float("inf")},
             "suites": {"maxmin": {"aggregate": {"n_trials": 1}, "records": []}}},
            "tolerance must be positive and finite",
        ),
    ],
    ids=["not-an-object", "no-aggregate", "config-type", "infinite-tol"],
)
def test_verify_replay_refuses_malformed_report(tmp_path, capsys, report, message):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert main(["verify", "--replay", f"{path}:maxmin:0"]) == 3
    assert message in capsys.readouterr().err


def test_exit_code_2_for_bad_matrix_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert main(["eig", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "williamson", "mean"])
def test_exit_code_2_for_an_unwritable_output_path(tmp_path, capsys, command):
    a = _matrix_file(tmp_path, np.diag([1.0, 2.0, 3.0, 4.0]))
    out = str(tmp_path / "missing-dir" / "out.json")
    argv = {
        "verify": ["verify", "--suite", "majorization", "--trials", "1", "--report", out],
        "williamson": ["williamson", a, out],
        "mean": ["mean", a, a, "--output", out],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    # verify checks the path before its suites run, so no summary is printed.
    assert "[majorization]" not in captured.out


def test_exit_code_3_for_non_pd_input(tmp_path, capsys):
    a = np.diag([1.0, -1.0, 1.0, 1.0])
    assert main(["eig", _matrix_file(tmp_path, a)]) == 3


def test_exit_code_3_for_a_mean_of_matrices_of_different_sizes(tmp_path, capsys):
    a = _matrix_file(tmp_path, random_pd(2, RNG), "a.json")
    b = _matrix_file(tmp_path, random_pd(3, RNG), "b.json")
    assert main(["mean", a, b]) == 3
    assert "differ in size" in capsys.readouterr().err


def test_exit_code_3_for_odd_dimension(tmp_path, capsys):
    assert main(["eig", _matrix_file(tmp_path, np.eye(3))]) == 3


def test_mean_of_odd_size_writes_and_prints_nothing(tmp_path, capsys):
    a = _matrix_file(tmp_path, 2.0 * np.eye(3), "a.json")
    b = _matrix_file(tmp_path, 3.0 * np.eye(3), "b.json")
    out = tmp_path / "mean.json"
    assert main(["mean", a, b, "--output", str(out)]) == 3
    captured = capsys.readouterr()
    assert "even positive size" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_plain_value_error_propagates(tmp_path, monkeypatch):
    # Only the package's own error types map to exit codes; any other
    # ValueError (numpy's LinAlgError included) is a bug and must surface.
    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr("sympspec.cli.symplectic_eigenvalues", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["eig", _matrix_file(tmp_path, np.eye(4))])


def test_parser_rejects_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["frobnicate"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    from sympspec import __version__

    assert __version__ in capsys.readouterr().out
