"""The work-count script: counts per suite, totals, and restored names."""

import importlib.util
import pathlib

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

# cli and inequalities are loaded before any counting() block, so that the
# names they bind are wrapped and restored with the others.
from sympspec import cli, core, errors, extremal, harness, inequalities, linalg  # noqa: F401
from sympspec.matio import save_matrix

_PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "work_counts.py"
_SPEC = importlib.util.spec_from_file_location("work_counts", _PATH)
work_counts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(work_counts)


def test_counts_one_check_and_one_band_step_per_williamson_trial():
    counts = work_counts.work_counts(3, "williamson")
    trials = harness._SUITES["williamson"][2]
    assert counts["checks"] == counts["cholesky"] == counts["band_steps"] == trials
    assert counts["lapack"] > 0 and counts["constructions"] == 0
    assert counts["spectrum_passes"] == 0


@pytest.mark.parametrize("suite", ["lidskii-add", "lidskii-mult"])
def test_a_lidskii_suite_takes_one_spectrum_pass_per_size(suite):
    # Sizes 2..5 all occur at the default trial counts; no band step runs.
    # Each matrix a trial checks (A + B, A and B in lidskii-add, A and B
    # in lidskii-mult, a B that is A once) is checked once, in one
    # Cholesky call per size, and dpocon runs once per matrix.
    counts = work_counts.work_counts(3, suite)
    assert counts["spectrum_passes"] == counts["cholesky"] == 4
    assert counts["band_steps"] == 0
    draw, _, trials = harness._SUITES[suite]
    cfg = harness.SuiteConfig(suite=suite, master_seed=3, report_path=None)
    drawn = [draw(t, cfg, harness.trial_rng(3, suite, t)) for t in range(trials)]
    per_trial = 3 if suite == "lidskii-add" else 2
    assert counts["checks"] == sum(per_trial - (b is a) for _, a, b, *_ in drawn)
    if suite == "lidskii-add":  # whose only LAPACK calls are dpocon's
        assert counts["lapack"] == counts["checks"]
    assert work_counts.work_counts(3, "majorization") == dict.fromkeys(work_counts.COUNTED, 0)


def test_every_construction_counts_public_or_not():
    # wielandt builds its tuples through basis._construct without the
    # public dual_chain_construct: 3 random chains per trial.
    cfg = harness.SuiteConfig(suite="wielandt", trials=2, report_path=None)
    with work_counts.counting() as counts:
        harness.run_suite("wielandt", cfg)
    assert counts["constructions"] == 6
    assert work_counts.work_counts(3, "construction")["constructions"] == 40


def test_a_stack_counts_each_matrix_it_checks():
    with work_counts.counting() as counts:
        core.check_positive_definite(np.stack([np.eye(2)] * 5))
    assert counts["checks"] == 5 and counts["cholesky"] == 1 and counts["lapack"] == 5


def test_the_mean_command_checks_a_and_b_and_not_the_mean(tmp_path, monkeypatch, capsys):
    # d(A # B) comes from the factor the mean is formed with.  The
    # linalg._factor guard counts the Cholesky of A and of B, the mean's
    # one eigensolve and the SVD of its spectrum pass.
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(8)
    save_matrix(core.random_pd(3, rng), "a.json")
    save_matrix(core.random_pd(3, rng), "b.json")
    with work_counts.counting() as counts:
        assert cli.main(["mean", "a.json", "b.json"]) == 0
    assert counts["checks"] == counts["cholesky"] == 2
    assert counts["spectrum_passes"] == 1
    assert counts["gufuncs"] == 4


def test_the_guard_counts_each_one_matrix_svd_eigensolve_and_qr_call():
    # Only _flapack calls count as lapack; each gufunc call through
    # linalg._factor counts once, a QR as its two calls.
    a = core.random_pd(2, np.random.default_rng(5))
    with work_counts.counting() as counts:
        linalg._svd(a)
        linalg._svd(a[:, :2], full_matrices=False)
        linalg._svdvals(a)
        linalg._eigh(a)
        extremal.random_orthogonal(4, np.random.default_rng(6))
    assert counts["gufuncs"] == 6 and counts["lapack"] == 0
    assert linalg._factor is work_counts.COUNTED["gufuncs"]


def test_counting_restores_every_name_it_wraps():
    with work_counts.counting() as counts:
        core.check_positive_definite(np.eye(2))
        np.linalg.cholesky(np.eye(2))
        assert core.check_positive_definite is not work_counts.COUNTED["checks"]
    assert counts["checks"] == 1 and counts["cholesky"] == 2 and counts["lapack"] == 1
    assert core.check_positive_definite is work_counts.COUNTED["checks"]
    assert core._CHOLESKY is _umath_linalg.cholesky_lo is work_counts.COUNTED["cholesky"]
    assert core._lapack is errors._lapack is work_counts.COUNTED["lapack"]


def test_main_prints_a_row_per_suite_and_a_total(capsys):
    assert work_counts.main(["--seeds", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["seed", "suite", *work_counts.COUNTED]
    rows = [line.split() for line in lines[1:]]
    assert [row[1] for row in rows] == [*harness.SUITE_IDS, "total"]
    columns = np.array([[int(x) for x in row[2:]] for row in rows])
    assert (columns[:-1].sum(axis=0) == columns[-1]).all()


def test_a_stack_of_witnesses_makes_as_many_guarded_calls_as_one():
    # Each step of maxmin's witnesses is one guarded call over the whole
    # stack, and a guarded call counts once however large its stack.
    a = core.random_pd(3, np.random.default_rng(9))
    seen = []
    for count in (1, 4):
        with work_counts.counting() as counts:
            extremal.maxmin_check(a, 2, n_subspaces=count, rng=np.random.default_rng(10))
        seen.append(counts["gufuncs"])
    assert seen[0] == seen[1]
