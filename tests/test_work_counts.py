"""The work-count script: counts per suite, totals, and restored names."""

import importlib.util
import pathlib

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from sympspec import core, errors, harness

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
    counts = work_counts.work_counts(3, suite)
    assert counts["spectrum_passes"] == 4 and counts["band_steps"] == 0
    assert counts["checks"] == counts["cholesky"] > harness._SUITES[suite][2]
    assert work_counts.work_counts(3, "majorization") == dict.fromkeys(work_counts.COUNTED, 0)


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
