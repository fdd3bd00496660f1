"""The conjugation-asymmetry search script: a short run and its argument checks."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "mean_asymmetry.py"
_SPEC = importlib.util.spec_from_file_location("mean_asymmetry", _PATH)
mean_asymmetry = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mean_asymmetry)


def test_short_run_reports_a_symmetric_mean(capsys):
    assert mean_asymmetry.main(["--trials", "3"]) == 0
    out = capsys.readouterr().out
    assert "largest relative spectral gap over 3 trials" in out
    line = next(l for l in out.splitlines() if l.startswith("mean-order control gap:"))
    assert float(line.split(":")[1]) <= 1e-10


@pytest.mark.parametrize("flag", ["--trials", "--n"])
def test_refuses_counts_below_one(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        mean_asymmetry.main([flag, "0"])
    assert exc.value.code == 2
    assert f"{flag} must be at least 1" in capsys.readouterr().err


def test_refuses_a_negative_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        mean_asymmetry.main(["--seed", "-1", "--trials", "1"])
    assert exc.value.code == 2
    assert "--seed must be non-negative" in capsys.readouterr().err
