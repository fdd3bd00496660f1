"""Op lists and outcomes repeat for one seed; metric names match BENCHMARK.json."""

import json
import os

import numpy as np
import pytest

import layers
import run
import stats
import workloads
from conftest import ROOT


def _keys(wl):
    return [op.key for batch in wl.batches() for op in batch]


def _run(wl):
    done = run.execute(wl, wl.batches())
    return done.keys, done.outcomes, done.scores


def test_spectra_same_seed_same_ops_and_ok_ratio(tmp_path):
    first = _run(workloads.Spectra(5, 1, str(tmp_path)))
    second = _run(workloads.Spectra(5, 1, str(tmp_path)))
    assert first == second
    ok_ratio = stats.summarize([1.0] * len(first[1]), first[1])[0]["ok_ratio"]
    assert 0.0 < ok_ratio < 1.0
    assert _keys(workloads.Spectra(6, 1, str(tmp_path))) != first[0]


def test_verify_same_seed_same_ops_and_ok_ratio(tmp_path):
    a = workloads.Verify(5, 1, str(tmp_path))
    b = workloads.Verify(5, 1, str(tmp_path))
    assert a.master_seeds == b.master_seeds
    assert workloads.Verify(6, 1, str(tmp_path)).master_seeds != a.master_seeds
    first = _run(a)
    assert first == _run(b)
    assert a.violations == b.violations
    assert not a.gate_failures
    _, outcomes, scores = first
    assert all(s == 1.0 for s, o in zip(scores, outcomes) if o == stats.OK)
    assert all(0.0 <= s < 1.0 for s, o in zip(scores, outcomes) if o != stats.OK)


@pytest.mark.parametrize("make", [
    lambda d: workloads.Verify(5, 3, d),
    lambda d: workloads.Spectra(5, 3, d),
    lambda d: workloads.CliCold(5, 10, d, os.path.join(ROOT, "src")),
])
def test_overhead_batch_shares_no_inputs_with_the_run(tmp_path, make):
    wl = make(str(tmp_path))
    keys = _keys(wl)
    extra = [op.key for op in wl.overhead_batch()]
    assert len(extra) == len(wl.overhead_batch()) and not set(extra) & set(keys)


def test_verify_pins_suites_and_never_passes_jobs(tmp_path):
    wl = workloads.Verify(0, 1, str(tmp_path))
    assert sum(wl.SUITE_TRIALS.values()) == 439
    cfg = wl._config("maxmin", 1, 25)
    assert cfg.jobs == 1


def test_cli_cold_same_seed_same_ops(tmp_path):
    a = workloads.CliCold(5, 1, str(tmp_path / "a"), os.path.join(ROOT, "src"))
    b = workloads.CliCold(5, 1, str(tmp_path / "b"), os.path.join(ROOT, "src"))
    assert _keys(a) == _keys(b)
    assert [k[1] for k in _keys(a)] == list(workloads.CliCold.COMMANDS)


def test_spectrum_tolerance_is_relative_with_a_floor():
    d0 = np.array([1e-4, 1.0, 1e4])
    assert workloads.Spectra.spectrum_ok(d0 * (1 + 5e-7), d0)
    assert not workloads.Spectra.spectrum_ok(d0 * (1 + 5e-6), d0)
    assert workloads.Spectra.spectrum_ok(d0 + [5e-9, 0.0, 0.0], d0)
    assert not workloads.Spectra.spectrum_ok(d0[:2], d0)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_scipy_import_time_takes_outermost_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         scipy._lib",
        "import time:       200 |     250000 |       scipy",
        "import time:       300 |      40000 |       scipy.linalg",
        "import time:       400 |     300000 |     sympspec.core",
    ])
    assert run._scipy_import_s(text) == pytest.approx(0.29)


def test_refuses_to_run_without_package_source(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "spectra", "--seed", "1", "--seconds", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "no package source" in out.err
