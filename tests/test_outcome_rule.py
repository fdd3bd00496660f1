"""The outcome-rule script: one small suite, and its comparison mode."""

import hashlib
import importlib.util
import json
import pathlib
from collections import Counter

from sympspec.harness import SuiteConfig, run_suite

_PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "outcome_rule.py"
_SPEC = importlib.util.spec_from_file_location("outcome_rule", _PATH)
outcome_rule = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(outcome_rule)

ARGS = ["--seeds", "3", "--suite", "construction"]


def test_summary_matches_the_suite_aggregate(capsys):
    assert outcome_rule.main(ARGS) == 0
    summary = json.loads(capsys.readouterr().out)
    out = run_suite("construction", SuiteConfig(suite="construction", master_seed=3,
                                                report_path=None))
    assert summary == {"3": {"construction": {
        "n_records": out["aggregate"]["n_records"],
        "n_failed": out["aggregate"]["n_failed"],
        "failing": [[r["trial"], r["name"]] for r in out["records"] if not r["passed"]],
        "by_name": dict(Counter(r["name"] for r in out["records"])),
    }}}


def test_against_exits_1_on_any_difference(tmp_path, capsys):
    outcome_rule.main(ARGS)
    summary = json.loads(capsys.readouterr().out)
    saved = tmp_path / "summary.json"
    saved.write_text(json.dumps(summary))
    assert outcome_rule.main(ARGS + ["--against", str(saved)]) == 0
    assert capsys.readouterr().err == ""

    entry = summary["3"]["construction"]
    entry["failing"].append([0, "construction-trace-equality"])
    saved.write_text(json.dumps(summary))
    assert outcome_rule.main(ARGS + ["--against", str(saved)]) == 1
    assert "seed 3 suite construction failing" in capsys.readouterr().err

    # A record the reference has and this run lacks is named, with its count.
    entry["failing"].pop()
    entry["by_name"]["construction-retired"] = 40
    saved.write_text(json.dumps(summary))
    assert outcome_rule.main(ARGS + ["--against", str(saved)]) == 1
    err = capsys.readouterr().err
    assert err == "seed 3 suite construction by_name.construction-retired: 40 -> 0\n"

    saved.write_text(json.dumps({}))
    assert outcome_rule.main(ARGS + ["--against", str(saved)]) == 1



def test_exact_adds_the_records_digest_and_against_compares_it(tmp_path, capsys):
    assert outcome_rule.main(ARGS + ["--exact"]) == 0
    summary = json.loads(capsys.readouterr().out)
    out = run_suite("construction", SuiteConfig(suite="construction", master_seed=3,
                                                report_path=None))
    entry = summary["3"]["construction"]
    records = json.dumps(out["records"], sort_keys=True).encode("utf-8")
    assert entry["sha256"] == hashlib.sha256(records).hexdigest()
    saved = tmp_path / "summary.json"
    saved.write_text(json.dumps(summary))
    assert outcome_rule.main(ARGS + ["--exact", "--against", str(saved)]) == 0
    assert capsys.readouterr().err == ""

    # A record value that moved leaves every count as it was: only the
    # digest shows it, and only an exact run compares the digest.
    entry["sha256"] = "0" * 64
    saved.write_text(json.dumps(summary))
    assert outcome_rule.main(ARGS + ["--exact", "--against", str(saved)]) == 1
    assert capsys.readouterr().err.startswith("seed 3 suite construction sha256: 0000")
    assert outcome_rule.main(ARGS + ["--against", str(saved)]) == 0
    assert capsys.readouterr().err == ""

    # A reference without digests cannot show byte identity.
    del entry["sha256"]
    saved.write_text(json.dumps(summary))
    assert outcome_rule.main(ARGS + ["--exact", "--against", str(saved)]) == 1
    assert "sha256: None -> " in capsys.readouterr().err
