#!/usr/bin/env python3
"""Outcome-rule summary of seeded verify runs.

For each master seed and suite this prints, as one JSON object keyed by
seed and then suite, the suite's n_records, its n_failed, the list of
failing (trial, record name) pairs and the count of records by name
(by_name), with every suite at its default trial count.  When a change
moves record values at rounding level the reports cannot stay
byte-identical; equal summaries show that the outcomes did not move.
With --exact each suite's summary also carries sha256, the digest of its
records as json.dumps(records, sort_keys=True) writes them, so that equal
summaries show byte-identical records.  With --against FILE, a summary
saved earlier is compared for every seed and suite run here, each
differing field is printed to stderr (one line per record name whose
count changed, so a deleted record is named), and the exit status is 1
on any difference; the digest is compared when this run has one.

    PYTHONPATH=src python scripts/outcome_rule.py > before.json
    PYTHONPATH=src python scripts/outcome_rule.py --against before.json
    PYTHONPATH=src python scripts/outcome_rule.py --exact > before.json
    PYTHONPATH=src python scripts/outcome_rule.py --exact --against before.json
"""

import argparse
import hashlib
import json
import sys
from collections import Counter

from sympspec.harness import SUITE_IDS, SuiteConfig, run_suite

MASTER_SEEDS = (0, 7, 105, 110, 424242)


def outcome(seed, suite, exact=False):
    """n_records, n_failed, the failing (trial, name) pairs and the
    record counts by name of one suite; with exact, also the sha256 of
    its records."""
    out = run_suite(suite, SuiteConfig(suite=suite, master_seed=seed, report_path=None))
    entry = {
        "n_records": out["aggregate"]["n_records"],
        "n_failed": out["aggregate"]["n_failed"],
        "failing": [[r["trial"], r["name"]] for r in out["records"] if not r["passed"]],
        "by_name": dict(Counter(r["name"] for r in out["records"])),
    }
    if exact:
        records = json.dumps(out["records"], sort_keys=True).encode("utf-8")
        entry["sha256"] = hashlib.sha256(records).hexdigest()
    return entry


def _fields(entry):
    """An outcome with by_name spread into one by_name.NAME field per name."""
    flat = {key: value for key, value in entry.items() if key != "by_name"}
    flat.update({f"by_name.{name}": count
                 for name, count in entry.get("by_name", {}).items()})
    return flat


def differences(summary, reference):
    """One line per field of a (seed, suite) outcome in summary that
    differs from the reference, and one per outcome missing there; a
    record name absent on one side counts 0 there, and the records
    digest is compared only when summary has one."""
    lines = []
    for seed, suites in summary.items():
        for suite, got in suites.items():
            want = reference.get(seed, {}).get(suite)
            where = f"seed {seed} suite {suite}"
            if want is None:
                lines.append(f"{where}: missing in the reference")
                continue
            got, want = _fields(got), _fields(want)
            keys = set(got) | set(want)
            if "sha256" not in got:
                keys.discard("sha256")
            for key in sorted(keys):
                default = 0 if key.startswith("by_name.") else None
                if got.get(key, default) != want.get(key, default):
                    lines.append(f"{where} {key}: {want.get(key, default)} -> "
                                 f"{got.get(key, default)}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(MASTER_SEEDS))
    parser.add_argument("--suite", nargs="+", choices=SUITE_IDS, default=list(SUITE_IDS))
    parser.add_argument("--exact", action="store_true",
                        help="add each suite's records digest, so --against checks byte identity")
    parser.add_argument("--against", metavar="FILE",
                        help="saved summary to compare with; exit 1 on any difference")
    args = parser.parse_args(argv)

    summary = {
        str(seed): {suite: outcome(seed, suite, args.exact) for suite in args.suite}
        for seed in args.seeds
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    if args.against is None:
        return 0
    with open(args.against, "r", encoding="utf-8") as fh:
        reference = json.load(fh)
    diff = differences(summary, reference)
    for line in diff:
        print(line, file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
