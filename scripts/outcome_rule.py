#!/usr/bin/env python3
"""Outcome-rule summary of seeded verify runs.

For each master seed and suite this prints, as one JSON object keyed by
seed and then suite, the suite's n_records, its n_failed and the list of
failing (trial, record name) pairs, with every suite at its default
trial count.  When a change moves record values at rounding level the
reports cannot stay byte-identical; equal summaries show that the
outcomes did not move.  With --against FILE, a summary saved earlier is
compared for every seed and suite run here, each difference is printed
to stderr, and the exit status is 1 on any difference.

    PYTHONPATH=src python scripts/outcome_rule.py > before.json
    PYTHONPATH=src python scripts/outcome_rule.py --against before.json
"""

import argparse
import json
import sys

from sympspec.harness import SUITE_IDS, SuiteConfig, run_suite

MASTER_SEEDS = (0, 7, 105, 110, 424242)


def outcome(seed, suite):
    """n_records, n_failed and the failing (trial, name) pairs of one suite."""
    out = run_suite(suite, SuiteConfig(suite=suite, master_seed=seed, report_path=None))
    return {
        "n_records": out["aggregate"]["n_records"],
        "n_failed": out["aggregate"]["n_failed"],
        "failing": [[r["trial"], r["name"]] for r in out["records"] if not r["passed"]],
    }


def differences(summary, reference):
    """One line per (seed, suite) of summary whose outcome differs from,
    or is missing in, the reference."""
    lines = []
    for seed, suites in summary.items():
        for suite, got in suites.items():
            want = reference.get(seed, {}).get(suite)
            if got != want:
                lines.append(f"seed {seed} suite {suite}: {want} -> {got}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(MASTER_SEEDS))
    parser.add_argument("--suite", nargs="+", choices=SUITE_IDS, default=list(SUITE_IDS))
    parser.add_argument("--against", metavar="FILE",
                        help="saved summary to compare with; exit 1 on any difference")
    args = parser.parse_args(argv)

    summary = {
        str(seed): {suite: outcome(seed, suite) for suite in args.suite}
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
