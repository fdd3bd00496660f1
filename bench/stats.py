"""Summaries of per-op timings and outcomes.

Every op ends in one of three outcomes: ``ok`` (its output passed the
benchmark's check), ``violation`` (it returned, but the output failed the
check or the program itself reported a violated inequality) and ``error``
(it raised, or a child process exited non-zero).

An op also has a score, the share of its checks that passed, and
``ok_ratio`` is the mean score.  Spectra and cli-cold ops make one check,
so their score is 1 when the op is ok and 0 otherwise; a verify op makes
one check per record of its suite.
"""

from __future__ import annotations

import bisect
import contextlib
import statistics
import time
from dataclasses import dataclass

OK, VIOLATION, ERROR = "ok", "violation", "error"
TAIL_BEYOND = 10
# Reference probe time (machine.reference_probe) on the 2-core Xeon the
# benchmark was calibrated on, in its usual, slower state.  Timings are
# reported at this machine speed.
REF_MS = 4.0


def run_op(thunk, check, clock=time.perf_counter, pause=contextlib.nullcontext):
    """Time ``thunk`` and classify its result; return (outcome, seconds, result).

    ``check`` runs outside the timed interval, under ``pause()``, and
    returns True when the output is correct; a check that raises counts as
    False.  An exception from ``thunk`` is returned in place of the result.
    """
    t0 = clock()
    try:
        result = thunk()
    except Exception as exc:  # a failing op is a measured outcome, not a crash
        return ERROR, clock() - t0, exc
    elapsed = clock() - t0
    with pause():
        try:
            ok = bool(check(result))
        except Exception:
            ok = False
    return (OK if ok else VIOLATION), elapsed, result


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: float
    beyond: int
    samples: int


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile that still has ``beyond`` samples above it.

    Returns the largest sample v with at least ``beyond`` samples strictly
    greater than v, the nearest-rank percentile of v, and how many samples
    lie beyond it.  With too few samples no such v exists; the maximum is
    returned with percentile 100 and ``beyond`` 0.
    """
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("no samples")
    for r in range(n - beyond - 1, -1, -1):
        above = n - bisect.bisect_right(s, s[r])
        if above >= beyond:
            return Tail(s[r], 100.0 * (r + 1) / n, above, n)
    return Tail(s[-1], 100.0, 0, n)


def bracketing_means(n, marks):
    """Per-item mean of the probes taken on either side of it.

    ``marks`` lists (index, value) in order, value probed after item
    ``index``; the first mark has index -1 and the last index n - 1.
    """
    out = []
    k = 0
    for i in range(n):
        while marks[k + 1][0] < i:
            k += 1
        out.append(0.5 * (marks[k][1] + marks[k + 1][1]))
    return out


def at_reference_speed(seconds, ref_ms):
    """Times scaled to the calibration machine's speed.

    The machine switches between speeds (about 1.5x apart) for seconds to
    minutes at a time; the reference probe taken around each op moves with
    it, and dividing by it keeps that drift out of the reported numbers.
    """
    return [t * REF_MS / r for t, r in zip(seconds, ref_ms)]


def binary_scores(outcomes):
    """Scores of ops that make one check each."""
    return [1.0 if o == OK else 0.0 for o in outcomes]


def summarize(latencies_s, outcomes, scores=None):
    """End-to-end timing and outcome metrics of one run (seconds in)."""
    if scores is None:
        scores = binary_scores(outcomes)
    t = tail(latencies_s)
    attempted = len(outcomes)
    ok = sum(1 for o in outcomes if o == OK)
    return {
        "ops_per_s": attempted / sum(latencies_s),
        "op_p50_ms": 1e3 * statistics.median(latencies_s),
        "op_tail_ms": 1e3 * t.value,
        "ok_ratio": sum(scores) / attempted,
    }, {
        "attempted": attempted,
        "ok": ok,
        "violation": sum(1 for o in outcomes if o == VIOLATION),
        "error": sum(1 for o in outcomes if o == ERROR),
        "tail_percentile": t.percentile,
        "tail_beyond": t.beyond,
        "samples": t.samples,
    }
