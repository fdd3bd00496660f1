"""The three benchmark workloads: verify, spectra and cli-cold.

Each workload is a closed loop with one client: the next op starts when
the previous one has returned.  Every op's inputs come from the seed; the
op list depends on the seed and on the requested seconds only, never on
elapsed time, so ``ok_ratio`` and every per-layer call count repeat
exactly for one seed.  No op's inputs are run twice: each op draws its own
inputs, and the ops the traced run times for ``tracing.overhead_ratio``
come from keys of their own.

A workload exposes ``batches()`` (an iterable of lists of ``Op``, in run
order), ``overhead_batch()``, ``finish(batch, outcomes, results) ->
(outcomes, scores)`` for checks that need a whole batch, and
``gate_failures``: outputs that must be correct on inputs the package
supports.  Any entry there makes the run's ``correct`` false; other failed
ops only lower ``ok_ratio``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Package functions are called through their modules, so the traced run's
# wrappers (installed on the sympspec namespaces) see every call.
from sympspec import __version__, cli, core, harness, inequalities, matio

import machine
from stats import OK, VIOLATION, binary_scores


@dataclass
class Op:
    key: tuple
    thunk: Callable
    check: Callable
    gated: bool = True


def op_rng(*key):
    """Generator for one op's inputs, keyed by the seed and the op's position."""
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


def digest(a):
    """Short fingerprint of an input matrix, so op keys identify inputs too."""
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


class Verify:
    """One ``harness.run_suite`` call per op, over master seeds derived from the seed.

    After each master seed the report is written with ``write_report`` and
    one fixed trial of each suite is replayed against it.
    """

    name = "verify"
    # Pinned here, not read from the harness, so a new suite or a changed
    # default leaves this workload's op list as it is.
    SUITE_TRIALS = {
        "williamson": 60, "maxmin": 25, "wielandt": 12, "construction": 40,
        "lidskii-add": 150, "lidskii-mult": 80, "phi-extremal": 12,
        "det-product": 20, "majorization": 40,
    }
    N_MIN, N_MAX, TOL = 2, 5, 1e-9
    REPLAY_TRIAL = 7
    # --seconds fixes the op count through these rates (here and below).
    # A seed takes about 1.9 s of ops on the calibration machine; 1.4 buys
    # a few more seeds per run, because per-seed work varies with the seed.
    SECONDS_PER_SEED = 1.4
    TAG = 1

    def __init__(self, seed, seconds, work_dir):
        self.work_dir = work_dir
        n_seeds = max(1, round(seconds / self.SECONDS_PER_SEED))
        # Distinct seeds for the ops, the warm-up and the overhead batch.
        drawn = [int(s) for s in op_rng(seed, self.TAG).choice(2**31, size=n_seeds + 2, replace=False)]
        self.master_seeds = drawn[:n_seeds]
        self.warm_seed, self.overhead_seed = drawn[n_seeds:]
        self.report_path = os.path.join(work_dir, "verify_report.json")
        self.gate_failures = []
        self.violations = []
        self.report_bytes = []
        self.n_records = 0

    def _config(self, suite, master_seed, trials):
        return harness.SuiteConfig(
            suite=suite, trials=trials, n_min=self.N_MIN, n_max=self.N_MAX,
            master_seed=master_seed, tol=self.TOL, report_path=None,
        )

    def warm_up(self):
        for suite in self.SUITE_TRIALS:
            harness.run_suite(suite, self._config(suite, self.warm_seed, 1))

    def _batch(self, master_seed):
        batch = []
        for suite, trials in self.SUITE_TRIALS.items():
            cfg = self._config(suite, master_seed, trials)
            batch.append(Op(
                ("verify", master_seed, suite, trials),
                lambda s=suite, c=cfg: harness.run_suite(s, c),
                lambda r: bool(r["aggregate"]["passed"]),
            ))
        return batch

    def batches(self):
        return [self._batch(m) for m in self.master_seeds]

    def overhead_batch(self):
        return self._batch(self.overhead_seed)

    def finish(self, batch, outcomes, results):
        """Write the seed's report and replay one trial per suite against it.

        An op's score is the share of its suite's records that passed; an op
        that raised or whose replay differs scores 0.
        """
        master_seed = batch[0].key[1]
        scores = [0.0] * len(batch)
        suites = {op.key[2]: res for op, res in zip(batch, results) if isinstance(res, dict)}
        n_failed = sum(r["aggregate"]["n_failed"] for r in suites.values())
        report = {
            "version": __version__,
            "config": {"suite": "all", "trials": None, "n_min": self.N_MIN,
                       "n_max": self.N_MAX, "master_seed": master_seed, "tol": self.TOL},
            "timing": {},
            "suites": suites,
            "overall": {"passed": n_failed == 0, "n_failed": n_failed,
                        "suites_run": list(suites)},
        }
        harness.write_report(report, self.report_path)
        self.report_bytes.append(os.path.getsize(self.report_path))
        for i, op in enumerate(batch):
            suite = op.key[2]
            if suite not in suites:
                self.gate_failures.append(f"seed {master_seed} suite {suite}: raised {results[i]!r}")
                continue
            records = suites[suite]["records"]
            self.n_records += len(records)
            for rec in records:
                if not rec["passed"]:
                    self.violations.append([master_seed, suite, rec["trial"], rec["name"], rec["slack"]])
            _, stored, match = harness.replay(self.report_path, suite, self.REPLAY_TRIAL)
            if not (match and stored):
                outcomes[i] = VIOLATION
                self.gate_failures.append(
                    f"seed {master_seed} suite {suite}: replay of trial {self.REPLAY_TRIAL} differs")
            elif records:
                scores[i] = sum(1 for rec in records if rec["passed"]) / len(records)
            else:
                scores[i] = float(outcomes[i] == OK)
        return outcomes, scores

    def details(self, keys, outcomes):
        return {"master_seeds": self.master_seeds, "violations": self.violations}


class Spectra:
    """One call into an L1 entry point per op, on matrices made for it.

    A cycle's matrices are made just before the cycle runs and dropped
    after it, so a run holds one cycle of inputs at a time; the benchmark's
    set-up time (``setup_s``) makes every cycle once.
    """

    name = "spectra"
    GENERIC_N = (2, 5, 20, 50, 100, 200)
    DEGENERATE_N = (2, 5, 20, 50, 100)
    HARD_N = (2, 3, 4, 5, 6, 7)
    HARD_FAMILIES = ("cluster", "log-spread-3", "log-spread-4", "near-singular", "wide-congruence")
    FAMILIES = ("generic", "degenerate") + HARD_FAMILIES
    ENTRY_POINTS = ("williamson", "skew-canonical", "ja-eigen", "geometric-mean")
    # A returned spectrum d passes when |d - d0| <= RTOL d0 + ATOL max(d0).
    SPECTRUM_RTOL, SPECTRUM_ATOL = 1e-6, 1e-12
    RESIDUAL_RTOL = 1e-8
    MEAN_RTOL = 1e-6
    CASES = ([("generic", n) for n in GENERIC_N]
             + [("degenerate", n) for n in DEGENERATE_N]
             + list(itertools.product(HARD_FAMILIES, HARD_N)))
    SECONDS_PER_CYCLE = 1.4  # op seconds per cycle on the calibration machine
    TAG, OVERHEAD_TAG = 2, 4

    def __init__(self, seed, seconds, work_dir):
        self.seed = seed
        self.n_cycles = max(1, round(seconds / self.SECONDS_PER_CYCLE))
        self.gate_failures = []

    def _cycle(self, tag, c):
        ops = []
        for i, (family, n) in enumerate(self.CASES):
            for j, entry in enumerate(self.ENTRY_POINTS):
                ops.append(self._op(c, family, n, entry, op_rng(self.seed, tag, c, i, j)))
        return ops

    @classmethod
    def planted_spectrum(cls, family, n, rng):
        if family == "degenerate":
            return np.full(n, rng.uniform(0.5, 2.0))
        if family == "cluster":
            return rng.uniform(0.5, 2.0) + 1e-9 * np.arange(n)
        if family == "log-spread-3":
            return np.logspace(-3.0, 3.0, n)
        if family == "log-spread-4":
            return np.logspace(-4.0, 4.0, n)
        if family == "near-singular":
            return np.concatenate([[1e-7], np.sort(rng.uniform(0.5, 2.0, n - 1))])
        if family == "wide-congruence":
            return np.sort(rng.uniform(0.5, 2.0, n))
        raise ValueError(family)

    def _op(self, c, family, n, entry, rng):
        gated = family in ("generic", "degenerate")
        if family == "generic":
            a = core.random_pd(n, rng)
            key = (c, family, n, entry, digest(a))
            if entry == "geometric-mean":
                b = core.random_pd(n, rng)
                return Op(key, lambda: inequalities.geometric_mean(a, b),
                          lambda g: _riccati_ok(g, a, b, self.MEAN_RTOL), gated)
            if entry == "williamson":
                return Op(key, lambda: core.williamson(a),
                          lambda dec: _williamson_ok(dec, a, self.RESIDUAL_RTOL), gated)
            return Op(key, lambda: core.symplectic_eigenvalues(a, method=entry),
                      lambda d: self.spectrum_ok(d, _reference_spectrum(a)), gated)
        d0 = self.planted_spectrum(family, n, rng)
        s = core.random_symplectic(n, rng, spread=6.0 if family == "wide-congruence" else 2.0)
        a = _congruence(s, d0)
        key = (c, family, n, entry, digest(a))
        if entry == "geometric-mean":
            # A and B share the congruence S, so A # B = S^T diag(sqrt(d0 e0)) S exactly.
            e0 = rng.uniform(0.5, 2.0, n)
            b = _congruence(s, e0)
            g0 = _congruence(s, np.sqrt(d0 * e0))
            return Op(key, lambda: inequalities.geometric_mean(a, b),
                      lambda g: np.linalg.norm(g - g0) <= self.MEAN_RTOL * np.linalg.norm(g0), gated)
        if entry == "williamson":
            return Op(key, lambda: core.williamson(a), lambda dec: self.spectrum_ok(dec.d, d0), gated)
        return Op(key, lambda: core.symplectic_eigenvalues(a, method=entry),
                  lambda d: self.spectrum_ok(d, d0), gated)

    @classmethod
    def spectrum_ok(cls, d, d0):
        d, d0 = np.asarray(d, dtype=float), np.sort(d0)
        if d.shape != d0.shape or not np.all(np.isfinite(d)):
            return False
        return bool(np.all(np.abs(d - d0) <= cls.SPECTRUM_RTOL * d0 + cls.SPECTRUM_ATOL * d0[-1]))

    def warm_up(self):
        rng = np.random.default_rng(0)
        for n in (5, 50):
            a, b = core.random_pd(n, rng), core.random_pd(n, rng)
            core.williamson(a)
            core.symplectic_eigenvalues(a, method="skew-canonical")
            core.symplectic_eigenvalues(a, method="ja-eigen")
            inequalities.geometric_mean(a, b)

    def batches(self):
        return (self._cycle(self.TAG, c) for c in range(self.n_cycles))

    def overhead_batch(self):
        return self._cycle(self.OVERHEAD_TAG, 0)

    def finish(self, batch, outcomes, results):
        for op, outcome in zip(batch, outcomes):
            if op.gated and outcome != OK:
                self.gate_failures.append(f"{op.key}: {outcome}")
        return outcomes, binary_scores(outcomes)

    def details(self, keys, outcomes):
        table = {}
        for key, outcome in zip(keys, outcomes):
            row = table.setdefault(f"{key[1]}/{key[3]}", {"ok": 0, "violation": 0, "error": 0})
            row[outcome] += 1
        return {"cycles": self.n_cycles, "outcomes": table}

    @classmethod
    def williamson_ok_ratio(cls, keys, outcomes):
        out = {}
        for family in cls.FAMILIES:
            hits = [o == OK for key, o in zip(keys, outcomes)
                    if key[1] == family and key[3] == "williamson"]
            out[family] = sum(hits) / len(hits) if hits else 0.0
        return out


def _congruence(s, d):
    a = s.T @ np.diag(np.concatenate([d, d])) @ s
    return 0.5 * (a + a.T)


def _reference_spectrum(a):
    """Symplectic spectrum from the Hermitian matrix i L^T J L, with A = L L^T."""
    n = a.shape[0] // 2
    low = np.linalg.cholesky(a)
    return np.linalg.eigvalsh(1j * (low.T @ core.symplectic_form(n) @ low))[n:]


def _williamson_ok(dec, a, rtol):
    n = a.shape[0] // 2
    m, d = dec.m, np.asarray(dec.d)
    normal = np.diag(np.concatenate([d, d]))
    j = core.symplectic_form(n)
    return bool(
        np.all(d > 0) and np.all(np.diff(d) >= 0)
        and np.linalg.norm(m.T @ a @ m - normal) <= rtol * np.linalg.norm(normal)
        and np.linalg.norm(m.T @ j @ m - j) <= rtol * np.linalg.norm(j)
    )


def _riccati_ok(g, a, b, rtol):
    """The mean G = A # B is the positive solution of G B^-1 G = A."""
    return bool(np.linalg.norm(g @ np.linalg.solve(b, g) - a) <= rtol * np.linalg.norm(a))


REPORT_NAME = "report.json"


class CliCold:
    """One fresh ``python -m sympspec.cli`` process per op, one at a time.

    Children run in the work directory and get relative paths, so the op
    list does not depend on where the checkout lives.
    """

    name = "cli-cold"
    COMMANDS = ("eig-skew-canonical", "eig-ja-eigen", "eig-williamson", "williamson",
                "mean", "compress", "repro", "replay")
    SECONDS_PER_CYCLE = 4.5  # op seconds per cycle on the calibration machine
    TAG, OVERHEAD_TAG = 3, 5

    def __init__(self, seed, seconds, work_dir, src_dir):
        self.work_dir = work_dir
        self.env = machine.child_env(src_dir)
        self.trace_child = None  # path of trace_child.py while the traced run is on
        self.trace_stats = []
        self.gate_failures = []
        self.child_rss_kb = []
        os.makedirs(os.path.join(work_dir, "ref"), exist_ok=True)
        rng = op_rng(seed, self.TAG)
        report_path = os.path.join(work_dir, REPORT_NAME)
        report, _ = harness.run_all(harness.SuiteConfig(
            master_seed=int(rng.integers(2**31)), report_path=None))
        harness.write_report(report, report_path)
        self.report = {"bytes": os.path.getsize(report_path),
                       "records": sum(s["aggregate"]["n_records"] for s in report["suites"].values())}
        self.replayable = [(s, r["aggregate"]["n_trials"]) for s, r in report["suites"].items()]
        self.seed = seed
        n_cycles = max(1, round(seconds / self.SECONDS_PER_CYCLE))
        self.cycles = [self._cycle(self.TAG, c, f"c{c}") for c in range(n_cycles)]

    def _cycle(self, tag, c, prefix):
        ops = []
        for j, command in enumerate(self.COMMANDS):
            args, outputs, a = self._inputs(c, f"{prefix}_{j}", command, op_rng(self.seed, tag, c, j))
            ops.append(Op((c, command, tuple(args), None if a is None else digest(a)),
                          self._spawner(args), self._checker(args, outputs)))
        return ops

    def _inputs(self, c, stem, command, rng):
        """Arguments of one op, the files it writes, and its matrix A (None if it reads none)."""
        if command == "repro":
            return ["repro"], [], None
        if command == "replay":
            suite, n_trials = self.replayable[c % len(self.replayable)]
            return ["verify", "--replay", f"{REPORT_NAME}:{suite}:{int(rng.integers(n_trials))}"], [], None
        n = int(rng.integers(2, 6))
        a = core.random_pd(n, rng)
        a_path = self._save(a, f"{stem}_a.json")
        if command.startswith("eig-"):
            if command == "eig-ja-eigen":
                a_path = f"{stem}_a.csv"
                with open(os.path.join(self.work_dir, a_path), "w", encoding="utf-8") as fh:
                    fh.write("\n".join(",".join(repr(float(x)) for x in row) for row in a) + "\n")
            return ["eig", a_path, "--method", command[4:]], [], a
        if command == "williamson":
            return ["williamson", a_path, f"{stem}_out.json"], [f"{stem}_out.json"], a
        if command == "mean":
            b_path = self._save(core.random_pd(n, rng), f"{stem}_b.json")
            return ["mean", a_path, b_path, "--output", f"{stem}_mean.json"], [f"{stem}_mean.json"], a
        if command == "compress":
            s = core.random_symplectic(n, rng)
            cols = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            t_path = self._save(np.hstack([s[:, cols], s[:, n + cols]]), f"{stem}_tuple.json")
            return ["compress", a_path, t_path], [], a
        raise ValueError(command)

    def _save(self, a, name):
        matio.save_matrix(a, os.path.join(self.work_dir, name))
        return name

    def _argv(self, args, stats_path):
        if self.trace_child is None:
            return [sys.executable, "-m", "sympspec.cli", *args]
        return [sys.executable, self.trace_child, stats_path, *args]

    def _spawner(self, args):
        def spawn():
            stats_path = os.path.join(self.work_dir, "child_stats.json")
            elapsed, code, out, err, rss_kb = machine.run_child(
                self._argv(args, stats_path), self.work_dir, self.env)
            self.child_rss_kb.append(rss_kb)
            if self.trace_child is not None and os.path.exists(stats_path):
                with open(stats_path, encoding="utf-8") as fh:
                    self.trace_stats.append(json.load(fh))
                os.remove(stats_path)
            if code != 0:
                raise RuntimeError(f"exit code {code}: {err.strip()[-300:]}")
            return out
        return spawn

    def _checker(self, args, outputs):
        """Child stdout and written files must equal those of an in-process run."""
        def check(stdout):
            ref_dir = os.path.join(self.work_dir, "ref")
            ref_args = [os.path.join("ref", x) if x in outputs else x for x in args]
            buf = io.StringIO()
            cwd = os.getcwd()
            os.chdir(self.work_dir)
            try:
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(ref_args)
            finally:
                os.chdir(cwd)
            if code != 0 or stdout != buf.getvalue():
                return False
            for name in outputs:
                with open(os.path.join(self.work_dir, name), "rb") as fh, \
                        open(os.path.join(ref_dir, name), "rb") as ref:
                    if fh.read() != ref.read():
                        return False
            return True
        return check

    def warm_up(self):
        machine.run_child([sys.executable, "-c", "pass"], self.work_dir, self.env)
        machine.run_child([sys.executable, "-m", "sympspec.cli", "repro"], self.work_dir, self.env)

    def batches(self):
        return self.cycles

    def overhead_batch(self):
        """A cycle of its own, with files written now (the traced run only)."""
        return self._cycle(self.OVERHEAD_TAG, len(self.cycles), "o")

    def finish(self, batch, outcomes, results):
        for op, outcome, res in zip(batch, outcomes, results):
            if outcome != OK:
                self.gate_failures.append(f"{op.key[1]} {list(op.key[2])}: {outcome} {res!r}"[:400])
        return outcomes, binary_scores(outcomes)

    def details(self, keys, outcomes):
        return {"cycles": len(self.cycles), "report_kb": self.report["bytes"] / 1024.0}
