"""Randomized verification suites and their JSON reports.

Each suite is a sequence of independent trials.  Trial t of suite s
under master seed m draws from a dedicated generator keyed by
(m, crc32(s), t), so any single trial can be replayed from a saved
report.  A trial is a draw, (t, cfg, rng) -> (n, *instance), which takes
every random choice that fixes the instance, planted cases included, and
a certify step, which goes on with the same generator for what a
certificate samples.  A suite draws all its trials first, then certifies
them: certify(cfg, drawn) takes every drawn trial and returns each one's
records.  Most suites certify each trial on its own (_each); the two
Lidskii suites run their trials' plans side by side
(inequalities._trial_outcomes), so all trials share one stacked
positive-definiteness check per size and one stacked spectrum pass per
size, while lidskii-mult forms each mean alone; a replay certifies a
list of one trial through the same step.
Violations never abort a suite; every comparison becomes a record, a
contract that fails inside a trial becomes a failed record of that trial
alone, and the report carries them all.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from ._version import __version__
from .basis import SymplecticBasis, dual_chain_construct, same_span_trace_check
from .core import (
    COND_WARN,
    check_positive_definite,
    random_pd,
    random_symplectic,
    symplectic_eigenvalues,
    williamson,
)
from .errors import ValidationError, _attempt, _bound, _check_int, _check_tol
from .extremal import (
    det_product_check,
    maxmin_check,
    phi_extremal_check,
    random_orthogonal,
    wielandt_certify,
)
from .functionals import SHIPPED
from .inequalities import (
    _additive_draw,
    _additive_plan,
    _index_set,
    _multiplicative_draw,
    _multiplicative_plan,
    _trial_outcomes,
    majorize,
    make_record,
    random_dominated_pair,
    random_majorization_pair,
    random_supermajorization_pair,
    supermajorize,
)
from .matio import _write_json

DEFAULT_TOL = _bound("record")


@dataclass
class SuiteConfig:
    suite: str = "all"
    trials: Optional[int] = None
    n_min: int = 2
    n_max: int = 5
    master_seed: int = 0
    tol: float = DEFAULT_TOL
    report_path: Optional[str] = "sympspec_report.json"
    jobs: int = 1

    def __post_init__(self):
        if self.suite != "all" and self.suite not in SUITE_IDS:
            raise ValidationError(
                f"unknown suite {self.suite!r}; choose from {('all',) + SUITE_IDS}"
            )
        # Stored as plain ints, so the report is JSON and replay's _field,
        # which takes no other type, reads it back; the seed may be negative.
        if self.trials is not None:
            self.trials = _check_int("trials", self.trials, minimum=1)
        self.n_min = _check_int("n_min", self.n_min, minimum=1)
        self.n_max = _check_int("n_max", self.n_max, minimum=self.n_min)
        self.master_seed = _check_int("master_seed", self.master_seed)
        self.jobs = _check_int("jobs", self.jobs, minimum=1)
        self.tol = _check_tol("tolerance", self.tol)  # a plain float, for the same reason


def trial_rng(master_seed, suite_id, trial):
    """Deterministic per-trial generator, independent of execution order.

    It is default_rng(SeedSequence([master_seed % 2**64, crc32(suite_id),
    trial])), built from the uint32 words numpy makes of that list: each
    value split into 32-bit words, low word first, one word for a value
    below 2**32, 0 included.  Handing SeedSequence those words skips its
    coercion of the list, and the stream stays the same.
    """
    trial = int(trial)
    if trial < 0:
        raise ValidationError(f"trial must be at least 0, got {trial}")
    words = []
    for x in (int(master_seed) % 2**64, zlib.crc32(suite_id.encode("utf-8")), trial):
        words.append(x & 0xFFFFFFFF)
        while x > 0xFFFFFFFF:
            x >>= 32
            words.append(x & 0xFFFFFFFF)
    seq = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.PCG64(seq))


def _from_certificate(cert, **fields):
    """A certificate suite's records: the certificate as one record,
    with any further instance fields."""
    rec = make_record(
        cert.name, cert.slack, 0.0, "ge", 0.0,
        instance={
            "claimed": cert.claimed_value,
            "sampled_min": cert.sampled_min,
            "witness_max": cert.witness_max,
            "equality_gap": cert.equality_gap,
            "n_skipped": cert.n_skipped,
            **fields,
        },
    )
    # A certificate also fails on too many skipped constructions.
    rec.passed = cert.passed
    return [rec]


def _sized(draw):
    """The suite draw that takes n from the configured range, then the
    instance draw(t, n, rng)."""
    def sized(t, cfg, rng):
        n = int(rng.integers(cfg.n_min, cfg.n_max + 1))
        return (n, *draw(t, n, rng))
    return sized


def _draw_pd(t, n, rng):
    return (random_pd(n, rng),)


def _draw_pd_index_set(t, n, rng):
    return random_pd(n, rng), _index_set(n, rng, cap=4)


def _draw_phi(t, n, rng):
    return (*_draw_pd_index_set(t, n, rng), SHIPPED[t % len(SHIPPED)])


def _draw_williamson(t, n, rng):
    # Every third trial prescribes the spectrum to recover.
    if t % 3 == 2:
        target = np.sort(rng.uniform(0.2, 3.0, size=n))
        return random_pd(n, rng, spectrum=target), target
    return random_pd(n, rng), None


def _certify_williamson(cfg, rng, a, target):
    # williamson raises when a residual exceeds its bound; the margins
    # are kept with the instance, next to its condition number estimate.
    pd = check_positive_definite(a)
    dec = williamson(pd)
    inst = {"cond": dec.kappa}
    if dec.kappa > COND_WARN:
        inst["condition_warning"] = True
    inst["residual_a"] = dec.residual_a
    inst["residual_j"] = dec.residual_j
    # williamson against ja-eigen, the one method that does not go through
    # K = L.T J L: williamson reads d off the Hessenberg band of K, and
    # skew-canonical off the singular values of K itself.
    spectra = np.stack([dec.d, symplectic_eigenvalues(pd, method="ja-eigen")])
    spread = float((spectra.max(axis=0) - spectra.min(axis=0)).max())
    records = [
        make_record(
            "method-agreement", spread,
            _bound("method agreement", float(spectra.max())), "le", 0.0, inst,
        )
    ]
    if target is not None:
        records.append(
            make_record(
                "prescribed-recovery",
                float(np.abs(dec.d - target).max()),
                _bound("prescribed recovery", float(target.max())), "le", 0.0, inst,
            )
        )
    return records


def _certify_maxmin(cfg, rng, a):
    k = int(rng.integers(1, len(a) // 2 + 1))
    return _from_certificate(maxmin_check(a, k, n_subspaces=4, rng=rng, tol=cfg.tol))


def _certify_wielandt(cfg, rng, a, idx):
    return _from_certificate(
        wielandt_certify(a, idx, n_chains=3, samples=6, rng=rng, tol=cfg.tol))


def _certify_phi(cfg, rng, a, idx, phi):
    cert = phi_extremal_check(a, idx, phi, n_chains=3, rng=rng, tol=cfg.tol,
                              validate_phi=False)
    return _from_certificate(cert, functional=phi.name)


def _certify_det_product(cfg, rng, a, idx):
    return _from_certificate(det_product_check(a, idx))


def _certify_construction(cfg, rng, a):
    n = len(a) // 2
    basis = SymplecticBasis(random_symplectic(n, rng))
    idx = _index_set(n, rng, cap=4)
    vq = random_orthogonal(2 * n, rng)
    wq = random_orthogonal(2 * n, rng)
    vchain = [vq[:, : n + int(i)] for i in idx]
    wchain = [wq[:, : 2 * n - int(i) + 1] for i in idx]
    # The construction raises unless its tuples are B-orthosymplectic,
    # lie in their sharp spaces and have equal spans; the record checks
    # the trace identity, which it does not.
    vs, ws = dual_chain_construct(vchain, wchain, basis, rng)
    lhs, rhs = same_span_trace_check(a, ws, vs, basis, check=False)
    return [
        make_record(
            "construction-trace-equality", abs(lhs - rhs),
            _bound("trace equality", abs(lhs)), "le", 0.0,
            {"index_set": idx.tolist(), "lhs": lhs, "rhs": rhs},
        ),
    ]


def _brute_supermajorize(a, b, atol=0.0):
    """Reference comparison by explicit sequential partial sums."""
    a_s = sorted(float(x) for x in a)
    b_s = sorted(float(x) for x in b)
    ca = cb = 0.0
    for x, y in zip(a_s, b_s):
        ca += x
        cb += y
        if not ca >= cb - atol:
            return False
    return True


def _brute_majorize(a, b, atol=0.0):
    if not _brute_supermajorize(a, b, atol=atol):
        return False
    total_a = 0.0
    for x in sorted(float(v) for v in a):
        total_a += x
    total_b = 0.0
    for x in sorted(float(v) for v in b):
        total_b += x
    return abs(total_a - total_b) <= max(atol, _bound("sum gap", abs(total_a)))


def _draw_majorization(t, cfg, rng):
    # Lengths 2..7, whatever the configured range.
    n = int(rng.integers(2, 8))
    x = rng.uniform(0.0, 3.0, size=n)
    y = rng.uniform(0.0, 3.0, size=n)
    return (n, x, y, *random_majorization_pair(n, rng),
            *random_supermajorization_pair(n, rng), *random_dominated_pair(n, rng))


def _certify_majorization(cfg, rng, x, y, am, bm, up, down, hi, lo):
    atol = _bound("sum gap", float(np.abs(x).max()) + float(np.abs(y).max()))
    scale = _bound("sum gap", float(np.abs(bm).max()) * len(x))
    return [
        make_record("supermajorize-oracle-agreement", float(supermajorize(x, y, atol=atol)),
                    float(_brute_supermajorize(x, y, atol=atol)), "eq", 0.0,
                    {"x": x.tolist(), "y": y.tolist()}),
        make_record("majorize-oracle-agreement", float(majorize(x, y, atol=atol)),
                    float(_brute_majorize(x, y, atol=atol)), "eq", 0.0),
        make_record("majorization-pair-valid", float(majorize(am, bm, atol=scale)),
                    1.0, "eq", 0.0),
        make_record("supermajorization-pair-valid",
                    float(supermajorize(up, down, atol=scale)), 1.0, "eq", 0.0),
        make_record("domination-implies-supermajorization",
                    float(supermajorize(hi, lo, atol=scale)), 1.0, "eq", 0.0),
    ]


def _each(certify):
    """The certify step of a suite whose trials share no work:
    certify(cfg, rng, *instance) on each drawn trial."""
    def each(cfg, drawn):
        return [x if isinstance(x, Exception) else _attempt(certify, cfg, x[1], *x[2])
                for x in drawn]
    return each


def _lidskii(plan):
    """The certify step of a Lidskii suite, all its trials at once."""
    def lidskii(cfg, drawn):
        return _trial_outcomes(
            plan, [x if isinstance(x, Exception) else x[2] for x in drawn], cfg.tol)
    return lidskii


# Each suite's draw, its certify step and its default trial count.
_SUITES = {
    "williamson": (_sized(_draw_williamson), _each(_certify_williamson), 60),
    "maxmin": (_sized(_draw_pd), _each(_certify_maxmin), 25),
    "wielandt": (_sized(_draw_pd_index_set), _each(_certify_wielandt), 12),
    "construction": (_sized(_draw_pd), _each(_certify_construction), 40),
    "lidskii-add": (_sized(_additive_draw), _lidskii(_additive_plan), 150),
    "lidskii-mult": (_sized(_multiplicative_draw), _lidskii(_multiplicative_plan), 80),
    "phi-extremal": (_sized(_draw_phi), _each(_certify_phi), 12),
    "det-product": (_sized(_draw_pd_index_set), _each(_certify_det_product), 20),
    "majorization": (_draw_majorization, _each(_certify_majorization), 40),
}
SUITE_IDS = tuple(_SUITES)


def _drawn(draw, suite_id, config, t):
    """(n, rng, instance) of trial t: its draw, and the generator that
    its certify step goes on with."""
    rng = trial_rng(config.master_seed, suite_id, t)
    n, *instance = draw(t, config, rng)
    return n, rng, instance


def _suite_records(suite_id, config, trials):
    """Report records of the given trials: every trial is drawn, then the
    suite's certify step takes them all, and each InequalityRecord gets
    its trial and n.

    A numerical contract or construction that fails inside a trial, in
    its draw or its certify step, becomes that trial's one failed
    contract-error record, with n null, so the other trials' records
    survive and replay reproduces the failure.
    """
    draw, certify, _ = _SUITES[suite_id]
    drawn = [_attempt(_drawn, draw, suite_id, config, t) for t in trials]
    out = []
    for t, x, outcome in zip(trials, drawn, certify(config, drawn)):
        if isinstance(outcome, Exception):
            n, records = None, [make_record(
                "contract-error", 1.0, 0.0, "le", 0.0,
                {"error": type(outcome).__name__, "message": str(outcome)})]
        else:
            n, records = x[0], outcome
        out += [{"trial": t, "n": n, **vars(rec)} for rec in records]
    return out


def run_suite(suite_id, config):
    """All records and the aggregate for one suite."""
    trials = config.trials if config.trials is not None else _SUITES[suite_id][2]
    records = _suite_records(suite_id, config, range(trials))
    failed = [r for r in records if not r["passed"]]
    aggregate = {
        "n_trials": int(trials),
        "n_records": len(records),
        "n_failed": len(failed),
        "min_slack": float(min((r["slack"] for r in records), default=0.0)),
        "passed": not failed,
    }
    return {"records": records, "aggregate": aggregate}


def run_all(config):
    """Full report for the configured suites, plus the exit code."""
    suites = list(SUITE_IDS) if config.suite == "all" else [config.suite]
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    out = {}
    per_suite_s = {}
    for sid in suites:
        s0 = time.perf_counter()
        out[sid] = run_suite(sid, config)
        per_suite_s[sid] = round(time.perf_counter() - s0, 6)
    n_failed = sum(out[sid]["aggregate"]["n_failed"] for sid in suites)
    report = {
        "version": __version__,
        "config": {
            "suite": config.suite,
            "trials": config.trials,
            "n_min": config.n_min,
            "n_max": config.n_max,
            "master_seed": config.master_seed,
            "tol": config.tol,
        },
        "timing": {
            "started_utc": started,
            "elapsed_s": round(time.perf_counter() - t0, 6),
            "jobs": config.jobs,
            "suites": per_suite_s,
        },
        "suites": out,
        "overall": {
            "passed": n_failed == 0,
            "n_failed": n_failed,
            "suites_run": suites,
        },
    }
    return report, 0 if n_failed == 0 else 1


def write_report(report, path):
    """Write report as JSON to path; a failed write leaves the old file."""
    _write_json(report, path)


def strip_timing(report):
    """Copy of a report with the timing section removed, for comparisons."""
    out = json.loads(json.dumps(report))
    out.pop("timing", None)
    return out


def reports_match(r1, r2):
    """True when two reports agree on everything except timing."""
    return strip_timing(r1) == strip_timing(r2)


def _field(value, types, where):
    """value when it has one of the JSON types a report stores at where;
    a JSON boolean never stands in for a number."""
    if isinstance(value, bool) or not isinstance(value, types):
        found = "missing" if value is None else f"of type {type(value).__name__}"
        raise ValidationError(f"report is malformed: {where} is {found}")
    return value


def replay(report_path, suite_id, trial):
    """Re-run one recorded trial and compare against the saved report.

    Returns (fresh_records, stored_records, match).
    """
    trial = _check_int("trial", trial)
    try:
        with open(report_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot load report {report_path}: {exc}") from None
    report = _field(report, dict, "the report")
    suites = _field(report.get("suites", {}), dict, "suites")
    if suite_id not in suites:
        raise ValidationError(f"suite {suite_id!r} is not in the report")
    cfg_src = _field(report.get("config", {}), dict, "config")
    config = SuiteConfig(
        suite=suite_id,
        trials=_field(cfg_src.get("trials"), (int, type(None)), "config.trials"),
        n_min=_field(cfg_src.get("n_min", 2), int, "config.n_min"),
        n_max=_field(cfg_src.get("n_max", 5), int, "config.n_max"),
        master_seed=_field(cfg_src.get("master_seed", 0), int, "config.master_seed"),
        tol=_field(cfg_src.get("tol", DEFAULT_TOL), (int, float), "config.tol"),
        report_path=None,
        jobs=1,
    )
    entry = _field(suites[suite_id], dict, f"suites.{suite_id}")
    aggregate = _field(entry.get("aggregate"), dict, f"suites.{suite_id}.aggregate")
    n_trials = _field(aggregate.get("n_trials"), int, f"suites.{suite_id}.aggregate.n_trials")
    records = _field(entry.get("records"), list, f"suites.{suite_id}.records")
    if not 0 <= trial < n_trials:
        raise ValidationError(f"trial {trial} outside recorded range 0..{n_trials - 1}")
    fresh = json.loads(json.dumps(_suite_records(suite_id, config, [trial])))
    stored = [
        r for r in records
        if _field(r, dict, f"a record of suites.{suite_id}").get("trial") == trial
    ]
    return fresh, stored, fresh == stored
