"""Suite runner: per-trial streams, reports, determinism, replay."""

import copy
import dataclasses
import zlib

import numpy as np
import pytest

import sympspec.basis
import sympspec.core
import sympspec.extremal
import sympspec.harness
import sympspec.inequalities
import sympspec.linalg
from sympspec.errors import ConstructionError, NumericalContractError, ValidationError
from sympspec.inequalities import additive_trial_records, multiplicative_trial_records
from sympspec.harness import (
    SUITE_IDS,
    SuiteConfig,
    replay,
    reports_match,
    run_all,
    run_suite,
    strip_timing,
    trial_rng,
    write_report,
)

FAST = SuiteConfig(suite="all", trials=3, n_min=2, n_max=4, master_seed=99,
                   report_path=None)


def test_trial_rng_streams_are_keyed_and_stable():
    a = trial_rng(7, "williamson", 0).normal(size=4)
    b = trial_rng(7, "williamson", 0).normal(size=4)
    c = trial_rng(7, "williamson", 1).normal(size=4)
    d = trial_rng(7, "maxmin", 0).normal(size=4)
    e = trial_rng(8, "williamson", 0).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e)


@pytest.mark.parametrize("seed", [0, 7, -1, -2**40, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5])
@pytest.mark.parametrize("trial", [0, 5, 2**32 - 1, 2**32, 2**40 + 3, 2**70])
def test_trial_rng_is_the_generator_of_the_seed_list(seed, trial):
    for suite in SUITE_IDS:
        key = [seed % 2**64, zlib.crc32(suite.encode("utf-8")), trial]
        want = np.random.default_rng(np.random.SeedSequence(key))
        got = trial_rng(seed, suite, trial)
        assert got.bit_generator.state == want.bit_generator.state
        assert (got.integers(2**63, size=4) == want.integers(2**63, size=4)).all()


def test_trial_rng_refuses_a_negative_trial():
    with pytest.raises(ValidationError, match="trial must be at least 0"):
        trial_rng(0, "williamson", -1)


def test_config_validation(tmp_path):
    with pytest.raises(ValidationError):
        SuiteConfig(suite="nope")
    with pytest.raises(ValidationError):
        SuiteConfig(trials=0)
    with pytest.raises(ValidationError):
        SuiteConfig(n_min=3, n_max=2)
    with pytest.raises(ValidationError):
        SuiteConfig(tol=0.0)
    with pytest.raises(ValidationError):
        SuiteConfig(jobs=0)
    # replay refuses these in a report, booleans included.
    for field, value in [("trials", 2.5), ("trials", True), ("n_min", 2.5),
                         ("n_max", True), ("n_max", 4.0), ("jobs", 1.0),
                         ("jobs", True), ("tol", True), ("tol", "1e-9"), ("tol", None),
                         ("tol", 1e-9 + 0j), ("tol", np.nan), ("master_seed", 2.5),
                         ("master_seed", True), ("master_seed", "7")]:
        with pytest.raises(ValidationError, match="must be an integer|positive and finite"):
            SuiteConfig(**{field: value})
    # trial_rng reduces the seed mod 2**64, so a negative one is valid; numpy
    # integers are stored as int and a numpy float tol as float, so the
    # report is JSON and replays.
    cfg = SuiteConfig(suite="majorization", trials=np.int64(2), n_max=np.int32(3),
                      master_seed=np.int64(-4), jobs=np.uint8(1), tol=np.float32(1e-6),
                      report_path=None)
    assert [type(v) for v in (cfg.trials, cfg.n_max, cfg.master_seed, cfg.jobs)] == [int] * 4
    assert type(cfg.tol) is float and cfg.tol == float(np.float32(1e-6))
    report, _ = run_all(cfg)
    write_report(report, tmp_path / "report.json")
    assert replay(tmp_path / "report.json", "majorization", 1)[2]


def test_write_report_keeps_the_old_file_when_serialising_fails(tmp_path):
    path = tmp_path / "report.json"
    write_report({"config": {"tol": 1e-9}}, path)
    before = path.read_bytes()
    with pytest.raises(TypeError, match="float32"):
        write_report({"config": {"tol": np.float32(1e-6)}}, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_run_suite_structure():
    out = run_suite("majorization", FAST)
    agg = out["aggregate"]
    assert agg["n_trials"] == 3
    assert agg["passed"] and agg["n_failed"] == 0
    assert len(out["records"]) == agg["n_records"]
    # Every report record is one InequalityRecord plus trial and n.
    for rec in out["records"]:
        assert set(rec) == {"trial", "n", "name", "lhs", "rhs", "direction",
                            "slack", "tol", "passed", "instance"}


def test_run_all_report_shape_and_exit_code():
    report, code = run_all(FAST)
    assert code == 0
    assert report["overall"]["passed"]
    assert set(report["suites"]) == set(SUITE_IDS)
    assert report["config"]["master_seed"] == 99
    assert "timing" in report and "jobs" in report["timing"]


def test_reports_match_ignores_timing_only():
    r1, _ = run_all(FAST)
    r2, _ = run_all(FAST)
    assert r1["timing"] != r2["timing"] or r1 == r2
    assert reports_match(r1, r2)
    assert "timing" not in strip_timing(r1)


def test_parallel_run_matches_serial():
    serial, _ = run_all(FAST)
    parallel, _ = run_all(SuiteConfig(suite="all", trials=3, n_min=2, n_max=4,
                                      master_seed=99, report_path=None, jobs=4))
    assert reports_match(serial, parallel)


def test_different_seed_changes_records():
    r1, _ = run_all(SuiteConfig(suite="wielandt", trials=2, master_seed=1,
                                report_path=None))
    r2, _ = run_all(SuiteConfig(suite="wielandt", trials=2, master_seed=2,
                                report_path=None))
    assert not reports_match(r1, r2)


@pytest.mark.parametrize("suite", SUITE_IDS)
def test_replay_reproduces_stored_trial(tmp_path, suite):
    cfg = SuiteConfig(suite=suite, trials=3, master_seed=3, report_path=None)
    report, _ = run_all(cfg)
    path = tmp_path / "report.json"
    write_report(report, path)
    for trial in range(3):
        fresh, stored, match = replay(path, suite, trial)
        assert match
        assert fresh == stored
        assert stored and all(rec["trial"] == trial for rec in stored)


def test_every_draw_is_a_pure_draw(monkeypatch):
    # A draw fixes the instance and certifies nothing: no check, spectrum
    # or certificate runs before the certify step.  Twenty trials reach
    # every planted case, and the instance says which one it is.
    def refuses(*args, **kwargs):
        raise AssertionError("a draw certified")

    for module in (sympspec.core, sympspec.extremal, sympspec.harness,
                   sympspec.inequalities):
        for name in ("check_positive_definite", "williamson", "symplectic_eigenvalues",
                     "maxmin_check", "wielandt_certify", "phi_extremal_check",
                     "det_product_check"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuses)
    cfg = SuiteConfig(n_min=2, n_max=3, report_path=None)
    for suite in SUITE_IDS:
        draw = sympspec.harness._SUITES[suite][0]
        # majorization draws its length from 2..7 whatever the range.
        high = 7 if suite == "majorization" else cfg.n_max
        for t in range(20):
            n, *instance = draw(t, cfg, trial_rng(5, suite, t))
            assert type(n) is int and cfg.n_min <= n <= high, (suite, t)
            if suite == "williamson":
                assert (instance[1] is None) == (t % 3 != 2)
            elif suite == "lidskii-add":
                assert (instance[1] is instance[0]) == (t % 7 == 5)
            elif suite == "lidskii-mult":
                assert instance[3] == (t % 10 == 7)
                assert (instance[1] is instance[0]) == (t % 10 == 7 or t % 5 == 3)


@pytest.mark.parametrize("suite, helper", [("lidskii-add", additive_trial_records),
                                           ("lidskii-mult", multiplicative_trial_records)])
def test_acceptance_helpers_certify_what_verify_writes(suite, helper):
    # Acceptance criteria 04 and 05 call the helpers on (t, n, rng); on a
    # twin generator they give the suite's certify step on its draw, which
    # is what verify writes, planted trials included: the step certifies
    # a list of one trial as it certifies all of a suite's trials at once.
    draw, certify, _ = sympspec.harness._SUITES[suite]
    cfg = SuiteConfig(suite=suite, master_seed=11, tol=1e-7, report_path=None)
    drawn, per_trial = [], []
    for t in range(20):
        rng, twin = trial_rng(11, suite, t), trial_rng(11, suite, t)
        n, *instance = draw(t, cfg, rng)
        assert n == int(twin.integers(cfg.n_min, cfg.n_max + 1))
        per_trial.append(helper(t, n, twin, tol=cfg.tol))
        assert rng.random() == twin.random()
        drawn.append((n, rng, instance))
        assert certify(cfg, [drawn[-1]]) == [per_trial[-1]]
    assert certify(cfg, drawn) == per_trial
    assert sympspec.harness._suite_records(suite, cfg, range(20)) == [
        {"trial": t, "n": n, **vars(rec)}
        for t, ((n, _, _), records) in enumerate(zip(drawn, per_trial)) for rec in records]


@pytest.mark.parametrize("suite", ["lidskii-add", "lidskii-mult"])
def test_a_pairing_defect_in_one_matrix_fails_its_trial_alone(monkeypatch, tmp_path, suite):
    # Trial 4 draws A and B independently in both suites; one singular
    # value of the K of its A is halved inside the stacked SVD pass.
    cfg = SuiteConfig(suite=suite, trials=12, master_seed=3, report_path=None)
    clean = run_suite(suite, cfg)["records"]
    a = sympspec.harness._SUITES[suite][0](4, cfg, trial_rng(3, suite, 4))[1]
    target = sympspec.core._cholesky_skew(sympspec.core.check_positive_definite(a).low)
    svd = sympspec.linalg._SVD
    hit = []

    def unpaired(k, signature):
        s = svd(k, signature=signature)
        for i, x in enumerate(k):
            if x.shape == target.shape and (x == target).all():
                hit.append(len(k))
                s[i, 1] *= 0.5
        return s

    monkeypatch.setattr(sympspec.linalg, "_SVD", unpaired)
    report, code = run_all(cfg)
    # The fault hits the K in its trials' stack and again alone, where
    # it refuses that K's trial only.
    assert code == 1 and hit[0] > 1 and 1 in hit
    records = report["suites"][suite]["records"]
    failed = [rec for rec in records if not rec["passed"]]
    assert failed == [rec for rec in records if rec["trial"] == 4]
    assert [(r["name"], r["n"]) for r in failed] == [("contract-error", None)]
    assert failed[0]["instance"]["error"] == "NumericalContractError"
    assert failed[0]["instance"]["message"].startswith("pairing defect")
    assert [r for r in records if r["trial"] != 4] == [r for r in clean if r["trial"] != 4]

    path = tmp_path / "report.json"
    write_report(report, path)
    fresh, stored, match = replay(path, suite, 4)
    assert match and fresh == stored == failed


def _tilted(delta):
    """A spoiler that makes a trial's A asymmetric by delta in one entry,
    so that its refusal names delta * sqrt(2)."""
    def spoil(n, a, *rest):
        a = a.copy()
        a[0, 1] += delta
        return (a, *rest)
    return spoil


def _singular(n, a, b, *rest):
    """A spoiler that makes a trial's A and B one matrix A0 =
    diag(5e-16, 1, ..., 1, 5e-16, 1, ..., 1): its condition estimate, about
    2e15, passes the check, but d_1 / d_n <= 2n eps refuses its spectrum."""
    a = np.diag(np.tile(np.r_[5e-16, np.ones(n - 1)], 2))
    return (a, a, *rest)


# A spoiler per suite whose refusal comes after the trial's checks pass:
# an index set out of range, or a B of another size than A.
_LATER = {
    "lidskii-add": (lambda n, a, b, idx: (a, b, np.array([n + 1])),
                    "index set must be strictly increasing"),
    "lidskii-mult": (lambda n, a, b, idx, planted: (a, np.eye(2 * n + 2), idx, planted),
                     "A and B differ in size"),
}


# Spoiled trials and the refusal each set must raise; "later" stands for
# the suite's _LATER spoiler, and a None refusal for its message.
_FIRST_REFUSED = {
    "9-tilted": ({9: _tilted(9e-3)}, "asymmetry 1.273e-02"),
    "4-and-9-tilted": ({4: _tilted(4e-3), 9: _tilted(9e-3)}, "asymmetry 5.657e-03"),
    "4-later-9-tilted": ({4: "later", 9: _tilted(9e-3)}, None),
    "4-tilted-9-later": ({4: _tilted(4e-3), 9: "later"}, "asymmetry 5.657e-03"),
    "4-singular-9-tilted": ({4: _singular, 9: _tilted(9e-3)},
                            "skew matrix is singular to working precision"),
}


@pytest.mark.parametrize("row", list(_FIRST_REFUSED))
@pytest.mark.parametrize("suite", ["lidskii-add", "lidskii-mult"])
def test_a_lidskii_suite_raises_the_refusal_of_its_first_refused_trial(monkeypatch, suite, row):
    # Trials 4 and 9 draw A and B independently in both suites.  Every
    # trial's matrices are checked, and their spectra taken, in one pass,
    # yet the error raised is the one a trial-by-trial run meets first:
    # that of the first trial refused, whatever step refuses it.
    draw, certify, trials = sympspec.harness._SUITES[suite]
    later, message = _LATER[suite]
    spoilers, raised = _FIRST_REFUSED[row]
    spoilers = {t: later if s == "later" else s for t, s in spoilers.items()}

    def spoiled(t, cfg, rng):
        n, *instance = draw(t, cfg, rng)
        return (n, *(spoilers[t](n, *instance) if t in spoilers else instance))

    monkeypatch.setitem(sympspec.harness._SUITES, suite, (spoiled, certify, trials))
    cfg = SuiteConfig(suite=suite, trials=12, master_seed=3, report_path=None)
    with pytest.raises(ValidationError, match=raised or message):
        run_suite(suite, cfg)


def test_a_lidskii_add_refusal_before_the_checks_waits_for_earlier_trials(monkeypatch):
    # Trial 9's A and B differ in size, which its plan refuses before it
    # asks for any check; trial 4's index set is refused after its checks.
    # A trial-by-trial run refuses trial 4 first, and so does the batch.
    draw, certify, trials = sympspec.harness._SUITES["lidskii-add"]
    spoilers = {4: _LATER["lidskii-add"][0],
                9: lambda n, a, b, idx: (a, np.eye(2 * n + 2), idx)}

    def spoiled(t, cfg, rng):
        n, *instance = draw(t, cfg, rng)
        return (n, *(spoilers[t](n, *instance) if t in spoilers else instance))

    monkeypatch.setitem(sympspec.harness._SUITES, "lidskii-add", (spoiled, certify, trials))
    cfg = SuiteConfig(suite="lidskii-add", trials=12, master_seed=3, report_path=None)
    with pytest.raises(ValidationError, match="index set must be strictly increasing"):
        run_suite("lidskii-add", cfg)
    with pytest.raises(ValidationError, match="A and B differ in size"):
        sympspec.harness._suite_records("lidskii-add", cfg, range(5, 12))


def test_lidskii_mult_takes_one_eigensolve_per_mean_in_trial_order(monkeypatch):
    # Each trial forms its mean alone: one single-matrix eigensolve of
    # the 2n x 2n congruence C per trial, in trial order.
    eigh = sympspec.linalg._EIGH
    shapes = []

    def counted(s, signature):
        shapes.append(s.shape)
        return eigh(s, signature=signature)

    monkeypatch.setattr(sympspec.linalg, "_EIGH", counted)
    out = run_suite("lidskii-mult", SuiteConfig(suite="lidskii-mult", master_seed=3,
                                                report_path=None))
    sizes = {r["trial"]: r["n"] for r in out["records"]}
    assert len(sizes) == sympspec.harness._SUITES["lidskii-mult"][2]
    assert shapes == [(2 * sizes[t], 2 * sizes[t]) for t in sorted(sizes)]


@pytest.mark.parametrize("suite", ["lidskii-add", "lidskii-mult"])
def test_every_lidskii_trial_replays_as_a_match(tmp_path, suite):
    # Verify certifies the suite's trials in one stacked pass per size, a
    # replay certifies one trial alone; the bits must agree.
    report, _ = run_all(SuiteConfig(suite=suite, master_seed=424242, report_path=None))
    path = tmp_path / "report.json"
    write_report(report, path)
    n_trials = report["suites"][suite]["aggregate"]["n_trials"]
    assert n_trials == sympspec.harness._SUITES[suite][2]
    assert all(replay(path, suite, t)[2] for t in range(n_trials))


def test_condition_warning_is_written_as_a_json_boolean(monkeypatch, tmp_path):
    williamson = sympspec.harness.williamson
    monkeypatch.setattr(sympspec.harness, "williamson",
                        lambda a: dataclasses.replace(williamson(a), kappa=2e12))
    report, _ = run_all(SuiteConfig(suite="williamson", trials=1, report_path=None))
    path = tmp_path / "report.json"
    write_report(report, path)
    assert '"condition_warning": true' in path.read_text()


def test_replay_validates_inputs(tmp_path):
    cfg = SuiteConfig(suite="majorization", trials=2, master_seed=3,
                      report_path=None)
    report, _ = run_all(cfg)
    path = tmp_path / "report.json"
    write_report(report, path)
    with pytest.raises(ValidationError):
        replay(path, "wielandt", 0)
    with pytest.raises(ValidationError):
        replay(path, "majorization", 99)
    with pytest.raises(ValidationError):
        replay(tmp_path / "missing.json", "majorization", 0)
    # 1.5 replayed no stored trial and True trial 1; np.int64 broke json.
    for trial in (1.5, True):
        with pytest.raises(ValidationError, match="trial must be an integer"):
            replay(path, "majorization", trial)
    assert replay(path, "majorization", np.int64(1))[2]


@pytest.mark.parametrize("suite", ["wielandt"])
def test_certificate_record_fails_when_skips_exceed_the_cap(monkeypatch, suite):
    def never_builds(*args, **kwargs):
        raise ConstructionError("forced failure")

    monkeypatch.setattr(sympspec.extremal, "_construct", never_builds)
    out = run_suite(suite, SuiteConfig(suite=suite, trials=2, report_path=None))
    assert out["aggregate"]["n_failed"] == 2
    assert all(rec["instance"]["n_skipped"] == 3 for rec in out["records"])


def test_intersections_receive_orthonormal_columns(monkeypatch):
    # subspace_meet and _sharp_std do not re-orthonormalise their inputs;
    # every caller on the construction path must pass orthonormal columns.
    defects = {"subspace_meet": [], "_sharp_std": []}

    def gram_defect(x):
        # The worst over a stack: the witnesses pass theirs as one.
        x = np.asarray(x, dtype=float)
        d = x.mT @ x - np.eye(x.shape[-1])
        return float(np.sqrt((d * d).sum(axis=(-2, -1))).max())

    def recording(name, func):
        def wrapped(*args):
            defects[name].extend(gram_defect(x) for x in args)
            return func(*args)
        return wrapped

    for name in defects:
        wrapped = recording(name, getattr(sympspec.basis, name))
        for module in (sympspec.basis, sympspec.extremal):
            monkeypatch.setattr(module, name, wrapped)

    for suite in ("construction", "maxmin", "wielandt", "phi-extremal", "det-product"):
        run_suite(suite, SuiteConfig(suite=suite, trials=4, master_seed=5,
                                     report_path=None))
    for name, seen in defects.items():
        assert seen, f"{name} was never called"
        assert max(seen) <= 1e-12, name


def test_retired_records_are_not_emitted():
    retired = {"polar-orthogonality", "conjugation-vs-mean-gap",
               "williamson-transform-symplectic"}
    for suite in ("lidskii-mult", "williamson"):
        out = run_suite(suite, SuiteConfig(suite=suite, trials=4, master_seed=7,
                                           report_path=None))
        names = {rec["name"] for rec in out["records"]}
        assert names and not names & retired
        if suite == "lidskii-mult":
            assert "mean-riccati-residual" in names


def test_williamson_records_carry_the_residuals_in_instance():
    # williamson raises past its residual bounds, so the suite records
    # only what it compares and keeps the residuals with the instance.
    out = run_suite("williamson", SuiteConfig(suite="williamson", trials=6,
                                              master_seed=7, report_path=None))
    names = [rec["name"] for rec in out["records"]]
    assert set(names) == {"method-agreement", "prescribed-recovery"}
    assert names.count("method-agreement") == 6
    for rec in out["records"]:
        assert 0.0 <= rec["instance"]["residual_a"] <= 1e-8
        assert 0.0 <= rec["instance"]["residual_j"] <= 1e-9


def test_construction_records_only_what_the_construction_does_not_check():
    # dual_chain_construct raises on a vector outside its sharp space, so
    # the suite records only the trace identity.
    out = run_suite("construction", SuiteConfig(suite="construction", trials=5,
                                                master_seed=7, report_path=None))
    for t in range(5):
        assert [rec["name"] for rec in out["records"] if rec["trial"] == t] == [
            "construction-trace-equality"]


def test_trial_and_n_stay_out_of_every_instance():
    # _suite_records puts trial and n at the top level of every record.
    # Eight trials reach the planted cases of lidskii-add and lidskii-mult.
    report, _ = run_all(SuiteConfig(trials=8, master_seed=11, report_path=None))
    for suite in SUITE_IDS:
        records = report["suites"][suite]["records"]
        assert records, suite
        for rec in records:
            assert not {"trial", "n"} & set(rec["instance"]), (suite, rec["name"])


def test_failed_construction_becomes_one_failed_record(monkeypatch, tmp_path):
    cfg = SuiteConfig(suite="construction", trials=3, master_seed=3, report_path=None)
    clean = run_suite("construction", cfg)["records"]
    _raise_on_trial_1(monkeypatch, ConstructionError("forced construction failure"),
                      suite="construction", name="dual_chain_construct")

    report, code = run_all(cfg)
    assert code == 1
    records = report["suites"]["construction"]["records"]
    failed = [rec for rec in records if not rec["passed"]]
    assert failed == [rec for rec in records if rec["trial"] == 1]
    assert [(r["name"], r["n"]) for r in failed] == [("contract-error", None)]
    assert failed[0]["instance"] == {"error": "ConstructionError",
                                     "message": "forced construction failure"}
    assert [r for r in records if r["trial"] != 1] == [r for r in clean if r["trial"] != 1]

    path = tmp_path / "report.json"
    write_report(report, path)
    fresh, stored, match = replay(path, "construction", 1)
    assert match and fresh == stored == failed


def test_failed_svd_inside_a_trial_becomes_one_failed_record(monkeypatch):
    # A dgesdd failure, which numpy's gufunc reports by the invalid flag,
    # is a NumericalContractError, so the trial that meets it gives one
    # contract-error record and the suite goes on.  The suite certifies
    # its trials in order, one construction each, so the third
    # construction is trial 2's, and its first reduced SVD fails.
    cfg = SuiteConfig(suite="construction", trials=5, master_seed=7, report_path=None)
    clean = run_suite("construction", cfg)["records"]
    svd, build = sympspec.linalg._SVD_S, sympspec.harness.dual_chain_construct
    constructions, failing = 0, []

    def counted(*args):
        nonlocal constructions
        constructions += 1
        failing.append(constructions == 3)
        return build(*args)

    def fails_in_trial_2(a, signature):
        # On NaN input the gufunc fails as it does when dgesdd does not converge.
        if failing and failing[-1]:
            failing[-1] = False
            a = np.full_like(a, np.nan)
        return svd(a, signature=signature)

    monkeypatch.setattr(sympspec.harness, "dual_chain_construct", counted)
    monkeypatch.setattr(sympspec.linalg, "_SVD_S", fails_in_trial_2)
    out = run_suite("construction", cfg)
    assert constructions == 5 and not any(failing)
    records = out["records"]
    failed = [rec for rec in records if not rec["passed"]]
    assert len(failed) == 1 and out["aggregate"]["n_failed"] == 1
    assert (failed[0]["trial"], failed[0]["name"], failed[0]["n"]) == (2, "contract-error", None)
    assert failed[0]["instance"] == {"error": "NumericalContractError",
                                     "message": "LAPACK factorization failed: "
                                               "the gufunc flagged an invalid value"}
    assert [r for r in records if r["trial"] != 2] == [r for r in clean if r["trial"] != 2]


def test_a_failed_pair_floor_cholesky_becomes_its_trials_one_failed_record(monkeypatch):
    # The compression G^T A G that maxmin's floor factors is no input the
    # caller passed, so its failed Cholesky is a failed contract of its
    # trial, not a refusal that ends the suite.
    cfg = SuiteConfig(suite="maxmin", trials=3, master_seed=7, report_path=None)
    clean = run_suite("maxmin", cfg)["records"]
    cholesky = sympspec.extremal._CHOLESKY
    calls = 0

    def fails_second(a, signature):
        nonlocal calls
        calls += 1
        return np.sqrt(np.full(a.shape, -1.0)) if calls == 2 else cholesky(a, signature=signature)

    monkeypatch.setattr(sympspec.extremal, "_CHOLESKY", fails_second)
    out = run_suite("maxmin", cfg)
    assert calls == 3
    records = out["records"]
    failed = [rec for rec in records if not rec["passed"]]
    assert failed == [rec for rec in records if rec["trial"] == 1]
    assert [(r["name"], r["n"]) for r in failed] == [("contract-error", None)]
    assert failed[0]["instance"] == {"error": "NumericalContractError",
                                     "message": "LAPACK factorization failed: "
                                                "the gufunc flagged an invalid value"}
    assert [r for r in records if r["trial"] != 1] == [r for r in clean if r["trial"] != 1]


def _same_input(x, y):
    """True when two first arguments, a matrix, a checked matrix or a list
    of matrices, are equal."""
    if isinstance(x, sympspec.core.PositiveDefinite):
        x, y = x.a, y.a
    xs, ys = (x, y) if isinstance(x, list) else ([x], [y])
    return len(xs) == len(ys) and all(np.array_equal(u, v) for u, v in zip(xs, ys))


def _raise_on_trial_1(monkeypatch, error, suite="williamson", name="williamson"):
    """Patch the harness's binding name to raise error on the first
    argument it receives in trial 1 of suite at master seed 3, and on no
    other."""
    seen = []
    real = getattr(sympspec.harness, name)

    def recording(first, *rest):
        seen.append(copy.deepcopy(first))
        return real(first, *rest)

    monkeypatch.setattr(sympspec.harness, name, recording)
    run_suite(suite, SuiteConfig(suite=suite, trials=2, master_seed=3, report_path=None))
    target = seen[1]

    def failing(first, *rest):
        if _same_input(first, target):
            raise error
        return real(first, *rest)

    monkeypatch.setattr(sympspec.harness, name, failing)


def test_contract_error_becomes_one_failed_record(monkeypatch, tmp_path):
    cfg = SuiteConfig(suite="williamson", trials=4, master_seed=3, report_path=None)
    clean = run_suite("williamson", cfg)["records"]
    _raise_on_trial_1(monkeypatch, NumericalContractError("forced defect 1e-3"))

    report, code = run_all(cfg)
    assert code == 1
    records = report["suites"]["williamson"]["records"]
    failed = [rec for rec in records if not rec["passed"]]
    assert failed == [rec for rec in records if rec["trial"] == 1]
    assert len(failed) == 1
    err = failed[0]
    assert err["name"] == "contract-error" and err["n"] is None
    assert err["slack"] < 0.0
    assert err["instance"] == {"error": "NumericalContractError",
                               "message": "forced defect 1e-3"}
    assert [r for r in records if r["trial"] != 1] == [r for r in clean if r["trial"] != 1]

    path = tmp_path / "report.json"
    write_report(report, path)
    fresh, stored, match = replay(path, "williamson", 1)
    assert match and fresh == stored == [err]


@pytest.mark.parametrize("error", [ValidationError("forced precondition"),
                                   np.linalg.LinAlgError("forced precondition")])
def test_other_errors_inside_a_trial_still_propagate(monkeypatch, error):
    _raise_on_trial_1(monkeypatch, error)
    with pytest.raises(type(error), match="forced precondition"):
        run_suite("williamson", SuiteConfig(suite="williamson", trials=2, master_seed=3,
                                            report_path=None))


def test_majorization_writes_no_functional_audit_record():
    out = run_suite("majorization", SuiteConfig(suite="majorization", trials=2,
                                                report_path=None))
    assert out["records"]
    assert not [r for r in out["records"] if r["name"].startswith("functional-audit")]


def test_a_phi_extremal_run_and_its_replays_audit_no_functional(monkeypatch, tmp_path):
    # The suite draws only the shipped functionals, whose audit is pinned
    # by tests/test_inequalities.py, and certifies with validate_phi=False.
    audited = []
    audit = sympspec.extremal.schur_concave_monotone_check

    def counted(phi, **kwargs):
        audited.append(phi.name)
        return audit(phi, **kwargs)

    monkeypatch.setattr(sympspec.extremal, "schur_concave_monotone_check", counted)
    report, _ = run_all(SuiteConfig(suite="phi-extremal", trials=4, master_seed=5,
                                    report_path=None))
    path = tmp_path / "report.json"
    write_report(report, path)
    for trial in range(4):
        assert replay(path, "phi-extremal", trial)[2]
    assert audited == []


@pytest.mark.parametrize("suite", ["williamson", "phi-extremal", "det-product"])
def test_a_trial_checks_its_drawn_matrix_once(monkeypatch, suite):
    # williamson's check serves its ja-eigen spectrum, and a certificate's
    # check serves every compression of A it forms.
    drawn, checked = [], []
    draw = sympspec.harness.random_pd
    check = sympspec.core.check_positive_definite

    def recording_draw(*args, **kwargs):
        drawn.append(draw(*args, **kwargs))
        return drawn[-1]

    def recording_check(a):
        checked.append(np.array(a, dtype=float))
        return check(a)

    monkeypatch.setattr(sympspec.harness, "random_pd", recording_draw)
    for module in (sympspec.core, sympspec.extremal, sympspec.harness,
                   sympspec.inequalities):
        if hasattr(module, "check_positive_definite"):
            monkeypatch.setattr(module, "check_positive_definite", recording_check)
    run_suite(suite, SuiteConfig(suite=suite, trials=6, master_seed=424242, report_path=None))
    assert len(drawn) == 6
    for a in drawn:
        assert sum(c.shape == a.shape and (c == a).all() for c in checked) == 1
