"""Geometric mean, majorization predicates, and the eigenvalue bounds."""

import importlib.util
import pathlib
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympspec import inequalities, linalg
from sympspec.core import random_pd, symplectic_eigenvalues
from sympspec.errors import NumericalContractError, ValidationError
from sympspec.functionals import SHIPPED, SpectralFunctional
from sympspec.harness import trial_rng
from sympspec.inequalities import (
    additive_lidskii_trial,
    additive_trial_records,
    geometric_mean,
    majorize,
    make_record,
    multiplicative_trial_records,
    random_dominated_pair,
    random_majorization_pair,
    random_supermajorization_pair,
    schur_concave_monotone_check,
    supermajorize,
)
from sympspec.linalg import fnorm

RNG = np.random.default_rng(404)

_PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "work_counts.py"
_SPEC = importlib.util.spec_from_file_location("work_counts", _PATH)
work_counts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(work_counts)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def test_geometric_mean_of_commuting_multiples():
    mean = geometric_mean(4.0 * np.eye(4), 9.0 * np.eye(4))
    assert fnorm(mean - 6.0 * np.eye(4)) <= 1e-12


def test_geometric_mean_idempotent_and_symmetric():
    a = random_pd(2, RNG)
    b = random_pd(2, RNG)
    assert fnorm(geometric_mean(a, a) - a) <= 1e-10 * fnorm(a)
    m1 = geometric_mean(a, b)
    m2 = geometric_mean(b, a)
    assert fnorm(m1 - m2) <= 1e-9 * fnorm(m1)
    assert fnorm(m1 - m1.T) == 0.0


def test_geometric_mean_congruence_identity():
    # A # B solves X A^{-1} X = B, so the mean of A and A^{-1} is I
    # whenever A is PD.
    a = random_pd(3, RNG)
    mean = geometric_mean(a, np.linalg.inv(a))
    assert fnorm(mean - np.eye(6)) <= 1e-8


@pytest.mark.parametrize("n", [2, 5, 20, 50])
def test_geometric_mean_solves_the_riccati_equation(n):
    # A # B is the positive definite solution of G B^-1 G = A.
    rng = np.random.default_rng(n)
    for _ in range(3):
        a, b = random_pd(n, rng), random_pd(n, rng)
        mean = geometric_mean(a, b)
        assert fnorm(mean @ np.linalg.solve(b, mean) - a) <= 1e-10 * fnorm(a)


def test_geometric_mean_makes_one_symmetric_eigensolve(monkeypatch):
    calls = []
    eigh = linalg._EIGH

    def counted(a, signature):
        calls.append(a.shape)
        return eigh(a, signature=signature)

    rng = np.random.default_rng(4)
    a, b = random_pd(4, rng), random_pd(4, rng)
    monkeypatch.setattr(linalg, "_EIGH", counted)
    geometric_mean(a, b)
    assert calls == [(8, 8)]


def _tril_mean(a, b):
    """The mean as it was formed with numpy's tril, the reference for the
    masks kept per size."""
    low = np.linalg.cholesky(0.5 * (a + a.T))
    c = inequalities._SYGST(0.5 * (b + b.T), low, lower=1)[0]
    c = np.tril(c)
    w, v = linalg.sym_eig(c + np.tril(c, -1).T)
    f = low @ (v * np.sqrt(np.sqrt(w)))
    out = f @ f.T
    return 0.5 * (out + out.T)


@pytest.mark.parametrize("n", [*range(1, 8), 50])
def test_geometric_mean_equals_the_tril_formula_bit_for_bit(n):
    rng = np.random.default_rng(80 + n)
    for _ in range(3):
        a, b = random_pd(n, rng), random_pd(n, rng)
        for x, y in ((a, b), (b, a), (a, a)):
            assert geometric_mean(x, y).tobytes() == _tril_mean(x, y).tobytes()


@pytest.mark.parametrize("t, checks", [(0, 2), (3, 1), (7, 1)],
                         ids=["independent", "b-is-a", "planted"])
def test_multiplicative_trial_factors_each_matrix_once(t, checks):
    # A and B are each checked once, in one Cholesky call, and the mean not
    # at all: d(A) and d(B) come from the factors the mean took, d(A # B)
    # from the factor the mean is formed with, and a B that is A is
    # checked once.
    with work_counts.counting() as counts:
        multiplicative_trial_records(t, 3, np.random.default_rng(t))
    assert counts["checks"] == checks and counts["cholesky"] == 1


def test_geometric_mean_maps_lapack_error_codes(monkeypatch):
    monkeypatch.setattr(inequalities, "_SYGST", lambda b, low, lower: (b, -2))
    with pytest.raises(NumericalContractError, match="LAPACK info -2"):
        geometric_mean(np.eye(4), 2.0 * np.eye(4))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_mean_riccati_record_is_tiny_on_random_pairs(n):
    rng = np.random.default_rng(50 + n)
    for t in (0, 1, 2, 4):  # trials that draw A and B independently
        rec = multiplicative_trial_records(t, n, rng)[0]
        assert rec.name == "mean-riccati-residual"
        assert rec.direction == "le" and rec.rhs == 1e-8
        assert rec.lhs <= 1e-12 and rec.passed


def test_mean_riccati_record_fails_on_a_wrong_mean(monkeypatch):
    mean_factor = inequalities._mean_factor

    def wrong(pd_a, pd_b):
        mean, f = mean_factor(pd_a, pd_b)
        return 1.001 * mean, f

    monkeypatch.setattr(inequalities, "_mean_factor", wrong)
    rec = multiplicative_trial_records(0, 3, np.random.default_rng(12))[0]
    assert rec.name == "mean-riccati-residual"
    assert rec.lhs > 1e-3 and not rec.passed


def test_supermajorize_hand_cases():
    assert supermajorize([2.0, 2.0], [1.0, 3.0])
    assert not supermajorize([1.0, 3.0], [2.0, 2.0])
    assert supermajorize([1.0, 1.0], [1.0, 1.0])
    assert supermajorize([3.0, 2.0], [1.0, 1.0])


def test_majorize_hand_cases():
    assert majorize([2.0, 2.0], [1.0, 3.0])
    assert not majorize([1.0, 3.0], [2.0, 2.0])
    assert not majorize([3.0, 2.0], [1.0, 1.0])
    assert majorize([1.0, 2.0], [2.0, 1.0])


def test_predicates_reject_length_mismatch():
    with pytest.raises(ValueError):
        supermajorize([1.0], [1.0, 2.0])


@pytest.mark.parametrize("predicate", [supermajorize, majorize])
def test_predicates_raise_the_package_validation_error(predicate):
    with pytest.raises(ValidationError, match="length mismatch"):
        predicate([1.0, 2.0, 3.0], [1.0, 2.0])
    # np.sort orders each row and cumsum runs over the flat array, so 2-D
    # input would compare nothing meaningful.
    with pytest.raises(ValidationError, match="1-D"):
        predicate(np.ones((2, 2)), np.ones((2, 2)))


@given(st.integers(min_value=2, max_value=8), SEEDS)
@settings(max_examples=50, deadline=None)
def test_generated_majorization_pairs_satisfy_their_predicate(n, seed):
    # The samplers are exact only up to rounding of the mixing weights,
    # so the predicates get the matching relative grace.
    rng = np.random.default_rng(seed)
    a, b = random_majorization_pair(n, rng)
    assert majorize(a, b, atol=1e-12 * n * float(np.max(np.abs(b))))
    up, down = random_supermajorization_pair(n, rng)
    assert supermajorize(up, down, atol=1e-12 * n * float(np.max(np.abs(down))))
    hi, lo = random_dominated_pair(n, rng)
    assert np.all(np.sort(hi) >= np.sort(lo))


def _loop_majorization_pair(n, rng):
    # Reference: one permutation draw per weight, summed in order.
    b = rng.uniform(0.1, 3.0, size=n)
    weights = rng.dirichlet(np.ones(max(2, n)))
    a = np.zeros(n)
    for w in weights:
        a += w * rng.permutation(b)
    return a, b


def test_majorization_pair_matches_the_permutation_loop():
    # Same values and the same generator state afterwards, so every later
    # draw of a trial is unchanged.
    for seed in range(60):
        for n in range(1, 11):
            fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            a, b = random_majorization_pair(n, fast)
            a_ref, b_ref = _loop_majorization_pair(n, ref)
            assert np.array_equal(a, a_ref) and np.array_equal(b, b_ref)
            assert fast.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("seed", work_counts.MASTER_SEEDS)
@pytest.mark.parametrize("phi", SHIPPED, ids=lambda phi: phi.name)
def test_schur_concave_audit_accepts_shipped_set(phi, seed):
    # The audit the phi-extremal suite would run at each master seed;
    # it certifies the shipped functionals with validate_phi=False.
    rng = trial_rng(seed, "phi-extremal audit " + phi.name, 0)
    result = schur_concave_monotone_check(phi, trials=120, rng=rng)
    assert result.ok, result.counterexamples[:2]


def test_schur_concave_audit_rejects_schur_convex():
    bad = SpectralFunctional("max", lambda x: np.max(x, axis=-1))
    result = schur_concave_monotone_check(bad, trials=150, rng=np.random.default_rng(7))
    assert not result.ok
    assert any(c["kind"] == "schur-concavity" for c in result.counterexamples)


# 2.5 used to reach numpy's integers() and True to run one trial.
@pytest.mark.parametrize("trials, reason", [(0, "at least 1"), (-5, "at least 1"),
                                            (2.5, "an integer"), (True, "an integer")],
                         ids=["0", "-5", "2.5", "True"])
def test_schur_concave_audit_refuses_no_draws(trials, reason):
    phi = SpectralFunctional("max", lambda x: np.max(x, axis=-1))
    with pytest.raises(ValidationError, match=f"trials must be {reason}"):
        schur_concave_monotone_check(phi, trials=trials, rng=np.random.default_rng(7))


def test_schur_concave_audit_refuses_a_whole_array_reducer():
    # np.max without an axis gives one value for the whole batch.
    with pytest.raises(ValidationError, match="'max'.*last axis"):
        schur_concave_monotone_check(SpectralFunctional("max", np.max), trials=10)


def test_schur_concave_audit_calls_the_functional_once_per_size():
    # Four properties at five sizes bound the calls; a per-vector loop
    # would make 8 per draw.
    calls = []

    def counted(x):
        calls.append(x.shape)
        return np.sum(x, axis=-1)

    phi = SpectralFunctional("sum", counted)
    result = schur_concave_monotone_check(phi, trials=150, rng=np.random.default_rng(7))
    assert result.ok
    assert 1 <= len(calls) <= 4 * 5


@pytest.mark.parametrize("sampler", [
    random_majorization_pair, random_supermajorization_pair, random_dominated_pair,
])
def test_batched_pairs_hold_row_by_row(sampler):
    rng = np.random.default_rng(11)
    for n in range(1, 8):
        a, b = sampler((40, n), rng)
        assert a.shape == b.shape == (40, n)
        for x, y in zip(a, b):
            assert supermajorize(x, y, atol=1e-12 * n * float(np.max(y)))


def test_make_record_orientations():
    assert make_record("x", 2.0, 1.0, "ge", 1e-9).passed
    assert not make_record("x", 1.0, 2.0, "ge", 1e-9).passed
    assert make_record("x", 1.0, 2.0, "le", 1e-9).passed
    assert make_record("x", 1.0, 1.0 + 1e-12, "eq", 1e-9).passed
    assert not make_record("x", 1.0, 1.1, "eq", 1e-9).passed


def test_additive_bound_equality_when_b_is_zero_like():
    # With B = epsilon * I the bound approaches equality on any index set.
    a = random_pd(2, np.random.default_rng(11))
    b = 1e-8 * np.eye(4)
    records = additive_lidskii_trial(a, b, np.array([1, 2]))
    for rec in records:
        assert rec.passed
        assert rec.slack <= 1e-6


def test_additive_identity_matrices_hand_value():
    # d(I) = (1, 1), so d(2 I) = (2, 2) and the bound is met with equality.
    records = additive_lidskii_trial(np.eye(4), np.eye(4), np.array([1, 2]))
    lower = [r for r in records if r.name == "additive-lower"][0]
    assert lower.lhs == pytest.approx(4.0, abs=1e-12)
    assert lower.rhs == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("index_set", [[0], [2, 2], [3, 1], [4]])
def test_additive_trial_rejects_bad_index_sets(index_set):
    a = random_pd(3, np.random.default_rng(12))
    with pytest.raises(ValidationError):
        additive_lidskii_trial(a, np.eye(6), index_set)


@pytest.mark.parametrize("tol", ["1e-9", 1e-9 + 0j, True, np.nan, 0.0, -1e-9, np.inf],
                         ids=["string", "complex", "bool", "nan", "zero", "negative", "inf"])
def test_additive_trial_refuses_a_tolerance_that_is_no_positive_finite_real(tol):
    # A string or complex tol used to raise a raw TypeError, and True ran as 1.0.
    a = random_pd(2, np.random.default_rng(12))
    with pytest.raises(ValidationError, match="^tol must be positive and finite"):
        additive_lidskii_trial(a, a, [1], tol=tol)


@pytest.mark.parametrize("tol", ["x", 1e-9 + 0j, True, np.nan, 0.0, -1e-9, np.inf],
                         ids=["string", "complex", "bool", "nan", "zero", "negative", "inf"])
def test_multiplicative_trial_records_refuse_what_additive_refuses(tol):
    # "x" raised a raw TypeError, and nan and True ran and gave records.
    rng = np.random.default_rng(12)
    with pytest.raises(ValidationError, match="^tol must be positive and finite"):
        multiplicative_trial_records(0, 2, rng, tol=tol)
    with pytest.raises(ValidationError, match="^tol must be positive and finite"):
        additive_trial_records(0, 2, rng, tol=tol)


@pytest.mark.parametrize("predicate", [supermajorize, majorize])
@pytest.mark.parametrize("atol", ["x", 1j, True, np.nan, -1.0, np.inf],
                         ids=["string", "complex", "bool", "nan", "negative", "inf"])
def test_majorization_refuses_an_atol_that_is_no_non_negative_finite_real(predicate, atol):
    # 1j and True returned True, nan and -1.0 False, and "x" raised
    # numpy's UFuncTypeError.
    with pytest.raises(ValidationError, match="^atol must be non-negative and finite"):
        predicate([1.0, 2.0], [1.0, 2.0], atol=atol)


@pytest.mark.parametrize("predicate", [supermajorize, majorize])
def test_majorization_takes_a_zero_or_numpy_atol(predicate):
    assert predicate([1.0, 2.0], [1.0, 2.0], atol=0.0)
    assert predicate([1.0, 2.0], [1.0, 2.0], atol=np.float64(1e-12))
    assert predicate([1.0, 2.0], [1.0, 2.0], atol=0)


def test_mean_and_additive_trial_refuse_matrices_of_different_sizes():
    # Without the check these fail inside dsygst and numpy's broadcast,
    # outside the package's error types.
    a = random_pd(2, np.random.default_rng(12))
    b = random_pd(3, np.random.default_rng(13))
    with pytest.raises(ValidationError, match="differ in size"):
        geometric_mean(a, b)
    with pytest.raises(ValidationError, match="differ in size"):
        additive_lidskii_trial(a, b, [1])


@pytest.mark.parametrize("shape", [(4,), (4, 3), (2, 4, 4)])
@pytest.mark.parametrize("which", ["a", "b"])
def test_additive_trial_names_the_shape_of_a_matrix_that_is_not_square(shape, which):
    # A and B used to reach the checks stacked, so the refusal named the
    # shape of the batch: "(2, 4)" for an A of shape (4,).
    matrices = {"a": np.eye(4), "b": np.eye(4), which: np.ones(shape)}
    with pytest.raises(ValidationError, match=re.escape(f"must be square, got shape {shape}")):
        additive_lidskii_trial(matrices["a"], matrices["b"], [1])


def test_additive_trial_records_pass_and_include_full_prefix():
    for t in range(30):
        records = additive_trial_records(t, int(RNG.integers(2, 7)), RNG)
        names = [r.name for r in records]
        assert "additive-full-prefix" in names
        assert all(r.passed for r in records)


def test_multiplicative_trial_records_pass_with_planted_equalities():
    saw_identity = False
    for t in range(30):
        records = multiplicative_trial_records(t, int(RNG.integers(2, 6)), RNG)
        assert all(r.passed for r in records)
        saw_identity |= any(r.name == "mean-self-identity" for r in records)
    assert saw_identity


def test_multiplicative_sandwich_on_prescribed_instance():
    # Constant spectra turn the sandwich into a pair of equalities.
    a = random_pd(3, RNG, spectrum=np.full(3, 1.7))
    records = multiplicative_trial_records(7, 3, RNG)  # planted A = B branch
    mean = geometric_mean(a, a)
    d_mean = symplectic_eigenvalues(mean)
    assert np.allclose(d_mean, 1.7, atol=1e-9)
    assert all(r.passed for r in records)


# Pair 19,407 of random_pd(2, default_rng(3)) drawn as (A, B) per step,
# stored with 17 significant digits so no generator stream is needed.
MLID_A = np.array([
    [4.2519815610298783, -0.12522573761188918, -0.71160949481083113, -3.3407999183361472],
    [-0.12522573761188918, 1.2750088423619645, -2.9058490014502976, -2.7712526249150735],
    [-0.71160949481083113, -2.9058490014502976, 6.9947355636029576, 7.2979553427722132],
    [-3.3407999183361472, -2.7712526249150735, 7.2979553427722132, 9.2890059343195936],
])
MLID_B = np.array([
    [2.1614050717829625, -2.5037407000498768, 1.092989602057278, 0.80406014362788658],
    [-2.5037407000498768, 6.6071753693789788, 2.3951566714944676, 0.90095170925361578],
    [1.092989602057278, 2.3951566714944676, 4.8116330586816485, 2.3978512438916937],
    [0.80406014362788658, 0.90095170925361578, 2.3978512438916937, 1.5645067931299321],
])


def _mp_log_spectrum(m):
    """log d of a 4 x 4 positive definite mpmath matrix, ascending, from
    the eigenvalues +-i d of J M."""
    j = mpmath.matrix([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    vals = mpmath.eig(j * m, left=False, right=False)
    return [mpmath.log(mpmath.im(v)) for v in sorted(vals, key=mpmath.im)[2:]]


def test_mlid_lower_on_a_non_prefix_index_set_fails_at_n_2():
    # I = {2}: 2 log d_2(A # B) >= log d_2(A) + log d_1(B) is false here,
    # by far more than rounding, so this form of the lower bound must not
    # be certified.  The prefix {1} lower bound and the tail {2} upper
    # bound hold on the same pair with room to spare.
    la = np.log(symplectic_eigenvalues(MLID_A))
    lb = np.log(symplectic_eigenvalues(MLID_B))
    lm = np.log(symplectic_eigenvalues(geometric_mean(MLID_A, MLID_B)))
    assert 2.0 * lm[1] - la[1] - lb[0] < -0.46
    assert 2.0 * lm[0] - la[0] - lb[0] == pytest.approx(0.98969, abs=1e-5)
    assert la[1] + lb[1] - 2.0 * lm[1] == pytest.approx(0.98969, abs=1e-5)

    with mpmath.workdps(50):
        a = mpmath.matrix(MLID_A.tolist())
        b = mpmath.matrix(MLID_B.tolist())
        root = mpmath.sqrtm(a)
        inv_root = mpmath.inverse(root)
        mean = root * mpmath.sqrtm(inv_root * b * inv_root) * root
        la, lb, lm = (_mp_log_spectrum(m) for m in (a, b, 0.5 * (mean + mean.T)))
        slack = 2 * lm[1] - la[1] - lb[0]
        assert abs(slack - mpmath.mpf("-0.467747823154204")) < 1e-14
        assert abs(2 * lm[0] - la[0] - lb[0] - mpmath.mpf("0.98969")) < 1e-5
        assert abs(la[1] + lb[1] - 2 * lm[1] - mpmath.mpf("0.98969")) < 1e-5


def _symmetrized_mean(a, b):
    """The mean as it was formed before its two exact symmetrizations were
    dropped: sym_eig's of C and the last one of F F^T."""
    low = np.linalg.cholesky(0.5 * (a + a.T))
    c = np.tril(inequalities._SYGST(0.5 * (b + b.T), low, lower=1)[0])
    s = c + np.tril(c, -1).T
    w, v = linalg._eigh(0.5 * (s + s.T))
    f = low @ (v * np.sqrt(np.sqrt(w)))
    out = f @ f.T
    return 0.5 * (out + out.T)


@pytest.mark.parametrize("n", [*range(1, 8), 50, 100, 200])
def test_geometric_mean_equals_the_symmetrized_formula_bit_for_bit(n):
    rng = np.random.default_rng(90 + n)
    a, b = random_pd(n, rng), random_pd(n, rng)
    for x, y in ((a, b), (b, a), (a, a)):
        mean = geometric_mean(x, y)
        assert mean.tobytes() == _symmetrized_mean(x, y).tobytes()
        assert (mean == mean.T).all()
