"""Form, Williamson decomposition, eigenvalue methods, compression."""

import re
import warnings
from functools import partial

import mpmath
import numpy as np
import pytest
import scipy.linalg

from sympspec import core, errors, inequalities, linalg
from sympspec.basis import (
    SymplecticBasis,
    dual_chain_construct,
    prime_coords,
    same_span_trace_check,
)
from sympspec.core import (
    _cholesky_skew,
    apply_form,
    as_generator,
    compress,
    condition_number,
    random_pd,
    random_symplectic,
    symplectic_eigenvalues,
    symplectic_form,
    symplectic_gram,
    symplectic_inner,
    tuple_form_defect,
    williamson,
)
from sympspec.errors import NumericalContractError, ValidationError
from sympspec.extremal import (
    _pair_floor,
    det_product_check,
    maxmin_check,
    phi_extremal_check,
    poincare_witness,
    tuple_value,
    wielandt_certify,
)
from sympspec.functionals import SHIPPED, elementary_symmetric, phi_sum
from sympspec.inequalities import additive_lidskii_trial, geometric_mean, majorize, supermajorize
from sympspec.linalg import _skew_canonical, fnorm
from sympspec.matio import matrix_to_obj

RNG = np.random.default_rng(202)

METHODS = ("skew-canonical", "ja-eigen", "williamson")

# Planted symplectic spectra that the Wishart draws of the harness never
# produce: a cluster 1e-9 wide, a wide log spread, and one tiny value.
PLANTED = {
    "cluster": lambda n, rng: rng.uniform(0.5, 2.0) + 1e-9 * np.arange(n),
    "log-spread-3": lambda n, rng: np.logspace(-3.0, 3.0, n),
    "log-spread-4": lambda n, rng: np.logspace(-4.0, 4.0, n),
    "near-singular": lambda n, rng: np.concatenate(
        [[1e-7], np.sort(rng.uniform(0.5, 2.0, n - 1))]
    ),
}


def _planted_cases(family, count=40):
    """(A, d0) pairs with n = 2..7 and symplectic spectrum d0."""
    rng = np.random.default_rng(2024)
    for i in range(count):
        n = 2 + i % 6
        d0 = np.sort(PLANTED[family](n, rng))
        yield random_pd(n, rng, spectrum=d0), d0


def test_form_matrix_structure():
    j = symplectic_form(2)
    assert fnorm(j + j.T) == 0.0
    assert fnorm(j @ j + np.eye(4)) == 0.0
    assert np.allclose(j[:2, 2:], np.eye(2))
    # Every call returns a fresh array that the caller may write.
    assert j.flags.writeable and symplectic_form(2) is not j
    j[0, 0] = 5.0
    assert symplectic_form(2)[0, 0] == 0.0


def _form_defect_inputs():
    rng = np.random.default_rng(61)
    for n in range(1, 8):
        yield random_symplectic(n, rng)
        yield williamson(random_pd(n, rng)).m
        yield SymplecticBasis.standard(n).cols
        for k in range(0, n + 2):  # 2n x 2k stacks, k = 0 and k > n included
            yield rng.normal(size=(2 * n, 2 * k))
    yield np.zeros((6, 4))  # every Gram entry a signed zero
    yield -np.eye(4)
    nan = np.eye(6)
    nan[2, 3] = np.nan
    yield nan


def test_form_defect_equals_the_dense_difference_bit_for_bit():
    for x in _form_defect_inputs():
        # core._gram is symplectic_gram without its input checks, which
        # refuse the NaN input.
        dense = fnorm(core._gram(x, x) - symplectic_form(x.shape[1] // 2))
        fast = core._form_defect(x)
        assert fast == dense or (np.isnan(fast) and np.isnan(dense))


@pytest.mark.parametrize("method", core.METHODS)
@pytest.mark.parametrize("n", [*range(1, 8), 50])
def test_a_checked_matrix_gives_the_spectrum_of_the_array_bit_for_bit(n, method):
    rng = np.random.default_rng(70 + n)
    for _ in range(3):
        a = random_pd(n, rng)
        d = symplectic_eigenvalues(core.check_positive_definite(a), method=method)
        assert d.tobytes() == symplectic_eigenvalues(a, method=method).tobytes()


def test_entry_points_factor_no_checked_matrix_again(monkeypatch):
    # Each takes the value check_positive_definite returns as it stands;
    # compress factors only the compression whose spectrum it takes.
    pd = core.check_positive_definite(random_pd(3, np.random.default_rng(9)))
    basis = core.williamson(pd).m
    calls = []
    cholesky = core._CHOLESKY

    def counted(a, **kwargs):
        calls.append(a.shape)
        return cholesky(a, **kwargs)

    monkeypatch.setattr(core, "_CHOLESKY", counted)
    core.williamson(pd)
    for method in core.METHODS:
        symplectic_eigenvalues(pd, method=method)
    geometric_mean(pd, pd)
    assert calls == []
    core.compress(pd, basis[:, :1], basis[:, 3:4])
    assert calls == [(2, 2)]


def test_apply_form_matches_matrix():
    x = RNG.normal(size=(6, 3))
    assert fnorm(apply_form(x) - symplectic_form(3) @ x) == 0.0


def test_symplectic_inner_antisymmetry():
    x, y = RNG.normal(size=6), RNG.normal(size=6)
    assert symplectic_inner(x, y) == pytest.approx(-symplectic_inner(y, x))
    assert symplectic_inner(x, x) == pytest.approx(0.0, abs=1e-12)


def test_symplectic_gram_matches_definition():
    x = RNG.normal(size=(8, 3))
    y = RNG.normal(size=(8, 2))
    assert fnorm(symplectic_gram(x, y) - x.T @ apply_form(y)) < 1e-12


def test_williamson_diagonal_oracle():
    # For diag(a1, a2, b1, b2) the symplectic spectrum is (sqrt(a1 b1),
    # sqrt(a2 b2)) sorted ascending; here sqrt(3) and sqrt(8).
    dec = williamson(np.diag([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(dec.d, [np.sqrt(3.0), np.sqrt(8.0)], atol=1e-12)


def test_williamson_two_by_two_is_root_det():
    a = np.array([[2.0, 0.3], [0.3, 1.0]])
    dec = williamson(a)
    assert dec.d[0] == pytest.approx(np.sqrt(np.linalg.det(a)), abs=1e-12)


def test_williamson_residual_contracts():
    for _ in range(10):
        n = int(RNG.integers(1, 9))
        a = random_pd(n, RNG)
        dec = williamson(a)
        j = symplectic_form(n)
        assert fnorm(dec.m.T @ a @ dec.m - dec.normal_form()) <= 1e-8 * fnorm(a)
        assert fnorm(dec.m.T @ j @ dec.m - j) <= 1e-9
        assert dec.residual_j == pytest.approx(fnorm(dec.m.T @ j @ dec.m - j), abs=1e-14)
        assert np.all(np.diff(dec.d) >= 0)


def test_williamson_rejects_non_pd():
    with pytest.raises(ValidationError):
        williamson(np.diag([1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(ValidationError):
        williamson(np.eye(3))


@pytest.mark.parametrize("family", ["cluster", "log-spread-4", "near-singular"])
def test_skew_canonical_recovers_planted_spectrum(family):
    for a, d0 in _planted_cases(family):
        d = symplectic_eigenvalues(a, method="skew-canonical")
        assert np.all(np.abs(d - d0) <= 1e-6 * d0)


@pytest.mark.parametrize("family", list(PLANTED))
def test_williamson_recovers_planted_spectrum(family):
    for a, d0 in _planted_cases(family):
        dec = williamson(a)
        assert np.all(np.abs(dec.d - d0) <= 1e-6 * d0)
        assert dec.residual_a <= errors._TOL["diagonalization residual"]
        assert dec.residual_j <= errors._TOL["basis form defect"]


@pytest.mark.parametrize("family", list(PLANTED) + ["wide-congruence"])
def test_geometric_mean_matches_the_exact_mean_of_planted_pairs(family):
    # A = S^T diag(d, d) S and B = S^T diag(e, e) S share S, and the mean
    # commutes with congruence, so A # B = S^T diag(sqrt(d e), sqrt(d e)) S.
    # "wide-congruence" puts a generic spectrum behind an S of norm up to e^6.
    def congruence(s, d):
        a = s.T @ np.diag(np.concatenate([d, d])) @ s
        return 0.5 * (a + a.T)

    rng = np.random.default_rng(2024)
    wide = family == "wide-congruence"
    for i in range(24):
        n = 2 + i % 6
        s = random_symplectic(n, rng, spread=6.0 if wide else 2.0)
        d = np.sort(rng.uniform(0.5, 2.0, n)) if wide else PLANTED[family](n, rng)
        e = rng.uniform(0.5, 2.0, n)
        exact = congruence(s, np.sqrt(d * e))
        mean = geometric_mean(congruence(s, d), congruence(s, e))
        assert fnorm(mean - exact) <= 1e-6 * fnorm(exact)


@pytest.mark.parametrize("family", list(PLANTED) + ["wide-congruence"])
def test_the_mean_spectrum_from_its_factor_matches_the_checked_route(family):
    # F with A # B = F F.T gives d(A # B) without a check or a Cholesky
    # factorization of the mean: K = F.T J F is orthogonally similar to
    # the K of the mean's own Cholesky factor.  Forming either K errs by a
    # few eps ||A # B||_2 in each value, so the bound is relative to that
    # norm: on these pairs the worst gap is 1.6e-15 of it, while a small
    # d_1 moves by up to 2e-11 of itself (log-spread-4) and, behind a wide
    # congruence, the gap reaches 9e-13 of d_n.
    def congruence(s, d):
        a = s.T @ np.diag(np.concatenate([d, d])) @ s
        return 0.5 * (a + a.T)

    rng = np.random.default_rng(2024)
    wide = family == "wide-congruence"
    for i in range(24):
        n = 2 + i % 6
        s = random_symplectic(n, rng, spread=6.0 if wide else 2.0)
        d = np.sort(rng.uniform(0.5, 2.0, n)) if wide else PLANTED[family](n, rng)
        a, b = congruence(s, d), congruence(s, rng.uniform(0.5, 2.0, n))
        mean, f = inequalities._mean_factor(*map(core.check_positive_definite, (a, b)))
        assert mean.tobytes() == geometric_mean(a, b).tobytes()
        checked = symplectic_eigenvalues(mean)
        from_factor = errors._value(core._factor_spectra(f[None])[0])
        assert np.max(np.abs(from_factor - checked)) <= 1e-13 * np.linalg.norm(mean, 2)


def _spectrum_at_50_digits(a):
    """Positive imaginary parts of the eigenvalues of J A, at 50 digits."""
    with mpmath.workdps(50):
        vals = mpmath.eig(mpmath.matrix(apply_form(a).tolist()), left=False, right=False)
        return np.sort([float(v.imag) for v in vals if v.imag > 0])


def _tiny(d1):
    return lambda n, rng: np.concatenate([[d1], np.sort(rng.uniform(0.5, 2.0, n - 1))])


# d_1 of 1e-10 and 1e-12 is well posed (condition estimates 8e10 to 2e15 on
# these draws), so only the condition estimate may refuse it.  williamson is
# left out there: its absolute form-defect bound refuses one of the draws.
REFERENCE_FAMILIES = {
    "wishart": (None, ("skew-canonical", "williamson")),
    **{f: (PLANTED[f], ("skew-canonical", "williamson"))
       for f in ("cluster", "log-spread-4", "near-singular")},
    **{f"tiny-{d1:.0e}": (_tiny(d1), ("skew-canonical", "ja-eigen")) for d1 in (1e-10, 1e-12)},
}


@pytest.mark.parametrize("family", list(REFERENCE_FAMILIES))
def test_spectrum_matches_a_50_digit_reference(family):
    planted, methods = REFERENCE_FAMILIES[family]
    rng = np.random.default_rng(77)
    for i in range(10):
        n = 2 + i % 3
        spectrum = None if planted is None else planted(n, rng)
        a = random_pd(n, rng, spectrum=spectrum)
        ref = _spectrum_at_50_digits(a)
        bound = 100 * n * np.finfo(float).eps * np.linalg.norm(a, 2)
        for method in methods:
            d = symplectic_eigenvalues(a, method=method)
            assert np.max(np.abs(d - ref)) <= bound


# Every family at every n the verify suites and the planted spectra
# benchmark draw, and n = 9, each n's draws in one stack.
SVD_ROUTE_FAMILIES = {"wishart": None, "log-spread-3": PLANTED["log-spread-3"],
                      "log-spread-4": PLANTED["log-spread-4"],
                      "near-singular": PLANTED["near-singular"]}


@pytest.mark.parametrize("n", [*range(2, 8), 9])
def test_the_stacked_svd_route_matches_a_50_digit_reference(n):
    rng = np.random.default_rng(300 + n)
    draws = [random_pd(n, rng, spectrum=None if planted is None else planted(n, rng))
             for planted in SVD_ROUTE_FAMILIES.values()]
    factors = [core.check_positive_definite(a).low for a in draws]
    for a, d in zip(draws, core._factor_spectra(np.stack(factors))):
        ref = _spectrum_at_50_digits(a)
        bound = 100 * n * np.finfo(float).eps * np.linalg.norm(a, 2)
        assert np.max(np.abs(d - ref)) <= bound


def test_cholesky_failure_is_a_validation_error(monkeypatch):
    def no_factor(a, signature):
        # numpy's Cholesky gufunc reports a failure as NaN entries with
        # the floating-point invalid flag raised.
        return np.sqrt(np.full(a.shape, -1.0))

    monkeypatch.setattr(core, "_CHOLESKY", no_factor)
    a = random_pd(2, RNG)
    with pytest.raises(ValidationError, match="not positive definite"):
        williamson(a)
    with pytest.raises(ValidationError, match="not positive definite"):
        symplectic_eigenvalues(a, method="skew-canonical")


@pytest.mark.parametrize("n", [2, 5, 20])
def test_williamson_basis_equals_the_scipy_triangular_solve(n):
    # The direct dtrtrs call must pass L.T as an upper triangle, untransposed.
    a = random_pd(n, np.random.default_rng(n))
    low = np.linalg.cholesky(a)
    q, d = _skew_canonical(_cholesky_skew(low))
    rhs = q * np.tile(np.sqrt(d), 2)
    expected = scipy.linalg.solve_triangular(low.T, rhs, lower=False)
    assert np.array_equal(williamson(a).m, expected)


def test_williamson_maps_triangular_solve_error_codes(monkeypatch):
    monkeypatch.setattr(core, "_TRTRS", lambda a, b, lower: (b, 3))
    with pytest.raises(NumericalContractError, match="LAPACK info 3"):
        williamson(np.eye(4))


def test_eigenvalue_scaling():
    a = random_pd(3, RNG)
    d = symplectic_eigenvalues(a)
    assert np.allclose(symplectic_eigenvalues(2.5 * a), 2.5 * d, rtol=1e-10)


def test_eigenvalue_symplectic_invariance():
    a = random_pd(3, RNG)
    s = random_symplectic(3, RNG)
    d = symplectic_eigenvalues(a)
    assert np.allclose(symplectic_eigenvalues(s.T @ a @ s), d, rtol=1e-8)


def test_methods_agree():
    for _ in range(10):
        n = int(RNG.integers(1, 7))
        a = random_pd(n, RNG)
        stack = np.vstack([symplectic_eigenvalues(a, method=m) for m in METHODS])
        assert np.max(stack.max(axis=0) - stack.min(axis=0)) <= 1e-9 * stack.max()


def test_spectrum_never_forms_the_canonical_basis(monkeypatch):
    # The default method and compress read d off the singular values of
    # K; a fall-back to the vector route would hit this stub.
    def no_basis(k):
        raise AssertionError("canonical basis formed")

    a = random_pd(4, np.random.default_rng(9))
    expected = williamson(a).d
    monkeypatch.setattr(core, "_skew_canonical", no_basis)
    monkeypatch.setattr(linalg, "_skew_canonical", no_basis)
    d = symplectic_eigenvalues(a)
    assert np.max(np.abs(d - expected)) <= 1e-14 * expected[-1]
    e = np.eye(8)
    assert np.array_equal(compress(a, e[:, :4], e[:, 4:])[1], d)


def test_unknown_method_rejected():
    with pytest.raises(ValidationError):
        symplectic_eigenvalues(np.eye(2), method="qr")


def test_congruence_can_change_spectrum():
    # A^T A and A A^T are congruent with equal determinant, yet their
    # symplectic spectra differ; general congruence is not invariant.
    a = np.zeros((4, 4))
    a[0, 0], a[1, 1] = 1.0, 2.0
    a[2, 3], a[3, 2] = 1.0, 2.0
    d_left = symplectic_eigenvalues(a.T @ a)
    d_right = symplectic_eigenvalues(a @ a.T)
    assert np.allclose(d_left, [2.0, 2.0], atol=1e-10)
    assert np.allclose(d_right, [1.0, 4.0], atol=1e-10)
    assert np.linalg.det(a.T @ a) == pytest.approx(np.linalg.det(a @ a.T))


def test_eigenpair_relations_from_decomposition():
    a = random_pd(3, RNG)
    dec = williamson(a)
    u = dec.m[:, :3]
    v = dec.m[:, 3:]
    for k in range(3):
        # A u = d J v and A v = -d J u for each Williamson pair.
        assert np.linalg.norm(a @ u[:, k] - dec.d[k] * apply_form(v[:, k])) <= 1e-8
        assert np.linalg.norm(a @ v[:, k] + dec.d[k] * apply_form(u[:, k])) <= 1e-8
        assert symplectic_inner(u[:, k], v[:, k]) == pytest.approx(1.0, abs=1e-9)


def test_tuple_form_defect_standard_basis():
    e = np.eye(6)
    assert tuple_form_defect(e[:, :3], e[:, 3:]) <= 1e-15
    assert tuple_form_defect(e[:, :3], 2.0 * e[:, 3:]) > 0.5


def test_compress_diagonal_oracle():
    # Selecting the (e1, e3) plane from diag(1,2,3,4) compresses to
    # diag(1,3) with symplectic eigenvalue sqrt(3).
    a = np.diag([1.0, 2.0, 3.0, 4.0])
    e = np.eye(4)
    a_m, d_m = compress(a, e[:, :1], e[:, 2:3])
    assert np.allclose(a_m, np.diag([1.0, 3.0]), atol=1e-14)
    assert d_m[0] == pytest.approx(np.sqrt(3.0), abs=1e-12)


def test_compress_full_tuple_recovers_spectrum():
    a = random_pd(3, RNG)
    dec = williamson(a)
    _, d_m = compress(a, dec.m[:, :3], dec.m[:, 3:])
    assert np.allclose(d_m, dec.d, rtol=1e-9)


def test_compress_rejects_broken_tuple():
    a = np.diag([1.0, 2.0, 3.0, 4.0])
    e = np.eye(4)
    with pytest.raises(ValidationError):
        compress(a, e[:, :1], 3.0 * e[:, 2:3])


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_compress_refuses_non_finite_tuple_columns(value):
    x = np.eye(4)[:, :1].copy()
    x[1, 0] = value
    with pytest.raises(ValidationError, match="tuple columns must be finite"):
        compress(np.diag([1.0, 2.0, 3.0, 4.0]), x, np.eye(4)[:, 2:3])


def test_random_symplectic_satisfies_form_identity():
    for n in (1, 3, 6):
        m = random_symplectic(n, RNG)
        j = symplectic_form(n)
        assert fnorm(m.T @ j @ m - j) <= 1e-9
        assert np.linalg.det(m) == pytest.approx(1.0, rel=1e-8)


def test_random_pd_prescribed_spectrum():
    target = np.array([0.5, 1.25, 2.0])
    a = random_pd(3, RNG, spectrum=target)
    assert np.allclose(symplectic_eigenvalues(a), target, atol=1e-10)


def test_random_pd_rejects_bad_spectrum():
    with pytest.raises(ValidationError):
        random_pd(2, RNG, spectrum=np.array([1.0, -2.0]))
    # NaN compares false with everything, so a test of d <= 0 lets it in.
    for spectrum in ([np.nan], [1.0, np.inf], [np.nan, 1.0]):
        with pytest.raises(ValidationError, match="positive finite"):
            random_pd(len(spectrum), RNG, spectrum=spectrum)


@pytest.mark.parametrize("draw", [random_symplectic, random_pd])
@pytest.mark.parametrize("n", [0, -1, 2.5, 2.0, True, "2"])
def test_random_draws_refuse_an_n_that_is_not_a_positive_integer(draw, n):
    # Size 0 used to return a 0 x 0 matrix (random_pd after a RuntimeWarning
    # from 0/0), and 2.5 numpy's TypeError; the check runs before any draw.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="n must be (an integer|at least 1)"):
            draw(n, 1)


@pytest.mark.parametrize("spread", [-1.0, np.nan, np.inf])
def test_random_symplectic_refuses_a_negative_or_non_finite_spread(spread):
    # A negative spread flipped the sign of H and a NaN one skipped the scaling.
    with pytest.raises(ValidationError, match="spread must be finite and non-negative"):
        random_symplectic(2, 1, spread=spread)


def test_random_draws_take_numpy_integers_and_a_zero_spread():
    assert np.array_equal(random_pd(np.int64(3), 4), random_pd(3, 4))
    assert np.array_equal(random_symplectic(np.int32(2), 4), random_symplectic(2, 4))
    assert np.array_equal(random_symplectic(2, 4, spread=0), np.eye(4))


def _h_draw(n, seed, spread):
    """The symmetric H of random_symplectic(n, seed, spread), redrawn."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2 * n, 2 * n))
    h = 0.5 * (g + g.T)
    norm = np.linalg.norm(h, 2)
    if norm > spread:
        h *= spread / norm
    return h


@pytest.mark.parametrize("spread", [2.0, 6.0])
def test_random_symplectic_is_scipys_exponential_of_the_same_draw(spread):
    # The bound leaves room for scipy's own error: on one draw in 3,000 at
    # spread 6 its expm is 1.6e-13 from a 50-digit reference, where
    # random_symplectic is 1.2e-16 from it.  These seeds reach 6e-14.
    for seed in range(10):
        for n in range(2, 8):
            m = random_symplectic(n, seed, spread)
            ref = scipy.linalg.expm(apply_form(_h_draw(n, seed, spread)))
            assert fnorm(m - ref) <= 1e-13 * fnorm(ref), (seed, n)


@pytest.mark.parametrize("n", [2, 3])
def test_random_symplectic_matches_a_50_digit_exponential(n):
    for seed in range(4):
        for spread in (2.0, 6.0):
            m = random_symplectic(n, seed, spread)
            with mpmath.workdps(50):
                exact = mpmath.expm(mpmath.matrix(apply_form(_h_draw(n, seed, spread)).tolist()))
                ref = np.array(exact.tolist(), dtype=float)
            assert fnorm(m - ref) <= 1e-15 * fnorm(ref), (seed, spread)


def test_random_symplectic_certifies_its_exponential(monkeypatch):
    exact = core._expm
    monkeypatch.setattr(core, "_expm", lambda x, norm: exact(x, norm) + 1e-6)
    with pytest.raises(NumericalContractError, match="symplectic exponential defect"):
        random_symplectic(3, 0)


def test_as_generator_accepts_seed_and_generator():
    g1 = as_generator(7)
    g2 = as_generator(7)
    assert g1.normal() == g2.normal()
    g3 = as_generator(None)
    assert as_generator(g3) is g3


def test_condition_number_diagonal():
    assert condition_number(np.diag([1.0, 10.0])) == pytest.approx(10.0)


def test_condition_number_is_the_cholesky_estimate_without_an_eigensolve(monkeypatch):
    a = random_pd(3, np.random.default_rng(5))
    exact = np.linalg.cond(a, 1)

    def no_eigensolve(*args, **kwargs):
        raise AssertionError("condition_number ran an eigensolve")

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, no_eigensolve)
    cond = condition_number(a)
    assert cond == core.check_positive_definite(a)[2]
    # dpocon estimates ||A^-1||_1 from below.
    assert 0.3 * exact <= cond <= (1.0 + 1e-10) * exact


def test_williamson_carries_the_condition_number_estimate():
    a = random_pd(3, np.random.default_rng(6))
    assert williamson(a).kappa == condition_number(a)


def test_condition_number_of_a_singular_matrix_is_never_negative():
    # Rank 3 in size 4: Cholesky may factor it through rounding, and then
    # the estimate must either refuse it or be huge.
    v = np.random.default_rng(14).standard_normal((4, 3))
    try:
        cond = condition_number(v @ v.T)
    except ValidationError:
        return
    assert cond > 1e12


_INDEFINITE = np.diag([1.0, -1.0, 1.0, 1.0])
_TUPLE = np.eye(4)[:, [0]], np.eye(4)[:, [2]]

PD_ENTRY_POINTS = {
    "williamson": williamson,
    **{f"eig-{m}": partial(symplectic_eigenvalues, method=m) for m in METHODS},
    "compress": lambda a: compress(a, *_TUPLE),
    "condition_number": condition_number,
    "geometric_mean-first": lambda a: geometric_mean(a, np.eye(4)),
    "geometric_mean-second": lambda a: geometric_mean(np.eye(4), a),
}


@pytest.mark.parametrize("entry", list(PD_ENTRY_POINTS))
def test_every_entry_point_checks_positive_definiteness(entry):
    call = PD_ENTRY_POINTS[entry]
    with pytest.raises(ValidationError, match="not positive definite"):
        call(_INDEFINITE)
    asymmetric = np.eye(4)
    asymmetric[0, 1] = 0.5
    with pytest.raises(ValidationError, match="not symmetric"):
        call(asymmetric)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", list(PD_ENTRY_POINTS))
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_every_entry_point_refuses_non_finite_inputs(entry, value):
    call = PD_ENTRY_POINTS[entry]
    with pytest.raises(ValidationError, match="must be finite"):
        call(np.full((4, 4), value))
    one_entry = np.eye(4)
    one_entry[1, 2] = one_entry[2, 1] = value
    with pytest.raises(ValidationError, match="must be finite"):
        call(one_entry)


@pytest.mark.parametrize("entry", list(PD_ENTRY_POINTS))
def test_every_entry_point_refuses_singular_inputs(entry):
    # Rank 3 in size 4: Cholesky fails on some draws and factors the rest
    # through rounding; the condition estimate must refuse those.
    call = PD_ENTRY_POINTS[entry]
    for seed in range(200):
        v = np.random.default_rng(seed).standard_normal((4, 3))
        with pytest.raises(ValidationError, match="not positive definite|condition number estimate"):
            call(v @ v.T)


# Draw families for the bit-identity tests: the harness's Wishart draw,
# a spectrum spread over six decades and one with a tiny d_1.
DRAWS = {
    "wishart": lambda n, rng: random_pd(n, rng),
    "log-spread": lambda n, rng: random_pd(n, rng, spectrum=np.logspace(-3.0, 3.0, n)),
    "near-singular": lambda n, rng: random_pd(
        n, rng, spectrum=np.concatenate([[1e-7], rng.uniform(0.5, 2.0, n - 1)])),
}


def _numpy_cholesky_route(a):
    """(A, L, kappa) as check_positive_definite formed them through
    numpy.linalg.cholesky and a 1-norm taken with ndarray.sum."""
    a = 0.5 * (a + a.T)
    low = np.linalg.cholesky(a)
    rcond = core._POCON(low, np.abs(a).sum(0).max(), uplo="L")[0]
    return a, low, float(1.0 / rcond)


@pytest.mark.parametrize("n", [*range(1, 8), 50])
@pytest.mark.parametrize("family", list(DRAWS))
def test_check_positive_definite_equals_the_numpy_cholesky_route_bit_for_bit(family, n):
    # kappa is compared at n <= 50 only: at n = 200 dpocon's estimate moves
    # in its last bits with the state of the process, on the same factor.
    rng = np.random.default_rng(300 + n)
    for _ in range(3):
        a = DRAWS[family](n, rng)
        tilted = a.copy()
        tilted[0, -1] += 1e-14 * abs(a[0, -1])
        for x in (a, tilted):
            got, want = core.check_positive_definite(x), _numpy_cholesky_route(x)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            assert got[2] == want[2]


@pytest.mark.parametrize("n", [*range(1, 8), 50])
@pytest.mark.parametrize("family", list(DRAWS))
def test_a_stacked_check_equals_the_single_check_bit_for_bit(family, n):
    rng = np.random.default_rng(400 + n)
    draws = [DRAWS[family](n, rng) for _ in range(3)]
    tilted = draws[0].copy()
    tilted[0, -1] += 1e-14 * abs(tilted[0, -1])
    stack = np.stack([*draws, tilted])
    outcomes = core.check_positive_definite(stack)
    assert len(outcomes) == len(stack)
    for got, a in zip(outcomes, stack):
        want = core.check_positive_definite(a)
        assert type(got) is core.PositiveDefinite
        assert got.a.tobytes() == want.a.tobytes()
        assert got.low.tobytes() == want.low.tobytes()
        assert got.kappa == want.kappa


def _refusal(a):
    """The message of the error that check_positive_definite(a) raises."""
    with pytest.raises((ValidationError, NumericalContractError)) as info:
        core.check_positive_definite(a)
    return str(info.value)


@pytest.mark.filterwarnings("error")
def test_a_stacked_check_keeps_each_refusal_with_its_matrix():
    rng = np.random.default_rng(17)
    good = [random_pd(2, rng) for _ in range(3)]
    asymmetric = good[0].copy()
    asymmetric[0, 1] += 1e-3
    singular = np.diag([1.0, 1e-17, 1.0, 1.0])  # factors, but kappa = 1e17
    not_finite = good[1].copy()
    not_finite[2, 3] = not_finite[3, 2] = np.inf
    stack = np.stack([good[0], asymmetric, -good[1], singular, good[1], not_finite,
                      np.full((4, 4), np.nan), good[2]])
    # The stack raises what its first refused matrix raises alone, and
    # errors._whole_or_alone gives every matrix its own outcome.
    with pytest.raises(ValidationError, match=re.escape(_refusal(asymmetric))):
        core.check_positive_definite(stack)
    outcomes = errors._whole_or_alone(core.check_positive_definite, stack,
                                      (ValidationError, NumericalContractError))
    messages = []
    for got, a in zip(outcomes, stack):
        try:
            want = core.check_positive_definite(a)
        except ValidationError as exc:
            assert type(got) is ValidationError and str(got) == str(exc)
            messages.append(str(got).split(":")[0])
        else:
            assert got.low.tobytes() == want.low.tobytes() and got.kappa == want.kappa
            messages.append("ok")
    assert messages == ["ok", "matrix is not symmetric",
                        "matrix is not positive definite", "matrix is numerically singular",
                        "ok", "matrix must be finite", "matrix must be finite", "ok"]


def test_a_stacked_check_keeps_a_condition_estimate_failure_with_its_matrix(monkeypatch):
    pocon = core._POCON
    stack = np.stack([np.eye(4), 2.0 * np.eye(4), 3.0 * np.eye(4)])
    monkeypatch.setattr(core, "_POCON", lambda low, *args, **kw: (
        (0.0, -4) if low[0, 0] == np.sqrt(2.0) else pocon(low, *args, **kw)))
    with pytest.raises(NumericalContractError, match="^condition estimate failed"):
        core.check_positive_definite(stack)
    first, second, third = errors._whole_or_alone(core.check_positive_definite, stack,
                                                  (NumericalContractError,))
    assert type(second) is NumericalContractError
    assert str(second) == "condition estimate failed: LAPACK info -4"
    assert (first.kappa, third.kappa) == (core.check_positive_definite(stack[0]).kappa,
                                          core.check_positive_definite(stack[2]).kappa)


@pytest.mark.parametrize("shape", [(2, 4, 3), (2, 0, 0), (0, 4, 4)])
def test_a_stack_that_is_not_of_square_matrices_is_checked_matrix_by_matrix(shape):
    # The stack raises the refusal of its first matrix alone, which names
    # that matrix's shape; a stack of no matrices checks none.
    if shape[0] == 0:
        assert core.check_positive_definite(np.zeros(shape)) == []
        return
    with pytest.raises(ValidationError, match=re.escape(_refusal(np.zeros(shape[1:])))):
        core.check_positive_definite(np.zeros(shape))
    outcomes = errors._whole_or_alone(core.check_positive_definite, np.zeros(shape),
                                      (ValidationError,))
    assert len(outcomes) == shape[0]
    for got in outcomes:
        assert type(got) is ValidationError
        assert str(got) == _refusal(np.zeros(shape[1:]))


@pytest.mark.parametrize("entry", ["check_positive_definite", "williamson", "_pair_floor"])
def test_an_indefinite_matrix_is_refused_without_a_warning(entry):
    # An input that fails the check is the caller's fault; a compression
    # that _pair_floor cannot factor is a failed numerical contract.
    calls = {
        "check_positive_definite": (core.check_positive_definite, ValidationError,
                                    "not positive definite"),
        "williamson": (williamson, ValidationError, "not positive definite"),
        "_pair_floor": (lambda a: _pair_floor(a, np.eye(4)), NumericalContractError,
                        "LAPACK factorization failed"),
    }
    call, error, message = calls[entry]
    state = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            call(_INDEFINITE)
    assert np.geterr() == state


def _numpy_eigvals_route(a):
    imag = np.sort(np.abs(np.linalg.eigvals(apply_form(a)).imag))
    return 0.5 * (imag[::2] + imag[1::2])


@pytest.mark.parametrize("n", [*range(1, 8), 50])
def test_ja_eigen_equals_the_numpy_eigvals_route_bit_for_bit(n):
    rng = np.random.default_rng(400 + n)
    for family in DRAWS:
        a = DRAWS[family](n, rng)
        got = symplectic_eigenvalues(a, method="ja-eigen")
        assert got.tobytes() == _numpy_eigvals_route(a).tobytes()


def _symmetrized_random_pd(n, rng):
    """random_pd's Wishart draw with the symmetrization it used to end with."""
    r = rng.standard_normal((2 * n, 2 * n))
    a = r @ r.T
    a.flat[::2 * n + 1] += 1e-3 * (np.trace(a) / (2 * n))
    return 0.5 * (a + a.T)


def _norm_random_symplectic(n, rng, spread=2.0):
    """random_symplectic with ||H||_2 from numpy.linalg.norm."""
    g = rng.standard_normal((2 * n, 2 * n))
    h = 0.5 * (g + g.T)
    norm = np.linalg.norm(h, 2)
    if norm > spread:
        h *= spread / norm
    return core._expm(apply_form(h), min(norm, spread))


@pytest.mark.parametrize("n", [*range(1, 8), 50, 100, 200])
def test_random_draws_equal_their_former_formulas_bit_for_bit(n):
    for seed in range(2):
        a = random_pd(n, np.random.default_rng(seed))
        assert a.tobytes() == _symmetrized_random_pd(n, np.random.default_rng(seed)).tobytes()
        assert (a == a.T).all()
        for spread in (0.5, 2.0):
            m = random_symplectic(n, np.random.default_rng(seed), spread=spread)
            want = _norm_random_symplectic(n, np.random.default_rng(seed), spread=spread)
            assert m.tobytes() == want.tobytes()


_EMPTY = np.zeros((0, 0))

EMPTY_ENTRY_POINTS = {
    "check_positive_definite": core.check_positive_definite,
    "williamson": williamson,
    **{f"eig-{m}": partial(symplectic_eigenvalues, method=m) for m in METHODS},
    "compress": lambda a: compress(a, np.zeros((0, 1)), np.zeros((0, 1))),
    "condition_number": condition_number,
    "geometric_mean": lambda a: geometric_mean(a, a),
}


@pytest.mark.parametrize("entry", list(EMPTY_ENTRY_POINTS))
def test_every_entry_point_refuses_an_empty_matrix(entry):
    with pytest.raises(ValidationError, match="matrix must not be empty"):
        EMPTY_ENTRY_POINTS[entry](_EMPTY)


def test_compress_refuses_a_tuple_without_columns():
    with pytest.raises(ValidationError, match="at least one pair of columns"):
        compress(np.eye(4), np.zeros((4, 0)), np.zeros((4, 0)))


@pytest.mark.parametrize("x, y", [(np.eye(4)[:, :1], np.eye(4)[:, :2]),
                                  (np.eye(4)[:, :2], np.eye(2)),
                                  (np.ones(4), np.ones(4))],
                         ids=["columns", "rows", "1-d"])
def test_tuple_form_defect_refuses_stacks_of_different_or_non_2d_shapes(x, y):
    # x of shape (4, 1) and y of shape (4, 2) used to broadcast to 1.414.
    with pytest.raises(ValidationError, match="not one 2-d shape"):
        tuple_form_defect(x, y)


_IDX = np.array([1])

COMPLEX_ENTRY_POINTS = {
    **PD_ENTRY_POINTS,
    "check_square": linalg.check_square,
    "check_positive_definite": core.check_positive_definite,
    "maxmin_check": lambda a: maxmin_check(a, 1, rng=0),
    "wielandt_certify": lambda a: wielandt_certify(a, _IDX, rng=0),
    "phi_extremal_check": lambda a: phi_extremal_check(a, _IDX, phi_sum, rng=0),
    "det_product_check": lambda a: det_product_check(a, _IDX),
    "additive_lidskii_trial-first": lambda a: additive_lidskii_trial(a, np.eye(4), _IDX),
    "additive_lidskii_trial-second": lambda a: additive_lidskii_trial(np.eye(4), a, _IDX),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", list(COMPLEX_ENTRY_POINTS))
def test_every_entry_point_refuses_a_complex_matrix(entry):
    call = COMPLEX_ENTRY_POINTS[entry]
    with pytest.raises(ValidationError, match="matrix must be real"):
        call(np.eye(4) * (1 + 0j))


UNREADABLE_ENTRY_POINTS = {
    **COMPLEX_ENTRY_POINTS,
    "SymplecticBasis": SymplecticBasis,
    "tuple_value": lambda a: tuple_value(a, *_TUPLE),
    "matrix_to_obj": matrix_to_obj,
}


@pytest.mark.parametrize("matrix", [np.full((4, 4), "a"), np.full((4, 4), {}), "abc",
                                    np.eye(4, dtype=bool)],
                         ids=["strings", "objects", "string", "bools"])
@pytest.mark.parametrize("entry", list(UNREADABLE_ENTRY_POINTS))
def test_every_entry_point_refuses_a_matrix_that_is_not_numbers(entry, matrix):
    # numpy's own conversion error, a plain ValueError or TypeError, would
    # escape the CLI's exit codes; a bool array is refused as matio
    # refuses JSON booleans.
    with pytest.raises(ValidationError, match="must be real numbers"):
        UNREADABLE_ENTRY_POINTS[entry](matrix)


_VEC = np.array([1.0, 2.0, 3.0, 4.0])
_STD = SymplecticBasis.standard(2)
_X3 = np.eye(4)[:, :3]

# Every exported callable that takes a vector or a column stack, by the
# argument under test.
VECTOR_HELPERS = {
    "prime_coords": prime_coords,
    "SymplecticBasis.coords": _STD.coords,
    "SymplecticBasis.lift": _STD.lift,
    "SymplecticBasis.prime": _STD.prime,
    "apply_form": apply_form,
    "symplectic_inner-x": lambda x: symplectic_inner(x, _VEC),
    "symplectic_inner-y": lambda y: symplectic_inner(_VEC, y),
    "symplectic_gram-x": lambda x: symplectic_gram(x, _VEC),
    "symplectic_gram-y": lambda y: symplectic_gram(_VEC, y),
    "tuple_value-x": lambda x: tuple_value(np.eye(4), x, _VEC),
    "tuple_value-y": lambda y: tuple_value(np.eye(4), _VEC, y),
    "same_span_trace_check-x": lambda x: same_span_trace_check(np.eye(4), x, _VEC, _STD),
    "same_span_trace_check-v": lambda v: same_span_trace_check(np.eye(4), _VEC, v, _STD),
    "poincare_witness": lambda m: poincare_witness(m, _STD, np.eye(4)),
    # A complex chain used to lose its imaginary part with a ComplexWarning,
    # a string one raised numpy's ValueError and a bool one read as numbers.
    "dual_chain_construct-vchain": lambda w: dual_chain_construct([w], [np.eye(4)], _STD, 0),
    "dual_chain_construct-wchain": lambda w: dual_chain_construct([_X3], [w], _STD, 0),
    "random_pd": lambda d: random_pd(4, 0, spectrum=d),
    "supermajorize-a": lambda a: supermajorize(a, _VEC),
    "supermajorize-b": lambda b: supermajorize(_VEC, b),
    "majorize-a": lambda a: majorize(a, _VEC),
    "majorize-b": lambda b: majorize(_VEC, b),
    "elementary_symmetric": lambda x: elementary_symmetric(x, 2),
    **{f"SpectralFunctional-{phi.name}": phi for phi in SHIPPED},
}


@pytest.mark.parametrize("vector", [np.full(4, "a"), _VEC + 5j, np.ones(4, dtype=bool)],
                         ids=["strings", "complex", "bools"])
@pytest.mark.parametrize("helper", list(VECTOR_HELPERS))
def test_every_vector_helper_refuses_what_is_not_real_numbers(helper, vector):
    # A complex vector used to lose its imaginary part, and a string one
    # raised numpy's ValueError.
    with pytest.raises(ValidationError, match="must be real numbers"):
        VECTOR_HELPERS[helper](vector)


# The helpers that take a tuple, a subspace basis or a vector, each with
# a finite value of that argument.  A NaN chain member or subspace used
# to raise "LAPACK factorization failed", a NaN tuple of
# same_span_trace_check "trace equality violated: gap nan", and
# tuple_value returned nan; the form helpers and the basis methods passed
# NaN and inf through, SymplecticBasis.coords with a warning, and the
# majorization predicates answered True or False.
_COL = _VEC[:, None]
_FINITE_ROWS = {
    **{name: (VECTOR_HELPERS[name], value) for name, value in [
        ("tuple_value-x", _VEC), ("tuple_value-y", _VEC), ("poincare_witness", _X3),
        ("dual_chain_construct-vchain", _X3), ("dual_chain_construct-wchain", np.eye(4))]},
    **{name: (VECTOR_HELPERS[name], _VEC) for name in [
        "prime_coords", "SymplecticBasis.coords", "SymplecticBasis.lift",
        "SymplecticBasis.prime", "apply_form", "symplectic_inner-x", "symplectic_inner-y",
        "symplectic_gram-x", "symplectic_gram-y", "supermajorize-a", "supermajorize-b",
        "majorize-a", "majorize-b"]},
    "same_span_trace_check-x": (lambda x: same_span_trace_check(np.eye(4), x, _COL, _STD), _COL),
    "same_span_trace_check-v": (lambda v: same_span_trace_check(np.eye(4), _COL, v, _STD), _COL),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("helper", list(_FINITE_ROWS))
def test_every_tuple_and_subspace_helper_refuses_what_is_not_finite(helper, bad):
    call, value = _FINITE_ROWS[helper]
    value = value.copy()
    value[1, ...] = bad
    with pytest.raises(ValidationError, match="must be finite"):
        call(value)


# The form helpers take vectors or column stacks of one even, positive
# length 2n, the basis methods 2n = 4.  Each row used to return a value
# of no symplectic form, as apply_form(arange(3.0)) gave [1, 2, -0], or
# to raise numpy's ValueError.
_BAD_LENGTHS = {"odd": np.ones(3), "empty": np.ones(0), "mismatched": np.ones(6),
                "mismatched-stack": np.ones((6, 1))}


@pytest.mark.parametrize("helper, vector", [
    pytest.param(helper, vector, id=f"{helper}-{vector}")
    for helper in VECTOR_HELPERS
    if helper.startswith(("prime_coords", "SymplecticBasis", "apply_form", "symplectic_"))
    for vector in _BAD_LENGTHS
    # Alone, a vector of length 6 has a form.
    if helper not in ("prime_coords", "apply_form") or vector in ("odd", "empty")])
def test_every_form_helper_refuses_a_length_with_no_form(helper, vector):
    with pytest.raises(ValidationError, match="even, positive length|must have 4 rows"):
        VECTOR_HELPERS[helper](_BAD_LENGTHS[vector])


STACK_ENTRY_POINTS = {name: call for name, call in COMPLEX_ENTRY_POINTS.items()
                      if not name.startswith(("check_", "additive_"))}


@pytest.mark.parametrize("entry", list(STACK_ENTRY_POINTS))
def test_every_entry_point_but_the_check_refuses_a_stack(entry):
    with pytest.raises(ValidationError, match=r"must be square, got shape \(2, 4, 4\)"):
        STACK_ENTRY_POINTS[entry](np.stack([np.eye(4)] * 2))


@pytest.mark.filterwarnings("error")
def test_tuple_and_basis_columns_must_be_real():
    x, y = _TUPLE
    with pytest.raises(ValidationError, match="tuple columns must be real"):
        compress(np.eye(4), x * (1 + 0j), y)
    with pytest.raises(ValidationError, match="tuple columns must be real"):
        tuple_form_defect(x, y * (1 + 0j))
    with pytest.raises(ValidationError, match="basis columns must be real"):
        SymplecticBasis(np.eye(4) * (1 + 0j))
