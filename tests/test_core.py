"""Form, Williamson decomposition, eigenvalue methods, compression."""

from functools import partial

import mpmath
import numpy as np
import pytest
import scipy.linalg

from sympspec import core, linalg
from sympspec.core import (
    WILLIAMSON_RTOL_A,
    WILLIAMSON_TOL_J,
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
from sympspec.inequalities import geometric_mean
from sympspec.linalg import fnorm, skew_canonical

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
        assert dec.residual_a <= WILLIAMSON_RTOL_A
        assert dec.residual_j <= WILLIAMSON_TOL_J


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


def test_cholesky_failure_is_a_validation_error(monkeypatch):
    def no_factor(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", no_factor)
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
    q, d = skew_canonical(_cholesky_skew(low))
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
    # The default method and compress read d off the Hessenberg band; a
    # fall-back to the vector route would hit this stub.
    def no_basis(k):
        raise AssertionError("skew_canonical called")

    a = random_pd(4, np.random.default_rng(9))
    expected = williamson(a).d
    monkeypatch.setattr(core, "skew_canonical", no_basis)
    monkeypatch.setattr(linalg, "skew_canonical", no_basis)
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
