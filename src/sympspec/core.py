"""Symplectic spectra and Williamson normal forms.

Conventions used throughout the package:

* the ambient space is R^(2n) with the standard form matrix
  J = [[0, I], [-I, 0]],
* symplectic eigenvalues are reported ascending as a length-n vector d,
* a Williamson basis M satisfies M.T A M = diag(d, d) and M.T J M = J.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericalContractError, ValidationError
from .linalg import (
    _FLAPACK,
    _skew_spectrum,
    check_square,
    check_symmetric,
    fnorm,
    skew_canonical,
)

WILLIAMSON_RTOL_A = 1e-8
WILLIAMSON_TOL_J = 1e-9
TUPLE_TOL = 1e-8
COND_WARN = 1e12

_POCON, _TRTRS = _FLAPACK.dpocon, _FLAPACK.dtrtrs

METHODS = ("skew-canonical", "ja-eigen", "williamson")


def half_dim(a):
    """Half-dimension n of a 2n x 2n matrix."""
    a = check_square(a)
    if a.shape[0] % 2 == 1 or a.shape[0] == 0:
        raise ValidationError(f"matrix must have even positive size, got {a.shape[0]}")
    return a.shape[0] // 2


def symplectic_form(n):
    """The 2n x 2n standard form matrix J."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def apply_form(x):
    """J @ x without materializing J; works on vectors and matrices."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0] // 2
    return np.concatenate([x[n:], -x[:n]], axis=0)


def symplectic_inner(x, y):
    """The bilinear form <x, J y>."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0] // 2
    return float(x[:n] @ y[n:] - x[n:] @ y[:n])


def symplectic_gram(x, y):
    """Matrix of pairwise form values X.T J Y for column stacks."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0] // 2
    return x[:n].T @ y[n:] - x[n:].T @ y[:n]


def check_positive_definite(a):
    """Symmetrize A and return (A, L, kappa) with A = L L.T.

    The Cholesky factorization is the positive-definiteness test.  It also
    factors matrices that are singular up to rounding, so kappa, LAPACK's
    estimate of the 1-norm condition number from L (dpocon), refuses those
    whose kappa * eps leaves no accurate digit.  This is the one verdict
    on singular input: the skew routes behind it refuse only what is
    singular to working precision.
    """
    a = check_symmetric(a)
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise ValidationError(
            "matrix is not positive definite: Cholesky factorization failed"
        ) from None
    rcond, info = _POCON(low, np.abs(a).sum(0).max(), uplo="L")
    if info != 0:
        raise NumericalContractError(f"condition estimate failed: LAPACK info {info}")
    kappa = 1.0 / rcond if rcond > 0.0 else np.inf
    if rcond <= np.finfo(float).eps:
        raise ValidationError(
            f"matrix is numerically singular: condition number estimate {kappa:.1e}"
        )
    return a, low, float(kappa)


def condition_number(a):
    """LAPACK's estimate (dpocon) of the 1-norm condition number of a
    positive definite matrix, from its Cholesky factor; no eigensolve."""
    return check_positive_definite(a)[2]


@dataclass(frozen=True)
class WilliamsonDecomposition:
    """Output of williamson(): spectrum, basis, and achieved residuals.

    residual_a is ||M.T A M - diag(d, d)|| relative to ||diag(d, d)||;
    residual_j is the absolute form defect ||M.T J M - J||; kappa is the
    condition number estimate of A from check_positive_definite.
    """

    d: np.ndarray
    m: np.ndarray
    residual_a: float
    residual_j: float
    kappa: float

    def normal_form(self):
        return np.diag(np.concatenate([self.d, self.d]))


def _cholesky_skew(low):
    """The skew matrix L.T J L for a Cholesky factor L of A = L L.T.

    L.T J L is similar to J A, whose eigenvalues are +-i d for the
    symplectic spectrum d of A, so its singular values are d, each twice.
    """
    k = low.T @ apply_form(low)
    return 0.5 * (k - k.T)


def williamson(a):
    """Symplectic diagonalization of a positive definite matrix.

    Factors A = L L.T, reduces L.T J L to skew canonical form with
    orthogonal Q, and sets M = L^(-T) Q diag(sqrt(d), sqrt(d)).  The
    returned basis M satisfies both defining identities to the stated
    tolerances or the call raises, naming the condition number estimate
    of A.
    """
    a, low, kappa = check_positive_definite(a)
    n = half_dim(a)
    q, d = skew_canonical(_cholesky_skew(low))
    m, info = _TRTRS(low.T, q * np.tile(np.sqrt(d), 2), lower=0)
    if info != 0:
        raise NumericalContractError(f"triangular solve failed: LAPACK info {info}")

    normal = np.diag(np.concatenate([d, d]))
    residual_a = fnorm(m.T @ a @ m - normal) / max(1.0, fnorm(normal))
    residual_j = fnorm(symplectic_gram(m, m) - symplectic_form(n))
    if residual_a > WILLIAMSON_RTOL_A:
        raise NumericalContractError(
            f"diagonalization residual {residual_a:.3e} exceeds {WILLIAMSON_RTOL_A:.1e} "
            f"at condition number estimate {kappa:.1e}"
        )
    if residual_j > WILLIAMSON_TOL_J:
        raise NumericalContractError(
            f"basis form defect {residual_j:.3e} exceeds {WILLIAMSON_TOL_J:.1e} "
            f"at condition number estimate {kappa:.1e}"
        )
    return WilliamsonDecomposition(d=d, m=m, residual_a=residual_a, residual_j=residual_j,
                                   kappa=kappa)


def symplectic_eigenvalues(a, method="skew-canonical"):
    """Ascending symplectic spectrum of a positive definite matrix.

    Methods:
      skew-canonical  singular values of the skew L.T J L, where A = L L.T:
                      the band of its Hessenberg form, certified, and the
                      singular values alone of that bidiagonal; no basis
      ja-eigen        imaginary parts of the spectrum of J A
      williamson      spectrum reported by the full decomposition, whose
                      basis comes from the same Hessenberg band and the
                      singular vectors of that bidiagonal
    """
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}, expected one of {METHODS}")
    if method == "williamson":
        return williamson(a).d
    a, low, _ = check_positive_definite(a)
    half_dim(a)
    if method == "ja-eigen":
        vals = np.linalg.eigvals(apply_form(a))
        imag = np.sort(np.abs(vals.imag))
        # Spectrum comes in +/- pairs; average the two copies of each d.
        return 0.5 * (imag[::2] + imag[1::2])
    return _skew_spectrum(_cholesky_skew(low))


def tuple_form_defect(x, y):
    """How far the columns (x_i, y_i) are from symplectic pairing."""
    k = x.shape[1]
    gxy = symplectic_gram(x, y) - np.eye(k)
    gxx = symplectic_gram(x, x)
    gyy = symplectic_gram(y, y)
    return max(fnorm(gxy), fnorm(gxx), fnorm(gyy))


def compress(a, x, y):
    """Restriction of A to the span of a symplectic tuple.

    The columns of x and y must satisfy <x_i, J y_j> = delta_ij with all
    other pairings zero.  Returns (A_M, d_M): the compressed matrix in
    the tuple's own coordinates and its symplectic spectrum.
    """
    a = check_positive_definite(a)[0]
    half_dim(a)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 2 or x.shape[0] != a.shape[0]:
        raise ValidationError(
            f"tuple shapes {x.shape} and {y.shape} do not match matrix of size {a.shape[0]}"
        )
    defect = tuple_form_defect(x, y)
    if defect > TUPLE_TOL:
        raise ValidationError(
            f"columns are not a symplectic tuple: pairing defect {defect:.3e}"
        )
    t = np.hstack([x, y])
    a_m = t.T @ a @ t
    a_m = 0.5 * (a_m + a_m.T)
    d_m = symplectic_eigenvalues(a_m)
    return a_m, d_m


def as_generator(seed):
    """Coerce an int seed, SeedSequence, or Generator to a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_symplectic(n, rng, spread=2.0):
    """Random symplectic matrix exp(J H) with H symmetric, ||H|| <= spread."""
    # Only data generation needs expm, so scipy.linalg is not imported on
    # the package's import path.  It reuses the _flapack module the package
    # loaded but does not set it as an attribute, so set it here.
    import scipy.linalg

    if not hasattr(scipy.linalg, "_flapack"):
        scipy.linalg._flapack = sys.modules["scipy.linalg._flapack"]
    rng = as_generator(rng)
    g = rng.standard_normal((2 * n, 2 * n))
    h = 0.5 * (g + g.T)
    norm = np.linalg.norm(h, 2)
    if norm > spread:
        h *= spread / norm
    m = scipy.linalg.expm(apply_form(h))
    defect = fnorm(m.T @ symplectic_form(n) @ m - symplectic_form(n))
    if defect > 1e-10 * max(1.0, fnorm(m) ** 2):
        raise NumericalContractError(f"symplectic exponential defect {defect:.3e}")
    return m


def random_pd(n, rng, spectrum=None):
    """Random 2n x 2n positive definite matrix.

    With spectrum=None a regularized Wishart draw; otherwise a matrix
    whose symplectic spectrum equals the given positive values (sorted
    ascending), realized through a random symplectic congruence.
    """
    rng = as_generator(rng)
    if spectrum is None:
        r = rng.standard_normal((2 * n, 2 * n))
        a = r @ r.T
        a += 1e-3 * (np.trace(a) / (2 * n)) * np.eye(2 * n)
        return 0.5 * (a + a.T)
    d = np.sort(np.asarray(spectrum, dtype=float))
    if d.shape != (n,) or np.any(d <= 0.0):
        raise ValidationError(f"spectrum must be {n} positive values, got {spectrum!r}")
    s = random_symplectic(n, rng)
    normal = np.diag(np.concatenate([d, d]))
    a = s.T @ normal @ s
    return 0.5 * (a + a.T)
