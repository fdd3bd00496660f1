"""Symplectic spectra and Williamson normal forms.

Conventions used throughout the package:

* the ambient space is R^(2n) with the standard form matrix
  J = [[0, I], [-I, 0]],
* symplectic eigenvalues are reported ascending as a length-n vector d,
* a Williamson basis M satisfies M.T A M = diag(d, d) and M.T J M = J.

Every factorization here calls a handle that linalg binds: numpy's
Cholesky and eigvals gufuncs through linalg._factor, whose failure on a
matrix or a stack is a NumericalContractError (check_positive_definite
re-raises a failed Cholesky of one matrix as its ValidationError), and
scipy's dpocon and dtrtrs through errors._lapack.
Every positive definite entry point also takes the PositiveDefinite value
that check_positive_definite returns, and does not check it again.

check_positive_definite takes one matrix, or a stack of them in one
pass: one fused symmetry and finiteness pass, one Cholesky gufunc call
and one 1-norm reduction over the stack, then dpocon once per matrix.
Each matrix of a stack gets the bits that it gets alone, and a stack
with a refused matrix raises the error that the first such matrix
raises alone; the entry points take one matrix only.  A spectrum needs
only a factor F of A = F F.T: _factor_spectra forms K = F.T J F
(_cholesky_skew) and reads d off it (linalg._skew_spectrum), for one F
or, in one pass, a stack of them, under the same rule.  The two Lidskii
suites check all their trials' matrices, and take all their spectra, as
stacks, and errors._whole_or_alone gives each trial its own verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    NumericalContractError, ValidationError, _bound, _check_int, _contract, _lapack, _scaled,
)
from .linalg import (
    EPS,
    _CHOLESKY,
    _EIGVALS,
    _POCON,
    _TRTRS,
    _check_finite,
    _factor,
    _frobenius,
    _real,
    _skew_canonical,
    _skew_spectrum,
    _svdvals,
    check_square,
    check_symmetric,
    fnorm,
)

COND_WARN = 1e12

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


def _form_arrays(*arrays):
    """The arrays as real, finite arrays whose first axes share one even,
    positive length."""
    arrays = [_real(x, "vectors") for x in arrays]
    for x in arrays:
        _check_finite(x, "vectors")
    rows = {x.shape[0] if x.ndim else 0 for x in arrays}
    if len(rows) > 1 or 0 in rows or sum(rows) % 2:
        raise ValidationError(f"vectors need one even, positive length, got {sorted(rows)}")
    return arrays


def apply_form(x):
    """J @ x without materializing J; works on vectors and matrices."""
    return _apply_form(*_form_arrays(x))


def _apply_form(x):  # apply_form of a checked x, as the package's callers hold
    n = x.shape[0] // 2
    return np.concatenate([x[n:], -x[:n]], axis=0)


def symplectic_inner(x, y):
    """The bilinear form <x, J y>."""
    return float(_gram(*_form_arrays(x, y)))


def symplectic_gram(x, y):
    """Matrix of pairwise form values X.T J Y for column stacks."""
    return _gram(*_form_arrays(x, y))


def _gram(x, y):  # symplectic_gram of a checked x and y
    n = x.shape[0] // 2
    return x[:n].T @ y[n:] - x[n:].T @ y[:n]


def _form_defect(x):
    """||X.T J X - J||_F for a 2n x 2k column stack X, with J of size 2k:
    how far the columns (u_1..u_k, v_1..v_k) are from a symplectic tuple.

    No J is built.  The entries of J are subtracted from the Gram matrix
    in place: 1 from its k entries (i, k + i), at flat positions k,
    3k + 1, ... (stride 2k + 1, stopping at row k), and -1 from its k
    entries (k + i, i), from flat position 2k^2 on with the same stride.
    Every other entry of J is +0.0, whose subtraction changes no bit, so
    the norm equals that of the dense difference bit for bit.
    """
    g = _gram(x, x)
    k = g.shape[0] // 2
    flat = g.reshape(-1)
    flat[k:2 * k * k:2 * k + 1] -= 1.0
    flat[2 * k * k::2 * k + 1] += 1.0
    return fnorm(g)


class PositiveDefinite(NamedTuple):
    """A matrix that check_positive_definite passed: the symmetrized A,
    its Cholesky factor L with A = L L.T, and kappa, the condition number
    estimate of A."""

    a: np.ndarray
    low: np.ndarray
    kappa: float


def check_positive_definite(a):
    """Symmetrize A and return PositiveDefinite(A, L, kappa) with A = L L.T.

    The Cholesky factorization is the positive-definiteness test.  It also
    factors matrices that are singular up to rounding, so kappa, LAPACK's
    estimate of the 1-norm condition number from L (dpocon), refuses those
    whose kappa * eps leaves no accurate digit.  This is the one verdict
    on singular input: the skew routes behind it refuse only what is
    singular to working precision.

    A stack of matrices, an array of shape (m, k, k), gives the list of
    the m PositiveDefinite values, each with the bits of that matrix's
    check alone, or raises the ValidationError or NumericalContractError
    that the first refused matrix raises alone; see _check_stack.
    """
    if isinstance(a, np.ndarray) and a.ndim == 3:
        return _check_stack(_real(a, "matrix"))
    a = check_symmetric(a)
    try:
        low = _factor(_CHOLESKY, "d->d", a)
    except NumericalContractError:
        raise ValidationError(
            "matrix is not positive definite: Cholesky factorization failed") from None
    return _conditioned(a, low, np.add.reduce(np.abs(a), 0).max())


def _conditioned(a, low, norm):
    """PositiveDefinite(a, low, kappa) for a symmetric a of 1-norm norm
    with Cholesky factor low, unless dpocon's kappa refuses it."""
    rcond = _lapack(_POCON, "condition estimate", low, norm, uplo="L")
    kappa = 1.0 / rcond if rcond > 0.0 else np.inf
    if rcond <= EPS:
        raise ValidationError(
            f"matrix is numerically singular: condition number estimate {kappa:.1e}"
        )
    return PositiveDefinite(a, low, float(kappa))


def _check_stack(a):
    """check_positive_definite of each matrix of a real stack a, with the
    bits that each gets alone.

    One pass over the stack takes each matrix's Frobenius norm and that of
    its asymmetry A - A.T, as check_symmetric does (linalg._frobenius),
    and symmetrizes it; one guarded call of the Cholesky gufunc factors
    the whole stack; one reduction takes every 1-norm.  dpocon then runs
    once per matrix, as for one matrix (_conditioned).  A stack that the
    pass finds not finite, not symmetric or not factored, or that a
    condition estimate refuses, and a stack of matrices that are not
    square or are empty, is checked one matrix at a time, in order, so
    that it raises the error of the first matrix refused alone.
    """
    if a.shape[1] == a.shape[2] and a.size:
        norm = _frobenius(a)
        if np.isfinite(norm).all() and (_frobenius(a - a.mT) <= _bound("symmetry", norm)).all():
            s = a + a.mT
            s *= 0.5
            norms = np.add.reduce(np.abs(s), 1).max(axis=1).tolist()
            try:
                low = _factor(_CHOLESKY, "d->d", s)
                return [_conditioned(s[i], low[i], norms[i]) for i in range(len(s))]
            except (NumericalContractError, ValidationError):
                pass
    return [check_positive_definite(x) for x in a]


def _checked(a):
    """a itself when it is a PositiveDefinite, else check_positive_definite(a)
    of the one matrix a; a stack is refused, as check_square refuses it."""
    if isinstance(a, PositiveDefinite):
        return a
    if isinstance(a, np.ndarray) and a.ndim == 3:
        check_square(a)
    return check_positive_definite(a)


def _symmetric(a):
    """The matrix of a PositiveDefinite as it stands, else check_symmetric(a)."""
    return a.a if isinstance(a, PositiveDefinite) else check_symmetric(a)


def condition_number(a):
    """LAPACK's estimate (dpocon) of the 1-norm condition number of a
    positive definite matrix, from its Cholesky factor; no eigensolve."""
    return _checked(a).kappa


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


def _cholesky_skew(f):
    """K = F.T J F for a factor F of A = F F.T, or the stack of K for a
    stack of such F, shape (m, 2n, 2n).

    F.T J F = F^-1 (A J) F is similar to A J, whose eigenvalues, those of
    J A, are +-i d for the symplectic spectrum d of A, so its singular
    values are d, each twice.  Any F with A = F F.T will do: the Cholesky
    factor check_positive_definite returns, or the factor of a mean that
    inequalities._mean_factor forms.  K is formed exactly skew, of the
    even size of A, and finite because A passed its check: the input that
    linalg._skew_spectrum and linalg._skew_canonical take unchecked.  A
    stack gives each K the bits it gets alone.
    """
    n = f.shape[-1] // 2
    k = f.mT @ np.concatenate([f[..., n:, :], -f[..., :n, :]], axis=-2)
    return 0.5 * (k - k.mT)


def _factor_spectra(f):
    """The symplectic spectrum d of A = F F.T from a factor F of it, or,
    for a stack of factors of shape (m, 2n, 2n), the list of the m
    spectra from one linalg._skew_spectrum pass, which raises the error of
    the first spectrum refused alone."""
    return _skew_spectrum(_cholesky_skew(f))


def williamson(a):
    """Symplectic diagonalization of a positive definite matrix.

    Factors A = L L.T, reduces L.T J L to skew canonical form with
    orthogonal Q, and sets M = L^(-T) Q diag(sqrt(d), sqrt(d)).  The
    returned basis M satisfies both defining identities to the stated
    tolerances or the call raises, naming the condition number estimate
    of A.
    """
    a, low, kappa = _checked(a)
    half_dim(a)
    q, d = _skew_canonical(_cholesky_skew(low))
    root = np.sqrt(d)
    m = _lapack(_TRTRS, "triangular solve", low.T, q * np.concatenate([root, root]), lower=0)

    normal = np.diag(np.concatenate([d, d]))
    residual_a = fnorm(m.T @ a @ m - normal) / _scaled(1.0, fnorm(normal))
    residual_j = _form_defect(m)
    at_kappa = f" at condition number estimate {kappa:.1e}"
    _contract("diagonalization residual", residual_a, _bound("diagonalization residual"),
              at_kappa)
    _contract("basis form defect", residual_j, _bound("basis form defect"), at_kappa)
    return WilliamsonDecomposition(d=d, m=m, residual_a=residual_a, residual_j=residual_j,
                                   kappa=kappa)


def symplectic_eigenvalues(a, method="skew-canonical"):
    """Ascending symplectic spectrum of a positive definite matrix.

    Methods:
      skew-canonical  singular values of the skew K = L.T J L, where
                      A = L L.T, with no basis: those of K itself at
                      every n, each pair certified and averaged
      ja-eigen        imaginary parts of the spectrum of J A
      williamson      spectrum reported by the full decomposition, whose
                      basis comes from the bidiagonal band of the
                      Hessenberg form of K and the singular vectors of
                      that bidiagonal
    """
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}, expected one of {METHODS}")
    if method == "williamson":
        return williamson(a).d
    a, low, _ = _checked(a)
    half_dim(a)
    if method == "ja-eigen":
        return _ja_spectrum(a)
    return _factor_spectra(low)


def _ja_spectrum(a):
    """The ja-eigen spectrum of an A that check_positive_definite and
    half_dim passed: numpy.linalg.eigvals(J A) through its gufunc and
    linalg._factor."""
    vals = _factor(_EIGVALS, "d->D", _apply_form(a))
    imag = np.sort(np.abs(vals.imag))
    # Spectrum comes in +/- pairs; average the two copies of each d.
    return 0.5 * (imag[::2] + imag[1::2])


def tuple_form_defect(x, y):
    """How far the columns (x_i, y_i) are from symplectic pairing; x and y
    are real column stacks of one 2-d shape."""
    x, y = _real(x, "tuple columns"), _real(y, "tuple columns")
    if x.ndim != 2 or x.shape != y.shape:
        raise ValidationError(f"tuple shapes {x.shape} and {y.shape} are not one 2-d shape")
    k = x.shape[1]
    gxy = symplectic_gram(x, y) - np.eye(k)  # symplectic_gram refuses odd rows
    gxx = _gram(x, x)
    gyy = _gram(y, y)
    return max(fnorm(gxy), fnorm(gxx), fnorm(gyy))


def compress(a, x, y):
    """Restriction of A to the span of a symplectic tuple.

    The columns of x and y must satisfy <x_i, J y_j> = delta_ij with all
    other pairings zero.  Returns (A_M, d_M): the compressed matrix in
    the tuple's own coordinates and its symplectic spectrum.
    """
    a_m = _compression(a, x, y)
    return a_m, symplectic_eigenvalues(a_m)


def _compression(a, x, y):
    """The A_M of compress(a, x, y), with every check of compress on A
    and the tuple, and no spectrum."""
    a = _checked(a).a
    half_dim(a)
    x, y = _real(x, "tuple columns"), _real(y, "tuple columns")
    if x.shape != y.shape or x.ndim != 2 or x.shape[0] != a.shape[0]:
        raise ValidationError(
            f"tuple shapes {x.shape} and {y.shape} do not match matrix of size {a.shape[0]}"
        )
    if x.shape[1] == 0:
        raise ValidationError("tuple must hold at least one pair of columns")
    t = np.concatenate([x, y], axis=1)
    _check_finite(t, "tuple columns")
    defect = tuple_form_defect(x, y)
    if not defect <= _bound("tuple form defect"):
        raise ValidationError(
            f"columns are not a symplectic tuple: pairing defect {defect:.3e}"
        )
    a_m = t.T @ a @ t
    return 0.5 * (a_m + a_m.T)


def as_generator(seed):
    """Coerce an int seed, SeedSequence, or Generator to a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# Row j holds 1/k! for k = 5j, ..., 5j + 4: the coefficients of block j of
# the degree-24 Taylor sum that _expm evaluates.
_TAYLOR = np.array([1.0 / math.factorial(k) for k in range(25)]).reshape(5, 5)


def _expm(x, norm):
    """exp(x) for a square x with ||x||_2 <= norm, by scaling and squaring.

    After Higham, "The scaling and squaring method for the matrix
    exponential revisited", SIAM J. Matrix Anal. Appl. 26 (2005): x is
    scaled by 2^-s to 2-norm at most 2, the degree-24 Taylor sum is taken
    there and squared s times.  At 2-norm 2 the dropped terms add up to
    less than 3e-18, below rounding relative to an exp(x) of 2-norm 1 or
    more, as every symplectic matrix has.  The sum is evaluated as in
    Paterson and Stockmeyer, SIAM J. Comput. 2 (1973), with eight
    products: X^2, ..., X^5, then four Horner steps in X^5 over the blocks
    c_5j I + ... + c_5j+4 X^4, which are one product of _TAYLOR with the
    stacked powers I, ..., X^4.  Scales x in place.
    """
    s = math.ceil(math.log2(norm / 2.0)) if norm > 2.0 else 0
    if s:
        x *= 0.5 ** s
    size = x.shape[0]
    powers = np.empty((5, size, size))
    powers[0] = np.eye(size)
    powers[1] = x
    for k in (2, 3, 4):
        np.matmul(powers[k - 1], x, out=powers[k])
    step = powers[4] @ x
    blocks = (_TAYLOR @ powers.reshape(5, -1)).reshape(5, size, size)
    e = blocks[4]
    for block in blocks[3::-1]:
        e = e @ step
        e += block
    for _ in range(s):
        e = e @ e
    return e


def random_symplectic(n, rng, spread=2.0):
    """Random symplectic matrix exp(J H) with H symmetric, ||H|| <= spread.

    spread must be finite and non-negative.
    """
    n = _check_int("n", n, minimum=1)
    if not 0.0 <= spread < math.inf:
        raise ValidationError(f"spread must be finite and non-negative, got {spread!r}")
    rng = as_generator(rng)
    g = rng.standard_normal((2 * n, 2 * n))
    h = 0.5 * (g + g.T)
    norm = _svdvals(h)[0]  # ||H||_2
    if norm > spread:
        h *= spread / norm
    m = _expm(_apply_form(h), min(norm, spread))
    _contract("symplectic exponential defect",
              _form_defect(m), _bound("symplectic exponential defect", fnorm(m) ** 2))
    return m


def random_pd(n, rng, spectrum=None):
    """Random 2n x 2n positive definite matrix.

    With spectrum=None a regularized Wishart draw; otherwise a matrix
    whose symplectic spectrum equals the given positive values (sorted
    ascending), realized through a random symplectic congruence.
    """
    n = _check_int("n", n, minimum=1)
    rng = as_generator(rng)
    if spectrum is None:
        r = rng.standard_normal((2 * n, 2 * n))
        # r @ r.T is formed exactly symmetric (numpy's matmul takes BLAS
        # dsyrk for a product with its own transpose), so the diagonal
        # shift leaves nothing to symmetrize.
        a = r @ r.T
        a.flat[::2 * n + 1] += 1e-3 * (np.trace(a) / (2 * n))
        return a
    d = np.sort(_real(spectrum, "spectrum"))
    if d.shape != (n,) or not ((0.0 < d) & (d < np.inf)).all():
        raise ValidationError(f"spectrum must be {n} positive finite values, got {spectrum!r}")
    s = random_symplectic(n, rng)
    normal = np.diag(np.concatenate([d, d]))
    a = s.T @ normal @ s
    return 0.5 * (a + a.T)
