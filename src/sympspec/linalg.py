"""Dense linear-algebra primitives with explicit accuracy contracts.

Everything here is numpy and LAPACK on real float64 arrays.  Routines that
can fail quietly raise NumericalContractError instead of returning
garbage: sym_eig checks its residual, subspace_meet its principal
cosines and _pairing_verdict the pairs of singular values _skew_spectrum
reads d from, each with one errors._contract call, which a NaN fails,
and every LAPACK failure raises too.  The skew routes take the exactly
skew K that core._cholesky_skew builds from a checked factor, so they
check no input: _skew_spectrum is the values-only SVD of K, over a whole
stack in one call, and _skew_canonical's d and basis, from the
Hessenberg band of K, are certified by core.williamson, its one caller.

This module is the package's one LAPACK binding; the other modules
import the handles they call.  numpy.linalg._umath_linalg's gufuncs are
called without numpy.linalg's wrapper, which costs more than LAPACK at
the package's sizes, with its signatures and error state: _SVD_F, _SVD_S
and _SVD (dgesdd: full, reduced, values only), _EIGH (dsyevd, lower
triangle), _CHOLESKY, _EIGVALS, _QR_R_RAW and _QR_REDUCED (dgeqrf,
dorgqr).  A call through _factor, on one matrix or on a stack, raises
the invalid flag, by which a gufunc reports a failed factorization, as
NumericalContractError (errors._gufunc_failed), the one route of such a
failure to a caller.  The stack passes whose matrices keep their own
verdicts (_paired, core._check_stack, basis._chain_frames) ignore that
flag, and each matrix's certificate refuses the NaN a failure leaves.
scipy.linalg._flapack, loaded by _load_flapack() without the init of
scipy, which costs more than half of a cold CLI start, serves what numpy
lacks: _GEHRD, _ORGHR, _POCON, _TRTRS and _SYGST, each status through
errors._lapack.  check_symmetric, the input check of every positive
definite entry point, is one body for speed.

A routine that takes a stack of matrices gives each the bits it gets
alone: _skew_spectrum and core.check_positive_definite give a list of
outcomes, each the matrix's result or the error that refused it
(errors._value reads one), and orthonormal_columns and subspace_meet a
list of bases.  _by_size stacks a list of arrays by shape, one call per
shape; _frobenius takes fnorm of every matrix of a stack.  _below(m) is
the read-only strictly-lower mask of size m, kept per size, which
np.where uses in place of numpy's triu and tril.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    NumericalContractError,
    ValidationError,
    _attempt,
    _bound,
    _contract,
    _gufunc_failed,
    _lapack,
)

EPS = np.finfo(float).eps
# The verdicts a stack form keeps per matrix of a stack.
_REFUSALS = (NumericalContractError, ValidationError)
# numpy.linalg's gufuncs: svd (full, reduced, values only), eigh, cholesky, eigvals, qr.
_SVD_F, _SVD_S, _SVD = _umath_linalg.svd_f, _umath_linalg.svd_s, _umath_linalg.svd
_EIGH, _CHOLESKY = _umath_linalg.eigh_lo, _umath_linalg.cholesky_lo
_EIGVALS, _QR_R_RAW, _QR_REDUCED = (_umath_linalg.eigvals, _umath_linalg.qr_r_raw,
                                    _umath_linalg.qr_reduced)


def _load_flapack():
    """scipy.linalg._flapack, loaded from its file without importing scipy.

    The folder comes from scipy's import spec.  No package init is needed:
    the extension's RPATH, $ORIGIN/../../scipy.libs, finds the OpenBLAS
    library it links.  The module is registered under its own name, so a
    later ``import scipy.linalg`` reuses this module object.  Without scipy
    the error is the ModuleNotFoundError of ``import scipy``, and a scipy
    install without the file raises ImportError naming the path looked for.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    folder = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
    spec = importlib.machinery.PathFinder.find_spec(name, [folder])
    if spec is None:
        raise ImportError("scipy's LAPACK extension not found; looked for "
                          + os.path.join(folder, "_flapack"), name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_FLAPACK = _load_flapack()
_GEHRD, _ORGHR = _FLAPACK.dgehrd, _FLAPACK.dorghr
_POCON, _TRTRS, _SYGST = _FLAPACK.dpocon, _FLAPACK.dtrtrs, _FLAPACK.dsygst


def fnorm(a):
    """Frobenius norm for matrices, Euclidean norm for vectors: numpy.linalg.norm's
    own formula, sqrt(x . x) over the flattened array, without its dispatch."""
    x = np.asarray(a, dtype=float).ravel(order="K")
    return math.sqrt(x.dot(x))


@np.errstate(call=_gufunc_failed, invalid="call",
             over="ignore", divide="ignore", under="ignore")
def _factor(gufunc, signature, *args):
    """gufunc(*args), on one matrix or a stack, under numpy.linalg's error
    state, a failed factorization raised as NumericalContractError."""
    return gufunc(*args, signature=signature)


def _svd(a, full_matrices=True):
    """numpy.linalg.svd(a, full_matrices) of a nonempty matrix: (u, s, vt)."""
    return _factor(_SVD_F if full_matrices else _SVD_S, "d->ddd", a)


def _svdvals(a):
    """numpy.linalg.svd(a, compute_uv=False): s of a nonempty matrix, descending."""
    return _factor(_SVD, "d->d", a)


def _eigh(s):
    """numpy.linalg.eigh(s): (w, v) from the lower triangle of s."""
    return _factor(_EIGH, "d->dd", s)


_BELOW = {}  # strictly-lower boolean mask by size, read-only


def _below(m):
    """The m x m boolean mask of the entries below the diagonal, np.tri(m,
    m, -1), built once per size; read-only, since every caller shares it."""
    mask = _BELOW.get(m)
    if mask is None:
        mask = _BELOW[m] = np.tri(m, m, -1, dtype=bool)
        mask.flags.writeable = False
    return mask


def _real(a, name):
    """a as a float array; a complex array is refused, not cast to its real
    part, and so are a bool array, as matio refuses JSON booleans, and one
    numpy cannot read as floats (strings, ragged rows)."""
    try:
        a = np.asarray(a)
        if a.dtype.kind not in "bc":
            return np.asarray(a, dtype=float)
    except (TypeError, ValueError):
        pass
    raise ValidationError(f"{name} must be real numbers")


def check_square(a, name="matrix"):
    a = _real(a, name)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {a.shape}")
    return a


def _check_finite(a, name="matrix"):
    """||a||_F, refusing an a that holds NaN or inf."""
    norm = fnorm(a)
    if not math.isfinite(norm):
        raise ValidationError(f"{name} must be finite: its Frobenius norm is {norm}")
    return norm


def check_symmetric(a):
    """Validate a real, square, nonempty, finite and approximately
    symmetric matrix and return its symmetrization (A + A.T) / 2.

    Both norms are fnorm's sqrt(x . x) over the array in memory order,
    and A + A.T halved in place has the bits of 0.5 * (A + A.T).
    """
    a = _real(a, "matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {a.shape}")
    if a.size == 0:
        raise ValidationError("matrix must not be empty")
    x = a.ravel(order="K")
    norm = math.sqrt(x.dot(x))
    if not math.isfinite(norm):
        raise ValidationError(f"matrix must be finite: its Frobenius norm is {norm}")
    t = a.T
    s = a - t
    x = s.ravel(order="K")
    gap = math.sqrt(x.dot(x))
    if gap > _bound("symmetry", norm):
        raise ValidationError(
            f"matrix is not symmetric: asymmetry {gap:.3e} exceeds tolerance"
        )
    s = a + t
    s *= 0.5
    return s


def _by_size(fn, items):
    """fn's outcomes for the arrays in items, in their order: the items
    are stacked by shape, one fn call per shape, and fn maps a stack of
    m arrays to a list of m outcomes."""
    held = {}
    for i, x in enumerate(items):
        held.setdefault(x.shape, []).append(i)
    out = [None] * len(items)
    for idx in held.values():
        for i, outcome in zip(idx, fn(np.stack([items[i] for i in idx]))):
            out[i] = outcome
    return out


def _frobenius(x):
    """fnorm of each matrix of a C-ordered stack, with the bits fnorm gives
    it alone: vecdot takes the dot product that x.dot(x) takes."""
    x = x.reshape(len(x), math.prod(x.shape[1:]))
    return np.sqrt(np.vecdot(x, x))


def sym_eig(s):
    """Eigendecomposition (w, v) of an exactly symmetric matrix, ascending
    eigenvalues, from one _eigh call; s is not symmetrized again.  Its
    "eigendecomposition residual" ||S V - V diag(w)|| scales with ||S||."""
    w, v = _eigh(s)
    _contract("eigendecomposition residual", fnorm(s @ v - v * w),
              _bound("eigendecomposition residual", fnorm(s)))
    return w, v


def orthonormal_columns(x):
    """Orthonormal basis for the column span of x (may drop rank); for a
    stack x (m, r, c), a list of the m bases from one SVD pass."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (2, 3):
        raise ValidationError(f"expected a 2-d array or a stack of them, got shape {x.shape}")
    if x.shape[-1] == 0:
        return x.copy() if x.ndim == 2 else list(x.copy())
    u, s, _ = _svd(x, full_matrices=False)
    # A zero matrix keeps no column: no s exceeds 0 * s[0].
    if x.ndim == 2:
        return u[:, :np.count_nonzero(s > _bound("rank") * s[0])]
    k = (s > _bound("rank") * s[:, :1]).sum(axis=1)
    return [ui[:, :ki] for ui, ki in zip(u, k.tolist())]


def null_space_basis(g):
    """Orthonormal basis of the kernel of g (rows are constraints)."""
    g = np.asarray(g, dtype=float)
    rows, cols = g.shape
    if rows == 0 or cols == 0:
        return np.eye(cols)
    _, s, vt = _svd(g)
    if s[0] == 0.0:
        return np.eye(cols)
    rank = np.count_nonzero(s > _bound("rank") * s[0])
    return vt[rank:].T


def span_residual(basis, x):
    """Relative distance from x to the column span of basis."""
    x = np.asarray(x, dtype=float)
    nx = fnorm(x)
    if nx == 0.0:
        return 0.0
    q = orthonormal_columns(basis)
    return fnorm(x - q @ (q.T @ x)) / nx


def max_principal_angle(u, w):
    """Largest principal angle between two spans, via the sine residual.

    Accurate for nearly equal spans, where the arccos route loses half
    the digits.  Symmetric in its arguments.
    """
    uo = orthonormal_columns(u)
    wo = orthonormal_columns(w)
    if uo.shape[1] == 0 and wo.shape[1] == 0:
        return 0.0
    if uo.shape[1] == 0 or wo.shape[1] == 0:
        return 0.5 * np.pi
    s1 = _svdvals(wo - uo @ (uo.T @ wo))[0]
    s2 = _svdvals(uo - wo @ (wo.T @ uo))[0]
    return float(np.arcsin(min(1.0, max(s1, s2))))


def subspace_meet(g, perp):
    """The meet of span(g) with the orthogonal complement of span(perp),
    g times some of the right singular vectors of perp^T g, from one SVD;
    for a stack g (m, r, c), a list of the m meets from one SVD pass.

    g and perp must have orthonormal columns.  The singular value sigma
    at c (0 past the rank) is then the sine of the angle between g c and
    the complement (Bjorck and Golub, Math. Comp. 27, 1973), and c is
    kept at sigma^2 <= 2 tol - tol^2, tol = _TOL["principal cosine"], that
    is at cosine 1 - tol or more: an absolute threshold, as the inputs are
    orthonormal.  A principal cosine above 1 + tol, in any matrix of a
    stack, shows that they are not, and raises NumericalContractError.
    """
    if g.shape[-1] == 0 or perp.shape[1] == 0:
        return g if g.ndim == 2 else list(g)
    _, sig, vt = _svd(perp.T @ g)
    top = sig[0] if g.ndim == 2 else sig[:, 0].max()
    _contract("principal cosine", top, 1.0 + _bound("principal cosine"),
              ": inputs are not orthonormal")
    # sig descends, so the rows of vt it leaves off are the kept ones.
    off = sig * sig > _bound("principal cosine") * (2.0 - _bound("principal cosine"))
    if g.ndim == 2:
        return g @ vt[np.count_nonzero(off):].T
    return [gi @ vi[o:].T for gi, vi, o in zip(g, vt, off.sum(axis=1).tolist())]


def _hessenberg_band(k):
    """Packed Hessenberg form of a skew K, and its band as B.

    k is exactly skew, of even positive size.  Returns (H, tau, B): H and
    tau as dgehrd packs them (H on and above the sub-diagonal, the
    reflectors of Z below it), and the lower bidiagonal B with
    B[i, i] = -e[2i] and B[i, i-1] = e[2i-1] for the band
    e = (sub - super) / 2 of H.

    The Hessenberg form H = Z.T K Z of a skew K is tridiagonal (Ward and
    Gray, ACM TOMS 4, 1978; Wimmer, "Algorithm 923: PFAPACK", ACM TOMS 38,
    2012), and reordering even before odd indices turns the skew
    tridiagonal T(e) into [[0, B], [-B.T, 0]], so the singular values of B
    are the d of K.  What T(e) drops of H (the entries above the
    super-diagonal, the diagonal, and the mismatch of sub- and
    super-diagonal that averaging e hides) is not measured here: the
    basis built from B is canonical for T(e), not for H, and the form
    defect of core.williamson, the one caller, measures the difference.
    """
    m = k.shape[0]
    ht, tau = _lapack(_GEHRD, "Hessenberg reduction", k, lwork=64 * m)
    e = 0.5 * (ht.diagonal(-1) - ht.diagonal(1))
    # 0.0 - e and 0.0 + e, so that a zero of e enters B as +0.0.
    h = m // 2
    b = np.zeros((h, h))
    flat = b.reshape(-1)
    flat[::h + 1] -= e[0::2]
    flat[h::h + 1] += e[1::2]
    return ht, tau, b


def _ascending_nonsingular(s):
    """The descending s (the singular values of B, or the pair means of
    K) ascending as d; refuse a K singular to working precision,
    d_1 <= dim * eps * d_n for K of size dim (numpy's matrix_rank
    threshold).  For positive definite A the verdict on singularity is
    the condition estimate of core.check_positive_definite; this guards
    against that estimate under-reading the condition number.
    """
    d = s[::-1]
    if d[0] <= 2 * d.size * EPS * d[-1]:
        raise ValidationError(
            "skew matrix is singular to working precision: singular values span "
            f"[{d[0]:.3e}, {d[-1]:.3e}]"
        )
    return d


@np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore")
def _paired(k):
    """(gap, norm, d) of each K of a stack of skew K, from one values-only
    SVD pass: d descending, norm = ||K||_2, the largest singular value,
    and gap, the pairing defect, the largest gap inside a pair of
    singular values, which _pairing_verdict holds to its bound.

    The pass is numpy.linalg.svd(k, compute_uv=False) through its gufunc
    (dgesdd, values only), under numpy's error state except for the
    invalid flag: a matrix on which dgesdd fails comes back as NaN, which
    that matrix's pairing defect refuses, where numpy's wrapper would
    refuse the whole stack at once.  The flag is ignored for the
    finiteness test too, whose sum meets inf - inf in a skew K.

    A nonsingular skew K is normal with eigenvalues +-i d, so its singular
    values are d, each twice; d is the mean of each pair.  dgesdd is
    backward stable: its values are exact for some K + E with ||E||_2 a
    small multiple of eps ||K||_2, and by Weyl's inequality each moves by
    at most ||E||_2.  So each computed pair lies within ||E||_2 of its d
    and its gap is at most 2 ||E||_2, while a K that is not skew has
    unpaired values.  A K that is not finite enters LAPACK as a zero
    matrix and gets a NaN gap.
    """
    # A finite sum of all entries shows every entry finite.
    finite = None if math.isfinite(k.sum()) else np.isfinite(k).all(axis=(1, 2))
    if finite is not None:
        k = np.where(finite[:, None, None], k, 0.0)
    s = _SVD(k, signature="d->d")
    top, low = s[:, 0::2], s[:, 1::2]
    gaps = np.maximum.reduce(top - low, axis=1)
    if finite is not None:
        gaps[~finite] = np.nan
    return list(zip(gaps.tolist(), s[:, 0].tolist(), 0.5 * (top + low)))


def _pairing_verdict(gap, norm, d):
    """d ascending, once the pairing defect gap of a K of 2-norm norm
    passes errors._bound("pairing defect", norm); a NaN gap fails."""
    _contract("pairing defect", gap, _bound("pairing defect", norm))
    return _ascending_nonsingular(d)


def _skew_spectrum(k):
    """The d of _skew_canonical(k) alone, with no basis formed, for one
    skew K of size 2n or a stack of them of shape (m, 2n, 2n), from one
    values-only SVD pass over the whole stack (_paired), each matrix's
    pairs certified by _pairing_verdict.  One K gives its d or raises; a
    stack gives a list of m outcomes, each matrix's d or the
    NumericalContractError or ValidationError that refused it
    (errors._value reads one), so one matrix's refusal is its own.  A
    matrix gets the same bits alone as in any stack.
    """
    if k.ndim == 2:
        return _pairing_verdict(*_paired(k[None])[0])
    return [_attempt(_pairing_verdict, *v, caught=_REFUSALS) for v in _paired(k)]


def _skew_canonical(k):
    """Orthogonal reduction of a nonsingular skew-symmetric matrix.

    k is exactly skew, of even positive size, as core._cholesky_skew
    builds it.  Returns (q, d) with q orthogonal, d ascending positive,
    and q.T K q = [[0, diag(d)], [-diag(d), 0]].  With H = Z.T K Z the
    Hessenberg form and B its band (see _hessenberg_band), the SVD
    B = U S V.T, with columns reversed so that d = S ascends, gives
    q = [Z_even U, Z_odd V]; clusters need no separate treatment and q
    is orthogonal by construction.

    q is not checked here: core.williamson certifies it through
    M = L^(-T) q S with K = L.T J L and S = diag(sqrt(d), sqrt(d)), since
    M.T A M - S^2 = S (q.T q - I) S and M.T J M - J = -(S q.T K^(-1) q S + J),
    so a q that is not orthogonal or not canonical for K fails its
    residual_a or residual_j.
    """
    ht, tau, b = _hessenberg_band(k)
    z = _lapack(_ORGHR, "Hessenberg reduction", ht, tau, lwork=64 * k.shape[0])
    u, s, vt = _svd(b)
    d = _ascending_nonsingular(s)
    return np.concatenate([z[:, 0::2] @ u[:, ::-1], z[:, 1::2] @ vt[::-1].T], axis=1), d
