"""Dense linear-algebra primitives with explicit accuracy contracts.

Everything here is numpy and LAPACK on real float64 arrays.  Routines that
can fail quietly raise NumericalContractError instead of returning
garbage: sym_eig checks its residual, subspace_intersect its principal
cosines, _hessenberg_band the band it reads d from and _pairing_verdict
the pairs of singular values it reads d from, each with one
errors._contract call, which a NaN fails, and every LAPACK status goes
through errors._lapack.  The skew routes (_skew_spectrum, and
_skew_canonical with its basis) take the exactly skew K that
core._cholesky_skew builds from a factor of a matrix that
check_positive_definite passed, so they check no input; the basis of
_skew_canonical is certified by the residuals of core.williamson, its one
caller, and not here.

The spectrum alone takes one of two routes, chosen by the half-dimension
n of K.  Up to n = _SVD_MAX_N it is the values-only SVD of K itself,
numpy's gufunc over a whole stack of K in one call, so a verify suite
pays one pass per size rather than one call chain per matrix; above it,
the band route: the Hessenberg band of K and the singular values of that
bidiagonal.  The crossover, min of 9 repeats at one BLAS thread on a
noisy 2-core Xeon, in microseconds per matrix (band route, SVD route in
a stack of 150, SVD route called alone):

    n       2     4     6     8    10    12    14    16    20
    band  15.5  17.7  21.5  22.8  27.2  31.8  39.1  44.3  62.9
    stack  3.2   6.9  11.2  16.1  23.5  31.6  43.3  51.4  79.7
    alone 14.7  18.7  22.7  25.7  34.4  40.0  48.9  58.9  88.6

The stack wins up to n = 12; a single call, as compress and the command
line make, is within 1 microsecond of the band up to n = 5 and slower
from there on.  _SVD_MAX_N = 8 keeps the stack's gain at 29 % or more
while a single call loses at most 3 microseconds.

LAPACK comes from scipy's compiled module scipy.linalg._flapack: the
float64 routines it holds are the objects that scipy.linalg.get_lapack_funcs
returns.  _load_flapack() loads that extension from its file, located
through scipy's import spec, and runs the package init of neither scipy nor
scipy.linalg: the extension's RPATH ($ORIGIN/../../scipy.libs) finds the
OpenBLAS library it links on its own.  scipy.linalg's init, with the
array-API layer it pulls in, costs more than half of a cold CLI start.
The handles are linalg._GEHRD, which reduces a skew matrix to its
Hessenberg band for both the band route of _skew_spectrum and
_skew_canonical, linalg._ORGHR, which only _skew_canonical needs to form
its basis, linalg._GESDD (with its workspace query _GESDD_LWORK) and
_SYEVD, behind every other SVD and single symmetric eigensolve of the
package, core._POCON and _TRTRS, inequalities._SYGST, extremal._GEQRF and
_ORGQR.

_svd and _eigh are numpy.linalg.svd and numpy.linalg.eigh without numpy's
wrapper, which at the package's small sizes costs more than LAPACK does:
the same routines (dgesdd, and dsyevd reading the lower triangle), with
the workspace dgesdd's query asks for (kept per shape in _GESDD_WORK), as
numpy passes it, and the factors in C order, as numpy returns them, so
results and every product formed from them match numpy's bit for bit.
linalg._SVD, linalg._EIGH, core._CHOLESKY and core._EIGVALS are numpy's
own gufuncs behind numpy.linalg.svd(compute_uv=False), eigh, cholesky and
eigvals, called directly, since scipy's dgesdd, dpotrf and dgeev come from
another LAPACK build and would move bits; _EIGH, which takes a stack in
one call, gives the bits of _eigh (tests/test_linalg.py pins that).
check_symmetric, the input check of every positive definite entry point,
is one body for the same reason: it calls neither check_square nor
_check_finite.

Three routines take one matrix or a stack of them, shape (m, k, k), and
give a stack's matrices the bits each gets alone: _skew_spectrum,
sym_eig and core.check_positive_definite.  A stack gives a list of m
outcomes, each the matrix's result or the error that refused it
(errors._value reads one), so one call serves many matrices while each
refusal stays its own.  _by_size stacks a list of arrays by shape for
one such call per shape, and _frobenius takes fnorm of every matrix of a
stack at once.

_below(m) is the strictly-lower boolean mask of size m, built once per
size and kept read-only.  np.where(_below(m), 0.0, x) is the upper
triangle of x with its diagonal, np.where(_below(m).T, 0.0, x) the lower
one and np.where(_below(m), x, 0.0) the strictly lower one, the same
entries numpy's triu and tril return, without the mask that those two
rebuild on every call.
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
    _contract,
    _lapack,
)

SYM_RTOL = 1e-12
RANK_RTOL = 1e-10
INTERSECT_COS_TOL = 1e-8
EPS = np.finfo(float).eps
# Largest half-dimension n whose skew spectra take the SVD route; the
# crossover timings behind it are in the module docstring.
_SVD_MAX_N = 8
# The verdicts a stack form keeps per matrix of a stack.
_REFUSALS = (NumericalContractError, ValidationError)
# The gufuncs numpy.linalg.svd(a, compute_uv=False) and numpy.linalg.eigh
# call.
_SVD, _EIGH = _umath_linalg.svd, _umath_linalg.eigh_lo


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
_GESDD, _GESDD_LWORK, _SYEVD = _FLAPACK.dgesdd, _FLAPACK.dgesdd_lwork, _FLAPACK.dsyevd


def fnorm(a):
    """Frobenius norm for matrices, Euclidean norm for vectors: numpy.linalg.norm's
    own formula, sqrt(x . x) over the flattened array, without its dispatch."""
    x = np.asarray(a, dtype=float).ravel(order="K")
    return math.sqrt(x.dot(x))


_GESDD_WORK = {}  # dgesdd's lwork by (m, n, compute_uv, full_matrices), all its query reads


def _svd(a, compute_uv=1, full_matrices=1):
    """(u, s, vt) of a nonempty matrix as numpy.linalg.svd returns them,
    in C order, since a product with a Fortran-ordered factor can round
    differently; with compute_uv=0 only s is meaningful.  A nonzero
    dgesdd status raises NumericalContractError."""
    key = a.shape + (compute_uv, full_matrices)
    lwork = _GESDD_WORK.get(key)
    if lwork is None:
        lwork = _GESDD_WORK[key] = int(_lapack(_GESDD_LWORK, "SVD workspace query", *key))
    u, s, vt = _lapack(_GESDD, "SVD", a, compute_uv=compute_uv,
                       full_matrices=full_matrices, lwork=lwork)
    if not compute_uv:
        return u, s, vt
    return np.ascontiguousarray(u), s, np.ascontiguousarray(vt)


def _eigh(s):
    """(w, v) of the symmetric matrix whose lower triangle s holds, as
    numpy.linalg.eigh returns them, v in C order; a nonzero dsyevd status
    raises NumericalContractError."""
    w, v = _lapack(_SYEVD, "symmetric eigensolve", s, lower=1)
    return w, np.ascontiguousarray(v)


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
    """a as a float array; a complex array is refused, not cast to its real part."""
    a = np.asarray(a)
    if a.dtype.kind == "c":
        raise ValidationError(f"{name} must be real")
    return np.asarray(a, dtype=float)


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
    if gap > SYM_RTOL * max(1.0, norm):
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
    x = x.reshape(len(x), -1)
    return np.sqrt(np.vecdot(x, x))


def _eig_verdict(w, v, residual, norm):
    _contract("eigendecomposition residual", residual, 1e-12 * max(1.0, norm))
    return w, v


def sym_eig(s):
    """Eigendecomposition of an exactly symmetric matrix, ascending
    eigenvalues, or of each matrix of a stack of shape (m, k, k); s is not
    symmetrized again, which would change no bit.

    One matrix goes to _eigh and gives (w, v) or raises
    NumericalContractError.  A stack goes to one call of numpy.linalg.eigh's
    gufunc (_EIGH: dsyevd on the lower triangle too), with the invalid flag
    ignored, so a matrix on which dsyevd fails comes back as NaN, which its
    own residual refuses; it gives a list of m outcomes, each (w, v) or the
    error that refused it (errors._value reads one).  The residual
    ||S V - V diag(w)|| of each matrix is checked against
    1e-12 * max(1, ||S||).  A matrix gets the same bits alone as in any
    stack.
    """
    if s.ndim == 2:
        w, v = _eigh(s)
        return _eig_verdict(w, v, fnorm(s @ v - v * w), fnorm(s))
    with np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore"):
        w, v = _EIGH(s, signature="d->dd")
    residual = _frobenius(s @ v - v * w[:, None, :])
    return [_attempt(_eig_verdict, *x, caught=_REFUSALS)
            for x in zip(w, v, residual.tolist(), _frobenius(s).tolist())]


def orthonormal_columns(x):
    """Orthonormal basis for the column span of x (may drop rank)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValidationError(f"expected a 2-d array, got shape {x.shape}")
    if x.shape[1] == 0:
        return x.copy()
    u, s, _ = _svd(x, full_matrices=0)
    if s[0] == 0.0:
        return np.zeros((x.shape[0], 0))
    k = np.count_nonzero(s > RANK_RTOL * s[0])
    return u[:, :k]


def null_space_basis(g):
    """Orthonormal basis of the kernel of g (rows are constraints)."""
    g = np.asarray(g, dtype=float)
    rows, cols = g.shape
    if rows == 0 or cols == 0:
        return np.eye(cols)
    _, s, vt = _svd(g)
    if s[0] == 0.0:
        return np.eye(cols)
    rank = np.count_nonzero(s > RANK_RTOL * s[0])
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
    s1 = np.linalg.norm(wo - uo @ (uo.T @ wo), 2)
    s2 = np.linalg.norm(uo - wo @ (wo.T @ uo), 2)
    return float(np.arcsin(min(1.0, max(s1, s2))))


def subspace_intersect(u, w):
    """Orthonormal basis for the intersection of two column spans.

    Precondition: u and w both have orthonormal columns; they are not
    re-orthonormalised.  The singular values of u.T w are then the
    cosines of the principal angles (Bjorck and Golub, "Numerical methods
    for computing angles between linear subspaces", Math. Comp. 27,
    1973).  Principal directions with cosine within INTERSECT_COS_TOL of
    1 are treated as common; each returned vector is the matched pair
    averaged, so it lies in both spans to working accuracy.  A cosine
    above 1 + INTERSECT_COS_TOL shows a broken precondition and raises
    NumericalContractError.
    """
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if u.shape[1] == 0 or w.shape[1] == 0:
        return np.zeros((u.shape[0], 0))
    p, sig, qt = _svd(u.T @ w)
    _contract("principal cosine", sig[0], 1.0 + INTERSECT_COS_TOL,
              ": inputs are not orthonormal")
    k = np.count_nonzero(sig >= 1.0 - INTERSECT_COS_TOL)
    if k == 0:
        return np.zeros((u.shape[0], 0))
    left = u @ p[:, :k]
    right = w @ qt[:k].T
    return orthonormal_columns(left + right)


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
    are the d of K.  Everything of H that T(e) drops (the entries above
    the super-diagonal, the diagonal, and the mismatch of sub- and
    super-diagonal that averaging e hides) is certified here:
    ||triu(H) - triu(T(e))||_F <= 1e-9 * max(1, ||K||_F).  H is zero
    below its sub-diagonal and the sub-diagonal mismatch mirrors the
    super-diagonal one, so ||H - T(e)||_2 is at most sqrt(2) times that
    norm.  dgehrd is backward stable, and by Weyl's inequality for
    singular values dropping H - T(e) moves d by at most ||H - T(e)||_2,
    so B carries d of K to within the certified bound plus rounding.
    """
    m = k.shape[0]
    ht, tau = _lapack(_GEHRD, "Hessenberg reduction", k, lwork=64 * m)
    e = 0.5 * (ht.diagonal(-1) - ht.diagonal(1))
    # triu(T(e)) is -e on the super-diagonal, flat positions 1, m + 2, ...
    defect = np.where(_below(m), 0.0, ht)
    defect.reshape(-1)[1::m + 1] += e
    _contract("Hessenberg band defect", fnorm(defect), 1e-9 * max(1.0, fnorm(k)))
    # 0.0 - e and 0.0 + e, so that a zero of e enters B as +0.0.
    h = m // 2
    b = np.zeros((h, h))
    flat = b.reshape(-1)
    flat[::h + 1] -= e[0::2]
    flat[h::h + 1] += e[1::2]
    return ht, tau, b


def _ascending_nonsingular(s):
    """Singular values of B ascending as d; refuse a K singular to
    working precision, d_1 <= dim * eps * d_n for K of size dim (numpy's
    matrix_rank threshold).  For positive definite A the verdict on
    singularity is the condition estimate of core.check_positive_definite;
    this guards against that estimate under-reading the condition number.
    """
    d = s[::-1]
    if d[0] <= 2 * d.size * EPS * d[-1]:
        raise ValidationError(
            "skew matrix is singular to working precision: singular values span "
            f"[{d[0]:.3e}, {d[-1]:.3e}]"
        )
    return d


def _band_spectrum(k):
    """d of one skew K from the band B of _hessenberg_band, whose
    certificate bounds what dropping the rest of H costs d: the singular
    values of B alone, with no dorghr, no singular vectors and no
    residual product."""
    b = _hessenberg_band(k)[2]
    return _ascending_nonsingular(_svd(b, compute_uv=0)[1])


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
    raise one LinAlgError for the whole stack.  The flag is ignored for
    the finiteness test too, whose sum meets inf - inf in a skew K.

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
    passes 1e-9 * max(1, norm); a NaN gap fails."""
    _contract("pairing defect", gap, 1e-9 * max(1.0, norm))
    return _ascending_nonsingular(d)


def _skew_spectrum(k):
    """The d of _skew_canonical(k) alone, with no basis formed, for one
    skew K of size 2n or a stack of them of shape (m, 2n, 2n).

    Up to n = _SVD_MAX_N, d comes from one values-only SVD pass over the
    whole stack (_paired); above it each K takes the band route
    (_band_spectrum), whose dgehrd beats an SVD of K itself.  One K gives
    its d or raises; a stack gives a list of m outcomes, each matrix's d
    or the NumericalContractError or ValidationError that refused it
    (errors._value reads one), so one matrix's refusal is its own.  A
    matrix gets the same bits alone as in any stack.
    """
    band = k.shape[-1] > 2 * _SVD_MAX_N
    if k.ndim == 2:
        return _band_spectrum(k) if band else _pairing_verdict(*_paired(k[None])[0])
    if band:
        return [_attempt(_band_spectrum, x, caught=_REFUSALS) for x in k]
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
