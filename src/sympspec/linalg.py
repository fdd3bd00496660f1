"""Dense linear-algebra primitives with explicit accuracy contracts.

Everything here is numpy and LAPACK on real float64 arrays.  Routines that
can fail quietly (eigendecompositions, rank decisions, skew pairing)
re-check their own output and raise NumericalContractError instead of
returning garbage.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NumericalContractError, ValidationError

SYM_RTOL = 1e-12
RANK_RTOL = 1e-10
INTERSECT_COS_TOL = 1e-8

_GEHRD, _ORGHR = scipy.linalg.get_lapack_funcs(("gehrd", "orghr"), dtype=np.float64)


def fnorm(a):
    """Frobenius norm for matrices, Euclidean norm for vectors."""
    return float(np.linalg.norm(a))


def check_square(a, name="matrix"):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {a.shape}")
    return a


def check_symmetric(a):
    """Validate approximate symmetry and return the symmetrized matrix."""
    a = check_square(a)
    gap = fnorm(a - a.T)
    if gap > SYM_RTOL * max(1.0, fnorm(a)):
        raise ValidationError(
            f"matrix is not symmetric: asymmetry {gap:.3e} exceeds tolerance"
        )
    return 0.5 * (a + a.T)


def sym_eig(s):
    """Eigendecomposition of a symmetric matrix, ascending eigenvalues.

    The residual ||S V - V diag(w)|| is checked against 1e-12 * max(1, ||S||).
    """
    s = 0.5 * (s + s.T)
    try:
        w, v = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:
        raise NumericalContractError(f"symmetric eigensolve failed: {exc}") from exc
    resid = fnorm(s @ v - v * w)
    bound = 1e-12 * max(1.0, fnorm(s))
    if resid > bound:
        raise NumericalContractError(
            f"eigendecomposition residual {resid:.3e} exceeds {bound:.3e}"
        )
    return w, v


def orthonormal_columns(x):
    """Orthonormal basis for the column span of x (may drop rank)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValidationError(f"expected a 2-d array, got shape {x.shape}")
    if x.shape[1] == 0:
        return x.copy()
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    if s[0] == 0.0:
        return np.zeros((x.shape[0], 0))
    k = int(np.sum(s > RANK_RTOL * s[0]))
    return u[:, :k]


def null_space_basis(g):
    """Orthonormal basis of the kernel of g (rows are constraints)."""
    g = np.asarray(g, dtype=float)
    rows, cols = g.shape
    if rows == 0:
        return np.eye(cols)
    _, s, vt = np.linalg.svd(g, full_matrices=True)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(cols)
    rank = int(np.sum(s > RANK_RTOL * s[0]))
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
    p, sig, qt = np.linalg.svd(u.T @ w)
    if sig[0] > 1.0 + INTERSECT_COS_TOL:
        raise NumericalContractError(
            f"principal cosine {sig[0]:.3e} exceeds 1: inputs are not orthonormal"
        )
    k = int(np.sum(sig >= 1.0 - INTERSECT_COS_TOL))
    if k == 0:
        return np.zeros((u.shape[0], 0))
    left = u @ p[:, :k]
    right = w @ qt[:k].T
    return orthonormal_columns(left + right)


def skew_canonical(k):
    """Orthogonal reduction of a nonsingular skew-symmetric matrix.

    Returns (q, d) with q orthogonal, d ascending positive, and
    q.T K q = [[0, diag(d)], [-diag(d), 0]].  The Hessenberg form
    H = Z.T K Z of a skew K is tridiagonal (Ward and Gray, ACM TOMS 4,
    1978; Wimmer, "Algorithm 923: PFAPACK", ACM TOMS 38, 2012).  With
    e = sub-diagonal of H, reordering even before odd indices turns H
    into [[0, B], [-B.T, 0]] for the lower bidiagonal B with
    B[i, i] = -e[2i] and B[i, i-1] = e[2i-1].  The SVD B = U S V.T, with
    columns reversed so that d = S ascends, gives q = [Z_even U, Z_odd V];
    clusters need no separate treatment and q is orthogonal by
    construction.
    """
    k = check_square(k, "skew input")
    dim = k.shape[0]
    if dim == 0 or dim % 2 == 1:
        raise ValidationError(f"skew canonical form needs even dimension, got {dim}")
    skew_gap = fnorm(k + k.T)
    if skew_gap > 1e-12 * max(1.0, fnorm(k)):
        raise ValidationError(
            f"matrix is not skew-symmetric: defect {skew_gap:.3e}"
        )
    k = 0.5 * (k - k.T)

    m = dim // 2
    lwork = 64 * dim
    ht, tau, info = _GEHRD(k, lwork=lwork)
    if info == 0:
        z, info = _ORGHR(ht, tau, lwork=lwork)
    if info != 0:
        raise NumericalContractError(f"Hessenberg reduction failed: LAPACK info {info}")
    # The entries above the super-diagonal of H are rounding noise; the
    # canonical-form residual below bounds them.
    e = 0.5 * (np.diag(ht, -1) - np.diag(ht, 1))
    b = np.diag(-e[0::2]) + np.diag(e[1::2], -1)
    try:
        u, s, vt = np.linalg.svd(b)
    except np.linalg.LinAlgError as exc:
        raise NumericalContractError(f"bidiagonal SVD failed: {exc}") from exc
    d = s[::-1]
    if d[0] <= RANK_RTOL * d[-1]:
        raise ValidationError(
            "skew matrix is numerically singular: singular values span "
            f"[{d[0]:.3e}, {d[-1]:.3e}]"
        )
    q = np.hstack([z[:, 0::2] @ u[:, ::-1], z[:, 1::2] @ vt[::-1].T])

    # For orthogonal q = [q_u, q_w], q.T K q = [[0, D], [-D, 0]] reads
    # K q = [-q_w D, q_u D], which costs one product instead of two.
    resid = fnorm(k @ q - np.hstack([-q[:, m:] * d, q[:, :m] * d]))
    if resid > 1e-9 * max(1.0, fnorm(k)):
        raise NumericalContractError(
            f"skew canonical residual {resid:.3e} exceeds tolerance"
        )
    orth = fnorm(q.T @ q - np.eye(dim))
    if orth > 1e-10:
        raise NumericalContractError(f"skew canonical basis lost orthogonality: {orth:.3e}")
    return q, d
