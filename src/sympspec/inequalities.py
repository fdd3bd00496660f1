"""Eigenvalue inequalities for sums and geometric means, plus the
majorization utilities used to state and test them.

All comparisons run on ascending spectra.  Randomized trials return
InequalityRecord entries; a verify report stores each one as it stands,
plus the trial and block size n it came from, so every checked instance
is serialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .core import (
    _checked,
    as_generator,
    check_positive_definite,
    random_pd,
    symplectic_eigenvalues,
)
from .errors import ValidationError, _check_int, _lapack
from .linalg import _FLAPACK, _below, fnorm, sym_eig

_SYGST = _FLAPACK.dsygst


def geometric_mean(a, b):
    """Geometric mean A # B = L (L^-1 B L^-T)^(1/2) L^T, where A = L L^T.

    This is A^(1/2) (A^(-1/2) B A^(-1/2))^(1/2) A^(1/2) with the Cholesky
    factor in place of the square root (Bhatia, Positive Definite
    Matrices, 2007, ch. 4; Iannazzo, "The geometric mean of two matrices
    from a computational viewpoint", Numer. Linear Algebra Appl. 23,
    2016).  LAPACK dsygst forms C = L^-1 B L^-T, one symmetric eigensolve
    C = V diag(w) V^T follows, and the mean is F F^T with
    F = L V diag(w^(1/4)).  A B that is A is checked once.
    """
    same = b is a
    a, low, _ = _checked(a)
    b = a if same else _checked(b).a
    _check_same_size(a, b)
    c = _lapack(_SYGST, "congruence reduction", b, low, lower=1)
    # dsygst writes the lower triangle of C only.
    below = _below(c.shape[0])
    c = np.where(below.T, 0.0, c)
    w, v = sym_eig(c + np.where(below, c, 0.0).T)
    if w[0] <= 0.0:
        raise ValidationError(
            f"L^-1 B L^-T is not positive definite: smallest eigenvalue {w[0]:.6e}"
        )
    f = low @ (v * np.sqrt(np.sqrt(w)))
    # F F^T is formed exactly symmetric, as random_pd's Wishart draw is.
    return f @ f.T


def _check_same_size(a, b):
    if np.shape(a) != np.shape(b):
        raise ValidationError(f"A and B differ in size: {np.shape(a)} vs {np.shape(b)}")


def supermajorize(a, b, atol=0.0):
    """True when every ascending partial sum of a is >= that of b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise ValidationError(f"vectors must be 1-D, got shapes {a.shape} and {b.shape}")
    if a.shape != b.shape:
        raise ValidationError(f"length mismatch: {a.shape} vs {b.shape}")
    return bool((np.sort(a).cumsum() >= np.sort(b).cumsum() - atol).all())


def majorize(a, b, atol=0.0):
    """Supermajorization plus equality of the total sums."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not supermajorize(a, b, atol=atol):
        return False
    gap = abs(float(a.sum()) - float(b.sum()))
    return gap <= max(atol, 1e-12 * max(1.0, abs(float(a.sum()))))


def _draw_shape(n):
    """(n,) for an int n, else the (rows, n) shape itself."""
    return (n,) if isinstance(n, Integral) else tuple(n)


def random_majorization_pair(n, rng):
    """(a, b) with a majorized by b: a is b averaged over permutations.

    n is a length or a (rows, n) shape, for one independent pair per
    row.  permuted draws the k permutations in turn, as k permutation
    calls would, and cumsum adds the weighted rows in order, as a
    running sum would; a pairwise sum would round differently.
    """
    shape = _draw_shape(n)
    b = rng.uniform(0.1, 3.0, size=shape)
    weights = rng.dirichlet(np.ones(max(2, shape[-1])), size=shape[:-1])
    perms = rng.permuted(
        np.broadcast_to(b[..., None, :], weights.shape + shape[-1:]), axis=-1
    )
    return np.cumsum(weights[..., None] * perms, axis=-2)[..., -1, :], b


def random_supermajorization_pair(n, rng):
    """(a, b) with a supermajorizing b, not necessarily equal sums.

    Averaging raises every ascending partial sum, so the averaged
    vector plus a nonnegative lift dominates the original.  n is a
    length or a (rows, n) shape.
    """
    averaged, original = random_majorization_pair(n, rng)
    lift = rng.uniform(0.0, 0.5, size=_draw_shape(n))
    return averaged + lift, original


def random_dominated_pair(n, rng):
    """(a, b) with a >= b elementwise after ascending sort; n is a
    length or a (rows, n) shape."""
    shape = _draw_shape(n)
    b = np.sort(rng.uniform(0.1, 3.0, size=shape), axis=-1)
    return b + rng.uniform(0.0, 1.0, size=shape), b


# The properties schur_concave_monotone_check draws a batch of pairs for.
_AUDIT_KINDS = ("schur-concavity", "monotonicity", "permutation-invariance",
                "supermajorization-conclusion")


@dataclass
class PhiCheckResult:
    ok: bool
    counterexamples: list = field(default_factory=list)


def schur_concave_monotone_check(phi, trials=200, rng=None):
    """Randomized audit of the properties a spectral functional needs.

    Checks Schur concavity (majorization reverses under phi), weak
    monotonicity, permutation invariance, and the composite conclusion
    phi(a) >= phi(b) whenever a supermajorizes b with a, b positive and
    sorted ascending.  Each trial draws a length in 2..6; the pairs of
    one length are drawn as batches and phi.fn is called once on their
    stack, so it must map shape (..., n) to shape (...) and is refused
    otherwise.  Any violation is recorded with its instance.
    """
    trials = _check_int("trials", trials, minimum=1)
    rng = as_generator(rng)
    result = PhiCheckResult(ok=True)
    sizes, rows = np.unique(rng.integers(2, 7, size=trials), return_counts=True)
    for n, m in zip(sizes.tolist(), rows.tolist()):
        shape = (m, n)
        majorized = random_majorization_pair(shape, rng)
        dominated = random_dominated_pair(shape, rng)
        x = rng.uniform(0.1, 3.0, size=shape)
        permuted = (x, rng.permuted(x, axis=-1))
        supermajorized = random_supermajorization_pair(shape, rng)
        stack = np.array([majorized, dominated, permuted, supermajorized])
        values = np.asarray(phi.fn(stack), dtype=float)
        if values.shape != stack.shape[:-1]:
            raise ValidationError(
                f"functional {phi.name!r} must reduce the last axis: "
                f"a batch of shape {stack.shape} gave shape {values.shape}"
            )
        for kind, (a, b), (va, vb) in zip(_AUDIT_KINDS, stack, values):
            if kind == "permutation-invariance":
                bad = np.abs(va - vb) > 1e-10 * np.maximum(1.0, np.abs(va))
            else:
                bad = va < vb - 1e-10 * np.maximum(1.0, np.abs(vb))
            for i in np.flatnonzero(bad):
                result.ok = False
                result.counterexamples.append(
                    {"kind": kind, "a": a[i].tolist(), "b": b[i].tolist(),
                     "phi_a": float(va[i]), "phi_b": float(vb[i])}
                )
    return result


@dataclass
class InequalityRecord:
    """One checked instance: lhs (direction) rhs, with oriented slack.

    direction is "ge", "le", or "eq"; slack is positive when the
    inequality holds strictly and passed means slack >= -tol.  A verify
    report stores these fields plus trial and n; instance holds JSON
    values only.  A record made from an extremal certificate also fails
    when the certificate skipped more constructions than its cap.
    """

    name: str
    lhs: float
    rhs: float
    direction: str
    slack: float
    tol: float
    passed: bool
    instance: dict = field(default_factory=dict)


def make_record(name, lhs, rhs, direction, tol, instance=None):
    lhs, rhs = float(lhs), float(rhs)
    if direction == "ge":
        slack = lhs - rhs
    elif direction == "le":
        slack = rhs - lhs
    elif direction == "eq":
        slack = tol - abs(lhs - rhs)
        tol = 0.0
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return InequalityRecord(
        name=name,
        lhs=lhs,
        rhs=rhs,
        direction=direction,
        slack=float(slack),
        tol=float(tol),
        passed=bool(slack >= -tol),
        instance=instance or {},
    )


def _index_set(n, rng, cap=None):
    """Random sorted index set in 1..n of size 1..min(n, cap)."""
    k = int(rng.integers(1, (n if cap is None else min(n, cap)) + 1))
    return np.sort(rng.choice(np.arange(1, n + 1), size=k, replace=False))


def _check_index_set(index_set, n):
    """The index set as an int array, refused unless it holds integers
    (a cast would truncate 2.7 and read "2" and True as numbers) and is
    1-D and strictly increasing within [1, n]."""
    idx = np.asarray(index_set)
    if idx.dtype.kind not in "iu":
        raise ValidationError(f"index set must hold integers, got {index_set!r}")
    idx = idx.astype(int)
    if (idx.ndim != 1 or not 1 <= idx.size <= n or idx[0] < 1 or idx[-1] > n
            or np.any(np.diff(idx) <= 0)):
        raise ValidationError(
            f"index set must be strictly increasing within [1, {n}], got {index_set!r}"
        )
    return idx


def additive_lidskii_trial(a, b, index_set, tol=1e-9):
    """Records for sum_j d_{i_j}(A+B) >= sum_j d_{i_j}(A) + sum_j d_j(B).

    Also checks the full-index weak supermajorization of d(A+B) by
    d(A) + d(B) that the k = n case implies.
    """
    _check_same_size(a, b)
    d_sum = symplectic_eigenvalues(a + b)
    d_a = symplectic_eigenvalues(a)
    d_b = d_a if b is a else symplectic_eigenvalues(b)
    idx = _check_index_set(index_set, d_a.size) - 1
    k = idx.size
    lhs = float(d_sum[idx].sum())
    rhs = float(d_a[idx].sum() + d_b[:k].sum())
    scale = max(1.0, abs(lhs))
    records = [
        make_record(
            "additive-lower", lhs, rhs, "ge", tol * scale,
            instance={"index_set": [int(i) + 1 for i in idx]},
        )
    ]
    n = d_a.size
    full = float(d_sum.sum())
    records.append(
        make_record(
            "additive-full-prefix",
            full,
            float(d_a.sum() + d_b.sum()),
            "ge",
            tol * max(1.0, full),
            instance={"index_set": list(range(1, n + 1))},
        )
    )
    return records


def _product_records(d_m, d_a, d_b, index_set, tol):
    """Records for the two-sided product bounds on d(A # B), in logs,
    from the spectra d_m of A # B, d_a of A and d_b of B.

    log-space statements, ascending spectra, 1-based index set i:
      sum_j log d_{i_j}(A) + log d_j(B)
        <= 2 sum_j log d_{i_j}(A#B)
        <= sum_j log d_{i_j}(A) + log d_{n-j+1}(B)
    plus the full-prefix lower and tail upper bounds with the identity
    index set.
    """
    idx = np.asarray(index_set, dtype=int) - 1
    k = idx.size
    n = d_a.size
    log_m = np.log(d_m)
    log_a = np.log(d_a)
    log_b = np.log(d_b)
    center = 2.0 * float(log_m[idx].sum())
    lower = float(log_a[idx].sum() + log_b[:k].sum())
    upper = float(log_a[idx].sum() + log_b[::-1][:k].sum())
    inst = {"index_set": [int(i) + 1 for i in idx]}
    records = [
        make_record("mlid-lower", center, lower, "ge", tol * max(1.0, abs(center)), inst),
        make_record("mlid-upper", center, upper, "le", tol * max(1.0, abs(center)), inst),
    ]
    for j in range(1, n + 1):
        pre_lhs = 2.0 * float(log_m[:j].sum())
        pre_rhs = float(log_a[:j].sum() + log_b[:j].sum())
        records.append(
            make_record(
                "product-lower-full", pre_lhs, pre_rhs, "ge",
                tol * max(1.0, abs(pre_lhs)), {"prefix": j},
            )
        )
        tail_lhs = 2.0 * float(log_m[j - 1:].sum())
        tail_rhs = float(log_a[j - 1:].sum() + log_b[j - 1:].sum())
        records.append(
            make_record(
                "product-upper-tail", tail_lhs, tail_rhs, "le",
                tol * max(1.0, abs(tail_lhs)), {"tail_from": j},
            )
        )
    return records


def _multiplicative_lidskii_trial(a, b, index_set, planted, tol=1e-9):
    """Records for the mean A # B of a randomized trial: its Riccati
    residual, the product bounds on d(A # B), and, on a planted trial
    (A = B with a constant spectrum), A # B = A."""
    pd_a = check_positive_definite(a)
    pd_b = pd_a if b is a else check_positive_definite(b)
    mean = geometric_mean(pd_a, pd_b)
    # A # B is the unique positive definite solution of G A^-1 G = B
    # (Bhatia, Positive Definite Matrices, 2007, ch. 4).  A plain solve,
    # not the Cholesky factor behind the mean, keeps the check independent
    # of the route it certifies.
    records = [
        make_record(
            "mean-riccati-residual",
            fnorm(mean @ np.linalg.solve(a, mean) - b) / fnorm(b),
            1e-8, "le", 0.0,
        )
    ]
    # The spectra of A and B come from the factors the mean already took.
    d_m = symplectic_eigenvalues(mean)
    d_a = symplectic_eigenvalues(pd_a)
    d_b = d_a if b is a else symplectic_eigenvalues(pd_b)
    records += _product_records(d_m, d_a, d_b, index_set, tol)
    if planted:
        records.append(
            make_record(
                "mean-self-identity",
                float(np.abs(d_m - d_a).max()),
                0.0,
                "le",
                1e-8 * max(1.0, float(d_a.max())),
            )
        )
    return records


def _additive_draw(t, n, rng):
    """(A, B, index set) of a randomized additive trial.

    Every seventh trial plants an equality case: B = A with a prefix
    index set makes both sides coincide.
    """
    a = random_pd(n, rng)
    if t % 7 == 5:
        return a, a, np.arange(1, int(rng.integers(1, n + 1)) + 1)
    return a, random_pd(n, rng), _index_set(n, rng)


def _multiplicative_draw(t, n, rng):
    """(A, B, index set, planted) of a randomized mean trial.

    Every tenth trial is planted: A = B with a constant spectrum and the
    full index set, where the mean is A itself and both product bounds
    collapse to equalities; every fifth trial uses B = A from the
    generic sampler.
    """
    if t % 10 == 7:
        a = random_pd(n, rng, spectrum=np.full(n, float(rng.uniform(0.5, 2.0))))
        return a, a, np.arange(1, n + 1), True
    a = random_pd(n, rng)
    b = a if t % 5 == 3 else random_pd(n, rng)
    return a, b, _index_set(n, rng), False


def additive_trial_records(t, n, rng, tol=1e-9):
    """Records for one randomized additive trial (see _additive_draw)."""
    return additive_lidskii_trial(*_additive_draw(t, n, rng), tol=tol)


def multiplicative_trial_records(t, n, rng, tol=1e-9):
    """Records for one randomized mean trial (see _multiplicative_draw)."""
    return _multiplicative_lidskii_trial(*_multiplicative_draw(t, n, rng), tol=tol)
