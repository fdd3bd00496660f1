"""Eigenvalue inequalities for sums and geometric means, plus the
majorization utilities used to state and test them.

All comparisons run on ascending spectra.  Randomized trials return
InequalityRecord entries; a verify report stores each one as it stands,
plus the trial and block size n it came from, so every checked instance
is serialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import as_generator, check_positive_definite, random_pd, symplectic_eigenvalues
from .errors import NumericalContractError, ValidationError
from .linalg import _FLAPACK, fnorm, sym_eig

_SYGST = _FLAPACK.dsygst


def geometric_mean(a, b):
    """Geometric mean A # B = L (L^-1 B L^-T)^(1/2) L^T, where A = L L^T.

    This is A^(1/2) (A^(-1/2) B A^(-1/2))^(1/2) A^(1/2) with the Cholesky
    factor in place of the square root (Bhatia, Positive Definite
    Matrices, 2007, ch. 4; Iannazzo, "The geometric mean of two matrices
    from a computational viewpoint", Numer. Linear Algebra Appl. 23,
    2016).  LAPACK dsygst forms C = L^-1 B L^-T, one symmetric eigensolve
    C = V diag(w) V^T follows, and the mean is F F^T with
    F = L V diag(w^(1/4)).
    """
    low = check_positive_definite(a)[1]
    b = check_positive_definite(b)[0]
    c, info = _SYGST(b, low, lower=1)
    if info != 0:
        raise NumericalContractError(f"congruence reduction failed: LAPACK info {info}")
    # dsygst writes the lower triangle of C only.
    c = np.tril(c)
    w, v = sym_eig(c + np.tril(c, -1).T)
    if w[0] <= 0.0:
        raise ValidationError(
            f"L^-1 B L^-T is not positive definite: smallest eigenvalue {w[0]:.6e}"
        )
    f = low @ (v * np.sqrt(np.sqrt(w)))
    out = f @ f.T
    return 0.5 * (out + out.T)


def supermajorize(a, b, atol=0.0):
    """True when every ascending partial sum of a is >= that of b."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return bool(np.all(np.cumsum(a) >= np.cumsum(b) - atol))


def majorize(a, b, atol=0.0):
    """Supermajorization plus equality of the total sums."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not supermajorize(a, b, atol=atol):
        return False
    gap = abs(float(np.sum(a)) - float(np.sum(b)))
    return gap <= max(atol, 1e-12 * max(1.0, abs(float(np.sum(a)))))


def random_majorization_pair(n, rng):
    """(a, b) with a majorized by b: a is b averaged over permutations."""
    b = rng.uniform(0.1, 3.0, size=n)
    weights = rng.dirichlet(np.ones(max(2, n)))
    a = np.zeros(n)
    for w in weights:
        a += w * rng.permutation(b)
    return a, b


def random_supermajorization_pair(n, rng):
    """(a, b) with a supermajorizing b, not necessarily equal sums.

    Averaging raises every ascending partial sum, so the averaged
    vector plus a nonnegative lift dominates the original.
    """
    averaged, original = random_majorization_pair(n, rng)
    lift = rng.uniform(0.0, 0.5, size=n)
    return averaged + lift, original


def random_dominated_pair(n, rng):
    """(a, b) with a >= b elementwise after ascending sort."""
    b = np.sort(rng.uniform(0.1, 3.0, size=n))
    return b + rng.uniform(0.0, 1.0, size=n), b


@dataclass
class PhiCheckResult:
    ok: bool
    counterexamples: list = field(default_factory=list)


def schur_concave_monotone_check(phi, trials=200, rng=None):
    """Randomized audit of the properties a spectral functional needs.

    Checks Schur concavity (majorization reverses under phi), weak
    monotonicity, permutation invariance, and the composite conclusion
    phi(a) >= phi(b) whenever a supermajorizes b with a, b positive and
    sorted ascending.  Any violation is recorded with its instance.
    """
    rng = as_generator(rng)
    result = PhiCheckResult(ok=True)

    def record(kind, a, b, va, vb):
        result.ok = False
        result.counterexamples.append(
            {"kind": kind, "a": list(map(float, a)), "b": list(map(float, b)),
             "phi_a": va, "phi_b": vb}
        )

    for _ in range(trials):
        n = int(rng.integers(2, 7))
        scale = lambda x: 1e-10 * max(1.0, abs(x))

        a, b = random_majorization_pair(n, rng)
        va, vb = phi(a), phi(b)
        if va < vb - scale(vb):
            record("schur-concavity", a, b, va, vb)

        hi, lo = random_dominated_pair(n, rng)
        vhi, vlo = phi(hi), phi(lo)
        if vhi < vlo - scale(vlo):
            record("monotonicity", hi, lo, vhi, vlo)

        x = rng.uniform(0.1, 3.0, size=n)
        px = rng.permutation(x)
        vx, vp = phi(x), phi(px)
        if abs(vx - vp) > scale(vx):
            record("permutation-invariance", x, px, vx, vp)

        up, down = random_supermajorization_pair(n, rng)
        vu, vd = phi(up), phi(down)
        if vu < vd - scale(vd):
            record("supermajorization-conclusion", up, down, vu, vd)

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


def additive_lidskii_trial(a, b, index_set, tol=1e-9):
    """Records for sum_j d_{i_j}(A+B) >= sum_j d_{i_j}(A) + sum_j d_j(B).

    Also checks the full-index weak supermajorization of d(A+B) by
    d(A) + d(B) that the k = n case implies.
    """
    d_sum = symplectic_eigenvalues(a + b)
    d_a = symplectic_eigenvalues(a)
    d_b = symplectic_eigenvalues(b)
    idx = np.asarray(index_set, dtype=int) - 1
    k = idx.size
    lhs = float(np.sum(d_sum[idx]))
    rhs = float(np.sum(d_a[idx]) + np.sum(d_b[:k]))
    scale = max(1.0, abs(lhs))
    records = [
        make_record(
            "additive-lower", lhs, rhs, "ge", tol * scale,
            instance={"index_set": [int(i) + 1 for i in idx]},
        )
    ]
    n = d_a.size
    full = float(np.sum(d_sum))
    records.append(
        make_record(
            "additive-full-prefix",
            full,
            float(np.sum(d_a) + np.sum(d_b)),
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
    center = 2.0 * float(np.sum(log_m[idx]))
    lower = float(np.sum(log_a[idx]) + np.sum(log_b[:k]))
    upper = float(np.sum(log_a[idx]) + np.sum(log_b[::-1][:k]))
    inst = {"index_set": [int(i) + 1 for i in idx]}
    records = [
        make_record("mlid-lower", center, lower, "ge", tol * max(1.0, abs(center)), inst),
        make_record("mlid-upper", center, upper, "le", tol * max(1.0, abs(center)), inst),
    ]
    for j in range(1, n + 1):
        pre_lhs = 2.0 * float(np.sum(log_m[:j]))
        pre_rhs = float(np.sum(log_a[:j]) + np.sum(log_b[:j]))
        records.append(
            make_record(
                "product-lower-full", pre_lhs, pre_rhs, "ge",
                tol * max(1.0, abs(pre_lhs)), {"prefix": j},
            )
        )
        tail_lhs = 2.0 * float(np.sum(log_m[j - 1:]))
        tail_rhs = float(np.sum(log_a[j - 1:]) + np.sum(log_b[j - 1:]))
        records.append(
            make_record(
                "product-upper-tail", tail_lhs, tail_rhs, "le",
                tol * max(1.0, abs(tail_lhs)), {"tail_from": j},
            )
        )
    return records


def additive_trial_records(t, n, rng, tol=1e-9):
    """Records for one randomized additive trial.

    Every seventh trial plants an equality case: B = A with a prefix
    index set makes both sides coincide.
    """
    a = random_pd(n, rng)
    if t % 7 == 5:
        b = a
        idx = np.arange(1, int(rng.integers(1, n + 1)) + 1)
    else:
        b = random_pd(n, rng)
        idx = _index_set(n, rng)
    return additive_lidskii_trial(a, b, idx, tol=tol)


def multiplicative_trial_records(t, n, rng, tol=1e-9):
    """Records for one randomized mean trial, with planted equalities.

    Every tenth trial uses A = B with a constant spectrum and the full
    index set, where the mean is A itself and both product bounds
    collapse to equalities; every fifth trial uses B = A from the
    generic sampler.
    """
    if t % 10 == 7:
        spectrum = np.full(n, float(rng.uniform(0.5, 2.0)))
        a = random_pd(n, rng, spectrum=spectrum)
        b = a
        idx = np.arange(1, n + 1)
    elif t % 5 == 3:
        a = random_pd(n, rng)
        b = a
        idx = _index_set(n, rng)
    else:
        a = random_pd(n, rng)
        b = random_pd(n, rng)
        idx = _index_set(n, rng)
    mean = geometric_mean(a, b)
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
    d_m = symplectic_eigenvalues(mean)
    d_a = symplectic_eigenvalues(a)
    d_b = d_a if b is a else symplectic_eigenvalues(b)
    records += _product_records(d_m, d_a, d_b, idx, tol)
    if t % 10 == 7:
        records.append(
            make_record(
                "mean-self-identity",
                float(np.max(np.abs(d_m - d_a))),
                0.0,
                "le",
                1e-8 * max(1.0, float(np.max(d_a))),
            )
        )
    return records
