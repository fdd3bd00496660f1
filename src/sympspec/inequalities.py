"""Eigenvalue inequalities for sums and geometric means, plus the
majorization utilities used to state and test them.

All comparisons run on ascending spectra.  Randomized trials return
InequalityRecord entries; a verify report stores each one as it stands,
plus the trial and block size n it came from, so every checked instance
is serialized.

The two Lidskii suites certify all their trials at once
(_trial_outcomes).  A trial's plan is a generator that asks for its
matrix work in batches, (fn, arrays), and _run_plans runs every trial's
plan beside the others, so each batch of all trials takes one call of
fn's stack form per size: the checks of A, B and A + B
(core.check_positive_definite) and, as each plan's last batch, the
spectra (core._factor_spectra); a mean is formed between the two, one
trial at a time (_mean_factor).  A stack builds whole or raises, and one
that raises is taken again one matrix at a time
(errors._whole_or_alone), so each matrix keeps the bits and the verdict
it gets alone, and the trials' errors are raised in the order a
trial-by-trial run meets them.  Each trial's records take their prefix,
tail and index-set sums from whole-array reductions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .core import (
    _checked,
    _factor_spectra,
    as_generator,
    check_positive_definite,
    half_dim,
    random_pd,
)
from .errors import (
    _TRIAL_ERRORS, NumericalContractError, ValidationError, _bound, _check_atol, _check_int,
    _check_tol, _lapack, _scaled, _value, _whole_or_alone,
)
from .linalg import _SYGST, _below, _check_finite, _real, check_square, fnorm, sym_eig


def geometric_mean(a, b):
    """Geometric mean A # B = L (L^-1 B L^-T)^(1/2) L^T, where A = L L^T.

    This is A^(1/2) (A^(-1/2) B A^(-1/2))^(1/2) A^(1/2) with the Cholesky
    factor in place of the square root (Bhatia, Positive Definite
    Matrices, 2007, ch. 4; Iannazzo, "The geometric mean of two matrices
    from a computational viewpoint", Numer. Linear Algebra Appl. 23,
    2016).  A B that is A is checked once; _mean_factor forms the mean.
    """
    pd_a = _checked(a)
    return _mean_factor(pd_a, pd_a if b is a else _checked(b))[0]


def _mean_factor(pd_a, pd_b):
    """(A # B, F) with A # B = F F^T, for two PositiveDefinite values.

    LAPACK dsygst forms C = L^-1 B L^-T, one symmetric eigensolve
    C = V diag(w) V^T follows (linalg.sym_eig), and F = L V diag(w^(1/4)).
    F is a factor of the mean as core._factor_spectra takes it, so
    d(A # B) needs no check or Cholesky factorization of the mean.
    """
    _check_same_size(pd_a.a, pd_b.a)
    c = _lapack(_SYGST, "congruence reduction", pd_b.a, pd_a.low, lower=1)
    # dsygst writes the lower triangle of C only.
    below = _below(c.shape[0])
    c = np.where(below.T, 0.0, c)
    w, v = sym_eig(c + np.where(below, c, 0.0).T)
    if w[0] <= 0.0:
        raise ValidationError(
            f"L^-1 B L^-T is not positive definite: smallest eigenvalue {w[0]:.6e}"
        )
    f = pd_a.low @ (v * np.sqrt(np.sqrt(w)))
    # F F^T is formed exactly symmetric, as random_pd's Wishart draw is.
    return f @ f.T, f


def _run_plans(plans):
    """What each plan returns, or the exception it raised, in plan order.

    A plan is a generator that yields each batch of work it needs as
    (fn, arrays), where fn maps a stack of same-shape arrays to the list
    of their results, and is sent back the list of its arrays' outcomes:
    each array's result, or the ValidationError or NumericalContractError
    that refused it alone (errors._value reads one).  The plans run side
    by side, so the arrays that all plans ask fn for in one round are
    stacked by shape, one errors._whole_or_alone call of fn per shape.
    The Lidskii plans ask for their checks and, last, their spectra this
    way.  An exception that a plan raises is kept whatever its type, and
    the plan's work ends there, so that the caller can raise the first
    one in plan order, as running the plans one after another would.
    """
    outcomes = [None] * len(plans)
    replies = dict.fromkeys(range(len(plans)))
    while replies:
        asked = {}
        for i, reply in replies.items():
            try:
                fn, arrays = plans[i].send(reply)
            except StopIteration as done:
                outcomes[i] = done.value
            except Exception as exc:
                outcomes[i] = exc
            else:
                asked.setdefault(fn, []).append((i, arrays))
        replies = {}
        for fn, requests in asked.items():
            held = {}
            for i, arrays in requests:
                replies[i] = [None] * len(arrays)
                for j, x in enumerate(arrays):
                    held.setdefault(x.shape, []).append((i, j, x))
            for group in held.values():
                stack = np.stack([x for _, _, x in group])
                for (i, j, _), outcome in zip(group, _whole_or_alone(
                        fn, stack, (NumericalContractError, ValidationError))):
                    replies[i][j] = outcome
    return outcomes


def _check_same_size(a, b):
    if np.shape(a) != np.shape(b):
        raise ValidationError(f"A and B differ in size: {np.shape(a)} vs {np.shape(b)}")


def supermajorize(a, b, atol=0.0):
    """True when every ascending partial sum of a is >= that of b, to
    the absolute margin atol."""
    a, b, atol = _real(a, "vectors"), _real(b, "vectors"), _check_atol("atol", atol)
    if a.ndim != 1 or b.ndim != 1:
        raise ValidationError(f"vectors must be 1-D, got shapes {a.shape} and {b.shape}")
    if a.shape != b.shape:
        raise ValidationError(f"length mismatch: {a.shape} vs {b.shape}")
    _check_finite(a, "vectors")
    _check_finite(b, "vectors")
    return bool((np.sort(a).cumsum() >= np.sort(b).cumsum() - atol).all())


def majorize(a, b, atol=0.0):
    """Supermajorization plus equality of the total sums."""
    a, b, atol = _real(a, "vectors"), _real(b, "vectors"), _check_atol("atol", atol)
    if not supermajorize(a, b, atol=atol):
        return False
    gap = abs(float(a.sum()) - float(b.sum()))
    return gap <= max(atol, _bound("sum gap", abs(float(a.sum()))))


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
                bad = np.abs(va - vb) > _bound("audit", np.abs(va))
            else:
                bad = va < vb - _bound("audit", np.abs(vb))
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
    d(A) + d(B) that the k = n case implies.  The certify step of the
    lidskii-add suite on a list of one trial (_trial_outcomes).
    """
    tol = _check_tol("tol", tol)
    return _value(_trial_outcomes(_additive_plan, [(a, b, index_set)], tol)[0])


def _additive_plan(a, b, index_set, tol):
    """An additive trial's plan (see _run_plans): it checks A + B, A and,
    unless B is A, B in one batch, takes their spectra from their factors
    in a second, and returns the trial's records.  A and B are taken as
    square matrices first, so that a refusal names their own shapes."""
    a, b = check_square(a), check_square(b)
    _check_same_size(a, b)
    pd_sum, *pds = yield check_positive_definite, [a + b, a] + ([] if b is a else [b])
    pd_sum = _value(pd_sum)
    n = half_dim(pd_sum.a)
    factors = [pd_sum.low] + [_value(pd).low for pd in pds]
    idx = _check_index_set(index_set, n) - 1
    d_sum, d_a, *d_b = map(_value, (yield _factor_spectra, factors))
    return _additive_records(idx, tol, d_sum, d_a, d_b[0] if d_b else d_a)


def _additive_records(idx, tol, d_sum, d_a, d_b):
    """additive_lidskii_trial's records from d(A + B), d(A) and d(B);
    idx is the 0-based index set."""
    k = idx.size
    part = np.add.reduce(np.array([d_sum[idx], d_a[idx], d_b[:k]]), axis=1).tolist()
    full = np.add.reduce(np.array([d_sum, d_a, d_b]), axis=1).tolist()
    lhs = part[0]
    n = d_a.size
    return [
        make_record(
            "additive-lower", lhs, part[1] + part[2], "ge", _scaled(tol, abs(lhs)),
            instance={"index_set": [int(i) + 1 for i in idx]},
        ),
        make_record(
            "additive-full-prefix", full[0], full[1] + full[2], "ge",
            _scaled(tol, full[0]), instance={"index_set": list(range(1, n + 1))},
        ),
    ]


def _product_records(d_m, d_a, d_b, index_set, tol):
    """Records for the two-sided product bounds on d(A # B), in logs,
    from the spectra d_m of A # B, d_a of A and d_b of B.

    log-space statements, ascending spectra, 1-based index set i:
      sum_j log d_{i_j}(A) + log d_j(B)
        <= 2 sum_j log d_{i_j}(A#B)
        <= sum_j log d_{i_j}(A) + log d_{n-j+1}(B)
    plus the full-prefix lower and tail upper bounds with the identity
    index set.  The sums come from two whole-array reductions: the
    index-set sums from the stacked rows, each prefix and each tail from
    the rows of the three logs masked below or above the diagonal.  Below
    n = 8 numpy adds a row in order, so its zeros change no bit and each
    sum has the bits of the slice's own sum; from n = 8 on its pairwise
    summation groups the terms otherwise, and a sum can move at rounding
    level.
    """
    idx = np.asarray(index_set, dtype=int) - 1
    k = idx.size
    n = d_a.size
    # Each spectrum takes its own log: np.log of a reversed view, as
    # linalg._skew_spectrum returns d, can round apart from the log of a copy.
    logs = np.array([np.log(d_m), np.log(d_a), np.log(d_b)])
    log_m, log_a, log_b = logs
    center, at_a, low_b, top_b = np.add.reduce(
        np.array([log_m[idx], log_a[idx], log_b[:k], log_b[::-1][:k]]), axis=1).tolist()
    center *= 2.0
    inst = {"index_set": [int(i) + 1 for i in idx]}
    records = [
        make_record("mlid-lower", center, at_a + low_b, "ge", _scaled(tol, abs(center)), inst),
        make_record("mlid-upper", center, at_a + top_b, "le", _scaled(tol, abs(center)), inst),
    ]
    below = _below(n)
    prefixes, tails = np.add.reduce(
        np.where(np.array([below.T, below])[:, None], 0.0, logs[:, None, :]), axis=3).tolist()
    for j, (pm, pa, pb, tm, ta, tb) in enumerate(zip(*prefixes, *tails), 1):
        records.append(
            make_record(
                "product-lower-full", 2.0 * pm, pa + pb, "ge",
                _scaled(tol, abs(2.0 * pm)), {"prefix": j},
            )
        )
        records.append(
            make_record(
                "product-upper-tail", 2.0 * tm, ta + tb, "le",
                _scaled(tol, abs(2.0 * tm)), {"tail_from": j},
            )
        )
    return records


def _multiplicative_plan(a, b, index_set, planted, tol):
    """A mean trial's plan (see _run_plans): it checks A and, unless B is
    A, B in one batch, forms the mean with _mean_factor, takes the
    spectra of A # B, A and B from their factors in a second batch, and
    returns the trial's records: the Riccati residual of the mean, the
    product bounds on d(A # B), and, on a planted trial (A = B with a
    constant spectrum), A # B = A.  The mean's spectrum comes from the
    factor F it is formed with."""
    pd_a, *pds = yield check_positive_definite, [a] + ([] if b is a else [b])
    pd_a = _value(pd_a)
    pd_b = _value(pds[0]) if pds else pd_a
    half_dim(pd_a.a)
    mean, f = _mean_factor(pd_a, pd_b)
    # A # B is the unique positive definite solution of G A^-1 G = B
    # (Bhatia, Positive Definite Matrices, 2007, ch. 4).  A plain solve,
    # not the Cholesky factor behind the mean, keeps the check independent
    # of the route it certifies.
    riccati = fnorm(mean @ np.linalg.solve(a, mean) - b) / fnorm(b)
    factors = [f, pd_a.low] + ([] if b is a else [pd_b.low])
    d_m, d_a, *d_b = map(_value, (yield _factor_spectra, factors))
    return _multiplicative_records(riccati, index_set, planted, tol, d_m, d_a,
                                   d_b[0] if d_b else d_a)


def _multiplicative_records(riccati, index_set, planted, tol, d_m, d_a, d_b):
    """A mean trial's records from d(A # B), d(A) and d(B)."""
    records = [make_record("mean-riccati-residual", riccati, _bound("mean riccati residual"),
                           "le", 0.0)]
    records += _product_records(d_m, d_a, d_b, index_set, tol)
    if planted:
        records.append(make_record("mean-self-identity", float(np.abs(d_m - d_a).max()), 0.0,
                                   "le", _bound("mean self identity", float(d_a.max()))))
    return records


def _trial_outcomes(plan, instances, tol):
    """Each trial's records, or the contract error that ended it, for
    the instances of a Lidskii suite; an instance that is already such
    an error stays one.

    plan(*instance, tol) is a trial's plan (see _run_plans), and every
    trial's plan runs beside the others, so each batch of all trials
    takes one pass per size: the checks of their matrices
    (check_positive_definite) and the spectra (core._factor_spectra).  An
    error that is not a contract error is raised, the first in trial
    order, whichever batch or step it came from, as running the plans one
    trial after another would raise it; a contract error ends its trial
    only.
    """
    ran = iter(_run_plans([plan(*x, tol) for x in instances if not isinstance(x, Exception)]))
    outcomes = [x if isinstance(x, Exception) else next(ran) for x in instances]
    for p in outcomes:
        if isinstance(p, Exception) and not isinstance(p, _TRIAL_ERRORS):
            raise p
    return outcomes


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
    tol = _check_tol("tol", tol)
    instance = _multiplicative_draw(t, n, rng)
    return _value(_trial_outcomes(_multiplicative_plan, [instance], tol)[0])
