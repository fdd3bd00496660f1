"""Extremal characterizations of symplectic eigenvalue sums, products,
and concave functionals, certified by explicit witnesses.

Each check plays both sides of a variational identity: tuples inside
the canonical eigen chain stay above the claimed value (a closed form
for maxmin, sampled tuples for wielandt, the eigen-pair compression for
phi-extremal and det-product, see canonical_chains), while a constructed
witness inside an adversarial chain stays below it, and an explicit
eigen tuple attains it.  The results are returned as
ExtremalCertificate records with every tolerance spelled out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis import (
    SymplecticBasis,
    _constrained_subspace,
    _construct,
    _coords_subspace,
    _prime,
    _sharp_std,
    _unit_in,
    same_span_trace_check,
)
from .core import (
    TUPLE_TOL,
    _checked,
    _gram,
    _symmetric,
    as_generator,
    compress,
    symplectic_inner,
    tuple_form_defect,
    williamson,
)
from .errors import ConstructionError, NumericalContractError, ValidationError, _check_int, _lapack
from .inequalities import (
    _check_index_set,
    schur_concave_monotone_check,
    supermajorize,
)
from .linalg import (
    _CHOLESKY, _QR_R_RAW, _QR_REDUCED, _TRTRS, _eigh, _factor, _real,
    _svdvals, fnorm, orthonormal_columns, subspace_meet,
)

PAIR_FLOOR = 1e-6
SAMPLE_RETRIES = 50


def tuple_value(a, x, y):
    """Mean quadratic energy 0.5 sum_j (x_j A x_j + y_j A y_j) of a symmetric
    (2n, 2n) A, or of a PositiveDefinite as it stands."""
    a = _symmetric(a)
    x, y = _real(x, "tuple columns"), _real(y, "tuple columns")
    if a.shape != (x.shape[0],) * 2:
        raise ValidationError(f"matrix must have shape {(x.shape[0],) * 2}, got {a.shape}")
    return 0.5 * float((x * (a @ x)).sum() + (y * (a @ y)).sum())


def random_orthogonal(dim, rng):
    """Haar-distributed orthogonal matrix via QR (numpy.linalg.qr's
    gufuncs: dgeqrf, dorgqr) with sign correction."""
    a = rng.standard_normal((dim, dim))
    tau = _factor(_QR_R_RAW, "d->d", a)  # leaves R on and above a's diagonal
    return _factor(_QR_REDUCED, "dd->d", a, tau) * np.sign(a.diagonal())


def random_decreasing_chain(dim, sizes, rng):
    """Nested subspaces of the given decreasing sizes, as prefixes of a
    random orthogonal matrix."""
    q = random_orthogonal(dim, rng)
    return [q[:, :s] for s in sizes]


def canonical_chains(basis, index_set):
    """Increasing and decreasing chains built from an eigenbasis.

    For each index i of the index set, which must be strictly increasing
    within [1, n], the increasing chain takes all first-kind columns
    plus the second-kind ones up to i; the decreasing chain takes all
    first-kind columns plus the second-kind ones from i on.

    On an eigenbasis, dual_chain_construct(vchain, wchain, basis, rng)
    can only return tuples that span the selected eigen pairs.  In
    Williamson coordinates, with P_S the span of the eigen pairs with
    index in S, sharp(vchain[j]) = P_{<= i_j} and sharp(wchain[j]) =
    P_{>= i_j}.  The common span S of both tuples and their primes lies
    in P_{<= i_k}, so w_k lies in P_{>= i_k} and S, which is P_{i_k}.
    The v-tuple without v_k spans a 2(k - 1)-space inside P_{< i_k}, so
    S is that space plus P_{i_k}, and the w-tuple without w_k spans the
    same space.  Induction gives S = P_{i_1} + ... + P_{i_k}.  In those
    coordinates sharp(vchain[j]) is the unit columns {1..i_j, n+1..n+i_j}.
    """
    idx = _check_index_set(index_set, basis.n)
    u, v = basis.u, basis.v
    vchain = [np.concatenate([u, v[:, :i]], axis=1) for i in idx]
    wchain = [np.concatenate([u, v[:, i - 1 :]], axis=1) for i in idx]
    return vchain, wchain


def _sample_tuple(bases, rng):
    """Random symplectically normalized tuple threading a decreasing chain,
    given by orthonormal bases that are used as they stand.

    Returns (x, y) with columns (x_j, y_j) in bases[j], <x_i, J x_j> =
    <y_i, J y_j> = 0 and <x_i, J y_j> = delta_ij.  Pairs are drawn from
    the smallest space outward, pair j in the part f of the j-th basis
    skew-orthogonal to the k - j pairs drawn before.  On the chain of an
    index set i_1 < ... < i_k in [1, n] that basis spans 2n - i_j + 1
    dimensions and i_j <= n - (k - j), so dim f >= n - (k - j) + 1 >= 2.
    A partner pairing under PAIR_FLOOR is redrawn, SAMPLE_RETRIES such
    draws restart the whole tuple, and SAMPLE_RETRIES restarts raise.
    """
    k = len(bases)
    dim = bases[0].shape[0]
    for _ in range(SAMPLE_RETRIES):
        chosen = np.zeros((dim, 0))
        xs, ys = [], []
        for j in range(k - 1, -1, -1):
            f = _constrained_subspace(bases[j], chosen)
            x = _unit_in(f, rng)
            for _ in range(SAMPLE_RETRIES):
                z = _unit_in(f, rng)
                s = symplectic_inner(x, z)
                if abs(s) >= PAIR_FLOOR:
                    break
            if abs(s) < PAIR_FLOOR:
                break
            y = z / s
            # Rescaling (x, y) -> (t x, y / t) keeps the pairing; balance
            # the norms so neither vector dominates the energy sum.
            t = np.sqrt(fnorm(y))
            x, y = x * t, y / t
            chosen = np.concatenate([chosen, x[:, None], y[:, None]], axis=1)
            xs.append(x)
            ys.append(y)
        if len(xs) < k:
            continue
        x_set = np.stack(xs[::-1], axis=1)
        y_set = np.stack(ys[::-1], axis=1)
        if tuple_form_defect(x_set, y_set) <= TUPLE_TOL:
            return x_set, y_set
    raise ConstructionError("failed to sample a normalized tuple in the chain")


def poincare_witness(m_sub, basis, a):
    """Normalized pair (u, u') of largest energy in the witness space of
    a subspace of dimension 2n - k + 1.

    That space is the sharp part of the intersection of m_sub with the
    span of all first-kind columns and the first k second-kind ones (in
    coordinates, one subspace_meet with unit columns n+k+1..2n), so
    it holds an invariant plane, and when basis diagonalizes A with
    ascending block spectrum d no pair in it has energy above d_k, the
    claim the caller certifies.  u is g times the top eigenvector of
    0.5 (U^T A U + U'^T A U') for an orthonormal coordinate basis g of
    the space, U = lift(g) and U' = lift(prime(g)), so <u, J u'> is the
    basis norm of u, which is 1.  A must be positive definite, and a
    PositiveDefinite is taken as it stands.
    """
    n = basis.n
    a = _checked(a).a
    if a.shape != (2 * n,) * 2:
        raise ValidationError(f"matrix must have shape {(2 * n,) * 2}, got {a.shape}")
    m_sub = _real(m_sub, "subspace basis")
    # _coords_subspace refuses an m_sub that is not 2-D with 2n rows.
    mc = _coords_subspace(m_sub, basis)
    k = 2 * n - m_sub.shape[1] + 1
    if not 1 <= k <= n:
        raise ValidationError(
            f"subspace dimension {m_sub.shape[1]} does not match any index"
        )
    g = _sharp_std(subspace_meet(mc, np.eye(2 * n)[:, n + k :]))
    if g.shape[1] == 0:
        raise ConstructionError(
            "witness search failed: no invariant plane in the canonical intersection"
        )
    u, u_prime = basis.cols @ g, basis.cols @ _prime(g)
    c = 0.5 * (u.T @ a @ u + u_prime.T @ a @ u_prime)
    uc = g @ _eigh(c)[1][:, -1]
    return basis.cols @ uc, basis.cols @ _prime(uc)


@dataclass
class ExtremalCertificate:
    """Outcome of one two-sided extremal check.

    claimed_value is the closed-form target; sampled_min tracks the
    floor established on the canonical side, witness_max the ceiling
    from adversarial witnesses, equality_gap the defect of the explicit
    attaining tuple.  slack is the worst oriented margin across all
    enforced comparisons (negative means a violation).
    """

    name: str
    claimed_value: float
    sampled_min: Optional[float]
    witness_max: Optional[float]
    equality_gap: Optional[float]
    slack: float
    n_samples: int
    n_chains: int
    n_skipped: int
    passed: bool


def _finish(name, claimed, slacks, *, sampled_min=None, witness_max=None,
            equality_gap=None, n_samples=0, n_chains=0, n_skipped=0):
    """Certificate with the worst slack; it also fails when more than half
    of the attempted constructions (chains, else samples) were skipped."""
    slack = float(min(slacks)) if slacks else 0.0
    skip_cap = max(1, (n_chains or n_samples) // 2)
    passed = bool(slack >= 0.0 and n_skipped <= skip_cap)
    return ExtremalCertificate(name, float(claimed), sampled_min, witness_max,
                               equality_gap, slack, n_samples, n_chains,
                               n_skipped, passed)


def _eigen_frame(a, index_set):
    """(pd, d, basis, idx, wchain): check_positive_definite(a), checked
    once for the whole certificate, the Williamson spectrum and
    eigenbasis of A, the index set as an int array, which
    canonical_chains has validated, and its canonical decreasing chain."""
    pd = _checked(a)
    dec = williamson(pd)
    basis = SymplecticBasis(dec.m)
    wchain = canonical_chains(basis, index_set)[1]
    return pd, dec.d, basis, np.asarray(index_set, dtype=int), wchain


def _sampled_floor(a, chain, claimed, samples, rng, tol):
    """Energies of tuples sampled in the chain, and their slacks above
    the claim.  The chain is orthonormalised once for all samples."""
    scale = max(1.0, abs(claimed))
    bases = [orthonormal_columns(w) for w in chain]
    values = [tuple_value(a, *_sample_tuple(bases, rng)) for _ in range(samples)]
    return values, [val - claimed + tol * scale for val in values]


def _chain_tuples(idx, basis, count, rng):
    """Dual-chain tuples (vs, ws) on the exact frame of canonical_chains'
    increasing chain and count fresh random decreasing chains, and the
    number of attempts skipped on a ConstructionError or on a built tuple
    that failed its contract."""
    eye, pair = np.eye(2 * basis.n), np.arange(2 * basis.n) % basis.n
    vsharp, vperp = [eye[:, pair < i] for i in idx], [eye[:, pair >= i] for i in idx]
    sizes = [2 * basis.n - i + 1 for i in idx]
    tuples, n_skipped = [], 0
    for _ in range(count):
        chain = random_decreasing_chain(2 * basis.n, sizes, rng)
        try:
            wsharp = [_sharp_std(_coords_subspace(w, basis)) for w in chain]
            tuples.append(_construct(vsharp, vperp, wsharp, basis, rng))
        except (ConstructionError, NumericalContractError):
            n_skipped += 1
    return tuples, n_skipped


def _pair_floor(a, w):
    """Least energy 0.5 (x^T A x + y^T A y) of x, y in span(w) with
    <x, J y> = 1, from A and J alone: with G an orthonormal basis of
    span(w) and G^T A G = L L^T, it is 1 / sigma_max(L^-1 G^T J G L^-T)."""
    g = orthonormal_columns(w)
    low = _factor(_CHOLESKY, "d->d", g.T @ a @ g)
    half = _lapack(_TRTRS, "triangular solve", low, _gram(g, g), lower=1)
    full = _lapack(_TRTRS, "triangular solve", low, half.T, lower=1)
    return 1.0 / float(_svdvals(full)[0])


def maxmin_check(a, k, n_subspaces=20, rng=None, tol=1e-9):
    """Two-sided certificate for the k-th block eigenvalue.

    Over the canonical subspace the least energy of a normalized pair is
    at least d_k and the k-th eigen pair attains it; in every random
    subspace of the same dimension the highest-energy witness pair stays
    at most d_k.  The witness slack is the one check of that last
    bound, so a witness above d_k fails the certificate.
    """
    n_subspaces = _check_int("n_subspaces", n_subspaces, minimum=1)
    rng = as_generator(rng)
    pd, d, basis, idx, wchain = _eigen_frame(a, [k])
    k = int(idx[0])
    claimed = float(d[k - 1])
    scale = max(1.0, abs(claimed))
    floor = _pair_floor(pd.a, wchain[0])
    equality_gap = abs(tuple_value(pd, basis.u[:, k - 1], basis.v[:, k - 1]) - claimed)
    slacks = [floor - claimed + tol * scale, 1e-10 * scale - equality_gap]

    witness_vals, n_skipped = [], 0
    for _ in range(n_subspaces):
        m_sub = random_orthogonal(2 * d.size, rng)[:, : wchain[0].shape[1]]
        try:
            u, v = poincare_witness(m_sub, basis, pd)
        except ConstructionError:
            n_skipped += 1
            continue
        witness_vals.append(tuple_value(pd, u, v))
    slacks += [claimed - val + tol * scale for val in witness_vals]

    return _finish(
        f"maxmin-{k}", claimed, slacks, sampled_min=floor,
        witness_max=max(witness_vals, default=None), equality_gap=equality_gap,
        n_chains=n_subspaces, n_skipped=n_skipped,
    )


def wielandt_certify(a, index_set, n_chains=20, samples=40, rng=None,
                     tol=1e-9, eq_tol=1e-10):
    """Two-sided certificate for a partial sum of block eigenvalues.

    Canonical-chain tuples keep their energy above the claimed sum, the
    eigen tuple attains it, and for every random decreasing chain the
    constructed witness pairs (w_j, w_j') push the energy back below
    the claim, with the trace identity between the two equal-span
    constructed tuples checked on the way.
    """
    n_chains = _check_int("n_chains", n_chains, minimum=1)
    samples = _check_int("samples", samples, minimum=1)
    rng = as_generator(rng)
    pd, d, basis, idx, wchain = _eigen_frame(a, index_set)
    claimed = float(d[idx - 1].sum())
    scale = max(1.0, abs(claimed))
    values, slacks = _sampled_floor(pd, wchain, claimed, samples, rng, tol)

    eig_val = tuple_value(pd, basis.u[:, idx - 1], basis.v[:, idx - 1])
    equality_gap = abs(eig_val - claimed)
    slacks.append(eq_tol * scale - equality_gap)

    tuples, n_skipped = _chain_tuples(idx, basis, n_chains, rng)
    witness_vals = []
    for vs, ws in tuples:
        witness_vals.append(tuple_value(pd, ws, basis.prime(ws)))
        same_span_trace_check(pd, ws, vs, basis)
    slacks += [claimed - val + tol * scale for val in witness_vals]

    return _finish(
        "wielandt", claimed, slacks, sampled_min=min(values, default=None),
        witness_max=max(witness_vals, default=None), equality_gap=equality_gap,
        n_samples=samples, n_chains=n_chains, n_skipped=n_skipped,
    )


def phi_extremal_check(a, index_set, phi, n_chains=12, rng=None, tol=1e-9,
                       validate_phi=True):
    """Extremal certificate for a Schur-concave monotone functional.

    On the canonical chains every constructed tuple spans the selected
    eigen pairs (canonical_chains), so the canonical side is their
    compression: its spectrum dominates the selected eigenvalues
    elementwise, phi stays above the claim and attains it (the equality
    gap), and its log-determinant clears the squared-product floor.
    Against random chains the compression spectrum is weakly
    supermajorized by the half-trace vector of the increasing-chain side,
    whose entries are capped by the selected eigenvalues, so phi stays
    below the claim.  With validate_phi, phi first passes a 120-draw
    audit of the properties the claim needs, drawn from rng before the
    certificate's own draws; the audit evaluates phi.fn on batches, so
    fn must map shape (..., n) to shape (...), and a fn that does not is
    refused with a ValidationError.  The phi-extremal suite draws only
    the shipped functionals, whose audit is a tier-1 test, and certifies
    with validate_phi=False.
    """
    n_chains = _check_int("n_chains", n_chains, minimum=1)
    rng = as_generator(rng)
    if validate_phi:
        audit = schur_concave_monotone_check(phi, trials=120, rng=rng)
        if not audit.ok:
            kinds = sorted({c["kind"] for c in audit.counterexamples})
            raise ValidationError(f"functional {phi.name!r} failed its audit: {', '.join(kinds)}")
    pd, d, basis, idx, _ = _eigen_frame(a, index_set)
    a = pd.a
    d_target = d[idx - 1]
    claimed = float(phi(d_target))
    scale = max(1.0, abs(claimed))

    a_eig, d_eig = compress(pd, basis.u[:, idx - 1], basis.v[:, idx - 1])
    slacks = [float(de - t + tol * max(1.0, t)) for t, de in zip(d_target, d_eig)]
    phi_eig = float(phi(d_eig))
    slacks.append(phi_eig - claimed + tol * scale)
    sign, logdet = np.linalg.slogdet(a_eig)
    target_log = 2.0 * float(np.log(d_target).sum())
    slacks.append(float(sign) * logdet - target_log - np.log1p(-1e-8))
    equality_gap = abs(phi_eig - claimed)
    slacks.append(1e-9 * scale - equality_gap)

    tuples, n_skipped = _chain_tuples(idx, basis, n_chains, rng)
    chain_vals = []
    for vs, ws in tuples:
        vs_prime = basis.prime(vs)
        alpha = 0.5 * ((vs * (a @ vs)).sum(axis=0) + (vs_prime * (a @ vs_prime)).sum(axis=0))
        slacks.extend(float(t - al + tol * max(1.0, t)) for al, t in zip(alpha, d_target))
        d_u = compress(pd, ws, basis.prime(ws))[1]
        if not supermajorize(alpha, d_u, atol=tol * max(1.0, float(d_u.max()))):
            slacks.append(-1.0)
        phi_alpha = float(phi(np.sort(alpha)))
        phi_u = float(phi(d_u))
        slacks.append(phi_alpha - phi_u + tol * scale)
        slacks.append(claimed - phi_u + tol * scale)
        chain_vals.append(phi_u)

    return _finish(
        f"phi-extremal-{phi.name}", claimed, slacks, sampled_min=phi_eig,
        witness_max=max(chain_vals, default=None), equality_gap=equality_gap,
        n_chains=n_chains, n_skipped=n_skipped,
    )


def det_product_check(a, index_set):
    """Minimum certificate for the compression determinant.

    Every compression that the dual-chain construction builds on the
    canonical chains spans the selected eigen pairs (canonical_chains),
    and a symplectic change of basis keeps its determinant, so the
    canonical side is the eigen-pair compression alone: its
    log-determinant must equal that of the squared product of the
    selected eigenvalues to 1e-8.  Works in log space throughout.
    """
    pd, d, basis, idx, _ = _eigen_frame(a, index_set)
    claimed_log = 2.0 * float(np.log(d[idx - 1]).sum())
    a_eig = compress(pd, basis.u[:, idx - 1], basis.v[:, idx - 1])[0]
    sign, logdet = np.linalg.slogdet(a_eig)
    eig_log = float(sign) * logdet
    equality_gap = abs(eig_log - claimed_log)
    return _finish("det-product", claimed_log, [1e-8 - equality_gap],
                   sampled_min=eig_log, equality_gap=equality_gap)
