"""Extremal characterizations of symplectic eigenvalue sums, products,
and concave functionals, certified by explicit witnesses.

Each check plays both sides of a variational identity: tuples sampled
inside the canonical eigen chain stay above the claimed value, while a
constructed witness inside an adversarial chain stays below it, and an
explicit eigen tuple attains it.  The results are returned as
ExtremalCertificate records with every tolerance spelled out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis import (
    SymplecticBasis,
    _constrained_subspace,
    _coords_subspace,
    _sharp_std,
    _unit_in,
    dual_chain_construct,
    prime_coords,
    same_span_trace_check,
)
from .core import (
    TUPLE_TOL,
    as_generator,
    compress,
    symplectic_inner,
    tuple_form_defect,
    williamson,
)
from .errors import ConstructionError, ValidationError
from .inequalities import schur_concave_monotone_check, supermajorize
from .linalg import orthonormal_columns, subspace_intersect

PAIR_FLOOR = 1e-6
SAMPLE_RETRIES = 50


def tuple_value(a, x, y):
    """Mean quadratic energy 0.5 sum_j (x_j A x_j + y_j A y_j)."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return 0.5 * float(np.sum(x * (a @ x)) + np.sum(y * (a @ y)))


def random_orthogonal(dim, rng):
    """Haar-distributed orthogonal matrix via QR with sign correction."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def random_decreasing_chain(dim, sizes, rng):
    """Nested subspaces of the given decreasing sizes, as prefixes of a
    random orthogonal matrix."""
    q = random_orthogonal(dim, rng)
    return [q[:, :s] for s in sizes]


def canonical_chains(basis, index_set):
    """Increasing and decreasing chains built from an eigenbasis.

    For each index i the increasing chain takes all first-kind columns
    plus the second-kind ones up to i; the decreasing chain takes all
    first-kind columns plus the second-kind ones from i on.
    """
    u, v = basis.u, basis.v
    vchain = [np.hstack([u, v[:, :i]]) for i in index_set]
    wchain = [np.hstack([u, v[:, i - 1 :]]) for i in index_set]
    return vchain, wchain


def sample_tuple_in_chain(chain, rng):
    """Random symplectically normalized tuple threading a decreasing chain.

    Returns (x, y) with columns (x_j, y_j) in chain[j], <x_i, J x_j> =
    <y_i, J y_j> = 0 and <x_i, J y_j> = delta_ij.  Pairs are drawn
    greedily from the smallest space outward, each restricted to the
    skew complement of the pairs already chosen; draws whose pairing
    product falls under PAIR_FLOOR are rejected and retried.
    """
    if len(chain) == 0:
        raise ValidationError("chain must contain at least one subspace")
    return _sample_tuple([orthonormal_columns(w) for w in chain], as_generator(rng))


def _sample_tuple(bases, rng):
    """sample_tuple_in_chain on a chain already given by orthonormal
    bases, which are used as they stand."""
    k = len(bases)
    dim = bases[0].shape[0]
    for _ in range(SAMPLE_RETRIES):
        chosen = np.zeros((dim, 0))
        xs, ys = [], []
        ok = True
        for j in range(k - 1, -1, -1):
            f = _constrained_subspace(bases[j], chosen)
            if f.shape[1] < 2:
                ok = False
                break
            x = _unit_in(f, rng)
            s = 0.0
            for _ in range(SAMPLE_RETRIES):
                z = f @ rng.standard_normal(f.shape[1])
                nz = np.linalg.norm(z)
                if nz <= 1e-12:
                    continue
                z /= nz
                s = symplectic_inner(x, z)
                if abs(s) >= PAIR_FLOOR:
                    break
            if abs(s) < PAIR_FLOOR:
                ok = False
                break
            y = z / s
            # Rescaling (x, y) -> (t x, y / t) keeps the pairing; balance
            # the norms so neither vector dominates the energy sum.
            t = np.sqrt(np.linalg.norm(y))
            x, y = x * t, y / t
            chosen = np.hstack([chosen, x[:, None], y[:, None]])
            xs.append(x)
            ys.append(y)
        if not ok:
            continue
        xs.reverse()
        ys.reverse()
        x_set = np.column_stack(xs)
        y_set = np.column_stack(ys)
        if tuple_form_defect(x_set, y_set) <= TUPLE_TOL:
            return x_set, y_set
    raise ConstructionError("failed to sample a normalized tuple in the chain")


def poincare_witness(m_sub, basis, rng=None):
    """Normalized pair (u, u') inside a subspace of dimension 2n - k + 1.

    When basis diagonalizes A with ascending block spectrum d, the pair
    has energy at most d_k: it is drawn inside the sharp part of the
    intersection of m_sub with the canonical space spanned by all
    first-kind columns and the first k second-kind ones, and that
    intersection always leaves at least one invariant plane.  The pairing
    <u, J u'> is the basis norm of u, which is 1; the energy bound is the
    claim the caller certifies.
    """
    rng = as_generator(rng)
    n = basis.n
    m_sub = np.asarray(m_sub, dtype=float)
    k = 2 * n - m_sub.shape[1] + 1
    if not 1 <= k <= n:
        raise ValidationError(
            f"subspace dimension {m_sub.shape[1]} does not match any index"
        )
    mc = _coords_subspace(m_sub, basis)
    nc = np.eye(2 * n)[:, : n + k]
    g = _sharp_std(subspace_intersect(mc, nc))
    if g.shape[1] == 0:
        raise ConstructionError(
            "witness search failed: no invariant plane in the canonical intersection"
        )
    uc = _unit_in(g, rng)
    return basis.lift(uc), basis.lift(prime_coords(uc))


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
    """(d, basis, idx, vchain, wchain): the Williamson spectrum and
    eigenbasis of A, the validated index set and its canonical chains."""
    dec = williamson(a)
    basis = SymplecticBasis(dec.m)
    n = dec.d.size
    idx = np.asarray(index_set, dtype=int)
    if idx.ndim != 1 or idx.size == 0 or idx.size > n:
        raise ValidationError(f"index set must be 1..{n} values, got {idx!r}")
    if np.any(idx < 1) or np.any(idx > n) or np.any(np.diff(idx) <= 0):
        raise ValidationError(
            f"index set must be strictly increasing within [1, {n}], got {idx.tolist()}"
        )
    vchain, wchain = canonical_chains(basis, idx)
    return dec.d, basis, idx, vchain, wchain


def _sampled_floor(a, chain, claimed, samples, rng, tol):
    """Energies of tuples sampled in the chain, and their slacks above
    the claim.  The chain is orthonormalised once for all samples."""
    scale = max(1.0, abs(claimed))
    bases = [orthonormal_columns(w) for w in chain]
    values = [tuple_value(a, *_sample_tuple(bases, rng)) for _ in range(samples)]
    return values, [val - claimed + tol * scale for val in values]


def _chain_tuples(vchain, idx, basis, count, rng, wchain=None):
    """Dual-chain tuples (vs, ws) from count attempts, and the number of
    attempts skipped on a ConstructionError.  Without wchain each attempt
    draws a fresh random decreasing chain."""
    sizes = [2 * basis.n - i + 1 for i in idx]
    tuples, n_skipped = [], 0
    for _ in range(count):
        chain = random_decreasing_chain(2 * basis.n, sizes, rng) if wchain is None else wchain
        try:
            tuples.append(dual_chain_construct(vchain, chain, basis, rng))
        except ConstructionError:
            n_skipped += 1
    return tuples, n_skipped


def maxmin_check(a, k, samples=40, n_subspaces=20, rng=None, tol=1e-9):
    """Two-sided certificate for the k-th block eigenvalue.

    Over the canonical subspace every normalized pair has energy at
    least d_k, the k-th eigen pair attains it, and every random
    subspace of the complementary dimension admits a pair at most d_k.
    The witness slack is the one check of that last bound, so a witness
    above d_k fails the certificate.
    """
    rng = as_generator(rng)
    d, basis, idx, _, wchain = _eigen_frame(a, [k])
    n = d.size
    k = int(idx[0])
    claimed = float(d[k - 1])
    scale = max(1.0, abs(claimed))
    values, slacks = _sampled_floor(a, wchain, claimed, samples, rng, tol)

    eig_val = tuple_value(a, basis.u[:, idx - 1], basis.v[:, idx - 1])
    equality_gap = abs(eig_val - claimed)
    slacks.append(1e-10 * scale - equality_gap)

    witness_vals, n_skipped = [], 0
    for _ in range(n_subspaces):
        m_sub = random_orthogonal(2 * n, rng)[:, : 2 * n - k + 1]
        try:
            u, v = poincare_witness(m_sub, basis, rng=rng)
        except ConstructionError:
            n_skipped += 1
            continue
        witness_vals.append(0.5 * (float(u @ (a @ u)) + float(v @ (a @ v))))
    slacks += [claimed - val + tol * scale for val in witness_vals]

    return _finish(
        f"maxmin-{k}", claimed, slacks, sampled_min=min(values, default=None),
        witness_max=max(witness_vals, default=None), equality_gap=equality_gap,
        n_samples=samples, n_chains=n_subspaces, n_skipped=n_skipped,
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
    rng = as_generator(rng)
    d, basis, idx, vchain, wchain = _eigen_frame(a, index_set)
    claimed = float(np.sum(d[idx - 1]))
    scale = max(1.0, abs(claimed))
    values, slacks = _sampled_floor(a, wchain, claimed, samples, rng, tol)

    eig_val = tuple_value(a, basis.u[:, idx - 1], basis.v[:, idx - 1])
    equality_gap = abs(eig_val - claimed)
    slacks.append(eq_tol * scale - equality_gap)

    tuples, n_skipped = _chain_tuples(vchain, idx, basis, n_chains, rng)
    witness_vals = []
    for vs, ws in tuples:
        witness_vals.append(tuple_value(a, ws, basis.prime(ws)))
        same_span_trace_check(a, ws, vs, basis)
    slacks += [claimed - val + tol * scale for val in witness_vals]

    return _finish(
        "wielandt", claimed, slacks, sampled_min=min(values, default=None),
        witness_max=max(witness_vals, default=None), equality_gap=equality_gap,
        n_samples=samples, n_chains=n_chains, n_skipped=n_skipped,
    )


def phi_extremal_check(a, index_set, phi, n_chains=12, rng=None, tol=1e-9,
                       validate_phi=True):
    """Extremal certificate for a Schur-concave monotone functional.

    Against the canonical decreasing chain, the constructed compression
    spectrum dominates the selected eigenvalues elementwise, so phi
    stays above the claim.  Against random chains the compression
    spectrum is weakly supermajorized by the half-trace vector of the
    increasing-chain side, whose entries are capped by the selected
    eigenvalues, so phi stays below the claim.  With validate_phi, phi
    first passes a 120-draw audit of the properties the claim needs.
    """
    rng = as_generator(rng)
    if validate_phi:
        audit = schur_concave_monotone_check(phi, trials=120, rng=rng)
        if not audit.ok:
            kinds = sorted({c["kind"] for c in audit.counterexamples})
            raise ValidationError(
                f"functional {phi.name!r} failed its audit: {', '.join(kinds)}"
            )
    d, basis, idx, vchain, wchain = _eigen_frame(a, index_set)
    d_target = d[idx - 1]
    claimed = float(phi(d_target))
    scale = max(1.0, abs(claimed))

    _, ws = dual_chain_construct(vchain, wchain, basis, rng)
    a_c, d_tilde = compress(a, ws, basis.prime(ws))
    slacks = [float(dt - t + tol * max(1.0, t)) for t, dt in zip(d_target, d_tilde)]
    phi_tilde = float(phi(d_tilde))
    slacks.append(phi_tilde - claimed + tol * scale)
    sign, logdet = np.linalg.slogdet(a_c)
    target_log = 2.0 * float(np.sum(np.log(d_target)))
    slacks.append(float(sign) * logdet - target_log - np.log1p(-1e-8))

    d_eig = compress(a, basis.u[:, idx - 1], basis.v[:, idx - 1])[1]
    equality_gap = abs(float(phi(d_eig)) - claimed)
    slacks.append(1e-9 * scale - equality_gap)

    tuples, n_skipped = _chain_tuples(vchain, idx, basis, n_chains, rng)
    chain_vals = []
    for vs, ws in tuples:
        vs_prime = basis.prime(vs)
        alpha = 0.5 * (np.sum(vs * (a @ vs), axis=0) + np.sum(vs_prime * (a @ vs_prime), axis=0))
        slacks.extend(float(t - al + tol * max(1.0, t)) for al, t in zip(alpha, d_target))
        d_u = compress(a, ws, basis.prime(ws))[1]
        if not supermajorize(alpha, d_u, atol=tol * max(1.0, float(np.max(d_u)))):
            slacks.append(-1.0)
        phi_alpha = float(phi(np.sort(alpha)))
        phi_u = float(phi(d_u))
        slacks.append(phi_alpha - phi_u + tol * scale)
        slacks.append(claimed - phi_u + tol * scale)
        chain_vals.append(phi_u)

    return _finish(
        f"phi-extremal-{phi.name}", claimed, slacks, sampled_min=phi_tilde,
        witness_max=max(chain_vals, default=None), equality_gap=equality_gap,
        n_samples=1, n_chains=n_chains, n_skipped=n_skipped,
    )


def det_product_check(a, index_set, samples=20, rng=None):
    """One-sided minimum certificate for the compression determinant.

    Every compression built on the canonical decreasing chain has
    determinant at least the squared product of the selected
    eigenvalues, and the eigen-pair compression attains it.  Works in
    log space throughout.
    """
    rng = as_generator(rng)
    d, basis, idx, vchain, wchain = _eigen_frame(a, index_set)
    claimed_log = 2.0 * float(np.sum(np.log(d[idx - 1])))

    a_eig = compress(a, basis.u[:, idx - 1], basis.v[:, idx - 1])[0]
    sign, logdet = np.linalg.slogdet(a_eig)
    equality_gap = abs(float(sign) * logdet - claimed_log)
    slacks = [1e-8 - equality_gap]

    tuples, n_skipped = _chain_tuples(vchain, idx, basis, samples, rng, wchain)
    sampled = []
    for _, ws in tuples:
        sign, logdet = np.linalg.slogdet(compress(a, ws, basis.prime(ws))[0])
        sampled.append(float(sign) * logdet)
    slacks += [val - claimed_log - np.log1p(-1e-8) for val in sampled]

    return _finish(
        "det-product", claimed_log, slacks, sampled_min=min(sampled, default=None),
        equality_gap=equality_gap, n_samples=samples, n_skipped=n_skipped,
    )
