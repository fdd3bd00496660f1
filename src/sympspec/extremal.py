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
    _chain_frames,
    _construct,
    _prime,
    _sharp_std,
    _traces,
    _tuple_gram,
    _with_primes,
)
from .core import (
    _checked,
    _compression,
    _factor_spectra,
    _gram,
    _symmetric,
    as_generator,
    check_positive_definite,
    compress,
    williamson,
)
from .errors import (
    ConstructionError, NumericalContractError, ValidationError, _bound, _check_int, _check_tol,
    _lapack, _scaled, _value,
)
from .inequalities import (
    _check_index_set,
    schur_concave_monotone_check,
    supermajorize,
)
from .linalg import (
    _CHOLESKY, _QR_R_RAW, _QR_REDUCED, _TRTRS, _by_size, _eigh, _factor,
    _frobenius, _real, _svd, _svdvals, orthonormal_columns, subspace_meet,
)

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
    """Haar-distributed orthogonal matrix via QR (dgeqrf, dorgqr) with sign
    correction (Mezzadri, Notices AMS 54, 2007): _haar's stack of one."""
    return _haar(1, dim, rng)[0]


def _haar(count, dim, rng):
    """count random_orthogonal draws in a row, with their bits, as one
    stack (count, dim, dim) from one normal draw and one QR pass."""
    a = rng.standard_normal((count, dim, dim))
    tau = _factor(_QR_R_RAW, "d->d", a)  # leaves R on and above a's diagonals
    return (_factor(_QR_REDUCED, "dd->d", a, tau)
            * np.sign(np.diagonal(a, axis1=1, axis2=2))[:, None, :])


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


def _pairings(x, z):
    """<x[i], J z[i]> for two stacks of vectors, one per row."""
    n = x.shape[1] // 2
    return np.vecdot(x[:, :n], z[:, n:]) - np.vecdot(x[:, n:], z[:, :n])


def _sample_tuples(bases, count, rng):
    """count random symplectically normalized tuples threading a
    decreasing chain, given by orthonormal bases used as they stand, as
    (x, y) of shape (count, 2n, k): (x_j, y_j) in bases[j], <x_i, J x_j>
    = <y_i, J y_j> = 0 and <x_i, J y_j> = delta_ij.

    The tuples are drawn side by side, level j from k down to 1: pair j in
    the part f of bases[j] skew-orthogonal to the pairs drawn before (one
    null-space SVD pass), then one normal draw for x and one for its
    partner z.  A pairing under errors._TOL["pair floor"] is redrawn for
    its tuple alone; SAMPLE_RETRIES such draws, or a "tuple form defect"
    over its row, restart it; unfinished after SAMPLE_RETRIES starts, it raises.
    """
    k, dim = len(bases), bases[0].shape[0]
    x_out, y_out = np.empty((2, count, dim, k))
    todo = np.arange(count)
    for _ in range(SAMPLE_RETRIES):
        xs, ys = np.zeros((2, len(todo), dim, k))
        live = np.ones(len(todo), dtype=bool)
        for j in range(k - 1, -1, -1):
            sel, f = np.flatnonzero(live), bases[j]
            if j < k - 1:
                drawn = np.concatenate([xs[sel, :, j + 1:], ys[sel, :, j + 1:]], axis=2)
                _, sv, vt = _svd(_tuple_gram(drawn, f))
                rank = (sv > _bound("rank") * sv[:, :1]).sum(axis=1)
                f = f @ (vt * (np.arange(f.shape[1]) >= rank[:, None])[:, :, None]).mT
            x = (f @ rng.standard_normal((len(sel), f.shape[-1], 1)))[..., 0]
            x /= np.sqrt(np.vecdot(x, x))[:, None]
            z, s, low = np.empty_like(x), np.empty(len(sel)), np.ones(len(sel), dtype=bool)
            for _ in range(SAMPLE_RETRIES):
                draw = rng.standard_normal((np.count_nonzero(low), f.shape[-1], 1))
                z[low] = ((f if f.ndim == 2 else f[low]) @ draw)[..., 0]
                s[low] = _pairings(x[low], z[low])
                low = np.abs(s) < _bound("pair floor")
                if not low.any():
                    break
            live[sel[low]], ok = False, ~low
            y = z[ok] / s[ok, None]
            # Rescaling (x, y) -> (t x, y / t) keeps the pairing; balance
            # the norms so neither vector dominates the energy sum.
            t = np.sqrt(np.sqrt(np.vecdot(y, y)))[:, None]
            xs[sel[ok], :, j], ys[sel[ok], :, j] = x[ok] * t, y / t
        done = np.flatnonzero(live)
        done = done[_form_defects(xs[done], ys[done]) <= _bound("tuple form defect")]
        x_out[todo[done]], y_out[todo[done]] = xs[done], ys[done]
        todo = np.delete(todo, done)
        if not len(todo):
            return x_out, y_out
    raise ConstructionError("failed to sample a normalized tuple in the chain")


def _form_defects(x, y):
    """core.tuple_form_defect of each tuple (x[i], y[i]) of two stacks."""
    k = x.shape[-1]
    return np.maximum.reduce([_frobenius(_tuple_gram(x, y) - np.eye(k)),
                              _frobenius(_tuple_gram(x, x)), _frobenius(_tuple_gram(y, y))])


def _witnesses(m_subs, basis, a):
    """poincare_witness of each subspace of a stack m_subs (N, 2n, s) for
    the matrix a of a checked A, as N outcomes (u, u', energy) or
    ConstructionError.  Each step is one stacked pass over the witnesses
    that keep one count, grouped by linalg._by_size; each matrix keeps
    the bits it gets alone, and a contract failure raises for all."""
    n = basis.n
    perp = np.eye(2 * n)[:, 3 * n + 1 - m_subs.shape[2]:]  # unit columns n+k+1..2n
    gs = orthonormal_columns(basis._coord @ m_subs)
    if perp.shape[1]:
        gs = _by_size(lambda g: subspace_meet(g, perp), gs)
    return _by_size(lambda g: _top_pairs(g, basis, a), _by_size(_sharp_std, gs))


def _top_pairs(g, basis, a):
    """(u, u', energy) of the top eigen pair of each witness space of a
    stack g (m, 2n, c), or, when c is 0, a ConstructionError."""
    if g.shape[2] == 0:
        return [ConstructionError(
            "witness search failed: no invariant plane in the canonical intersection")] * len(g)
    cols = basis.cols
    u, u_prime = cols @ g, cols @ _prime(g)
    c = 0.5 * (u.mT @ a @ u + u_prime.mT @ a @ u_prime)
    uc = g @ _eigh(c)[1][:, :, -1:]
    x, y = (cols @ uc)[..., 0], (cols @ _prime(uc))[..., 0]
    energy = 0.5 * ((x * (a @ x[..., None])[..., 0]).sum(axis=1)
                    + (y * (a @ y[..., None])[..., 0]).sum(axis=1))
    return list(zip(x, y, energy.tolist()))


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
    PositiveDefinite is taken as it stands.  The search is _witnesses on
    the stack of one.
    """
    n = basis.n
    a = _checked(a).a
    if a.shape != (2 * n,) * 2:
        raise ValidationError(f"matrix must have shape {(2 * n,) * 2}, got {a.shape}")
    m_sub = _real(m_sub, "subspace basis")
    if m_sub.ndim != 2 or m_sub.shape[0] != 2 * n:
        raise ValidationError(f"subspace basis has invalid shape {m_sub.shape}")
    k = 2 * n - m_sub.shape[1] + 1
    if not 1 <= k <= n:
        raise ValidationError(f"subspace dimension {m_sub.shape[1]} does not match any index")
    return _value(_witnesses(m_sub[None], basis, a)[0])[:2]


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
    """Certificate with the worst slack, a NaN before any number; it also
    fails when more than half of the constructions (chains, else samples) were skipped."""
    slack = float(min(slacks, key=lambda s: (s == s, s))) if slacks else 0.0
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


def _sampled_floor(a, basis, idx, claimed, samples, rng, margin):
    """Energies of tuples sampled in the canonical decreasing chain of idx,
    for the matrix a of a checked A, and their slacks above claim - margin.
    Its member [u, v[:, i_j - 1:]] spans the leading 2n - i_j + 1 columns
    of [u, v[:, ::-1]], so one QR frames every member."""
    sizes = 2 * basis.n + 1 - idx
    w = np.concatenate([basis.u, basis.v[:, ::-1][:, : sizes[0] - basis.n]], axis=1)
    q = _factor(_QR_REDUCED, "dd->d", w, _factor(_QR_R_RAW, "d->d", w))
    x, y = _sample_tuples([q[:, :s] for s in sizes], samples, rng)
    values = 0.5 * ((x * (a @ x)).sum(axis=(1, 2)) + (y * (a @ y)).sum(axis=(1, 2)))
    return values.tolist(), (values - claimed + margin).tolist()


def _chain_tuples(idx, basis, count, rng):
    """Dual-chain tuples on the exact frame of canonical_chains' increasing
    chain and count fresh random decreasing chains, drawn, framed and
    built as one stack: the built chains' ambient (v, w) as one stack
    (m, 2, 2n, k), and the number skipped.  A stack that raises (its
    chains part ways in a dimension) is built again one chain at a time."""
    n = basis.n
    eye, pair = np.eye(2 * n), np.arange(2 * n) % n
    vsharp, vperp = [eye[:, pair < i] for i in idx], [eye[:, pair >= i] for i in idx]
    sizes = (2 * n + 1 - idx).tolist()
    frames = [f for f in _chain_frames(basis._coord @ _haar(count, 2 * n, rng)[:, :, :sizes[0]],
                                       sizes) if not isinstance(f, ConstructionError)]
    one = len({tuple(g.shape for g in f) for f in frames}) == 1
    groups = [frames] if one else [[f] for f in frames]
    built = [np.empty((0, 2, 2 * n, len(idx)))]
    while groups:
        group = groups.pop(0)
        try:
            built.append(np.stack(_construct(vsharp, vperp, [np.stack(w) for w in zip(*group)],
                                             basis, rng), axis=1))
        except (ConstructionError, NumericalContractError):
            groups[:0] = [[f] for f in group] if len(group) > 1 else []
    tuples = np.concatenate(built)
    return tuples, count - len(tuples)


def _compression_spectra(pd, t):
    """compress(pd, x, y)[1] of each built tuple t[i] = [x, y] of a stack
    (m, 2n, 2k), each of compress's checks one stacked pass, raising what
    compress raises for the first tuple in order that fails it."""
    k = t.shape[-1] // 2
    for defect in _form_defects(t[..., :k], t[..., k:]).tolist():
        if not defect <= _bound("tuple form defect"):
            raise ValidationError(
                f"columns are not a symplectic tuple: pairing defect {defect:.3e}")
    a_m = t.mT @ pd.a @ t
    low = [_value(c).low for c in check_positive_definite(0.5 * (a_m + a_m.mT))]
    return [_value(d) for d in _factor_spectra(np.stack(low))] if low else []


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
    tol = _check_tol("tol", tol)
    rng = as_generator(rng)
    pd, d, basis, idx, wchain = _eigen_frame(a, [k])
    k = int(idx[0])
    claimed = float(d[k - 1])
    margin = _scaled(tol, abs(claimed))
    floor = _pair_floor(pd.a, wchain[0])
    equality_gap = abs(tuple_value(pd, basis.u[:, k - 1], basis.v[:, k - 1]) - claimed)
    slacks = [floor - claimed + margin, _bound("eigen tuple", abs(claimed)) - equality_gap]

    m_subs = _haar(n_subspaces, 2 * basis.n, rng)[:, :, : wchain[0].shape[1]]
    outcomes = _witnesses(m_subs, basis, pd.a)
    witness_vals = [w[2] for w in outcomes if not isinstance(w, ConstructionError)]
    n_skipped = len(outcomes) - len(witness_vals)
    slacks += [claimed - val + margin for val in witness_vals]

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
    tol, eq_tol = _check_tol("tol", tol), _check_tol("eq_tol", eq_tol)
    rng = as_generator(rng)
    pd, d, basis, idx, _ = _eigen_frame(a, index_set)
    claimed = float(d[idx - 1].sum())
    margin = _scaled(tol, abs(claimed))
    values, slacks = _sampled_floor(pd.a, basis, idx, claimed, samples, rng, margin)

    equality_gap = abs(tuple_value(pd, basis.u[:, idx - 1], basis.v[:, idx - 1]) - claimed)
    slacks.append(_scaled(eq_tol, abs(claimed)) - equality_gap)

    tuples, n_skipped = _chain_tuples(idx, basis, n_chains, rng)
    # Each witness energy is half the trace over its tuple and primes.
    witness_vals = (0.5 * _traces(pd.a, tuples[:, 1], tuples[:, 0], basis)[0]).tolist()
    slacks += [claimed - val + margin for val in witness_vals]

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
    tol = _check_tol("tol", tol)
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
    margin = _scaled(tol, abs(claimed))

    a_eig, d_eig = compress(pd, basis.u[:, idx - 1], basis.v[:, idx - 1])
    slacks = [float(de - t + _scaled(tol, t)) for t, de in zip(d_target, d_eig)]
    phi_eig = float(phi(d_eig))
    slacks.append(phi_eig - claimed + margin)
    sign, logdet = np.linalg.slogdet(a_eig)
    target_log = 2.0 * float(np.log(d_target).sum())
    slacks.append(float(sign) * logdet - target_log - np.log1p(-_bound("log determinant")))
    equality_gap = abs(phi_eig - claimed)
    slacks.append(_bound("phi equality", abs(claimed)) - equality_gap)

    tuples, n_skipped = _chain_tuples(idx, basis, n_chains, rng)
    va = _with_primes(tuples[:, 0], basis)
    energy = (va * (a @ va)).sum(axis=-2).reshape(-1, 2, len(idx))
    chain_vals = []
    for alpha, d_u in zip(0.5 * energy.sum(axis=1),
                          _compression_spectra(pd, _with_primes(tuples[:, 1], basis))):
        slacks.extend(float(t - al + _scaled(tol, t)) for al, t in zip(alpha, d_target))
        if not supermajorize(alpha, d_u, atol=_scaled(tol, float(d_u.max()))):
            slacks.append(-1.0)
        phi_alpha = float(phi(np.sort(alpha)))
        phi_u = float(phi(d_u))
        slacks += [phi_alpha - phi_u + margin, claimed - phi_u + margin]
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
    log-determinant must equal that of the squared product of the selected
    eigenvalues to errors._TOL["log determinant"], in log space throughout.
    """
    pd, d, basis, idx, _ = _eigen_frame(a, index_set)
    claimed_log = 2.0 * float(np.log(d[idx - 1]).sum())
    a_eig = _compression(pd, basis.u[:, idx - 1], basis.v[:, idx - 1])
    sign, logdet = np.linalg.slogdet(a_eig)
    eig_log = float(sign) * logdet
    equality_gap = abs(eig_log - claimed_log)
    return _finish("det-product", claimed_log, [_bound("log determinant") - equality_gap],
                   sampled_min=eig_log, equality_gap=equality_gap)
