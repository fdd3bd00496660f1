"""Certificates for the variational characterizations of the spectrum."""

import math
import warnings

import numpy as np
import pytest

import sympspec.extremal
from sympspec.basis import (
    SymplecticBasis,
    _chain_frames,
    _traces,
    _coords_subspace,
    _sharp_std,
    dual_chain_construct,
    prime_coords,
    same_span_trace_check,
)
from sympspec.core import (
    check_positive_definite,
    compress,
    random_pd,
    symplectic_inner,
    tuple_form_defect,
    williamson,
)
from sympspec.errors import _TOL, ConstructionError, NumericalContractError, ValidationError
from sympspec.extremal import (
    SAMPLE_RETRIES,
    _chain_tuples,
    _compression_spectra,
    _finish,
    _haar,
    _sample_tuples,
    _witnesses,
    canonical_chains,
    det_product_check,
    maxmin_check,
    phi_extremal_check,
    poincare_witness,
    random_orthogonal,
    tuple_value,
    wielandt_certify,
)
from sympspec.functionals import SHIPPED, SpectralFunctional, phi_sum
from sympspec.inequalities import additive_lidskii_trial
from sympspec.linalg import (
    fnorm,
    max_principal_angle,
    span_residual,
    subspace_meet,
)

RNG = np.random.default_rng(505)


def _instance(n, seed):
    rng = np.random.default_rng(seed)
    a = random_pd(n, rng)
    dec = williamson(a)
    return a, dec, SymplecticBasis(dec.m)


def test_tuple_value_is_half_trace_of_compression():
    a, dec, basis = _instance(3, 1)
    x, y = basis.u[:, :2], basis.v[:, :2]
    a_m, _ = compress(a, x, y)
    assert tuple_value(a, x, y) == pytest.approx(0.5 * np.trace(a_m), rel=1e-12)
    assert tuple_value(a, x, y) == pytest.approx(float(np.sum(dec.d[:2])), rel=1e-9)


def test_canonical_chains_dimensions_and_nesting():
    _, _, basis = _instance(4, 2)
    idx = np.array([2, 4])
    vchain, wchain = canonical_chains(basis, idx)
    assert [c.shape[1] for c in vchain] == [6, 8]
    assert [c.shape[1] for c in wchain] == [7, 5]
    # vchain grows, wchain shrinks, both along the same index set.
    for j in range(1, len(idx)):
        assert span_residual(vchain[j], vchain[j - 1]) <= 1e-10
        assert span_residual(wchain[j - 1], wchain[j]) <= 1e-10


def test_random_orthogonal_is_numpys_qr_formula_bit_for_bit():
    for seed in range(50):
        dim = 1 + seed % 10
        q = random_orthogonal(dim, np.random.default_rng(seed))
        g = np.random.default_rng(seed).standard_normal((dim, dim))
        ref_q, ref_r = np.linalg.qr(g)
        ref = ref_q * np.sign(np.diag(ref_r))
        assert fnorm(q.T @ q - np.eye(dim)) <= 1e-14
        assert q.flags.c_contiguous and q.tobytes() == ref.tobytes()


def test_a_failed_qr_factorization_raises(monkeypatch):
    # numpy's QR gufuncs report a failure, as its SVD and eigensolve ones
    # do, by the invalid flag, which random_orthogonal's calls raise.
    def flagged(a, signature):
        return np.sqrt(-np.ones(min(a.shape)))  # NaN tau, invalid flag raised

    monkeypatch.setattr(sympspec.extremal, "_QR_R_RAW", flagged)
    with pytest.raises(NumericalContractError, match="LAPACK factorization failed"):
        random_orthogonal(3, np.random.default_rng(0))


def test_sample_tuples_thread_the_chain():
    _, _, basis = _instance(3, 3)
    idx = np.array([1, 3])
    _, wchain = canonical_chains(basis, idx)
    bases = [np.linalg.qr(w)[0] for w in wchain]
    x, y = _sample_tuples(bases, 5, RNG)
    assert x.shape == y.shape == (5, 6, 2)
    for xt, yt in zip(x, y):
        assert tuple_form_defect(xt, yt) <= 1e-8
        for j in range(len(wchain)):
            assert span_residual(wchain[j], xt[:, j]) <= 1e-8
            assert span_residual(wchain[j], yt[:, j]) <= 1e-8


def _sampler_with_pairings(monkeypatch, pairing):
    """The bases of a two-pair chain in R^6 (index set {1, 2}, so they
    span 6 and 5 dimensions), with each pairing <x, J z> of a partner
    draw z replaced by pairing(pairing number, true pairing), and the
    list of pairings asked for, one entry per tuple paired."""
    calls = []
    pairings = sympspec.extremal._pairings

    def patched(x, z):
        true = pairings(x, z)
        out = []
        for s in true:
            calls.append(None)
            out.append(pairing(len(calls), s))
        return np.array(out)

    monkeypatch.setattr(sympspec.extremal, "_pairings", patched)
    q = random_orthogonal(6, np.random.default_rng(8))
    return [q[:, :6], q[:, :5]], calls


def test_sample_tuple_restarts_the_whole_tuple_after_a_run_of_degenerate_partners(monkeypatch):
    # The first pair pairs at once; then every partner of the second pair
    # falls under the pair floor.  The whole tuple restarts, and the result is
    # the tuple an undisturbed call draws once the failed attempt's normals
    # are used up: the first pair's x and partner in its 5-space, then x
    # and SAMPLE_RETRIES partners drawn over the 6 right singular vectors
    # of the second level, the 2 that its constraints reach zeroed.
    bases, calls = _sampler_with_pairings(
        monkeypatch, lambda i, s: 0.0 if 2 <= i <= SAMPLE_RETRIES + 1 else s)
    x, y = _sample_tuples(bases, 1, np.random.default_rng(1))
    assert len(calls) == SAMPLE_RETRIES + 3
    monkeypatch.undo()
    rng = np.random.default_rng(1)
    rng.standard_normal(2 * 5 + (1 + SAMPLE_RETRIES) * 6)
    x_ref, y_ref = _sample_tuples(bases, 1, rng)
    assert np.array_equal(x, x_ref) and np.array_equal(y, y_ref)
    assert tuple_form_defect(x[0], y[0]) <= 1e-8


def test_sample_tuple_raises_when_every_restart_fails(monkeypatch):
    # Every pairing sits just under the floor, so each restart ends at the
    # first pair's last partner draw.
    bases, calls = _sampler_with_pairings(monkeypatch, lambda i, s: 0.5 * _TOL["pair floor"])
    with pytest.raises(ConstructionError, match="failed to sample a normalized tuple"):
        _sample_tuples(bases, 1, np.random.default_rng(1))
    assert len(calls) == SAMPLE_RETRIES * SAMPLE_RETRIES


def test_a_sub_floor_pairing_is_redrawn_and_restarted_for_its_tuple_alone(monkeypatch):
    # Of three tuples drawn side by side, only the second meets a run of
    # sub-floor partners at its second pair: it alone redraws, restarts
    # and is drawn again, while the other two finish in the first pass.
    def pairing(i, s):
        # Pairings 1-3 are the first level's; at the second level the
        # second tuple's partner is pairing 5, and each redraw of it
        # asks for one more, SAMPLE_RETRIES in all.
        return 0.0 if i == 5 or 7 <= i <= 5 + SAMPLE_RETRIES else s

    bases, calls = _sampler_with_pairings(monkeypatch, pairing)
    x, y = _sample_tuples(bases, 3, np.random.default_rng(2))
    # 3 + 3 pairings, SAMPLE_RETRIES - 1 redraws, then 2 for the restart.
    assert len(calls) == 6 + SAMPLE_RETRIES - 1 + 2
    for xt, yt in zip(x, y):
        assert tuple_form_defect(xt, yt) <= 1e-8


# A cast to int would truncate 1.5 and 2.9 to a valid index set and read
# "2" and True as 2 and 1; every entry point that takes an index set
# refuses them instead.  maxmin_check takes its one index as k.
_INDEX_SET_ENTRY_POINTS = {
    "maxmin": lambda a, idx: maxmin_check(a, idx[0], n_subspaces=1),
    "wielandt": lambda a, idx: wielandt_certify(a, idx, n_chains=1, samples=1),
    "phi-extremal": lambda a, idx: phi_extremal_check(a, idx, phi_sum, n_chains=1,
                                                      validate_phi=False),
    "det-product": det_product_check,
    "additive-lidskii": lambda a, idx: additive_lidskii_trial(a, a, idx),
    "canonical-chains": lambda a, idx: canonical_chains(SymplecticBasis(williamson(a).m), idx),
}


@pytest.mark.parametrize("index_set", [[1.5, 2.9], [2.7], ["2"], [True]],
                         ids=["floats", "float", "string", "bool"])
@pytest.mark.parametrize("entry", list(_INDEX_SET_ENTRY_POINTS.values()),
                         ids=list(_INDEX_SET_ENTRY_POINTS))
def test_entry_points_refuse_index_sets_that_are_not_integers(entry, index_set):
    a, _, _ = _instance(3, 4)
    with pytest.raises(ValidationError, match="index set must hold integers"):
        entry(a, index_set)


# canonical_chains used to build chains for these that belong to no index.
@pytest.mark.parametrize("entry, index_set", [
    pytest.param(entry, index_set, id=f"{name}-{label}")
    for name, entry in _INDEX_SET_ENTRY_POINTS.items()
    for index_set, label in [([0], "zero"), ([4], "above-n"), ([-1], "negative"),
                             ([2, 1], "decreasing"), ([2, 2], "repeated")]
    if name != "maxmin" or len(index_set) == 1  # maxmin reads one index
])
def test_entry_points_refuse_index_sets_outside_the_increasing_range(entry, index_set):
    a, _, _ = _instance(3, 4)
    with pytest.raises(ValidationError, match=r"strictly increasing within \[1, 3\]"):
        entry(a, index_set)


def test_unsigned_index_sets_are_read_as_signed():
    # In uint8, 1 - 3 wraps to 254 and would pass the increasing test.
    a, _, _ = _instance(3, 4)
    assert det_product_check(a, np.array([1, 3], dtype=np.uint8)).passed
    with pytest.raises(ValidationError, match="strictly increasing"):
        det_product_check(a, np.array([3, 1], dtype=np.uint8))


def test_sampled_floor_orthonormalises_the_chain_with_one_qr(monkeypatch):
    # The canonical decreasing chain is the prefixes of [u, v[:, ::-1]],
    # so one QR (its two gufunc calls) frames every member, and no member
    # is orthonormalised alone.
    a, _, basis = _instance(3, 3)
    factor = sympspec.extremal._factor
    calls = []

    def counted(gufunc, signature, *args):
        calls.append(gufunc.__name__)
        return factor(gufunc, signature, *args)

    monkeypatch.setattr(sympspec.extremal, "_factor", counted)
    monkeypatch.setattr(sympspec.extremal, "orthonormal_columns", None)
    values, _ = sympspec.extremal._sampled_floor(a, basis, np.array([1, 3]), 0.0, 5,
                                                 np.random.default_rng(9), 1e-9)
    assert len(values) == 5
    assert calls.count("qr_r_raw") == calls.count("qr_reduced") == 1


def test_poincare_witness_energy_bound():
    a, dec, basis = _instance(3, 4)
    for k in (1, 2, 3):
        m_sub = random_orthogonal(6, RNG)[:, : 6 - k + 1]
        u, v = poincare_witness(m_sub, basis, a)
        assert symplectic_inner(u, v) == pytest.approx(1.0, abs=1e-8)
        value = 0.5 * (float(u @ a @ u) + float(v @ a @ v))
        assert value <= dec.d[k - 1] + 1e-9 * max(1.0, dec.d[k - 1])
        assert span_residual(m_sub, u) <= 1e-8
        assert span_residual(m_sub, v) <= 1e-8


def test_poincare_witness_rejects_bad_dimension():
    _, _, basis = _instance(2, 5)
    with pytest.raises(ValidationError):
        poincare_witness(np.eye(4)[:, :2], basis, np.eye(4))


def test_poincare_witness_refuses_a_subspace_that_is_not_2d():
    _, _, basis = _instance(2, 5)
    with pytest.raises(ValidationError, match="subspace basis has invalid shape"):
        poincare_witness(np.ones(4), basis, np.eye(4))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_poincare_witness_refuses_a_nan_matrix(n):
    # The eigensolve of the compression flags no NaN at sizes 1 and 2, so
    # a NaN A must be refused before it.
    with pytest.raises(ValidationError, match="matrix must be finite"):
        poincare_witness(np.eye(2 * n), SymplecticBasis.standard(n), np.nan * np.eye(2 * n))


_X, _V = np.eye(4)[:, :1], np.eye(4)[:, 2:3]


_MATRIX_CALLS = {
    "tuple_value": lambda a: tuple_value(a, _X, _V),
    "same_span_trace_check": lambda a: same_span_trace_check(a, _X, _V,
                                                             SymplecticBasis.standard(2)),
    "poincare_witness": lambda a: poincare_witness(np.eye(4), SymplecticBasis.standard(2), a),
}
# Each bad A and the refusal it meets.  A negative-definite A has a
# tuple energy and a trace, but no spectrum for a witness to be read
# against, so only poincare_witness refuses it.
_BAD_A = {
    "1-d": (np.ones(4), "matrix must"),
    "3x3": (np.eye(3), "matrix must"),
    "complex": (np.eye(4) + 0j, "matrix must be real"),
    "nan": (np.diag([1.0, np.nan, 1.0, 1.0]), "matrix must be finite"),
    "inf": (np.diag([1.0, np.inf, 1.0, 1.0]), "matrix must be finite"),
    "asymmetric": (np.eye(4) + np.triu(np.ones((4, 4)), 1), "matrix is not symmetric"),
    "negative-definite": (-np.eye(4), "matrix is not positive definite"),
}


@pytest.mark.parametrize("call, bad", [
    pytest.param(call, bad, id=f"{call}-{bad}") for call in _MATRIX_CALLS for bad in _BAD_A
    if bad != "negative-definite" or call == "poincare_witness"])
def test_a_matrix_that_is_not_real_and_2n_by_2n_is_refused(call, bad):
    a, message = _BAD_A[bad]
    with pytest.raises(ValidationError, match=message):
        _MATRIX_CALLS[call](a)


def _witness_space(m_sub, basis, k):
    """Coordinate basis of the sharp witness space poincare_witness searches:
    m_sub meets the span of the unit columns 1..n+k, the complement of the
    rest."""
    perp = np.eye(2 * basis.n)[:, basis.n + k :]
    return _sharp_std(subspace_meet(_coords_subspace(m_sub, basis), perp))


def test_poincare_witness_is_the_top_energy_pair():
    rng = np.random.default_rng(21)
    for n in (2, 3, 4):
        a, dec, basis = _instance(n, 30 + n)
        for k in range(1, n + 1):
            m_sub = random_orthogonal(2 * n, rng)[:, : 2 * n - k + 1]
            u, v = poincare_witness(m_sub, basis, a)
            value = tuple_value(a, u, v)
            if k == 1:
                # The witness space is the first eigen plane itself.
                assert value == pytest.approx(dec.d[0], rel=1e-12)
                continue
            g = _witness_space(m_sub, basis, k)
            for c in rng.standard_normal((50, g.shape[1])):
                xc = g @ (c / np.linalg.norm(c))
                other = tuple_value(a, basis.lift(xc), basis.lift(prime_coords(xc)))
                assert value >= other - 1e-12 * value


def test_maxmin_certificates_pass():
    a, dec, _ = _instance(3, 6)
    for k in (1, 2, 3):
        cert = maxmin_check(a, k, n_subspaces=5, rng=RNG)
        assert cert.passed, cert
        assert cert.claimed_value == pytest.approx(dec.d[k - 1])
        assert cert.equality_gap <= 1e-10 * max(1.0, cert.claimed_value)
        assert cert.n_samples == 0


def test_maxmin_floor_equals_the_eigenvalue_on_wishart_inputs():
    for n in range(2, 8):
        a, dec, _ = _instance(n, 40 + n)
        for k in range(1, n + 1):
            cert = maxmin_check(a, k, n_subspaces=1, rng=RNG)
            assert abs(cert.sampled_min - dec.d[k - 1]) <= 1e-12 * dec.d[k - 1]
            if k == 1:
                assert cert.witness_max == pytest.approx(dec.d[0], rel=1e-12)


@pytest.mark.parametrize("family", ["log-spread-4", "near-singular"])
def test_maxmin_floor_on_planted_hard_spectra(family):
    for n in range(2, 8):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            if family == "log-spread-4":
                d0 = np.logspace(-4.0, 4.0, n)
            else:
                d0 = np.concatenate([[1e-7], np.sort(rng.uniform(0.5, 2.0, n - 1))])
            a = random_pd(n, rng, spectrum=d0)
            for k in range(1, n + 1):
                cert = maxmin_check(a, k, n_subspaces=1, rng=rng)
                claimed = cert.claimed_value
                assert cert.passed, (n, seed, k, cert)
                assert abs(cert.sampled_min - claimed) <= 1e-9 * max(1.0, claimed)


def test_maxmin_rejects_out_of_range_index():
    a, _, _ = _instance(2, 7)
    with pytest.raises(ValidationError):
        maxmin_check(a, 5)


@pytest.mark.parametrize("failing_call", [0, 1])
def test_maxmin_maps_the_status_of_either_pair_floor_solve(monkeypatch, failing_call):
    a, _, _ = _instance(2, 7)
    trtrs = sympspec.extremal._TRTRS
    calls = []

    def status_1_once(low, b, lower):
        calls.append(None)
        x = trtrs(low, b, lower=lower)[0]
        return x, 1 if len(calls) - 1 == failing_call else 0

    monkeypatch.setattr(sympspec.extremal, "_TRTRS", status_1_once)
    with pytest.raises(NumericalContractError, match="triangular solve failed: LAPACK info 1"):
        maxmin_check(a, 1, n_subspaces=1, rng=np.random.default_rng(0))
    assert len(calls) == failing_call + 1


def test_wielandt_certificate_two_sided():
    a, dec, _ = _instance(4, 8)
    idx = np.array([1, 3])
    cert = wielandt_certify(a, idx, n_chains=4, samples=10, rng=RNG)
    assert cert.passed and cert.slack >= 0.0
    assert cert.claimed_value == pytest.approx(float(np.sum(dec.d[idx - 1])))
    assert cert.sampled_min >= cert.claimed_value - 1e-9
    assert cert.witness_max <= cert.claimed_value + 1e-9


def test_wielandt_rejects_bad_index_sets():
    a, _, _ = _instance(2, 9)
    with pytest.raises(ValidationError):
        wielandt_certify(a, np.array([2, 1]), rng=RNG)
    with pytest.raises(ValidationError):
        wielandt_certify(a, np.array([1, 1]), rng=RNG)
    with pytest.raises(ValidationError):
        wielandt_certify(a, np.array([0]), rng=RNG)


def test_canonical_chain_tuples_span_the_selected_eigen_pairs():
    # The argument in canonical_chains: on an eigenbasis both constructed
    # tuples have no coordinates outside the selected eigen pairs, which
    # is why phi-extremal and det-product build nothing on these chains.
    rng = np.random.default_rng(5)
    for t in range(200):
        n = 2 + t % 6
        k = 1 + (t // 6) % n
        a = random_pd(n, rng)
        basis = SymplecticBasis(williamson(a).m)
        idx = np.sort(rng.choice(np.arange(1, n + 1), size=k, replace=False))
        selected = np.concatenate([idx - 1, n + idx - 1])
        for tup in dual_chain_construct(*canonical_chains(basis, idx), basis, rng):
            c = basis.coords(tup)
            outside = np.delete(c, selected, axis=0)
            assert np.linalg.norm(outside) <= 1e-12 * np.linalg.norm(c), (n, idx)


def test_canonical_frame_spans_the_sharp_spaces_of_the_canonical_chain(monkeypatch):
    # The exact unit-column frame that the certificates hand the
    # construction in Williamson coordinates spans what the factorized
    # route finds on the ambient canonical chain, and its complement is
    # the orthogonal complement of that.
    build = sympspec.extremal._construct
    frames = []

    def recording(vsharp, vperp, wsharp, basis, rng):
        frames.append((vsharp, vperp))
        return build(vsharp, vperp, wsharp, basis, rng)

    monkeypatch.setattr(sympspec.extremal, "_construct", recording)
    rng = np.random.default_rng(49)
    for t in range(30):
        n = 2 + t % 5
        k = 1 + (t // 5) % n
        a, _, basis = _instance(n, 400 + t)
        idx = np.sort(rng.choice(np.arange(1, n + 1), size=k, replace=False))
        frames.clear()
        wielandt_certify(a, idx, n_chains=1, samples=1, rng=rng)
        [(vsharp, vperp)] = frames
        vchain = canonical_chains(basis, idx)[0]
        for j, i in enumerate(idx):
            sharp = _sharp_std(_coords_subspace(vchain[j], basis))
            assert vsharp[j].shape == sharp.shape == (2 * n, 2 * i)
            assert max_principal_angle(vsharp[j], sharp) <= 1e-12
            frame = np.hstack([vsharp[j], vperp[j]])
            assert np.array_equal(frame @ frame.T, np.eye(2 * n))


def test_phi_extremal_certificates_for_shipped_set():
    a, _, _ = _instance(3, 10)
    idx = np.array([1, 3])
    for phi in SHIPPED:
        cert = phi_extremal_check(a, idx, phi, n_chains=3, rng=RNG)
        assert cert.passed, (phi.name, cert)


def test_phi_extremal_sum_matches_wielandt_claim():
    a, dec, _ = _instance(3, 11)
    idx = np.array([2, 3])
    cert = phi_extremal_check(a, idx, phi_sum, n_chains=2, rng=RNG)
    assert cert.claimed_value == float(np.sum(dec.d[idx - 1]))


def test_phi_extremal_rejects_functional_that_fails_audit():
    a, _, _ = _instance(2, 12)
    # Schur-convex: fails the audit.
    liar = SpectralFunctional("max", lambda x: np.max(x, axis=-1))
    with pytest.raises(ValidationError, match="schur-concavity"):
        phi_extremal_check(a, np.array([1]), liar, rng=RNG)


def test_phi_extremal_audits_with_the_callers_generator_by_default(monkeypatch):
    # The phi-extremal suite passes validate_phi=False, since it draws
    # only the shipped functionals; the public default audits every call.
    a, _, _ = _instance(2, 12)
    rng = np.random.default_rng(4)
    audit = sympspec.extremal.schur_concave_monotone_check
    generators = []

    def recorded(phi, **kwargs):
        generators.append(kwargs["rng"])
        return audit(phi, **kwargs)

    monkeypatch.setattr(sympspec.extremal, "schur_concave_monotone_check", recorded)
    bad = SpectralFunctional("max", lambda x: np.max(x, axis=-1))
    with pytest.raises(ValidationError, match="'max' failed its audit"):
        phi_extremal_check(a, np.array([1]), bad, rng=rng)
    assert len(generators) == 1 and generators[0] is rng


def test_phi_extremal_refuses_a_functional_that_reduces_the_whole_batch():
    a, _, _ = _instance(2, 12)
    with pytest.raises(ValidationError, match="'max'.*last axis"):
        phi_extremal_check(a, np.array([1]), SpectralFunctional("max", np.max), rng=RNG)


def test_phi_extremal_counts_every_refused_chain(monkeypatch):
    a, _, _ = _instance(3, 14)
    calls = []

    def refuse(*args):
        calls.append(args)
        raise ConstructionError("forced failure")

    monkeypatch.setattr(sympspec.extremal, "_construct", refuse)
    cert = phi_extremal_check(a, np.array([1, 3]), phi_sum, n_chains=4, rng=RNG)
    # The stack of all four chains, then, as it raised a ConstructionError,
    # each chain alone.
    assert [len(wsharp[0]) for _, _, wsharp, *_ in calls] == [4, 1, 1, 1, 1]
    assert cert.n_skipped == cert.n_chains == 4
    assert cert.witness_max is None and not cert.passed


def test_det_product_certificate():
    a, dec, _ = _instance(3, 13)
    idx = np.array([1, 2])
    cert = det_product_check(a, idx)
    assert cert.passed, cert
    target = float(np.prod(dec.d[idx - 1] ** 2))
    assert np.exp(cert.claimed_value) == pytest.approx(target, rel=1e-9)


def test_det_product_fails_on_a_perturbed_compression(monkeypatch):
    a, _, _ = _instance(3, 13)
    build = sympspec.extremal._compression

    def scaled(a, x, y):
        return (1.0 + 1e-6) * build(a, x, y)

    monkeypatch.setattr(sympspec.extremal, "_compression", scaled)
    cert = det_product_check(a, np.array([1, 2]))
    assert cert.equality_gap > 1e-8
    assert cert.slack < 0.0 and not cert.passed


def test_phi_extremal_fails_on_a_witness_above_the_claim(monkeypatch):
    # Each random-chain witness is swapped for the top two eigen pairs,
    # whose compression spectrum (d_2, d_3) lies above the claim d_1 + d_2.
    a, dec, basis = _instance(3, 15)
    build = sympspec.extremal._construct

    def top_pairs(*args):
        vs, _ = build(*args)
        return vs, np.broadcast_to(basis.u[:, 1:], vs.shape)

    monkeypatch.setattr(sympspec.extremal, "_construct", top_pairs)
    cert = phi_extremal_check(a, np.array([1, 2]), phi_sum, n_chains=2,
                              rng=np.random.default_rng(0), validate_phi=False)
    assert cert.witness_max == pytest.approx(float(np.sum(dec.d[1:])), rel=1e-12)
    assert cert.witness_max > cert.claimed_value
    assert cert.slack < 0.0 and not cert.passed


def test_phi_extremal_fails_when_the_supermajorization_fails(monkeypatch):
    a, _, _ = _instance(3, 10)
    monkeypatch.setattr(sympspec.extremal, "supermajorize", lambda *args, **kwargs: False)
    cert = phi_extremal_check(a, np.array([1, 3]), phi_sum, n_chains=2,
                              rng=np.random.default_rng(0), validate_phi=False)
    assert cert.n_skipped == 0
    assert cert.slack == -1.0 and not cert.passed


# With no chain, subspace or sample drawn, one side of the certificate
# would pass unchecked, with witness_max or sampled_min left None.  A
# count that is not an integer used to reach range() or <, or, as True,
# run as 1.
@pytest.mark.parametrize("check, count, reason", [
    (lambda a: maxmin_check(a, 1, n_subspaces=0), "n_subspaces", "at least 1"),
    (lambda a: wielandt_certify(a, [1], n_chains=0, samples=0), "n_chains", "at least 1"),
    (lambda a: wielandt_certify(a, [1], n_chains=3, samples=0), "samples", "at least 1"),
    (lambda a: phi_extremal_check(a, [1], phi_sum, n_chains=-3), "n_chains", "at least 1"),
    (lambda a: maxmin_check(a, 1, n_subspaces=2.5), "n_subspaces", "an integer"),
    (lambda a: wielandt_certify(a, [1], n_chains=3, samples=True), "samples", "an integer"),
    (lambda a: phi_extremal_check(a, [1], phi_sum, n_chains="3"), "n_chains", "an integer"),
], ids=["maxmin", "wielandt-chains", "wielandt-samples", "phi-extremal",
        "maxmin-float", "wielandt-samples-bool", "phi-extremal-string"])
def test_certificates_refuse_a_count_below_one(check, count, reason):
    a, _, _ = _instance(2, 7)
    with pytest.raises(ValidationError, match=f"{count} must be {reason}"):
        check(a)


@pytest.mark.parametrize(
    "n_samples, n_chains, n_skipped, passed",
    [
        (40, 4, 2, True),   # cap from the chains: 4 // 2
        (40, 4, 3, False),
        (6, 0, 3, True),    # no chains: cap from the samples, 6 // 2
        (6, 0, 4, False),
        (1, 1, 1, True),    # the cap is at least one
    ],
)
def test_finish_derives_the_skip_cap(n_samples, n_chains, n_skipped, passed):
    cert = _finish("c", 1.0, [0.5], n_samples=n_samples, n_chains=n_chains,
                   n_skipped=n_skipped)
    assert cert.passed is passed


# Python's min skips a NaN anywhere but first, so a NaN slack after a
# number used to pass the certificate.
@pytest.mark.parametrize("slacks", [[0.5, math.nan], [math.nan, 0.5],
                                    [0.5, np.float64("nan"), 1.0]],
                         ids=["nan-last", "nan-first", "numpy-nan-inside"])
def test_finish_fails_on_a_nan_slack_in_any_place(slacks):
    cert = _finish("x", 1.0, slacks)
    assert math.isnan(cert.slack) and not cert.passed


def test_finish_keeps_the_bits_of_min_without_a_nan():
    # min keeps the first of equal values: 0.0 before -0.0 reads 0.0.
    for slacks in ([0.0, -0.0], [-0.0, 0.0], [0.25, np.float64(-1.5), 3.0]):
        slack = _finish("x", 1.0, slacks).slack
        assert slack == min(slacks)
        assert math.copysign(1.0, slack) == math.copysign(1.0, min(slacks))


# A tolerance that is no positive finite real number used to raise a raw
# TypeError (a string, or a complex number, which phi-extremal first
# warned about), run as 1.0 (True), or, as a NaN eq_tol, drop the eigen
# tuple's check and pass.
@pytest.mark.parametrize("value", ["1e-9", 1e-9 + 0j, True, np.nan, 0.0, -1e-9, np.inf],
                         ids=["string", "complex", "bool", "nan", "zero", "negative", "inf"])
@pytest.mark.parametrize("check, name", [
    (lambda a, v: maxmin_check(a, 1, n_subspaces=1, tol=v), "tol"),
    (lambda a, v: wielandt_certify(a, [1], n_chains=1, samples=1, tol=v), "tol"),
    (lambda a, v: wielandt_certify(a, [1], n_chains=1, samples=1, eq_tol=v), "eq_tol"),
    (lambda a, v: phi_extremal_check(a, [1], phi_sum, n_chains=1, tol=v), "tol"),
], ids=["maxmin", "wielandt", "wielandt-eq", "phi-extremal"])
def test_certificates_refuse_a_tolerance_that_is_no_positive_finite_real(check, name, value):
    a, _, _ = _instance(2, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"^{name} must be positive and finite"):
            check(a, value)


def test_maxmin_fails_on_a_witness_above_the_claim(monkeypatch):
    # The first two witnesses of the stack are the top eigen pair, whose
    # energy d_3 lies far above the claim d_1.  The witness slack is the
    # one check of that bound, so the certificate fails and skips nothing.
    a, dec, basis = _instance(3, 3)
    witnesses = sympspec.extremal._witnesses
    top = (basis.u[:, 2], basis.v[:, 2], tuple_value(a, basis.u[:, 2], basis.v[:, 2]))
    stacks = []

    def forced(m_subs, *args):
        stacks.append(len(m_subs))
        return [top, top] + witnesses(m_subs, *args)[2:]

    monkeypatch.setattr(sympspec.extremal, "_witnesses", forced)
    cert = maxmin_check(a, 1, n_subspaces=4, rng=np.random.default_rng(0))
    assert stacks == [4]
    assert cert.witness_max == pytest.approx(dec.d[2], rel=1e-9)
    assert cert.slack < 0.0
    assert cert.n_skipped == 0
    assert cert.passed is False


def _same_bits(got, want):
    return all(np.asarray(g).tobytes() == np.asarray(w).tobytes() for g, w in zip(got, want))


def test_a_stacked_witness_is_poincare_witness_of_its_subspace_bit_for_bit():
    rng = np.random.default_rng(50)
    for n in range(2, 7):
        a, _, basis = _instance(n, 60 + n)
        for k in range(1, n + 1):
            m_subs = _haar(4, 2 * n, rng)[:, :, : 2 * n - k + 1]
            for m_sub, (u, v, energy) in zip(m_subs, _witnesses(m_subs, basis, a)):
                alone = poincare_witness(m_sub, basis, a)
                assert _same_bits((u, v), alone), (n, k)
                assert energy == tuple_value(a, *alone)


def test_witnesses_that_keep_different_counts_are_grouped_and_still_match(monkeypatch):
    # At n = 3, k = 2 a subspace of rank 4 instead of 5 meets the
    # canonical space in a 3-space, with no invariant plane: its outcome
    # is a ConstructionError, alone, and the other two match their
    # single calls.  The sharp step runs once per count.
    a, _, basis = _instance(3, 70)
    m_subs = _haar(3, 6, np.random.default_rng(71))[:, :, :5]
    m_subs[1, :, 4] = m_subs[1, :, 0]
    sharp = sympspec.extremal._sharp_std
    shapes = []

    def recorded(g):
        shapes.append(g.shape)
        return sharp(g)

    monkeypatch.setattr(sympspec.extremal, "_sharp_std", recorded)
    outcomes = _witnesses(m_subs, basis, a)
    assert sorted(shapes) == [(1, 6, 3), (2, 6, 4)]
    assert isinstance(outcomes[1], ConstructionError)
    with pytest.raises(ConstructionError, match="no invariant plane"):
        poincare_witness(m_subs[1], basis, a)
    for i in (0, 2):
        assert _same_bits(outcomes[i][:2], poincare_witness(m_subs[i], basis, a))


def test_maxmin_counts_a_witness_with_no_invariant_plane_as_skipped(monkeypatch):
    a, _, _ = _instance(3, 70)
    haar = sympspec.extremal._haar

    def one_degenerate(count, dim, rng):
        q = haar(count, dim, rng)
        q[1, :, 4] = q[1, :, 0]
        return q

    monkeypatch.setattr(sympspec.extremal, "_haar", one_degenerate)
    cert = maxmin_check(a, 2, n_subspaces=4, rng=np.random.default_rng(0))
    assert cert.n_skipped == 1 and cert.passed


def test_each_chain_frame_spans_the_factorized_sharp_spaces():
    rng = np.random.default_rng(72)
    for t in range(20):
        n = 2 + t % 5
        k = 1 + (t // 5) % n
        _, _, basis = _instance(n, 500 + t)
        idx = np.sort(rng.choice(np.arange(1, n + 1), size=k, replace=False))
        sizes = (2 * n + 1 - idx).tolist()
        q = _haar(3, 2 * n, rng)[:, :, :sizes[0]]
        for qi, frame in zip(q, _chain_frames(basis._coord @ q, sizes)):
            for s, member in zip(sizes, frame):
                want = _sharp_std(_coords_subspace(qi[:, :s], basis))
                assert member.shape == want.shape
                assert max_principal_angle(member, want) <= 1e-12


def test_the_rank_guard_skips_a_chain(monkeypatch):
    a, _, basis = _instance(3, 73)
    haar = sympspec.extremal._haar

    def one_dependent(count, dim, rng):
        q = haar(count, dim, rng)
        q[2, :, 1] = q[2, :, 0]
        return q

    monkeypatch.setattr(sympspec.extremal, "_haar", one_dependent)
    idx = np.array([1, 3])
    tuples, n_skipped = sympspec.extremal._chain_tuples(idx, basis, 4, np.random.default_rng(1))
    assert n_skipped == 1 and len(tuples) == 3
    q = one_dependent(3, 6, np.random.default_rng(2))
    frames = _chain_frames(basis._coord @ q[:, :, :6], [6, 4])
    assert [isinstance(f, ConstructionError) for f in frames] == [False, False, True]


def test_a_failed_factorization_in_one_chain_skips_that_chain_alone(monkeypatch):
    # The second chain's sharp-space SVD comes back as NaN with the
    # invalid flag raised, as a failed gufunc leaves it.
    a, _, basis = _instance(3, 74)
    svd = sympspec.basis._SVD_F

    def failing_second(x, signature):
        u, s, vt = svd(x, signature=signature)
        s[1] = np.sqrt(-np.ones(s.shape[1]))
        return u, s, vt

    monkeypatch.setattr(sympspec.basis, "_SVD_F", failing_second)
    q = _haar(3, 6, np.random.default_rng(3))[:, :, :6]
    frames = _chain_frames(basis._coord @ q, [6, 4])
    assert [isinstance(f, ConstructionError) for f in frames] == [False, True, False]
    cert = wielandt_certify(a, [1, 3], n_chains=3, samples=2, rng=np.random.default_rng(4))
    assert cert.n_skipped == 1 and cert.passed


def _built_tuples(n, idx, count, seed):
    # A certificate's stack of built chains (m, 2, 2n, k), ambient (v, w).
    a, _, basis = _instance(n, seed)
    tuples, n_skipped = _chain_tuples(np.asarray(idx), basis, count, np.random.default_rng(seed))
    assert n_skipped == 0
    return check_positive_definite(a), basis, tuples


def test_stacked_compressions_give_each_tuples_compress_spectrum():
    pd, basis, tuples = _built_tuples(4, [1, 3, 4], 5, 60)
    ws = tuples[:, 1]
    spectra = _compression_spectra(pd, np.stack([np.hstack([w, basis.prime(w)]) for w in ws]))
    for w, d in zip(ws, spectra):
        assert np.allclose(d, compress(pd, w, basis.prime(w))[1], rtol=1e-13, atol=0.0)


def test_stacked_scoring_refuses_a_tuple_as_compress_refuses_it():
    # The middle tuple's columns are scaled off the symplectic form: the
    # stacked form check raises compress's error for it, class and message.
    pd, basis, tuples = _built_tuples(3, [1, 3], 3, 61)
    ws = tuples[:, 1].copy()
    ws[1] *= 1.1
    t = np.stack([np.hstack([w, basis.prime(w)]) for w in ws])
    with pytest.raises(ValidationError, match="not a symplectic tuple") as stacked:
        _compression_spectra(pd, t)
    with pytest.raises(ValidationError) as one:
        compress(pd, ws[1], basis.prime(ws[1]))
    assert str(stacked.value) == str(one.value)


def test_stacked_traces_raise_for_the_first_failing_pair_as_the_trace_check_does():
    pd, basis, tuples = _built_tuples(3, [2, 3], 3, 62)
    vs, ws = tuples[:, 0].copy(), tuples[:, 1]
    lhs, rhs = _traces(pd.a, ws, vs, basis)
    for c in range(3):
        assert (lhs[c], rhs[c]) == pytest.approx(same_span_trace_check(pd, ws[c], vs[c], basis))
    vs[1], vs[2] = vs[2], vs[1].copy()
    with pytest.raises(NumericalContractError, match="trace equality violated") as stacked:
        _traces(pd.a, ws, vs, basis)
    with pytest.raises(NumericalContractError) as one:
        same_span_trace_check(pd, ws[1], vs[1], basis)
    assert str(stacked.value) == str(one.value)
