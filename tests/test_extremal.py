"""Certificates for the variational characterizations of the spectrum."""

import numpy as np
import pytest

import sympspec.extremal
from sympspec.basis import SymplecticBasis
from sympspec.core import (
    compress,
    random_pd,
    symplectic_inner,
    tuple_form_defect,
    williamson,
)
from sympspec.errors import ConstructionError, ValidationError
from sympspec.extremal import (
    _finish,
    canonical_chains,
    det_product_check,
    maxmin_check,
    phi_extremal_check,
    poincare_witness,
    random_decreasing_chain,
    random_orthogonal,
    sample_tuple_in_chain,
    tuple_value,
    wielandt_certify,
)
from sympspec.functionals import SHIPPED, SpectralFunctional, phi_sum
from sympspec.linalg import orthonormal_columns, span_residual

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


def test_random_decreasing_chain_is_nested():
    sizes = [7, 5, 4]
    chain = random_decreasing_chain(8, sizes, RNG)
    assert [c.shape[1] for c in chain] == sizes
    for j in range(1, len(chain)):
        assert span_residual(chain[j - 1], chain[j]) <= 1e-10


def test_sample_tuple_in_chain_properties():
    _, _, basis = _instance(3, 3)
    idx = np.array([1, 3])
    _, wchain = canonical_chains(basis, idx)
    for _ in range(5):
        x, y = sample_tuple_in_chain(wchain, RNG)
        assert tuple_form_defect(x, y) <= 1e-8
        for j in range(len(wchain)):
            assert span_residual(wchain[j], x[:, j]) <= 1e-8
            assert span_residual(wchain[j], y[:, j]) <= 1e-8


def test_sampled_floor_orthonormalises_each_chain_subspace_once(monkeypatch):
    a, _, basis = _instance(3, 3)
    _, wchain = canonical_chains(basis, np.array([1, 3]))
    calls = []

    def counted(x):
        calls.append(x.shape)
        return orthonormal_columns(x)

    monkeypatch.setattr(sympspec.extremal, "orthonormal_columns", counted)
    values, _ = sympspec.extremal._sampled_floor(a, wchain, 0.0, 5, np.random.default_rng(9), 1e-9)
    assert len(values) == 5
    assert calls == [w.shape for w in wchain]


def test_public_sampler_draws_what_the_floor_sampler_draws():
    a, _, basis = _instance(3, 3)
    _, wchain = canonical_chains(basis, np.array([1, 3]))
    values, _ = sympspec.extremal._sampled_floor(a, wchain, 0.0, 4, np.random.default_rng(9), 1e-9)
    rng = np.random.default_rng(9)
    assert values == [tuple_value(a, *sample_tuple_in_chain(wchain, rng)) for _ in range(4)]


def test_poincare_witness_energy_bound():
    a, dec, basis = _instance(3, 4)
    for k in (1, 2, 3):
        m_sub = random_orthogonal(6, RNG)[:, : 6 - k + 1]
        u, v = poincare_witness(m_sub, basis, rng=RNG)
        assert symplectic_inner(u, v) == pytest.approx(1.0, abs=1e-8)
        value = 0.5 * (float(u @ a @ u) + float(v @ a @ v))
        assert value <= dec.d[k - 1] + 1e-9 * max(1.0, dec.d[k - 1])
        assert span_residual(m_sub, u) <= 1e-8
        assert span_residual(m_sub, v) <= 1e-8


def test_poincare_witness_rejects_bad_dimension():
    _, _, basis = _instance(2, 5)
    with pytest.raises(ValidationError):
        poincare_witness(np.eye(4)[:, :2], basis)


def test_maxmin_certificates_pass():
    a, dec, _ = _instance(3, 6)
    for k in (1, 2, 3):
        cert = maxmin_check(a, k, samples=10, n_subspaces=5, rng=RNG)
        assert cert.passed, cert
        assert cert.claimed_value == pytest.approx(dec.d[k - 1])
        assert cert.equality_gap <= 1e-10 * max(1.0, cert.claimed_value)


def test_maxmin_rejects_out_of_range_index():
    a, _, _ = _instance(2, 7)
    with pytest.raises(ValidationError):
        maxmin_check(a, 5)


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
    liar = SpectralFunctional("max", np.max)  # Schur-convex: fails the audit
    with pytest.raises(ValidationError):
        phi_extremal_check(a, np.array([1]), liar, rng=RNG)


def test_phi_extremal_counts_every_refused_chain(monkeypatch):
    a, _, _ = _instance(3, 14)
    build = sympspec.extremal.dual_chain_construct
    calls = []

    def canonical_only(*args):
        calls.append(args)
        if len(calls) > 1:
            raise ConstructionError("forced failure")
        return build(*args)

    monkeypatch.setattr(sympspec.extremal, "dual_chain_construct", canonical_only)
    cert = phi_extremal_check(a, np.array([1, 3]), phi_sum, n_chains=4, rng=RNG)
    assert len(calls) == 5
    assert cert.n_skipped == cert.n_chains == 4
    assert cert.witness_max is None and not cert.passed


def test_det_product_certificate():
    a, dec, _ = _instance(3, 13)
    idx = np.array([1, 2])
    cert = det_product_check(a, idx, samples=5, rng=RNG)
    assert cert.passed, cert
    target = float(np.prod(dec.d[idx - 1] ** 2))
    assert np.exp(cert.claimed_value) == pytest.approx(target, rel=1e-9)


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


def test_maxmin_fails_on_a_witness_above_the_claim(monkeypatch):
    # The first two witnesses are drawn at the top eigen pair, whose
    # energy d_3 lies far above the claim d_1.  The witness slack is the
    # one check of that bound, so the certificate fails and skips nothing.
    a, dec, _ = _instance(3, 3)
    top = np.eye(6)[:, 2]
    witness = sympspec.extremal.poincare_witness
    calls = []

    def forced(*args, **kwargs):
        calls.append(None)
        if len(calls) > 2:
            return witness(*args, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(sympspec.extremal, "_unit_in", lambda g, rng: top)
            return witness(*args, **kwargs)

    monkeypatch.setattr(sympspec.extremal, "poincare_witness", forced)
    cert = maxmin_check(a, 1, samples=6, n_subspaces=4, rng=np.random.default_rng(0))
    assert len(calls) == 4
    assert cert.witness_max == pytest.approx(dec.d[2], rel=1e-9)
    assert cert.slack < 0.0
    assert cert.n_skipped == 0
    assert cert.passed is False
