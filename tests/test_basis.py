"""Basis coordinates, the prime map, sharp subspaces, the dual-chain
construction and the trace identity it feeds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympspec.basis
from sympspec import linalg
from sympspec.basis import (
    SymplecticBasis,
    _construct,
    _coords_subspace,
    _nested,
    _sharp_residual,
    _sharp_std,
    _unit_in,
    dual_chain_construct,
    prime_coords,
    same_span_trace_check,
)
from sympspec.core import (
    _form_defect,
    random_pd,
    random_symplectic,
    symplectic_inner,
    tuple_form_defect,
    williamson,
)
from sympspec import errors
from sympspec.errors import (
    _TOL, _TRIAL_ERRORS, ConstructionError, NumericalContractError, ValidationError,
    _whole_or_alone,
)
from sympspec.extremal import random_orthogonal
from sympspec.linalg import (
    fnorm,
    max_principal_angle,
    null_space_basis,
    orthonormal_columns,
    span_residual,
)

RNG = np.random.default_rng(303)


def _random_basis(n):
    return SymplecticBasis(random_symplectic(n, RNG))


def test_standard_basis_round_trip():
    basis = SymplecticBasis.standard(3)
    x = RNG.normal(size=6)
    assert np.allclose(basis.coords(x), x)
    assert np.allclose(basis.lift(x), x)
    y = RNG.normal(size=6)
    assert float(basis.coords(x) @ basis.coords(y)) == pytest.approx(float(x @ y))


# 2.5 used to raise numpy's TypeError and True to build the basis for n = 1.
@pytest.mark.parametrize("n, reason", [(0, "at least 1"), (2.5, "an integer"),
                                       (True, "an integer"), ("2", "an integer")])
def test_standard_basis_refuses_an_n_that_is_not_a_positive_integer(n, reason):
    with pytest.raises(ValidationError, match=f"n must be {reason}"):
        SymplecticBasis.standard(n)
    assert SymplecticBasis.standard(np.int64(2)).n == 2


def test_coords_inverts_lift_in_random_basis():
    basis = _random_basis(4)
    a = RNG.normal(size=(8, 3))
    assert fnorm(basis.coords(basis.lift(a)) - a) <= 1e-9 * fnorm(a)
    x = RNG.normal(size=8)
    assert fnorm(basis.lift(basis.coords(x)) - x) <= 1e-9 * fnorm(x)


def test_basis_refuses_blocks_that_are_not_full():
    for cols in (np.eye(6)[:, [0, 3]], np.eye(6)[:4]):
        with pytest.raises(ValidationError, match="basis columns have invalid shape"):
            SymplecticBasis(cols)


def test_basis_rejects_non_symplectic_columns():
    with pytest.raises(ValidationError):
        SymplecticBasis(2.0 * np.eye(4))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_basis_refuses_non_finite_columns(value):
    # A NaN makes the form defect NaN, which no tolerance comparison may pass.
    cols = np.eye(4)
    cols[1, 2] = value
    with pytest.raises(ValidationError, match="basis columns must be finite"):
        SymplecticBasis(cols)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_prime_coords_is_a_quarter_turn(m, seed):
    a = np.random.default_rng(seed).normal(size=2 * m)
    p = prime_coords(a)
    assert np.allclose(prime_coords(p), -a)
    assert np.linalg.norm(p) == pytest.approx(float(np.linalg.norm(a)))


def test_prime_of_standard_vectors():
    basis = SymplecticBasis.standard(2)
    e = np.eye(4)
    assert np.allclose(basis.prime(e[:, 0]), e[:, 2])
    assert np.allclose(basis.prime(e[:, 2]), -e[:, 0])


def test_prime_swaps_basis_halves():
    basis = _random_basis(3)
    assert fnorm(basis.prime(basis.u) - basis.v) <= 1e-9
    assert fnorm(basis.prime(basis.v) + basis.u) <= 1e-9


def test_b_inner_via_form_and_prime():
    # <x, y>_B equals <x, J y'> for every pair in the span.
    basis = _random_basis(3)
    x, y = RNG.normal(size=6), RNG.normal(size=6)
    xa, ya = basis.lift(x), basis.lift(y)
    direct = float(basis.coords(xa) @ basis.coords(ya))
    assert direct == pytest.approx(float(x @ y), rel=1e-10, abs=1e-12)
    assert direct == pytest.approx(
        symplectic_inner(xa, basis.prime(ya)), rel=1e-9, abs=1e-10
    )


def test_prime_is_b_isometry():
    basis = _random_basis(4)
    x = basis.lift(RNG.normal(size=8))
    assert np.linalg.norm(basis.coords(basis.prime(x))) == pytest.approx(
        float(np.linalg.norm(basis.coords(x))), rel=1e-10
    )


def test_sharp_of_prime_closed_plane():
    # In the standard basis with n = 2, span{e1, e3} is its own prime.
    basis = SymplecticBasis.standard(2)
    w = np.eye(4)[:, [0, 2]]
    sharp = basis.lift(_sharp_std(_coords_subspace(w, basis)))
    assert max_principal_angle(basis.prime(w), w) <= 1e-12
    assert max_principal_angle(sharp, w) <= 1e-12


def test_sharp_of_a_line_is_empty():
    basis = SymplecticBasis.standard(2)
    w = np.eye(4)[:, :1]
    assert _sharp_std(_coords_subspace(w, basis)).shape[1] == 0
    assert np.allclose(basis.prime(w), np.eye(4)[:, 2:3])


def test_sharp_dimension_is_even_and_prime_invariant():
    basis = _random_basis(3)
    for _ in range(10):
        w = basis.cols @ random_orthogonal(6, RNG)[:, : int(RNG.integers(2, 6))]
        sharp = basis.lift(_sharp_std(_coords_subspace(w, basis)))
        assert sharp.shape[1] % 2 == 0
        assert np.linalg.matrix_rank(basis.prime(w)) == w.shape[1]
        if sharp.shape[1]:
            image = basis.prime(sharp)
            assert max_principal_angle(sharp, image) <= 1e-7


def test_dual_chain_construct_postconditions():
    for _ in range(5):
        n = int(RNG.integers(2, 5))
        basis = _random_basis(n)
        k = int(RNG.integers(1, min(n, 3) + 1))
        idx = np.sort(RNG.choice(np.arange(1, n + 1), size=k, replace=False))
        vq = random_orthogonal(2 * n, RNG)
        wq = random_orthogonal(2 * n, RNG)
        vchain = [vq[:, : n + int(i)] for i in idx]
        wchain = [wq[:, : 2 * n - int(i) + 1] for i in idx]
        vs, ws = dual_chain_construct(vchain, wchain, basis, RNG)
        assert vs.shape == (2 * n, k) and ws.shape == (2 * n, k)
        for j in range(k):
            vsharp = basis.lift(_sharp_std(_coords_subspace(vchain[j], basis)))
            wsharp = basis.lift(_sharp_std(_coords_subspace(wchain[j], basis)))
            assert span_residual(vsharp, vs[:, j]) <= 1e-8
            assert span_residual(wsharp, ws[:, j]) <= 1e-8
        vf = np.hstack([vs, basis.prime(vs)])
        wf = np.hstack([ws, basis.prime(ws)])
        assert max_principal_angle(vf, wf) <= 1e-8
        assert tuple_form_defect(ws, basis.prime(ws)) <= 1e-8


def _frame(vchain, wchains, basis):
    """The coordinate frame of one increasing chain and of several
    decreasing ones, as dual_chain_construct forms it: (vsharp, vperp,
    the decreasing chains' sharp spaces, one list per chain)."""
    vsharp = [_sharp_std(_coords_subspace(v, basis)) for v in vchain]
    return (vsharp, [null_space_basis(v.T) for v in vsharp],
            [[_sharp_std(_coords_subspace(w, basis)) for w in chain] for chain in wchains])


def _random_chains(n, idx, count, rng):
    vq = random_orthogonal(2 * n, rng)
    wqs = [random_orthogonal(2 * n, rng) for _ in range(count)]
    return [vq[:, : n + i] for i in idx], [[wq[:, : 2 * n - i + 1] for i in idx] for wq in wqs]


def _assert_postconditions(vs, ws, vchain, wchain, basis):
    # dual_chain_construct's: each column in its sharp space, equal spans
    # with primes, and a symplectic tuple.
    for j in range(vs.shape[1]):
        vsharp = basis.lift(_sharp_std(_coords_subspace(vchain[j], basis)))
        wsharp = basis.lift(_sharp_std(_coords_subspace(wchain[j], basis)))
        assert span_residual(vsharp, vs[:, j]) <= 1e-8
        assert span_residual(wsharp, ws[:, j]) <= 1e-8
    vf = np.hstack([vs, basis.prime(vs)])
    wf = np.hstack([ws, basis.prime(ws)])
    assert max_principal_angle(vf, wf) <= 1e-8
    assert tuple_form_defect(ws, basis.prime(ws)) <= 1e-8


def test_every_tuple_of_a_stack_meets_the_postconditions():
    rng = np.random.default_rng(52)
    for t in range(24):
        n = 2 + t % 4
        k = 1 + (t // 4) % min(n, 3)
        idx = np.sort(rng.choice(np.arange(1, n + 1), size=k, replace=False))
        basis = _random_basis(n)
        vchain, wchains = _random_chains(n, idx, 4, rng)
        vsharp, vperp, wsharps = _frame(vchain, wchains, basis)
        vs, ws = _construct(vsharp, vperp, [np.stack(w) for w in zip(*wsharps)], basis, rng)
        assert vs.shape == ws.shape == (4, 2 * n, k)
        for c in range(4):
            _assert_postconditions(vs[c], ws[c], vchain, wchains[c], basis)


def test_a_stack_of_one_builds_the_bits_of_one_chain():
    # Same draws, same bits: the construction suite builds one chain at a
    # time, and its records did not move when the routine took stacks.
    rng = np.random.default_rng(53)
    for t in range(20):
        n = 2 + t % 4
        idx = np.sort(rng.choice(np.arange(1, n + 1), size=1 + t % min(n, 3), replace=False))
        basis = _random_basis(n)
        vchain, wchains = _random_chains(n, idx, 1, rng)
        vsharp, vperp, [wsharp] = _frame(vchain, wchains, basis)
        one = _construct(vsharp, vperp, wsharp, basis, np.random.default_rng(t))
        stack = _construct(vsharp, vperp, [w[None] for w in wsharp], basis,
                           np.random.default_rng(t))
        assert all(np.array_equal(x, y[0]) for x, y in zip(one, stack))


def test_a_chain_off_its_sharp_space_is_skipped_alone():
    # Chain 1's second frame member leans 1e-6 off its sharp space (the
    # first is all of R^6): the w drawn there leaves the frame's prime
    # image, which only that chain's residual contract catches.  The
    # stack raises it, on its worst chain, as that chain raises it alone;
    # the certificates then build each chain alone (errors._whole_or_alone),
    # and the other two keep every postcondition.
    rng = np.random.default_rng(54)
    n, idx = 3, np.array([1, 3])
    basis = _random_basis(n)
    vchain, wchains = _random_chains(n, idx, 3, rng)
    vsharp, vperp, wsharps = _frame(vchain, wchains, basis)
    g = wsharps[1][1]
    wsharps[1][1] = orthonormal_columns(g + 1e-6 * rng.standard_normal(g.shape))
    stacked = [np.stack(w) for w in zip(*wsharps)]
    with pytest.raises(NumericalContractError, match="constructed vector 1 left its sharp space"):
        _construct(vsharp, vperp, stacked, basis, rng)
    # Each chain's (v, w) as the certificates' builder stacks them.
    built = _whole_or_alone(
        lambda i: np.stack(_construct(vsharp, vperp, [w[i] for w in stacked], basis, rng), axis=1),
        np.arange(3), _TRIAL_ERRORS)
    assert len(built) == 3 and isinstance(built[1], NumericalContractError)
    for c in (0, 2):
        vs, ws = built[c]
        _assert_postconditions(vs, ws, vchain, wchains[c], basis)
    with pytest.raises(NumericalContractError, match="constructed vector 1 left its sharp space"):
        _construct(vsharp, vperp, wsharps[1], basis, rng)


def _frames_in_turn(frames):
    """A stand-in for extremal._chain_frames that hands out the given
    per-chain frames: first all of them as one stack, then each chain's
    alone, in the order a certificate asks for them."""
    stacks = iter([[np.stack(w) for w in zip(*frames)]] + [[w[None] for w in f] for f in frames])
    return lambda x, sizes: next(stacks)


def test_a_stack_whose_meets_differ_in_dimension_builds_each_chain_alone(monkeypatch):
    # Index set {2} at n = 3: sharp(V) is pairs 1 and 2, and a random W
    # meets it in a plane; the middle chain's W is sharp(V) itself, so its
    # meet is 4-dimensional.  The stack refuses, and the certificates'
    # chain builder builds the three chains one at a time.
    rng = np.random.default_rng(55)
    basis = SymplecticBasis.standard(3)
    eye, pair = np.eye(6), np.arange(6) % 3
    own = eye[:, pair < 2]
    frames = [[_sharp_std(random_orthogonal(6, rng)[:, :5])], [own],
              [_sharp_std(random_orthogonal(6, rng)[:, :5])]]
    vsharp, vperp = [own], [eye[:, pair >= 2]]
    with pytest.raises(ConstructionError, match="keep different column counts"):
        _construct(vsharp, vperp, [np.stack([f[0] for f in frames])], basis, rng)
    monkeypatch.setattr(sympspec.extremal, "_chain_frames", _frames_in_turn(frames))
    tuples, n_skipped = sympspec.extremal._chain_tuples(np.array([2]), basis, 3, rng)
    assert n_skipped == 0 and tuples.shape == (3, 2, 6, 1)
    for (v, w), [g] in zip(tuples, frames):
        assert span_residual(own, v) <= 1e-12 and span_residual(g, w) <= 1e-12
        assert max_principal_angle(np.hstack([v, prime_coords(v)]),
                                   np.hstack([w, prime_coords(w)])) <= 1e-8


def test_a_fresh_unit_for_a_vanishing_component_keeps_one_chain_and_its_stack_equal(monkeypatch):
    # With the snap floor above every component, every extension step
    # draws a fresh unit of its feasible space; the contracts then refuse
    # the tuples that draw breaks, and a stack of one raises what one
    # chain raises, and otherwise builds its bits.
    monkeypatch.setitem(errors._TOL, "snap", 10.0)
    rng = np.random.default_rng(56)
    outcomes = set()
    for t in range(20):
        n = 2 + t % 4
        idx = np.sort(rng.choice(np.arange(1, n + 1), size=2 + t % min(n - 1, 2), replace=False))
        basis = _random_basis(n)
        vchain, wchains = _random_chains(n, idx, 1, rng)
        vsharp, vperp, [wsharp] = _frame(vchain, wchains, basis)
        try:
            one = _construct(vsharp, vperp, wsharp, basis, np.random.default_rng(t))
        except NumericalContractError as exc:
            with pytest.raises(NumericalContractError) as stacked:
                _construct(vsharp, vperp, [w[None] for w in wsharp], basis,
                           np.random.default_rng(t))
            assert str(stacked.value) == str(exc)
            outcomes.add("refused")
        else:
            stack = _construct(vsharp, vperp, [w[None] for w in wsharp], basis,
                               np.random.default_rng(t))
            assert all(np.array_equal(x, y[0]) for x, y in zip(one, stack))
            outcomes.add("built")
    assert outcomes == {"built", "refused"}


def _corrupted_construction(monkeypatch, corrupt):
    """dual_chain_construct on a 3-space in R^4 (index set {1}) with the
    built coordinate tuples passed through corrupt(vs, ws, vperp), vperp
    the orthogonal complement of the sharp space of the 3-space."""
    real = sympspec.basis._dual_chain_std

    def stub(vsharp, vperp, wsharp, rng):
        return corrupt(*real(vsharp, vperp, wsharp, rng), vperp[0])

    monkeypatch.setattr(sympspec.basis, "_dual_chain_std", stub)
    q = random_orthogonal(4, np.random.default_rng(17))
    return dual_chain_construct([q[:, :3]], [np.eye(4)], SymplecticBasis.standard(2),
                                np.random.default_rng(0))


def test_dual_chain_refuses_a_tuple_that_is_not_orthosymplectic(monkeypatch):
    with pytest.raises(NumericalContractError, match="constructed tuple defects"):
        _corrupted_construction(monkeypatch, lambda vs, ws, g: (1.1 * vs, ws))


def test_dual_chain_refuses_a_vector_off_its_sharp_space(monkeypatch):
    # A unit vector orthogonal to the sharp space of the 3-space: with its
    # prime it is still orthosymplectic, so only the sharp membership test
    # can refuse it.
    def off_sharp(vs, ws, perp):
        return perp[:, :1], ws

    with pytest.raises(NumericalContractError, match="left its sharp space"):
        _corrupted_construction(monkeypatch, off_sharp)


def test_dual_chain_refuses_tuples_with_different_spans(monkeypatch):
    # The w-chain is all of R^4, so any unit w passes its own checks; one
    # outside span{v, v'} differs only in span.
    def other_span(vs, ws, perp):
        return vs, null_space_basis(np.hstack([vs, prime_coords(vs)]).T)[:, :1]

    with pytest.raises(NumericalContractError, match="constructed spans differ"):
        _corrupted_construction(monkeypatch, other_span)


def test_dual_chain_refuses_a_stray_column_in_the_replacement_slot(monkeypatch):
    # The slot that the chain extension leaves beside the earlier pairs is
    # a plane.  A third column, taken from the span of those pairs, puts
    # the replacement w-vector off them, which only the final certificate
    # of the tuple catches.
    rng = np.random.default_rng(23)
    n = 3
    vq, wq = random_orthogonal(2 * n, rng), random_orthogonal(2 * n, rng)
    vchain = [vq[:, : n + i] for i in (1, 2)]
    wchain = [wq[:, : 2 * n - i + 1] for i in (1, 2)]
    basis = SymplecticBasis.standard(n)
    dual_chain_construct(vchain, wchain, basis, np.random.default_rng(0))
    real = sympspec.basis._slot_plane

    def stray(u0, s):
        return np.hstack([real(u0, s), s[:, :1]])

    monkeypatch.setattr(sympspec.basis, "_slot_plane", stray)
    with pytest.raises(NumericalContractError, match="constructed tuple defects"):
        dual_chain_construct(vchain, wchain, basis, np.random.default_rng(0))


def test_the_slot_plane_is_a_prime_closed_orthonormal_plane_beside_the_pairs(monkeypatch):
    # Every slot plane that dual_chain_construct draws from, at n = 2..6:
    # orthonormal, mapped to itself by the prime map and orthogonal to
    # [xs, xs'].
    real = sympspec.basis._slot_plane
    seen = []

    def recording(u0, s):
        z = real(u0, s)
        seen.append((z, s))
        return z

    monkeypatch.setattr(sympspec.basis, "_slot_plane", recording)
    rng = np.random.default_rng(2049)
    for t in range(40):
        n = 2 + t % 5
        idx = np.sort(rng.choice(np.arange(1, n + 1), size=min(n, 2 + t % 3), replace=False))
        vq, wq = random_orthogonal(2 * n, rng), random_orthogonal(2 * n, rng)
        dual_chain_construct([vq[:, : n + i] for i in idx],
                             [wq[:, : 2 * n - i + 1] for i in idx], _random_basis(n), rng)
    assert len(seen) > 40
    for z, s in seen:
        assert z.shape == (s.shape[0], 2)
        assert fnorm(z.T @ z - np.eye(2)) <= 1e-12
        assert max_principal_angle(prime_coords(z), z) <= 1e-12
        assert fnorm(s.T @ z) <= 1e-12


def test_unit_in_draws_once_and_refuses_an_empty_space():
    # g has orthonormal columns, as every caller's does, so one draw c
    # gives ||g c|| = ||c|| > 0 and needs no redraw.
    g = random_orthogonal(5, RNG)[:, :3]
    ref = np.random.default_rng(4)
    c = ref.standard_normal(3)
    rng = np.random.default_rng(4)
    x = _unit_in(g, rng)
    assert np.array_equal(x, g @ c / fnorm(g @ c))
    assert rng.bit_generator.state == ref.bit_generator.state
    with pytest.raises(ConstructionError, match="feasible subspace is empty"):
        _unit_in(np.zeros((4, 0)), rng)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_dual_chain_rejects_mismatched_dimensions():
    basis = SymplecticBasis.standard(2)
    q = random_orthogonal(4, RNG)
    with pytest.raises(ValidationError):
        dual_chain_construct([q[:, :3]], [q[:, :3]], basis, RNG)


def test_same_span_trace_check_on_eigen_tuple():
    a = random_pd(3, RNG)
    dec = williamson(a)
    basis = SymplecticBasis(dec.m)
    x = basis.u[:, :2]
    lhs, rhs = same_span_trace_check(a, x, x, basis)
    assert lhs == pytest.approx(rhs)
    assert lhs == pytest.approx(2.0 * float(np.sum(dec.d[:2])), rel=1e-9)


def test_same_span_trace_check_rejects_unequal_traces():
    # v leans 5e-9 off x: inside the span and orthosymplectic bounds, but
    # the strong coupling in A moves the trace by 1.8e-5 against 2000.
    a = np.kron(np.eye(2), [[1000.0, 900.0], [900.0, 1000.0]])
    x = np.eye(4)[:, :1]
    v = _unit(np.array([1.0, 5e-9, 0.0, 0.0]))[:, None]
    with pytest.raises(NumericalContractError, match="trace equality violated"):
        same_span_trace_check(a, x, v, SymplecticBasis.standard(2))


def test_same_span_trace_check_rejects_span_mismatch():
    # u_1 against u_2 of a Williamson basis: the spans differ, which a
    # dual_chain_construct pair never does, and so do the traces 2 d_1
    # and 2 d_2, which is what the check now catches.
    a = random_pd(2, RNG)
    dec = williamson(a)
    basis = SymplecticBasis(dec.m)
    assert not np.isclose(dec.d[0], dec.d[1], rtol=1e-6)
    with pytest.raises(NumericalContractError, match="trace equality violated"):
        same_span_trace_check(a, basis.u[:, :1], basis.u[:, 1:2], basis)


def test_same_span_trace_check_refuses_a_nan_tuple():
    # One NaN entry of the tuples used to make both traces NaN, which the
    # trace-equality bound failed; it is refused as input now, as a NaN A
    # is, before any trace is formed.
    x = np.eye(4)[:, :1]
    x[0, 0] = np.nan
    with pytest.raises(ValidationError, match="tuple columns must be finite"):
        same_span_trace_check(np.eye(4), x, x, SymplecticBasis.standard(2))


@pytest.mark.parametrize("x", [np.ones(4), np.ones((3, 1))], ids=["1-d", "3-rows"])
def test_same_span_trace_check_refuses_tuples_of_the_wrong_shape(x):
    with pytest.raises(ValidationError, match="tuples have invalid shape"):
        same_span_trace_check(np.eye(4), x, x, SymplecticBasis.standard(2))


@pytest.mark.parametrize("n", range(2, 8))
def test_a_primed_tuple_has_equal_form_and_orthonormality_defects(n):
    # The prime map in coordinates is -J, so for full = [X, X'] the form
    # defect equals the orthonormality defect for every X: _check_built
    # takes the one for both.
    rng = np.random.default_rng(140 + n)
    for scale in (1e-6, 1e-3, 1.0, 10.0):
        for k in range(1, n + 1):
            x = scale * rng.standard_normal((2 * n, k))
            full = np.hstack([x, prime_coords(x)])
            orth = fnorm(full.T @ full - np.eye(2 * k))
            assert abs(orth - _form_defect(full)) <= 1e-14 * orth


def _unit(x):
    return x / np.linalg.norm(x)


def test_in_sharp_agrees_with_the_intersection_route():
    # Reference: distance to the computed intersection W cap W'.
    rng = np.random.default_rng(2024)
    for _ in range(300):
        m = int(rng.integers(2, 6))
        g = random_orthogonal(2 * m, rng)[:, : int(rng.integers(m + 1, 2 * m))]
        sharp = _sharp_std(g)
        assert sharp.shape[1] > 0

        x = _unit(sharp @ rng.standard_normal(sharp.shape[1]))
        assert _sharp_residual(x, g) <= 1e-8
        assert span_residual(sharp, x) <= 1e-8

        r = rng.standard_normal(2 * m)
        off = x + 1e-6 * _unit(r - sharp @ (sharp.T @ r))
        assert _sharp_residual(off, g) > 1e-8
        assert span_residual(sharp, off) > 1e-8

        # x in W but orthogonal to W#, so x' leaves W.
        y = g @ rng.standard_normal(g.shape[1])
        y = _unit(y - sharp @ (sharp.T @ y))
        assert _sharp_residual(y, g) > 1e-8
        assert span_residual(sharp, y) > 1e-8


def _sharp_reference(g):
    # W cap W' by four SVDs: re-orthonormalise both spans, take the
    # principal directions of the pair, average each matched pair and
    # re-orthonormalise the result.
    uo = orthonormal_columns(g)
    wo = orthonormal_columns(prime_coords(g))
    p, sig, qt = np.linalg.svd(uo.T @ wo)
    k = int(np.sum(sig >= 1.0 - _TOL["principal cosine"]))
    return orthonormal_columns(uo @ p[:, :k] + wo @ qt[:k].T)


def _prime_closed(m, rng):
    # Span of the coordinate pairs (e_i, e_i') for a random index subset,
    # in a random orthonormal basis of that span.
    idx = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
    pairs = np.eye(2 * m)[:, np.concatenate([idx, idx + m])]
    return pairs @ random_orthogonal(pairs.shape[1], rng)


def test_sharp_std_agrees_with_the_four_svd_route(monkeypatch):
    rng = np.random.default_rng(2026)
    cases = []
    for _ in range(200):
        m = int(rng.integers(2, 6))
        cases.append(random_orthogonal(2 * m, rng)[:, : int(rng.integers(m + 1, 2 * m))])
        cases.append(_prime_closed(m, rng))

    svd_calls = 0

    def counting(svd):
        def counted(*args, **kwargs):
            nonlocal svd_calls
            svd_calls += 1
            return svd(*args, **kwargs)
        return counted

    for handle in ("_SVD_F", "_SVD_S", "_SVD"):
        monkeypatch.setattr(linalg, handle, counting(getattr(linalg, handle)))
    for g in cases:
        before = svd_calls
        sharp = _sharp_std(g)
        assert svd_calls - before == 1
        ref = _sharp_reference(g)
        assert sharp.shape == ref.shape
        assert sharp.shape[1] > 0 and sharp.shape[1] % 2 == 0
        assert fnorm(sharp.T @ sharp - np.eye(sharp.shape[1])) <= 1e-12
        assert max_principal_angle(sharp, ref) <= 1e-10
    for g in cases[1::2]:
        # A prime-closed W is its own sharp space.
        assert max_principal_angle(_sharp_std(g), g) <= 1e-10

    line = _unit(rng.standard_normal(6))[:, None]
    assert _sharp_std(line).shape == (6, 0)


def test_nested_agrees_with_the_principal_angle_route():
    rng = np.random.default_rng(2025)
    for _ in range(100):
        dim = int(rng.integers(4, 11))
        q = random_orthogonal(dim, rng)
        small = int(rng.integers(1, dim))
        big = int(rng.integers(small, dim + 1))
        s, t = q[:, :small], q[:, :big]
        assert _nested(s, t)
        assert max_principal_angle(s, t @ (t.T @ s)) <= 1e-7

        if big < dim:
            moved = orthonormal_columns(s + 1e-5 * q[:, big:big + 1])
            assert not _nested(moved, t)
            assert max_principal_angle(moved, t @ (t.T @ moved)) > 1e-7


def _chain_q(dim, seed):
    return random_orthogonal(dim, np.random.default_rng(seed))


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: dual_chain_construct(
                [_chain_q(8, 1)[:, :6], _chain_q(8, 2)[:, :7]],
                [_chain_q(8, 3)[:, :7], _chain_q(8, 3)[:, :6]],
                SymplecticBasis.standard(4), 0,
            ),
            "increasing chain fails nesting",
        ),
        (
            lambda: dual_chain_construct(
                [_chain_q(8, 1)[:, :6], _chain_q(8, 1)[:, :7]],
                [_chain_q(8, 3)[:, :7], _chain_q(8, 4)[:, :6]],
                SymplecticBasis.standard(4), 0,
            ),
            "decreasing chain fails nesting",
        ),
    ],
    ids=["increasing-chain", "decreasing-chain"],
)
def test_containment_checks_reject(call, message):
    with pytest.raises(ValidationError, match=message):
        call()
