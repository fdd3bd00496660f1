"""Shipped spectral functionals and the symmetric-polynomial helper."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympspec.errors import ValidationError
from sympspec.functionals import (
    SHIPPED,
    SpectralFunctional,
    elementary_symmetric,
    phi_esym2,
    phi_min,
    phi_product,
    phi_sum,
)

VALUES = st.lists(
    st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    min_size=1,
    max_size=7,
)


def test_values_on_small_vector():
    x = [1.0, 2.0, 3.0]
    assert phi_sum(x) == 6.0
    assert phi_product(x) == 6.0
    assert phi_min(x) == 1.0
    assert phi_esym2(x) == 11.0


def test_elementary_symmetric_edge_orders():
    x = np.array([2.0, 5.0])
    assert elementary_symmetric(x, 0) == 1.0
    assert elementary_symmetric(x, 1) == 7.0
    assert elementary_symmetric(x, 2) == 10.0
    assert elementary_symmetric(x, 3) == 0.0
    for order in (-1, 1.5, 2.0, "2", None):
        with pytest.raises(ValueError, match="order must be (an integer|at least 0)"):
            elementary_symmetric(x, order)
    assert elementary_symmetric(x, np.int64(2)) == 10.0


# A boolean order used to index e as a mask: True gave [[1.0, 7.0]].
@pytest.mark.parametrize("order", [-1, 1.5, "2", True, False])
def test_elementary_symmetric_raises_the_package_validation_error(order):
    with pytest.raises(ValidationError, match="order must be (an integer|at least 0)"):
        elementary_symmetric(np.array([2.0, 5.0]), order)


@given(VALUES, st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_elementary_symmetric_matches_brute_force(values, r):
    x = np.array(values)
    brute = sum(
        float(np.prod([x[i] for i in combo]))
        for combo in itertools.combinations(range(x.size), r)
    )
    assert elementary_symmetric(x, r) == pytest.approx(brute, rel=1e-10, abs=1e-12)


@given(VALUES)
@settings(max_examples=60, deadline=None)
def test_shipped_functionals_are_permutation_invariant(values):
    x = np.array(values)
    perm = np.random.default_rng(0).permutation(x)
    for phi in SHIPPED:
        assert phi(x) == pytest.approx(phi(perm), rel=1e-12)


def test_custom_functional_call_casts_to_float():
    phi = SpectralFunctional("range", lambda v: np.max(v) - np.min(v))
    out = phi([1, 4])
    assert isinstance(out, float) and out == 3.0


def _scalar_esym(x, r):
    # Reference: the recurrence one scalar at a time.
    e = [1.0] + [0.0] * r
    for i, xi in enumerate(x):
        for j in range(min(r, i + 1), 0, -1):
            e[j] += xi * e[j - 1]
    return e[r]


@pytest.mark.parametrize("n", range(1, 8))
def test_shipped_functionals_on_a_batch_match_single_vectors_bit_for_bit(n):
    batch = np.random.default_rng(n).uniform(0.1, 3.0, size=(500, n))
    for phi in SHIPPED:
        values = phi.fn(batch)
        assert values.shape == (500,)
        assert all(v == phi(x) for v, x in zip(values, batch)), phi.name
    assert all(phi_esym2(x) == _scalar_esym(x.tolist(), 2) for x in batch)
    if n < 2:
        assert np.array_equal(phi_esym2.fn(batch), np.zeros(500))
