"""Shipped spectral functionals and the symmetric-polynomial helper."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    with pytest.raises(ValueError):
        elementary_symmetric(x, -1)


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
