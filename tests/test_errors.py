"""The one comparison behind every numerical contract of the package, its
one scale rule and tolerance table, the one integer check behind every
count, size, order, seed and trial, and the one tolerance check."""

import re
from fractions import Fraction

import numpy as np
import pytest

from sympspec.errors import (
    _TOL, NumericalContractError, ValidationError, _bound, _check_int, _check_tol, _contract,
    _scaled,
)


@pytest.mark.parametrize("value", [np.nan, np.inf, np.nextafter(1e-9, 1.0)],
                         ids=["nan", "inf", "bound-plus-ulp"])
def test_contract_refuses_values_above_the_bound_and_nan(value):
    with pytest.raises(NumericalContractError, match=r"^defect \S+ exceeds 1\.000e-09 at x$"):
        _contract("defect", value, 1e-9, " at x")


def test_contract_passes_a_value_equal_to_the_bound():
    assert _contract("defect", 1e-9, 1e-9) is None


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
def test_check_int_returns_a_plain_int(value):
    out = _check_int("count", value, minimum=3)
    assert out == 3 and type(out) is int


@pytest.mark.parametrize("value, message", [
    (2.5, "count must be an integer, got 2.5"),
    (3.0, "count must be an integer, got 3.0"),
    (True, "count must be an integer, got True"),
    ("3", "count must be an integer, got '3'"),
    (None, "count must be an integer, got None"),
    (2, "count must be at least 3, got 2"),
    (np.int64(-1), "count must be at least 3, got "),
])
def test_check_int_refuses_non_integers_and_values_below_the_minimum(value, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
        _check_int("count", value, minimum=3)


def test_check_int_without_a_minimum_takes_any_integer():
    assert _check_int("seed", -2**70) == -2**70


def test_scaled_floors_the_size_at_one_for_scalars_and_arrays_alike():
    assert _scaled(2.0, 3.0) == 6.0 and _scaled(2.0, 0.5) == 2.0 and _scaled(2.0) == 2.0
    assert _scaled(2.0, np.float64(3.0)) == 6.0
    # A NaN size reads as 1 on both paths, as Python's max(1.0, nan) does.
    assert _scaled(2.0, np.nan) == 2.0
    out = _scaled(2.0, np.array([np.nan, 0.5, 3.0]))
    assert np.array_equal(out, [2.0, 2.0, 6.0])


def test_bound_reads_each_row_through_the_scale_rule():
    for name, c in _TOL.items():
        assert _bound(name) == c
        assert _bound(name, 4.0) == _scaled(c, 4.0) == c * 4.0


@pytest.mark.parametrize("value", [1e-9, np.float64(1e-9), 1, np.int64(2), Fraction(1, 3)])
def test_check_tol_returns_a_plain_float(value):
    out = _check_tol("tol", value)
    assert out == float(value) and type(out) is float


@pytest.mark.parametrize("value", [
    True, np.True_, "1e-9", 1e-9 + 0j, None, 0.0, -1e-9, np.nan, np.inf, -np.inf,
], ids=["bool", "numpy-bool", "string", "complex", "none", "zero", "negative", "nan", "inf",
        "minus-inf"])
def test_check_tol_refuses_what_is_no_positive_finite_real(value):
    with pytest.raises(ValidationError, match="^tol must be positive and finite, got "):
        _check_tol("tol", value)
