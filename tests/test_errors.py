"""The one comparison behind every numerical contract of the package, and
the one integer check behind every count, size, order, seed and trial."""

import re

import numpy as np
import pytest

from sympspec.errors import NumericalContractError, ValidationError, _check_int, _contract


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
