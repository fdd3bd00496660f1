"""The one comparison behind every numerical contract of the package."""

import numpy as np
import pytest

from sympspec.errors import NumericalContractError, _contract


@pytest.mark.parametrize("value", [np.nan, np.inf, np.nextafter(1e-9, 1.0)],
                         ids=["nan", "inf", "bound-plus-ulp"])
def test_contract_refuses_values_above_the_bound_and_nan(value):
    with pytest.raises(NumericalContractError, match=r"^defect \S+ exceeds 1\.000e-09 at x$"):
        _contract("defect", value, 1e-9, " at x")


def test_contract_passes_a_value_equal_to_the_bound():
    assert _contract("defect", 1e-9, 1e-9) is None

