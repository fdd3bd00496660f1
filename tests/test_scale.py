"""Scale: a verdict on 4**k A is the verdict on A.

Powers of 4 scale A, its Cholesky factor and K = L^T J L exactly, and the
spectra follow bit for bit, so a verdict or a relative residual that moves
with k is a fault of the scale rule, not of rounding.  errors._scaled
floors the size of every compared quantity at 1, so far below unit scale
a bound is absolute and a check loses its bite; these tests pin that
fault and pass once the rule scales with the quantity alone.
"""

import numpy as np
import pytest

from sympspec.core import random_pd, williamson
from sympspec.errors import ValidationError
from sympspec.linalg import check_symmetric

UNIT_FLOOR = pytest.mark.xfail(strict=True, reason="ROADMAP item 12: `errors._scaled` floors at 1")


@UNIT_FLOOR
def test_check_symmetric_refuses_an_asymmetric_matrix_at_every_scale():
    # Asymmetry 1.5 sqrt(2) = 2.121 against a Frobenius norm of 4.3: refused
    # at scale 1, but at 4**-22 the norm is 2.4e-13 and the bound, floored
    # at 1e-12, lets an asymmetry of 1.2e-13 through.
    a = 2.0 * np.eye(4)
    a[0, 1] = 1.5
    with pytest.raises(ValidationError, match=r"asymmetry 2\.121e\+00"):
        check_symmetric(a)
    with pytest.raises(ValidationError, match="not symmetric"):
        check_symmetric(4.0**-22 * a)


@UNIT_FLOOR
def test_williamson_residual_a_is_the_same_at_every_scale():
    a = random_pd(3, np.random.default_rng(0))
    dec, small = williamson(a), williamson(4.0**-40 * a)
    assert np.array_equal(small.d, 4.0**-40 * dec.d)
    # 5.8e-16 at scale 1, but 2.6e-39 at 4**-40, where the divisor's
    # unit floor turns the relative residual absolute.
    assert small.residual_a == dec.residual_a
