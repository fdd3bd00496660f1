"""Symmetric functionals of positive vectors used in extremal checks.

A functional is a name and a callable fn that reduces the last axis:
it maps an array of shape (..., n) to one value per vector, an array
of shape (...).  The Schur concavity, monotonicity and permutation
invariance that the extremal certificate needs are not declared here:
they are audited with schur_concave_monotone_check, which evaluates fn
on whole batches of vectors, and a functional that fails is refused.
phi_extremal_check audits its functional from the caller's generator
by default; the audit of each SHIPPED functional is a tier-1 test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import _check_int
from .linalg import _real


@dataclass(frozen=True)
class SpectralFunctional:
    """A named functional; fn maps shape (..., n) to shape (...).

    Calling the functional evaluates fn on one vector and returns a
    float.  The audit calls fn on stacks of vectors and refuses a fn
    whose result does not hold one value per vector.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x):
        return float(self.fn(_real(x, "vector")))


def elementary_symmetric(x, r):
    """Elementary symmetric polynomial e_r of each vector along the last
    axis, via the stable descending recurrence.

    The recurrence runs over x[..., i] in order, so a vector's value has
    the same bits alone as in a batch; e_r is 0 when r exceeds n.
    """
    x = _real(x, "vectors")
    r = _check_int("order", r, minimum=0)
    e = np.zeros((r + 1,) + x.shape[:-1])
    e[0] = 1.0
    for i in range(x.shape[-1]):
        xi = x[..., i]
        for j in range(min(r, i + 1), 0, -1):
            e[j] += xi * e[j - 1]
    return e[r]


phi_sum = SpectralFunctional("sum", lambda x: np.sum(x, axis=-1))
phi_product = SpectralFunctional("product", lambda x: np.prod(x, axis=-1))
phi_min = SpectralFunctional("min", lambda x: np.min(x, axis=-1))
phi_esym2 = SpectralFunctional("esym2", lambda x: elementary_symmetric(x, 2))

SHIPPED = (phi_sum, phi_product, phi_min, phi_esym2)
