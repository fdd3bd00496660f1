"""Symmetric functionals of positive vectors used in extremal checks.

A functional is a name and a callable.  The Schur concavity,
monotonicity and permutation invariance that the extremal certificate
needs are not declared here: phi_extremal_check audits them with
schur_concave_monotone_check and refuses a functional that fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class SpectralFunctional:
    name: str
    fn: Callable[[np.ndarray], float]

    def __call__(self, x):
        return float(self.fn(np.asarray(x, dtype=float)))


def elementary_symmetric(x, r):
    """Elementary symmetric polynomial e_r via the stable descending recurrence."""
    x = np.asarray(x, dtype=float)
    if r < 0:
        raise ValueError(f"order must be nonnegative, got {r}")
    if r == 0:
        return 1.0
    if r > x.size:
        return 0.0
    e = np.zeros(r + 1)
    e[0] = 1.0
    for i, xi in enumerate(x):
        for j in range(min(r, i + 1), 0, -1):
            e[j] += xi * e[j - 1]
    return float(e[r])


phi_sum = SpectralFunctional("sum", np.sum)
phi_product = SpectralFunctional("product", np.prod)
phi_min = SpectralFunctional("min", np.min)
phi_esym2 = SpectralFunctional("esym2", lambda x: elementary_symmetric(x, 2))

SHIPPED = (phi_sum, phi_product, phi_min, phi_esym2)
