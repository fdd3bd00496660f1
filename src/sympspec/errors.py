"""Exception types shared across the package, the tolerance table and
its scale rule, and the helpers that raise.  Three raise
NumericalContractError: _contract for every post-hoc accuracy check,
which passes only when value <= bound, so a NaN fails it, _lapack for
every status of a scipy LAPACK routine, and _gufunc_failed, the
np.errstate callback of linalg._factor, the one route by which a numpy
gufunc's failed factorization of one matrix reaches a caller.  Two raise
ValidationError: _check_int for every count, size, order, seed and
trial argument that is not an integer or lies below its minimum, and
_check_tol for every tolerance a caller passes that is not a positive
finite real number (_check_atol: an absolute margin, which may be 0).
_attempt and _value carry an error as a value, so that work done once
for many matrices or trials keeps each one's verdict to itself:
_attempt returns what it catches, and _value raises it where the matrix
or trial is read.

Every bound the package compares against is _bound(name, x) =
_scaled(_TOL[name], x) = _TOL[name] * max(1, x): _TOL holds one constant
per check or decision, keyed by its _contract name where it has one, and
x is the size of the compared quantity (Higham, Accuracy and Stability
of Numerical Algorithms, 2nd ed., 2002, ch. 1-2).  The unit floor makes
a check absolute, and so toothless, on input far below unit scale.

The CLI maps the exception types onto distinct exit codes, so library
code should raise the most specific type that applies.
"""

from numbers import Integral, Real

import numpy as np


class MatrixFormatError(ValueError):
    """Input file or payload could not be parsed as a matrix."""


class ValidationError(ValueError):
    """Input parsed fine but violates a documented precondition."""


class NumericalContractError(RuntimeError):
    """A computed quantity failed its post-hoc accuracy check."""


class ConstructionError(RuntimeError):
    """A randomized construction drew from an empty space or ran out of retries."""


_TOL = {
    "symmetry": 1e-12,  # asymmetry of an input matrix, by its Frobenius norm
    "rank": 1e-10,  # singular values kept, relative to the largest (unscaled)
    "principal cosine": 1e-8,  # cosine above 1, and the sharp and meet thresholds
    "eigendecomposition residual": 1e-12,
    "pairing defect": 1e-9,
    "diagonalization residual": 1e-8,
    "basis form defect": 1e-9,
    "tuple form defect": 1e-8,
    "symplectic exponential defect": 1e-10,
    "basis": 1e-8,  # SymplecticBasis and the constructed tuples
    "nested": 1e-7,  # basis._nested's off-span residual
    "snap": 1e-10,  # least projection basis._chain_extend_std keeps
    "trace equality": 1e-9,
    "pair floor": 1e-6,  # least pairing extremal._sample_tuples keeps
    "eigen tuple": 1e-10,  # maxmin's equality gap
    "phi equality": 1e-9,
    "log determinant": 1e-8,
    "method agreement": 1e-8,
    "prescribed recovery": 1e-9,
    "sum gap": 1e-12,  # total sums in majorize and the majorization suite
    "audit": 1e-10,  # schur_concave_monotone_check
    "mean riccati residual": 1e-8,
    "mean self identity": 1e-8,
    "record": 1e-9,  # harness.DEFAULT_TOL
    "repro": 1e-10,  # cli.cmd_repro's recorded values
}


def _scaled(c, x=1.0):
    """c * max(1, x), the package's one scale rule.  An array x takes
    np.fmax, which reads a NaN as 1, as max(1.0, nan) does."""
    return c * (np.fmax(1.0, x) if isinstance(x, np.ndarray) else max(1.0, x))


def _bound(name, x=1.0):
    """The bound of check name on a compared quantity of size x."""
    return _scaled(_TOL[name], x)


def _contract(name, value, bound, detail=""):
    """Raise NumericalContractError unless value <= bound; NaN fails."""
    if not value <= bound:
        raise NumericalContractError(f"{name} {value:.3e} exceeds {bound:.3e}{detail}")


def _lapack(routine, what, *args, **kw):
    """Call a LAPACK routine whose last output is its info status; raise
    NumericalContractError naming what on a nonzero status, and return
    the other outputs, a single one unpacked."""
    *out, info = routine(*args, **kw)
    if info != 0:
        raise NumericalContractError(f"{what} failed: LAPACK info {info}")
    return out[0] if len(out) == 1 else tuple(out)


def _gufunc_failed(err, flag):
    """Raise NumericalContractError for err, the name of the flag by which
    a numpy LAPACK gufunc reports a failed factorization."""
    raise NumericalContractError(f"LAPACK factorization failed: the gufunc flagged an {err}")


def _check_int(name, value, minimum=None):
    """value as an int; raise ValidationError unless it is an integer,
    numpy's included but not a bool, of at least minimum when given."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be at least {minimum}, got {value!r}")
    return int(value)


def _check_tol(name, value):
    """value as a float; raise ValidationError unless it is a real number,
    numpy's included but not a bool, that is positive and finite."""
    if isinstance(value, bool) or not isinstance(value, Real) or not 0.0 < value < np.inf:
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def _check_atol(name, value):
    """_check_tol for an absolute margin, which may be 0.0: non-negative and finite."""
    if isinstance(value, bool) or not isinstance(value, Real) or not 0.0 <= value < np.inf:
        raise ValidationError(f"{name} must be non-negative and finite, got {value!r}")
    return float(value)


# What a verify trial turns into its contract-error record.
_TRIAL_ERRORS = (NumericalContractError, ConstructionError)


def _attempt(fn, *args, caught=_TRIAL_ERRORS):
    """fn(*args), or the exception of a caught type that it raised,
    returned; any other exception propagates."""
    try:
        return fn(*args)
    except caught as exc:
        return exc


def _value(outcome):
    """outcome, or, when _attempt returned an exception, that exception raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
