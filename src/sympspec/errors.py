"""Exception types shared across the package, and five helpers.  Two
raise NumericalContractError: _contract for every post-hoc accuracy
check, which passes only when value <= bound, so a NaN fails it, and
_lapack for every LAPACK status.  The third, _check_int, raises
ValidationError for every count, size, order, seed and trial argument
that is not an integer or lies below its minimum.  _attempt and _value
carry an error as a value, so that work done once for many matrices or
trials keeps each one's verdict to itself: _attempt returns what it
catches, and _value raises it where the matrix or trial is read.

The CLI maps these onto distinct exit codes, so library code should
raise the most specific type that applies.
"""

from numbers import Integral


class MatrixFormatError(ValueError):
    """Input file or payload could not be parsed as a matrix."""


class ValidationError(ValueError):
    """Input parsed fine but violates a documented precondition."""


class NumericalContractError(RuntimeError):
    """A computed quantity failed its post-hoc accuracy check."""


class ConstructionError(RuntimeError):
    """A randomized construction drew from an empty space or ran out of retries."""


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


def _check_int(name, value, minimum=None):
    """value as an int; raise ValidationError unless it is an integer,
    numpy's included but not a bool, of at least minimum when given."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be at least {minimum}, got {value!r}")
    return int(value)


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
