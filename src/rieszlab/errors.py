"""Exception hierarchy shared by all modules, and the checks of the public
counts, reals and arrays of reals.

Two failure classes are distinguished because the CLI maps them to
different exit codes: malformed requests (exit 1) versus requests that
are well formed but land outside the numerical domain of an operation
(exit 2), such as coincident points or an exponent outside (0, d).
"""

import numbers
import operator
import os
import sys

import numpy as np

_COMPARISONS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}
PHYSICAL_MEMORY = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")  # bytes


class RieszlabError(Exception):
    """Base class for all errors raised by this package."""


class InputError(RieszlabError):
    """Malformed or unsupported input (CLI exit code 1)."""


class DomainError(RieszlabError):
    """Numerical-domain violation: coincident points, exponent out of
    range, cut-locus log map (CLI exit code 2)."""


def as_count(name: str, value, minimum: int) -> int:
    """value as an int, for a count, index or seed: an integer (a numpy
    integer will do; a bool or an integral float will not) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise InputError(f"{name} must be >= {minimum} and an int, got {value!r}")
    return int(value)


def as_sized_count(name: str, value, minimum: int, item_bytes: int) -> int:
    """as_count for a count that sizes an allocation of about item_bytes a
    unit (the caller's tracemalloc peak, rounded up): past PHYSICAL_MEMORY
    it is an InputError too, raised before anything is allocated."""
    n = as_count(name, value, minimum)
    if n * item_bytes > PHYSICAL_MEMORY:
        raise InputError(f"{name}={n} needs {n * item_bytes / 2 ** 30:.3g} GiB, more than the "
                         f"{PHYSICAL_MEMORY / 2 ** 30:.3g} GiB of physical memory")
    return n


def as_real(name: str, value, *bounds) -> float:
    """value as a float, for a tolerance or a radius: a finite real number,
    not a bool, that meets each bound, an (operator, limit) pair such as
    (">", 0)."""
    # NaN, the infinities and ints beyond the float range fail the abs test;
    # the bounds are checked on the float that is returned
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        x = float(value)
        if all(_COMPARISONS[op](x, limit) for op, limit in bounds):
            return x
    stated = " and ".join(["finite"] + [f"{op} {limit}" for op, limit in bounds])
    raise InputError(f"{name} must be {stated}, got {value!r}")


def as_reals(name: str, values, *bounds) -> np.ndarray:
    """values as a float array (a scalar as a 0-d array), for radii: integers
    or floats, no bools, strings or objects, each meeting each bound as for
    as_real.  A NaN fails every bound; an infinity is judged by them."""
    try:
        arr = np.asarray(values)
    except ValueError:  # a ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise InputError(f"{name} must be real numbers, got {values!r:.60}")
    arr = arr.astype(float)
    if not all(np.all(_COMPARISONS[op](arr, limit)) for op, limit in bounds):
        stated = " and ".join(f"{op} {limit}" for op, limit in bounds)
        raise InputError(f"{name} must be {stated}, got {values!r:.60}")
    return arr
