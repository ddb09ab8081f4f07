"""The range checks behind every scalar and float-array input test."""

import math
import sys

import numpy as np

_MAX = sys.float_info.max


def check(name, value, lo=-_MAX, hi=_MAX, integer=False):
    """Return value if it lies in the closed interval [lo, hi].

    NaN always fails; an infinity fails unless it is a bound itself, so
    the default bounds admit exactly the finite floats. integer=True
    also requires a whole number and returns it as an int. A failure
    raises ValueError naming `name`.
    """
    if lo <= value <= hi and (not integer or value % 1 == 0):
        return int(value) if integer else value
    if value != value or abs(value) == math.inf:
        raise ValueError(f"{name} must be finite, got {value}")
    kind = "be an integer in" if integer else "lie in"
    raise ValueError(f"{name} must {kind} [{lo}, {hi}], got {value}")


def check_array(name, value, lo=-_MAX, hi=_MAX, shape=(None,)):
    """Return value as a float64 array of the given shape, each axis a
    fixed length or None for any, whose entries pass check(name, entry,
    lo, hi); lo and hi may hold one bound per entry. The first bad entry
    raises check's ValueError, and so does a value that is no float array.
    """
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an array of floats") from None
    if arr.ndim != len(shape) or any(
            n not in (None, m) for n, m in zip(shape, arr.shape)):
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    ok = (arr >= lo) & (arr <= hi)
    if not ok.all():
        check(name, *(float(x[~ok][0])
                      for x in np.broadcast_arrays(arr, lo, hi)))
    return arr
