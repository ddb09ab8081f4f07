"""The one range check behind every scalar input test of the package."""

import math
import sys

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
