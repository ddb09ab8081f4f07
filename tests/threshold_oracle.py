"""The bisection that qkd.threshold used before it returned the roots in
closed form: the oracle for qkd.threshold.

It halves [0, 0.5] until the bracket is at most tol wide and returns the
midpoint, so the exact root lies within tol of what it returns. The
one-way kind compares mutual_information of the symbol tables; the CHSH
and entanglement kinds read pair_criteria.
"""

import numpy as np

from qclink import qkd


def threshold(kind, tol=1e-6, eve_measurement=qkd.HELSTROM_BINARY):
    """Midpoint of the final bracket around the root of kind "one_way",
    "chsh" or, for any other kind, "entanglement"."""
    if kind == "one_way":
        def f(d):
            dist = qkd.symbol_distribution(
                qkd.AttackParams(d, eve_measurement=eve_measurement))
            return (qkd.mutual_information(dist, "ab")
                    - qkd.mutual_information(dist, "ae"))
    elif kind == "chsh":
        def f(d):
            return qkd.pair_criteria(d)[1] - 2.0
    else:
        def f(d):
            return -qkd.pair_criteria(d)[0]

    lo, hi = 0.0, 0.5
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise RuntimeError(
            f"no sign change for {kind} threshold on [0, 0.5]; "
            "the attack family is broken")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if np.sign(fm) == np.sign(flo):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)
