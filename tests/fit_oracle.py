"""The point-by-point grid scan that cloning.fit_q used before it scored
the grid in array blocks: the oracle for cloning.fit_q.

It scores each of the 101 grid points with its own 1-D residual sum,
then refines the best bracket by the same golden-section search. Every
row of fit_q's (points, k) block is the same contiguous pairwise sum as
the 1-D .sum() here, so both must give the same bits.
"""

import math
import warnings

import numpy as np

from qclink import cloning

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def fit_q(data):
    """(q_hat, rss) of cloning.fit_q, one grid point at a time."""
    arr = cloning._as_records(data)
    cloning._check("record count", arr.shape[0], 3, math.inf, integer=True)
    if np.unique(arr[:, 0]).size == 1:
        warnings.warn("all records share one mu_in; the fit is degenerate",
                      stacklevel=2)
    mu_in, mu_out, fid = arr.T
    cloning._checked_law_terms(mu_in, mu_out, 1.0)

    def rss(q):
        num, den = cloning._law_terms(mu_in, mu_out, q)
        return float(((num / den - fid) ** 2).sum())

    grid = np.linspace(0.0, 1.0, 101)
    values = [rss(q) for q in grid]
    best = int(np.argmin(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, 100)]

    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = rss(c), rss(d)
    while hi - lo > 1e-6:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = rss(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = rss(d)
    q_hat = 0.5 * (lo + hi)
    return float(q_hat), rss(q_hat)
