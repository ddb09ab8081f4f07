"""The block-range engine that distill used before its one-pass form:
the bit-for-bit oracle for ad_exact and ad_min_block.

It enumerates the count vectors inside the maximal branch supports,
evaluates the block sizes in the ranges 1, 2-3, 4-7, 8-15, 16-31 and
32-64 one vectorised pass per range, gathers and casts each branch's
rows from integer counts on every call and builds one AdOutcome per
block size.
"""

import functools

import numpy as np

from qclink import distill, qkd

MIN_BLOCK_RANGES = ((1, 1), (2, 3), (4, 7), (8, 15), (16, 31),
                    (32, distill.MAX_BLOCK))


def maximal_supports(q):
    """Maximal supports of Eve's conditional distributions q[c, k]."""
    supports = {tuple(np.flatnonzero(q[c, k] > 0.0))
                for c in (0, 1) for k in (0, 1)} - {()}
    return tuple(sorted(s for s in supports
                        if not any(set(s) < set(t) for t in supports)))


@functools.cache
def count_rows(lo, hi, ne, supports):
    """(counts, log multinomial coefficients, block-size index) of the
    count vectors for the block sizes lo..hi inside the supports."""
    blocks = []
    for n in range(lo, hi + 1):
        for support in supports:
            part = distill._simplex(n, len(support))
            rows = np.zeros((len(part), ne + 1), dtype=np.int64)
            rows[:, 0] = n
            rows[:, 1 + np.array(support)] = part
            blocks.append(rows)
    rows = np.vstack(blocks)
    rows = rows[np.lexsort(rows.T[::-1])]
    rows = rows[np.r_[True, (np.diff(rows, axis=0) != 0).any(axis=1)]]
    sizes, counts = rows[:, 0], rows[:, 1:]
    log_multinom = distill._LOG_FACTORIAL[sizes] \
        - distill._LOG_FACTORIAL[counts].sum(axis=1)
    return counts, log_multinom, sizes - lo


def block_profiles(dist, ranges):
    """Exact AdOutcomes of the block sizes lo..hi for each (lo, hi) in
    ranges, yielded as one list per range."""
    eps = qkd.error_rate(dist)
    q = distill._conditional_eve(dist)
    supports = maximal_supports(q)
    branches = [(c, k, q[c, k] > 0.0) for c in (0, 1) for k in (0, 1)]
    for lo, hi in ranges:
        stats = []
        pi_k = np.empty((2, hi - lo + 1))
        for j, n in enumerate(range(lo, hi + 1)):
            p_acc = (1.0 - eps) ** n + eps ** n
            eps_post = eps ** n / p_acc
            pi_k[0, j] = (1.0 - eps) ** n / p_acc
            pi_k[1, j] = eps ** n / p_acc
            stats.append(
                (n, p_acc, eps_post, 1.0 - float(qkd.h2(eps_post))))
        counts, log_multinom, index = count_rows(lo, hi, q.shape[2], supports)
        w = np.zeros((2, counts.shape[0]))
        for c, k, ok in branches:
            usable = (counts[:, ~ok] == 0).all(axis=1)
            logs = counts[usable][:, ok] @ np.log(q[c, k, ok]) \
                + log_multinom[usable]
            w[c, usable] += pi_k[k, index[usable]] * np.exp(logs)
        tot = w.sum(axis=0)
        mask = tot > 0.0
        h = 0.5 * tot[mask] * qkd.h2(w[0, mask] / tot[mask])
        bounds = np.searchsorted(index[mask], np.arange(hi - lo + 2))
        h_cond = [h[a:b].sum() for a, b in zip(bounds, bounds[1:])]
        yield [distill.AdOutcome(n, p_acc, eps_post, i_ab,
                                 max(1.0 - float(hc), 0.0))
               for (n, p_acc, eps_post, i_ab), hc in zip(stats, h_cond)]


def ad_min_block(dist, n_max):
    """The smallest n <= n_max with advantage above ADVANTAGE_EPS, range
    by range, or None."""
    ranges = [(lo, min(hi, n_max)) for lo, hi in MIN_BLOCK_RANGES
              if lo <= n_max]
    for outs in block_profiles(dist, ranges):
        for out in outs:
            if out.advantage > distill.ADVANTAGE_EPS:
                return out.block_size
    return None
