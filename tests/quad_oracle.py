"""The windowed trapezoid quadrature that PropagatedField used before its
one-loop form: the oracle for PropagatedField._trapezoid.

Each block of at most 128 nodes sums only the terms within 2 QUAD_PAD of
it, found by searchsorted, into a zeroed accumulator, 2048 terms at a
time. On a field with one node block and at most 2048 terms it does the
arithmetic of the one-loop form, so both must give the same bits there.
"""

import numpy as np

from qclink import weakmeas as wm

NODES, CHUNK = 128, 2048  # nodes x terms per exp block


def trapezoid(field):
    """The clusters' first delays, their sums of |E|^2 and their sums of
    u |E|^2, u the node offset in units of t_c from the first delay."""
    order = np.argsort(field.delays, kind="stable")
    d = field.delays[order]
    a = field.amps[order].view(float)  # (terms, 4): re, im of x and y
    cuts = np.flatnonzero(np.diff(d) > 2.0 * wm.QUAD_PAD * field.t_c) + 1
    bounds = [0, *cuts.tolist(), d.size]
    starts, energy, first = [], [], []
    for lo, hi in zip(bounds, bounds[1:]):
        u = (d[lo:hi] - d[lo]) / field.t_c
        count = int(np.ceil((u[-1] + 2.0 * wm.QUAD_PAD) / wm.QUAD_STEP)) + 1
        w_sum = u_sum = 0.0
        for start in range(0, count, NODES):
            x = wm.QUAD_STEP * np.arange(start, min(start + NODES, count)) \
                - wm.QUAD_PAD
            j0, j1 = np.searchsorted(u, [x[0] - 2.0 * wm.QUAD_PAD,
                                         x[-1] + 2.0 * wm.QUAD_PAD])
            e = np.zeros((x.size, 4))
            for j in range(j0, j1, CHUNK):
                k = min(j + CHUNK, j1)
                g = np.subtract.outer(x, u[j:k])
                g *= g
                g *= -0.5
                e += np.exp(g, out=g) @ a[lo + j:lo + k]
            w = np.einsum("ij,ij->i", e, e)
            w_sum += w.sum()
            u_sum += x @ w
        starts.append(d[lo])
        energy.append(w_sum)
        first.append(u_sum)
    return starts, energy, first


def moments(field):
    """Energy and mean arrival time from the oracle's sums, combined as
    PropagatedField.energy and mean_toa combine theirs."""
    starts, energy, first = trapezoid(field)
    total = sum(energy)
    return (float(wm.QUAD_STEP * total * field.t_c),
            float(sum(e / total * s for e, s in zip(energy, starts))
                  + field.t_c * (sum(first) / total)))
