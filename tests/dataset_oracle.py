"""The per-record loop that cloning.generate_fidelity_dataset used before
it evaluated the amplifier law over the whole array: the oracle for
cloning.generate_fidelity_dataset.

Each record's fidelity is one cloning.fidelity_classical call, with that
function's own range checks, so the array pass must give the same bits.
"""

import math

import numpy as np

from qclink import cloning


def generate_fidelity_dataset(q, mu_in, gain=10.0, noise_sigma=0.0, seed=0):
    """(mu_in, mu_out, fidelity) records of cloning.generate_fidelity_dataset,
    one fidelity_classical call a record."""
    cloning._check("noise sigma", noise_sigma, 0.0)
    seed = cloning._check("seed", seed, 0, math.inf, integer=True)
    mu_in = cloning._check_array("mu_in", mu_in, math.ulp(0.0))
    mu_out = gain * mu_in
    fid = np.array([cloning.fidelity_classical(a, b, q)
                    for a, b in zip(mu_in, mu_out)])
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        fid = fid + rng.normal(0.0, noise_sigma, size=fid.shape)
        fid = np.clip(fid, 1e-9, 1.0)
    return np.column_stack([mu_in, mu_out, fid])
