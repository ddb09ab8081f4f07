"""Test helper: Eve's symbol tables by diagonalising her measurements on
the three-party state, the oracle for qkd.symbol_distribution."""

import numpy as np

from qclink import qkd


def eve_povm(probes, eve_measurement):
    """Eve's POVM for the sifted-basis ensemble of conditional probes."""
    p_ab = {ab: float(np.vdot(v, v).real) for ab, v in probes.items()}
    if eve_measurement == qkd.HELSTROM_BINARY:
        # Discriminate her state conditioned on the sender's bit.
        rho, prior = [], []
        for a in (0, 1):
            pa = p_ab[a, 0] + p_ab[a, 1]
            state = sum(np.outer(probes[a, b], probes[a, b].conj())
                        for b in (0, 1))
            rho.append(state / pa)
            prior.append(pa)
        return list(qkd.helstrom(rho[0], rho[1], prior0=prior[0])[1])
    # Four-outcome square-root measurement on the conditional pure probes,
    # outcome index e = 2a + b.
    states, priors = [], []
    for ab in ((0, 0), (0, 1), (1, 0), (1, 1)):
        v, p = probes[ab], p_ab[ab]
        states.append(v / np.sqrt(p) if p > 0 else np.zeros_like(v))
        priors.append(p)
    return qkd.square_root_povm(states, priors)


def eigen_table(params, basis="z"):
    """P(a, b, e) = max(Re v_ab^dag Pi_e v_ab, 0) over Eve's conditional
    probes v_ab of qkd.attack_state."""
    probes = qkd.conditional_probes(qkd.attack_state(params), basis)
    povm = eve_povm(probes, params.eve_measurement)
    table = np.zeros((2, 2, len(povm)))
    for (a, b), v in probes.items():
        for e, pi in enumerate(povm):
            table[a, b, e] = max(float(np.real(v.conj() @ pi @ v)), 0.0)
    return table
