"""Test helper: Eve's symbol tables by diagonalising her measurements on
the three-party state, the oracle for qkd.symbol_distribution.

The partners may measure either protocol basis here; the closed form has
no basis, because the attack's weights have lam_1 = lam_2.
"""

import numpy as np

from pair_oracle import (BELL_BASIS, KET_0, KET_1, KET_MINUS, KET_PLUS,
                         eig_hermitian)
from qclink import qcore, qkd
from qclink._checks import check

BASES = ("z", "x")
BASIS_KETS = {
    "z": (KET_0, KET_1),
    "x": (KET_PLUS, KET_MINUS),
}


def attack_state(params):
    """Three-party pure state sum_i sqrt(lam_i) |Bell_i>_AB |e_i>_E.

    The 16 amplitudes are ordered with Eve's 4-dim register as the fastest
    index. Tracing out Eve returns the Bell-diagonal pair state.
    """
    lam = qkd.bell_weights(params.disturbance)
    return (np.array(BELL_BASIS).T * np.sqrt(lam)).ravel()


def conditional_probes(psi_abe, basis="z"):
    """Eve's unnormalised probe vector for each sifted outcome pair.

    Returns a dict (a, b) -> 4-component vector v with |v|^2 = P(a, b).
    """
    if basis not in BASES:
        raise ValueError(f"basis must be one of {BASES}, got {basis!r}")
    kets = BASIS_KETS[basis]
    psi = np.asarray(psi_abe, dtype=complex).reshape(2, 2, 4)
    probes = {}
    for a, ka in enumerate(kets):
        for b, kb in enumerate(kets):
            probes[a, b] = np.einsum("i,j,ijk->k", ka.conj(), kb.conj(), psi)
    return probes


def helstrom(rho0, rho1, prior0=0.5):
    """Optimal two-outcome discrimination of rho0 vs rho1.

    Returns (success_probability, (Pi0, Pi1)). Pi0 projects on the
    positive eigenspace of prior0*rho0 - prior1*rho1, so the success
    probability equals (1 + ||prior0 rho0 - prior1 rho1||_1) / 2 at
    equal-dimension inputs. Each state must pass
    qcore.check_density_matrix.
    """
    check("prior", prior0, 0.0, 1.0)
    rho0 = qcore.check_density_matrix(rho0)
    rho1 = qcore.check_density_matrix(rho1)
    if rho0.shape != rho1.shape:
        raise ValueError(f"dimension mismatch: {rho0.shape} vs {rho1.shape}")
    gamma = prior0 * rho0 - (1.0 - prior0) * rho1
    vals, vecs = eig_hermitian(gamma)
    plus = vecs[:, vals > 0.0]
    pi0 = plus @ plus.conj().T
    pi1 = np.eye(rho0.shape[0], dtype=complex) - pi0
    success = prior0 * np.trace(pi0 @ rho0).real \
        + (1.0 - prior0) * np.trace(pi1 @ rho1).real
    return float(success), (pi0, pi1)


def square_root_povm(states, priors):
    """Square-root (pretty good) measurement for an ensemble of kets.

    states: sequence of normalised vectors, priors: their probabilities.
    Returns the list of POVM elements Pi_i = p_i S^-1/2 |s_i><s_i| S^-1/2
    completed with the projector on the unused subspace added to the last
    element, so the elements always sum to the identity.
    """
    states = [np.asarray(s, dtype=complex) for s in states]
    priors = np.asarray(priors, dtype=float)
    for p in priors:
        check("prior", p, 0.0, 1.0)
    dim = states[0].shape[0]
    s = np.zeros((dim, dim), dtype=complex)
    for p, v in zip(priors, states):
        s += p * np.outer(v, v.conj())
    vals, vecs = eig_hermitian(s)
    inv_sqrt = np.zeros_like(vals)
    support = vals > 1e-14
    inv_sqrt[support] = 1.0 / np.sqrt(vals[support])
    s_inv_sqrt = (vecs * inv_sqrt) @ vecs.conj().T
    povm = []
    for p, v in zip(priors, states):
        w = s_inv_sqrt @ v
        povm.append(p * np.outer(w, w.conj()))
    # Complete on the kernel of S (never hit by the ensemble).
    kernel = vecs[:, ~support]
    if kernel.shape[1]:
        povm[-1] = povm[-1] + kernel @ kernel.conj().T
    return povm


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
        return list(helstrom(rho[0], rho[1], prior0=prior[0])[1])
    # Four-outcome square-root measurement on the conditional pure probes,
    # outcome index e = 2a + b.
    states, priors = [], []
    for ab in ((0, 0), (0, 1), (1, 0), (1, 1)):
        v, p = probes[ab], p_ab[ab]
        states.append(v / np.sqrt(p) if p > 0 else np.zeros_like(v))
        priors.append(p)
    return square_root_povm(states, priors)


def eigen_table(params, basis="z"):
    """P(a, b, e) = max(Re v_ab^dag Pi_e v_ab, 0) over Eve's conditional
    probes v_ab of attack_state, with the partners measuring basis."""
    probes = conditional_probes(attack_state(params), basis)
    povm = eve_povm(probes, params.eve_measurement)
    table = np.zeros((2, 2, len(povm)))
    for (a, b), v in probes.items():
        for e, pi in enumerate(povm):
            table[a, b, e] = max(float(np.real(v.conj() @ pi @ v)), 0.0)
    return table
