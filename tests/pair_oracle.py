"""Test helper: density-matrix routes on a two-qubit pair, the oracles
for the closed forms in the Bell weights (qkd.pair_criteria and
distill.recurrence_weights).

Holds the one-qubit kets, the Bell basis and the projector of a ket;
builds the Bell-diagonal state as a 4x4 matrix, reads its CHSH value off
the correlation tensor, and simulates the bilateral-CNOT recurrence round
on the 16-dimensional state of two pairs.
"""

import numpy as np

from qclink import qcore, qkd

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

KET_0 = np.array([1, 0], dtype=complex)
KET_1 = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
KET_MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)

# Bell basis, ordered (Phi+, Phi-, Psi+, Psi-).
PHI_PLUS = qcore.PHI_PLUS
PHI_MINUS = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)
PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
BELL_BASIS = (PHI_PLUS, PHI_MINUS, PSI_PLUS, PSI_MINUS)


def dm(psi):
    """Density matrix |psi><psi| of a ket."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def eig_hermitian(m):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvectors as columns). Raises
    ValueError for non-Hermitian input.
    """
    m = np.asarray(m, dtype=complex)
    if not (m.ndim == 2 and m.shape[0] == m.shape[1] and np.isfinite(m).all()
            and np.max(np.abs(m - m.conj().T)) <= qcore.MATRIX_ATOL):
        raise ValueError("input is not Hermitian within 1e-10")
    vals, vecs = np.linalg.eigh(m)
    return vals, vecs


def chsh_max(rho):
    """Largest CHSH value reachable with projective measurements on rho.

    Equals 2*sqrt(u1 + u2) with u1, u2 the two largest eigenvalues of
    T^T T, T_ij = Tr(rho sigma_i x sigma_j); the state violates the
    inequality iff the value exceeds 2.
    """
    rho = qcore.check_density_matrix(rho)
    if rho.shape != (4, 4):
        raise ValueError("CHSH value is defined for two qubits")
    t = np.array([[np.trace(rho @ np.kron(si, sj)).real for sj in PAULIS]
                  for si in PAULIS])
    u = np.linalg.eigvalsh(t.T @ t)
    return float(2.0 * np.sqrt(max(u[-1] + u[-2], 0.0)))


def bell_diagonal(weights):
    """Mixture of the four Bell states with the given probabilities.

    Order (Phi+, Phi-, Psi+, Psi-). Weights must be nonnegative and sum
    to 1 within qkd.PROB_ATOL.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (4,):
        raise ValueError("need exactly four Bell weights")
    if not (w >= -qkd.PROB_ATOL).all():
        raise ValueError(f"negative or NaN Bell weight in {w}")
    if abs(w.sum() - 1.0) > qkd.PROB_ATOL:
        raise ValueError(f"Bell weights sum to {w.sum()!r}, not 1")
    w = np.clip(w, 0.0, None)
    rho = np.zeros((4, 4), dtype=complex)
    for wi, ket in zip(w, BELL_BASIS):
        rho += wi * dm(ket)
    return rho


def cnot_16(control, target):
    """CNOT between two of four qubits as a 16x16 permutation."""
    u = np.zeros((16, 16))
    for idx in range(16):
        bits = [(idx >> (3 - q)) & 1 for q in range(4)]
        bits[target] ^= bits[control]
        out = sum(bit << (3 - q) for q, bit in enumerate(bits))
        u[out, idx] = 1.0
    return u


def recurrence_explicit(weights):
    """Explicit two-pair protocol on a Bell-diagonal state.

    Builds rho x rho on qubits (A1, B1, A2, B2), applies the bilateral
    CNOT (A1->A2, B1->B2), measures the target pair in the computational
    basis, keeps coinciding outcomes, and returns the Bell-basis weights
    of the kept pair together with the success probability.
    """
    rho = bell_diagonal(weights)
    big = np.kron(rho, rho)  # qubit order A1, B1, A2, B2
    u = cnot_16(1, 3) @ cnot_16(0, 2)
    big = u @ big @ u.conj().T
    p_success = 0.0
    kept = np.zeros((4, 4), dtype=complex)
    for ket in (KET_0, KET_1):
        # projector on A2 = B2 = m (last two tensor slots)
        proj = np.kron(np.eye(4), np.kron(dm(ket), dm(ket)))
        p_success += np.trace(big @ proj).real
        r4 = (proj @ big @ proj).reshape(4, 4, 4, 4)
        kept += np.einsum("ikjk->ij", r4)
    kept /= p_success
    new_weights = np.array([
        float(np.real(b.conj() @ kept @ b)) for b in BELL_BASIS])
    return new_weights, float(p_success)
