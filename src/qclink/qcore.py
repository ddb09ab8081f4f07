"""Two-qubit state toolbox: partial transpose, entanglement (PPT) and
maximal CHSH value, standard state constructors.

States are plain numpy arrays: kets as complex vectors, density matrices
as complex square matrices. Validators raise ValueError when an input
breaks the contract of the operation that asked for it.
"""

import numpy as np

from ._checks import check as _check

# Validation tolerances.
TRACE_ATOL = 1e-10
HERM_ATOL = 1e-10
EIG_ATOL = 1e-10
WEIGHT_ATOL = 1e-12
PPT_MARGIN = 1e-9  # entangled: partial-transpose eigenvalue below -margin

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

KET_0 = np.array([1, 0], dtype=complex)
KET_1 = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
KET_MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)

# Bell basis, ordered (Phi+, Phi-, Psi+, Psi-).
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
PHI_MINUS = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)
PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
BELL_BASIS = (PHI_PLUS, PHI_MINUS, PSI_PLUS, PSI_MINUS)


def dm(psi):
    """Density matrix |psi><psi| of a ket."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def is_hermitian(m):
    m = np.asarray(m)
    return (m.shape[0] == m.shape[1]
            and np.max(np.abs(m - m.conj().T)) <= HERM_ATOL)


def check_density_matrix(rho):
    """Validate trace one, Hermiticity and positivity of a 2- or 4-dim state.

    Returns the validated array. Tolerances: trace and Hermiticity 1e-10,
    smallest eigenvalue >= -1e-10.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if rho.shape[0] not in (2, 4):
        raise ValueError(f"unsupported dimension {rho.shape[0]} (need 2 or 4)")
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"trace {tr!r} is not 1 within {TRACE_ATOL}")
    if not is_hermitian(rho):
        raise ValueError("density matrix is not Hermitian within 1e-10")
    lo = np.linalg.eigvalsh(rho)[0]
    if lo < -EIG_ATOL:
        raise ValueError(f"smallest eigenvalue {lo} below -{EIG_ATOL}")
    return rho


def eig_hermitian(m):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvectors as columns). Raises
    ValueError for non-Hermitian input.
    """
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m):
        raise ValueError("input is not Hermitian within 1e-10")
    vals, vecs = np.linalg.eigh(m)
    return vals, vecs


def partial_transpose(rho):
    """Transpose the second qubit of a two-qubit operator."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"partial transpose needs a 4x4 matrix, got {rho.shape}")
    if not is_hermitian(rho):
        raise ValueError("partial transpose expects a Hermitian input")
    return rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def is_entangled(rho):
    """PPT test for a two-qubit state.

    Returns (flag, min_eigenvalue) where flag is True iff the smallest
    eigenvalue of the partial transpose is below -PPT_MARGIN. Necessary
    and sufficient in dimension 2x2.
    """
    rho = check_density_matrix(rho)
    if rho.shape != (4, 4):
        raise ValueError("entanglement test is defined for two qubits")
    lo = float(np.linalg.eigvalsh(partial_transpose(rho))[0])
    return lo < -PPT_MARGIN, lo


def chsh_max(rho):
    """Largest CHSH value reachable with projective measurements on rho.

    Equals 2*sqrt(u1 + u2) with u1, u2 the two largest eigenvalues of
    T^T T, T_ij = Tr(rho sigma_i x sigma_j); the state violates the
    inequality iff the value exceeds 2.
    """
    rho = check_density_matrix(rho)
    if rho.shape != (4, 4):
        raise ValueError("CHSH value is defined for two qubits")
    t = np.array([[np.trace(rho @ np.kron(si, sj)).real for sj in PAULIS]
                  for si in PAULIS])
    u = np.linalg.eigvalsh(t.T @ t)
    return float(2.0 * np.sqrt(max(u[-1] + u[-2], 0.0)))


def bell_diagonal(weights):
    """Mixture of the four Bell states with the given probabilities.

    Order (Phi+, Phi-, Psi+, Psi-). Weights must be nonnegative and sum
    to 1 within 1e-12.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (4,):
        raise ValueError("need exactly four Bell weights")
    if not (w >= -WEIGHT_ATOL).all():
        raise ValueError(f"negative or NaN Bell weight in {w}")
    if abs(w.sum() - 1.0) > WEIGHT_ATOL:
        raise ValueError(f"Bell weights sum to {w.sum()!r}, not 1")
    w = np.clip(w, 0.0, None)
    rho = np.zeros((4, 4), dtype=complex)
    for wi, ket in zip(w, BELL_BASIS):
        rho += wi * dm(ket)
    return rho


def werner(p):
    """p |Phi+><Phi+| + (1-p) I/4 for p in [0, 1]; entangled iff p > 1/3."""
    _check("werner parameter", p, 0.0, 1.0)
    return p * dm(PHI_PLUS) + (1.0 - p) * np.eye(4, dtype=complex) / 4.0


def singlet_fidelity(rho):
    """Overlap <Phi+|rho|Phi+> of a two-qubit state with the target pair."""
    rho = check_density_matrix(rho)
    if rho.shape != (4, 4):
        raise ValueError("singlet fidelity is defined for two qubits")
    return float(np.real(PHI_PLUS.conj() @ rho @ PHI_PLUS))
