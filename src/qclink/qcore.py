"""Two-qubit state toolbox: partial transpose, entanglement (PPT) test,
singlet fidelity, standard state constructors.

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
WEIGHT_ATOL = 1e-12  # Bell weights: nonnegative and summing to 1
PPT_MARGIN = 1e-9  # entangled: partial-transpose eigenvalue below -margin

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
