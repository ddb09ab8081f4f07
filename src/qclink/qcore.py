"""Two-qubit matrix layer behind acceptance criterion 6: Werner states
under the Peres PPT test, with the partial transpose, the density-matrix
validator and the singlet fidelity it needs.

Density matrices are plain complex 4x4 (or 2x2) numpy arrays. Validators
raise ValueError when an input breaks the contract of the operation that
asked for it. The kets, the Bell basis and the projector of a ket are the
test helpers in tests/pair_oracle.py.
"""

import numpy as np

from ._checks import check as _check, check_array as _check_array

# Trace, Hermiticity and smallest-eigenvalue tolerance of a density matrix.
MATRIX_ATOL = 1e-10
PPT_MARGIN = 1e-9  # entangled: partial-transpose eigenvalue below -margin

# The target pair (|00> + |11>) / sqrt(2).
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def _is_hermitian(m):
    """True iff m, a finite square matrix from check_array, is Hermitian
    within MATRIX_ATOL."""
    return np.max(np.abs(m - m.conj().T)) <= MATRIX_ATOL


def check_density_matrix(rho):
    """Validate trace one, Hermiticity and positivity of a 2- or 4-dim state.

    Returns the validated array. Tolerance: MATRIX_ATOL = 1e-10 on the
    trace, the Hermiticity and the smallest eigenvalue.
    """
    rho = _check_array("density matrix", rho, shape=(None, None), dtype=complex)
    if rho.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"unsupported dimension {rho.shape}, not 2x2 or 4x4")
    tr = np.trace(rho)
    if abs(tr - 1.0) > MATRIX_ATOL:
        raise ValueError(f"trace {tr!r} is not 1 within {MATRIX_ATOL}")
    if not _is_hermitian(rho):
        raise ValueError("density matrix is not Hermitian within 1e-10")
    lo = np.linalg.eigvalsh(rho)[0]
    if lo < -MATRIX_ATOL:
        raise ValueError(f"smallest eigenvalue {lo} below -{MATRIX_ATOL}")
    return rho


def partial_transpose(rho):
    """Transpose the second qubit of a two-qubit operator."""
    rho = _check_array("two-qubit operator", rho, shape=(4, 4), dtype=complex)
    if not _is_hermitian(rho):
        raise ValueError("partial transpose expects a Hermitian input")
    return rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def is_entangled(rho):
    """PPT test for a two-qubit state.

    Returns (flag, min_eigenvalue) where flag is True iff the smallest
    eigenvalue of the partial transpose is below -PPT_MARGIN. Necessary
    and sufficient in dimension 2x2.
    """
    rho = check_density_matrix(rho)
    lo = float(np.linalg.eigvalsh(partial_transpose(rho))[0])
    return lo < -PPT_MARGIN, lo


def werner(p):
    """p |Phi+><Phi+| + (1-p) I/4 for p in [0, 1]; entangled iff p > 1/3."""
    _check("werner parameter", p, 0.0, 1.0)
    return (p * np.outer(PHI_PLUS, PHI_PLUS.conj())
            + (1.0 - p) * np.eye(4, dtype=complex) / 4.0)


def singlet_fidelity(rho):
    """Overlap <Phi+|rho|Phi+> of a two-qubit state with the target pair."""
    rho = _check_array("two-qubit state", rho, shape=(4, 4), dtype=complex)
    rho = check_density_matrix(rho)
    return float(np.real(PHI_PLUS.conj() @ rho @ PHI_PLUS))
