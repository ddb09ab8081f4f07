"""Unit tests for the two-qubit toolbox and the density-matrix oracles
of tests/pair_oracle.py."""

import warnings

import numpy as np
import pytest

from pair_oracle import (KET_0, KET_1, KET_MINUS, KET_PLUS, SIGMA_X,
                         bell_diagonal, chsh_max, dm, eig_hermitian)
from qclink import qcore


def random_local_unitary(rng):
    """Haar-random 2x2 unitary via QR of a complex Gaussian matrix."""
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density_matrix(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


class TestTensor:
    def test_basis_product(self):
        np.testing.assert_allclose(
            np.kron(KET_0, KET_0), [1, 0, 0, 0])

    def test_identity_product(self):
        np.testing.assert_allclose(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_pair_state_amplitudes(self):
        """The target pair state has amplitudes (1, 0, 0, 1)/sqrt(2)."""
        built = (np.kron(KET_0, KET_0)
                 + np.kron(KET_1, KET_1)) / np.sqrt(2)
        np.testing.assert_allclose(built, qcore.PHI_PLUS, atol=1e-15)

    def test_same_state_in_both_bases(self):
        """Phi+ expands with a plus sign in the x basis as well."""
        in_x = (np.kron(KET_PLUS, KET_PLUS)
                + np.kron(KET_MINUS, KET_MINUS)) / np.sqrt(2)
        np.testing.assert_allclose(in_x, qcore.PHI_PLUS, atol=1e-15)


class TestMeasurementCorrelations:
    """Measuring the pair state in matching bases yields equal random bits."""

    @pytest.mark.parametrize("kets", [
        (KET_0, KET_1), (KET_PLUS, KET_MINUS)])
    def test_equal_outcomes(self, kets):
        probs = np.zeros((2, 2))
        for a, ka in enumerate(kets):
            for b, kb in enumerate(kets):
                amp = np.kron(ka, kb).conj() @ qcore.PHI_PLUS
                probs[a, b] = abs(amp) ** 2
        assert probs[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert probs[1, 1] == pytest.approx(0.5, abs=1e-12)
        assert probs[0, 1] + probs[1, 0] == pytest.approx(0.0, abs=1e-12)


class TestPartialTrace:
    def test_maximally_entangled_reduces_to_identity(self):
        r = dm(qcore.PHI_PLUS).reshape(2, 2, 2, 2)  # (a, b, a', b')
        np.testing.assert_allclose(np.einsum("abcb->ac", r), np.eye(2) / 2,
                                   atol=1e-12)

    def test_werner_reduces_to_identity(self):
        # trace out the second qubit by an explicit index sum
        rho = qcore.werner(0.7)
        r = np.zeros((2, 2), dtype=complex)
        for a in range(2):
            for c in range(2):
                r[a, c] = sum(rho[2 * a + b, 2 * c + b] for b in range(2))
        np.testing.assert_allclose(r, np.eye(2) / 2, atol=1e-12)


def _reference_partial_transpose(rho):
    out = np.empty_like(rho)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    out[2 * a + b, 2 * c + d] = rho[2 * a + d, 2 * c + b]
    return out


class TestEntanglement:
    def test_product_state_is_ppt(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            prod = np.kron(random_density_matrix(rng, 2),
                           random_density_matrix(rng, 2))
            flag, lo = qcore.is_entangled(prod)
            assert not flag
            assert lo >= -1e-9

    def test_pair_state_minimum_eigenvalue(self):
        rho = dm(qcore.PHI_PLUS)
        # oracle: elementwise partial transpose, then eigenvalues
        ref = np.linalg.eigvalsh(_reference_partial_transpose(rho))[0]
        assert ref == pytest.approx(-0.5, abs=1e-12)
        flag, lo = qcore.is_entangled(rho)
        assert flag
        assert lo == pytest.approx(-0.5, abs=1e-12)

    def test_werner_boundary(self):
        flag, lo = qcore.is_entangled(qcore.werner(1 / 3))
        assert abs(lo) <= 1e-9
        assert qcore.is_entangled(qcore.werner(1 / 3 + 1e-3))[0]
        assert not qcore.is_entangled(qcore.werner(1 / 3 - 1e-3))[0]

    def test_partial_transpose_requires_hermitian(self):
        bad = np.arange(16, dtype=complex).reshape(4, 4)
        with pytest.raises(ValueError):
            qcore.partial_transpose(bad)


class TestChsh:
    def test_pair_state_reaches_maximum(self):
        assert chsh_max(dm(qcore.PHI_PLUS)) == pytest.approx(
            2 * np.sqrt(2), abs=1e-12)

    def test_maximally_mixed_is_zero(self):
        assert chsh_max(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.2, 1 / np.sqrt(2), 0.9, 1.0])
    def test_werner_value(self, p):
        # correlation matrix is diag(p, -p, p): eigenvalues p^2, p^2, p^4
        assert chsh_max(qcore.werner(p)) == pytest.approx(
            2 * np.sqrt(2) * p, abs=1e-10)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(11)
        rho = bell_diagonal([0.6, 0.1, 0.2, 0.1])
        base = chsh_max(rho)
        for _ in range(8):
            u = np.kron(random_local_unitary(rng), random_local_unitary(rng))
            rotated = u @ rho @ u.conj().T
            assert chsh_max(rotated) == pytest.approx(base, abs=1e-8)


class TestConstructors:
    def test_bell_diagonal_pure_limit(self):
        np.testing.assert_allclose(bell_diagonal([1, 0, 0, 0]),
                                   dm(qcore.PHI_PLUS), atol=1e-15)

    def test_werner_zero_is_maximally_mixed(self):
        np.testing.assert_allclose(qcore.werner(0.0), np.eye(4) / 4, atol=1e-15)
        assert qcore.singlet_fidelity(qcore.werner(0.0)) == pytest.approx(0.25)

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.6, 1.0])
    def test_werner_singlet_fidelity(self, p):
        assert qcore.singlet_fidelity(qcore.werner(p)) == pytest.approx(
            (3 * p + 1) / 4, abs=1e-12)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            bell_diagonal([0.5, 0.2, 0.2, 0.2])
        with pytest.raises(ValueError):
            bell_diagonal([1.2, -0.2, 0.0, 0.0])

    def test_werner_range(self):
        with pytest.raises(ValueError):
            qcore.werner(1.2)

    def test_constructed_states_are_valid(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            w = rng.random(4)
            w /= w.sum()
            qcore.check_density_matrix(bell_diagonal(w))


class TestValidation:
    def test_trace_must_be_one(self):
        with pytest.raises(ValueError):
            qcore.check_density_matrix(np.eye(4))

    def test_hermiticity_required(self):
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] = 0.1
        with pytest.raises(ValueError):
            qcore.check_density_matrix(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_bell_weights_must_be_numbers(self, bad):
        with pytest.raises(ValueError):
            bell_diagonal([bad, 0.5, 0.25, 0.25])

    @pytest.mark.parametrize("m", [np.zeros(2), np.zeros((2, 2, 2))])
    def test_is_hermitian_needs_a_matrix(self, m):
        """A 1-D array raised IndexError; a zero (2, 2, 2) array read as
        Hermitian."""
        assert not qcore.is_hermitian(m)

    def test_positivity_required(self):
        bad = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
        with pytest.raises(ValueError):
            qcore.check_density_matrix(bad)

    @pytest.mark.parametrize("bad", [2 * np.eye(4) / 4,
                                     np.full((4, 4), np.nan)])
    def test_two_qubit_functions_validate_alike(self, bad):
        """singlet_fidelity used to read 0.4999999999999999 off a trace-2
        matrix and nan off a NaN one, where its siblings raise."""
        for f in (qcore.is_entangled, chsh_max, qcore.singlet_fidelity):
            with pytest.raises(ValueError):
                f(bad)

    @pytest.mark.parametrize("f", [
        qcore.check_density_matrix, qcore.partial_transpose,
        qcore.is_entangled, qcore.singlet_fidelity])
    def test_infinite_entries_raise_without_a_warning(self, f):
        """A symmetric pair of inf entries used to warn "invalid value
        encountered in subtract" before the ValueError, so under -W error
        the caller saw a RuntimeWarning."""
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] = bad[1, 0] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                f(bad)


class TestEigHermitian:
    def test_identity(self):
        vals, _ = eig_hermitian(np.eye(4, dtype=complex))
        np.testing.assert_allclose(vals, np.ones(4))

    def test_pauli_x(self):
        vals, _ = eig_hermitian(SIGMA_X)
        np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = (m + m.conj().T) / 2
            vals, vecs = eig_hermitian(m)
            assert np.all(np.diff(vals) >= -1e-12)
            np.testing.assert_allclose((vecs * vals) @ vecs.conj().T, m,
                                       atol=1e-9)
            np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(4),
                                       atol=1e-9)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
