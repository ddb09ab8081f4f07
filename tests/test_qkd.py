"""Tests for the attack family, symbol distributions and thresholds."""

import decimal
import itertools
import math

import numpy as np
import pytest

import threshold_oracle
from eve_tables import (BASES, BASIS_KETS, attack_state, conditional_probes,
                        eigen_table, helstrom, square_root_povm)
from pair_oracle import (BELL_BASIS, KET_0, KET_1, KET_PLUS, bell_diagonal,
                         chsh_max, dm)
from qclink import qcore, qkd

ROOT2 = np.sqrt(2.0)


def decimal_table(d, eve, basis):
    """P(a, b, e) from the closed form in 50-digit arithmetic: block
    a ^ b holds registers (p, q), and Eve's guess g of a has
    P = (sqrt(lam_p) + (-1)^(a^g) sqrt(lam_q))^2 / 4."""
    with decimal.localcontext(decimal.Context(prec=50)):
        d = decimal.Decimal(d)
        lam = ((1 - d) ** 2, d * (1 - d), d * (1 - d), d * d)
        root = [w.sqrt() for w in lam]
        blocks = {"z": ((0, 1), (2, 3)), "x": ((0, 2), (1, 3))}[basis]
        four = eve == qkd.SQUARE_ROOT_4
        table = np.full((2, 2, 4 if four else 2), decimal.Decimal(0))
        for a, b, g in itertools.product((0, 1), repeat=3):
            p, q = blocks[a ^ b]
            if four:
                e = 2 * g + (g ^ a ^ b)
            else:
                e = g if lam[p] * lam[q] else 1
            sign = 1 if a == g else -1
            table[a, b, e] += (root[p] + sign * root[q]) ** 2 / 4
        return table


def trace_out_eve(psi_abe):
    """Pair state of the two partners, Tr_E |Psi><Psi|, with Eve's
    register as the fastest index of the 16 amplitudes."""
    m = np.asarray(psi_abe, dtype=complex).reshape(4, 4)
    return m @ m.conj().T


class TestAttackState:
    def test_no_attack_is_pure_pair(self):
        psi = attack_state(qkd.AttackParams(0.0))
        rho = trace_out_eve(psi)
        assert qcore.singlet_fidelity(rho) == pytest.approx(1.0, abs=1e-12)
        # purity of the pair state
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)

    def test_half_disturbance_is_maximally_mixed(self):
        np.testing.assert_allclose(qkd.bell_weights(0.5), [0.25] * 4, atol=1e-15)
        rho = trace_out_eve(attack_state(qkd.AttackParams(0.5)))
        np.testing.assert_allclose(rho, np.eye(4) / 4, atol=1e-12)

    @pytest.mark.parametrize("d", np.linspace(0.0, 0.5, 101))
    def test_norm_and_partial_trace(self, d):
        psi = attack_state(qkd.AttackParams(d))
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(trace_out_eve(psi),
                                   bell_diagonal(qkd.bell_weights(d)),
                                   atol=1e-10)

    @pytest.mark.parametrize("basis", BASES)
    def test_qber_by_born_rule(self, basis):
        """Direct projection of the three-party state gives P(a != b) = D."""
        d = 0.2
        psi = attack_state(qkd.AttackParams(d))
        kets = BASIS_KETS[basis]
        p_err = 0.0
        for a, b in ((0, 1), (1, 0)):
            for e in range(4):
                probe = np.zeros(4, dtype=complex)
                probe[e] = 1.0
                amp = np.kron(np.kron(kets[a], kets[b]), probe).conj() @ psi
                p_err += abs(amp) ** 2
        assert p_err == pytest.approx(d, abs=1e-12)

    @pytest.mark.parametrize("d", [0.0, 0.1, 0.37, 0.5])
    def test_amplitudes_equal_bell_probe_sum(self, d):
        psi = np.zeros(16, dtype=complex)
        for i, (w, bell) in enumerate(zip(qkd.bell_weights(d),
                                          BELL_BASIS)):
            psi += np.sqrt(w) * np.kron(bell, np.eye(4)[i])
        assert np.array_equal(attack_state(qkd.AttackParams(d)), psi)

    def test_disturbance_range(self):
        with pytest.raises(ValueError):
            qkd.AttackParams(0.6)
        with pytest.raises(ValueError):
            qkd.AttackParams(0.1, eve_measurement="guess")


class TestPairCriteria:
    def test_pure_pair(self):
        assert qkd.pair_criteria(0.0) == (-0.5, 2 * math.sqrt(2), 1.0)

    def test_maximally_mixed_pair(self):
        assert qkd.pair_criteria(0.5) == (0.25, 0.0, 0.25)

    def test_disturbance_range(self):
        with pytest.raises(ValueError):
            qkd.pair_criteria(0.6)


class TestSymbolDistribution:
    def test_no_attack_perfect_correlations(self):
        dist = qkd.symbol_distribution(qkd.AttackParams(0.0))
        assert qkd.error_rate(dist) == pytest.approx(0.0, abs=1e-12)
        # Eve's symbol is uncorrelated with the key bit
        assert qkd.mutual_information(dist, "ae") == pytest.approx(0.0, abs=1e-10)
        assert qkd.mutual_information(dist, "ab") == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("cell", [(0, 0, 0), (1, 1, 1), (0, 1, 0)])
    def test_nan_table_rejected(self, cell):
        """A NaN passes no sum test (every comparison with it is false),
        so it is caught entry by entry."""
        table = np.full((2, 2, 2), 0.125)
        table[cell] = np.nan
        with pytest.raises(ValueError, match="symbol table must be finite"):
            qkd.SymbolDistribution(table)

    def test_table_is_a_read_only_copy(self):
        """A later write to the caller's array used to change the
        validated, frozen table: d.table was the caller's array."""
        table = np.full((2, 2, 2), 0.125)
        dist = qkd.SymbolDistribution(table)
        table[0, 0, 0] = 7.0
        assert dist.table.sum() == 1.0
        with pytest.raises(ValueError, match="read-only"):
            dist.table[0, 0, 0] = 7.0

    @pytest.mark.parametrize("basis", BASES)
    def test_no_attack_binary_table_is_exact(self, basis):
        """Eve's two probes in each block coincide, so the whole block
        goes to e = 1 and her information is exactly zero. Her
        diagonalised measurement in either basis agrees up to rounding."""
        params = qkd.AttackParams(0.0)
        dist = qkd.symbol_distribution(params)
        assert dist.table.tolist() == [[[0.0, 0.5], [0.0, 0.0]],
                                       [[0.0, 0.0], [0.0, 0.5]]]
        assert qkd.mutual_information(dist, "ae") == 0.0
        assert np.abs(eigen_table(params, basis) - dist.table).max() <= 1e-15

    @pytest.mark.parametrize("eve", qkd.EVE_MEASUREMENTS)
    @pytest.mark.parametrize("basis", BASES)
    def test_tables_match_50_digit_closed_form(self, eve, basis):
        """The one table equals the closed form evaluated in 50 digits on
        the parity blocks of either basis."""
        rng = np.random.default_rng(13)
        grid = [0.0, 1e-300, *10.0 ** rng.uniform(-12, -0.3, 100),
                *rng.uniform(0.0, 0.5, 100)]
        worst = 0
        for d in map(float, grid):
            got = qkd.symbol_distribution(
                qkd.AttackParams(d, eve_measurement=eve)).table
            exact = decimal_table(d, eve, basis)
            worst = max(worst, *(abs(decimal.Decimal(float(g)) - x)
                                 for g, x in zip(got.flat, exact.flat)))
        assert worst <= 2.5e-16

    def test_helstrom_success_closed_form(self):
        """P(e = a) = 1/2 + sqrt(D (1-D)) for the binary guess."""
        d = 0.1464
        dist = qkd.symbol_distribution(qkd.AttackParams(d))
        p_same = dist.table[0, :, 0].sum() + dist.table[1, :, 1].sum()
        assert p_same == pytest.approx(0.5 + np.sqrt(d * (1 - d)), abs=1e-10)
        assert p_same == pytest.approx(0.8536, abs=5e-4)

    def test_helstrom_beats_random_binary_povms(self):
        """No randomly drawn two-outcome measurement outperforms the bound."""
        d = 0.1464
        psi = attack_state(qkd.AttackParams(d))
        probes = conditional_probes(psi, "z")
        rho = []
        for a in (0, 1):
            pa = sum(np.vdot(v, v).real for (aa, _), v in probes.items() if aa == a)
            rho.append(sum(np.outer(v, v.conj()) for (aa, _), v in probes.items()
                           if aa == a) / pa)
        best, _ = helstrom(rho[0], rho[1])
        rng = np.random.default_rng(99)
        for _ in range(500):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = (m + m.conj().T) / 2
            vals, vecs = np.linalg.eigh(m)
            keep = vecs[:, vals > 0]
            pi0 = keep @ keep.conj().T
            succ = 0.5 * np.trace(pi0 @ rho[0]).real \
                + 0.5 * np.trace((np.eye(4) - pi0) @ rho[1]).real
            succ = max(succ, 1.0 - succ)
            assert succ <= best + 1e-12

    @pytest.mark.parametrize("d", [0.05, 0.1464, 0.3])
    @pytest.mark.parametrize("eve", [qkd.HELSTROM_BINARY, qkd.SQUARE_ROOT_4])
    def test_partner_marginal_is_symmetric_channel(self, d, eve):
        dist = qkd.symbol_distribution(qkd.AttackParams(d, eve_measurement=eve))
        pair = dist.table.sum(axis=2)
        expected = np.array([[1 - d, d], [d, 1 - d]]) / 2
        np.testing.assert_allclose(pair, expected, atol=1e-10)

    @pytest.mark.parametrize("eve", [qkd.HELSTROM_BINARY, qkd.SQUARE_ROOT_4])
    def test_basis_symmetry_up_to_relabeling(self, eve):
        """Eve's diagonalised measurements give the same table in both
        bases, and both equal the one closed-form table."""
        params = qkd.AttackParams(0.17, eve_measurement=eve)
        z, x = eigen_table(params, "z"), eigen_table(params, "x")
        best = min(np.max(np.abs(z - x[:, :, list(perm)]))
                   for perm in itertools.permutations(range(z.shape[2])))
        assert best <= 1e-10
        table = qkd.symbol_distribution(params).table
        for oracle in (z, x):
            assert np.abs(table - oracle).max() <= 4e-15

    @pytest.mark.parametrize("eve", [qkd.HELSTROM_BINARY, qkd.SQUARE_ROOT_4])
    def test_bit_flip_symmetry(self, eve):
        d = 0.23
        dist = qkd.symbol_distribution(qkd.AttackParams(d, eve_measurement=eve))
        t = dist.table
        flip = [1, 0] if eve == qkd.HELSTROM_BINARY else [3, 2, 1, 0]
        flipped = t[::-1, ::-1][:, :, flip]
        np.testing.assert_allclose(t, flipped, atol=1e-10)

    def test_square_root_povm_identifies_pair_parity(self):
        """The four-outcome measurement never confuses a = b with a != b."""
        dist = qkd.symbol_distribution(
            qkd.AttackParams(0.2, eve_measurement=qkd.SQUARE_ROOT_4))
        t = dist.table
        # outcomes e = 2a+b: parity of e's guess matches the actual parity
        assert t[0, 0, 1] + t[0, 0, 2] == pytest.approx(0.0, abs=1e-12)
        assert t[0, 1, 0] + t[0, 1, 3] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("priors", [(-1.0, 2.0), (0.5, np.nan),
                                        (np.inf, 0.5)])
    def test_square_root_povm_rejects_bad_priors(self, priors):
        """Priors (-1, 2) used to give a "POVM" whose first element is -0."""
        with pytest.raises(ValueError, match="prior"):
            square_root_povm([KET_0, KET_1], priors)


class TestHelstrom:
    def test_identical_states(self):
        rho = np.eye(2, dtype=complex) / 2
        succ, (pi0, pi1) = helstrom(rho, rho)
        assert succ == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(pi0 + pi1, np.eye(2), atol=1e-12)

    def test_orthogonal_pure_states(self):
        succ, _ = helstrom(dm(KET_0), dm(KET_1))
        assert succ == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("theta", np.linspace(0.05, np.pi / 2, 7))
    def test_pure_state_overlap_formula(self, theta):
        """Equal priors, overlap cos(theta): success (1 + sin(theta)) / 2."""
        psi0 = np.array([1.0, 0.0], dtype=complex)
        psi1 = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
        succ, _ = helstrom(dm(psi0), dm(psi1))
        assert succ == pytest.approx((1 + np.sin(theta)) / 2, abs=1e-12)

    def test_trace_norm_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            m0 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m1 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho0 = m0 @ m0.conj().T
            rho0 /= np.trace(rho0).real
            rho1 = m1 @ m1.conj().T
            rho1 /= np.trace(rho1).real
            succ, _ = helstrom(rho0, rho1)
            tn = np.sum(np.abs(np.linalg.eigvalsh(0.5 * (rho0 - rho1))))
            assert succ == pytest.approx(0.5 * (1 + tn), abs=1e-12)

    def test_povm_is_valid(self):
        succ, (pi0, pi1) = helstrom(dm(KET_0), dm(KET_PLUS))
        for pi in (pi0, pi1):
            assert np.min(np.linalg.eigvalsh(pi)) >= -1e-12
        np.testing.assert_allclose(pi0 + pi1, np.eye(2), atol=1e-12)

    def test_invalid_priors(self):
        rho = np.eye(2, dtype=complex) / 2
        with pytest.raises(ValueError):
            helstrom(rho, rho, prior0=1.5)

    @pytest.mark.parametrize("bad, message", [
        (np.eye(2), "trace"),
        (np.array([[0.5, 0.5], [0.0, 0.5]]), "Hermitian"),
        (np.diag([1.5, -0.5]), "eigenvalue"),
        (np.full((2, 2), np.nan), "finite"),
        (np.eye(3) / 3, "dimension")])
    def test_invalid_states_rejected(self, bad, message):
        """A trace-2 state once gave success probability 1.0."""
        rho = np.eye(2, dtype=complex) / 2
        for pair in ((bad, rho), (rho, bad)):
            with pytest.raises(ValueError, match=message):
                helstrom(*pair)


class TestMutualInformation:
    def test_independent(self):
        table = np.full((2, 2, 2), 1 / 8)
        dist = qkd.SymbolDistribution(table)
        assert qkd.mutual_information(dist, "ab") == pytest.approx(0.0, abs=1e-12)

    def test_perfectly_correlated(self):
        table = np.zeros((2, 2, 2))
        table[0, 0, 0] = table[1, 1, 1] = 0.5
        dist = qkd.SymbolDistribution(table)
        assert qkd.mutual_information(dist, "ab") == pytest.approx(1.0, abs=1e-12)
        assert qkd.mutual_information(dist, "ae") == pytest.approx(1.0, abs=1e-12)

    def test_binary_symmetric_channel(self):
        eps = 0.1464
        table = np.zeros((2, 2, 2))
        for a in (0, 1):
            for b in (0, 1):
                table[a, b, 0] = 0.25 * ((1 - eps) if a == b else eps) * 2
        dist = qkd.SymbolDistribution(table / table.sum())
        # independent evaluation of 1 - h2(eps)
        expected = 1.0 + eps * math.log2(eps) + (1 - eps) * math.log2(1 - eps)
        assert expected == pytest.approx(0.399243, abs=5e-7)
        assert qkd.mutual_information(dist, "ab") == pytest.approx(expected,
                                                                   abs=1e-12)

    def test_entropy_convention(self):
        assert qkd.h2(0.0) == 0.0
        assert qkd.h2(1.0) == 0.0
        assert qkd.h2(0.5) == pytest.approx(1.0, abs=1e-15)


class TestThresholds:
    def test_entanglement_threshold(self):
        d = qkd.threshold("entanglement", tol=1e-6)
        assert d == pytest.approx(1 - 1 / ROOT2, abs=2e-6)

    def test_chsh_threshold(self):
        d = qkd.threshold("chsh", tol=1e-6)
        assert d == pytest.approx((1 - 1 / ROOT2) / 2, abs=2e-6)

    def test_one_way_matches_chsh(self):
        one_way = qkd.threshold("one_way", tol=1e-6)
        chsh = qkd.threshold("chsh", tol=1e-6)
        assert abs(one_way - chsh) <= 2e-3

    def test_chsh_value_is_linear_in_weights(self):
        for d in (0.0, 0.1, 0.2, 0.3):
            rho = bell_diagonal(qkd.bell_weights(d))
            assert chsh_max(rho) == pytest.approx(
                2 * ROOT2 * (1 - 2 * d), abs=1e-10)

    # Values of the eigen-route bisection that these kinds used before
    # they read pair_criteria; the bisection only sees signs.
    @pytest.mark.parametrize("tol, chsh, entanglement", [
        (1e-6, 0.14644670486450195, 0.2928929328918457),
        (1e-5, 0.14645004272460938, 0.2928962707519531),
        (1e-4, 0.146453857421875, 0.292877197265625),
        (1e-3, 0.14599609375, 0.29248046875),
        (1e-2, 0.14453125, 0.29296875),
        (0.1, 0.15625, 0.28125)])
    def test_pair_state_thresholds_unchanged(self, tol, chsh, entanglement):
        assert threshold_oracle.threshold("chsh", tol=tol) == chsh
        assert threshold_oracle.threshold("entanglement", tol=tol) == \
            entanglement

    # Values of the bisection over the eigen-route symbol tables that
    # one_way used before it read the closed forms.
    @pytest.mark.parametrize("eve", qkd.EVE_MEASUREMENTS)
    @pytest.mark.parametrize("tol, expected", [
        (1e-6, 0.14644670486450195), (1e-5, 0.14645004272460938),
        (1e-4, 0.146453857421875), (1e-3, 0.14599609375),
        (1e-2, 0.14453125), (0.1, 0.15625)])
    def test_one_way_thresholds_unchanged(self, eve, tol, expected):
        assert threshold_oracle.threshold(
            "one_way", tol=tol, eve_measurement=eve) == expected

    @pytest.mark.parametrize("eve", qkd.EVE_MEASUREMENTS)
    @pytest.mark.parametrize("tol", [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1])
    @pytest.mark.parametrize("kind", qkd.THRESHOLD_KINDS)
    def test_oracle_brackets_closed_root(self, kind, tol, eve):
        """The bisection's midpoint lies within half its final bracket,
        so within tol / 2, of the closed root."""
        root = qkd.threshold(kind, tol=tol, eve_measurement=eve)
        assert abs(threshold_oracle.threshold(kind, tol, eve) - root) <= \
            tol / 2

    def test_roots_are_correctly_rounded(self):
        """Each root is float() of its 60-digit value: one_way and chsh
        (1 - 1/sqrt 2)/2, entanglement 1 - 1/sqrt 2."""
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            entanglement = 1 - 1 / decimal.Decimal(2).sqrt()
            expected = {"one_way": entanglement / 2,
                        "chsh": entanglement / 2,
                        "entanglement": entanglement}
        for kind, value in expected.items():
            for eve in qkd.EVE_MEASUREMENTS:
                assert qkd.threshold(kind, eve_measurement=eve) == \
                    float(value)

    def test_pair_criteria_at_the_roots(self):
        """The CHSH value reads 2 at the chsh root and the smallest
        partial-transpose eigenvalue 0 at the entanglement root, to
        within rounding."""
        chsh = qkd.pair_criteria(qkd.threshold("chsh"))[1]
        min_eig = qkd.pair_criteria(qkd.threshold("entanglement"))[0]
        assert abs(chsh - 2.0) <= 4.5e-16
        assert abs(min_eig) <= 2.3e-16

    def test_eve_information_monotone(self):
        values = []
        for d in np.arange(0.0, 0.2901, 0.01):
            dist = qkd.symbol_distribution(qkd.AttackParams(d))
            values.append(qkd.mutual_information(dist, "ae"))
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            qkd.threshold("chsh", tol=1e-8)
        with pytest.raises(ValueError):
            qkd.threshold("chsh", tol=np.nan)
        # A tol of 0.5 or more would return the midpoint 0.25 unsearched.
        for tol in (np.inf, 0.5, 1.0):
            with pytest.raises(ValueError):
                qkd.threshold("entanglement", tol=tol)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            qkd.threshold("two_way")
