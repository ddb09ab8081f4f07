"""Tests for advantage distillation and the pair-recurrence protocol."""

import numpy as np
import pytest
from scipy.special import gammaln

from qclink import distill, qcore, qkd


def dist_at(d, eve=qkd.HELSTROM_BINARY):
    return qkd.symbol_distribution(qkd.AttackParams(d, eve_measurement=eve))


class TestAdExact:
    def test_single_symbol_reduces_to_raw(self):
        dist = dist_at(0.12)
        out = distill.ad_exact(dist, 1)
        assert out.p_accept == pytest.approx(1.0, abs=1e-12)
        assert out.eps_post == pytest.approx(0.12, abs=1e-12)
        assert out.i_ab == pytest.approx(qkd.mutual_information(dist, "ab"),
                                         abs=1e-10)
        assert out.i_ae == pytest.approx(qkd.mutual_information(dist, "ae"),
                                         abs=1e-10)

    def test_two_blocks_closed_form(self):
        """eps = 0.2, N = 2: enumerate the four error patterns by hand."""
        eps = 0.2
        # accepted patterns: (0,0) with (1-eps)^2 and (1,1) with eps^2
        p_acc = (1 - eps) ** 2 + eps ** 2
        assert p_acc == pytest.approx(0.68, abs=1e-15)
        eps_post = eps ** 2 / p_acc
        assert eps_post == pytest.approx(0.04 / 0.68, abs=1e-15)
        out = distill.ad_exact(dist_at(0.2), 2)
        assert out.p_accept == pytest.approx(p_acc, abs=1e-12)
        assert out.eps_post == pytest.approx(eps_post, abs=1e-12)

    @pytest.mark.parametrize("eve", [qkd.HELSTROM_BINARY, qkd.SQUARE_ROOT_4])
    @pytest.mark.parametrize("d", [0.1, 0.2, 0.3])
    def test_counts_equal_full_enumeration(self, d, eve):
        dist = dist_at(d, eve)
        for n in (1, 2, 3, 4):
            fast = distill.ad_exact(dist, n)
            slow = distill.ad_enumerate(dist, n)
            assert fast.i_ae == pytest.approx(slow.i_ae, abs=1e-12)
            assert fast.p_accept == pytest.approx(slow.p_accept, abs=1e-12)
            assert fast.eps_post == pytest.approx(slow.eps_post, abs=1e-12)

    def test_error_and_acceptance_decrease_with_block_size(self):
        dist = dist_at(0.2)
        outs = [distill.ad_exact(dist, n) for n in range(1, 12)]
        for a, b in zip(outs, outs[1:]):
            assert b.eps_post < a.eps_post
            assert b.p_accept < a.p_accept

    def test_entangled_region_gains_advantage(self):
        dist = dist_at(0.25)
        assert any(distill.ad_exact(dist, n).advantage > 0
                   for n in range(1, 13))

    def test_block_size_bounds(self):
        dist = dist_at(0.1)
        with pytest.raises(ValueError):
            distill.ad_exact(dist, 0)
        with pytest.raises(ValueError):
            distill.ad_exact(dist, 65)

    def test_log_factorial_table_matches_gammaln(self):
        k = np.arange(distill.MAX_BLOCK + 1)
        np.testing.assert_allclose(distill._LOG_FACTORIAL, gammaln(k + 1.0),
                                   rtol=1e-14, atol=0.0)


class TestAdMonteCarlo:
    def test_agreement_with_exact(self):
        # 1e6 trials so the rare high-entropy blocks that dominate Eve's
        # residual uncertainty at (d, n) = (0.3, 8) are actually sampled
        for d in (0.1, 0.2, 0.3):
            dist = dist_at(d)
            for n in (1, 2, 4, 8):
                ex = distill.ad_exact(dist, n)
                mc = distill.ad_monte_carlo(dist, n, trials=1_000_000,
                                            seed=1000 * n + int(100 * d))
                # floor the sigma with the true-parameter binomial error so
                # an observed zero count of a rare event does not zero it out
                se_acc = max(mc.se_p_accept, np.sqrt(
                    ex.p_accept * (1 - ex.p_accept) / mc.trials))
                se_eps = max(mc.se_eps_post, np.sqrt(
                    ex.eps_post * (1 - ex.eps_post) / mc.accepted))
                assert abs(mc.p_accept - ex.p_accept) <= 3 * se_acc
                assert abs(mc.eps_post - ex.eps_post) <= 3 * se_eps
                assert abs(mc.i_ae - ex.i_ae) <= 3 * mc.se_i_ae + 1e-9

    def test_reference_case(self):
        """eps = 0.2, N = 2, 1e6 trials reproduces the 0.0588 block error."""
        mc = distill.ad_monte_carlo(dist_at(0.2), 2, trials=1_000_000, seed=5)
        assert abs(mc.eps_post - 0.04 / 0.68) <= 3 * mc.se_eps_post
        assert abs(mc.p_accept - 0.68) <= 3 * mc.se_p_accept

    def test_deterministic_per_seed(self):
        dist = dist_at(0.15)
        a = distill.ad_monte_carlo(dist, 3, trials=20_000, seed=77)
        b = distill.ad_monte_carlo(dist, 3, trials=20_000, seed=77)
        assert a == b

    def test_zero_acceptance_raises(self):
        with pytest.raises(RuntimeError):
            distill.ad_monte_carlo(dist_at(0.499), 60, trials=10_000, seed=1)

    def test_trial_budget_validated(self):
        with pytest.raises(ValueError):
            distill.ad_monte_carlo(dist_at(0.2), 2, trials=100, seed=1)


class TestAdMinBlock:
    def test_one_way_region_needs_single_symbol(self):
        assert distill.ad_min_block(dist_at(0.05), 30) == 1

    def test_intermediate_region_needs_blocks(self):
        n = distill.ad_min_block(dist_at(0.25), 30)
        assert n is not None and n > 1

    def test_separable_region_has_none(self):
        assert distill.ad_min_block(dist_at(0.35), 30) is None

    def test_nmax_validation(self):
        with pytest.raises(ValueError):
            distill.ad_min_block(dist_at(0.2), 100)


class TestRecurrence:
    def test_fixed_points(self):
        for f in (0.5, 1.0):
            f2, _ = distill.recurrence_step(f)
            assert f2 == pytest.approx(f, abs=1e-12)

    def test_half_point_values(self):
        f2, p = distill.recurrence_step(0.5)
        assert f2 == pytest.approx(0.5, abs=1e-15)
        assert p == pytest.approx(20 / 36, abs=1e-15)

    def test_reference_value(self):
        f2, _ = distill.recurrence_step(0.75)
        # (0.75^2 + (0.25/3)^2) / (0.75^2 + 2*0.75*0.25/3 + 5*(0.25/3)^2)
        assert f2 == pytest.approx(0.7884615384615384, abs=1e-12)

    @pytest.mark.parametrize("f", [0.55, 0.7, 0.85, 0.95])
    def test_strict_improvement_above_half(self, f):
        f2, p = distill.recurrence_step(f)
        assert f2 > f
        assert 0.0 < p <= 1.0

    def test_iterate_converges_to_one(self):
        # near F = 1 the infidelity contracts by 2/3 per round
        trace = distill.recurrence_iterate(0.7, 25)
        fids = [f for f, _ in trace.steps]
        assert all(b > a for a, b in zip([0.7] + fids, fids))
        assert fids[-1] > 0.999

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            distill.recurrence_step(1.2)

    @pytest.mark.parametrize("f", [0.5, 0.55, 0.7, 0.75, 0.9, 1.0])
    def test_explicit_protocol_matches_map(self, f):
        """16-dim bilateral-CNOT simulation reproduces the fidelity map."""
        weights = np.array([f, (1 - f) / 3, (1 - f) / 3, (1 - f) / 3])
        new_w, p = distill.recurrence_explicit(weights)
        f_map, p_map = distill.recurrence_step(f)
        assert new_w[0] == pytest.approx(f_map, abs=1e-12)
        assert p == pytest.approx(p_map, abs=1e-12)

    def test_explicit_protocol_general_bell_diagonal(self):
        """Success probability and weights stay normalised off the
        one-parameter family."""
        weights = np.array([0.5, 0.3, 0.15, 0.05])
        new_w, p = distill.recurrence_explicit(weights)
        assert new_w.sum() == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < p <= 1.0


class TestWernerChain:
    """Entanglement, pair fidelity and recurrence improvement flip together."""

    def test_above_boundary(self):
        p = 1 / 3 + 1e-3
        rho = qcore.werner(p)
        f = qcore.singlet_fidelity(rho)
        assert qcore.is_entangled(rho)[0]
        assert f > 0.5
        assert distill.recurrence_step(f)[0] > f

    def test_below_boundary(self):
        p = 1 / 3 - 1e-3
        rho = qcore.werner(p)
        f = qcore.singlet_fidelity(rho)
        assert not qcore.is_entangled(rho)[0]
        assert f < 0.5
        assert distill.recurrence_step(f)[0] < f

    def test_improvement_iterates_toward_pure(self):
        f = qcore.singlet_fidelity(qcore.werner(0.5))
        trace = distill.recurrence_iterate(f, 35)
        assert trace.steps[-1][0] > 0.9999


class TestEquivalenceSweep:
    def test_rows_match_componentwise(self):
        rows = distill.equivalence_sweep([0.05, 0.35], n_max=30)
        low, high = rows
        assert low.entangled and low.ad_min_block == 1
        assert not high.entangled and high.ad_min_block is None
        assert low.chsh == pytest.approx(qcore.chsh_max(qkd.rho_ab(0.05)),
                                         abs=1e-12)
        dist = dist_at(0.05)
        assert low.i_ab == pytest.approx(qkd.mutual_information(dist, "ab"),
                                         abs=1e-12)
        assert low.i_ae == pytest.approx(qkd.mutual_information(dist, "ae"),
                                         abs=1e-12)

    def test_boundary_row(self):
        row = distill.equivalence_sweep([1 - 1 / np.sqrt(2)], n_max=4)[0]
        assert abs(qcore.is_entangled(qkd.rho_ab(row.d))[1]) <= 1e-9
