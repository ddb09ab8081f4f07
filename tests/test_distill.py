"""Tests for advantage distillation and the pair-recurrence protocol."""

import functools
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaln

from qclink import distill, qcore, qkd


def dist_at(d, eve=qkd.HELSTROM_BINARY):
    return qkd.symbol_distribution(qkd.AttackParams(d, eve_measurement=eve))


@functools.cache
def dense_count_vectors(n, k):
    """All k-tuples of nonnegative integers summing to n, as an array."""
    if k == 1:
        return np.array([[n]], dtype=np.int64)
    blocks = []
    for first in range(n + 1):
        rest = dense_count_vectors(n - first, k - 1)
        blocks.append(np.hstack(
            [np.full((len(rest), 1), first, dtype=np.int64), rest]))
    return np.vstack(blocks)


def dense_i_ae(dist, n):
    """I(C; Eve's n symbols | accept) summed over every symbol-count
    vector, with no support pruning: the oracle for distill's engine."""
    eps = qkd.error_rate(dist)
    p_acc = (1.0 - eps) ** n + eps ** n
    pi_k = np.array([(1.0 - eps) ** n, eps ** n]) / p_acc
    q, _ = distill._conditional_eve(dist)
    counts = dense_count_vectors(n, q.shape[2])
    log_multinom = distill._LOG_FACTORIAL[n] \
        - distill._LOG_FACTORIAL[counts].sum(axis=1)
    w = np.zeros((2, counts.shape[0]))
    for c in (0, 1):
        for k in (0, 1):
            if pi_k[k] <= 0.0:
                continue
            qe = q[c, k]
            ok = qe > 0.0
            usable = (counts[:, ~ok] == 0).all(axis=1)
            logs = counts[:, ok] @ np.log(qe[ok]) + log_multinom
            w[c, usable] += pi_k[k] * np.exp(logs[usable])
    tot = w.sum(axis=0)
    mask = tot > 0.0
    post0 = w[0, mask] / tot[mask]
    return 1.0 - float((0.5 * tot[mask] * distill._h2_vec(post0)).sum())


def dense_min_block(dist, n_max):
    """Oracle for ad_min_block: a scan of the dense sums, one n at a time."""
    return next((n for n in range(1, n_max + 1)
                 if distill.ad_exact(dist, n).i_ab - dense_i_ae(dist, n)
                 > distill.ADVANTAGE_EPS), None)


def overlapping_supports():
    """|E| = 4 table whose branches q[c, k] have the supports {0, 1, 2},
    {1, 3}, {0, 2, 3} and {2, 3}. The first three are maximal, and each
    pair of them overlaps."""
    table = np.zeros((2, 2, 4))
    table[0, 0] = 0.40 * np.array([0.5, 0.3, 0.2, 0.0])
    table[0, 1] = 0.10 * np.array([0.0, 0.6, 0.0, 0.4])
    table[1, 1] = 0.42 * np.array([0.25, 0.0, 0.25, 0.5])
    table[1, 0] = 0.08 * np.array([0.0, 0.0, 0.7, 0.3])
    return qkd.SymbolDistribution(table, eve_measurement=qkd.SQUARE_ROOT_4)


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


class TestBlockEngine:
    """The support-pruned, batched engine against the dense oracle."""

    @pytest.mark.parametrize("eve", qkd.EVE_MEASUREMENTS)
    @pytest.mark.parametrize("d", np.linspace(0.0, 0.5, 26))
    def test_matches_dense_oracle_for_every_block_size(self, d, eve):
        dist = dist_at(d, eve)
        batched = next(distill._block_profiles(
            dist, [(1, distill.MAX_BLOCK)]))
        for n in range(1, distill.MAX_BLOCK + 1):
            oracle = dense_i_ae(dist, n)
            for out in (distill.ad_exact(dist, n), batched[n - 1]):
                assert out.block_size == n
                assert out.i_ae == pytest.approx(oracle, abs=1e-14)
                assert out.advantage == pytest.approx(
                    out.i_ab - oracle, abs=1e-14)

    @pytest.mark.parametrize("eve", qkd.EVE_MEASUREMENTS)
    def test_min_block_matches_dense_scan(self, eve):
        # 0.274157538 and 0.274157539 bracket the last D with a block
        # n <= 64
        grid = [0.0, 0.05, 0.12, 0.2, 0.25, 0.27, 0.2741, 0.274157538,
                0.274157539, 0.2742, 0.28, 0.3, 0.5]
        for d in grid:
            dist = dist_at(d, eve)
            for n_max in (1, 8, 30, 64):
                assert distill.ad_min_block(dist, n_max) == \
                    dense_min_block(dist, n_max), (d, n_max)

    def test_min_block_reaches_every_size_up_to_30(self):
        """Every block size 3..30 is the answer somewhere on this grid, so
        a block size the batched scan skipped would show."""
        found = set()
        for d in np.linspace(0.2, 0.27415, 150):
            dist = dist_at(d)
            n = distill.ad_min_block(dist, 64)
            assert n == dense_min_block(dist, 64), d
            found.add(n)
        assert found == set(range(3, 31))

    def test_grid_straddles_the_n_max_64_boundary(self):
        assert distill.ad_min_block(dist_at(0.274157538), 64) == 30
        assert distill.ad_min_block(dist_at(0.274157539), 64) is None

    def test_square_root_rows_are_pruned(self):
        dist = dist_at(0.25, qkd.SQUARE_ROOT_4)
        q, _ = distill._conditional_eve(dist)
        supports = distill._branch_supports(q)
        assert supports == ((0, 3), (1, 2))
        counts = distill._count_rows(1, 64, 4, supports)[0]
        # two 2-symbol supports, n + 1 vectors each, against 814 385
        # vectors over all four symbols
        assert counts.shape[0] == sum(2 * (n + 1) for n in range(1, 65))

    def test_overlapping_supports_match_dense_oracle(self):
        dist = overlapping_supports()
        q, _ = distill._conditional_eve(dist)
        supports = distill._branch_supports(q)
        assert supports == ((0, 1, 2), (0, 2, 3), (1, 3))
        counts = distill._count_rows(1, 64, 4, supports)[0]
        assert len(np.unique(counts, axis=0)) == len(counts)
        batched = next(distill._block_profiles(
            dist, [(1, distill.MAX_BLOCK)]))
        for n in range(1, distill.MAX_BLOCK + 1):
            oracle = dense_i_ae(dist, n)
            assert batched[n - 1].i_ae == pytest.approx(oracle, abs=1e-14)
            assert distill.ad_exact(dist, n).i_ae == pytest.approx(
                oracle, abs=1e-14)
        for n_max in (1, 8, 30, 64):
            assert distill.ad_min_block(dist, n_max) == \
                dense_min_block(dist, n_max)


def one_shot_monte_carlo(dist, n, trials, seed):
    """ad_monte_carlo's (accepted, wrong, mean and sample std of Eve's
    block entropy) from one Generator.choice over all trials: the oracle
    for the chunked draw."""
    rng = np.random.default_rng(seed)
    t = dist.table
    ne = t.shape[2]
    idx = rng.choice(t.size, size=(trials, n), p=t.ravel())
    e, b, a = idx % ne, (idx // ne) % 2, idx // (2 * ne)
    c = rng.integers(0, 2, size=trials)
    err = a ^ b
    accept = (err == err[:, :1]).all(axis=1)
    with np.errstate(divide="ignore"):
        logt = np.log(t)
    m, e_acc = (a ^ c[:, None])[accept], e[accept]
    logw = np.empty((2, 2, m.shape[0]))
    for c_hyp in (0, 1):
        for k in (0, 1):
            logw[c_hyp, k] = logt[m ^ c_hyp, m ^ c_hyp ^ k, e_acc].sum(axis=1)
    logw_c = np.logaddexp(logw[:, 0], logw[:, 1])
    h = distill._h2_vec(np.exp(logw_c[0] - np.logaddexp(*logw_c)))
    return (int(accept.sum()), int((accept & (err[:, 0] == 1)).sum()),
            float(h.mean()), float(h.std(ddof=1)))


class TestAdMonteCarlo:
    @pytest.mark.parametrize("eve,d,n,trials", [
        (qkd.HELSTROM_BINARY, 0.2, 1, 3 * distill.MC_CHUNK_SYMBOLS + 17),
        (qkd.HELSTROM_BINARY, 0.12, 3, 50_001),
        (qkd.HELSTROM_BINARY, 0.3, 8, 200_000),
        (qkd.SQUARE_ROOT_4, 0.04, 48, 50_000),
        (qkd.SQUARE_ROOT_4, 0.02, 64, 20_000)])
    def test_chunked_draw_matches_one_shot(self, eve, d, n, trials):
        assert trials * n > distill.MC_CHUNK_SYMBOLS  # spans several chunks
        dist = dist_at(d, eve)
        for seed in (0, 9):
            mc = distill.ad_monte_carlo(dist, n, trials, seed=seed)
            acc, wrong, h_mean, h_std = one_shot_monte_carlo(
                dist, n, trials, seed)
            assert mc.accepted == acc
            assert mc.eps_post == wrong / acc
            assert mc.i_ae == 1.0 - h_mean
            assert mc.se_i_ae == h_std / np.sqrt(acc)

    def test_memory_is_per_chunk(self):
        # 4e6 trial-symbols: about 200 MB if the (trials, n) arrays were
        # built at once; one chunk plus 16 B a trial is under 15 MB
        tracemalloc.start()
        try:
            distill.ad_monte_carlo(dist_at(0.12), 8, trials=500_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20

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

    def test_memory_budget_checked_before_sampling(self):
        with pytest.raises(ValueError, match="budget"):
            distill.ad_monte_carlo(dist_at(0.2), 64, trials=10 ** 9, seed=1)
        trials = distill.MC_MAX_TRIAL_SYMBOLS // 8 + 1
        with pytest.raises(ValueError, match="budget"):
            distill.ad_monte_carlo(dist_at(0.2), 8, trials=trials, seed=1)

    def test_budget_admits_the_largest_test_case(self):
        assert 1_000_000 * 8 <= distill.MC_MAX_TRIAL_SYMBOLS


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
