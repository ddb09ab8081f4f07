"""Tests for advantage distillation and the pair-recurrence protocol."""

import dataclasses
import functools
import tracemalloc

import block_oracle
import numpy as np
import pytest
from scipy.special import gammaln

from eve_tables import BASES, eigen_table
from pair_oracle import bell_diagonal, chsh_max, recurrence_explicit
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
    vector, with no support pruning: the oracle for distill's engine.
    Like the engine it clamps the information at 0, where round-off of
    the entropy sum reads down to -1.2e-14 (D = 0, square_root_4)."""
    eps = qkd.error_rate(dist)
    p_acc = (1.0 - eps) ** n + eps ** n
    pi_k = np.array([(1.0 - eps) ** n, eps ** n]) / p_acc
    q = distill._conditional_eve(dist)
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
    return max(1.0 - float((0.5 * tot[mask] * qkd.h2(post0)).sum()),
               0.0)


def enumerated_outcome(dist, n):
    """Block statistics summed over all |E|^n of Eve's symbol sequences,
    one sequence at a time: the oracle for the count sums."""
    eps = qkd.error_rate(dist)
    p_acc = (1.0 - eps) ** n + eps ** n
    eps_post = eps ** n / p_acc
    pi_k = np.array([(1.0 - eps) ** n, eps ** n]) / p_acc
    q = distill._conditional_eve(dist)
    h_cond = 0.0
    for seq in np.ndindex(*([q.shape[2]] * n)):
        w = np.zeros(2)
        for c in (0, 1):
            for k in (0, 1):
                w[c] += pi_k[k] * np.prod([q[c, k, e] for e in seq])
        tot = w.sum()
        if tot > 0.0:
            h_cond += 0.5 * tot * qkd.binary_entropy(w[0] / tot)
    return distill.AdOutcome(n, float(p_acc), float(eps_post),
                             1.0 - qkd.binary_entropy(eps_post), 1.0 - h_cond)


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
    return qkd.SymbolDistribution(table)


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
            slow = enumerated_outcome(dist, n)
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

    @pytest.mark.parametrize("eve", qkd.EVE_MEASUREMENTS)
    def test_no_attack_leaves_no_negative_information(self, eve):
        """At D = 0 Eve learns nothing; the block entropy sums must not
        read a negative information or an advantage above I(A;B)."""
        dist = dist_at(0.0, eve)
        for n in range(1, distill.MAX_BLOCK + 1):
            out = distill.ad_exact(dist, n)
            assert out.i_ae >= 0.0
            assert out.advantage <= out.i_ab

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
        _, _, i_ab, i_ae = distill._block_profiles(
            dist, distill.MAX_BLOCK)
        for n in range(1, distill.MAX_BLOCK + 1):
            oracle = dense_i_ae(dist, n)
            out = distill.ad_exact(dist, n)
            assert out.block_size == n
            for ab, ae in ((out.i_ab, out.i_ae), (i_ab[n - 1], i_ae[n - 1])):
                assert ae == pytest.approx(oracle, abs=1e-14)
                assert ab - ae == pytest.approx(ab - oracle, abs=1e-14)

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
        the first-advantage search over the one-pass arrays is checked at
        each of them."""
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
        q = distill._conditional_eve(dist)
        branches = distill._branch_supports(q)
        assert set(branches) == {(0, 3), (1, 2)}
        index = distill._count_rows(4, branches)[0]
        # two 2-symbol supports, n + 1 vectors each, against 814 385
        # vectors over all four symbols
        assert len(index) == sum(2 * (n + 1) for n in range(1, 65))

    def test_overlapping_supports_match_dense_oracle(self):
        dist = overlapping_supports()
        q = distill._conditional_eve(dist)
        branches = distill._branch_supports(q)
        assert branches == ((0, 1, 2), (1, 3), (0, 2, 3), (2, 3))
        index, _, rows = distill._count_rows(4, branches)
        counts = np.zeros((len(index), 4))
        for ok, (at, on_ok, *_) in zip(branches, rows):
            counts[np.ix_(at, ok)] = on_ok
        assert len(np.unique(counts, axis=0)) == len(counts)
        i_ae = distill._block_profiles(dist, distill.MAX_BLOCK)[3]
        for n in range(1, distill.MAX_BLOCK + 1):
            oracle = dense_i_ae(dist, n)
            assert i_ae[n - 1] == pytest.approx(oracle, abs=1e-14)
            assert distill.ad_exact(dist, n).i_ae == pytest.approx(
                oracle, abs=1e-14)
        for n_max in (1, 8, 30, 64):
            assert distill.ad_min_block(dist, n_max) == \
                dense_min_block(dist, n_max)

    def test_one_row_table_serves_every_block_size(self):
        """ad_exact at every n and ad_min_block at every n_max slice one
        cached table per support set, whose prefix counts are those of
        its rows."""
        dist = overlapping_supports()
        distill._count_rows.cache_clear()
        for n in range(1, distill.MAX_BLOCK + 1):
            distill.ad_exact(dist, n)
        for n_max in (1, 8, 30, 64):
            distill.ad_min_block(dist, n_max)
        assert distill._count_rows.cache_info().currsize == 1
        branches = distill._branch_supports(distill._conditional_eve(dist))
        index, ends, rows = distill._count_rows(4, branches)
        upto = np.arange(distill.MAX_BLOCK + 1)[:, None]
        np.testing.assert_array_equal(ends, (index < upto).sum(axis=1))
        for *_, size, size_ends in rows:
            np.testing.assert_array_equal(size_ends,
                                          (size < upto).sum(axis=1))


# D values at the edges of the engine's range: exact zero, the smallest
# subnormal, tiny disturbances and the pair that brackets the last D with
# a block n <= 64.
EDGE_D = (0.0, 5e-324, 1e-300, 1e-12, 0.274157538, 0.274157539, 0.5)


def oracle_tables(group):
    """Symbol tables on which the engine must equal block_oracle bit for
    bit: 154 D in [0, 0.5] under one Eve measurement, or ("edges") both
    measurements at EDGE_D plus overlapping_supports()."""
    if group != "edges":
        return [dist_at(float(d), group) for d in np.linspace(0.0, 0.5, 154)]
    return [dist_at(d, eve) for eve in qkd.EVE_MEASUREMENTS
            for d in EDGE_D] + [overlapping_supports()]


def outcome_bits(out):
    """Each AdOutcome field with its type, floats as their exact hex."""
    return [(type(v), v.hex() if isinstance(v, float) else v)
            for v in dataclasses.astuple(out)]


class TestBlockOracle:
    """The one-pass engine against the block-range engine it replaced
    (tests/block_oracle.py): equal bits, not only equal values."""

    @pytest.mark.parametrize("group", [*qkd.EVE_MEASUREMENTS, "edges"])
    def test_ad_exact_is_bit_identical(self, group):
        sizes = range(1, distill.MAX_BLOCK + 1)
        for dist in oracle_tables(group):
            oracle = block_oracle.block_profiles(dist, [(n, n) for n in sizes])
            for n, (want,) in zip(sizes, oracle):
                assert outcome_bits(distill.ad_exact(dist, n)) == \
                    outcome_bits(want), n

    @pytest.mark.parametrize("group", [*qkd.EVE_MEASUREMENTS, "edges"])
    def test_min_block_is_identical(self, group):
        for dist in oracle_tables(group):
            for n_max in (1, 8, 30, 64):
                assert distill.ad_min_block(dist, n_max) == \
                    block_oracle.ad_min_block(dist, n_max), n_max


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
    h = qkd.h2(np.exp(logw_c[0] - np.logaddexp(*logw_c)))
    return (int(accept.sum()), int((accept & (err[:, 0] == 1)).sum()),
            float(h.mean()), float(h.std(ddof=1)))


class TestAdMonteCarlo:
    @pytest.mark.parametrize("eve,d,n,trials", [
        (qkd.HELSTROM_BINARY, 0.2, 1, 3 * distill.MC_CHUNK_SYMBOLS + 17),
        (qkd.HELSTROM_BINARY, 0.12, 3, 50_001),
        (qkd.HELSTROM_BINARY, 0.3, 8, 200_000),
        (qkd.SQUARE_ROOT_4, 0.04, 48, 50_000),
        (qkd.SQUARE_ROOT_4, 0.02, 64, 20_000),
        # D = 0: the a != b cells are zero, so the CDF repeats its values
        # at both edges of the error test and every block is accepted.
        (qkd.HELSTROM_BINARY, 0.0, 64, 10_000),
        (qkd.SQUARE_ROOT_4, 0.0, 7, 10_000),
        # square-root measurement at small D: zero cells inside each half.
        (qkd.SQUARE_ROOT_4, 0.01, 8, 20_000),
        # high D, small n: all-error blocks are accepted, and at n = 1
        # every block is.
        (qkd.HELSTROM_BINARY, 0.45, 1, 70_000),
        (qkd.HELSTROM_BINARY, 0.45, 3, 30_000)])
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

    def test_entropies_held_once(self):
        # n = 1 accepts every block, so Eve's entropies take 8 MB at 1e6
        # trials; a list of them, its concatenation and a deviation
        # temporary would each add 8 MB more
        tracemalloc.start()
        try:
            distill.ad_monte_carlo(dist_at(0.2), 1, trials=1_000_000, seed=0)
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
        steps = distill.recurrence_iterate(0.7, 25)
        fids = [f for f, _ in steps]
        assert all(b > a for a, b in zip([0.7] + fids, fids))
        assert fids[-1] > 0.999

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            distill.recurrence_step(1.2)

    @pytest.mark.parametrize("f", [0.5, 0.55, 0.7, 0.75, 0.9, 1.0])
    def test_explicit_protocol_matches_map(self, f):
        """The closed weight map and the 16-dim bilateral-CNOT simulation
        both reproduce the fidelity map on the Werner-form input."""
        r = (1 - f) / 3
        new_w, p = distill.recurrence_weights([f, r, r, r])
        f_map, p_map = distill.recurrence_step(f)
        assert abs(new_w[0] - f_map) <= 1e-15
        assert abs(p - p_map) <= 1e-15
        oracle_w, oracle_p = recurrence_explicit([f, r, r, r])
        assert oracle_w[0] == pytest.approx(f_map, abs=1e-12)
        assert oracle_p == pytest.approx(p_map, abs=1e-12)

    def test_explicit_protocol_general_bell_diagonal(self):
        """Success probability and weights stay normalised off the
        one-parameter family, and the closed map equals the simulation."""
        weights = np.array([0.5, 0.3, 0.15, 0.05])
        new_w, p = distill.recurrence_weights(weights)
        assert new_w.sum() == pytest.approx(1.0, abs=1e-15)
        assert p == 0.8 ** 2 + 0.2 ** 2
        oracle_w, oracle_p = recurrence_explicit(weights)
        assert np.abs(new_w - oracle_w).max() <= 1e-15
        assert abs(p - oracle_p) <= 1e-15

    @pytest.mark.parametrize("weights", [
        [0.5, 0.2, 0.2, 0.2], [1.2, -0.2, 0.0, 0.0],
        [0.5, np.inf, 0.25, 0.25], [0.5, 0.5]])
    def test_weight_map_rejects_invalid_weights(self, weights):
        """The closed map rejects what the density-matrix route rejects."""
        for route in (distill.recurrence_weights, recurrence_explicit):
            with pytest.raises(ValueError, match="Bell weight"):
                route(weights)

    def test_explicit_protocol_rejects_nan(self):
        with pytest.raises(ValueError, match="Bell weights must be finite"):
            distill.recurrence_weights([0.5, np.nan, 0.25, 0.25])
        with pytest.raises(ValueError, match="NaN"):
            recurrence_explicit([0.5, np.nan, 0.25, 0.25])

    @pytest.mark.parametrize("d", np.linspace(0.0, 0.5, 11))
    def test_one_round_is_a_two_bit_block(self, d):
        """One round on the attack's pair state matches repetition-code
        distillation on blocks of two bits: it succeeds as often as a
        block is accepted, and the kept pair's z error lam_2' + lam_3'
        is the block's eps_post."""
        new_w, p = distill.recurrence_weights(qkd.bell_weights(d))
        block = distill.ad_exact(dist_at(d), 2)
        assert abs(p - block.p_accept) <= 1e-15
        assert abs(new_w[2] + new_w[3] - block.eps_post) <= 1e-15


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
        steps = distill.recurrence_iterate(f, 35)
        assert steps[-1][0] > 0.9999


class TestEquivalenceSweep:
    def test_rows_match_componentwise(self):
        rows = distill.equivalence_sweep([0.05, 0.35], n_max=30)
        low, high = rows
        assert low.entangled and low.ad_min_block == 1
        assert not high.entangled and high.ad_min_block is None
        assert low.chsh == pytest.approx(
            chsh_max(bell_diagonal(qkd.bell_weights(0.05))), abs=1e-12)
        dist = dist_at(0.05)
        assert low.i_ab == pytest.approx(qkd.mutual_information(dist, "ab"),
                                         abs=1e-12)
        assert low.i_ae == pytest.approx(qkd.mutual_information(dist, "ae"),
                                         abs=1e-12)

    def test_boundary_row(self):
        row = distill.equivalence_sweep([1 - 1 / np.sqrt(2)], n_max=4)[0]
        rho = bell_diagonal(qkd.bell_weights(row.d))
        assert abs(qcore.is_entangled(rho)[1]) <= 1e-9

    def test_entangled_needs_the_ppt_margin(self):
        edge = 1 - 1 / np.sqrt(2)
        inside, past = distill.equivalence_sweep([edge - 4e-10, edge - 1e-8],
                                                 n_max=None)
        assert -qcore.PPT_MARGIN < inside.min_pt_eigenvalue < 0.0
        assert not inside.entangled
        assert past.min_pt_eigenvalue < -qcore.PPT_MARGIN and past.entangled

    @pytest.mark.parametrize("basis", BASES)
    def test_pair_state_columns(self, basis):
        for row in distill.equivalence_sweep([0.0, 0.1, 0.3], n_max=None,
                                             eve_measurement=qkd.SQUARE_ROOT_4):
            pair = (row.min_pt_eigenvalue, row.chsh, row.singlet_fidelity)
            assert pair == qkd.pair_criteria(row.d)
            # The eigen route on the density matrix is the oracle.
            rho = bell_diagonal(qkd.bell_weights(row.d))
            oracle = (qcore.is_entangled(rho)[1], chsh_max(rho),
                      qcore.singlet_fidelity(rho))
            assert np.max(np.abs(np.subtract(pair, oracle))) <= 2e-15
            assert row.singlet_fidelity == pytest.approx(
                (1 - row.d) ** 2, abs=1e-12)
            params = qkd.AttackParams(row.d, qkd.SQUARE_ROOT_4)
            dist = qkd.symbol_distribution(params)
            assert row.i_ae == qkd.mutual_information(dist, "ae")
            # So is Eve's measurement on the three-party state, in the
            # basis the partners measure.
            eigen = qkd.SymbolDistribution(eigen_table(params, basis))
            assert row.i_ae == pytest.approx(
                qkd.mutual_information(eigen, "ae"), abs=1e-14)

    def test_no_block_scan_without_n_max(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ad_min_block called")
        monkeypatch.setattr(distill, "ad_min_block", refuse)
        rows = distill.equivalence_sweep([0.1, 0.25, 0.35], n_max=None)
        assert [r.ad_min_block for r in rows] == [None] * 3
