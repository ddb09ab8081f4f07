"""Tests for copying fidelities, the birth-chain simulation and the fit."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import poisson

import fit_oracle
from fidelity_records import save_fidelity_csv
from qclink import cloning


class TestFidelityOpt:
    def test_one_to_two(self):
        assert cloning.fidelity_opt(1, 2) == pytest.approx(5 / 6, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 5, 17])
    def test_trivial_copying(self, n):
        assert cloning.fidelity_opt(n, n) == pytest.approx(1.0, abs=1e-15)

    def test_many_copy_limit(self):
        # limit (N+1)/(N+2) for M -> infinity
        assert cloning.fidelity_opt(1, 10 ** 9) == pytest.approx(2 / 3, abs=1e-8)
        assert cloning.fidelity_opt(3, 10 ** 9) == pytest.approx(4 / 5, abs=1e-8)

    def test_monotonicity_and_bounds(self):
        for n in range(1, 6):
            prev = None
            for m in range(n, 40):
                f = cloning.fidelity_opt(n, m)
                assert 0.5 < f <= 1.0
                if prev is not None:
                    assert f <= prev + 1e-15
                prev = f
        for m in range(6, 40):
            values = [cloning.fidelity_opt(n, m) for n in range(1, m + 1)]
            assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            cloning.fidelity_opt(3, 2)
        with pytest.raises(ValueError):
            cloning.fidelity_opt(0, 2)
        with pytest.raises(ValueError):
            cloning.fidelity_opt(1.5, 3)


class TestFidelityClassical:
    def test_equals_copy_formula_at_unit_quality(self):
        for n in range(1, 51):
            for m in range(n, 51):
                diff = abs(cloning.fidelity_classical(n, m, 1.0)
                           - cloning.fidelity_opt(n, m))
                assert diff <= 1e-12

    def test_random_amplification_limit(self):
        # Q = 0 and vanishing input: F -> mu_out / (2 mu_out) = 1/2
        assert cloning.fidelity_classical(1e-9, 1.0, 0.0) == pytest.approx(
            0.5, abs=1e-8)

    def test_bright_input_limit(self):
        assert cloning.fidelity_classical(1e7, 1e8, 0.7) == pytest.approx(
            1.0, abs=1e-6)

    def test_bounds_on_random_grid(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            mu_in = rng.uniform(1e-3, 50)
            gain = rng.uniform(1.0, 100.0)
            q = rng.uniform(0.0, 1.0)
            f = cloning.fidelity_classical(mu_in, gain * mu_in, q)
            assert 0.5 < f <= 1.0

    def test_attenuation_rejected(self):
        with pytest.raises(ValueError):
            cloning.fidelity_classical(2.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            cloning.fidelity_classical(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            cloning.fidelity_classical(1.0, 2.0, 1.5)

    @pytest.mark.parametrize("args", [(np.nan, 2.0, 1.0), (1.0, np.nan, 1.0),
                                      (1.0, np.inf, 0.5)])
    def test_non_finite_rejected(self, args):
        with pytest.raises(ValueError):
            cloning.fidelity_classical(*args)

    @pytest.mark.parametrize("args", [(1e160, 1e160, 1.0), (1.0, 1e308, 0.0)])
    def test_overflow_rejected(self, args):
        """q mu_out mu_in overflowing read nan; 2 mu_out overflowing read
        0.0, where the law gives 1/2."""
        with pytest.raises(ValueError, match="overflows"):
            cloning.fidelity_classical(*args)

    def test_bright_finite_terms_kept(self):
        assert cloning.fidelity_classical(1e150, 1e151, 1.0) == 1.0


def birth_mc_by_steps(n, m, trials, seed):
    """The birth chain advanced one step at a time with fresh arrays: the
    oracle for cloning.birth_process_mc."""
    rng = np.random.default_rng(seed)
    n_sig = np.full(trials, n, dtype=np.int64)
    for total in range(n, m):
        n_sig += rng.random(trials) < (n_sig + 1) / (total + 2)
    samples = n_sig / m
    se = samples.std(ddof=1) / np.sqrt(trials) if m > n else 0.0
    return float(samples.mean()), float(se)


class TestBirthProcess:
    def test_exact_small_cases(self):
        assert cloning.birth_process_exact(1, 2) == pytest.approx(5 / 6,
                                                                  abs=1e-12)
        assert cloning.birth_process_exact(1, 3) == pytest.approx(7 / 9,
                                                                  abs=1e-12)

    def test_exact_matches_formula_everywhere(self):
        """The gain chain realises the optimal copying fidelity."""
        for n in range(1, 5):
            for m in range(n, 9):
                assert cloning.birth_process_exact(n, m) == pytest.approx(
                    cloning.fidelity_opt(n, m), abs=1e-12)

    def test_no_growth_is_exact_unity(self):
        mean, se = cloning.birth_process_mc(3, 3, trials=10_000, seed=0)
        assert mean == 1.0
        assert se == 0.0

    def test_monte_carlo_agreement(self):
        for n in range(1, 5):
            for m in range(n + 1, 9):
                mean, se = cloning.birth_process_mc(n, m, trials=100_000,
                                                    seed=n * 10 + m)
                assert abs(mean - cloning.fidelity_opt(n, m)) <= 3 * se

    @pytest.mark.parametrize("n, m, trials, seed", [
        (1, 2, 10_000, 0), (3, 3, 10_000, 1), (2, 41, 33_333, 7),
        (5, 400, 20_000, 12)])
    def test_matches_step_by_step_oracle(self, n, m, trials, seed):
        assert cloning.birth_process_mc(n, m, trials, seed) == \
            birth_mc_by_steps(n, m, trials, seed)

    def test_deterministic_per_seed(self):
        a = cloning.birth_process_mc(1, 5, trials=10_000, seed=9)
        b = cloning.birth_process_mc(1, 5, trials=10_000, seed=9)
        assert a == b

    def test_trial_budget(self):
        with pytest.raises(ValueError):
            cloning.birth_process_mc(1, 2, trials=10)

    def test_memory_budget_checked_before_sampling(self):
        with pytest.raises(ValueError, match="trials"):
            cloning.birth_process_mc(1, 3, trials=cloning.BIRTH_MAX_TRIALS + 1)

    def test_step_budget_checked_before_sampling(self):
        # 10^4 trials of 10^4 + 1 steps: just over BIRTH_MAX_TRIAL_STEPS.
        with pytest.raises(ValueError, match="budget"):
            cloning.birth_process_mc(1, 10 ** 4 + 2, trials=10 ** 4)


class TestPoissonMixture:
    def test_unit_gain(self):
        assert cloning.poisson_mixture_fidelity(5.0, 1.0) == pytest.approx(
            1.0, abs=1e-12)

    def test_bright_limit_approaches_unity(self):
        values = [cloning.poisson_mixture_fidelity(mu, 10.0)
                  for mu in (1.0, 5.0, 20.0, 50.0)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.95

    def test_reported_value_and_deviation(self):
        value = cloning.poisson_mixture_fidelity(5.0, 10.0)
        reference = cloning.fidelity_classical(5.0, 50.0, 1.0)
        assert 0.5 < value <= 1.0
        # the deviation is a report, not a target; just pin the regression
        assert value == pytest.approx(0.857832, abs=1e-5)
        assert abs(value - reference) < 0.02

    def test_domain(self):
        with pytest.raises(ValueError):
            cloning.poisson_mixture_fidelity(60.0, 2.0)
        with pytest.raises(ValueError):
            cloning.poisson_mixture_fidelity(5.0, 0.5)
        with pytest.raises(ValueError):
            cloning.poisson_mixture_fidelity(5.0, np.inf)
        # gain * n would overflow to inf before round(gain n) is taken
        with pytest.raises(ValueError, match="gain"):
            cloning.poisson_mixture_fidelity(5.0, 1e308)
        with pytest.raises(ValueError, match="gain"):
            cloning.poisson_mixture_fidelity(
                5.0, np.nextafter(cloning.MIXTURE_MAX_GAIN, np.inf))

    @pytest.mark.parametrize("mu", [0.1, 1.0, 5.0, 17.3, 50.0])
    @pytest.mark.parametrize("gain", [1.0, 2.5, 10.0,
                                      cloning.MIXTURE_MAX_GAIN])
    def test_matches_scipy_weighted_formula(self, mu, gain):
        ns = np.arange(1, int(poisson.ppf(1.0 - 1e-12, mu)) + 2)
        weights = poisson.pmf(ns, mu)
        fids = [cloning.fidelity_opt(n, max(n, int(np.floor(gain * n + 0.5))))
                for n in ns]
        expected = weights @ fids / weights.sum()
        assert cloning.poisson_mixture_fidelity(mu, gain) == pytest.approx(
            expected, rel=1e-13)


MU_GRID = np.logspace(np.log10(0.5), np.log10(50.0), 50)


class TestFitQ:
    def test_noiseless_recovery(self):
        data = cloning.generate_fidelity_dataset(0.8, MU_GRID)
        q_hat, rss = cloning.fit_q(data)
        assert q_hat == pytest.approx(0.8, abs=1e-5)
        assert rss <= 1e-12

    def test_boundary_recovery(self):
        data = cloning.generate_fidelity_dataset(1.0, MU_GRID)
        q_hat, _ = cloning.fit_q(data)
        assert q_hat == pytest.approx(1.0, abs=1e-5)

    def test_noisy_recovery_study(self):
        hits = 0
        for seed in range(100):
            data = cloning.generate_fidelity_dataset(
                0.8, MU_GRID, gain=10.0, noise_sigma=0.005, seed=seed)
            q_hat, _ = cloning.fit_q(data)
            hits += abs(q_hat - 0.8) <= 0.02
        assert hits >= 95

    def test_degenerate_dataset_warns(self):
        data = cloning.generate_fidelity_dataset(0.8, [2.0, 2.0, 2.0])
        with pytest.warns(UserWarning):
            q_hat, _ = cloning.fit_q(data)
        assert 0.0 <= q_hat <= 1.0

    @pytest.mark.parametrize("sigma", [np.nan, -0.01, np.inf])
    def test_bad_noise_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="noise sigma"):
            cloning.generate_fidelity_dataset(0.8, MU_GRID, noise_sigma=sigma)

    @pytest.mark.parametrize("gain", [
        np.nan, -1.0, 0.5, math.nextafter(1.0, 0.0), np.inf])
    def test_bad_gain_rejected_before_any_record(self, gain, monkeypatch):
        """A gain below 1 or NaN used to surface as a bad mu_out of the
        first record."""
        def no_records(*args):
            raise AssertionError("a record was built")
        monkeypatch.setattr(cloning, "_checked_law_terms", no_records)
        with pytest.raises(ValueError, match="gain"):
            cloning.generate_fidelity_dataset(0.8, MU_GRID, gain=gain)

    def test_overflowing_gain_rejected(self):
        """gain * mu_in past the float range used to warn of an overflow
        in multiply before the records raised."""
        with pytest.raises(ValueError, match="overflows"):
            cloning.generate_fidelity_dataset(0.8, [0.5, 10.0], gain=1e308)

    @pytest.mark.parametrize("col, value", [
        (0, np.inf), (1, np.nan), (1, np.inf), (2, np.nan), (2, -np.inf)])
    def test_non_finite_record_rejected(self, col, value):
        data = cloning.generate_fidelity_dataset(0.8, [0.5, 2.0, 10.0])
        data[1, col] = value
        with pytest.raises(ValueError, match="finite"):
            cloning.fit_q(data)

    def test_overflowing_records_rejected(self):
        """Residuals past q ~ 0 read nan, and the scan used to return a
        made-up q_hat with rss = nan."""
        data = np.array([[1e200, 2e200, 0.9], [3e200, 6e200, 0.95],
                         [5e200, 1e201, 0.97]])
        with pytest.raises(ValueError, match="overflows"):
            cloning.fit_q(data)

    def test_loss_record_rejected_like_the_law(self):
        """Rows with mu_out < mu_in, which fidelity_classical rejects, used
        to be fitted: these gave q_hat ~ 1.0."""
        with pytest.raises(ValueError) as law:
            cloning.fidelity_classical(1.0, 0.5, 0.9)
        with pytest.raises(ValueError) as fit:
            cloning.fit_q([[1, 0.5, 0.9], [2, 1, 0.95], [3, 1.5, 0.97]])
        assert str(fit.value) == str(law.value)

    def test_too_few_records(self):
        data = cloning.generate_fidelity_dataset(0.8, [1.0, 2.0])
        with pytest.raises(ValueError):
            cloning.fit_q(data)

    def test_grid_blocks_match_point_by_point_scan(self):
        """1000 records hold 16 grid points a block: the grid takes seven,
        the last one short."""
        data = cloning.generate_fidelity_dataset(
            0.6, np.geomspace(0.01, 100.0, 1000), noise_sigma=0.01, seed=7)
        per_block = cloning.FIT_BLOCK // 1000
        assert per_block < 101 and 101 % per_block  # a short last block
        assert cloning.fit_q(data) == fit_oracle.fit_q(data)

    def test_grid_memory_is_per_block(self):
        """200 000 records: an unblocked (101, k) grid would take about
        160 MB per temporary; one grid point a block stays near the
        records' own 4.8 MB and their contiguous copy."""
        mu_in = np.geomspace(0.5, 50.0, 200_000)
        fid = np.random.default_rng(2).uniform(0.5, 1.0, mu_in.size)
        data = np.column_stack([mu_in, 10.0 * mu_in, fid])
        tracemalloc.start()
        try:
            cloning.fit_q(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_grid_argmin_is_global(self):
        """The refined minimum never exceeds any coarse-grid value."""
        data = cloning.generate_fidelity_dataset(
            0.8, MU_GRID, noise_sigma=0.01, seed=3)
        q_hat, rss = cloning.fit_q(data)
        mu_in, mu_out, fid = data.T
        for q in np.linspace(0, 1, 101):
            core = q * mu_out * mu_in
            model = (core + mu_out + mu_in) / (core + 2 * mu_out)
            assert rss <= ((model - fid) ** 2).sum() + 1e-12


class TestCsvRoundTrip:
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "records.csv"
        data = cloning.generate_fidelity_dataset(0.8, [0.5, 2.0, 10.0],
                                                 noise_sigma=0.002, seed=1)
        save_fidelity_csv(path, data)
        text = path.read_text()
        assert text.splitlines()[0] == "mu_in,mu_out,fidelity"
        loaded = cloning.load_fidelity_csv(path)
        np.testing.assert_allclose(loaded, data, rtol=0, atol=0)

    def test_header_is_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,0.9\n")
        with pytest.raises(ValueError):
            cloning.load_fidelity_csv(path)

    def test_empty_data_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("mu_in,mu_out,fidelity\n")
        with pytest.raises(ValueError):
            cloning.load_fidelity_csv(path)

    @pytest.mark.parametrize("body, where, reason", [
        ("1.0,2.0,0.9\n1.0,2.0\n", "line 3", "2 cells, expected 3"),
        ("1.0,2.0,0.9\n1.0,2.0,0.9,0.1\n", "line 3", "4 cells, expected 3"),
        ("1.0,2.0,0.9\n\n1.0,,0.9\n", "line 4", "could not convert"),
        ("1.0,2.0,abc\n", "line 2", "could not convert")],
        ids=["short-row", "long-row", "empty-cell", "non-numeric-cell"])
    def test_malformed_row_names_file_and_line(self, tmp_path, body, where,
                                                reason):
        """A ragged row, an empty cell and a word are still rejected, and
        the message says where."""
        path = tmp_path / "bad.csv"
        path.write_text("mu_in,mu_out,fidelity\n" + body)
        with pytest.raises(ValueError) as info:
            cloning.load_fidelity_csv(path)
        assert str(info.value).startswith(f"{path}, {where}: {reason}")

    def test_invalid_fidelity_rejected(self, tmp_path):
        path = tmp_path / "range.csv"
        path.write_text("mu_in,mu_out,fidelity\n1.0,2.0,1.5\n")
        with pytest.raises(ValueError):
            cloning.load_fidelity_csv(path)
