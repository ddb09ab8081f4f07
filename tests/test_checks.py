"""Tests for the shared range check and the library inputs it guards."""

import math

import numpy as np
import pytest

from qclink import cloning, distill, qkd
from qclink import weakmeas as wm
from qclink._checks import check


class TestCheck:
    @pytest.mark.parametrize("value, lo, hi", [
        (0.0, 0.0, 0.5), (0.5, 0.0, 0.5), (1e308, -1e308, 1e308),
        (math.inf, 0.0, math.inf), (-math.inf, -math.inf, 0.0)])
    def test_closed_interval_admits_its_bounds(self, value, lo, hi):
        assert check("x", value, lo, hi) == value

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fails_by_default(self, value):
        with pytest.raises(ValueError, match="x must be finite"):
            check("x", value)

    def test_nan_fails_even_between_infinite_bounds(self):
        with pytest.raises(ValueError, match="must be finite"):
            check("x", math.nan, -math.inf, math.inf)

    def test_out_of_range_names_the_interval(self):
        with pytest.raises(ValueError,
                           match=r"^x must lie in \[0.0, 0.5\], got 0.6$"):
            check("x", 0.6, 0.0, 0.5)

    @pytest.mark.parametrize("value", [2.5, 0, 11, math.inf, math.nan])
    def test_integer_rejects_fractions_and_range(self, value):
        with pytest.raises(ValueError, match="x must be"):
            check("x", value, 1, 10, integer=True)

    def test_integer_returns_int(self):
        value = check("x", np.float64(3.0), 1, 10, integer=True)
        assert value == 3 and type(value) is int
        assert check("x", 10 ** 30, 0, math.inf, integer=True) == 10 ** 30

    def test_huge_integer_is_out_of_range_not_overflow(self):
        with pytest.raises(ValueError, match=r"must be an integer in"):
            check("x", 10 ** 400, 0, 10, integer=True)


DIST = qkd.symbol_distribution(qkd.AttackParams(0.1))


@pytest.mark.parametrize("call", [
    lambda: distill.ad_monte_carlo(DIST, 8, trials=math.nan),
    lambda: distill.ad_exact(DIST, 2.5),
    lambda: distill.recurrence_iterate(0.7, math.nan),
    lambda: distill.recurrence_iterate(1.5, 0),
    lambda: cloning.birth_process_mc(1, 3, trials=math.nan),
    lambda: wm.discrimination_error(math.nan, 1.0),
    lambda: wm.discrimination_error(-1.0, 1.0),
    lambda: wm.discrimination_error(1.0, 0.0)],
    ids=["mc-trials-nan", "ad-exact-fraction", "rounds-nan",
         "fidelity-above-one", "birth-trials-nan", "discrimination-delay-nan",
         "discrimination-delay-negative", "discrimination-width-zero"])
def test_invalid_library_input_is_value_error(call):
    """A NaN or fractional count is a ValueError, not a TypeError from
    deep inside, a fidelity above 1 is not iterated even 0 times, and a
    NaN delay or zero pulse width is not turned into nan or a division
    error."""
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("call", [
    lambda seed: distill.ad_monte_carlo(DIST, 8, 10 ** 4, seed=seed),
    lambda seed: cloning.birth_process_mc(1, 3, 10 ** 4, seed=seed),
    lambda seed: cloning.generate_fidelity_dataset(
        0.8, [1.0, 2.0], noise_sigma=0.01, seed=seed)],
    ids=["ad-monte-carlo", "birth-process-mc", "fidelity-dataset"])
@pytest.mark.parametrize("seed", [math.nan, math.inf, 1.5, -1])
def test_invalid_seed_is_value_error(call, seed):
    """numpy raised TypeError for a NaN, infinite or fractional seed."""
    with pytest.raises(ValueError, match="seed"):
        call(seed)
