"""Tests for the shared range checks and the library inputs they guard."""

import math
import re

import numpy as np
import pytest

from qclink import cloning, distill, qkd
from qclink import weakmeas as wm
from qclink._checks import check, check_array


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


class TestCheckArray:
    def test_returns_float64_array(self):
        arr = check_array("x", [0, 1, 2])
        assert arr.dtype == np.float64 and arr.tolist() == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize("value", [np.zeros((0, 3)), np.ones((5, 3))])
    def test_none_axis_admits_any_length(self, value):
        assert check_array("x", value, shape=(None, 3)).shape == value.shape

    @pytest.mark.parametrize("value, shape", [
        (np.ones((5, 2)), (None, 3)), (np.ones(3), (None, 3)),
        (0.5, (None,)), (np.ones((1, 2)), (None,)),
        (np.ones((2, 3, 2)), (2, 2, None)), (np.ones(3), (4,))])
    def test_wrong_shape_names_both_shapes(self, value, shape):
        message = f"x must have shape {shape}, got {np.shape(value)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_array("x", value, shape=shape)

    def test_zero_d_shape(self):
        assert check_array("x", 0.25, 0.0, 0.5, shape=()).shape == ()

    @pytest.mark.parametrize("lo, hi", [(-np.inf, np.inf), (0.0, 1.0)])
    def test_nan_always_fails(self, lo, hi):
        with pytest.raises(ValueError, match=r"^x must be finite, got nan$"):
            check_array("x", [0.5, np.nan], lo, hi)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinity_fails_by_default(self, bad):
        with pytest.raises(ValueError, match="x must be finite"):
            check_array("x", [0.0, bad])

    def test_infinity_passes_as_a_bound(self):
        value = [-np.inf, 0.0, np.inf]
        assert check_array("x", value, -np.inf, np.inf).tolist() == value
        with pytest.raises(ValueError, match="x must be finite, got -inf"):
            check_array("x", value, 0.0, np.inf)

    def test_message_names_the_first_bad_entry(self):
        with pytest.raises(ValueError,
                           match=r"^x must lie in \[0.0, 0.5\], got 0.7$"):
            check_array("x", [[0.1, 0.7], [0.9, -1.0]], 0.0, 0.5,
                        shape=(2, 2))

    def test_message_reads_as_the_scalar_check(self):
        for value in (0.6, np.nan, -np.inf):
            with pytest.raises(ValueError) as scalar:
                check("x", value, 0.0, 0.5)
            with pytest.raises(ValueError) as array:
                check_array("x", [0.1, value], 0.0, 0.5)
            assert str(array.value) == str(scalar.value)

    def test_bounds_per_entry(self):
        hi = (10.0, 10.0, 1.0)
        assert check_array("x", [[2.0, 5.0, 1.0]], 0.0, hi,
                           shape=(None, 3)).shape == (1, 3)
        with pytest.raises(ValueError,
                           match=r"^x must lie in \[0.0, 1.0\], got 1.5$"):
            check_array("x", [[2.0, 5.0, 0.5], [2.0, 5.0, 1.5]], 0.0, hi,
                        shape=(None, 3))

    @pytest.mark.parametrize("value", ["abc", {}, [[1.0], [1.0, 2.0]],
                                       [1 + 2j]])
    def test_non_float_input_is_value_error(self, value):
        with pytest.raises(ValueError, match="x must be an array of floats"):
            check_array("x", value)


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


FIELD_AMPS = [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("call", [
    lambda: distill.equivalence_sweep(0.2),
    lambda: distill.equivalence_sweep([[0.1, 0.2]]),
    lambda: distill.equivalence_sweep([0.1, math.nan]),
    lambda: wm.peak_separation([0.0, 1.0, 2.0], [0, 1, 0, 1, 0]),
    lambda: wm.peak_separation(np.eye(3), np.eye(3)),
    lambda: wm.peak_separation(1.0, 1.0),
    lambda: wm.PropagatedField(1.0, [[0.0], [1.0]], FIELD_AMPS).mean_toa(),
    lambda: wm.PropagatedField(1.0, 0.0, [1.0, 0.0]).mean_toa(),
    lambda: wm.PropagatedField(1.0, [0.0, math.nan], FIELD_AMPS),
    lambda: cloning.generate_fidelity_dataset(0.8, 1.0),
    lambda: cloning.generate_fidelity_dataset(0.8, [[1.0, 2.0]]),
    lambda: cloning.generate_fidelity_dataset(0.8, [1.0, math.nan]),
    lambda: qkd.h2(np.array([math.nan, 0.5])),
    lambda: qkd.h2(np.array([[0.5, math.inf]]))],
    ids=["sweep-0d", "sweep-2d", "sweep-nan", "peaks-lengths", "peaks-2d",
         "peaks-0d", "field-2d", "field-0d", "field-nan", "dataset-0d",
         "dataset-2d", "dataset-nan", "h2-nan", "h2-inf"])
def test_array_entry_points_raise_value_error(call):
    """A 0-d or 2-D grid, intensities of another length than their times
    and a NaN entry raise ValueError, where they used to raise TypeError
    or IndexError, return 0.0, or read NaN as zero bits."""
    with pytest.raises(ValueError):
        call()
