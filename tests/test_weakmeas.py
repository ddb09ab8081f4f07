"""Tests for pulse propagation, arrival-time statistics and weak values."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson

import quad_oracle
from qclink import weakmeas as wm
from term_oracle import propagate_terms

TC = 1.0


def elliptical(rng):
    return wm.jones_elliptical(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))


def gram_moments(field):
    """Energy and first time moment of a field from its terms x terms Gram
    matrix of analytic Gaussian overlaps: the oracle for the trapezoid
    grid behind PropagatedField.energy and mean_toa."""
    d = field.delays
    gram = np.real(field.amps.conj() @ field.amps.T)
    overlap = np.sqrt(np.pi) * field.t_c * np.exp(
        -((d[:, None] - d[None, :]) ** 2) / (4.0 * field.t_c ** 2))
    centers = 0.5 * (d[:, None] + d[None, :])
    return float((gram * overlap).sum()), float((gram * overlap * centers).sum())


def random_chain(rng, t_c, sections):
    """Random-axis delay sections of 0.01 to 316 t_c with up to three
    loss elements of at most 30 dB, so at least 1e-9 of the energy passes."""
    chain = [wm.PmdElement(t_c * 10.0 ** rng.uniform(-2.0, 2.5),
                           rng.uniform(0, np.pi)) for _ in range(sections)]
    for _ in range(rng.integers(0, 4)):
        chain.insert(rng.integers(0, len(chain) + 1),
                     wm.PdlElement(rng.uniform(0.0, 30.0), rng.uniform(0, np.pi)))
    return chain


def sweep_by_points(pre, post, grid, t_c):
    """The weak-to-strong sweep one delay at a time through the one-point
    public functions: the oracle for toa_transition_sweep."""
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= 0.0):
        raise ValueError("delay grid must be positive")
    wm._unit_jones(pre)  # the sweep checks pre before t_c
    rows = []
    for dt in grid:
        pulse = wm.PolarizedPulse(t_c, pre)
        pmd = wm.PmdElement(delta_tau=float(dt))
        exact = wm.mean_toa_closed(pulse, pmd, post)
        weak = wm.weak_value(pre, pmd, post)
        rows.append(wm.TransitionRow(
            ratio=float(dt / t_c), delta_tau=float(dt),
            toa_exact=exact, toa_weak=weak, abs_error=abs(exact - weak),
            discrimination_error=wm.discrimination_error(float(dt), t_c)))
    return rows


def raised(call):
    """The message of the ValueError call raises."""
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


class TestElements:
    def test_pulse_normalises_jones(self):
        p = wm.PolarizedPulse(2.0, [3.0, 4.0])
        assert np.linalg.norm(p.jones) == pytest.approx(1.0, abs=1e-15)

    def test_pulse_width_positive(self):
        with pytest.raises(ValueError):
            wm.PolarizedPulse(0.0, [1, 0])

    def test_pmd_eigenmodes_are_orthogonal(self):
        s, f = wm.PmdElement(1.0, axis=0.7).slow_fast()
        assert s @ f == pytest.approx(0.0, abs=1e-15)

    def test_pdl_matrix_in_own_basis(self):
        j = wm.PdlElement(gamma_db=20.0, axis=0.0).jones_matrix()
        np.testing.assert_allclose(j, np.diag([1.0, 0.1]), atol=1e-15)

    def test_infinite_pdl_is_projector(self):
        j = wm.analyzer(0.3).jones_matrix()
        np.testing.assert_allclose(j @ j, j, atol=1e-15)
        assert np.trace(j) == pytest.approx(1.0, abs=1e-15)

    def test_negative_attenuation_rejected(self):
        with pytest.raises(ValueError):
            wm.PdlElement(-3.0)

    @pytest.mark.parametrize("make, value", [
        (wm.PmdElement, np.nan), (wm.PmdElement, np.inf),
        (wm.PdlElement, np.nan),
        (lambda v: wm.PolarizedPulse(v, [1, 0]), np.nan),
        (lambda v: wm.PolarizedPulse(v, [1, 0]), np.inf)])
    def test_non_finite_rejected(self, make, value):
        with pytest.raises(ValueError):
            make(value)

    @pytest.mark.parametrize("make, name", [
        (lambda v: wm.PmdElement(1.0, axis=v), "axis"),
        (lambda v: wm.PdlElement(3.0, axis=v), "axis"),
        (wm.analyzer, "axis"),
        (wm.jones_linear, "theta"),
        (lambda v: wm.jones_elliptical(v, 0.0), "theta"),
        (lambda v: wm.jones_elliptical(0.3, v), "phi")])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_angle_rejected(self, make, name, value):
        with pytest.raises(ValueError, match=f"angle {name} must be finite"):
            make(value)

    @pytest.mark.parametrize("jones", [[np.nan, 1.0], [1.0, np.inf]])
    def test_non_finite_jones_vector_rejected(self, jones):
        with pytest.raises(ValueError, match="finite"):
            wm.PolarizedPulse(1.0, jones)
        with pytest.raises(ValueError, match="finite"):
            wm.weak_value(jones, wm.PmdElement(0.1), wm.analyzer(0.3))


class TestPropagate:
    def test_eigenmode_single_delayed_pulse(self):
        pulse = wm.PolarizedPulse(TC, [1, 0])
        out = wm.propagate(pulse, [wm.PmdElement(0.8, axis=0.0)])
        assert out.delays.shape == (1,)
        assert out.delays[0] == pytest.approx(+0.4, abs=1e-15)
        assert out.mean_toa() == pytest.approx(+0.4, abs=1e-12)

    def test_diagonal_input_splits_equally(self):
        dt = 10.0 * TC
        pulse = wm.PolarizedPulse(TC, wm.jones_linear(np.pi / 4))
        out = wm.propagate(pulse, [wm.PmdElement(dt)])
        t = wm.default_time_grid(out)
        y = out.intensity(t).sum(axis=1)
        # two equal peaks at +-dt/2
        assert y[np.argmin(np.abs(t - dt / 2))] == pytest.approx(0.5, abs=1e-6)
        assert y[np.argmin(np.abs(t + dt / 2))] == pytest.approx(0.5, abs=1e-6)
        assert wm.peak_separation(t, y) == pytest.approx(dt, abs=0.02 * TC)

    @pytest.mark.parametrize("gamma", [0.0, 3.0, 10.0, 30.0])
    def test_pdl_transmitted_power(self, gamma):
        pulse = wm.PolarizedPulse(TC, wm.jones_linear(np.pi / 4))
        out = wm.propagate(pulse, [wm.PdlElement(gamma, axis=0.0)])
        expected = (1.0 + 10.0 ** (-gamma / 10.0)) / 2.0
        assert out.energy() / np.sqrt(np.pi) == pytest.approx(expected,
                                                              abs=1e-12)

    def test_empty_chain_is_identity(self):
        pulse = wm.PolarizedPulse(TC, [0.6, 0.8])
        out = wm.propagate(pulse, [])
        np.testing.assert_allclose(out.amps[0], pulse.jones, atol=1e-15)
        assert out.energy() == pytest.approx(np.sqrt(np.pi) * TC, abs=1e-12)

    def test_energy_preserved_by_delay_chains(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            pulse = wm.PolarizedPulse(TC, elliptical(rng))
            chain = [wm.PmdElement(rng.uniform(0.05, 3.0),
                                   rng.uniform(0, np.pi)) for _ in range(4)]
            out = wm.propagate(pulse, chain)
            assert out.energy() == pytest.approx(np.sqrt(np.pi) * TC,
                                                 abs=1e-12)

    def test_loss_never_increases_energy(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            pulse = wm.PolarizedPulse(TC, elliptical(rng))
            chain = [wm.PmdElement(rng.uniform(0.1, 2.0), rng.uniform(0, np.pi)),
                     wm.PdlElement(rng.uniform(0.0, 20.0), rng.uniform(0, np.pi))]
            out = wm.propagate(pulse, chain)
            assert out.energy() <= np.sqrt(np.pi) * TC + 1e-12


class TestTrapezoidMoments:
    def test_matches_gram_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(240):
            t_c = rng.uniform(0.2, 3.0)
            pulse = wm.PolarizedPulse(t_c, elliptical(rng))
            chain = random_chain(rng, t_c, rng.integers(1, 11))
            field = wm.propagate(pulse, chain)
            energy, first = gram_moments(field)
            assert field.energy() == pytest.approx(energy, rel=1e-12)
            assert field.mean_toa() == pytest.approx(
                first / energy, rel=1e-12, abs=1e-12 * t_c)

    def test_separated_clusters(self):
        """Delays 1e6 t_c apart: one grid per cluster, none across the gap."""
        pulse = wm.PolarizedPulse(TC, wm.jones_elliptical(0.7, 0.4))
        chain = [wm.PmdElement(1e6), wm.PmdElement(40.0, 0.9),
                 wm.PdlElement(12.0, 0.2), wm.PmdElement(0.3, 2.1)]
        field = wm.propagate(pulse, chain)
        gaps = np.diff(np.sort(field.delays))
        assert np.sum(gaps > 2 * wm.QUAD_PAD * TC) == 3
        energy, first = gram_moments(field)
        assert field.energy() == pytest.approx(energy, rel=1e-12)
        assert field.mean_toa() == pytest.approx(first / energy, rel=1e-12)

    @pytest.mark.parametrize("sections", [16, 1])
    def test_memory_bound(self, sections):
        """65 536 terms (16 sections) and a 1e6 t_c split (1 section)
        integrate within 50 MB."""
        rng = np.random.default_rng(16)
        pulse = wm.PolarizedPulse(TC, elliptical(rng))
        chain = ([wm.PmdElement(rng.uniform(0.1, 0.6), rng.uniform(0, np.pi))
                  for _ in range(sections)] if sections > 1
                 else [wm.PmdElement(1e6, 0.4)])
        field = wm.propagate(pulse, chain)
        assert field.delays.size == 2 ** sections
        tracemalloc.start()
        try:
            toa, energy = field.mean_toa(), field.energy()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2 ** 20
        assert energy == pytest.approx(np.sqrt(np.pi) * TC, abs=1e-9)
        assert abs(toa) <= np.abs(field.delays).max()

    @pytest.mark.parametrize("ratio", [1e15, 1e16, 1e17, 1e300])
    def test_far_delay_conserves_energy(self, ratio):
        """Nodes sit in units of t_c from each cluster's first delay, so a
        delay of 1e16 t_c leaves the grid as fine as at the origin."""
        pulse = wm.PolarizedPulse(TC, wm.jones_linear(0.3))
        pmd = wm.PmdElement(ratio * TC, 0.1)
        field = wm.propagate(pulse, [pmd])
        assert field.energy() == pytest.approx(np.sqrt(np.pi) * TC,
                                               rel=1e-12)
        assert field.mean_toa() == pytest.approx(
            wm.mean_toa_closed(pulse, pmd), rel=1e-12)

    @pytest.mark.parametrize("t_c", [5e-324, 1e-310, 0.7e-200, 1e200,
                                     1e308])
    def test_extreme_pulse_widths(self, t_c):
        pulse = wm.PolarizedPulse(t_c, wm.jones_linear(0.3))
        pmd = wm.PmdElement(t_c, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field = wm.propagate(pulse, [pmd])
            energy, toa = field.energy(), field.mean_toa()
        if t_c >= 1e-300:  # subnormal widths keep a few digits only
            assert energy == pytest.approx(np.sqrt(np.pi) * t_c, rel=1e-12)
            assert toa == pytest.approx(wm.mean_toa_closed(pulse, pmd),
                                        rel=1e-12)
        else:
            assert energy > 0.0 and abs(toa) <= t_c

    @pytest.mark.parametrize("t_c, delays, amps", [
        (np.nan, [0.0], [[1.0, 0.0]]),
        (0.0, [0.0], [[1.0, 0.0]]),
        (-1.0, [0.0], [[1.0, 0.0]]),
        (np.inf, [0.0], [[1.0, 0.0]]),
        (1.0, [np.nan], [[1.0, 0.0]]),
        (1.0, [np.inf], [[1.0, 0.0]]),
        (1.0, [0.0], [[np.inf, 0.0]]),
        (1.0, [0.0], [[1.0, complex(0.0, np.nan)]]),
        (1.0, [-1e308, 1e308], [[1.0, 0.0], [0.0, 1.0]])])
    def test_field_rejects_bad_input(self, t_c, delays, amps):
        """A NaN width, an infinite amplitude and a delay spread beyond the
        largest float raise instead of integrating to nan or an overflow."""
        with pytest.raises(ValueError, match="pulse width|finite"):
            wm.PropagatedField(t_c, delays, amps)

    def test_delay_past_float_range_raises(self):
        pulse = wm.PolarizedPulse(TC, wm.jones_linear(0.3))
        chain = [wm.PmdElement(1.7e308, axis) for axis in (0.1, 0.9, 0.4)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                wm.propagate(pulse, chain)

    def test_one_quadrature_per_field(self, monkeypatch):
        calls = []
        trapezoid = wm.PropagatedField._trapezoid

        def counted(field):
            calls.append(field)
            return trapezoid(field)

        monkeypatch.setattr(wm.PropagatedField, "_trapezoid", counted)
        pulse = wm.PolarizedPulse(TC, wm.jones_elliptical(0.7, 0.4))
        chain = [wm.PmdElement(0.4, 0.2), wm.PmdElement(0.9, 1.3)]
        field = wm.propagate(pulse, chain)
        toa, energy = field.mean_toa(), field.energy()
        assert len(calls) == 1
        assert (field.mean_toa(), field.energy()) == (toa, energy)
        assert len(calls) == 1
        fresh = wm.propagate(pulse, chain)
        assert (fresh.energy(), fresh.mean_toa()) == (energy, toa)
        assert len(calls) == 2

    def test_terms_are_read_only_copies(self):
        delays, amps = np.array([0.0, 1.0]), np.array([[1.0, 0.0], [0.0, 1.0]])
        field = wm.PropagatedField(TC, delays, amps)
        energy = field.energy()
        delays[1], amps[1, 1] = 5.0, 3.0
        assert field.delays[1] == 1.0 and field.amps[1, 1] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            field.delays[0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            field.amps[0, 0] = 2.0
        assert field.energy() == energy

    def test_sampling_memory_bound(self):
        """A 12-section random-delay chain (4096 terms) samples its
        default grid within 16 MB: the terms x points exponentials come
        a block of points at a time, each equal bit for bit to one
        evaluation on the whole grid."""
        rng = np.random.default_rng(12)
        chain = [wm.PmdElement(rng.uniform(0.1, 0.6), rng.uniform(0, np.pi))
                 for _ in range(12)]
        field = wm.propagate(wm.PolarizedPulse(TC, elliptical(rng)), chain)
        assert field.delays.size == 2 ** 12
        t = wm.default_time_grid(field)
        tracemalloc.start()
        try:
            profile = field.intensity(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        whole = field.sample(t)
        assert np.array_equal(profile, whole.real ** 2 + whole.imag ** 2)
        for at in (0, t.size // 2, t.size - 1):
            assert np.array_equal(field.sample(t[at:at + 1])[0], whole[at])

    @pytest.mark.parametrize("t", [0.0, [[0.0, 1.0]]])
    def test_samples_need_a_1d_grid(self, t):
        field = wm.propagate(wm.PolarizedPulse(TC, [1, 1]),
                             [wm.PmdElement(0.5)])
        with pytest.raises(ValueError, match="sample times must have shape"):
            field.sample(t)

    @pytest.mark.parametrize("t", [[np.nan], [0.0, np.inf], [-np.inf, 1.0]])
    def test_samples_need_finite_times(self, t):
        field = wm.propagate(wm.PolarizedPulse(TC, [1, 1]),
                             [wm.PmdElement(0.5)])
        with pytest.raises(ValueError, match="sample times must be finite"):
            field.sample(t)
        with pytest.raises(ValueError, match="sample times must be finite"):
            field.intensity(t)


def equal_delay_chain(rng, t_c, sections, loss):
    """Random-axis sections of one delay (0.05 to 3 t_c), with up to three
    loss elements of at most 30 dB in between when loss is set."""
    dtau = t_c * rng.uniform(0.05, 3.0)
    chain = [wm.PmdElement(dtau, rng.uniform(0, np.pi))
             for _ in range(sections)]
    for _ in range(rng.integers(1, 4) if loss else 0):
        chain.insert(rng.integers(0, len(chain) + 1),
                     wm.PdlElement(rng.uniform(0.0, 30.0), rng.uniform(0, np.pi)))
    return chain, sections * dtau / 2.0


class TestCoincidentDelays:
    """propagate merges terms of equal delay; term_oracle keeps one term
    per path through the delay sections."""

    @pytest.mark.parametrize("loss", [False, True])
    @pytest.mark.parametrize("sections", [2, 3, 5, 8, 12])
    def test_equal_delays_match_term_oracle(self, sections, loss):
        rng = np.random.default_rng(40 + 2 * sections + loss)
        for _ in range(6):
            t_c = rng.uniform(0.2, 3.0)
            pulse = wm.PolarizedPulse(t_c, elliptical(rng))
            chain, spread = equal_delay_chain(rng, t_c, sections, loss)
            field, oracle = (wm.propagate(pulse, chain),
                             propagate_terms(pulse, chain))
            assert field.delays.size <= 4 * (sections + 1)
            assert field.delays.size < oracle.delays.size
            assert np.unique(field.delays).size == field.delays.size
            assert field.energy() == pytest.approx(oracle.energy(), rel=1e-12)
            assert field.mean_toa() == pytest.approx(
                oracle.mean_toa(), rel=1e-12, abs=1e-12 * spread)

    def test_coincident_pair_merges(self):
        """A zero delay sends both components to t = 0: one term, the
        input itself."""
        pulse = wm.PolarizedPulse(TC, wm.jones_elliptical(0.7, 0.4))
        field = wm.propagate(pulse, [wm.PmdElement(0.0, 0.3)])
        assert field.delays.tolist() == [0.0]
        np.testing.assert_allclose(field.amps[0], pulse.jones, atol=1e-16)
        assert propagate_terms(pulse, [wm.PmdElement(0.0, 0.3)]).delays.size == 2

    def test_distinct_delays_keep_the_oracle_terms(self):
        """Without a repeated delay the terms are the oracle's, bit for bit
        and in its order: one delay and one loss element as in the CLI,
        and longer random chains."""
        rng = np.random.default_rng(41)
        for case in range(300):
            t_c = rng.uniform(0.2, 3.0)
            pulse = wm.PolarizedPulse(t_c, elliptical(rng))
            chain = ([wm.PmdElement(t_c * 10.0 ** rng.uniform(-3.0, 1.0)),
                      wm.PdlElement(rng.uniform(0.0, 30.0),
                                    rng.uniform(0, np.pi))] if case < 200
                     else random_chain(rng, t_c, rng.integers(1, 11)))
            field, oracle = (wm.propagate(pulse, chain),
                             propagate_terms(pulse, chain))
            assert np.array_equal(field.delays, oracle.delays)
            assert np.array_equal(field.amps, oracle.amps)
            assert field.mean_toa() == oracle.mean_toa()

    def test_long_equal_delay_chain(self):
        """64 sections: at most 4 x 65 terms, against 2^64 paths. The first
        16 sections are checked on their own first, so a propagate that
        stops merging fails there instead of exhausting memory."""
        rng = np.random.default_rng(64)
        pulse = wm.PolarizedPulse(TC, elliptical(rng))
        chain, spread = equal_delay_chain(rng, TC, 64, loss=False)
        assert wm.propagate(pulse, chain[:16]).delays.size <= 4 * 17
        tracemalloc.start()
        try:
            field = wm.propagate(pulse, chain)
            toa, energy = field.mean_toa(), field.energy()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert field.delays.size <= 4 * 65
        assert peak < 50 * 2 ** 20
        assert energy == pytest.approx(np.sqrt(np.pi) * TC, rel=1e-12)
        assert abs(toa) <= spread


    def test_equal_delay_chain_keeps_one_term_per_delay(self):
        """Path sums of +-dtau/2 that differ by an ulp merge: 64 sections
        of one delay keep exactly its 65 distinct multiples."""
        rng = np.random.default_rng(65)
        for _ in range(10):
            pulse = wm.PolarizedPulse(TC, elliptical(rng))
            chain, _ = equal_delay_chain(rng, TC, 64, loss=False)
            assert wm.propagate(pulse, chain).delays.size == 65


def sum_bits(sums):
    """The trapezoid sums of a field, each float as its exact hex."""
    return [[float(v).hex() for v in part] for part in sums]


class TestQuadOracle:
    """The one-loop quadrature against the windowed one it replaced
    (tests/quad_oracle.py)."""

    def test_cli_fields_are_bit_identical(self):
        """One delay and one loss element, as in `weak toa` and `weak
        profile`: widths from 1e-300 to 1e300, delays up to 1e3 t_c of
        either sign, no, finite or infinite loss."""
        rng = np.random.default_rng(18)
        for case in range(300):
            t_c = 10.0 ** rng.uniform(-300.0, 300.0)
            dtau = (0.0 if case % 10 == 0 else rng.choice([-1.0, 1.0])
                    * t_c * 10.0 ** rng.uniform(-3.0, 3.0))
            gamma = [0.0, rng.uniform(0.0, 60.0), np.inf][case % 3]
            field = wm.propagate(wm.PolarizedPulse(t_c, elliptical(rng)),
                                 [wm.PmdElement(dtau),
                                  wm.PdlElement(gamma, rng.uniform(0, np.pi))])
            assert sum_bits(field._trapezoid()) == \
                sum_bits(quad_oracle.trapezoid(field)), case

    @pytest.mark.parametrize("equal", [True, False])
    @pytest.mark.parametrize("sections", [7, 10])
    def test_bench_chains_are_bit_identical(self, sections, equal):
        """Random-axis chains of one delay in [0.2, 0.6] t_c or of random
        delays in [0.1, 0.6] t_c, up to 1024 terms."""
        rng = np.random.default_rng(100 + 2 * sections + equal)
        for _ in range(15):
            pulse = wm.PolarizedPulse(TC, elliptical(rng))
            axes = rng.uniform(0, np.pi, sections)
            delays = (np.full(sections, rng.uniform(0.2, 0.6)) if equal
                      else rng.uniform(0.1, 0.6, sections))
            field = wm.propagate(pulse, [wm.PmdElement(float(t), float(a))
                                         for t, a in zip(delays, axes)])
            assert sum_bits(field._trapezoid()) == \
                sum_bits(quad_oracle.trapezoid(field))

    @pytest.mark.parametrize("sections, dtau", [(16, None), (64, 10.0)])
    def test_many_node_blocks_match(self, sections, dtau):
        """65 536 terms (16 random sections), which the oracle sums in 32
        term chunks, and 65 terms over 640 t_c (64 sections of 10 t_c),
        which it sums in 13 windowed node blocks."""
        rng = np.random.default_rng(sections)
        chain = [wm.PmdElement(dtau or rng.uniform(0.1, 0.6),
                               rng.uniform(0, np.pi))
                 for _ in range(sections)]
        field = wm.propagate(wm.PolarizedPulse(TC, elliptical(rng)), chain)
        spread = np.ptp(field.delays)
        energy, toa = quad_oracle.moments(field)
        assert field.energy() == pytest.approx(energy, rel=1e-14)
        assert abs(field.mean_toa() - toa) <= 1e-14 * spread


class TestMeanToa:
    def test_eigenmode_shift(self):
        for dt in (0.01, 0.5, 5.0):
            pulse = wm.PolarizedPulse(TC, [1, 0])
            assert wm.mean_toa_closed(pulse, wm.PmdElement(dt)) == \
                pytest.approx(dt / 2, abs=1e-15)

    def test_no_delay_no_shift(self):
        pulse = wm.PolarizedPulse(TC, wm.jones_linear(0.9))
        assert wm.mean_toa_closed(pulse, wm.PmdElement(0.0)) == 0.0

    def test_aligned_loss_axis_is_ratio_only(self):
        """Loss aligned with the delay axes kills the cross term, so the
        shift is the pure intensity imbalance at any delay-to-width ratio."""
        theta = 0.9
        gamma = 6.0
        pulse = wm.PolarizedPulse(TC, wm.jones_linear(theta))
        post = wm.PdlElement(gamma, axis=0.0)
        eta = 10.0 ** (-gamma / 10.0)
        na = np.cos(theta) ** 2
        nb = np.sin(theta) ** 2 * eta
        for dt in (1e-3, 0.1, 1.0, 10.0):
            got = wm.mean_toa_closed(pulse, wm.PmdElement(dt), post)
            assert got == pytest.approx((dt / 2) * (na - nb) / (na + nb),
                                        abs=1e-12)

    def test_numeric_matches_closed_randomized(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            ratio = 10.0 ** rng.uniform(-3, 1)
            pulse = wm.PolarizedPulse(TC, elliptical(rng))
            pmd = wm.PmdElement(ratio * TC)
            post = wm.PdlElement(rng.uniform(0.0, 30.0), rng.uniform(0, np.pi))
            closed = wm.mean_toa_closed(pulse, pmd, post)
            field = wm.propagate(pulse, [pmd, post])
            numeric = wm.mean_toa_numeric(field)
            scale = max(abs(closed), ratio * TC / 2)
            assert abs(numeric - closed) / scale <= 1e-9

    def test_field_level_mean_matches_closed(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            pulse = wm.PolarizedPulse(TC, elliptical(rng))
            pmd = wm.PmdElement(rng.uniform(0.01, 5.0))
            post = wm.PdlElement(rng.uniform(0.0, 20.0), rng.uniform(0, np.pi))
            closed = wm.mean_toa_closed(pulse, pmd, post)
            field = wm.propagate(pulse, [pmd, post])
            assert field.mean_toa() == pytest.approx(closed, abs=1e-12)

    def test_blocked_pulse_raises(self):
        # vertical input against a horizontal analyzer blocks exactly
        pulse = wm.PolarizedPulse(TC, [0, 1])
        with pytest.raises(ValueError):
            wm.mean_toa_closed(pulse, wm.PmdElement(0.5), wm.analyzer(0.0))
        blocked = wm.propagate(pulse, [wm.analyzer(0.0)])
        assert blocked.delays.size == 0
        assert blocked.energy() == 0.0
        with pytest.raises(ValueError):
            blocked.mean_toa()
        with pytest.raises(ValueError):
            wm.mean_toa_numeric(blocked)
        empty = wm.PropagatedField(TC, [], np.empty((0, 2)))
        assert empty.energy() == 0.0
        with pytest.raises(ValueError, match="no transmitted energy"):
            empty.mean_toa()

    def test_blocked_by_round_off_raises(self):
        """An analyzer orthogonal to the delay axis leaves amplitudes of
        round-off size (energy about 2e-33); no route reports a time."""
        pulse = wm.PolarizedPulse(TC, wm.jones_linear(0.3))
        pmd, post = wm.PmdElement(0.5, 0.3), wm.analyzer(0.3 + np.pi / 2)
        field = wm.propagate(pulse, [pmd, post])
        assert 0.0 < field.energy() < 1e-30
        with pytest.raises(ValueError, match="no transmitted energy"):
            field.mean_toa()
        with pytest.raises(ValueError, match="no transmitted energy"):
            wm.mean_toa_numeric(field)
        with pytest.raises(ValueError, match="no transmitted energy"):
            wm.mean_toa_closed(pulse, pmd, post)

    def test_under_resolved_grid_warns(self):
        pulse = wm.PolarizedPulse(TC, wm.jones_linear(0.3))
        field = wm.propagate(pulse, [wm.PmdElement(0.5)])
        with pytest.warns(UserWarning):
            wm.default_time_grid(field, step=0.4)


class TestWeakValue:
    def test_no_post_selection_is_expectation(self):
        theta = 0.4
        pre = wm.jones_linear(theta)
        pmd = wm.PmdElement(0.02)
        expected = (0.02 / 2) * (np.cos(theta) ** 2 - np.sin(theta) ** 2)
        assert wm.weak_value(pre, pmd) == pytest.approx(expected, abs=1e-15)
        assert wm.weak_value(pre, pmd, wm.PdlElement(0.0)) == pytest.approx(
            expected, abs=1e-15)

    def test_post_equal_pre_is_expectation(self):
        theta = 1.1
        pre = wm.jones_linear(theta)
        pmd = wm.PmdElement(0.01)
        got = wm.weak_value(pre, pmd, wm.analyzer(theta))
        expected = (0.01 / 2) * np.cos(2 * theta)
        assert got == pytest.approx(expected, abs=1e-14)

    def test_no_amplification_without_post_selection(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            pre = elliptical(rng)
            pmd = wm.PmdElement(rng.uniform(0.001, 1.0), rng.uniform(0, np.pi))
            assert abs(wm.weak_value(pre, pmd)) <= pmd.delta_tau / 2 + 1e-15

    def test_amplification_beyond_eigenvalue_range(self):
        """Nearly orthogonal post-selection pushes the shift past dtau/2."""
        pre = wm.jones_linear(np.pi / 4)
        post = wm.analyzer(-np.pi / 4 + 0.1)
        dt = 1e-3 * TC
        pulse = wm.PolarizedPulse(TC, pre)
        pmd = wm.PmdElement(dt)
        weak = wm.weak_value(pre, pmd, post)
        closed = wm.mean_toa_closed(pulse, pmd, post)
        assert abs(weak) > dt / 2
        assert abs(closed) > dt / 2
        assert abs(weak - closed) <= 1e-6
        # pure-post reduction Re[<f|sigma|i>/<f|i>]
        psi_f = wm.jones_linear(-np.pi / 4 + 0.1)
        sigma_w = (psi_f.conj() @ (np.diag([1.0, -1.0]) @ pre)) \
            / (psi_f.conj() @ pre)
        assert weak == pytest.approx((dt / 2) * sigma_w.real, abs=1e-15)

    def test_orthogonal_post_selection_raises(self):
        pre = wm.jones_linear(np.pi / 4)
        with pytest.raises(ValueError):
            wm.weak_value(pre, wm.PmdElement(0.01), wm.analyzer(-np.pi / 4))

    def test_matches_closed_form_in_weak_limit(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            pre = elliptical(rng)
            post = wm.PdlElement(rng.uniform(0, 25), rng.uniform(0, np.pi))
            pmd = wm.PmdElement(1e-5 * TC)
            pulse = wm.PolarizedPulse(TC, pre)
            try:
                closed = wm.mean_toa_closed(pulse, pmd, post)
            except ValueError:
                continue
            assert wm.weak_value(pre, pmd, post) == pytest.approx(
                closed, abs=1e-12)

    def test_finite_loss_converges_to_pure_post_selection(self):
        pre = wm.jones_linear(0.2)
        pmd = wm.PmdElement(0.01)
        target = wm.weak_value(pre, pmd, wm.analyzer(1.2))
        values = [wm.weak_value(pre, pmd, wm.PdlElement(g, axis=1.2))
                  for g in (60.0, 80.0, 100.0, 120.0)]
        gaps = [abs(v - target) for v in values]
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-9

    def test_covariance_under_common_rotation(self):
        rng = np.random.default_rng(23)
        theta_pre, axis, theta_post = 0.3, 0.1, 1.4
        pmd_dt, gamma = 0.6, 7.0
        base = wm.mean_toa_closed(
            wm.PolarizedPulse(TC, wm.jones_linear(theta_pre)),
            wm.PmdElement(pmd_dt, axis=axis),
            wm.PdlElement(gamma, axis=theta_post))
        for _ in range(10):
            shift = rng.uniform(0, np.pi)
            rotated = wm.mean_toa_closed(
                wm.PolarizedPulse(TC, wm.jones_linear(theta_pre + shift)),
                wm.PmdElement(pmd_dt, axis=axis + shift),
                wm.PdlElement(gamma, axis=theta_post + shift))
            assert rotated == pytest.approx(base, abs=1e-10)


class TestTransitionSweep:
    def test_error_scaling_is_quadratic(self):
        """Scaled by the pointer shift dtau/2, the weak-limit error falls
        off with the second power of dtau/t_c."""
        ratios = np.logspace(-3, -1, 13)
        rows = wm.toa_transition_sweep(wm.jones_linear(np.radians(55)),
                                       wm.analyzer(np.radians(10)),
                                       ratios, TC)
        scaled = np.array([r.abs_error / (r.delta_tau / 2) for r in rows])
        slope = np.polyfit(np.log([r.ratio for r in rows]), np.log(scaled), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_strong_regime_discrimination(self):
        dt = 10.0 * TC
        # numeric route: integrate the misclassified tail of an eigenmode
        field = wm.propagate(wm.PolarizedPulse(TC, [1, 0]), [wm.PmdElement(dt)])
        t = wm.default_time_grid(field)
        y = field.intensity(t).sum(axis=1)
        wrong = simpson(y[t < 0], x=t[t < 0]) / simpson(y, x=t)
        closed = wm.discrimination_error(dt, TC)
        assert wrong < 1e-6
        assert closed < 1e-6
        assert wrong == pytest.approx(closed, rel=0.2)

    def test_zero_delay_is_degenerate(self):
        pre = wm.jones_linear(0.7)
        pulse = wm.PolarizedPulse(TC, pre)
        assert wm.mean_toa_closed(pulse, wm.PmdElement(0.0)) == 0.0
        assert wm.weak_value(pre, wm.PmdElement(0.0)) == 0.0

    @pytest.mark.parametrize("step, span", [(0.0, None), (np.nan, None),
                                            (np.inf, None), (0.01, -1.0),
                                            (0.01, np.inf)])
    def test_time_grid_rejects_bad_step_or_span(self, step, span):
        field = wm.propagate(wm.PolarizedPulse(TC, [1, 0]), [])
        with pytest.raises(ValueError):
            wm.default_time_grid(field, step=step, span=span)

    @pytest.mark.parametrize("dtau, t_c", [(1e308, 1.0), (0.5, 1e-300),
                                           (0.5, 1e-310)])
    def test_closed_form_at_extreme_ratios(self, dtau, t_c):
        """Past the float range of dtau / t_c the overlap term is 0, as
        it already is at dtau = 100 t_c, so <t> / dtau is the same."""
        pre, post = wm.jones_linear(0.3), wm.PdlElement(3.0, axis=0.9)
        resolved = wm.mean_toa_closed(wm.PolarizedPulse(1.0, pre),
                                      wm.PmdElement(100.0), post) / 100.0
        toa = wm.mean_toa_closed(wm.PolarizedPulse(t_c, pre),
                                 wm.PmdElement(dtau), post)
        assert toa / dtau == pytest.approx(resolved, rel=1e-15)
        assert resolved != 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (row,) = wm.toa_transition_sweep(pre, post, [dtau], t_c)
        assert row.toa_exact.hex() == toa.hex()
        assert row.ratio == dtau / t_c

    def test_time_grid_overflow_is_silent(self):
        field = wm.propagate(wm.PolarizedPulse(TC, [1, 1]),
                             [wm.PmdElement(1e308)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="exceeds"):
                wm.default_time_grid(field)

    def test_time_grid_point_budget(self):
        field = wm.propagate(wm.PolarizedPulse(100.0, [1, 0]), [])
        half = (wm.MAX_GRID_POINTS - 1) // 2
        assert wm.default_time_grid(field, step=1.0, span=half).size == \
            2 * half + 1
        with pytest.raises(ValueError):
            wm.default_time_grid(field, step=1.0, span=half + 1)

    def test_grid_must_be_positive(self):
        with pytest.raises(ValueError):
            wm.toa_transition_sweep(wm.jones_linear(0.1), None, [0.0, 0.1], TC)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_grid_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="delay grid must be"):
            wm.toa_transition_sweep(wm.jones_linear(0.1), None,
                                    [0.1, bad, 0.2], TC)

    def test_grid_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="delay grid must have shape"):
            wm.toa_transition_sweep(wm.jones_linear(0.1), None, 0.1, TC)

    def test_empty_grid_gives_no_rows(self):
        assert wm.toa_transition_sweep(wm.jones_linear(0.1), None, [], TC) == []

    @pytest.mark.parametrize("grid, message", [
        ([1e-9, 1.0], "no transmitted energy"),
        ([1.0, 1e-9], "weak-value prediction diverges")])
    def test_orthogonal_post_selection_error_order(self, grid, message):
        """Against an orthogonal analyzer the closed form is blocked only
        at small delays: a blocked first point raises before the weak
        value does, as the point-by-point loop does."""
        pre, post = wm.jones_linear(0.3), wm.analyzer(0.3 + np.pi / 2)
        got = raised(lambda: wm.toa_transition_sweep(pre, post, grid, TC))
        assert message in got
        assert got == raised(lambda: sweep_by_points(pre, post, grid, TC))

    def test_blocked_later_point_raises(self):
        """With analyzer and input mirrored about 45 degrees, <psi|Pi|psi>
        = d^2 = 1.5e-12 passes but the resolved closed form keeps only
        d^2 / 2: the weak value is fine and a far point is blocked."""
        d = np.sqrt(1.5e-12)
        pre, post = wm.jones_linear(d / 2), wm.analyzer(np.pi / 2 - d / 2)
        grid = [1e-3, 1.0, 100.0]
        assert np.isfinite(wm.weak_value(pre, wm.PmdElement(1.0), post))
        got = raised(lambda: wm.toa_transition_sweep(pre, post, grid, TC))
        assert "no transmitted energy" in got
        assert got == raised(lambda: sweep_by_points(pre, post, grid, TC))
        assert len(wm.toa_transition_sweep(pre, post, grid[:2], TC)) == 2

    def test_matches_point_by_point_oracle(self):
        """Every field of every row equals the one-point functions bit for
        bit: no post element, an analyzer or a lossy element; elliptical
        input states, pulse widths from 0.2 to 3 and up to 300 points."""
        rng = np.random.default_rng(21)
        for case in range(36):
            post = [None, wm.analyzer(rng.uniform(0, np.pi)),
                    wm.PdlElement(rng.uniform(0.0, 30.0),
                                  rng.uniform(0, np.pi))][case % 3]
            pre = elliptical(rng)
            t_c = rng.uniform(0.2, 3.0)
            grid = t_c * np.geomspace(10.0 ** rng.uniform(-4, -1),
                                      10.0 ** rng.uniform(0, 1.5),
                                      rng.integers(1, 301))
            try:
                expected = sweep_by_points(pre, post, grid, t_c)
            except ValueError as exc:
                assert raised(lambda: wm.toa_transition_sweep(
                    pre, post, grid, t_c)) == str(exc)
                continue
            got = wm.toa_transition_sweep(pre, post, grid, t_c)
            assert [repr(r) for r in got] == [repr(r) for r in expected]

    def test_pulse_is_not_a_jones_vector(self):
        """The sweep's pulse width is t_c; a pulse of another width used
        to be swept at t_c without a word."""
        pulse = wm.PolarizedPulse(2.0, wm.jones_linear(0.3))
        with pytest.raises(TypeError):
            wm.toa_transition_sweep(pulse, wm.analyzer(1.0), [0.5, 1.0], TC)

    def test_peak_separation_regimes(self):
        pre = wm.jones_linear(np.pi / 4)

        def separation(dtau):
            field = wm.propagate(wm.PolarizedPulse(TC, pre),
                                 [wm.PmdElement(dtau)])
            t = wm.default_time_grid(field)
            return wm.peak_separation(t, field.intensity(t).sum(axis=1))

        assert separation(0.1) == 0.0
        assert separation(8.0) == pytest.approx(8.0, abs=0.05)

    @pytest.mark.parametrize("t,y", [
        (np.arange(5.0), [np.nan] * 5),
        (np.arange(5.0), [0.0, 1.0, np.inf, 1.0, 0.0]),
        ([0.0, 1.0, np.nan, 3.0, 4.0], [0.0, 1.0, 0.0, 1.0, 0.0])])
    def test_peak_separation_needs_finite_samples(self, t, y):
        """NaN intensities used to read as a single peak (0.0)."""
        with pytest.raises(ValueError, match="finite"):
            wm.peak_separation(t, y)
