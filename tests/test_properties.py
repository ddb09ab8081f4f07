"""Property tests over randomly drawn inputs, with fixed example sets."""

import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dataset_oracle
import fit_oracle
from eve_tables import BASES, eigen_table
from pair_oracle import bell_diagonal, chsh_max, recurrence_explicit
from qclink import cli, cloning, distill, qcore, qkd
from qclink import weakmeas as wm

# Same examples every run, no example database, no per-example deadline.
PROPERTY = settings(derandomize=True, max_examples=40, deadline=None,
                    database=None)


def birth_exact_by_dict(n, m):
    """The birth chain enumerated state by state in a dict keyed by the
    signal photon count: the oracle for cloning.birth_process_exact."""
    probs = {n: 1.0}
    for total in range(n, m):
        nxt = {}
        for ns, p in probs.items():
            p_sig = (ns + 1) / (total + 2)
            nxt[ns + 1] = nxt.get(ns + 1, 0.0) + p * p_sig
            nxt[ns] = nxt.get(ns, 0.0) + p * (1.0 - p_sig)
        probs = nxt
    return sum(ns * p for ns, p in probs.items()) / m


@PROPERTY
@given(st.integers(1, 200).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(n, 200))))
def test_birth_chain_matches_dict_enumeration(nm):
    assert cloning.birth_process_exact(*nm) == birth_exact_by_dict(*nm)


# Segment lengths at the edges of numpy's 8-lane body, of _size_sums'
# padded row (distill._PAD) and of numpy's 128-entry pairwise block.
SEGMENT = st.one_of(st.sampled_from([0, 7, 8, 120, 127, 128, 130]),
                    st.integers(0, 300))


@PROPERTY
@given(st.lists(SEGMENT, min_size=1, max_size=8), st.integers(0, 2 ** 32),
       st.sampled_from([0.0, 0.5, 1.0]))
@example([7, 8, 120, 127, 128, 130, 0], 1, 0.5)
def test_padded_size_sums_match_each_segments_sum(lengths, seed, zeros):
    """distill._size_sums over distill._pad_layout gives the ndarray.sum of
    every segment bit for bit, on entries from zero through subnormals to
    1e300, some share of them zeroed."""
    rng = np.random.default_rng(seed)
    total = sum(lengths)
    h = rng.random(total) * 10.0 ** rng.integers(-323, 301, total)
    h[rng.random(total) < zeros] = 0.0
    index = np.repeat(np.arange(len(lengths)), lengths)
    flat, long = distill._pad_layout(index, len(lengths))
    sums = distill._size_sums(h, flat, long, len(lengths))
    bounds = np.cumsum([0, *lengths])
    want = np.array([h[a:b].sum() for a, b in zip(bounds, bounds[1:])])
    assert sums.tobytes() == want.tobytes()


@PROPERTY
@given(st.floats(0.0, 0.5))
def test_pair_criteria_match_the_eigen_route(d):
    """The closed forms agree with the partial-transpose, correlation-
    tensor and overlap routes on the density matrix, and so does the
    entanglement flag wherever the eigenvalue clears the margin."""
    lo, chsh, fidelity = qkd.pair_criteria(d)
    rho = bell_diagonal(qkd.bell_weights(d))
    entangled, lo_eig = qcore.is_entangled(rho)
    assert abs(lo - lo_eig) <= 2e-15
    assert abs(chsh - chsh_max(rho)) <= 2e-15
    assert abs(fidelity - qcore.singlet_fidelity(rho)) <= 2e-15
    if abs(lo_eig) > 1e-9:
        assert (lo < -qcore.PPT_MARGIN) == entangled


@PROPERTY
@given(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=4,
                max_size=4))
def test_recurrence_weights_match_the_16_dim_protocol(u):
    """The closed Bell-weight map of one bilateral-CNOT round agrees with
    the explicit simulation on two pairs, for Dirichlet(1, 1, 1, 1)
    weights drawn as normalised exponentials -log u."""
    e = -np.log(u)
    assume(e.sum() > 0.0)
    lam = e / e.sum()
    got, n = distill.recurrence_weights(lam)
    want, p = recurrence_explicit(lam)
    assert np.abs(got - want).max() <= 1e-15
    assert abs(n - p) <= 1e-15


ANGLE = st.floats(0.0, np.pi)
ELEMENT = st.one_of(
    st.builds(wm.PmdElement, st.floats(0.0, 4.0), ANGLE),
    st.builds(wm.PdlElement, st.one_of(st.floats(0.0, 40.0),
                                       st.just(np.inf)), ANGLE))


@PROPERTY
@given(ANGLE, ANGLE, st.lists(ELEMENT, max_size=6))
def test_energy_never_increases_along_a_chain(theta, phi, chain):
    """Each element keeps or lowers the energy, and a chain of delay
    elements alone keeps it to round-off."""
    pulse = wm.PolarizedPulse(0.7, wm.jones_elliptical(theta, phi))
    energy = [wm.propagate(pulse, chain[:i]).energy()
              for i in range(len(chain) + 1)]
    assert energy[0] == pytest.approx(np.sqrt(np.pi) * 0.7, rel=1e-12)
    for before, after in zip(energy, energy[1:]):
        assert after <= before * (1.0 + 1e-12)
    if all(isinstance(e, wm.PmdElement) for e in chain):
        assert energy[-1] == pytest.approx(energy[0], rel=1e-12)


@PROPERTY
@given(ANGLE, ANGLE, ANGLE, st.floats(0.0, 8.0), st.floats(0.0, 30.0), ANGLE)
def test_closed_arrival_time_matches_numeric(theta, phi, pmd_axis, dtau,
                                             gamma_db, pdl_axis):
    """The closed form agrees with the trapezoid integrals of the field
    after one delay and one lossy element. Losses of at most 30 dB pass
    at least 1e-3 of the energy. Over 6000 seeded draws of these inputs
    the gap stayed below 7e-15 t_c; the bound leaves a margin of 14."""
    t_c = 0.7
    pulse = wm.PolarizedPulse(t_c, wm.jones_elliptical(theta, phi))
    pmd = wm.PmdElement(dtau, pmd_axis)
    post = wm.PdlElement(gamma_db, pdl_axis)
    closed = wm.mean_toa_closed(pulse, pmd, post)
    numeric = wm.propagate(pulse, [pmd, post]).mean_toa()
    assert abs(numeric - closed) <= 1e-13 * t_c


@PROPERTY
@given(st.floats(0.2, 3.0), ANGLE, ANGLE,
       st.lists(st.tuples(st.floats(0.0, 4.0), ANGLE), min_size=1,
                max_size=6),
       st.integers(0, 6), st.floats(0.0, 30.0), ANGLE,
       st.floats(-300.0, 300.0))
def test_field_moments_scale_with_the_pulse_width(t_c, theta, phi, sections,
                                                  where, gamma_db, pdl_axis,
                                                  log_s):
    """Scaling t_c and every delay by s = 10^log_s moves no Gaussian
    relative to t_c: the energy in units of sqrt(pi) t_c stays, and the
    arrival time scales by s. The relative size of the field's
    integrals depends on nothing else."""
    def moments(s):
        chain = [wm.PmdElement(dtau * t_c * s, axis)
                 for dtau, axis in sections]
        chain.insert(where, wm.PdlElement(gamma_db, pdl_axis))
        field = wm.propagate(
            wm.PolarizedPulse(t_c * s, wm.jones_elliptical(theta, phi)),
            chain)
        return (field.energy() / (math.sqrt(math.pi) * t_c * s),
                field.mean_toa() / s)

    s = 10.0 ** log_s
    (energy, toa), (energy_s, toa_s) = moments(1.0), moments(s)
    assert abs(energy_s - energy) <= 1e-12 * energy
    spread = t_c * (1.0 + sum(dtau for dtau, _ in sections))
    assert abs(toa_s - toa) <= 1e-12 * spread


@PROPERTY
@given(st.floats(0.0, 0.5), st.sampled_from(qkd.EVE_MEASUREMENTS))
def test_symbol_table_normalised_with_uniform_sender(d, eve):
    table = qkd.symbol_distribution(
        qkd.AttackParams(d, eve_measurement=eve)).table
    assert (table >= 0.0).all()
    assert table.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(table.sum(axis=(1, 2)), 0.5, rtol=0,
                               atol=1e-10)


@PROPERTY
@given(st.floats(1e-3, 0.5), st.sampled_from(qkd.EVE_MEASUREMENTS),
       st.sampled_from(BASES))
def test_symbol_table_matches_the_eigen_route(d, eve, basis):
    """The one closed-form table agrees with Eve's diagonalised
    measurements on her conditional probes, with the partners measuring
    either basis. Below D = 1e-3 the eigen route itself loses digits to
    eigenvector conditioning and to the 1e-14 kernel cutoff of
    square_root_povm."""
    params = qkd.AttackParams(d, eve_measurement=eve)
    got = qkd.symbol_distribution(params).table
    assert np.abs(got - eigen_table(params, basis)).max() <= 4e-15


def _binary_entropy(p):
    return 0.0 if p in (0.0, 1.0) else \
        -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


@PROPERTY
@given(st.floats(0.0, 0.5), st.sampled_from(qkd.EVE_MEASUREMENTS))
def test_mutual_informations_match_their_closed_forms(d, eve):
    """I(A;B) = 1 - h(D) and, under either measurement, I(A;E) = 1 -
    h(1/2 - sqrt(D(1-D))): the identities that put the one-way threshold
    at the CHSH root (1 - 1/sqrt 2)/2."""
    dist = qkd.symbol_distribution(qkd.AttackParams(d, eve_measurement=eve))
    i_ae = 1.0 - _binary_entropy(0.5 - math.sqrt(d * (1.0 - d)))
    assert abs(qkd.mutual_information(dist, "ab")
               - (1.0 - _binary_entropy(d))) <= 1e-14
    assert abs(qkd.mutual_information(dist, "ae") - i_ae) <= 1e-14


@PROPERTY
@given(st.floats(0.0, 1.0),
       st.lists(st.floats(0.5, 50.0), min_size=3, max_size=8, unique=True))
def test_fit_recovers_quality_from_noiseless_records(q, mu_in):
    """Golden-section search stops once its bracket is 1e-6 wide and
    returns the midpoint, so the true Q lies within 1e-6."""
    q_hat, _ = cloning.fit_q(cloning.generate_fidelity_dataset(q, mu_in))
    assert abs(q_hat - q) <= 1e-6


@PROPERTY
@pytest.mark.filterwarnings("ignore:all records share one mu_in")
@given(st.floats(0.0, 1.0), st.integers(3, 400).flatmap(lambda k: st.tuples(
    hnp.arrays(float, k, elements=st.floats(1e-3, 1e3)),
    hnp.arrays(float, k, elements=st.floats(1.0, 1e3)),
    hnp.arrays(float, k, elements=st.floats(-0.05, 0.05)))))
def test_fit_q_matches_point_by_point_scan(q, records):
    """The grid scored in array blocks gives the bits of the scan that
    scores one grid point at a time, on records with mu_out >= mu_in and
    fidelities off the law at q by up to 0.05."""
    mu_in, gain, noise = records
    mu_out = mu_in * gain
    core = q * mu_out * mu_in
    law = (core + mu_out + mu_in) / (core + 2.0 * mu_out)
    data = np.column_stack([mu_in, mu_out, np.clip(law + noise, 1e-9, 1.0)])
    assert cloning.fit_q(data) == fit_oracle.fit_q(data)


@PROPERTY
@given(st.floats(0.0, 1.0), st.floats(1.0, 1e100),
       st.one_of(st.just(0.0), st.floats(1e-6, 0.5)), st.integers(0, 2 ** 32),
       st.sampled_from([0, 1, 57]).flatmap(lambda k: hnp.arrays(
           float, k, elements=st.floats(1e-300, 1e100))))
def test_fidelity_dataset_matches_per_record_loop(q, gain, sigma, seed, mu_in):
    """The law evaluated over the whole array gives the bits of one
    fidelity_classical call a record, with and without noise, on 0, 1
    and many records."""
    got = cloning.generate_fidelity_dataset(q, mu_in, gain, sigma, seed)
    want = dataset_oracle.generate_fidelity_dataset(q, mu_in, gain, sigma,
                                                    seed)
    assert got.shape == want.shape == (mu_in.size, 3)
    assert got.tobytes() == want.tobytes()


def test_a_failing_property_reports_its_example(tmp_path):
    """Under this repo's pytest settings a failing property ends the run
    with exit 1 and prints its falsifying example. Printing it imports
    libcst, whose DeprecationWarning the "error" filter used to turn into
    an INTERNALERROR with exit 3 and no example."""
    (tmp_path / "test_fails.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_negative(x):
            assert x < 0
        """))
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config),
         "-p", "no:cacheprovider", "-q", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout


# Values for flags whose spec carries no interval: the edges of the
# float range, zero, the infinities and NaN, plus moderate values of
# either sign.
SPECIAL = [0.0, math.ulp(0.0), 1e-300, 1e300, 1.7976931348623157e308,
           math.inf, -math.inf, math.nan, -1.0]
FREE_FLOAT = st.one_of(st.sampled_from(SPECIAL), st.floats(0.25, 4.0),
                       st.floats(-4.0, -0.25))
FREE_INT = st.one_of(st.integers(-3, 60), st.integers())
# Upper ends for the flags that set a run's size, so that all examples
# together take a few seconds; each stays inside its spec interval.
SIZE_CAP = {"steps": 5, "points": 200, "m": 200, "trials": 20_000}
REPORT_HEAD = ["tool", "version", "timestamp", "command", "config"]


def _flag_values(spec):
    """Strategy for {flag: value text} over a command's spec; an absent
    optional flag keeps its default."""
    draws = {}
    for name, (kind, default, *interval) in spec.items():
        if isinstance(kind, list):
            value = st.sampled_from(kind)
        elif kind is str:
            value = st.sampled_from(["records.csv", "missing.csv"])
        elif interval:
            lo, hi = interval[0]
            if kind is int:
                value = st.integers(lo, min(hi, SIZE_CAP.get(name, hi)))
            else:
                value = st.floats(lo, hi)
        else:
            value = FREE_INT if kind is int else FREE_FLOAT
        value = value.map(str)
        draws[name] = value if default is cli._REQUIRED else \
            st.one_of(st.none(), value)
    return st.fixed_dictionaries(draws)


CLI_RUN = st.sampled_from(sorted(cli.COMMANDS)).flatmap(
    lambda key: st.tuples(st.just(key),
                          _flag_values(cli.COMMANDS[key][1]),
                          st.integers(0, 2 ** 64 - 1)))


def _strict_json(path):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def _parsed(argv):
    """cli.parse's RunConfig for argv, or None for a usage error."""
    try:
        return cli.parse(argv)
    except cli.UsageError:
        return None


@settings(PROPERTY, max_examples=200)
@given(CLI_RUN, st.booleans())
def test_cli_runs_end_in_a_contract_exit_code(run, spaced):
    """Any in-range flag set exits 0, 1 or 2 without a traceback. A run
    that parsed leaves a strict-JSON report of its configuration and
    either a summary next to its CSV or an error with no CSV. A flag
    passed as `--name value`, negative values included, parses as
    `--name=value` does."""
    (group, sub), flags, seed = run
    with tempfile.TemporaryDirectory() as outdir:
        with open(os.path.join(outdir, "records.csv"), "w") as fh:
            fh.write("mu_in,mu_out,fidelity\n0.5,5,0.8\n2,20,0.7\n"
                     "10,100,0.9\n")
        argv = [group, sub, "--seed", str(seed), "--outdir", outdir]
        joined = list(argv)
        for name, value in flags.items():
            if value is not None:
                if name == "input":
                    value = os.path.join(outdir, value)
                joined.append(f"--{name}={value}")
                argv += [f"--{name}", value] if spaced else joined[-1:]
        config = _parsed(argv)
        # repr, as a NaN parameter never equals itself
        assert repr(config) == repr(_parsed(joined))
        code = cli.main(argv)
        base = os.path.join(outdir, f"{group}-{sub}-{seed}")
        if config is None:
            assert code == 1 and not os.path.exists(base + ".json")
            return
        assert code in (0, 1, 2)
        report = _strict_json(base + ".json")
        assert list(report["config"]) == ["params", "seed", "outdir"]
        outcome = "summary" if code == 0 else "error"
        assert list(report) == REPORT_HEAD + [outcome]
        assert os.path.exists(base + ".csv") == (code == 0)
