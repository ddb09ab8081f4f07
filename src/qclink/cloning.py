"""Optimal copying fidelity and its optical-amplifier counterpart.

fidelity_opt gives the best mean fraction of correct copies when N
identical inputs are turned into M > N outputs,

    F(N, M) = (M N + M + N) / (M (N + 2)).

fidelity_classical is the measured-intensity analogue for an amplifier
taking mean intensity mu_in to mu_out with quality Q in [0, 1],

    F = (Q mu_out mu_in + mu_out + mu_in) / (Q mu_out mu_in + 2 mu_out),

which reproduces F(N, M) exactly at Q = 1 with integer intensities.
The gain process itself is a birth chain: each new photon joins mode k
with probability proportional to n_k + 1, the stimulated plus
spontaneous emission weights. That is a Polya urn, so its law has a
closed form, built in O(M - N); a Monte Carlo steps the chain itself.
A Poisson mixture over input photon number and a least-squares
recovery of Q from fidelity-vs-intensity records round out the
analysis tools. Synthetic records take the law
over their whole array at once, as fidelity_classical takes it for one
record. The fit scores its whole Q grid in one array pass, in (points,
k) blocks of at most FIT_BLOCK residuals (one grid point a block once k
exceeds it), so besides a contiguous copy of the records its
temporaries stay within 128 kB or one row of k floats. The Monte Carlo
birth chain steps BIRTH_BLOCK trials at a time and keeps only an
integer histogram of their final counts, so it holds about 0.7 MB
whatever the trial count, and refuses more than BIRTH_MAX_TRIALS trials
or BIRTH_MAX_TRIAL_STEPS trial-steps.
"""

import csv
import math
import warnings

import numpy as np

from ._checks import check as _check, check_array as _check_array

# Largest trial count birth_process_mc accepts. Its memory stays within one
# block of trials, so this bounds only the time: about 0.13 s at m - n = 1.
BIRTH_MAX_TRIALS = 10 ** 7
# Trials birth_process_mc steps at once: 128 kB per float64 block array.
BIRTH_BLOCK = 1 << 14
# Largest M birth_process_mc accepts: its chain state n_sig + 1 <= M + 1
# is a float, exact up to 2^53.
BIRTH_MAX_M = 2 ** 53 - 1
# Largest trials * (m - n) birth_process_mc accepts: about 0.7 s of steps.
BIRTH_MAX_TRIAL_STEPS = 10 ** 8
# Largest gain poisson_mixture_fidelity accepts: gain times the largest
# photon number it keeps (108 at mu_in = 50) stays an exact integer.
MIXTURE_MAX_GAIN = 1e12
# Largest grid block fit_q scores at once, in entries of (points, k):
# 128 kB per float64 temporary, one block for up to 162 records. Blocks
# of 2^16 entries took about twice as long at 2000-20000 records, as
# their temporaries outgrow the cache.
FIT_BLOCK = 1 << 14
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _copy_counts(n, m):
    """(n, m) as ints, checked to be integers with M >= N >= 1."""
    n = _check("N", n, 1, math.inf, integer=True)
    return n, _check("M", m, n, math.inf, integer=True)


def fidelity_opt(n, m):
    """Optimal N-to-M copying fidelity (MN + M + N) / (M (N + 2))."""
    n, m = _copy_counts(n, m)
    return (m * n + m + n) / (m * (n + 2))


def _law_terms(mu_in, mu_out, q):
    """Numerator and denominator of the amplifier fidelity, unchecked."""
    core = q * mu_out * mu_in
    return core + mu_out + mu_in, core + 2.0 * mu_out


def _checked_law_terms(mu_in, mu_out, q):
    """_law_terms, with ValueError where one overflows, as the ratio would
    read nan or 0.0 for 1/2."""
    with np.errstate(over="ignore"):
        terms = _law_terms(mu_in, mu_out, q)
    if not np.isfinite(terms).all():
        raise ValueError("the amplifier fidelity overflows")
    return terms


def fidelity_classical(mu_in, mu_out, q):
    """Amplifier fidelity at mean intensities (mu_in, mu_out), quality q."""
    _check("mu_in", mu_in, math.ulp(0.0))
    _check("mu_out", mu_out, mu_in)  # mu_out >= mu_in > 0
    _check("quality", q, 0.0, 1.0)
    num, den = _checked_law_terms(mu_in, mu_out, q)
    return num / den


def _descending_pmf(n, m):
    """P(m), P(m - 1), ..., P(n) signal photons of the birth chain, for
    checked ints m >= n >= 1: the largest entry (n + 1)/(m + 1) first,
    then P(n + j - 1) = P(n + j) j / (n + j), so no entry overflows."""
    j = np.arange(m - n, 0, -1)
    desc = np.empty(m - n + 1)
    desc[0] = (n + 1) / (m + 1)
    np.divide(j, n + j, out=desc[1:])
    return np.cumprod(desc, out=desc)


def birth_process_pmf(n, m):
    """Law of the birth chain's signal photon count, in O(m - n).

    The chain starts at (n, 0) photons in (signal, orthogonal) modes and
    adds photons one at a time with weight n_k + 1 until m photons exist:
    a Polya urn, so entry j is P(n + j signal photons) =
    C(n + j, n) / C(m + 1, n + 1), for j = 0..m - n.
    """
    n, m = _copy_counts(n, m)
    return _descending_pmf(n, m)[::-1].copy()


def birth_process_exact(n, m):
    """Mean signal fraction of the birth chain, from its exact law."""
    n, m = _copy_counts(n, m)
    # Summed from the most signal photons down, in Python floats.
    counts = np.arange(m, n - 1, -1)
    return sum((counts * _descending_pmf(n, m)).tolist()) / m


def _birth_histogram(n, m, trials, seed):
    """Final signal counts of `trials` seeded birth chains, as an int64
    histogram over n..m, for checked arguments.

    Trials run in blocks of BIRTH_BLOCK, each stepped through the whole
    chain on its own PCG64(seed), advanced so that every trial reads the
    uniform default_rng(seed) gives it when all trials draw one step at a
    time. The state a = n_sig + 1 is an exact float, so a / (total + 2)
    is that step's probability bit for bit.
    """
    hist = np.zeros(m - n + 1, dtype=np.int64)
    a, u, p = (np.empty(min(trials, BIRTH_BLOCK)) for _ in range(3))
    grow = np.empty(a.size, bool)
    for lo in range(0, trials, BIRTH_BLOCK):
        b = min(BIRTH_BLOCK, trials - lo)
        bits = np.random.PCG64(seed)
        bits.advance(lo)
        draw = np.random.Generator(bits).random
        ab, ub, pb, gb = a[:b], u[:b], p[:b], grow[:b]
        ab.fill(n + 1)
        for total in range(n, m):
            draw(out=ub)
            bits.advance(trials - b)
            np.divide(ab, total + 2, out=pb)
            ab += np.less(ub, pb, out=gb)
        hist += np.bincount((ab - (n + 1)).astype(np.intp),
                            minlength=hist.size)
    return hist


def birth_process_mc(n, m, trials, seed=0):
    """Monte Carlo mean and standard error of the birth-chain fidelity.

    Both come from exact integer sums of the final counts, so the mean is
    correctly rounded.
    """
    trials = _check("trials", trials, 10 ** 4, BIRTH_MAX_TRIALS, integer=True)
    seed = _check("seed", seed, 0, math.inf, integer=True)
    n, m = _copy_counts(n, m)
    _check("M", m, 1, BIRTH_MAX_M, integer=True)
    if trials * (m - n) > BIRTH_MAX_TRIAL_STEPS:
        raise ValueError(
            f"trials * (m - n) = {trials * (m - n)} exceeds the Monte Carlo "
            f"budget of {BIRTH_MAX_TRIAL_STEPS} trial-steps")
    hist = _birth_histogram(n, m, trials, seed).tolist()
    s1 = sum(h * k for h, k in zip(hist, range(n, m + 1)))
    s2 = sum(h * k * k for h, k in zip(hist, range(n, m + 1)))
    # Squared standard error of the mean of k / m, from the sample
    # variance with ddof = 1, as one exact quotient rounded once.
    se2 = (trials * s2 - s1 * s1) / (trials * trials * (trials - 1) * m * m)
    return s1 / (trials * m), math.sqrt(se2)


def poisson_mixture_fidelity(mu_in, gain):
    """Poisson-averaged copying fidelity at fixed gain.

    Mixes fidelity_opt(N, max(N, round(gain N))) over a Poisson photon
    number N >= 1 (the vacuum term carries no polarization and is
    excluded), truncating the tail at cumulative weight 1 - 1e-12. A
    diagnostic value to compare against the amplifier formula; no
    identity between the two is implied.
    """
    _check("mu_in", mu_in, math.ulp(0.0), 50.0)
    _check("gain", gain, 1.0, MIXTURE_MAX_GAIN)
    # Poisson weights p_k = p_{k-1} mu / k, up to one term past the first
    # k whose cumulative weight reaches 1 - 1e-12.
    pmf = [math.exp(-mu_in)]
    while sum(pmf[:-1]) < 1.0 - 1e-12:
        pmf.append(pmf[-1] * mu_in / len(pmf))
    ns = np.arange(1, len(pmf))
    weights = np.array(pmf[1:])
    weights = weights / weights.sum()
    fids = np.array([
        fidelity_opt(n, max(n, int(np.floor(gain * n + 0.5)))) for n in ns])
    return float(weights @ fids)


def _as_records(data):
    """(k, 3) float records: 0 < mu_in <= mu_out, fidelities in (0, 1]."""
    big = np.finfo(float).max
    arr = _check_array("(mu_in, mu_out, fidelity) records", data,
                       math.ulp(0.0), (big, big, 1.0), (None, 3))
    _check_array("mu_out", arr[:, 1], arr[:, 0])
    return arr


def fit_q(data):
    """Least-squares quality estimate from (mu_in, mu_out, fidelity) rows.

    Scores a 101-point grid over [0, 1] in one array pass, as (points,
    k) blocks of at most FIT_BLOCK entries, and refines the best bracket
    by golden-section search down to 1e-6 in Q. Returns (q_hat, residual
    sum of squares). A dataset with a single distinct mu_in is flagged
    as degenerate with a warning but still fitted.
    """
    arr = _as_records(data)
    _check("record count", arr.shape[0], 3, math.inf, integer=True)
    if np.unique(arr[:, 0]).size == 1:
        warnings.warn("all records share one mu_in; the fit is degenerate",
                      stacklevel=2)
    # Contiguous columns: strided ones slowed the residual passes by about
    # a third at 2e5 records.
    mu_in, mu_out, fid = arr.T.copy()
    _checked_law_terms(mu_in, mu_out, 1.0)  # both rise with q: finite on [0, 1]

    def rss(q):
        """Residual sum of squares of each q, summed over the last axis."""
        num, den = _law_terms(mu_in, mu_out, q)
        return ((num / den - fid) ** 2).sum(axis=-1)

    grid = np.linspace(0.0, 1.0, 101)
    # Each row of a block is the contiguous pairwise sum of one point's
    # 1-D .sum(), so every grid value keeps its bits.
    step = max(1, FIT_BLOCK // arr.shape[0])
    values = np.concatenate([rss(grid[lo:lo + step, None])
                             for lo in range(0, grid.size, step)])
    best = int(np.argmin(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, 100)]

    # Golden-section refinement on the bracketing interval.
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = rss(c), rss(d)
    while hi - lo > 1e-6:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = rss(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = rss(d)
    q_hat = 0.5 * (lo + hi)
    return float(q_hat), float(rss(q_hat))


def generate_fidelity_dataset(q, mu_in, gain=10.0, noise_sigma=0.0, seed=0):
    """Synthetic (mu_in, mu_out, fidelity) records from the amplifier law.

    mu_in is a 1-D array of positive intensities, mu_out = gain * mu_in
    with gain >= 1; optional additive Gaussian noise on the fidelities,
    clipped into (0, 1]. The law is evaluated over the whole array in
    one pass, each record bit for bit as fidelity_classical gives it.
    """
    _check("noise sigma", noise_sigma, 0.0)
    seed = _check("seed", seed, 0, math.inf, integer=True)
    _check("quality", q, 0.0, 1.0)
    _check("gain", gain, 1.0)
    mu_in = _check_array("mu_in", mu_in, math.ulp(0.0))
    with np.errstate(over="ignore"):  # _checked_law_terms rejects inf
        mu_out = gain * mu_in
    num, den = _checked_law_terms(mu_in, mu_out, q)
    fid = num / den
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        fid = fid + rng.normal(0.0, noise_sigma, size=fid.shape)
        fid = np.clip(fid, 1e-9, 1.0)
    return np.column_stack([mu_in, mu_out, fid])


CSV_HEADER = ("mu_in", "mu_out", "fidelity")


def load_fidelity_csv(path):
    """Read a mu_in,mu_out,fidelity CSV into an (k, 3) array; a row of
    another width or a cell that is no number names its line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != CSV_HEADER:
            raise ValueError(
                f"{path}: expected header {','.join(CSV_HEADER)}, got {header}")
        rows = []
        try:
            for row in filter(None, reader):  # blank lines are skipped
                if len(row) != len(CSV_HEADER):
                    raise ValueError(f"{len(row)} cells, expected 3")
                rows.append(list(map(float, row)))
        except ValueError as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return _as_records(np.array(rows))
