"""Two purification routes for noisy correlations.

Classical route: repetition-code advantage distillation on the sifted
distribution P(A, B, E). The sender draws a secret bit c, announces
(x_1 xor c, ..., x_N xor c); the receiver accepts the block iff his
deXORed values are constant and guesses that constant. Exact block
statistics are evaluated by summing over Eve's symbol counts
(exchangeability), with a Monte Carlo harness of the full protocol as a
cross check. Eve's block information is computed with the
announcement fixed to the all-zero pattern, which is lossless for the
bit-flip-symmetric attack family.

The count sums are pruned to their support: a count vector carries
weight only if every symbol it uses has nonzero probability in one
branch q[c, k] = P(e | a=c, b=c^k), so only vectors inside a branch
support are enumerated, each once. The square-root measurement reports
Eve's guess plus the pair parity, so its supports are {0, 3} and
{1, 2} by construction, which cuts the rows for all n <= 64 from about
815k to 4288; under the binary measurement the support is full. One
vectorised pass covers every block size 1..n_max and returns each
statistic as an array over n: ad_min_block reads the first n with
positive advantage off it, ad_exact the last row of a pass over 1..n.
One cached table per support set holds the rows of every block size
1..MAX_BLOCK, ordered by size, so a pass over 1..n_max reads a prefix of
it; the table keeps each branch's rows with their counts on its support
already as floats, so a pass gathers nothing per call, and a branch whose
support holds every row adds its weights by slice. Eve's entropy of each
block size is the ndarray.sum of its rows' terms, and one row sum over a
zero-padded (n_max, 127) array takes all sizes at once with those bits:
numpy sums a row of at most 128 entries with 8 lane accumulators over
its 8-aligned body and then adds the tail one by one, so a size's body
fills the first columns of its row, its tail starts at column 120, and
the zeros between add +0.0 to non-negative sums, which is exact. Each
row's column comes with the cached table; a size with more than 127
rows (63 and 64 under the square-root measurement) keeps a sum of its
own. The Monte Carlo harness refuses more than MC_MAX_TRIAL_SYMBOLS
trial-symbols before it allocates anything and draws the symbols
MC_CHUNK_SYMBOLS at a time. It accepts or rejects each block from its
raw uniforms and decodes only the accepted blocks, so it holds one chunk
plus 8 bytes per trial. The exact sums and the Monte Carlo take their
binary entropies from qkd.h2.

Quantum route: the standard two-pair recurrence step at the fidelity
level, F' = (F^2 + ((1-F)/3)^2) / (F^2 + 2F(1-F)/3 + 5((1-F)/3)^2), and
the bilateral-CNOT round on any Bell-diagonal pair as a closed map of
its four weights (recurrence_weights), whose first weight reproduces
F' on the Werner-form input (F, r, r, r) with r = (1-F)/3.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from ._checks import check as _check, check_array as _check_array
from .qkd import (HELSTROM_BINARY, PROB_ATOL, AttackParams, _check_eve,
                  error_rate, h2, mutual_information, pair_criteria,
                  symbol_distribution)

MAX_BLOCK = 64
# Smallest block advantage counted as real. Near the critical disturbance
# the true advantage at its first zero crossing is ~1e-10, so the cut must
# sit between that scale and the ~1e-15 float noise of the entropy sums.
ADVANTAGE_EPS = 1e-12
# Largest trials * n that ad_monte_carlo accepts: 1-3 s of sampling.
MC_MAX_TRIAL_SYMBOLS = 10 ** 7
# Trial-symbols ad_monte_carlo draws at a time: its (trials, n) arrays
# hold up to about 50 bytes per trial-symbol, so a chunk takes ~3 MB.
MC_CHUNK_SYMBOLS = 1 << 16
# log(k!) for k = 0..MAX_BLOCK: the block sums need no other factorials.
_LOG_FACTORIAL = np.concatenate(
    [[0.0], np.cumsum(np.log(np.arange(1, MAX_BLOCK + 1)))])
# Row width of _size_sums' padded array and the column its tails start at.
_PAD = 127
_TAIL = 120


@dataclass(frozen=True)
class AdOutcome:
    """Block statistics of one advantage-distillation round."""

    block_size: int
    p_accept: float
    eps_post: float
    i_ab: float
    i_ae: float

    @property
    def advantage(self):
        return self.i_ab - self.i_ae


@dataclass(frozen=True)
class AdMonteCarloOutcome(AdOutcome):
    """Monte Carlo estimates with standard errors."""

    se_p_accept: float = 0.0
    se_eps_post: float = 0.0
    se_i_ae: float = 0.0
    trials: int = 0
    accepted: int = 0


def _conditional_eve(dist):
    """q[c, k, e] = P(e | a=c, b=c^k), zero on branches of probability 0."""
    t = dist.table
    # The rows (a, b) = (c, c^k) in the order (0, 0), (0, 1), (1, 0), (1, 1).
    rows = t[[0, 0, 1, 1], [0, 1, 1, 0]]
    pab = rows.sum(axis=1, keepdims=True)
    q = np.divide(rows, pab, out=np.zeros_like(rows), where=pab > 0.0)
    return q.reshape(t.shape)


def _branch_supports(q):
    """The symbols e with q[c, k, e] > 0 of each branch (c, k), in the
    order (0, 0), (0, 1), (1, 0), (1, 1)."""
    return tuple(tuple(e for e, on in enumerate(b) if on)
                 for b in (q.reshape(4, -1) > 0.0).tolist())


def _simplex(n, s):
    """All s-tuples of nonnegative integers summing to n, in lexicographic
    order."""
    if s == 1:
        return np.array([[n]])
    free = np.indices((n + 1,) * (s - 1)).reshape(s - 1, -1).T
    free = free[free.sum(axis=1) <= n]
    return np.column_stack([free, n - free.sum(axis=1)])


def _pad_layout(index, sizes):
    """Where _size_sums puts each entry of a vector grouped by its entries'
    ascending size index 0..sizes-1. A size with L <= _PAD entries puts its
    first 8 (L // 8) at the start of its row of a zero (sizes, _PAD) array
    and the other L % 8 from column _TAIL on. Returns each entry's position
    in that array flattened behind a spare slot 0, which takes the entries
    of the sizes longer than _PAD, and the (size index, start, end) of each
    such size."""
    starts = np.searchsorted(index, np.arange(sizes + 1))
    lengths = np.diff(starts)
    length = lengths[index]
    offset = np.arange(index.size) - starts[index]
    body = length - length % 8
    column = np.where(offset < body, offset, offset - body + _TAIL)
    flat = np.where(length <= _PAD, 1 + index * _PAD + column, 0)
    return flat, tuple((n, int(starts[n]), int(starts[n + 1]))
                       for n in np.flatnonzero(lengths > _PAD).tolist())


def _size_sums(h, flat, long, sizes):
    """The ndarray.sum of each size's entries of the non-negative h, bit for
    bit: one row sum over the array padded as _pad_layout says, and a sum
    apiece for the sizes longer than _PAD."""
    x = np.zeros(1 + sizes * _PAD)
    x[flat] = h
    sums = x[1:].reshape(sizes, _PAD).sum(axis=1)
    for n, lo, hi in long:
        if n < sizes:
            sums[n] = h[lo:hi].sum()
    return sums


@functools.cache
def _count_rows(ne, branches):
    """Eve's symbol-count vectors for the block sizes 1..MAX_BLOCK that
    lie inside the support of some branch (_branch_supports), each once,
    ordered by block size and then lexicographically, so the rows of the
    sizes 1..n are a prefix of the table. Returns the block-size index of
    each row, the number of rows of the sizes 1..n for n = 0..MAX_BLOCK,
    for each branch the indices of the rows inside its support with
    their counts on that support as float64, their log multinomial
    coefficients, their block-size index and its own prefix row counts,
    and the rows' _pad_layout, whose positions depend only on each row's
    own block size, so a prefix of it lays out the sizes 1..n. One table
    serves every n_max. Every array is read-only, as the cache shares
    it."""
    blocks = []
    for n in range(1, MAX_BLOCK + 1):
        for support in set(branches) - {()}:
            part = _simplex(n, len(support))
            rows = np.zeros((len(part), ne + 1), dtype=np.int64)
            rows[:, 0] = n
            rows[:, 1 + np.array(support)] = part
            blocks.append(rows)
    rows = np.vstack(blocks)
    rows = rows[np.lexsort(rows.T[::-1])]
    # A vector inside two overlapping supports is enumerated twice.
    rows = rows[np.r_[True, (np.diff(rows, axis=0) != 0).any(axis=1)]]
    sizes, counts = rows[:, 0], rows[:, 1:]
    log_multinom = _LOG_FACTORIAL[sizes] - _LOG_FACTORIAL[counts].sum(axis=1)
    index = sizes - 1
    sizes_upto = np.arange(MAX_BLOCK + 1)
    per_branch = []
    for ok in branches:
        at = np.flatnonzero((np.delete(counts, ok, axis=1) == 0).all(axis=1))
        per_branch.append((at, counts[np.ix_(at, ok)].astype(float),
                           log_multinom[at], index[at],
                           np.searchsorted(sizes[at], sizes_upto, "right")))
    ends = np.searchsorted(sizes, sizes_upto, "right")
    layout = _pad_layout(index, MAX_BLOCK)
    for arr in sum(per_branch, (index, ends, layout[0])):
        arr.flags.writeable = False
    return index, ends, tuple(per_branch), layout


def _block_profiles(dist, n_max):
    """Exact block statistics of the block sizes 1..n_max in one pass over
    the count vectors inside the branch supports, read as the prefix of
    _count_rows' table that holds the sizes 1..n_max. Eve's entropy of
    each size is the ndarray.sum of its rows' terms, taken for all sizes
    at once by _size_sums. Returns the float64 arrays (p_accept, eps_post,
    i_ab, i_ae) over n = 1..n_max."""
    eps = error_rate(dist)
    q = _conditional_eve(dist)
    branches = _branch_supports(q)
    # Python-float powers, so every n gets the same bits whatever n_max.
    good = np.array([(1.0 - eps) ** n for n in range(1, n_max + 1)])
    bad = np.array([eps ** n for n in range(1, n_max + 1)])
    p_acc = good + bad
    eps_post = bad / p_acc
    pi_k = (good / p_acc, eps_post)
    index, ends, rows, (flat, long) = _count_rows(q.shape[2], branches)
    # The sizes 1..n_max are the first ends[n_max] rows of the table.
    total = ends[n_max]
    # w[c] = sum_k pi_k * multinom * prod_e q[c,k,e]^n_e per vector
    w = np.zeros((2, total))
    for (c, k), ok, (at, counts, log_multinom, size, upto) in zip(
            np.ndindex(2, 2), branches, rows):
        m = upto[n_max]
        terms = counts[:m] @ np.log(q[c, k, list(ok)])
        terms += log_multinom[:m]
        np.exp(terms, out=terms)
        terms *= pi_k[k][size[:m]]
        # A branch whose support holds every row adds by slice.
        w[c, slice(m) if at.size == index.size else at[:m]] += terms
    tot = w.sum(axis=0)
    mask = tot > 0.0
    if mask.all():
        h = 0.5 * tot * h2(w[0] / tot)
        flat = flat[:total]
    else:  # rows of zero weight (D = 0) drop out of the sums and layout
        h = 0.5 * tot[mask] * h2(w[0, mask] / tot[mask])
        flat, long = _pad_layout(index[:total][mask], n_max)
    h_cond = _size_sums(h, flat, long, n_max)
    # I(A;E) >= 0; at D = 0 the sum of 1 - H(A|E) reads -8.9e-16.
    return (p_acc, eps_post, 1.0 - h2(eps_post),
            np.maximum(1.0 - h_cond, 0.0))


def ad_exact(dist, n):
    """Exact advantage-distillation statistics for block size n.

    Supports n <= 64 and at most four Eve symbols. The acceptance
    probability and post-acceptance error have the closed forms
    (1-eps)^n + eps^n and eps^n / p_accept with eps = P(a != b).
    """
    n = _check("block size", n, 1, MAX_BLOCK, integer=True)
    return AdOutcome(n, *(float(a[-1]) for a in _block_profiles(dist, n)))


def ad_monte_carlo(dist, n, trials, seed=0):
    """Monte Carlo estimate of one distillation round.

    Simulates the full protocol (random secret bit, random announcements)
    and estimates Eve's information from her exact per-block posterior,
    so the estimator is unbiased for the ad_exact quantities. A block's
    errors are counted from its uniforms alone; only accepted blocks are
    inverted into symbols and scored against a table of Eve's
    per-symbol log-likelihoods. Identical (seed, trials) reproduce the
    outcome bit for bit, and the chunked draw gives the outcome of one
    Generator.choice over all trials.
    """
    n = _check("block size", n, 1, MAX_BLOCK, integer=True)
    trials = _check("trials", trials, 10 ** 4, math.inf, integer=True)
    seed = _check("seed", seed, 0, math.inf, integer=True)
    if trials * n > MC_MAX_TRIAL_SYMBOLS:
        raise ValueError(
            f"trials * n = {trials * n} exceeds the Monte Carlo budget of "
            f"{MC_MAX_TRIAL_SYMBOLS} trial-symbols")
    t = dist.table
    ne = t.shape[2]
    # The stream of Generator.choice(p=table) followed by integers(0, 2):
    # one uniform double a symbol, inverted through the table's CDF, then
    # the secret bits. The bits come from a second generator advanced past
    # all trials * n doubles, so both streams can be drawn chunk by chunk.
    cdf = t.ravel().cumsum()
    cdf /= cdf[-1]
    rng = np.random.Generator(np.random.PCG64(seed))
    bits = np.random.Generator(np.random.PCG64(seed).advance(trials * n))
    # Symbol i = (2a + b) ne + e and the CDF never decreases, so a != b
    # exactly when cdf[ne - 1] <= u < cdf[3 ne - 1].
    err_lo, err_hi = cdf[ne - 1], cdf[3 * ne - 1]
    # logq[c, k, m ne + e] = log P(a=m^c, b=m^c^k, e): Eve's log-likelihood
    # of one announced-and-deXORed symbol m under hypothesis (c, k).
    with np.errstate(divide="ignore"):
        logt = np.log(t)
    m = np.arange(2)[:, None]
    logq = np.array([[logt[m ^ c_hyp, m ^ c_hyp ^ k].ravel()
                      for k in (0, 1)] for c_hyp in (0, 1)])
    # Symbol i under secret bit c is announced-and-deXORed as
    # code_of[c, i] = ((i // 2ne) ^ c) ne + i % ne; folded into logq, a
    # drawn symbol reads its log-likelihood at i + 4ne c.
    i = np.arange(4 * ne)
    code_of = ((i // (2 * ne)) ^ m) * ne + i % ne
    logq = logq[:, :, code_of.ravel()]
    chunk = max(MC_CHUNK_SYMBOLS // n, 1)
    n_acc = n_wrong = 0
    h = np.empty(trials)  # Eve's entropy of each accepted block
    for lo in range(0, trials, chunk):
        rows = min(chunk, trials - lo)
        u = rng.random((rows, n))
        c = bits.integers(0, 2, size=rows)
        n_err = np.count_nonzero((err_lo <= u) & (u < err_hi), axis=1)
        accept = (n_err == 0) | (n_err == n)
        start, n_acc = n_acc, n_acc + int(np.count_nonzero(accept))
        n_wrong += int(np.count_nonzero(n_err == n))

        # Eve's posterior for each accepted block from the known model.
        code = cdf.searchsorted(u[accept], side="right")
        code += 4 * ne * c[accept, None]
        logw = np.empty((2, 2, code.shape[0]))
        for c_hyp in (0, 1):
            for k in (0, 1):
                logw[c_hyp, k] = logq[c_hyp, k][code].sum(axis=1)
        logw_c = np.logaddexp(logw[:, 0], logw[:, 1])
        h[start:n_acc] = h2(
            np.exp(logw_c[0] - np.logaddexp(logw_c[0], logw_c[1])))
    if n_acc == 0:
        raise RuntimeError(
            f"no accepted blocks in {trials} trials at block size {n}; "
            "reduce the block size or raise the trial budget")

    p_acc = n_acc / trials
    se_p_acc = np.sqrt(p_acc * (1.0 - p_acc) / trials)
    eps_post = n_wrong / n_acc
    se_eps_post = np.sqrt(eps_post * (1.0 - eps_post) / n_acc)
    h = h[:n_acc]
    mean = h.mean()
    i_ae = 1.0 - float(mean)
    # h.std(ddof=1) bit for bit, with the deviations taken in place.
    np.subtract(h, mean, out=h)
    np.multiply(h, h, out=h)
    se_i_ae = (math.sqrt(h.sum() / (n_acc - 1)) / math.sqrt(n_acc)
               if n_acc > 1 else 0.0)

    return AdMonteCarloOutcome(
        block_size=n, p_accept=p_acc, eps_post=eps_post,
        i_ab=1.0 - float(h2(eps_post)), i_ae=i_ae,
        se_p_accept=float(se_p_acc), se_eps_post=float(se_eps_post),
        se_i_ae=se_i_ae, trials=trials, accepted=n_acc)


def ad_min_block(dist, n_max=30):
    """Smallest block size with positive advantage, or None."""
    n_max = _check("n_max", n_max, 1, MAX_BLOCK, integer=True)
    _, _, i_ab, i_ae = _block_profiles(dist, n_max)
    hits = np.flatnonzero(i_ab - i_ae > ADVANTAGE_EPS)
    return int(hits[0]) + 1 if hits.size else None


def recurrence_step(f):
    """One two-pair recurrence round at the fidelity level.

    Returns (new_fidelity, success_probability); the fixed points are
    1/2 and 1, and any F > 1/2 is strictly improved.
    """
    _check("fidelity", f, 0.0, 1.0)
    r = (1.0 - f) / 3.0
    num = f * f + r * r
    den = f * f + 2.0 * f * r + 5.0 * r * r
    return num / den, den


def recurrence_iterate(f0, rounds):
    """Each round's (fidelity, success probability) under recurrence_step."""
    _check("fidelity", f0, 0.0, 1.0)
    rounds = _check("rounds", rounds, 0, math.inf, integer=True)
    steps = []
    f = f0
    for _ in range(rounds):
        f, p = recurrence_step(f)
        steps.append((f, p))
    return tuple(steps)


def recurrence_weights(weights):
    """One bilateral-CNOT recurrence round on a Bell-diagonal pair.

    Both pairs of rho x rho undergo the bilateral CNOT, the target pair
    is measured in the z basis and the kept pair survives when the two
    outcomes coincide (Bennett et al., PRA 54, 3824, 1996). On the Bell
    weights lam = (Phi+, Phi-, Psi+, Psi-) this is the map
    lam' = (lam_0^2 + lam_1^2, 2 lam_0 lam_1, lam_2^2 + lam_3^2,
    2 lam_2 lam_3) / N with success probability
    N = (lam_0 + lam_1)^2 + (lam_2 + lam_3)^2. The four weights must lie
    in [0, 1] and sum to 1, within qkd.PROB_ATOL. Returns (lam', N).
    """
    w = _check_array("Bell weights", weights, -PROB_ATOL, 1.0 + PROB_ATOL,
                     (4,))
    if abs(w.sum() - 1.0) > PROB_ATOL:
        raise ValueError(f"Bell weights sum to {w.sum()!r}, not 1")
    l0, l1, l2, l3 = np.clip(w, 0.0, None)
    n = (l0 + l1) ** 2 + (l2 + l3) ** 2
    return np.array([l0 * l0 + l1 * l1, 2.0 * l0 * l1,
                     l2 * l2 + l3 * l3, 2.0 * l2 * l3]) / n, float(n)


# The fields of equivalence_sweep's table, one row per D; ad_min_block
# holds an int or None.
_EQUIVALENCE_DTYPE = np.dtype([
    ("d", float), ("entangled", bool), ("min_pt_eigenvalue", float),
    ("chsh", float), ("singlet_fidelity", float), ("i_ab", float),
    ("i_ae", float), ("ad_min_block", object)])


def equivalence_sweep(d_grid, n_max=30, eve_measurement=HELSTROM_BINARY):
    """Table over a 1-D d_grid in [0, 0.5] of the pair state's entanglement,
    CHSH value and singlet fidelity (closed forms, qkd.pair_criteria), the
    one-copy informations and the smallest distillable block size.
    n_max=None skips the block scan and leaves ad_min_block None.

    Returns a numpy record array with one row per D and the fields d,
    entangled, min_pt_eigenvalue, chsh, singlet_fidelity, i_ab, i_ae and
    ad_min_block, read by row (rows[i].chsh) or by column (rows.chsh)."""
    grid = _check_array("disturbance", d_grid, 0.0, 0.5).tolist()
    if n_max is not None:
        _check("n_max", n_max, 1, MAX_BLOCK, integer=True)
    _check_eve(eve_measurement)
    rows = []
    for d in grid:
        dist = symbol_distribution(
            AttackParams(d, eve_measurement=eve_measurement))
        lo, chsh, fidelity = pair_criteria(d)
        rows.append((d, lo < -qcore.PPT_MARGIN, lo, chsh, fidelity,
                     mutual_information(dist, "ab"),
                     mutual_information(dist, "ae"),
                     None if n_max is None
                     else ad_min_block(dist, n_max=n_max)))
    return np.array(rows, dtype=_EQUIVALENCE_DTYPE).view(np.recarray)
