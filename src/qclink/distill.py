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
already as floats, so a pass gathers nothing per call. The Monte Carlo
harness refuses more than MC_MAX_TRIAL_SYMBOLS trial-symbols before it
allocates anything and draws the symbols MC_CHUNK_SYMBOLS at a time. It
accepts or rejects each block from its raw uniforms and decodes only
the accepted blocks, so it holds one chunk plus 8 bytes per trial. The
exact sums and the Monte Carlo take their binary entropies from qkd.h2.

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
from .qkd import (HELSTROM_BINARY, AttackParams, binary_entropy, error_rate,
                  h2, mutual_information, pair_criteria, symbol_distribution)

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
    q = np.zeros_like(t)
    for c in (0, 1):
        for k in (0, 1):
            pab = t[c, c ^ k].sum()
            if pab > 0.0:
                q[c, k] = t[c, c ^ k] / pab
    return q


def _branch_supports(q):
    """The symbols e with q[c, k, e] > 0 of each branch (c, k), in the
    order (0, 0), (0, 1), (1, 0), (1, 1)."""
    return tuple(tuple(np.flatnonzero(b).tolist())
                 for b in q.reshape(4, -1) > 0.0)


def _simplex(n, s):
    """All s-tuples of nonnegative integers summing to n, in lexicographic
    order."""
    if s == 1:
        return np.array([[n]])
    free = np.indices((n + 1,) * (s - 1)).reshape(s - 1, -1).T
    free = free[free.sum(axis=1) <= n]
    return np.column_stack([free, n - free.sum(axis=1)])


@functools.cache
def _count_rows(ne, branches):
    """Eve's symbol-count vectors for the block sizes 1..MAX_BLOCK that
    lie inside the support of some branch (_branch_supports), each once,
    ordered by block size and then lexicographically, so the rows of the
    sizes 1..n are a prefix of the table. Returns the block-size index of
    each row, the number of rows of the sizes 1..n for n = 0..MAX_BLOCK,
    and, for each branch, the indices of the rows inside its support with
    their counts on that support as float64, their log multinomial
    coefficients, their block-size index and its own prefix row counts.
    One table serves every n_max. Every array is read-only, as the cache
    shares it."""
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
    for arr in sum(per_branch, (index, ends)):
        arr.flags.writeable = False
    return index, ends, tuple(per_branch)


def _block_profiles(dist, n_max):
    """Exact block statistics of the block sizes 1..n_max in one pass over
    the count vectors inside the branch supports, read as the prefix of
    _count_rows' table that holds the sizes 1..n_max. Returns the float64
    arrays (p_accept, eps_post, i_ab, i_ae) over n = 1..n_max."""
    eps = error_rate(dist)
    q = _conditional_eve(dist)
    branches = _branch_supports(q)
    # Python-float powers, so every n gets the same bits whatever n_max.
    good = np.array([(1.0 - eps) ** n for n in range(1, n_max + 1)])
    bad = np.array([eps ** n for n in range(1, n_max + 1)])
    p_acc = good + bad
    eps_post = bad / p_acc
    pi_k = (good / p_acc, eps_post)
    index, ends, rows = _count_rows(q.shape[2], branches)
    # The sizes 1..n_max are the first ends[n_max] rows of the table.
    index = index[:ends[n_max]]
    # w[c] = sum_k pi_k * multinom * prod_e q[c,k,e]^n_e per vector
    w = np.zeros((2, index.shape[0]))
    for (c, k), ok, (at, counts, log_multinom, size, upto) in zip(
            np.ndindex(2, 2), branches, rows):
        m = upto[n_max]
        logs = counts[:m] @ np.log(q[c, k, list(ok)]) + log_multinom[:m]
        w[c, at[:m]] += pi_k[k][size[:m]] * np.exp(logs)
    tot = w.sum(axis=0)
    mask = tot > 0.0
    h = 0.5 * tot[mask] * h2(w[0, mask] / tot[mask])
    # Each block size is summed on its own by ndarray.sum, whose
    # pairwise order does not depend on the sizes around it.
    bounds = np.searchsorted(index[mask], np.arange(n_max + 1)).tolist()
    h_cond = np.array([h[a:b].sum() for a, b in zip(bounds, bounds[1:])])
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
    chunk = max(MC_CHUNK_SYMBOLS // n, 1)
    n_acc = n_wrong = 0
    h = np.empty(trials)  # Eve's entropy of each accepted block
    for lo in range(0, trials, chunk):
        rows = min(chunk, trials - lo)
        u = rng.random((rows, n))
        c = bits.integers(0, 2, size=rows)
        n_err = ((err_lo <= u) & (u < err_hi)).sum(axis=1)
        accept = (n_err == 0) | (n_err == n)
        start, n_acc = n_acc, n_acc + int(accept.sum())
        n_wrong += int((n_err == n).sum())

        # Eve's posterior for each accepted block from the known model.
        idx = cdf.searchsorted(u[accept], side="right")
        code = ((idx // (2 * ne)) ^ c[accept, None]) * ne + idx % ne
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
        i_ab=1.0 - binary_entropy(eps_post), i_ae=i_ae,
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
    in [0, 1] and sum to 1, within qcore.WEIGHT_ATOL. Returns (lam', N).
    """
    w = _check_array("Bell weights", weights, -qcore.WEIGHT_ATOL,
                     1.0 + qcore.WEIGHT_ATOL, (4,))
    if abs(w.sum() - 1.0) > qcore.WEIGHT_ATOL:
        raise ValueError(f"Bell weights sum to {w.sum()!r}, not 1")
    l0, l1, l2, l3 = np.clip(w, 0.0, None)
    n = (l0 + l1) ** 2 + (l2 + l3) ** 2
    return np.array([l0 * l0 + l1 * l1, 2.0 * l0 * l1,
                     l2 * l2 + l3 * l3, 2.0 * l2 * l3]) / n, float(n)


@dataclass(frozen=True)
class EquivalenceRow:
    """One sweep point comparing the classical and quantum criteria."""

    d: float
    entangled: bool
    min_pt_eigenvalue: float
    chsh: float
    singlet_fidelity: float
    i_ab: float
    i_ae: float
    ad_min_block: int | None


def equivalence_sweep(d_grid, n_max=30, eve_measurement=HELSTROM_BINARY):
    """Table over a 1-D d_grid in [0, 0.5] of the pair state's entanglement,
    CHSH value and singlet fidelity (closed forms, qkd.pair_criteria), the
    one-copy informations and the smallest distillable block size.
    n_max=None skips the block scan and leaves ad_min_block None."""
    rows = []
    for d in _check_array("disturbance", d_grid, 0.0, 0.5).tolist():
        dist = symbol_distribution(
            AttackParams(d, eve_measurement=eve_measurement))
        lo, chsh, fidelity = pair_criteria(d)
        rows.append(EquivalenceRow(
            d=d, entangled=lo < -qcore.PPT_MARGIN, min_pt_eigenvalue=lo,
            chsh=chsh, singlet_fidelity=fidelity,
            i_ab=mutual_information(dist, "ab"),
            i_ae=mutual_information(dist, "ae"),
            ad_min_block=None if n_max is None
            else ad_min_block(dist, n_max=n_max)))
    return rows
