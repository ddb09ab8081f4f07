"""Two purification routes for noisy correlations.

Classical route: repetition-code advantage distillation on the sifted
distribution P(A, B, E). The sender draws a secret bit c, announces
(x_1 xor c, ..., x_N xor c); the receiver accepts the block iff his
deXORed values are constant and guesses that constant. Exact block
statistics are evaluated by summing over Eve's symbol counts
(exchangeability), with a full sequence enumeration and a Monte Carlo
harness as cross checks. Eve's block information is computed with the
announcement fixed to the all-zero pattern, which is lossless for the
bit-flip-symmetric attack family.

The count sums are pruned to their support: a count vector carries
weight only if every symbol it uses has nonzero probability in some
branch q[c, k] = P(e | a=c, b=c^k), so only vectors inside the maximal
branch supports are enumerated, each once. Under the square-root
measurement the supports are {0, 3} and {1, 2}, which cuts the rows for
all n <= 64 from about 815k to 4288; under the binary measurement the
support is full. One vectorised pass covers a whole range of block
sizes, and ad_min_block evaluates the ranges 1, 2-3, 4-7, 8-15, 16-31
and 32-64 in turn, stopping at the first with positive advantage. The
Monte Carlo harness refuses more than MC_MAX_TRIAL_SYMBOLS trial-symbols
before it allocates anything, and draws the symbols MC_CHUNK_SYMBOLS at a
time, so it holds one chunk plus 16 bytes per trial.

Quantum route: the standard two-pair recurrence step at the fidelity
level, F' = (F^2 + ((1-F)/3)^2) / (F^2 + 2F(1-F)/3 + 5((1-F)/3)^2),
validated against an explicit 16-dimensional simulation of the bilateral
CNOT protocol on Bell-diagonal inputs.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import qcore
from .qkd import (HELSTROM_BINARY, AttackParams, binary_entropy, error_rate,
                  mutual_information, rho_ab, symbol_distribution)

MAX_BLOCK = 64
# Smallest block advantage counted as real. Near the critical disturbance
# the true advantage at its first zero crossing is ~1e-10, so the cut must
# sit between that scale and the ~1e-15 float noise of the entropy sums.
ADVANTAGE_EPS = 1e-12
# Largest trials * n that ad_monte_carlo accepts: 1-3 s of sampling.
MC_MAX_TRIAL_SYMBOLS = 10 ** 7
# Trial-symbols ad_monte_carlo draws at a time: its (trials, n) int64
# arrays hold about 50 bytes per trial-symbol, so a chunk takes ~3 MB.
MC_CHUNK_SYMBOLS = 1 << 16
# Block sizes that ad_min_block evaluates together, smallest first, so a
# point that stops at a small block never pays for the large ones.
_MIN_BLOCK_RANGES = ((1, 1), (2, 3), (4, 7), (8, 15), (16, 31),
                     (32, MAX_BLOCK))
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
    seed: int = 0


@dataclass(frozen=True)
class RecurrenceTrace:
    """Per-round (fidelity, success probability) of iterated recurrence."""

    f0: float
    steps: tuple


def _conditional_eve(dist):
    """q[c, k, e] = P(e | a=c, b=c^k) and the branch weights P(a=c, b=c^k)."""
    t = dist.table
    ne = t.shape[2]
    q = np.zeros((2, 2, ne))
    w = np.zeros((2, 2))
    for c in (0, 1):
        for k in (0, 1):
            pab = t[c, c ^ k].sum()
            w[c, k] = pab
            if pab > 0.0:
                q[c, k] = t[c, c ^ k] / pab
    return q, w


def _branch_supports(q):
    """Maximal supports of Eve's conditional distributions q[c, k]."""
    supports = {tuple(np.flatnonzero(q[c, k] > 0.0))
                for c in (0, 1) for k in (0, 1)} - {()}
    return tuple(sorted(s for s in supports
                        if not any(set(s) < set(t) for t in supports)))


def _simplex(n, s):
    """All s-tuples of nonnegative integers summing to n, in lexicographic
    order."""
    if s == 1:
        return np.array([[n]])
    free = np.indices((n + 1,) * (s - 1)).reshape(s - 1, -1).T
    free = free[free.sum(axis=1) <= n]
    return np.column_stack([free, n - free.sum(axis=1)])


@functools.cache
def _count_rows(lo, hi, ne, supports):
    """Eve's symbol-count vectors for the block sizes lo..hi that lie
    inside one of the supports, ordered by block size and then
    lexicographically. Returns (counts, log multinomial coefficients,
    block-size index of each row)."""
    blocks = []
    for n in range(lo, hi + 1):
        for support in supports:
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
    out = counts, log_multinom, sizes - lo
    for arr in out:  # shared by every caller through the cache
        arr.flags.writeable = False
    return out


def _h2_vec(p):
    p = np.clip(p, 0.0, 1.0)
    out = np.zeros_like(p)
    inner = (p > 0.0) & (p < 1.0)
    pi = p[inner]
    out[inner] = -pi * np.log2(pi) - (1.0 - pi) * np.log2(1.0 - pi)
    return out


def _block_profiles(dist, ranges):
    """Exact AdOutcomes of the block sizes lo..hi for each (lo, hi) in
    ranges, yielded as one list per range and computed in one pass over
    the count vectors inside the branch supports."""
    if dist.num_eve_symbols > 4:
        raise ValueError("at most four Eve symbols are supported")
    eps = error_rate(dist)
    q, _ = _conditional_eve(dist)
    supports = _branch_supports(q)
    branches = [(c, k, q[c, k] > 0.0) for c in (0, 1) for k in (0, 1)]
    for lo, hi in ranges:
        stats = []
        pi_k = np.empty((2, hi - lo + 1))
        for j, n in enumerate(range(lo, hi + 1)):
            p_acc = (1.0 - eps) ** n + eps ** n
            eps_post = eps ** n / p_acc
            pi_k[0, j] = (1.0 - eps) ** n / p_acc
            pi_k[1, j] = eps ** n / p_acc
            stats.append((n, p_acc, eps_post, 1.0 - binary_entropy(eps_post)))
        counts, log_multinom, index = _count_rows(
            lo, hi, q.shape[2], supports)
        # w[c] = sum_k pi_k * multinom * prod_e q[c,k,e]^n_e per vector
        w = np.zeros((2, counts.shape[0]))
        for c, k, ok in branches:
            usable = (counts[:, ~ok] == 0).all(axis=1)
            logs = counts[usable][:, ok] @ np.log(q[c, k, ok]) \
                + log_multinom[usable]
            w[c, usable] += pi_k[k, index[usable]] * np.exp(logs)
        tot = w.sum(axis=0)
        mask = tot > 0.0
        h = 0.5 * tot[mask] * _h2_vec(w[0, mask] / tot[mask])
        # Each block size is summed on its own by ndarray.sum, whose
        # pairwise order does not depend on the range around it.
        bounds = np.searchsorted(index[mask], np.arange(hi - lo + 2))
        h_cond = [h[a:b].sum() for a, b in zip(bounds, bounds[1:])]
        yield [AdOutcome(n, p_acc, eps_post, i_ab, 1.0 - float(hc))
               for (n, p_acc, eps_post, i_ab), hc in zip(stats, h_cond)]


def ad_exact(dist, n):
    """Exact advantage-distillation statistics for block size n.

    Supports n <= 64 and at most four Eve symbols. The acceptance
    probability and post-acceptance error have the closed forms
    (1-eps)^n + eps^n and eps^n / p_accept with eps = P(a != b).
    """
    if not 1 <= n <= MAX_BLOCK:
        raise ValueError(f"block size {n} outside [1, {MAX_BLOCK}]")
    return next(_block_profiles(dist, [(n, n)]))[0]


def ad_enumerate(dist, n):
    """Brute-force oracle for ad_exact over all |E|^n Eve sequences."""
    if not 1 <= n <= 8:
        raise ValueError("full enumeration is limited to n <= 8")
    eps = error_rate(dist)
    p_acc = (1.0 - eps) ** n + eps ** n
    eps_post = eps ** n / p_acc
    pi_k = np.array([(1.0 - eps) ** n, eps ** n]) / p_acc
    q, _ = _conditional_eve(dist)
    ne = q.shape[2]
    h_cond = 0.0
    for seq in np.ndindex(*([ne] * n)):
        w = np.zeros(2)
        for c in (0, 1):
            for k in (0, 1):
                w[c] += pi_k[k] * np.prod([q[c, k, e] for e in seq])
        tot = w.sum()
        if tot > 0.0:
            h_cond += 0.5 * tot * binary_entropy(w[0] / tot)
    i_ae = 1.0 - h_cond
    return AdOutcome(n, float(p_acc), float(eps_post),
                     1.0 - binary_entropy(eps_post), i_ae)


def ad_monte_carlo(dist, n, trials, seed=0):
    """Monte Carlo estimate of one distillation round.

    Simulates the full protocol (random secret bit, random announcements)
    and estimates Eve's information from her exact per-block posterior,
    so the estimator is unbiased for the ad_exact quantities. Identical
    (seed, trials) reproduce the outcome bit for bit, and the chunked draw
    gives the outcome of one Generator.choice over all trials.
    """
    if trials < 10 ** 4:
        raise ValueError(f"need at least 1e4 trials, got {trials}")
    if not 1 <= n <= MAX_BLOCK:
        raise ValueError(f"block size {n} outside [1, {MAX_BLOCK}]")
    if trials * n > MC_MAX_TRIAL_SYMBOLS:
        raise ValueError(
            f"trials * n = {trials * n} exceeds the Monte Carlo budget of "
            f"{MC_MAX_TRIAL_SYMBOLS} trial-symbols")
    t = dist.table
    ne = t.shape[2]
    # The stream of Generator.choice(p=table) followed by integers(0, 2):
    # one uniform double a symbol, inverted through the table's CDF, then
    # the secret bits. The bits are drawn first from a copy of the bit
    # generator advanced past all trials * n doubles, so the symbols can
    # be drawn chunk by chunk.
    cdf = t.ravel().cumsum()
    cdf /= cdf[-1]
    rng = np.random.Generator(np.random.PCG64(seed))
    c = np.random.Generator(np.random.PCG64(seed).advance(trials * n)) \
        .integers(0, 2, size=trials)
    with np.errstate(divide="ignore"):
        logt = np.log(t)
    chunk = max(MC_CHUNK_SYMBOLS // n, 1)
    n_acc = n_wrong = 0
    h_parts = []
    for lo in range(0, trials, chunk):
        idx = cdf.searchsorted(rng.random((min(chunk, trials - lo), n)),
                               side="right")
        e = idx % ne
        b = (idx // ne) % 2
        a = idx // (2 * ne)
        err = a ^ b
        accept = (err == err[:, :1]).all(axis=1)
        n_acc += int(accept.sum())
        n_wrong += int((accept & (err[:, 0] == 1)).sum())

        # Eve's posterior for each accepted block from the known model.
        m = (a ^ c[lo:lo + chunk, None])[accept]
        e_acc = e[accept]
        logw = np.empty((2, 2, m.shape[0]))
        for c_hyp in (0, 1):
            for k in (0, 1):
                aa = m ^ c_hyp
                bb = aa ^ k
                logw[c_hyp, k] = logt[aa, bb, e_acc].sum(axis=1)
        logw_c = np.logaddexp(logw[:, 0], logw[:, 1])
        h_parts.append(_h2_vec(
            np.exp(logw_c[0] - np.logaddexp(logw_c[0], logw_c[1]))))
    if n_acc == 0:
        raise RuntimeError(
            f"no accepted blocks in {trials} trials at block size {n}; "
            "reduce the block size or raise the trial budget")

    p_acc = n_acc / trials
    se_p_acc = np.sqrt(p_acc * (1.0 - p_acc) / trials)
    eps_post = n_wrong / n_acc
    se_eps_post = np.sqrt(eps_post * (1.0 - eps_post) / n_acc)
    h_vals = np.concatenate(h_parts)
    i_ae = 1.0 - float(h_vals.mean())
    se_i_ae = float(h_vals.std(ddof=1) / np.sqrt(n_acc)) if n_acc > 1 else 0.0

    return AdMonteCarloOutcome(
        block_size=n, p_accept=p_acc, eps_post=eps_post,
        i_ab=1.0 - binary_entropy(eps_post), i_ae=i_ae,
        se_p_accept=float(se_p_acc), se_eps_post=float(se_eps_post),
        se_i_ae=se_i_ae, trials=trials, accepted=n_acc, seed=seed)


def ad_min_block(dist, n_max=30):
    """Smallest block size with positive advantage, or None."""
    if not 1 <= n_max <= MAX_BLOCK:
        raise ValueError(f"n_max {n_max} outside [1, {MAX_BLOCK}]")
    ranges = [(lo, min(hi, n_max)) for lo, hi in _MIN_BLOCK_RANGES
              if lo <= n_max]
    for outs in _block_profiles(dist, ranges):
        for out in outs:
            if out.advantage > ADVANTAGE_EPS:
                return out.block_size
    return None


def recurrence_step(f):
    """One two-pair recurrence round at the fidelity level.

    Returns (new_fidelity, success_probability); the fixed points are
    1/2 and 1, and any F > 1/2 is strictly improved.
    """
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity {f} outside [0, 1]")
    r = (1.0 - f) / 3.0
    num = f * f + r * r
    den = f * f + 2.0 * f * r + 5.0 * r * r
    return num / den, den


def recurrence_iterate(f0, rounds):
    """Iterate recurrence_step, recording each round."""
    if rounds < 0:
        raise ValueError("rounds must be nonnegative")
    steps = []
    f = f0
    for _ in range(rounds):
        f, p = recurrence_step(f)
        steps.append((f, p))
    return RecurrenceTrace(f0=f0, steps=tuple(steps))


def _cnot_16(control, target):
    """CNOT between two of four qubits as a 16x16 permutation."""
    u = np.zeros((16, 16))
    for idx in range(16):
        bits = [(idx >> (3 - q)) & 1 for q in range(4)]
        bits[target] ^= bits[control]
        out = sum(bit << (3 - q) for q, bit in enumerate(bits))
        u[out, idx] = 1.0
    return u


def recurrence_explicit(weights):
    """Explicit two-pair protocol on a Bell-diagonal state.

    Builds rho x rho on qubits (A1, B1, A2, B2), applies the bilateral
    CNOT (A1->A2, B1->B2), measures the target pair in the computational
    basis, keeps coinciding outcomes, and returns the Bell-basis weights
    of the kept pair together with the success probability. Validation
    path for recurrence_step.
    """
    rho = qcore.bell_diagonal(weights)
    big = np.kron(rho, rho)  # qubit order A1, B1, A2, B2
    u = _cnot_16(1, 3) @ _cnot_16(0, 2)
    big = u @ big @ u.conj().T
    p_success = 0.0
    kept = np.zeros((4, 4), dtype=complex)
    for m in (0, 1):
        proj = np.kron(np.kron(np.eye(4), qcore.dm(qcore.KET_0 if m == 0 else qcore.KET_1)),
                       qcore.dm(qcore.KET_0 if m == 0 else qcore.KET_1))
        # projector on A2 = B2 = m (last two tensor slots)
        p_m = np.trace(big @ proj).real
        p_success += p_m
        r4 = (proj @ big @ proj).reshape(4, 4, 4, 4)
        kept += np.einsum("ikjk->ij", r4)
    kept /= p_success
    new_weights = np.array([
        float(np.real(b.conj() @ kept @ b)) for b in qcore.BELL_BASIS])
    return new_weights, float(p_success)


@dataclass(frozen=True)
class EquivalenceRow:
    """One sweep point comparing the classical and quantum criteria."""

    d: float
    entangled: bool
    chsh: float
    i_ab: float
    i_ae: float
    ad_min_block: int | None


def equivalence_sweep(d_grid, n_max=30, eve_measurement=HELSTROM_BINARY):
    """Per-disturbance table of entanglement, CHSH value, one-copy
    informations and the smallest distillable block size."""
    rows = []
    for d in np.asarray(d_grid, dtype=float):
        dist = symbol_distribution(
            AttackParams(float(d), eve_measurement=eve_measurement))
        rho = rho_ab(float(d))
        entangled, _ = qcore.is_entangled(rho)
        rows.append(EquivalenceRow(
            d=float(d),
            entangled=entangled,
            chsh=qcore.chsh_max(rho),
            i_ab=mutual_information(dist, "ab"),
            i_ae=mutual_information(dist, "ae"),
            ad_min_block=ad_min_block(dist, n_max=n_max)))
    return rows
