"""Entanglement-based key distribution under a one-parameter individual
attack.

The eavesdropper holds a purification of a Bell-diagonal pair state with
weights lam(D) = ((1-D)^2, D(1-D), D(1-D), D^2), which reproduces the
observed error rate D in both protocol bases. After basis announcement
she measures each probe individually, either with the optimal binary
(Helstrom) guess of the sender's bit or with the four-outcome square-root
measurement on her conditional probe states. The module derives the
post-sifting classical distribution P(A, B, E), the mutual informations,
and the critical disturbances for one-way key extraction, CHSH violation
and entanglement. It also holds the package's one binary entropy: h2
on finite arrays, which distill reads, and binary_entropy on one checked
probability. Both the pair state's criteria and Eve's symbol tables are
closed forms in the four Bell weights, so no density matrix is built and
no measurement is diagonalised: each of her probes lies in a
two-register parity block, and both measurements project that block on
(|p> +- |q>) / sqrt(2). The square-root outcome is her guess plus the
pair parity, so its supports {0, 3} and {1, 2} hold by construction.
Since lam_1 = lam_2, both protocol bases give the same table. The
three-party state and the diagonalised measurements are the test oracle
in tests/eve_tables.py.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._checks import check as _check, check_array as _check_array

HELSTROM_BINARY = "helstrom_binary"
SQUARE_ROOT_4 = "square_root_4"
EVE_MEASUREMENTS = (HELSTROM_BINARY, SQUARE_ROOT_4)

# Tr(B sigma_i x sigma_i) for i = x, y, z (rows) and each Bell state B.
_BELL_CORRELATIONS = np.array([[1, -1, 1, -1], [-1, 1, 1, -1],
                               [1, 1, -1, -1]])

# Eve's registers (p, q) that carry her probe for outcome pairs of parity
# a ^ b = 0 and 1.
_PARITY_BLOCKS = ((0, 1), (2, 3))


@dataclass(frozen=True)
class AttackParams:
    """Attack strength D (the error rate it causes) and Eve's measurement."""

    disturbance: float
    eve_measurement: str = HELSTROM_BINARY

    def __post_init__(self):
        _check("disturbance", self.disturbance, 0.0, 0.5)
        if self.eve_measurement not in EVE_MEASUREMENTS:
            raise ValueError(
                f"unknown eve_measurement {self.eve_measurement!r}; "
                f"choose from {EVE_MEASUREMENTS}")


@dataclass(frozen=True)
class SymbolDistribution:
    """Joint table P(a, b, e) after sifting, shape (2, 2, |E|)."""

    table: np.ndarray

    def __post_init__(self):
        t = _check_array("symbol table", self.table, 0.0, 1.0, (2, 2, None))
        if t.shape[2] not in (2, 4):
            raise ValueError(f"expected table of shape (2, 2, 2|4), got {t.shape}")
        if abs(t.sum() - 1.0) > 1e-12:
            raise ValueError(f"symbol table sums to {t.sum()!r}, not 1")
        pa = t.sum(axis=(1, 2))
        if np.max(np.abs(pa - 0.5)) > 1e-10:
            raise ValueError(f"sender marginal {pa} is not uniform")
        object.__setattr__(self, "table", t)

    @property
    def num_eve_symbols(self):
        return self.table.shape[2]


def bell_weights(d):
    """Bell-basis weights ((1-D)^2, D(1-D), D(1-D), D^2) of the pair state."""
    _check("disturbance", d, 0.0, 0.5)
    return np.array([(1 - d) ** 2, d * (1 - d), d * (1 - d), d ** 2])


def pair_criteria(d):
    """(min_pt_eigenvalue, chsh, singlet_fidelity) of the pair state at
    disturbance d from its Bell weights lam: 1/2 - max lam (Peres 1996),
    2 sqrt(u1 + u2) over the two largest squared correlations
    Tr(rho sigma_i x sigma_i) (Horodecki 1995), and lam_0."""
    lam = bell_weights(d)
    u = np.sort((_BELL_CORRELATIONS @ lam) ** 2)
    return (float(0.5 - lam.max()), float(2.0 * np.sqrt(u[2] + u[1])),
            float(lam[0]))


def symbol_distribution(params):
    """Classical joint distribution P(a, b, e) after sifting.

    The partners measure the z basis; the x basis pairs the registers
    (0, 2) and (1, 3) instead, which gives the same table since
    lam_1 = lam_2. Eve's probe for the outcome pair (a, b) is
    (sqrt(lam_p) |p> +- sqrt(lam_q) |q>) / sqrt(2) on the registers
    (p, q) of parity block a ^ b, and both of her measurements project
    each block on (|p> +- |q>) / sqrt(2). Her guess g of a thus
    has P(a, b, g) = (sqrt(lam_p) + (-1)^(a^g) sqrt(lam_q))^2 / 4. The
    binary (Helstrom) measurement reports e = g; where lam_p lam_q = 0
    the block's two probes coincide and all of it goes to e = 1. The
    square-root measurement reports e = 2g + (g ^ a ^ b), the guess plus
    the parity, so its supports are {0, 3} and {1, 2}.
    """
    root = np.sqrt(bell_weights(params.disturbance))
    four = params.eve_measurement == SQUARE_ROOT_4
    table = np.zeros((2, 2, 4 if four else 2))
    for a, b, g in np.ndindex(2, 2, 2):
        p, q = _PARITY_BLOCKS[a ^ b]
        if four:
            e = 2 * g + (g ^ a ^ b)
        else:
            e = g if root[p] * root[q] else 1
        table[a, b, e] += (root[p] + (-1) ** (a ^ g) * root[q]) ** 2 / 4
    return SymbolDistribution(table)


def error_rate(dist):
    """P(a != b) of a symbol distribution."""
    t = dist.table
    return float(t[0, 1].sum() + t[1, 0].sum())


def h2(p):
    """Binary entropy in bits of each entry of p, clipped into [0, 1],
    with the 0 log 0 = 0 convention. Entries must be finite."""
    p = np.clip(_check_array("probability", p, shape=np.shape(p)), 0.0, 1.0)
    out = np.zeros_like(p)
    inner = (p > 0.0) & (p < 1.0)
    pi = p[inner]
    out[inner] = -pi * np.log2(pi) - (1.0 - pi) * np.log2(1.0 - pi)
    return out


def binary_entropy(p):
    """h2(p) of one probability p in [0, 1], as a float."""
    return float(h2(_check("probability", float(p), 0.0, 1.0)))


def _entropy(p):
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def mutual_information(dist, pair="ab"):
    """I(X;Y) in bits for pair 'ab' (partners) or 'ae' (sender vs Eve)."""
    t = dist.table
    if pair == "ab":
        joint = t.sum(axis=2)
    elif pair == "ae":
        joint = t.sum(axis=1)
    else:
        raise ValueError(f"pair must be 'ab' or 'ae', got {pair!r}")
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    return _entropy(px) + _entropy(py) - _entropy(joint.ravel())


THRESHOLD_KINDS = ("one_way", "chsh", "entanglement")


def threshold(kind, tol=1e-6, eve_measurement=HELSTROM_BINARY):
    """Critical disturbance, located by bisection on [0, 0.5].

    kind "one_way": I(A;B) = I(A;E) under the chosen Eve measurement;
    kind "chsh": maximal CHSH value of the pair state crosses 2;
    kind "entanglement": smallest partial-transpose eigenvalue crosses 0;
    both read pair_criteria. The returned midpoint brackets the root
    within tol.
    """
    if kind not in THRESHOLD_KINDS:
        raise ValueError(f"kind must be one of {THRESHOLD_KINDS}, got {kind!r}")
    _check("tolerance", tol, 1e-6, math.nextafter(0.5, 0.0))

    if kind == "one_way":
        def f(d):
            dist = symbol_distribution(
                AttackParams(d, eve_measurement=eve_measurement))
            return mutual_information(dist, "ab") - mutual_information(dist, "ae")
    elif kind == "chsh":
        def f(d):
            return pair_criteria(d)[1] - 2.0
    else:
        def f(d):
            return -pair_criteria(d)[0]

    lo, hi = 0.0, 0.5
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise RuntimeError(
            f"no sign change for {kind} threshold on [0, 0.5]; "
            "the attack family is broken")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if np.sign(fm) == np.sign(flo):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)
