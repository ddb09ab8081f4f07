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
and entanglement as exact roots. It also holds the package's binary entropy h2,
which distill reads. Both the pair state's criteria and Eve's symbol
tables are closed forms in the four Bell weights, so no density matrix
is built and no measurement is diagonalised: each of her probes lies in a
two-register parity block, and both measurements project that block on
(|p> +- |q>) / sqrt(2). The square-root outcome is her guess plus the
pair parity, so its supports {0, 3} and {1, 2} hold by construction.
Since lam_1 = lam_2, both protocol bases give the same table. The
three-party state and the diagonalised measurements are the test oracle
in tests/eve_tables.py, and a bisection on the mutual informations and
pair_criteria is the oracle for the roots in tests/threshold_oracle.py.
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

PROB_ATOL = 1e-12  # rounding past 0 or 1: the table sum test, h2's band

# Eve's registers (p, q) that carry her probe for outcome pairs of parity
# a ^ b = 0 and 1.
_PARITY_BLOCKS = ((0, 1), (2, 3))


def _check_eve(eve_measurement):
    """Raise ValueError unless eve_measurement is in EVE_MEASUREMENTS."""
    if eve_measurement not in EVE_MEASUREMENTS:
        raise ValueError(
            f"unknown eve_measurement {eve_measurement!r}; "
            f"choose from {EVE_MEASUREMENTS}")


@dataclass(frozen=True)
class AttackParams:
    """Attack strength D (the error rate it causes) and Eve's measurement."""

    disturbance: float
    eve_measurement: str = HELSTROM_BINARY

    def __post_init__(self):
        _check("disturbance", self.disturbance, 0.0, 0.5)
        _check_eve(self.eve_measurement)


@dataclass(frozen=True)
class SymbolDistribution:
    """Joint table P(a, b, e) after sifting, shape (2, 2, |E|)."""

    table: np.ndarray

    def __post_init__(self):
        t = _check_array("symbol table", self.table, 0.0, 1.0, (2, 2, None))
        if t.shape[2] not in (2, 4):
            raise ValueError(f"expected table of shape (2, 2, 2|4), got {t.shape}")
        if abs(t.sum() - 1.0) > PROB_ATOL:
            raise ValueError(f"symbol table sums to {t.sum()!r}, not 1")
        pa = t.sum(axis=(1, 2))
        if np.max(np.abs(pa - 0.5)) > 1e-10:
            raise ValueError(f"sender marginal {pa} is not uniform")
        # A read-only copy: check_array may return the caller's own array.
        t = t.copy()
        t.flags.writeable = False
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
    """Binary entropy in bits of each entry of p, with 0 log 0 = 0. Entries
    must lie within PROB_ATOL of [0, 1], and are clipped into [0, 1]."""
    p = np.clip(_check_array("probability", p, -PROB_ATOL, 1.0 + PROB_ATOL,
                             np.shape(p)), 0.0, 1.0)
    out = np.zeros_like(p)
    inner = (p > 0.0) & (p < 1.0)
    pi = p[inner]
    out[inner] = -pi * np.log2(pi) - (1.0 - pi) * np.log2(1.0 - pi)
    return out


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


# The critical disturbances of this attack family (Fuchs, Gisin,
# Griffiths, Niu & Peres, PRA 56, 1163 (1997); Gisin & Huttner, Phys.
# Lett. A 228, 13 (1997)), written without cancellation: each is the
# correctly rounded root, where (1 - 1/sqrt 2)/2 and 1 - sqrt(1/2) miss it
# by one ulp.
_ONE_WAY_ROOT = 0.5 / (2.0 + math.sqrt(2.0))
_THRESHOLDS = {"one_way": _ONE_WAY_ROOT, "chsh": _ONE_WAY_ROOT,
               "entanglement": 1.0 / (2.0 + math.sqrt(2.0))}
THRESHOLD_KINDS = tuple(_THRESHOLDS)


def threshold(kind, tol=1e-6, eve_measurement=HELSTROM_BINARY):
    """Critical disturbance of the attack family, in closed form.

    kind "one_way": I(A;B) = 1 - h(D) meets I(A;E) = 1 - h(1/2 -
    sqrt(D(1-D))), under either Eve measurement, at (1 - 1/sqrt 2)/2;
    kind "chsh": the CHSH value 2 sqrt 2 (1 - 2D) crosses 2 at that same
    root, so both kinds return one number;
    kind "entanglement": the smallest partial-transpose eigenvalue
    1/2 - (1-D)^2 crosses 0 at 1 - 1/sqrt 2.
    tol is the accuracy asked for and must lie in [1e-6, 0.5); an exact
    root meets any such tol. tests/threshold_oracle.py locates the same
    roots by bisection on mutual_information and pair_criteria.
    """
    if kind not in THRESHOLD_KINDS:
        raise ValueError(f"kind must be one of {THRESHOLD_KINDS}, got {kind!r}")
    _check("tolerance", tol, 1e-6, math.nextafter(0.5, 0.0))
    _check_eve(eve_measurement)
    return _THRESHOLDS[kind]
