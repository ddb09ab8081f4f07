"""Polarized Gaussian pulses through birefringent delay and lossy
post-selection elements, and the time-of-arrival statistics they imprint.

A delay element (differential group delay dtau between orthogonal
polarization modes) splits the field on its eigenmodes, slow mode
arriving at +dtau/2 and fast at -dtau/2. A loss element attenuates the
polarization component orthogonal to its axis by gamma_db decibels
(amplitude factor 10^(-gamma_db/20)); infinite attenuation acts as a
projector, i.e. post-selection of a pure polarization.

For a Gaussian envelope exp(-t^2 / (2 t_c^2)) the mean time of arrival
after one delay element and one post element has the closed form

    <t> = (dtau/2) (|a|^2 - |b|^2)
          / (|a|^2 + |b|^2 + 2 exp(-dtau^2/(4 t_c^2)) Re<a, b>)

with a, b the post-element images of the slow and fast components. Its
dtau -> 0 limit is the two-state pointer-shift prediction

    <t>_weak = (dtau/2) Re <psi| Pi sigma |psi> / <psi| Pi |psi>,

Pi = K^dag K the post-selection operator and sigma the +1/-1 operator
on the delay eigenmodes. The field's numeric integrals below are the
independent cross-check for both.

A chain of elements leaves a field E(t) = sum_j a_j exp(-(t-d_j)^2/(2 t_c^2)),
one term per path through its delay sections, except that terms whose
delays coincide within 4 ulps merge as the chain is built: k sections of
one delay keep at most k + 1 terms, not 2^k.
Its energy and mean arrival time are the integrals of |E|^2 and t |E|^2,
taken by the trapezoid rule on a uniform grid of step t_c/2.5 around each
cluster of delays (clusters split at gaps over 15 t_c; a grid reaches
7.5 t_c past its outer delays). Every Gaussian is evaluated in units of
t_c from its cluster's first delay, never in absolute time, so the sums
hold from t_c near the smallest subnormal to delays near the largest
float. Every cross term of |E|^2 is a Gaussian
of width t_c/sqrt(2), so the rule errs by at most 2 exp(-6.25 pi^2) ~ 3e-27
relative (Trefethen & Weideman, SIAM Review 56, 385, 2014) and the cut
grid by erfc(7.5) ~ 3e-26; round-off dominates. The cost is terms x nodes,
paid once per field: energy and mean arrival time share one cached sum.
A pulse counts as blocked when at most BLOCKED_FRACTION of its input
energy passes.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._checks import check as _check, check_array as _check_array

RESOLUTION_STEP = 1.0 / 20.0  # coarsest safe grid step, in units of t_c
DEFAULT_STEP = 1.0 / 100.0
DEFAULT_PAD = 6.0  # grid half-span beyond the accumulated delays, in t_c
# Largest time grid default_time_grid builds: one CSV row per point in
# `weak profile`, which streams its rows and samples the field once; at
# this size the run peaks at 100 MB RSS (Python 3.11, numpy 2.4).
MAX_GRID_POINTS = 1_000_000
# Trapezoid quadrature behind PropagatedField.energy and mean_toa.
QUAD_STEP = 1.0 / 2.5  # node spacing, in units of t_c
QUAD_PAD = 7.5  # node reach beyond a cluster's outer delays, in units of t_c
QUAD_BLOCK = 1 << 18  # floats per exp block, in quadrature and sample: 2 MB
# Transmitted share of the input energy (unit Jones vector) at or below
# which a pulse counts as blocked: arrival times and weak values raise.
BLOCKED_FRACTION = 1e-12


def jones_linear(theta):
    """Unit Jones vector of linear polarization at angle theta."""
    _check("angle theta", theta)
    return np.array([np.cos(theta), np.sin(theta)], dtype=complex)


def jones_elliptical(theta, phi):
    """Unit Jones vector (cos theta, e^{i phi} sin theta)."""
    _check("angle theta", theta)
    _check("angle phi", phi)
    return np.array([np.cos(theta), np.exp(1j * phi) * np.sin(theta)])


def _unit_jones(jones):
    v = np.asarray(jones, dtype=complex)
    if v.shape != (2,):
        raise ValueError(f"Jones vector must have two components, got {v.shape}")
    norm = np.linalg.norm(v)
    _check("Jones vector norm", norm, 1e-12)
    return v / norm


@dataclass(frozen=True, eq=False)
class PolarizedPulse:
    """Gaussian pulse of width t_c with a unit Jones polarization vector."""

    t_c: float
    jones: np.ndarray

    def __post_init__(self):
        _check("pulse width", self.t_c, math.ulp(0.0))
        object.__setattr__(self, "jones", _unit_jones(self.jones))


@dataclass(frozen=True)
class PmdElement:
    """Differential delay delta_tau between the modes of a linear axis."""

    delta_tau: float
    axis: float = 0.0

    def __post_init__(self):
        _check("delay", self.delta_tau)
        _check("angle axis", self.axis)

    def slow_fast(self):
        s = np.array([np.cos(self.axis), np.sin(self.axis)])
        f = np.array([-np.sin(self.axis), np.cos(self.axis)])
        return s, f


@dataclass(frozen=True)
class PdlElement:
    """Attenuation of the mode orthogonal to axis by gamma_db decibels."""

    gamma_db: float
    axis: float = 0.0

    def __post_init__(self):
        _check("attenuation", self.gamma_db, 0.0, math.inf)
        _check("angle axis", self.axis)

    def amplitude_transmission(self):
        return 10.0 ** (-self.gamma_db / 20.0)

    def jones_matrix(self):
        c, s = np.cos(self.axis), np.sin(self.axis)
        rot = np.array([[c, -s], [s, c]])
        return rot @ np.diag([1.0, self.amplitude_transmission()]) @ rot.T


def analyzer(theta):
    """Projector on linear polarization theta, as an infinite-loss element."""
    return PdlElement(gamma_db=np.inf, axis=theta)


class PropagatedField:
    """Two-component field as a superposition of delayed Gaussian terms."""

    def __init__(self, t_c, delays, amps):
        self.t_c = float(_check("pulse width", t_c, math.ulp(0.0)))
        # Read-only copies: the integrals below are cached per field.
        self.delays = _check_array("delays", delays).copy()
        self.amps = np.array(amps, dtype=complex).reshape(-1, 2)
        self.delays.flags.writeable = self.amps.flags.writeable = False
        if self.delays.shape[0] != self.amps.shape[0]:
            raise ValueError("delays and amplitudes differ in length")
        # A finite spread keeps every delay difference in _trapezoid finite;
        # in Python floats it overflows to inf without a warning.
        spread = (float(self.delays.max()) - float(self.delays.min())
                  if self.delays.size else 0.0)
        if not (math.isfinite(spread) and np.isfinite(self.amps).all()):
            raise ValueError("delay spread and amplitudes must be finite")

    def sample(self, t):
        """Complex field components on a time grid, shape (len(t), 2).

        t is a finite 1-D grid. The terms x points exponentials are built
        a block of points at a time, each within the QUAD_BLOCK budget.
        """
        t = _check_array("sample times", t)
        out = np.empty((t.shape[0], 2), dtype=complex)
        points = max(QUAD_BLOCK // max(self.delays.size, 1), 1)
        for lo in range(0, t.shape[0], points):
            x = np.subtract.outer(self.delays, t[lo:lo + points])
            # An overflow gives x * x = inf, so exp() = 0: the pulse is gone.
            with np.errstate(over="ignore"):
                x /= self.t_c
                x *= x
            x *= -0.5
            out[lo:lo + points] = np.einsum("jt,jc->tc", np.exp(x, out=x),
                                            self.amps)
        return out

    def intensity(self, t):
        """Per-component intensity on a grid, shape (len(t), 2)."""
        e = self.sample(t)
        return (e.real ** 2 + e.imag ** 2)

    @functools.cached_property
    def _moments(self):
        """The field's trapezoid sums, computed on first use."""
        return self._trapezoid()

    def _trapezoid(self):
        """Trapezoid sums of |E|^2 and u |E|^2 per cluster of delays.

        Node offsets u are in units of t_c from the cluster's first delay,
        so no Gaussian is evaluated in absolute time. Returns the clusters'
        first delays, their sums of |E|^2 and their sums of u |E|^2; a
        field without terms has no cluster. Each block of nodes takes
        every term of its cluster in one exp product, as many nodes as
        the QUAD_BLOCK budget leaves.
        """
        order = np.argsort(self.delays, kind="stable")
        d = self.delays[order]
        a = self.amps[order].view(float)  # (terms, 4): re, im of x and y
        cuts = np.flatnonzero(np.diff(d) > 2.0 * QUAD_PAD * self.t_c) + 1
        bounds = [0, *cuts.tolist(), d.size] if d.size else []
        starts, energy, first = [], [], []
        for lo, hi in zip(bounds, bounds[1:]):
            u = (d[lo:hi] - d[lo]) / self.t_c
            count = int(np.ceil((u[-1] + 2.0 * QUAD_PAD) / QUAD_STEP)) + 1
            nodes = max(QUAD_BLOCK // u.size, 1)
            w_sum = u_sum = 0.0
            for start in range(0, count, nodes):
                x = QUAD_STEP * np.arange(start, min(start + nodes, count)) \
                    - QUAD_PAD
                g = np.subtract.outer(x, u)
                g *= g
                g *= -0.5
                e = np.exp(g, out=g) @ a[lo:hi]
                w = np.einsum("ij,ij->i", e, e)
                w_sum += w.sum()
                u_sum += x @ w
            starts.append(d[lo])
            energy.append(w_sum)
            first.append(u_sum)
        return starts, energy, first

    def energy(self):
        """Total pulse energy, integrated on the trapezoid grid."""
        return float(QUAD_STEP * sum(self._moments[1]) * self.t_c)

    def mean_toa(self):
        """Intensity-weighted mean arrival time, on the trapezoid grid:
        the clusters' first delays weighted by their energy shares, plus
        t_c times the mean node offset."""
        starts, energy, first = self._moments
        total = sum(energy)
        if QUAD_STEP * total > BLOCKED_FRACTION * np.sqrt(np.pi):
            return float(sum(e / total * s for e, s in zip(energy, starts))
                         + self.t_c * (sum(first) / total))
        raise ValueError("no transmitted energy: the field is fully blocked")


def _merge_coincident(delays, amps):
    """Merge terms whose sorted delays lie within 4 ulps of the largest
    |delay|, as +-dtau/2 sums in other path orders do, into one term at the
    first, in ascending order; a subnormal or infinite tolerance merges only
    equal delays. Without a merge the terms are returned unchanged."""
    d = np.sort(delays)
    tol = 4.0 * math.ulp(max(-d[0], d[-1])) if d.size else 0.0
    tol = tol if 2.0 ** -1022 <= tol < math.inf else 0.0
    rises = d[1:] > d[:-1] + tol
    if np.count_nonzero(rises) == rises.size:
        return delays, amps
    first = np.concatenate(([True], rises)).nonzero()[0]
    order = np.argsort(delays, kind="stable")
    return d[first], np.add.reduceat(amps[order], first, axis=0)


def propagate(pulse, elements):
    """Send a pulse through an ordered chain of delay and loss elements.

    An empty chain returns the input as a one-term field. A delay section
    sends each term's slow and fast components to two new terms; terms
    whose delays then coincide within 4 ulps merge into one, so k sections
    of one delay keep at most k + 1 terms, not 2^k. Where none coincide, the
    terms keep one per path, in chain order. Terms of zero amplitude are
    dropped. Output energy never exceeds the input energy and is
    conserved exactly when the chain contains no loss element.
    """
    delays, amps = np.zeros(1), pulse.jones[None, :]
    # A delay past the float range becomes inf, which PropagatedField
    # rejects with a ValueError.
    with np.errstate(over="ignore"):
        for element in elements:
            if isinstance(element, PmdElement):
                slow, fast = (m.astype(complex) for m in element.slow_fast())
                half = element.delta_tau / 2.0
                # Slow-mode terms at +half first, then fast at -half.
                delays, amps = _merge_coincident(
                    np.add.outer((half, -half), delays).ravel(),
                    np.concatenate([(amps @ slow)[:, None] * slow,
                                    (amps @ fast)[:, None] * fast]))
            elif isinstance(element, PdlElement):
                amps = amps @ element.jones_matrix().T.astype(complex)
            else:
                raise ValueError(f"unknown element {element!r}")
            keep = amps.any(axis=1)
            if np.count_nonzero(keep) < keep.size:
                delays, amps = delays[keep], amps[keep]
    return PropagatedField(pulse.t_c, delays, amps)


def default_time_grid(field, step=None, span=None):
    """Uniform symmetric grid covering the field, default step t_c/100."""
    t_c = field.t_c
    if step is None:
        step = DEFAULT_STEP * t_c
    if span is None:
        extent = np.max(np.abs(field.delays)) if field.delays.size else 0.0
        span = DEFAULT_PAD * t_c + extent
    # Python floats: the point count below overflows to inf, not a warning.
    step = float(_check("grid step", step, math.ulp(0.0)))
    span = float(_check("grid span", span, math.ulp(0.0)))
    if span / step > (MAX_GRID_POINTS - 1) // 2:
        raise ValueError(f"a grid of span {span} and step {step} exceeds "
                         f"{MAX_GRID_POINTS} points")
    if step > RESOLUTION_STEP * t_c:
        warnings.warn(
            f"grid step {step} exceeds t_c/20 = {RESOLUTION_STEP * t_c}; "
            "the sampled profile is under-resolved", stacklevel=2)
    half = int(np.ceil(span / step))
    return np.linspace(-half * step, half * step, 2 * half + 1)


def mean_toa_numeric(field):
    """Mean arrival time of the total detected intensity: field.mean_toa().

    The detector integrates both polarization components; pass the field
    through an analyzer first to model a polarization-resolved detector.
    """
    return field.mean_toa()


def _post_operator(post):
    if post is None:
        return np.eye(2, dtype=complex)
    return post.jones_matrix().astype(complex)


_BLOCKED = "no transmitted energy: post-selection blocks the pulse"
_ORTHOGONAL = ("post-selection is (nearly) orthogonal to the input; "
               "the weak-value prediction diverges")


def _check_den(den, message):
    """Raise if a denominator (a float or an array) is at most
    BLOCKED_FRACTION anywhere."""
    if np.any(den <= BLOCKED_FRACTION):
        raise ValueError(message)


def _section_terms(jones, pmd, post):
    """The delay-independent terms of one delay and one post element:
    |a|^2, |b|^2 and 2 Re<a, b> of the closed form, and
    Re<psi|Pi sigma|psi> and <psi|Pi|psi> of the weak value. Only the
    axis of pmd enters."""
    slow, fast = pmd.slow_fast()
    k = _post_operator(post)
    a = (jones @ slow.astype(complex)) * (k @ slow.astype(complex))
    b = (jones @ fast.astype(complex)) * (k @ fast.astype(complex))
    pi = k.conj().T @ k
    sigma = (np.outer(slow, slow) - np.outer(fast, fast)).astype(complex)
    return (float(np.vdot(a, a).real), float(np.vdot(b, b).real),
            2.0 * float(np.vdot(a, b).real),
            float(np.real(jones.conj() @ pi @ sigma @ jones)),
            float(np.real(jones.conj() @ pi @ jones)))


def _closed_toa(terms, dtau, t_c):
    """Closed-form arrival time and its denominator at delay dtau, a float
    or an array. Where the denominator is at most BLOCKED_FRACTION the
    time is meaningless and the caller raises."""
    na, nb, cross = terms[:3]
    # x * x may overflow to inf, giving exp(-inf) = 0: the resolved limit.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = dtau / (2.0 * t_c)
        den = na + nb + np.exp(-x * x) * cross
        return (dtau / 2.0) * (na - nb) / den, den


def mean_toa_closed(pulse, pmd, post=None):
    """Closed-form mean arrival time after one delay and one post element."""
    toa, den = _closed_toa(_section_terms(pulse.jones, pmd, post),
                           float(pmd.delta_tau), float(pulse.t_c))
    _check_den(den, _BLOCKED)
    return float(toa)


def weak_value(pre, pmd, post=None):
    """Pointer-shift prediction in the weak-coupling limit.

    pre is a Jones vector. For a pure post-selection this reduces to
    (dtau/2) Re[<psi_f|sigma|psi_i> / <psi_f|psi_i>]; nearly orthogonal
    pure post-selection (overlap at most BLOCKED_FRACTION) raises instead
    of returning a diverging number.
    """
    *_, num, den = _section_terms(_unit_jones(pre), pmd, post)
    _check_den(den, _ORTHOGONAL)
    return float((pmd.delta_tau / 2.0) * num / den)


def discrimination_error(delta_tau, t_c):
    """Error of telling the two delay eigenmodes apart by arrival-time sign."""
    _check("delay", delta_tau, 0.0)
    _check("pulse width", t_c, math.ulp(0.0))
    return 0.5 * math.erfc(delta_tau / (2.0 * t_c))


def peak_separation(t, intensity):
    """Distance between the outer local maxima of an intensity sampled on
    a 1-D grid t, both finite; zero for a single peak (unresolved regime).
    """
    t = _check_array("sample times", t)
    y = _check_array("intensities", intensity, shape=t.shape)
    inner = (y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:])
    peaks = np.flatnonzero(inner) + 1
    if peaks.size < 2:
        return 0.0
    return float(t[peaks[-1]] - t[peaks[0]])


@dataclass(frozen=True)
class TransitionRow:
    """One point of the weak-to-strong sweep."""

    ratio: float
    delta_tau: float
    toa_exact: float
    toa_weak: float
    abs_error: float
    discrimination_error: float


def toa_transition_sweep(pre, post, delta_tau_grid, t_c):
    """Exact vs weak-limit arrival times across delay-to-width ratios.

    pre is the Jones vector of a pulse of width t_c. The absolute error
    column divided by dtau/2 (the pointer scale) falls off quadratically
    in dtau/t_c as the coupling weakens; the discrimination-error column
    quantifies the strong, two-peak end.

    Only the delay changes along the grid: the 2x2 terms are computed
    once, and the closed form and the weak value are evaluated on the
    whole grid as arrays in the operation order of mean_toa_closed and
    weak_value, so each row equals mean_toa_closed(PolarizedPulse(t_c,
    pre), ...) and weak_value(pre, ...) bit for bit. The grid must be
    1-D, positive and finite. A blocked first point raises before an
    orthogonal post-selection does, any other blocked point after it.
    """
    grid = _check_array("delay grid", delta_tau_grid, math.ulp(0.0))
    psi = _unit_jones(pre)
    if grid.size == 0:
        return []
    _check("pulse width", t_c, math.ulp(0.0))
    # psi is the vector PolarizedPulse(t_c, pre) and weak_value(pre, ...)
    # use: pre normalised once.
    *terms, num, den = _section_terms(psi, PmdElement(0.0), post)
    exact, exact_den = _closed_toa(terms, grid, float(t_c))
    _check_den(exact_den[0], _BLOCKED)
    _check_den(den, _ORTHOGONAL)
    _check_den(exact_den, _BLOCKED)
    weak = (grid / 2.0) * num / den
    dtau = grid.tolist()
    # Past the float range the ratio reads inf, silently as in _closed_toa.
    with np.errstate(over="ignore"):
        ratio = grid / t_c
    # The last column is discrimination_error without its range checks,
    # which the pulse and the grid have passed.
    return list(map(TransitionRow, ratio.tolist(), dtau,
                    exact.tolist(), weak.tolist(),
                    np.abs(exact - weak).tolist(),
                    [0.5 * math.erfc(d / (2.0 * t_c)) for d in dtau]))
