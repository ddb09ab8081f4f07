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
on the delay eigenmodes. Numeric integration of sampled intensity
profiles provides the independent cross-check for both.

A chain of elements leaves a field E(t) = sum_j a_j exp(-(t-d_j)^2/(2 t_c^2)).
Its energy and mean arrival time are the integrals of |E|^2 and t |E|^2,
taken by the trapezoid rule on a uniform grid of step t_c/2.5 around each
cluster of delays (clusters split at gaps over 15 t_c; a grid reaches
7.5 t_c past its outer delays). Every cross term of |E|^2 is a Gaussian
of width t_c/sqrt(2), so the rule errs by at most 2 exp(-6.25 pi^2) ~ 3e-27
relative (Trefethen & Weideman, SIAM Review 56, 385, 2014) and the cut
grid by erfc(7.5) ~ 3e-26; round-off dominates. The cost is terms x nodes.
A pulse counts as blocked when at most BLOCKED_FRACTION of its input
energy passes.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

RESOLUTION_STEP = 1.0 / 20.0  # coarsest safe grid step, in units of t_c
DEFAULT_STEP = 1.0 / 100.0
DEFAULT_PAD = 6.0  # grid half-span beyond the accumulated delays, in t_c
# Largest time grid default_time_grid builds: one CSV row per point in
# `weak profile`, about 100 MB of rows in memory at this size.
MAX_GRID_POINTS = 1_000_000
# Trapezoid quadrature behind PropagatedField.energy and mean_toa.
QUAD_STEP = 1.0 / 2.5  # node spacing, in units of t_c
QUAD_PAD = 7.5  # node reach beyond a cluster's outer delays, in units of t_c
QUAD_BLOCK = (128, 2048)  # nodes x terms per exp block: 2 MB of float64
# Transmitted share of the input energy (unit Jones vector) at or below
# which a pulse counts as blocked: arrival times and weak values raise.
BLOCKED_FRACTION = 1e-12


def _check_angle(name, value):
    if not math.isfinite(value):
        raise ValueError(f"angle {name} must be finite, got {value}")


def jones_linear(theta):
    """Unit Jones vector of linear polarization at angle theta."""
    _check_angle("theta", theta)
    return np.array([np.cos(theta), np.sin(theta)], dtype=complex)


def jones_elliptical(theta, phi):
    """Unit Jones vector (cos theta, e^{i phi} sin theta)."""
    _check_angle("theta", theta)
    _check_angle("phi", phi)
    return np.array([np.cos(theta), np.exp(1j * phi) * np.sin(theta)])


def _unit_jones(jones):
    v = np.asarray(jones, dtype=complex)
    if v.shape != (2,):
        raise ValueError(f"Jones vector must have two components, got {v.shape}")
    norm = np.linalg.norm(v)
    if not math.isfinite(norm):
        raise ValueError(f"Jones vector must be finite, got {v}")
    if norm < 1e-12:
        raise ValueError("Jones vector must be nonzero")
    return v / norm


@dataclass(frozen=True, eq=False)
class PolarizedPulse:
    """Gaussian pulse of width t_c with a unit Jones polarization vector."""

    t_c: float
    jones: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.t_c < math.inf:
            raise ValueError(f"pulse width must be finite and positive, "
                             f"got {self.t_c}")
        object.__setattr__(self, "jones", _unit_jones(self.jones))


@dataclass(frozen=True)
class PmdElement:
    """Differential delay delta_tau between the modes of a linear axis."""

    delta_tau: float
    axis: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.delta_tau):
            raise ValueError(f"delay must be finite, got {self.delta_tau}")
        _check_angle("axis", self.axis)

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
        if not self.gamma_db >= 0.0:
            raise ValueError(f"attenuation must be >= 0 dB, got {self.gamma_db}")
        _check_angle("axis", self.axis)

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
        self.t_c = float(t_c)
        self.delays = np.atleast_1d(np.asarray(delays, dtype=float))
        self.amps = np.asarray(amps, dtype=complex).reshape(-1, 2)
        if self.delays.shape[0] != self.amps.shape[0]:
            raise ValueError("delays and amplitudes differ in length")

    def sample(self, t):
        """Complex field components on a time grid, shape (len(t), 2)."""
        t = np.asarray(t, dtype=float)
        g = np.exp(-((t[None, :] - self.delays[:, None]) ** 2)
                   / (2.0 * self.t_c ** 2))
        return np.einsum("jt,jc->tc", g, self.amps)

    def intensity(self, t):
        """Per-component intensity on a grid, shape (len(t), 2)."""
        e = self.sample(t)
        return (e.real ** 2 + e.imag ** 2)

    def _moments(self):
        """Integrals of |E(t)|^2 and t |E(t)|^2 by the trapezoid rule.

        A node block sums only the terms within 2 QUAD_PAD t_c of it:
        farther terms enter |E|^2 below exp(-112) of their amplitude.
        """
        order = np.argsort(self.delays, kind="stable")
        d = self.delays[order]
        a = self.amps[order].view(float)  # (terms, 4): re, im of x and y
        h, pad = QUAD_STEP * self.t_c, QUAD_PAD * self.t_c
        nodes, chunk = QUAD_BLOCK
        cuts = np.flatnonzero(np.diff(d) > 2.0 * pad) + 1
        energy = first = 0.0
        for lo, hi in zip(d[np.r_[0, cuts]], d[np.r_[cuts - 1, d.size - 1]]):
            count = int(np.ceil((hi - lo + 2.0 * pad) / h)) + 1
            for start in range(0, count, nodes):
                t = (lo - pad) + h * np.arange(start, min(start + nodes, count))
                j0, j1 = np.searchsorted(d, [t[0] - 2.0 * pad,
                                             t[-1] + 2.0 * pad])
                e = np.zeros((t.size, 4))
                for j in range(j0, j1, chunk):
                    k = min(j + chunk, j1)
                    g = np.subtract.outer(t, d[j:k])
                    g *= g
                    g *= -0.5 / self.t_c ** 2
                    e += np.exp(g, out=g) @ a[j:k]
                w = np.einsum("ij,ij->i", e, e)
                energy += w.sum()
                first += t @ w
        return h * energy, h * first

    def energy(self):
        """Total pulse energy, integrated on the trapezoid grid."""
        if self.amps.shape[0] == 0:
            return 0.0
        return float(self._moments()[0])

    def mean_toa(self):
        """Intensity-weighted mean arrival time, on the trapezoid grid."""
        if self.amps.shape[0] == 0:
            raise ValueError("no transmitted energy: the field is fully blocked")
        energy, first = self._moments()
        if energy <= BLOCKED_FRACTION * np.sqrt(np.pi) * self.t_c:
            raise ValueError("no transmitted energy: the field is fully blocked")
        return float(first / energy)


def propagate(pulse, elements):
    """Send a pulse through an ordered chain of delay and loss elements.

    An empty chain returns the input as a one-term field. Output energy
    never exceeds the input energy and is conserved exactly when the
    chain contains no loss element.
    """
    field = PropagatedField(pulse.t_c, [0.0], pulse.jones[None, :])
    for element in elements:
        if isinstance(element, PmdElement):
            slow, fast = element.slow_fast()
            cs = field.amps @ slow.astype(complex)
            cf = field.amps @ fast.astype(complex)
            delays = np.concatenate([field.delays + element.delta_tau / 2.0,
                                     field.delays - element.delta_tau / 2.0])
            amps = np.vstack([np.outer(cs, slow), np.outer(cf, fast)])
            keep = (np.abs(amps) ** 2).sum(axis=1) > 0.0
            field = PropagatedField(field.t_c, delays[keep], amps[keep])
        elif isinstance(element, PdlElement):
            amps = field.amps @ element.jones_matrix().T.astype(complex)
            keep = (np.abs(amps) ** 2).sum(axis=1) > 0.0
            field = PropagatedField(field.t_c, field.delays[keep], amps[keep])
        else:
            raise ValueError(f"unknown element {element!r}")
    return field


def default_time_grid(field, step=None, span=None):
    """Uniform symmetric grid covering the field, default step t_c/100."""
    t_c = field.t_c
    if step is None:
        step = DEFAULT_STEP * t_c
    if span is None:
        extent = np.max(np.abs(field.delays)) if field.delays.size else 0.0
        span = DEFAULT_PAD * t_c + extent
    if not (0.0 < step < math.inf and 0.0 < span < math.inf):
        raise ValueError(f"grid step {step} and span {span} must be finite "
                         "and positive")
    if span / step > (MAX_GRID_POINTS - 1) // 2:
        raise ValueError(f"a grid of span {span} and step {step} exceeds "
                         f"{MAX_GRID_POINTS} points")
    if step > RESOLUTION_STEP * t_c:
        warnings.warn(
            f"grid step {step} exceeds t_c/20 = {RESOLUTION_STEP * t_c}; "
            "the sampled profile is under-resolved", stacklevel=2)
    half = int(np.ceil(span / step))
    return np.linspace(-half * step, half * step, 2 * half + 1)


def _simpson(y, x):
    """Composite Simpson integral of samples y on an increasing grid x.

    Interval pairs use the three-point rule for unequal spacings; with an
    even sample count the last interval gets Cartwright's correction.
    """
    if y.size < 3:
        raise ValueError("Simpson's rule needs at least three samples")
    h = np.diff(x)
    m = (y.size - 1) // 2 * 2  # samples 0..m are covered by interval pairs
    h0, h1 = h[0:m:2], h[1:m:2]
    hsum, h0divh1 = h0 + h1, h0 / h1
    total = np.sum(hsum / 6.0 * (y[0:m:2] * (2.0 - 1.0 / h0divh1)
                                 + y[1:m:2] * (hsum * (hsum / (h0 * h1)))
                                 + y[2:m + 1:2] * (2.0 - h0divh1)))
    if m < y.size - 1:
        a, b = h[-2], h[-1]
        total += ((2 * b ** 2 + 3 * a * b) / (6 * (b + a)) * y[-1]
                  + (b ** 2 + 3.0 * a * b) / (6 * a) * y[-2]
                  - b ** 3 / (6 * a * (a + b)) * y[-3])
    return total


def _sampled_mean(t, intensity, floor):
    t = np.asarray(t, dtype=float)
    intensity = np.asarray(intensity, dtype=float)
    total = _simpson(intensity, t)
    if total <= floor:
        raise ValueError("no transmitted energy in the sampled profile")
    return float(_simpson(t * intensity, t) / total)


def mean_toa_from_samples(t, intensity):
    """Composite-Simpson mean arrival time of a sampled intensity."""
    return _sampled_mean(t, intensity, 0.0)


def mean_toa_numeric(field, t=None):
    """Mean arrival time of the total detected intensity on a grid.

    The detector integrates both polarization components; pass the field
    through an analyzer first to model a polarization-resolved detector.
    """
    if t is None:
        t = default_time_grid(field)
    else:
        t = np.asarray(t, dtype=float)
        steps = np.diff(t)
        if steps.size and np.median(steps) > RESOLUTION_STEP * field.t_c:
            warnings.warn("grid step exceeds t_c/20; the sampled profile "
                          "is under-resolved", stacklevel=2)
    return _sampled_mean(t, field.intensity(t).sum(axis=1),
                         BLOCKED_FRACTION * np.sqrt(np.pi) * field.t_c)


def _post_operator(post):
    if post is None:
        return np.eye(2, dtype=complex)
    if isinstance(post, PdlElement):
        return post.jones_matrix().astype(complex)
    return np.asarray(post, dtype=complex).reshape(2, 2)


def mean_toa_closed(pulse, pmd, post=None):
    """Closed-form mean arrival time after one delay and one post element."""
    slow, fast = pmd.slow_fast()
    k = _post_operator(post)
    a = (pulse.jones @ slow.astype(complex)) * (k @ slow.astype(complex))
    b = (pulse.jones @ fast.astype(complex)) * (k @ fast.astype(complex))
    na = float(np.vdot(a, a).real)
    nb = float(np.vdot(b, b).real)
    cross = 2.0 * float(np.vdot(a, b).real)
    overlap = np.exp(-pmd.delta_tau ** 2 / (4.0 * pulse.t_c ** 2))
    den = na + nb + overlap * cross
    if den <= BLOCKED_FRACTION:
        raise ValueError("no transmitted energy: post-selection blocks the pulse")
    return float((pmd.delta_tau / 2.0) * (na - nb) / den)


def weak_value(pre, pmd, post=None):
    """Pointer-shift prediction in the weak-coupling limit.

    pre may be a pulse or a Jones vector. For a pure post-selection this
    reduces to (dtau/2) Re[<psi_f|sigma|psi_i> / <psi_f|psi_i>]; nearly
    orthogonal pure post-selection (overlap at most BLOCKED_FRACTION) raises
    instead of returning a diverging number.
    """
    psi = pre.jones if isinstance(pre, PolarizedPulse) else _unit_jones(pre)
    slow, fast = pmd.slow_fast()
    k = _post_operator(post)
    pi = k.conj().T @ k
    sigma = (np.outer(slow, slow) - np.outer(fast, fast)).astype(complex)
    den = float(np.real(psi.conj() @ pi @ psi))
    if den <= BLOCKED_FRACTION:
        raise ValueError(
            "post-selection is (nearly) orthogonal to the input; "
            "the weak-value prediction diverges")
    num = float(np.real(psi.conj() @ pi @ sigma @ psi))
    return float((pmd.delta_tau / 2.0) * num / den)


def discrimination_error(delta_tau, t_c):
    """Error of telling the two delay eigenmodes apart by arrival-time sign."""
    return 0.5 * math.erfc(delta_tau / (2.0 * t_c))


def peak_separation(field, t=None):
    """Distance between the outer local maxima of the detected intensity.

    Zero when the profile has a single peak (unresolved regime).
    """
    if t is None:
        t = default_time_grid(field)
    y = field.intensity(t).sum(axis=1)
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
    t_c: float
    toa_exact: float
    toa_weak: float
    abs_error: float
    discrimination_error: float


def toa_transition_sweep(pre, post, delta_tau_grid, t_c):
    """Exact vs weak-limit arrival times across delay-to-width ratios.

    The absolute error column divided by dtau/2 (the pointer scale) falls
    off quadratically in dtau/t_c as the coupling weakens; the
    discrimination-error column quantifies the strong, two-peak end.
    """
    grid = np.asarray(delta_tau_grid, dtype=float)
    if np.any(grid <= 0.0):
        raise ValueError("delay grid must be positive")
    psi = pre.jones if isinstance(pre, PolarizedPulse) else _unit_jones(pre)
    rows = []
    for dt in grid:
        pulse = PolarizedPulse(t_c, psi)
        pmd = PmdElement(delta_tau=float(dt))
        exact = mean_toa_closed(pulse, pmd, post)
        weak = weak_value(psi, pmd, post)
        rows.append(TransitionRow(
            ratio=float(dt / t_c), delta_tau=float(dt), t_c=float(t_c),
            toa_exact=exact, toa_weak=weak, abs_error=abs(exact - weak),
            discrimination_error=discrimination_error(float(dt), t_c)))
    return rows
