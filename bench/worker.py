"""Library sections of the qclink benchmark, run in one fresh interpreter.

    python bench/worker.py --size full|probe --seed N \
        --trace 0|1

The worker imports qclink, builds every section's inputs from the seed,
warms the block-distillation count cache and prints one JSON line with the
warm-up time. It then reads commands from stdin, one a line: `pass` runs
every section once and answers `done`; `end` prints the result and exits.
bench/run.py sends the passes between CLI invocations, so the library
samples cover the whole run.

A pass runs every section once, at full size on the library workload and
at a smaller probe size on cli-mix, so each end-to-end metric has a value
on both. A section's work is split into fixed items (a grid part, a
chain, a batch, a case); every item is timed once a pass (the short
threshold bisections three times). A metric is computed from each item's
upper quartile of time over the run: rates divide the work of all items
by the sum of their quartiles, times add the quartiles. The machine the
bounds were set on switches between a slow state and one up to 1.7 times
faster for seconds to minutes at a time; an item's median jumps between
the two when the fast share of a run is near one half, its upper
quartile only when the fast state covers three quarters of the run.
Every output is checked against a reference prepared before timing.
With --trace 1 the calls into qclink are traced and per-pass layer
statistics are added; the timings then include the tracing overhead.

The last stdout line is one JSON object with the metrics, their sample
counts, the per-pass layer statistics and the request counts; bench/run.py
prints them.

Each section class has `run(span, time_item)`, which does one pass and
returns (attempted, failures); `time_item(metric, item, fn)` calls fn,
records its wall time under (metric, item) and returns its result. The
section's `summary(quartiles)` turns {metric: {item: seconds}} into its
end-to-end metric values.
"""

import argparse
import contextlib
import json
import math
import statistics
import sys
import time

import numpy as np
import scipy

import qclink
from qclink import cloning, distill, qkd
from qclink import weakmeas as wm

from run import upper_quartile
from tracer import Tracer, selfcheck

ENTANGLEMENT_D = 1.0 - 1.0 / math.sqrt(2.0)     # 0.29289
CHSH_D = (1.0 - 1.0 / math.sqrt(2.0)) / 2.0      # 0.14645
Z_GATE = 4.0  # Monte Carlo estimates must sit within this many std errors


class Sweep:
    """distill.equivalence_sweep for both Eve measurements on a jittered
    D grid, each grid split into interleaved parts. Present points lie
    below the n_max=64 block-distillation boundary (0.2742) and absent
    points above it, whatever the jitter, so the number of full 64-block
    scans is the same for every seed."""

    GRID = {"full": ((0.20, 0.22, 0.24, 0.26, 0.28, 0.29, 0.30, 0.33, 0.36),
                     64, 3),
            "probe": ((0.22, 0.26, 0.30, 0.34), 30, 2)}
    JITTER = 0.004

    def __init__(self, rng, size):
        base, self.n_max, self.parts = self.GRID[size]
        self.grid = np.asarray(base) + rng.uniform(-self.JITTER, self.JITTER,
                                                   len(base))

    def run(self, span, time_item):
        failures = []
        for eve in qkd.EVE_MEASUREMENTS:
            rows = [None] * self.grid.size
            for part in range(self.parts):
                grid = self.grid[part::self.parts]
                with span("sweep"):
                    rows[part::self.parts] = time_item(
                        "sweep_points_per_s", (eve, part),
                        lambda: distill.equivalence_sweep(
                            grid, n_max=self.n_max, eve_measurement=eve))
            bad = self.check(rows, eve)
            if bad:  # one failed request, however many rows are wrong
                failures.append("; ".join(bad))
        return len(qkd.EVE_MEASUREMENTS), failures

    def summary(self, q):
        points = len(qkd.EVE_MEASUREMENTS) * self.grid.size
        return {"sweep_points_per_s":
                points / sum(q["sweep_points_per_s"].values())}

    def check(self, rows, eve):
        bad = []
        if [r.d for r in rows] != [float(d) for d in self.grid]:
            bad.append(f"sweep {eve}: rows do not follow the grid")
        for r in rows:
            if r.entangled != (r.d < ENTANGLEMENT_D):
                bad.append(f"sweep {eve}: entangled={r.entangled} at D={r.d}")
            if (r.chsh > 2.0) != (r.d < CHSH_D):
                bad.append(f"sweep {eve}: chsh={r.chsh} at D={r.d}")
            if eve == qkd.HELSTROM_BINARY and r.d <= 0.27 \
                    and r.ad_min_block is None:
                bad.append(f"sweep: no distillable block at D={r.d}")
            if eve == qkd.HELSTROM_BINARY and r.d >= 0.33 \
                    and r.ad_min_block is not None:
                bad.append(f"sweep: block {r.ad_min_block} at D={r.d}")
        return bad


class Threshold:
    """The threshold trio at tol=1e-6 plus one_way under square_root_4,
    each bisection an item, timed REPS times a pass."""

    KINDS = (("entanglement", qkd.HELSTROM_BINARY),
             ("chsh", qkd.HELSTROM_BINARY),
             ("one_way", qkd.HELSTROM_BINARY),
             ("one_way", qkd.SQUARE_ROOT_4))
    REPS = 3

    def __init__(self, rng, size):
        pass

    def run(self, span, time_item):
        failures = []
        for _ in range(self.REPS):
            got = []
            with span("threshold"):
                for kind, eve in self.KINDS:
                    got.append(time_item(
                        "threshold_s", (kind, eve),
                        lambda: qkd.threshold(kind, tol=1e-6,
                                              eve_measurement=eve)))
            ent, chsh, one_way, one_way_4 = got
            if not (abs(ent - 0.29289) <= 1e-3
                    and abs(chsh - 0.14645) <= 1e-3
                    and abs(one_way - chsh) <= 2e-3
                    and abs(one_way_4 - chsh) <= 2e-3):
                failures.append(f"thresholds {got}")
        return self.REPS, failures

    def summary(self, q):
        return {"threshold_s": sum(q["threshold_s"].values())}


class MonteCarlo:
    """distill.ad_monte_carlo at a small and a large block size, each at a
    disturbance where blocks are accepted; checked against ad_exact."""

    CASES = {"full": ((qkd.HELSTROM_BINARY, 0.12, 8, 200_000),
                      (qkd.SQUARE_ROOT_4, 0.04, 48, 50_000)),
             "probe": ((qkd.HELSTROM_BINARY, 0.12, 8, 20_000),
                       (qkd.SQUARE_ROOT_4, 0.04, 24, 10_000))}

    def __init__(self, rng, size):
        self.cases = []
        for eve, d, n, trials in self.CASES[size]:
            dist = qkd.symbol_distribution(qkd.AttackParams(
                d + rng.uniform(-0.002, 0.002), eve_measurement=eve))
            self.cases.append((dist, n, trials, int(rng.integers(2 ** 32)),
                               distill.ad_exact(dist, n)))

    def run(self, span, time_item):
        failures = []
        for i, (dist, n, trials, seed, exact) in enumerate(self.cases):
            with span("mc"):
                mc = time_item("mc_trials_per_s", i,
                               lambda: distill.ad_monte_carlo(
                                   dist, n, trials, seed=seed))
            # Standard errors of p_accept and eps_post under the exact
            # values, so a block size whose errors are never sampled passes.
            se_p = math.sqrt(exact.p_accept * (1 - exact.p_accept) / trials)
            se_e = math.sqrt(exact.eps_post * (1 - exact.eps_post)
                             / mc.accepted)
            if not (abs(mc.p_accept - exact.p_accept) <= Z_GATE * se_p
                    and abs(mc.eps_post - exact.eps_post) <= Z_GATE * se_e
                    and abs(mc.i_ae - exact.i_ae) <= Z_GATE * mc.se_i_ae):
                failures.append(f"mc n={n}: {mc} vs exact {exact}")
        return len(self.cases), failures

    def summary(self, q):
        trials = sum(case[2] for case in self.cases)
        return {"mc_trials_per_s":
                trials / sum(q["mc_trials_per_s"].values())}


class Toa:
    """weakmeas.toa_transition_sweep over a dense geomspace grid with lossy
    post-selection, in interleaved parts; sampled rows are checked against
    PropagatedField.mean_toa of the one-section chain."""

    POINTS = {"full": (1000, 5), "probe": (200, 4)}  # (points, parts)
    CHECKED = 7

    def __init__(self, rng, size):
        theta = rng.uniform(0.3, 1.2)
        self.pre = wm.jones_elliptical(theta, rng.uniform(0.0, 2 * np.pi))
        self.post = wm.PdlElement(rng.uniform(10.0, 30.0),
                                  axis=theta + np.pi / 2
                                  + rng.uniform(0.2, 0.5))
        points, self.parts = self.POINTS[size]
        self.grid = np.geomspace(1e-3, 10.0, points)
        self.checked = np.linspace(0, self.grid.size - 1, self.CHECKED,
                                   dtype=int)
        pulse = wm.PolarizedPulse(1.0, self.pre)
        self.reference = [
            wm.propagate(pulse, [wm.PmdElement(self.grid[i]), self.post])
            .mean_toa() for i in self.checked]

    def run(self, span, time_item):
        failures, rows = [], [None] * self.grid.size
        for part in range(self.parts):
            grid = self.grid[part::self.parts]
            with span("toa"):
                got = time_item("toa_points_per_s", part,
                                lambda: wm.toa_transition_sweep(
                                    self.pre, self.post, grid, 1.0))
            if len(got) != grid.size:
                return part + 1, [f"toa sweep: {len(got)} rows for "
                                  f"{grid.size}"]
            rows[part::self.parts] = got
        if not all(math.isfinite(r.toa_exact) and math.isfinite(r.toa_weak)
                   for r in rows):
            failures.append("toa sweep: non-finite rows")
        for i, ref in zip(self.checked, self.reference):
            scale = max(abs(ref), self.grid[i] / 2)
            if abs(rows[i].toa_exact - ref) > 1e-9 * scale:
                failures.append(f"toa at dtau={self.grid[i]}: "
                                f"{rows[i].toa_exact} vs {ref}")
        return self.parts, ["; ".join(failures)] if failures else []

    def summary(self, q):
        return {"toa_points_per_s":
                self.grid.size / sum(q["toa_points_per_s"].values())}


class Pmd:
    """propagate + mean_toa + energy over random-axis PMD chains.

    Equal-delay chains (2^k terms, k+1 distinct delays) and random-delay
    chains (2^k distinct delays) alternate and are timed apart, each chain
    an item; a metric is the mean of its chains' quartiles. The kind that
    opens a pass alternates too, because the first large allocation of a
    pass pays for fresh pages. Energy must be conserved; equal-delay
    arrival times must match the field with equal delays merged; every
    arrival time lies within the total delay spread."""

    SHAPE = {"full": (10, 4), "probe": (7, 5)}  # (sections, chains a kind)
    KINDS = ("equal", "random")

    def __init__(self, rng, size):
        k, count = self.SHAPE[size]
        self.chains = []
        for _ in range(count):
            for kind in self.KINDS:
                pulse = wm.PolarizedPulse(1.0, wm.jones_elliptical(
                    rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)))
                axes = rng.uniform(0, np.pi, k)
                delays = (np.full(k, rng.uniform(0.2, 0.6)) if kind == "equal"
                          else rng.uniform(0.1, 0.6, k))
                chain = [wm.PmdElement(float(t), float(a))
                         for t, a in zip(delays, axes)]
                ref = self.merged_toa(wm.propagate(pulse, chain), delays[0]) \
                    if kind == "equal" else None
                self.chains.append((kind, pulse, chain, delays.sum() / 2, ref))
        self.passes = 0

    @staticmethod
    def merged_toa(field, step):
        """Arrival time of the field with equal delays summed into one term."""
        index = np.round(field.delays / (step / 2)).astype(np.int64)
        keys, inverse = np.unique(index, return_inverse=True)
        amps = np.zeros((keys.size, 2), dtype=complex)
        np.add.at(amps, inverse, field.amps)
        merged = wm.PropagatedField(field.t_c, keys * (step / 2), amps)
        return merged.mean_toa()

    @staticmethod
    def measure(pulse, chain):
        field = wm.propagate(pulse, chain)
        return field.mean_toa(), field.energy()

    def run(self, span, time_item):
        failures = []
        order = list(enumerate(self.chains))
        if self.passes % 2:
            order.reverse()
        self.passes += 1
        for i, (kind, pulse, chain, spread, ref) in order:
            with span(f"pmd_{kind}"):
                toa, energy = time_item(f"pmd_{kind}_s", i,
                                        lambda: self.measure(pulse, chain))
            e0 = math.sqrt(math.pi) * pulse.t_c
            if not (abs(energy - e0) <= 1e-9 * e0
                    and abs(toa) <= spread * (1 + 1e-12)
                    and (ref is None or abs(toa - ref) <= 1e-9 * spread)):
                failures.append(f"pmd {kind}: toa {toa} (ref {ref}, "
                                f"spread {spread}), energy {energy}")
        return len(order), failures

    def summary(self, q):
        return {f"pmd_{kind}_s": statistics.fmean(
                    q[f"pmd_{kind}_s"].values())
                for kind in self.KINDS}


class Fit:
    """cloning.fit_q on noisy amplifier records: Q=0.8, sigma=0.005,
    50 intensities from 0.5 to 50 at gain 10 (acceptance criterion 3),
    each batch of datasets an item."""

    DATASETS = {"full": 200, "probe": 100}
    BATCH = 25

    def __init__(self, rng, size):
        mu_in = np.logspace(np.log10(0.5), np.log10(50.0), 50)
        mu_out = 10.0 * mu_in
        core = 0.8 * mu_out * mu_in
        clean = (core + mu_out + mu_in) / (core + 2.0 * mu_out)
        self.datasets = []
        for _ in range(self.DATASETS[size]):
            fid = np.clip(clean + rng.normal(0.0, 0.005, clean.size),
                          1e-9, 1.0)
            self.datasets.append(np.column_stack([mu_in, mu_out, fid]))

    def run(self, span, time_item):
        fits = []
        for i in range(0, len(self.datasets), self.BATCH):
            batch = self.datasets[i:i + self.BATCH]
            with span("fit"):
                fits += time_item("q_fits_per_s", i,
                                  lambda: [cloning.fit_q(d) for d in batch])
        hits = sum(abs(q - 0.8) <= 0.02 for q, _ in fits)
        return 1, [] if hits >= 0.95 * len(fits) else [
            f"fit_q within 0.02 of 0.8 on {hits}/{len(fits)} datasets"]

    def summary(self, q):
        return {"q_fits_per_s":
                len(self.datasets) / sum(q["q_fits_per_s"].values())}


class Birth:
    """birth_process_exact up to large M plus birth_process_mc, each case
    an item, all checked against fidelity_opt."""

    CASES = {"full": (((1, 400), (2, 600), (3, 800)),
                      ((1, 30, 100_000), (2, 40, 100_000))),
             "probe": (((1, 300), (2, 400)), ((1, 12, 20_000),))}

    def __init__(self, rng, size):
        exact, mc = self.CASES[size]
        self.exact = [(n, m + int(rng.integers(-m // 100, m // 100 + 1)))
                      for n, m in exact]
        self.mc = [(n, m + int(rng.integers(-2, 3)), trials,
                    int(rng.integers(2 ** 32))) for n, m, trials in mc]

    def run(self, span, time_item):
        failures = []
        with span("birth"):
            exact = [time_item("birth_s", ("exact", n, m),
                               lambda: cloning.birth_process_exact(n, m))
                     for n, m in self.exact]
            mc = [time_item("birth_s", ("mc", n, m),
                            lambda: cloning.birth_process_mc(
                                n, m, trials, seed=seed))
                  for n, m, trials, seed in self.mc]
        for (n, m), value in zip(self.exact, exact):
            if abs(value - cloning.fidelity_opt(n, m)) > 1e-12:
                failures.append(f"birth exact ({n}, {m}): {value}")
        for (n, m, _, _), (mean, se) in zip(self.mc, mc):
            if abs(mean - cloning.fidelity_opt(n, m)) > Z_GATE * se:
                failures.append(f"birth mc ({n}, {m}): {mean} +- {se}")
        return len(self.exact) + len(self.mc), failures

    def summary(self, q):
        return {"birth_s": sum(q["birth_s"].values())}


SECTIONS = (("sweep", Sweep), ("threshold", Threshold), ("mc", MonteCarlo),
            ("toa", Toa), ("pmd", Pmd), ("fit", Fit), ("birth", Birth))


def warm_up():
    """Fill the count-vector cache that ad_exact keeps across calls."""
    for eve in qkd.EVE_MEASUREMENTS:
        dist = qkd.symbol_distribution(
            qkd.AttackParams(0.35, eve_measurement=eve))
        distill.ad_min_block(dist, n_max=distill.MAX_BLOCK)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", choices=("full", "probe"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    span = tracer.section if tracer else (
        lambda name: contextlib.nullcontext())

    sections = [cls(np.random.default_rng([args.seed, i]), args.size)
                for i, (_, cls) in enumerate(SECTIONS)]
    t0 = time.perf_counter()
    warm_up()
    warmup_s = time.perf_counter() - t0
    failures, attempted = [], 0
    if tracer:
        tracer.take()
        ok, detail = selfcheck(tracer, distill, [0.1, 0.2, 0.3])
        attempted += 1
        if not ok:
            failures.append(f"trace self-check: {detail}")
    print(json.dumps({"warmup_s": warmup_s}), flush=True)

    timings = {}  # metric -> item -> seconds, one entry a pass

    def time_item(metric, item, fn):
        t0 = time.perf_counter()
        result = fn()
        timings.setdefault(metric, {}).setdefault(item, []).append(
            time.perf_counter() - t0)
        return result

    layer_passes, passes = [], 0
    for line in sys.stdin:
        if line.strip() != "pass":
            break
        for (name, _), section in zip(SECTIONS, sections):
            try:
                tried, bad = section.run(span, time_item)
            except Exception as exc:  # a raising request counts as failed
                tried, bad = 1, [f"{name}: {type(exc).__name__}: {exc}"]
            attempted += tried
            failures += bad
        if tracer:
            layer_passes.append(tracer.take())
        passes += 1
        print("done", flush=True)

    metrics, samples = {}, {}
    quartiles = {metric: {item: upper_quartile(times)
                          for item, times in items.items()}
                 for metric, items in timings.items()}
    for section in sections:
        try:
            values = section.summary(quartiles)
        except (KeyError, ZeroDivisionError):
            continue  # a section that raised on every pass has no samples
        metrics.update(values)
        samples.update({m: sum(map(len, timings[m].values()))
                        for m in values})
    print(json.dumps({
        "metrics": metrics,
        "samples": samples,
        "layer_passes": layer_passes,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "passes": passes,
        "warmup_s": warmup_s,
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__, "scipy": scipy.__version__,
                     "qclink": qclink.__version__},
    }))


if __name__ == "__main__":
    main()
