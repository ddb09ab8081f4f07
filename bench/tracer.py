"""Outside-in call tracing of the qclink modules.

`Tracer.install()` wraps every public function, and every public method
of a public class, defined in a qclink module, in every qclink module
namespace that binds it (so `distill`'s `from .qkd import ...` names are
covered) and in the CLI command table. Each call records a span
(name, layer, start, end, parent). The layer is the defining module.
Nothing under src/ changes: the wrappers are installed from outside after
import.

Counters derived from call arguments and return values are collected at
the same boundaries. Byte counts are labelled "computed": they are array
sizes and ignore caches.
"""

import contextlib
import functools
import inspect
import time
import tracemalloc
from collections import Counter
from math import comb

import numpy as np

MODULES = ("qclink", "qclink.qcore", "qclink.qkd", "qclink.distill",
           "qclink.cloning", "qclink.weakmeas", "qclink.cli")
# Calls whose tracemalloc peak is recorded, by span name -> peak key.
PEAK_KEYS = {
    "distill.ad_monte_carlo": "distill.mc_peak",
    "weakmeas.propagate": "weakmeas.peak",
    "weakmeas.PropagatedField.mean_toa": "weakmeas.peak",
    "weakmeas.PropagatedField.energy": "weakmeas.peak",
}
BENCH = "bench"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_ad_exact(counters, args, kwargs, result):
    dist, n = _arg(args, kwargs, 0, "dist"), _arg(args, kwargs, 1, "n")
    k = dist.num_eve_symbols
    rows = comb(n + k - 1, k - 1)
    counters["distill.count_rows"] += rows
    counters["distill.count_bytes_computed"] += rows * k * 8


def _count_min_block(counters, args, kwargs, result):
    counters["distill.min_block_calls"] += 1
    counters["distill.min_block_none"] += result is None


def _count_monte_carlo(counters, args, kwargs, result):
    counters["distill.mc_trials"] += result.trials
    counters["distill.mc_accepted"] += result.accepted


def _count_propagate(counters, args, kwargs, result):
    delays = result.delays
    counters["weakmeas.field_terms"] += delays.size
    # Delays equal to 1e-12 count as one: equal-delay sections reach the
    # same delay through sums taken in different orders.
    counters["weakmeas.distinct_delays"] += np.unique(
        np.round(delays, 12)).size


def _count_gram(counters, args, kwargs, result):
    terms = args[0].amps.shape[0]
    counters["weakmeas.gram_bytes_computed"] += terms * terms * 8 * 3


def _count_birth_exact(counters, args, kwargs, result):
    n, m = int(_arg(args, kwargs, 0, "n")), int(_arg(args, kwargs, 1, "m"))
    counters["cloning.birth_states_computed"] += \
        (m - n + 1) * (m - n + 2) // 2


def _count_birth_mc(counters, args, kwargs, result):
    n, m = int(_arg(args, kwargs, 0, "n")), int(_arg(args, kwargs, 1, "m"))
    trials = int(_arg(args, kwargs, 2, "trials"))
    counters["cloning.birth_states_computed"] += trials * (m - n)


HOOKS = {
    "distill.ad_exact": _count_ad_exact,
    "distill.ad_min_block": _count_min_block,
    "distill.ad_monte_carlo": _count_monte_carlo,
    "weakmeas.propagate": _count_propagate,
    "weakmeas.PropagatedField.mean_toa": _count_gram,
    "weakmeas.PropagatedField.energy": _count_gram,
    "cloning.birth_process_exact": _count_birth_exact,
    "cloning.birth_process_mc": _count_birth_mc,
}


class Tracer:
    """Span recorder. Spans stay in memory until `take()` summarises them."""

    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent index]
        self.counters = Counter()
        self.peaks = {}
        self._stack = []
        self._wrappers = {}

    def _wrap(self, fn, name, layer):
        if fn in self._wrappers:
            return self._wrappers[fn]
        hook = HOOKS.get(name)
        peak_key = PEAK_KEYS.get(name)
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            own_malloc = peak_key is not None and not tracemalloc.is_tracing()
            if own_malloc:
                tracemalloc.start()
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if own_malloc:
                    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                    self.peaks[peak_key] = max(self.peaks.get(peak_key, 0.0),
                                               peak)
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        self._wrappers[fn] = traced
        return traced

    def install(self):
        """Wrap the public qclink callables in every namespace binding them."""
        import importlib

        modules = [importlib.import_module(m) for m in MODULES]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ in MODULES:
                    layer = obj.__module__.rsplit(".", 1)[-1]
                    setattr(module, attr,
                            self._wrap(obj, f"{layer}.{obj.__name__}", layer))
                elif (inspect.isclass(obj) and module.__name__ != "qclink"
                      and obj.__module__ == module.__name__):
                    layer = obj.__module__.rsplit(".", 1)[-1]
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self._wrap(
                                fn, f"{layer}.{obj.__name__}.{meth}", layer))
        cli = importlib.import_module("qclink.cli")
        for key, (handler, spec) in list(cli.COMMANDS.items()):
            cli.COMMANDS[key] = (self._wrap(handler, f"cli.{handler.__name__}",
                                            "cli"), spec)

    @contextlib.contextmanager
    def section(self, name):
        """Mark a benchmark section as a `bench` span around its body."""
        index = len(self.spans)
        self.spans.append([f"{BENCH}.{name}", BENCH, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][3] = time.perf_counter()
            self._stack.pop()

    def take(self):
        """Summarise and clear the spans and counters recorded so far."""
        stats = summarise(self.spans, self.counters, self.peaks)
        self.spans.clear()
        self.counters.clear()
        self.peaks.clear()
        return stats


def summarise(spans, counters, peaks):
    """Additive per-layer statistics of one batch of spans.

    A span's self time is its duration minus the durations of its direct
    children. Returns a flat dict of counts and seconds plus `peak.*`
    entries that combine by maximum.
    """
    child = [0.0] * len(spans)
    for name, layer, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    # Nearest enclosing benchmark section of every span.
    section = [None] * len(spans)
    stats = Counter(counters)
    names = Counter()
    for i, (name, layer, start, end, parent) in enumerate(spans):
        section[i] = name if layer == BENCH else (
            section[parent] if parent >= 0 else None)
        names[name] += 1
        if layer == BENCH:
            continue
        stats["trace.spans"] += 1
        self_s = (end - start) - child[i]
        stats[f"{layer}.calls"] += 1
        stats[f"{layer}.self_s"] += self_s
        if section[i] == f"{BENCH}.toa" and layer == "weakmeas":
            stats["weakmeas.sweep_calls"] += 1
            stats["weakmeas.sweep_self_s"] += self_s
        if name == "cli.parse":
            stats["cli.parse_s"] += end - start
        elif name == "cli.execute":
            stats["cli.execute_s"] += end - start
        if parent >= 0 and spans[parent][0] == "qkd.threshold" and name in (
                "qkd.symbol_distribution", "qkd.rho_ab"):
            stats["qkd.bisect_evals"] += 1
    stats["distill.block_evals"] += names["distill.ad_exact"]
    stats["qkd.symbol_dists"] += names["qkd.symbol_distribution"]
    stats["qcore.state_tests"] += (names["qcore.is_entangled"]
                                   + names["qcore.chsh_max"])
    stats["cloning.fit_calls"] += names["cloning.fit_q"]
    out = dict(stats)
    for key, value in peaks.items():
        out[f"peak.{key}"] = value
    return out


def selfcheck(tracer, distill, grid):
    """One equivalence_sweep over G points must record exactly G
    `ad_min_block` and G `symbol_distribution` spans beneath it; a
    binding the installer missed fails here. Returns (ok, detail)."""
    tracer.take()
    distill.equivalence_sweep(grid, n_max=8)
    spans = tracer.spans
    root = next((i for i, s in enumerate(spans)
                 if s[0] == "distill.equivalence_sweep"), None)
    inside = set() if root is None else {root}
    counts = Counter()
    for i, s in enumerate(spans):
        if s[4] in inside:
            inside.add(i)
            counts[s[0]] += 1
    tracer.take()
    g = len(grid)
    got = (counts["distill.ad_min_block"], counts["qkd.symbol_distribution"])
    return got == (g, g), (f"{g} points: {got[0]} ad_min_block and "
                           f"{got[1]} symbol_distribution spans")
