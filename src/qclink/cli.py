"""Command-line front end.

Commands map one-to-one onto library operations. A handler returns its
table as named columns, which one writer formats a block of rows at a
time into <outdir>/<command>-<seed>.csv (body deterministic for a fixed
configuration), and its summary, which <outdir>/<command>-<seed>.json
holds with the timestamp and the configuration, or the error in its
place; the table lives only in the CSV. Exit codes: 0 success, 1 usage
or validation error, 2 numerical failure. A run that fails after
parsing removes any earlier CSV of the same name and records the error
in the report.

A flat JSON config file can supply any flag (keys are flag names
without the leading dashes); explicit command-line flags win. A flag
whose spec carries an interval is range-checked before its command
runs; the library checks the rest.
"""

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__, cloning, distill, qkd
from . import weakmeas as wm
from ._checks import check as _check

OUTDIR_ENV = "QCLINK_OUTDIR"
# Scaled weak-end errors at or below this are round-off: with no loss
# element the closed form equals the weak value and they read ~2e-17.
SCALED_ERROR_FLOOR = 1e-14
_REQUIRED = object()
_D_RANGE = (0.0, 0.5)
_BLOCKS = (1, distill.MAX_BLOCK)
_STEPS = (1, 100_000)
_POSITIVE = (math.ulp(0.0), sys.float_info.max)
CSV_BLOCK = 2 ** 14  # rows per write: the CSV text is never held whole


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser whose errors surface as exit code 1, not 2, and
    that takes -1e-3 and -inf after a flag as its value, as argparse
    already does -0.001."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-inf$")

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: dict
    seed: int
    outdir: str


def _equivalence_table(params, fields):
    """The chosen fields of distill.equivalence_sweep's table over the
    --d-min/--d-max grid, one column each; the d column is headed D."""
    if params["d-max"] < params["d-min"]:
        raise ValueError("parameter --d-max must not be below --d-min")
    grid = np.linspace(params["d-min"], params["d-max"], params["steps"])
    sweep = distill.equivalence_sweep(grid, n_max=params["n-max"],
                                      eve_measurement=params["eve"])
    return {("D" if f == "d" else f): sweep[f] for f in fields}


# Pulse flags of the weak commands, echoed in this order as CSV columns.
_PULSE_FLAGS = {"tc": (float, 1.0), "theta-pre": (float, np.pi / 4),
                "phi-pre": (float, 0.0), "pdl-db": (float, 0.0),
                "pdl-axis": (float, 0.0)}


def _echo(params, flags, rows=1):
    """The values of the named flags as constant columns."""
    return {k.replace("-", "_"): [params[k]] * rows for k in flags}


def _pre(params):
    return wm.jones_elliptical(params["theta-pre"], params["phi-pre"])


def _pulse(params):
    return wm.PolarizedPulse(params["tc"], _pre(params))


def _post_element(params):
    return wm.PdlElement(params["pdl-db"], axis=params["pdl-axis"])


def cmd_qkd_sweep(params, seed):
    fields = ["d", "i_ab", "i_ae", "chsh", "entangled", "min_pt_eigenvalue",
              "singlet_fidelity"]
    if params["n-max"] is not None:
        fields.append("ad_min_block")
    table = _equivalence_table(params, fields)
    return table, {"points": len(table["D"])}


def cmd_qkd_thresholds(params, seed):
    summary = {kind: qkd.threshold(kind, eve_measurement=params["eve"])
               for kind in qkd.THRESHOLD_KINDS}
    return ({"kind": list(summary),
             "critical_disturbance": list(summary.values())}, summary)


def cmd_distill_classical(params, seed):
    n, trials = params["n"], params["trials"]
    dist = qkd.symbol_distribution(
        qkd.AttackParams(params["d"], eve_measurement=params["eve"]))
    outcomes = {"exact": distill.ad_exact(dist, n)}
    summary = {"advantage_exact": outcomes["exact"].advantage}
    if trials:
        outcomes["mc"] = distill.ad_monte_carlo(dist, n, trials=trials,
                                                seed=seed)
        summary["accepted"] = outcomes["mc"].accepted
    # The exact outcome has no standard errors: its se_* cells are empty.
    table = {"mode": list(outcomes)}
    for field in ["block_size", "p_accept", "eps_post", "i_ab", "i_ae",
                  "advantage", "se_p_accept", "se_eps_post", "se_i_ae"]:
        table[field] = [getattr(o, field, None) for o in outcomes.values()]
    return table, summary


def cmd_distill_quantum(params, seed):
    f0 = params["f0"]
    fidelity, probability = zip(*distill.recurrence_iterate(f0,
                                                            params["rounds"]))
    table = {"round": range(1, len(fidelity) + 1), "fidelity": fidelity,
             "success_probability": probability}
    return table, {"f0": f0, "final_fidelity": fidelity[-1]}


def cmd_distill_equivalence(params, seed):
    table = _equivalence_table(params, ["d", "entangled", "chsh", "i_ab",
                                        "i_ae", "ad_min_block"])
    present, absent = [], []
    for d, block in zip(table["D"].tolist(), table["ad_min_block"]):
        (absent if block is None else present).append(d)
    summary = {"ad_present_max_d": max(present) if present else None,
               "ad_absent_min_d": min(absent) if absent else None}
    if present and absent and max(present) < min(absent):
        summary["ad_threshold_estimate"] = 0.5 * (max(present) + min(absent))
    return table, summary


def cmd_clone_fidelity(params, seed):
    value = cloning.fidelity_opt(params["n"], params["m"])
    return ({**_echo(params, ["n", "m"]), "fidelity": [value]},
            {"fidelity": value})


def cmd_clone_amplifier(params, seed):
    value = cloning.fidelity_classical(params["mu-in"], params["mu-out"],
                                       params["q"])
    return ({**_echo(params, ["mu-in", "mu-out", "q"]), "fidelity": [value]},
            {"fidelity": value})


def cmd_clone_mc(params, seed):
    n, m, trials = params["n"], params["m"], params["trials"]
    mean, se = cloning.birth_process_mc(n, m, trials=trials, seed=seed)
    exact = cloning.birth_process_exact(n, m)
    formula = cloning.fidelity_opt(n, m)
    table = {**_echo(params, ["n", "m", "trials"]), "mc_fidelity": [mean],
             "std_error": [se], "exact_fidelity": [exact],
             "formula_fidelity": [formula]}
    return table, {"mc_fidelity": mean, "std_error": se,
                   "formula_fidelity": formula}


def cmd_clone_mixture(params, seed):
    mu_in = params["mu-in"]
    gain = params["gain"]
    value = cloning.poisson_mixture_fidelity(mu_in, gain)
    reference = cloning.fidelity_classical(mu_in, gain * mu_in, 1.0)
    table = {**_echo(params, ["mu-in", "gain"]), "mixture_fidelity": [value],
             "amplifier_q1_fidelity": [reference],
             "deviation": [value - reference]}
    return table, {"mixture_fidelity": value, "deviation": value - reference}


def cmd_clone_fit(params, seed):
    data = cloning.load_fidelity_csv(params["input"])
    q_hat, rss = cloning.fit_q(data)
    return ({"q_hat": [q_hat], "rss": [rss], "records": [data.shape[0]]},
            {"q_hat": q_hat, "rss": rss})


def cmd_weak_toa(params, seed):
    pulse = _pulse(params)
    pmd = wm.PmdElement(params["dtau"])
    post = _post_element(params)
    summary = {"toa_closed": wm.mean_toa_closed(pulse, pmd, post),
               "toa_numeric": wm.propagate(pulse, [pmd, post]).mean_toa(),
               "toa_weak": wm.weak_value(_pre(params), pmd, post)}
    table = {**_echo(params, ["dtau", *_PULSE_FLAGS]),
             **{name: [value] for name, value in summary.items()}}
    return table, summary


def cmd_weak_sweep(params, seed):
    t_c = params["tc"]
    lo, hi = params["ratio-min"], params["ratio-max"]
    if not lo < hi:
        raise ValueError("parameters --ratio-min/--ratio-max must satisfy "
                         "min < max")
    pre = _pre(params)
    _check("pulse width", t_c, math.ulp(0.0))
    post = _post_element(params)
    # The grid's top delay in Python floats, where overflow gives inf
    # silently; the numpy product below would warn first.
    _check("delay", hi * t_c)
    sweep = wm.toa_transition_sweep(
        pre, post, np.geomspace(lo, hi, params["points"]) * t_c, t_c)
    ratio, dtau, abs_error = sweep.ratio, sweep.delta_tau, sweep.abs_error
    table = {"dtau": dtau, **_echo(params, _PULSE_FLAGS, len(sweep)),
             "toa_exact": sweep.toa_exact, "toa_weak": sweep.toa_weak,
             "abs_error": abs_error}
    # The slope is fitted to the weak-end errors above round-off only,
    # where the pointer scale dtau/2 is nonzero: a delay of one subnormal
    # step halves to zero.
    weak_end = (ratio <= 0.1) & (dtau / 2 > 0.0)
    scaled = abs_error[weak_end] / (dtau[weak_end] / 2)
    fitted = scaled > SCALED_ERROR_FLOOR
    slope = None
    if np.count_nonzero(fitted) >= 3:
        slope = float(np.polyfit(np.log(ratio[weak_end][fitted]),
                                 np.log(scaled[fitted]), 1)[0])
    summary = {"strong_end_discrimination_error":
               float(sweep.discrimination_error[-1]),
               "weak_end_scaled_error_slope": slope}
    return table, summary


def cmd_weak_profile(params, seed):
    field = wm.propagate(_pulse(params), [wm.PmdElement(params["dtau"]),
                                          _post_element(params)])
    t = wm.default_time_grid(field, step=params["step"], span=params["span"])
    profile = field.intensity(t)
    total = profile.sum(axis=1)
    summary = {"energy": field.energy(),
               "peak_separation": wm.peak_separation(t, total)}
    try:
        summary["mean_toa"] = field.mean_toa()
    except ValueError:
        summary["mean_toa"] = None
    table = {"t": t, "intensity_x": profile[:, 0],
             "intensity_y": profile[:, 1], "intensity_total": total}
    return table, summary


EVE_CHOICES = list(qkd.EVE_MEASUREMENTS)

# Flag name -> (type or choices, default[, closed interval of its values]).
COMMANDS = {
    ("qkd", "sweep"): (cmd_qkd_sweep, {
        "d-min": (float, 0.0, _D_RANGE), "d-max": (float, 0.4, _D_RANGE),
        "steps": (int, 41, _STEPS),
        "eve": (EVE_CHOICES, qkd.HELSTROM_BINARY),
        "n-max": (int, None, _BLOCKS)}),
    ("qkd", "thresholds"): (cmd_qkd_thresholds, {
        "eve": (EVE_CHOICES, qkd.HELSTROM_BINARY)}),
    ("distill", "classical"): (cmd_distill_classical, {
        "d": (float, _REQUIRED, _D_RANGE), "n": (int, 8, _BLOCKS),
        "eve": (EVE_CHOICES, qkd.HELSTROM_BINARY),
        "trials": (int, 0, (0, 10 ** 9))}),
    ("distill", "quantum"): (cmd_distill_quantum, {
        "f0": (float, _REQUIRED, (0.0, 1.0)),
        "rounds": (int, 10, (1, 10 ** 4))}),
    ("distill", "equivalence"): (cmd_distill_equivalence, {
        "d-min": (float, 0.2, _D_RANGE), "d-max": (float, 0.36, _D_RANGE),
        "steps": (int, 33, _STEPS), "n-max": (int, 30, _BLOCKS),
        "eve": (EVE_CHOICES, qkd.HELSTROM_BINARY)}),
    ("clone", "fidelity"): (cmd_clone_fidelity, {
        "n": (int, _REQUIRED), "m": (int, _REQUIRED)}),
    ("clone", "amplifier"): (cmd_clone_amplifier, {
        "mu-in": (float, _REQUIRED), "mu-out": (float, _REQUIRED),
        "q": (float, _REQUIRED)}),
    ("clone", "mc"): (cmd_clone_mc, {
        "n": (int, _REQUIRED), "m": (int, _REQUIRED, (1, 10 ** 4)),
        "trials": (int, 100_000, (10 ** 4, cloning.BIRTH_MAX_TRIALS))}),
    ("clone", "mixture"): (cmd_clone_mixture, {
        "mu-in": (float, _REQUIRED),
        "gain": (float, 10.0, (1.0, cloning.MIXTURE_MAX_GAIN))}),
    ("clone", "fit"): (cmd_clone_fit, {"input": (str, _REQUIRED)}),
    ("weak", "toa"): (cmd_weak_toa, {
        "dtau": (float, _REQUIRED), **_PULSE_FLAGS}),
    ("weak", "sweep"): (cmd_weak_sweep, {
        "ratio-min": (float, 1e-3, _POSITIVE),
        "ratio-max": (float, 10.0, _POSITIVE),
        "points": (int, 25, (2, 10 ** 5)), **_PULSE_FLAGS}),
    ("weak", "profile"): (cmd_weak_profile, {
        "dtau": (float, _REQUIRED), **_PULSE_FLAGS,
        "step": (float, None), "span": (float, None)}),
}


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help="flat JSON file supplying flag values")
    common.add_argument("--seed", type=int, default=0,
                        help="random seed (default 0, always recorded)")
    common.add_argument("--outdir", default=os.environ.get(OUTDIR_ENV, "."),
                        help=f"output directory (default ${OUTDIR_ENV} or .)")

    parser = _Parser(prog="qclink", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    groups = parser.add_subparsers(dest="group", required=True,
                                   parser_class=_Parser)
    by_group = {}
    for (group, sub), (_, spec) in COMMANDS.items():
        if group not in by_group:
            gp = groups.add_parser(group)
            by_group[group] = gp.add_subparsers(dest="subcommand",
                                                required=True,
                                                parser_class=_Parser)
        leaf = by_group[group].add_parser(sub, parents=[common])
        for name, (kind, default, *_) in spec.items():
            if isinstance(kind, list):
                leaf.add_argument(f"--{name}", choices=kind, default=default)
            else:
                leaf.add_argument(f"--{name}", type=kind, default=default)
    return parser


def _config_flags(path, spec):
    """Flag tokens for the values of a flat JSON config file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"config file {path} must hold one JSON object")
    known = set(spec) | {"seed", "outdir"}
    flags = []
    for key, value in raw.items():
        name = key.lstrip("-").replace("_", "-")
        if name not in known:
            raise UsageError(f"config file {path}: unknown parameter {key!r}")
        flags.append(f"--{name}={value}")
    return flags


def _cell(value):
    return "" if value is None else str(value)


def _write_csv(path, table):
    """Write named columns of equal length, CSV_BLOCK rows at a time. Bools
    read true/false, None an empty cell, and any other value str(), so
    floats keep their shortest round-trip form and integers every digit."""
    columns = list(table.values())
    with open(path, "w", newline="") as fh:
        fh.write(",".join(table) + "\n")
        for lo in range(0, len(columns[0]), CSV_BLOCK):
            cells = []
            for column in columns:
                block = np.asarray(column[lo:lo + CSV_BLOCK])
                if block.dtype.kind == "b":
                    block = np.where(block, "true", "false")
                cells.append(map(_cell, block.tolist()))
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _jsonable(value):
    """Plain JSON value; non-finite floats become "inf", "-inf", "nan"."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return str(value)


def _write_report(config, path, **outcome):
    """Write a run's JSON report: its configuration plus the outcome."""
    payload = {"tool": "qclink", "version": __version__,
               "timestamp": datetime.now(timezone.utc).isoformat(),
               "command": config.command,
               "config": {"params": config.params, "seed": config.seed,
                          "outdir": config.outdir},
               **outcome}
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, allow_nan=False)


def execute(config):
    """Run one command: its handler's named columns go to the CSV, its
    summary to the JSON report. Returns the summary."""
    handler, spec = COMMANDS[tuple(config.command.split("-", 1))]
    os.makedirs(config.outdir, exist_ok=True)
    base = os.path.join(config.outdir, f"{config.command}-{config.seed}")
    csv_path, json_path = base + ".csv", base + ".json"
    try:
        for name, (kind, _, *interval) in spec.items():
            if interval and config.params[name] is not None:
                _check(f"--{name}", config.params[name], *interval[0],
                       integer=kind is int)
        table, summary = handler(config.params, config.seed)
        _write_csv(csv_path, table)
        _write_report(config, json_path, summary=summary)
    except (ValueError, OSError, RuntimeError, ArithmeticError) as exc:
        # isfile: os.remove raises on a directory in the CSV's place.
        if os.path.isfile(csv_path):
            os.remove(csv_path)
        _write_report(config, json_path, error=str(exc))
        raise
    return summary


def parse(argv):
    """Parse flags into a RunConfig. A --config file's values are parsed
    as flags placed before the explicit ones, which therefore win."""
    argv = list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    spec = COMMANDS[args.group, args.subcommand][1]
    if args.config is not None:
        args = parser.parse_args(
            argv[:2] + _config_flags(args.config, spec) + argv[2:])
    params = {name: getattr(args, name.replace("-", "_")) for name in spec}
    for name, value in params.items():
        if value is _REQUIRED:
            raise UsageError(f"missing required parameter --{name}")
    try:
        _check("--seed", args.seed, 0, 2 ** 64 - 1, integer=True)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return RunConfig(command=f"{args.group}-{args.subcommand}",
                     params=params, seed=args.seed, outdir=args.outdir)


def main(argv=None):
    try:
        config = parse(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    try:
        summary = execute(config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    for key, value in summary.items():
        print(f"{key} = {value}")
    return 0


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
