"""qclink benchmark: one workload under one seed, every metric checked.

    python3 bench/run.py --workload cli-mix|library --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src. Both workloads are closed loops with one client, and one
process runs at a time. A run starts one library worker
(bench/worker.py, a fresh interpreter) and then, for S seconds,
interleaves three kinds of task:

  set-up       a fresh `python -c "import qclink"`, at 0, S/3 and 2S/3;
  CLI          one `python -m qclink <group> <cmd>` invocation;
  worker pass  one pass of the library sections in the worker.

CLI invocations get CLI_SHARE of the time outside set-up, worker passes
the rest, so every metric samples the machine over the whole run.

  cli-mix   seeded, shuffled rounds of all 13 commands at README-sized
            inputs plus two requests the CLI must reject with exit code 1
            (at least one full round); the worker runs every library
            section at probe size.
  library   the worker runs every library section at full size; the CLI
            task repeats `qkd thresholds`.

setup_s is the median of the set-up imports plus the worker's cache
warm-up. With --trace 0 the end-to-end metrics are printed; with --trace 1
the same work runs with every call into qclink traced from outside
(bench/tracer.py), the set-up imports run under `python -X importtime`,
and the per-layer metrics are printed. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics": {name: {"value",
"unit"}}}.

Outputs of the CLI go to a temporary directory inside the checkout that is
removed before exit. Needs Linux (pidfd) to time and reap children.
"""

import argparse
import csv
import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PY = sys.executable

WORKLOADS = ("cli-mix", "library")
SETUP_IMPORTS = 3
MIN_PASSES = 3
# Share of the time outside set-up given to CLI invocations.
CLI_SHARE = {"cli-mix": 0.8, "library": 0.4}
# The one CLI request the library workload repeats, so that its walls
# spread over the whole run; and how many it makes at least.
CLI_PROBE = "qkd-thresholds"
MIN_PROBES = 5
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "ratio"),
    ("cli_wall_s", "s"), ("sweep_points_per_s", "1/s"),
    ("threshold_s", "s"), ("mc_trials_per_s", "1/s"),
    ("toa_points_per_s", "1/s"), ("pmd_equal_s", "s"),
    ("pmd_random_s", "s"), ("q_fits_per_s", "1/s"), ("birth_s", "s"))
# Measured by the worker: at full size on the library workload, at probe
# size on cli-mix.
LIBRARY_METRICS = ("sweep_points_per_s", "threshold_s", "mc_trials_per_s",
                   "toa_points_per_s", "pmd_equal_s", "pmd_random_s",
                   "q_fits_per_s", "birth_s")
LAYERS = ("cli", "qcore", "qkd", "distill", "cloning", "weakmeas")
PER_LAYER = (
    ("import.total_s", "s"), ("import.numpy_s", "s"), ("import.scipy_s", "s"),
    ("import.qclink_self_s", "s"),
    *[(f"{layer}.{stat}", unit) for layer in LAYERS
      for stat, unit in (("calls", "count"), ("self_s", "s"))],
    ("cli.parse_s", "s"), ("cli.execute_s", "s"),
    ("qcore.state_tests", "count"), ("qkd.symbol_dists", "count"),
    ("qkd.bisect_evals", "count"), ("distill.block_evals", "count"),
    ("distill.count_rows", "count"), ("distill.count_bytes_computed", "B"),
    ("distill.scan_exhausted_frac", "ratio"),
    ("distill.mc_accept_ratio", "ratio"), ("distill.mc_peak_mb", "MB"),
    ("weakmeas.sweep_calls", "count"), ("weakmeas.sweep_self_s", "s"),
    ("weakmeas.field_terms", "count"), ("weakmeas.distinct_delays", "count"),
    ("weakmeas.gram_bytes_computed", "B"), ("weakmeas.peak_mb", "MB"),
    ("cloning.birth_states_computed", "count"),
    ("cloning.fit_calls", "count"), ("trace.spans", "count"))


def upper_quartile(values):
    """The slow-side quartile of one item's times; the value itself for a
    single sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def cli_wall(walls):
    """cli_wall_s: the median over distinct requests of each one's upper
    quartile of wall time. On cli-mix, where each request runs about once
    a run, this is the median of the round (a higher percentile would
    measure its heaviest commands, not start-up); on a library workload,
    which repeats one request, it is that request's upper quartile."""
    return statistics.median(upper_quartile(w) for w in walls.values())


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, hang)."""


def reap(proc, deadline):
    """Wait for proc until the deadline, killing it if it is still running
    then. Returns (exit code, rusage, whether it ended in time)."""
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select(
            [pidfd], [], [], max(deadline - time.perf_counter(), 0))
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, bool(ready)


class Run:
    """Children, deadline and scratch directory of one benchmark run."""

    def __init__(self, trace):
        self.trace = trace
        self.deadline = time.perf_counter() + DEADLINE_S
        self.tmp = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        self.env.pop("QCLINK_OUTDIR", None)
        self.spawned = 0
        self.worker = None

    def close(self):
        if self.worker is not None:
            self.worker.kill()
        shutil.rmtree(self.tmp, ignore_errors=True)

    def paths(self, stem):
        self.spawned += 1
        return (os.path.join(self.tmp, f"{stem}-{self.spawned}.out"),
                os.path.join(self.tmp, f"{stem}-{self.spawned}.err"))

    def spawn(self, argv):
        """Run a child to completion. Returns (exit code, wall seconds from
        spawn to exit, peak RSS in MB, stdout path, stderr path)."""
        out, err = self.paths("child")
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=self.env,
                                    cwd=ROOT)
        code, usage, in_time = reap(proc, self.deadline)
        t1 = time.perf_counter()
        if not in_time:
            raise BenchError(f"timed out: {' '.join(argv)}")
        return code, t1 - t0, usage.ru_maxrss / 1024, out, err


class Worker:
    """The library worker (bench/worker.py): a child interpreter that runs
    one pass of the library sections per `step()`."""

    def __init__(self, run, size, seed):
        self.run = run
        _, self.err = run.paths("worker")
        argv = [PY, os.path.join(BENCH_DIR, "worker.py"), "--size", size,
                "--seed", str(seed), "--trace", str(run.trace)]
        with open(self.err, "wb") as fe:
            self.proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=fe, env=run.env, cwd=ROOT)
        run.worker = self
        self.buffer = b""
        self.warmup_s = json.loads(self.line())["warmup_s"]

    def fail(self, what):
        with open(self.err) as fh:
            return BenchError(f"worker {what}:\n{fh.read()[-3000:]}")

    def line(self):
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buffer:
            ready, _, _ = select.select(
                [fd], [], [], max(self.run.deadline - time.perf_counter(), 0))
            if not ready:
                raise self.fail("timed out")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise self.fail("exited")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line.decode()

    def send(self, command):
        try:
            self.proc.stdin.write(command + b"\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise self.fail("exited") from None

    def step(self):
        self.send(b"pass")
        if self.line() != "done":
            raise self.fail("answered out of turn")

    def finish(self):
        """End the worker; returns its result with its peak RSS in MB."""
        self.send(b"end")
        self.proc.stdin.close()
        result = json.loads(self.line())
        code, usage, in_time = reap(self.proc, self.run.deadline)
        self.run.worker = None
        self.proc.stdout.close()
        if code != 0 or not in_time:
            raise self.fail(f"ended with {code}")
        result["peak_rss_mb"] = usage.ru_maxrss / 1024
        return result

    def kill(self):
        self.proc.kill()
        reap(self.proc, self.run.deadline)
        self.run.worker = None
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass


# ----------------------------------------------------------------- set-up

def setup_import(run):
    """Wall time of one fresh import, or its import-time breakdown."""
    argv = [PY, "-X", "importtime", "-c", "import qclink"] if run.trace \
        else [PY, "-c", "import qclink"]
    code, wall, _, _, err = run.spawn(argv)
    if code != 0:
        with open(err) as fh:
            raise BenchError(f"cannot import qclink from {SRC}:\n"
                             + fh.read()[-2000:])
    return importtime(err) if run.trace else wall


def importtime(path):
    """Import-layer totals from a `python -X importtime` log, in seconds.

    total: cumulative time of every top-level import (interpreter start-up
    modules and qclink); numpy, scipy, qclink_self: summed self times of
    the modules of each package."""
    out = Counter()
    with open(path) as fh:
        for line in fh:
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|")
            top = name[:2] != "  "
            name = name.strip()
            if top:
                out["import.total_s"] += int(cum_us) / 1e6
            package = name.split(".")[0]
            if package in ("numpy", "scipy"):
                out[f"import.{package}_s"] += int(self_us) / 1e6
            elif package == "qclink":
                out["import.qclink_self_s"] += int(self_us) / 1e6
    return dict(out)


# ---------------------------------------------------------------- CLI mix

def fidelity_opt(n, m):
    return (m * n + m + n) / (m * (n + 2))


def amplifier(mu_in, mu_out, q):
    core = q * mu_out * mu_in
    return (core + mu_out + mu_in) / (core + 2 * mu_out)


class Request:
    """One CLI invocation with its expected exit code and CSV shape."""

    def __init__(self, name, args, code=0, header=None, rows=None,
                 check=None, label=None):
        self.name, self.args, self.code = name, args, code
        self.header, self.rows, self.check = header, rows, check
        self.label = label or name

    def verify(self, code, outdir, seed):
        """Return a failure message, or None when the outputs are right."""
        if code != self.code:
            return f"exit code {code}, expected {self.code}"
        csv_path = os.path.join(outdir, f"{self.name}-{seed}.csv")
        if self.code != 0:
            return "rejected request wrote a CSV" \
                if os.path.exists(csv_path) else None
        if not os.path.exists(csv_path[:-4] + ".json"):
            return "no JSON report"
        with open(csv_path, newline="") as fh:
            table = list(csv.reader(fh))
        if not table or ",".join(table[0]) != self.header:
            return f"CSV header {table[:1]}, expected {self.header}"
        if self.rows is not None and len(table) - 1 != self.rows:
            return f"{len(table) - 1} CSV rows, expected {self.rows}"
        return self.check(table[1:]) if self.check else None


def close_to(expected, tol):
    def check(rows):
        value = float(rows[0][-1])
        return None if abs(value - expected) <= tol else \
            f"value {value}, expected {expected} within {tol}"
    return check


def check_thresholds(rows):
    got = {kind: float(v) for kind, v in rows}
    ok = (abs(got["entanglement"] - 0.29289) <= 1e-3
          and abs(got["chsh"] - 0.14645) <= 1e-3
          and abs(got["one_way"] - got["chsh"]) <= 2e-3)
    return None if ok else f"thresholds {got}"


def _num(x):
    return repr(float(x))


def cli_requests(rng, tmp):
    """The 13 commands at README-sized inputs plus two rejected requests,
    with parameters drawn from rng. Writes the `clone fit` records."""
    records = os.path.join(tmp, "records.csv")
    with open(records, "w", newline="") as fh:
        fh.write("mu_in,mu_out,fidelity\n")
        for i in range(30):
            mu_in = 0.5 * 100 ** (i / 29) * math.exp(rng.uniform(-0.05, 0.05))
            fid = amplifier(mu_in, 10 * mu_in, 0.8) + rng.gauss(0, 0.005)
            fid = min(max(fid, 1e-9), 1.0)
            fh.write(f"{mu_in!r},{10 * mu_in!r},{fid!r}\n")
    n = rng.randint(1, 4)
    m = rng.randint(n + 1, 12)
    mu_in = rng.uniform(2.0, 8.0)
    mu_out, q = mu_in * rng.uniform(5.0, 15.0), rng.uniform(0.5, 1.0)
    steps = rng.randint(77, 85)
    d_bad = rng.uniform(0.55, 0.95)
    reqs = [
        Request("qkd-sweep", ["qkd", "sweep", "--d-min", "0", "--d-max", "0.4",
                              "--steps", str(steps), "--n-max", "30"],
                header="D,i_ab,i_ae,chsh,entangled,min_pt_eigenvalue,"
                       "singlet_fidelity,ad_min_block", rows=steps),
        Request("qkd-thresholds", ["qkd", "thresholds"],
                header="kind,critical_disturbance", rows=3,
                check=check_thresholds),
        Request("distill-classical",
                ["distill", "classical", "--d", _num(rng.uniform(0.2, 0.3)),
                 "--n", "10", "--trials", "100000"],
                header="mode,block_size,p_accept,eps_post,i_ab,i_ae,advantage,"
                       "se_p_accept,se_eps_post,se_i_ae", rows=2),
        Request("distill-quantum",
                ["distill", "quantum", "--f0", _num(rng.uniform(0.6, 0.9)),
                 "--rounds", "10"],
                header="round,fidelity,success_probability", rows=10),
        Request("distill-equivalence",
                ["distill", "equivalence", "--d-min", "0.2", "--d-max", "0.36",
                 "--steps", "33", "--n-max", "30"],
                header="D,entangled,chsh,i_ab,i_ae,ad_min_block", rows=33),
        Request("clone-fidelity", ["clone", "fidelity", "--n", str(n),
                                   "--m", str(m)],
                header="n,m,fidelity", rows=1,
                check=close_to(fidelity_opt(n, m), 1e-12)),
        Request("clone-amplifier",
                ["clone", "amplifier", "--mu-in", _num(mu_in),
                 "--mu-out", _num(mu_out), "--q", _num(q)],
                header="mu_in,mu_out,q,fidelity", rows=1,
                check=close_to(amplifier(mu_in, mu_out, q), 1e-12)),
        Request("clone-mc", ["clone", "mc", "--n", "1", "--m", "3",
                             "--trials", "100000"],
                header="n,m,trials,mc_fidelity,std_error,exact_fidelity,"
                       "formula_fidelity", rows=1,
                check=close_to(fidelity_opt(1, 3), 1e-12)),
        Request("clone-mixture", ["clone", "mixture", "--mu-in", "5",
                                  "--gain", "10"],
                header="mu_in,gain,mixture_fidelity,amplifier_q1_fidelity,"
                       "deviation", rows=1),
        Request("clone-fit", ["clone", "fit", "--input", records],
                header="q_hat,rss,records", rows=1,
                check=lambda rows: None if abs(float(rows[0][0]) - 0.8) <= 0.05
                else f"q_hat {rows[0][0]}"),
        Request("weak-toa", ["weak", "toa", "--dtau", "0.05", "--pdl-db", "15",
                             "--pdl-axis", "0.9"],
                header="dtau,tc,theta_pre,phi_pre,pdl_db,pdl_axis,toa_closed,"
                       "toa_numeric,toa_weak", rows=1),
        Request("weak-sweep", ["weak", "sweep", "--ratio-min", "1e-3",
                               "--ratio-max", "10", "--points", "25"],
                header="dtau,tc,theta_pre,phi_pre,pdl_db,pdl_axis,toa_exact,"
                       "toa_weak,abs_error", rows=25),
        Request("weak-profile", ["weak", "profile", "--dtau", "3",
                                 "--theta-pre", "0.7853981633974483"],
                header="t,intensity_x,intensity_y,intensity_total"),
        Request("distill-classical",
                ["distill", "classical", "--d", _num(d_bad), "--n", "8"],
                code=1, label="reject-d"),
        Request("clone-fidelity", ["clone", "fidelity", "--n", "1"], code=1,
                label="reject-missing-m"),
    ]
    return reqs


def run_request(run, req, rng):
    """Invoke one request. Returns (wall, peak RSS, failure message or
    None, per-layer statistics of a traced invocation)."""
    outdir = os.path.join(run.tmp, f"cli-{run.spawned}")
    seed = rng.randrange(2 ** 31)
    args = req.args + ["--seed", str(seed), "--outdir", outdir]
    if run.trace:
        stats_path = os.path.join(run.tmp, f"trace-{run.spawned}.json")
        argv = [PY, os.path.join(BENCH_DIR, "traced_cli.py"), stats_path,
                *args]
    else:
        argv = [PY, "-m", "qclink", *args]
    code, wall, peak, _, err = run.spawn(argv)
    try:
        problem = req.verify(code, outdir, seed)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problem = f"unreadable output: {exc!r}"
    if problem:
        with open(err) as fh:
            tail = fh.read()[-300:].strip()
        problem = f"qclink {' '.join(req.args)}: {problem} {tail}"
    stats = {}
    if run.trace:
        with open(stats_path) as fh:
            stats = json.load(fh)
    shutil.rmtree(outdir, ignore_errors=True)
    return wall, peak, problem, stats


def combine(stats):
    """Median of each additive statistic over passes or invocations;
    maximum of peaks."""
    keys = set().union(*stats)
    out = {}
    for key in keys:
        values = [s.get(key, 0) for s in stats]
        out[key] = max(values) if key.startswith("peak.") \
            else statistics.median(values)
    return out


# ------------------------------------------------------------ workloads

def run_workload(run, workload, seed, seconds):
    """Interleave set-up imports, CLI invocations and worker passes for
    `seconds`, then until each has its minimum count."""
    rng = random.Random(f"{workload}:{seed}")
    requests = cli_requests(rng, run.tmp)
    if workload == "cli-mix":
        size, rounds, min_cli = "probe", requests, len(requests)
    else:
        size, min_cli = "full", MIN_PROBES
        rounds = [r for r in requests if r.label == CLI_PROBE]
    share = CLI_SHARE[workload]
    worker = Worker(run, size, seed)
    setups, failures = [], []
    walls, cli_stats = defaultdict(list), defaultdict(list)  # by request
    cli_rss, invocations, passes, queue = 0.0, 0, 0, []
    spent = {"cli": 0.0, "worker": 0.0}
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(setups) < SETUP_IMPORTS and \
                elapsed >= len(setups) * seconds / SETUP_IMPORTS:
            setups.append(setup_import(run))
            continue
        need_cli, need_pass = invocations < min_cli, passes < MIN_PASSES
        if elapsed >= seconds and not (need_cli or need_pass):
            break
        if elapsed >= seconds:
            cli = need_cli
        else:  # the kind furthest behind its share of the time
            cli = spent["cli"] * (1 - share) <= spent["worker"] * share
        t0 = time.perf_counter()
        if cli:
            if not queue:
                queue = rounds[:]
                rng.shuffle(queue)
            req = queue.pop()
            wall, peak, problem, stats = run_request(run, req, rng)
            walls[req.label].append(wall)
            invocations += 1
            cli_rss = max(cli_rss, peak)
            if problem:
                failures.append(problem)
            if run.trace:
                cli_stats[req.label].append(stats)
        else:
            worker.step()
            passes += 1
        spent["cli" if cli else "worker"] += time.perf_counter() - t0
    result = worker.finish()
    return {"setups": setups, "walls": walls, "invocations": invocations,
            "cli_failures": failures,
            "cli_stats": cli_stats, "worker": result,
            "peak_rss_mb": cli_rss if workload == "cli-mix"
            else result["peak_rss_mb"]}


def end_to_end(out, attempted, failed):
    """End-to-end metric values and their sample counts."""
    worker = out["worker"]
    missing = [k for k in LIBRARY_METRICS if k not in worker["metrics"]]
    if missing:
        raise BenchError(f"no samples of {missing}: {worker['failures']}")
    values = dict(worker["metrics"])
    values.update(
        setup_s=statistics.median(out["setups"]) + worker["warmup_s"],
        peak_rss_mb=out["peak_rss_mb"],
        ok_frac=(attempted - failed) / attempted,
        cli_wall_s=cli_wall(out["walls"]))
    samples = dict(worker["samples"])
    samples["cli_wall_s"] = out["invocations"]
    return values, samples


def per_layer(out):
    """Per-pass layer statistics: the worker's median pass plus one
    invocation of each distinct CLI request (median over its repeats)."""
    raw = Counter(combine(out["worker"]["layer_passes"]))
    for stats in out["cli_stats"].values():
        for key, value in combine(stats).items():
            raw[key] = max(raw[key], value) if key.startswith("peak.") \
                else raw[key] + value
    raw.update(combine(out["setups"]))

    def ratio(num, den):
        return raw[num] / raw[den] if raw[den] else 0.0

    raw["distill.scan_exhausted_frac"] = ratio("distill.min_block_none",
                                               "distill.min_block_calls")
    raw["distill.mc_accept_ratio"] = ratio("distill.mc_accepted",
                                           "distill.mc_trials")
    raw["distill.mc_peak_mb"] = raw["peak.distill.mc_peak"]
    raw["weakmeas.peak_mb"] = raw["peak.weakmeas.peak"]
    return {name: raw[name] for name, _ in PER_LAYER}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "qclink", "__init__.py")):
        print(f"error: no qclink sources under {SRC}", file=sys.stderr)
        return 2

    # Termination unwinds through reap(), which kills and reaps the running
    # child, and through run.close(), which ends the worker and removes
    # the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(args.trace)
    try:
        out = run_workload(run, args.workload, args.seed, args.seconds)
        worker = out["worker"]
        attempted = out["invocations"] + worker["attempted"]
        failed = len(out["cli_failures"]) + worker["failed"]
        if args.trace:
            metrics, units, samples = per_layer(out), dict(PER_LAYER), {}
        else:
            values, samples = end_to_end(out, attempted, failed)
            metrics = {name: values[name] for name, _ in END_TO_END}
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        run.close()

    v = worker["versions"]
    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}; {os.cpu_count()} cores, "
          f"Python {v['python']}, numpy {v['numpy']}, scipy {v['scipy']}")
    print(f"# worker passes {worker['passes']}, CLI invocations "
          f"{out['invocations']}, set-up imports {len(out['setups'])}, "
          f"warm-up {worker['warmup_s']:.3f} s")
    for msg in out["cli_failures"] + worker["failures"]:
        print(f"FAILED {msg}", file=sys.stderr)
    if args.trace:  # timings under tracing, to compare with --trace 0
        traced = dict(worker["metrics"],
                      cli_wall_s=cli_wall(out["walls"]))
        print("# traced: " + ", ".join(f"{k} {v:.6g}"
                                       for k, v in traced.items()))
    for name, value in metrics.items():
        where = ""
        if name == "cli_wall_s":
            where = f"  ({len(out['walls'])} requests, {samples[name]} " \
                "invocations)"
        elif name in samples:
            size = "full" if args.workload == "library" else "probe"
            where = f"  ({size} size, quartiles of {samples[name]} samples)"
        print(f"{name:32s} {value:>16.6g} {units[name]}{where}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": val, "unit": units[k]}
                    for k, val in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
