"""Acceptance suite: one check per release criterion.

Each test prints a single [PASS]/[FAIL] line (run pytest with -s to see
them live; they are also shown on failure). The module doubles as a
script: `python tests/test_acceptance.py` runs every criterion and exits
nonzero if any fails.
"""

import json
import time

import numpy as np

from qclink import cli, cloning, distill, qcore, qkd
from qclink import weakmeas as wm


def report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_1_amplifier_formula_identity():
    """Integer-intensity amplifier fidelity coincides with the optimal
    copying fidelity at unit quality, exhaustively for 1 <= N <= M <= 50."""
    t0 = time.time()
    worst = 0.0
    for n in range(1, 51):
        for m in range(n, 51):
            worst = max(worst, abs(cloning.fidelity_classical(n, m, 1.0)
                                   - cloning.fidelity_opt(n, m)))
    elapsed = time.time() - t0
    report("criterion 1: amplifier(Q=1) == optimal copying, N<=M<=50",
           worst <= 1e-12 and elapsed < 1.0,
           f"max |diff| = {worst:.2e}, {elapsed:.2f} s")


def test_criterion_2_birth_process_oracle():
    """The gain chain reproduces the optimal copying fidelity: exact
    enumeration to 1e-12 on the reference cases, Monte Carlo within 3
    standard errors for all N <= 4, M <= 8 at 1e5 trials."""
    t0 = time.time()
    exact_ok = (abs(cloning.birth_process_exact(1, 2) - 5 / 6) <= 1e-12
                and abs(cloning.birth_process_exact(1, 3) - 7 / 9) <= 1e-12)
    mc_ok = True
    detail = ""
    for n in range(1, 5):
        for m in range(n, 9):
            mean, se = cloning.birth_process_mc(n, m, trials=100_000,
                                                seed=97 * n + m)
            ref = cloning.fidelity_opt(n, m)
            if m == n:
                ok = mean == 1.0
            else:
                ok = abs(mean - ref) <= 3 * se
            if not ok:
                mc_ok = False
                detail = f"(N={n}, M={m}): {mean} vs {ref} +- {3 * se:.2e}"
    elapsed = time.time() - t0
    report("criterion 2: birth-chain MC and enumeration match the formula",
           exact_ok and mc_ok and elapsed < 60.0,
           detail or f"{elapsed:.2f} s")


def test_criterion_3_quality_recovery():
    """Synthetic fidelity-vs-intensity data at Q=0.8 with sigma=0.005
    noise: the fit recovers 0.80 +- 0.02 in at least 95 of 100 seeds."""
    t0 = time.time()
    mu = np.logspace(np.log10(0.5), np.log10(50.0), 50)
    hits = 0
    for seed in range(100):
        data = cloning.generate_fidelity_dataset(
            0.8, mu, gain=10.0, noise_sigma=0.005, seed=seed)
        q_hat, _ = cloning.fit_q(data)
        hits += abs(q_hat - 0.8) <= 0.02
    elapsed = time.time() - t0
    report("criterion 3: Q = 0.8 recovered within 0.02 in >= 95/100 runs",
           hits >= 95 and elapsed < 60.0, f"hits = {hits}, {elapsed:.2f} s")


def test_criterion_4_threshold_trio():
    """Critical disturbances: entanglement at 0.29289, CHSH at 0.14645,
    one-way key agreement equal to the CHSH value within 2e-3."""
    t0 = time.time()
    ent = qkd.threshold("entanglement", tol=1e-6)
    chsh = qkd.threshold("chsh", tol=1e-6)
    one_way = qkd.threshold("one_way", tol=1e-6)
    elapsed = time.time() - t0
    ok = (abs(ent - 0.29289) <= 1e-3 and abs(chsh - 0.14645) <= 1e-3
          and abs(one_way - chsh) <= 2e-3 and elapsed < 60.0)
    report("criterion 4: threshold trio (entanglement, CHSH, one-way)",
           ok, f"{ent:.5f}, {chsh:.5f}, {one_way:.5f}, {elapsed:.2f} s")


def test_criterion_5_ad_entanglement_equivalence():
    """Block distillation tracks entanglement at desk scale: with blocks
    up to 30 the advantage exists on every grid point D <= 0.27, is gone
    on every grid point D >= 0.33, and the measured critical disturbance
    sits within 0.02 of 0.29289 for at least one Eve measurement."""
    t0 = time.time()
    grid = np.round(np.arange(0.01, 0.40, 0.01), 10)
    ok_all = True
    details = []
    threshold_hit = False
    for eve in qkd.EVE_MEASUREMENTS:
        rows = distill.equivalence_sweep(grid, n_max=30, eve_measurement=eve)
        present = [r.d for r in rows if r.ad_min_block is not None]
        absent = [r.d for r in rows if r.ad_min_block is None]
        low_ok = all(r.ad_min_block is not None
                     for r in rows if r.d <= 0.27 + 1e-12)
        high_ok = all(r.ad_min_block is None
                      for r in rows if r.d >= 0.33 - 1e-12)
        measured = 0.5 * (max(present) + min(absent))
        if eve == qkd.HELSTROM_BINARY:
            ok_all = ok_all and low_ok and high_ok
        threshold_hit = threshold_hit or abs(measured - 0.29289) <= 0.02
        details.append(f"{eve}: threshold {measured:.4f}")
    elapsed = time.time() - t0
    report("criterion 5: block-distillation boundary matches entanglement",
           ok_all and threshold_hit and elapsed < 600.0,
           "; ".join(details) + f", {elapsed:.1f} s")


def test_criterion_6_recurrence_protocol():
    """Recurrence map: fixed points at 1/2 and 1 to 1e-12, strict gain on
    {0.55, 0.7, 0.85, 0.95}, and the three Werner-state criteria flip
    together at p = 1/3 within 1e-3."""
    t0 = time.time()
    fixed_ok = (abs(distill.recurrence_step(0.5)[0] - 0.5) <= 1e-12
                and abs(distill.recurrence_step(1.0)[0] - 1.0) <= 1e-12)
    gain_ok = all(distill.recurrence_step(f)[0] > f
                  for f in (0.55, 0.7, 0.85, 0.95))
    chain_ok = True
    for p, expect in ((1 / 3 + 1e-3, True), (1 / 3 - 1e-3, False)):
        rho = qcore.werner(p)
        f = qcore.singlet_fidelity(rho)
        entangled = qcore.is_entangled(rho)[0]
        improves = distill.recurrence_step(f)[0] > f
        chain_ok = chain_ok and (entangled == expect == (f > 0.5) == improves)
    elapsed = time.time() - t0
    report("criterion 6: recurrence fixed points, gain, Werner chain",
           fixed_ok and gain_ok and chain_ok and elapsed < 1.0,
           f"{elapsed:.2f} s")


def test_criterion_7_weak_measurement_oracle():
    """Arrival-time physics: numeric integration meets the closed form to
    1e-9 (relative to the shift scale) on 100 random configurations, the
    weak-limit error falls off quadratically, the strong regime separates
    the eigenmodes below 1e-6 error, and a post-selected shift larger
    than dtau/2 matches the closed form to 1e-6."""
    t0 = time.time()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(100):
        ratio = 10.0 ** rng.uniform(-3, 1)
        pulse = wm.PolarizedPulse(1.0, wm.jones_elliptical(
            rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)))
        pmd = wm.PmdElement(ratio)
        post = wm.PdlElement(rng.uniform(0.0, 30.0), rng.uniform(0, np.pi))
        closed = wm.mean_toa_closed(pulse, pmd, post)
        numeric = wm.propagate(pulse, [pmd, post]).mean_toa()
        worst = max(worst, abs(numeric - closed) / max(abs(closed), ratio / 2))
    agree_ok = worst <= 1e-9

    rows = wm.toa_transition_sweep(
        wm.jones_linear(np.radians(55)), wm.analyzer(np.radians(10)),
        np.logspace(-3, -1, 13), 1.0)
    scaled = [r.abs_error / (r.delta_tau / 2) for r in rows]
    slope = float(np.polyfit(np.log([r.ratio for r in rows]),
                             np.log(scaled), 1)[0])
    slope_ok = abs(slope - 2.0) <= 0.1

    strong_ok = wm.discrimination_error(10.0, 1.0) < 1e-6

    pre = wm.jones_linear(np.pi / 4)
    post = wm.analyzer(-np.pi / 4 + 0.1)
    pmd = wm.PmdElement(1e-3)
    weak = wm.weak_value(pre, pmd, post)
    closed = wm.mean_toa_closed(wm.PolarizedPulse(1.0, pre), pmd, post)
    amp_ok = abs(weak) > pmd.delta_tau / 2 and abs(weak - closed) <= 1e-6

    elapsed = time.time() - t0
    report("criterion 7: arrival-time oracle, slope, strong and amplified",
           agree_ok and slope_ok and strong_ok and amp_ok and elapsed < 60.0,
           f"agree {worst:.1e}, slope {slope:.3f}, "
           f"amplified {abs(weak) / (pmd.delta_tau / 2):.1f}x, "
           f"{elapsed:.1f} s")


def test_criterion_8_determinism_and_interface(tmp_path):
    """Seeded runs write byte-identical CSV bodies and the front end
    honours the 0/1/2 exit-code contract."""
    t0 = time.time()
    bodies = []
    for sub in ("a", "b"):
        outdir = tmp_path / sub
        code = cli.main(["distill", "classical", "--d", "0.2", "--n", "4",
                         "--trials", "50000", "--seed", "11",
                         "--outdir", str(outdir)])
        assert code == 0
        bodies.append((outdir / "distill-classical-11.csv").read_bytes())
    deterministic = bodies[0] == bodies[1]

    ok_codes = (
        cli.main(["clone", "fidelity", "--n", "1", "--m", "2",
                  "--outdir", str(tmp_path)]) == 0
        and cli.main(["clone", "fidelity", "--n", "1"]) == 1
        and cli.main(["unknown"]) == 1
        and cli.main(["distill", "classical", "--d", "0.499", "--n", "60",
                      "--trials", "10000", "--outdir", str(tmp_path)]) == 2)
    diag = json.loads((tmp_path / "distill-classical-0.json").read_text())
    elapsed = time.time() - t0
    report("criterion 8: deterministic CSV bodies and exit-code contract",
           deterministic and ok_codes and "error" in diag,
           f"{elapsed:.2f} s")


if __name__ == "__main__":
    import pytest
    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
