"""Telecom fibers as polarization meters: arrival times, weak and strong.

A birefringent span delays one polarization mode against the other by
dtau; a lossy element then favours one polarization over the other. For
dtau much larger than the pulse width t_c the arrival time reads out the
polarization cleanly. For dtau much smaller, the mean arrival time still
shifts, and with a near-orthogonal post-selection the shift can exceed
the bare dtau/2 range, following the two-state pointer formula.

Run:  python demos/weak_measurement_toa.py
"""

import numpy as np

from qclink import weakmeas as wm

t_c = 1.0

print("Strong regime: dtau = 10 t_c splits a diagonal pulse in two")
pulse = wm.PolarizedPulse(t_c, wm.jones_linear(np.pi / 4))
strong = wm.propagate(pulse, [wm.PmdElement(10.0)])
t = wm.default_time_grid(strong)
separation = wm.peak_separation(t, strong.intensity(t).sum(axis=1))
print(f"  peak separation: {separation:.2f} t_c")
print(f"  eigenmode mix-up probability by timing: "
      f"{wm.discrimination_error(10.0, t_c):.1e}")
print()

print("Weak regime: the mean arrival time is a polarization average")
pmd = wm.PmdElement(0.01)
for theta_deg in (0, 30, 45, 60, 90):
    pre = wm.jones_linear(np.radians(theta_deg))
    toa = wm.mean_toa_closed(wm.PolarizedPulse(t_c, pre), pmd)
    print(f"  input at {theta_deg:3d} deg: <t> = {toa:+.6f}"
          f"  (dtau/2 = {pmd.delta_tau / 2})")
print()

print("Post-selection amplifies: input at +45 deg, analyzer near -45 deg")
pre = wm.jones_linear(np.pi / 4)
print("  analyzer offset  <t> exact     <t> weak      in units of dtau/2")
for eps in (0.3, 0.2, 0.1, 0.05):
    post = wm.analyzer(-np.pi / 4 + eps)
    exact = wm.mean_toa_closed(wm.PolarizedPulse(t_c, pre), pmd, post)
    weak = wm.weak_value(pre, pmd, post)
    print(f"  {eps:14.2f}  {exact:+.6f}   {weak:+.6f}   "
          f"{exact / (pmd.delta_tau / 2):+.1f}x")
print()

print("Weak-to-strong transition: where the pointer formula breaks down")
ratios = np.logspace(-3, 1, 9)
rows = wm.toa_transition_sweep(pre, wm.analyzer(-np.pi / 4 + 0.3),
                               ratios * t_c, t_c)
print("  dtau/t_c   <t> exact     <t> weak      |error| / (dtau/2)")
for r in rows:
    print(f"  {r.ratio:8.3f}  {r.toa_exact:+.6f}   {r.toa_weak:+.6f}"
          f"   {r.abs_error / (r.delta_tau / 2):.2e}")
weak_rows = [r for r in rows if r.ratio <= 0.1]
slope = np.polyfit(np.log([r.ratio for r in weak_rows]),
                   np.log([r.abs_error / (r.delta_tau / 2)
                           for r in weak_rows]), 1)[0]
print(f"  scaled error falls off as (dtau/t_c)^{slope:.2f}")
print()

print("Finite loss is a soft post-selection: it interpolates between no")
print("conditioning (0 dB) and a pure analyzer (inf dB)")
for gamma in (0.0, 3.0, 10.0, 30.0, 60.0, np.inf):
    post = wm.PdlElement(gamma, axis=-np.pi / 4 + 0.2)
    weak = wm.weak_value(pre, pmd, post)
    label = "inf" if np.isinf(gamma) else f"{gamma:.0f}"
    print(f"  {label:>4s} dB: <t>_weak = {weak:+.6f}")
