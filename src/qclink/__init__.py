"""qclink: numerical workbench for classical/quantum correspondences.

Subpackages:
    qcore    two-qubit states and the PPT entanglement test
    qkd      entangled-pair protocol under an individual attack, in
             closed form from the four Bell weights
    distill  classical advantage distillation and pair recurrence
    cloning  optimal copying fidelity and optical amplification
    weakmeas polarized pulses, birefringent delay, lossy post-selection
    cli      command-line front end
"""

__version__ = "0.1.0"

from . import cloning, distill, qcore, qkd, weakmeas  # noqa: F401
