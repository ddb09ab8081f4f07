"""The term-doubling chain expansion: the oracle for weakmeas.propagate.

Every delay section doubles the term list, so k sections leave 2^k terms
even when their delays coincide and k + 1 distinct delays would do.
weakmeas.propagate merges coincident delays; its fields must integrate to
the same energy and mean arrival time, and with all delays distinct its
terms must be these, in this order.
"""

import numpy as np

from qclink import weakmeas as wm


def propagate_terms(pulse, elements):
    """Send a pulse through a chain of delay and loss elements, keeping one
    term per path through the delay sections."""
    delays, amps = np.zeros(1), pulse.jones[None, :]
    with np.errstate(over="ignore"):
        for element in elements:
            if isinstance(element, wm.PmdElement):
                slow, fast = element.slow_fast()
                cs = amps @ slow.astype(complex)
                cf = amps @ fast.astype(complex)
                delays = np.concatenate([delays + element.delta_tau / 2.0,
                                         delays - element.delta_tau / 2.0])
                amps = np.vstack([np.outer(cs, slow), np.outer(cf, fast)])
            elif isinstance(element, wm.PdlElement):
                amps = amps @ element.jones_matrix().T.astype(complex)
            else:
                raise ValueError(f"unknown element {element!r}")
            keep = (np.abs(amps) ** 2).sum(axis=1) > 0.0
            delays, amps = delays[keep], amps[keep]
    return wm.PropagatedField(pulse.t_c, delays, amps)
