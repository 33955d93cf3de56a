"""The machine's current speed, measured by a fixed probe between requests.

On a shared host the CPU time of the same work switches between levels
1.7 to 2x apart, in phases of seconds to a minute, with no steal time to
show it (a busy neighbour on the same physical core is the likely cause).  The
probe is a fixed piece of work of the same character as the package's
(an LSODA integration of a small nonlinear ODE, small dense eigenproblems,
an FFT and interpreter-bound Python), built from NumPy and SciPy only, so
no change to the package can change its cost.  The benchmark runs it
between every two requests and scales each request's CPU time by the
reference probe time over the mean of the probes on either side of it:
the result is the request's time at the reference machine's speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigvals

#: median CPU seconds of one probe on the reference machine (2 shared
#: x86_64 vCPUs, Python 3.11, NumPy 2.4, SciPy 1.17) in its fast phase; it
#: fixes the unit only: results read as seconds at that speed
REFERENCE_S = 0.0125

_MATRICES = np.random.default_rng(7).standard_normal((80, 4, 4))
_SIGNAL = np.cos(np.linspace(0.0, 200.0, 4096))


def _rhs(t, y):
    x, p, jx, jz = y
    return [p, -x - 0.2 * p + 0.8 * jx, -jz * x, jx * x - 0.05 * (jz + 0.5)]


def probe_seconds() -> float:
    """CPU seconds of one run of the fixed probe work."""
    t0 = time.process_time()
    solve_ivp(_rhs, (0.0, 100.0), [0.1, 0.0, 0.0, -0.5], method="LSODA",
              rtol=1e-8, atol=1e-10)
    for m in _MATRICES:
        eigvals(m)
    np.abs(np.fft.rfft(_SIGNAL)).argmax()
    acc = 0.0
    for k in range(6000):
        acc += (k % 7) * 0.5
    return time.process_time() - t0


class Speed:
    """Probes run between units of work, and the scale factor of each unit."""

    def __init__(self):
        probe_seconds()                    # warm-up: first-call set-up costs
        self.last = probe_seconds()
        self.samples = [self.last]

    def factor(self) -> float:
        """Scale for the work done since the previous call (or since start).

        Runs one probe now; the factor is REFERENCE_S over the mean of this
        probe and the one before the work.
        """
        now = probe_seconds()
        self.samples.append(now)
        f = REFERENCE_S / (0.5 * (self.last + now))
        self.last = now
        return f

    def summary(self) -> dict:
        s = self.samples
        return {"probes": len(s), "median_s": statistics.median(s),
                "min_s": min(s), "max_s": max(s), "reference_s": REFERENCE_S}
