"""Shared measurement helpers for the test suite."""

from __future__ import annotations

import warnings

import mpmath
import numpy as np
import scipy.integrate
from scipy.integrate import ODEintWarning


def refined_peak_heights(y: np.ndarray, n_peaks: int = 6) -> list[float]:
    """Heights of the first local maxima, parabola-refined to kill sampling bias."""
    y = np.asarray(y, dtype=float)
    idx = np.nonzero((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:]))[0] + 1
    heights = []
    for i in idx[:n_peaks]:
        left, center, right = y[i - 1], y[i], y[i + 1]
        denom = left - 2.0 * center + right
        h = center - (left - right) ** 2 / (8.0 * denom) if denom != 0 else center
        heights.append(float(h))
    return heights


def alternation_ratio(g2: np.ndarray, baseline: float = 1.0) -> float:
    """(h0*h2)/h1^2 over consecutive g2 maxima above the long-time baseline.

    Exactly 1 for a geometrically decaying envelope; != 1 when adjacent
    peaks alternate (beating).
    """
    h = refined_peak_heights(np.asarray(g2) - baseline, n_peaks=3)
    if len(h) < 3:
        raise ValueError("need at least three maxima to measure alternation")
    return (h[0] * h[2]) / (h[1] * h[1])


def loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx, ly = np.log(np.asarray(x)), np.log(np.asarray(y))
    return float(np.polyfit(lx, ly, 1)[0])


def correlation_shift(profile_a: np.ndarray, profile_b: np.ndarray,
                      dx: float, max_shift: float) -> float:
    """Displacement of b relative to a maximizing their cross-correlation."""
    a = profile_a - profile_a.mean()
    b = profile_b - profile_b.mean()
    n_max = int(round(max_shift / dx))
    scores = [np.dot(a[:-k] if k else a, b[k:] if k else b) /
              max(len(a) - k, 1) for k in range(n_max + 1)]
    return float(np.argmax(scores) * dx)


#: ODEPACK's message for tolerances below what it can reach
ODEPACK_ERROR = "Excess accuracy requested (tolerances too small)."


def failing_odeint(func, y0, t, **kwargs):
    """A stand-in for ``scipy.integrate.odeint`` that fails as ODEPACK does.

    It warns and returns the error message in place of the run; a real run
    at tolerances that fail this way (rtol 1e-30) did not stop.
    """
    warnings.warn(f"{ODEPACK_ERROR} Run with full_output = 1 to get quantitative "
                  "information.", ODEintWarning)
    return np.zeros((len(t), len(y0))), {"message": ODEPACK_ERROR}


#: ``dopri5``'s message for a step size that fell below roundoff
DOPRI5_ERROR = "step size becomes too small"


class FailingOde(scipy.integrate.ode):
    """A stand-in for ``scipy.integrate.ode`` whose ``dopri5`` gives up as DOPRI5 does.

    Each ``integrate`` call warns and flags the run failed with DOPRI5's
    code -3, leaving the state where it was.
    """

    def integrate(self, t, step=False, relax=False):
        self._integrator.istate, self._integrator.success = -3, 0
        warnings.warn(f"dopri5: {DOPRI5_ERROR}", UserWarning)
        return self._y


def dop853_reference(fun, t_span, y0, t_eval, rtol, atol, args=()):
    """Samples y(t_eval), shape (len(y0), len(t_eval)), of ``ode``'s compiled ``dop853``.

    The same Dormand-Prince 8(5,3) pair as ``solve_ivp``'s DOP853, run at the
    same tolerances in Fortran's own step loop, stepped to each output time
    in turn; ``solve_ivp`` drives it from Python one step at a time.
    """
    solver = scipy.integrate.ode(fun).set_integrator("dop853", rtol=rtol, atol=atol,
                                                     nsteps=2 ** 31 - 1)
    solver.set_initial_value(y0, t_span[0]).set_f_params(*args)
    samples = []
    for t in t_eval:
        samples.append(solver.y if t == solver.t else solver.integrate(t))
        assert solver.successful(), f"dop853 failed at t = {t}"
    return np.array(samples).T


def expm_reference(m, v0, taus, dps=40):
    """exp(M tau) v0 at each tau, shape (len(taus), len(v0)), by ``mpmath.expm``.

    M and v0 are taken as the floats they are; only the propagation is
    done in extended precision, at ``dps`` digits.
    """
    with mpmath.workdps(dps):
        mm = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in m])
        v = mpmath.matrix([mpmath.mpc(complex(x)) for x in v0])
        out = []
        for tau in taus:
            y = mpmath.expm(mm * mpmath.mpf(float(tau))) * v
            out.append([complex(y[i]) for i in range(len(v0))])
    return np.array(out)
