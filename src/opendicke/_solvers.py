"""SciPy's integrators, imported on their first call.

Importing ``scipy.integrate`` also loads ``scipy.special`` and
``scipy.optimize``, most of a fresh process's start-up.  The modules that
integrate bind these two functions instead, so a run that never integrates
(``spectrum``, ``steady-state``, ``photon-flux``, ``g2``) never pays for
that import.  ``quad``, and ``solve_ivp`` for DOP853 and the other
methods, pass their arguments to the SciPy function unchanged.
``solve_ivp`` runs LSODA through ``odeint`` and RK45 through ``ode``'s
``dopri5``, the same Dormand-Prince 5(4) pair, so that each step loop
stays in compiled code and only the right-hand side calls back into
Python.  ``load`` imports ``scipy.integrate`` ahead of time, for a parent
about to fork workers.
"""

from __future__ import annotations

import math
import warnings
from types import SimpleNamespace

import numpy as np

#: ``odeint``'s message for a run that reached every output time
_ODEINT_SUCCESS = "Integration successful."

#: largest step count ``odeint`` and ``dopri5`` accept; the callers bound
#: their work by counting right-hand-side evaluations instead
#: (``meanfield._bounded``)
_MXSTEP = 2 ** 31 - 1

#: ``dopri5`` restarts at each output time (2 right-hand-side calls) and
#: takes at least one step (6 calls) to reach it, so output times denser
#: than its steps cost calls of their own.  Once the last ``_DENSE_WINDOW``
#: output intervals took ``_DENSE_CALLS`` calls or fewer on average, most
#: were crossed in one step, and ``solve_ivp``'s dense output samples the
#: remaining times for less
_DENSE_WINDOW = 16
_DENSE_CALLS = 11


def load() -> None:
    """Import ``scipy.integrate`` now, so that forked processes inherit it."""
    import scipy.integrate  # noqa: F401


def solve_ivp(fun, t_span, y0, method="RK45", t_eval=None, **options):
    """``scipy.integrate.solve_ivp``, with LSODA run by ``odeint`` and RK45 by ``dopri5``.

    ``solve_ivp`` drives its solvers from Python one step at a time, which
    costs about as much again as the right-hand side; ``odeint`` runs
    ODEPACK's LSODA, and ``scipy.integrate.ode``'s ``dopri5`` RK45's
    Dormand-Prince 5(4) pair, in their own loops.  For these two ``rtol``
    and ``atol`` are the only options, ``t_eval`` is checked here as
    ``solve_ivp`` checks it, and LSODA requires it.  RK45 steps to each
    ``t_eval`` time in turn and hands the times left to ``solve_ivp``'s
    RK45 once they come denser than its steps (``_DENSE_CALLS``); without
    ``t_eval`` it samples every accepted step.  DOPRI5 runs with its
    stiffness test off, as ``solve_ivp``'s RK45 has none.  The result has
    the fields ``t``, ``y``, ``nfev``, ``njev``, ``success`` and
    ``message``; for LSODA ``nfev`` and ``njev`` are ODEPACK's own counts,
    for RK45 the right-hand-side calls and 0.  A failed LSODA run carries
    no samples and counts no work, as ``odeint`` leaves both undefined past
    the output time it failed to reach; a failed RK45 run carries the
    samples it reached.  The step count is not limited, and an exception
    raised by ``fun`` reaches the caller.  ``dopri5`` does not stop for
    one, so for RK45 it is raised after the run: from the raise on the
    right-hand side returns NaN, and DOPRI5 steps down and gives up within
    a few thousand calls.  A span with an infinite or NaN end raises
    ValueError before any SciPy call, on every route: DOPRI5 given one
    spins without calling ``fun``, so no work limit could stop it.
    """
    t0, t1 = map(float, t_span)
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t_span must be finite, got ({t0}, {t1})")
    if method not in ("LSODA", "RK45"):
        from scipy.integrate import solve_ivp
        return solve_ivp(fun, t_span, y0, method=method, t_eval=t_eval, **options)
    if t_eval is not None:  # solve_ivp's checks
        t_eval = np.asarray(t_eval, dtype=float)
        if t_eval.ndim != 1:
            raise ValueError("`t_eval` must be 1-dimensional.")
        if np.any(t_eval < min(t0, t1)) or np.any(t_eval > max(t0, t1)):
            raise ValueError("Values in `t_eval` are not within `t_span`.")
        d = np.diff(t_eval)
        if t1 > t0 and np.any(d <= 0) or t1 < t0 and np.any(d >= 0):
            raise ValueError("Values in `t_eval` are not properly sorted.")
    if method == "RK45":
        return _dopri5(fun, t0, t1, y0, t_eval, **options)
    if t_eval is None:
        raise ValueError("LSODA needs t_eval")
    return _odeint(fun, t0, y0, t_eval, **options)


def _dopri5(fun, t0: float, t1: float, y0, t_eval, rtol: float, atol: float):
    from scipy.integrate import ode
    y0 = np.array(y0, dtype=float)
    nan = np.full(y0.shape, np.nan)
    calls, raised = 0, []

    def rhs(t, y):
        nonlocal calls
        calls += 1
        if not raised:
            try:
                return fun(t, y)
            except BaseException as exc:  # Ctrl-C included; raised after the run
                raised.append(exc)
        return nan

    times, states = [], []

    def accepted(t, y):
        times.append(t)
        states.append(y.copy())

    solver = ode(rhs).set_integrator("dopri5", rtol=rtol, atol=atol, nsteps=_MXSTEP)
    if t_eval is None:
        solver.set_solout(accepted)
    solver.set_initial_value(y0, t0)
    solver._integrator.iwork[3] = -1  # NSTIFF < 0: no stiffness test
    marks, dense = [], None  # calls at each output time; solve_ivp's first
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "dopri5: ", UserWarning)
        for i, t in enumerate((t1,) if t_eval is None else t_eval):
            y = solver.y if t == solver.t else solver.integrate(t)
            if not solver.successful():
                break
            if t_eval is not None:
                accepted(t, y)
                marks.append(calls)
                if i >= _DENSE_WINDOW and (calls - marks[i - _DENSE_WINDOW]
                                           <= _DENSE_WINDOW * _DENSE_CALLS):
                    dense = i + 1
                    break
    if raised:
        raise raised[0]
    code = solver.get_return_code() or 1  # None before the first step
    sol = SimpleNamespace(t=np.array(times), y=np.reshape(states, (-1, y0.size)).T,
                          nfev=calls, njev=0, success=solver.successful(),
                          message=solver._integrator.messages.get(
                              code, f"Unexpected istate={code}"))
    if dense is None or dense == t_eval.size:
        return sol
    from scipy.integrate import solve_ivp
    rest = solve_ivp(fun, (solver.t, t1), solver.y, t_eval=t_eval[dense:],
                     rtol=rtol, atol=atol)
    return SimpleNamespace(t=np.concatenate((sol.t, rest.t)),
                           y=np.concatenate((sol.y, rest.y), axis=1),
                           nfev=calls + rest.nfev, njev=0, success=rest.success,
                           message=rest.message)


def _odeint(fun, t0: float, y0, t_eval: np.ndarray, rtol: float, atol: float):
    from scipy.integrate import ODEintWarning, odeint
    # odeint's first output time is the initial one
    start = t_eval.size == 0 or t_eval[0] != t0
    times = np.concatenate(([t0], t_eval)) if start else t_eval
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ODEintWarning)
        y, info = odeint(fun, y0, times, rtol=rtol, atol=atol, mxstep=_MXSTEP,
                         full_output=True, tfirst=True)
    if info["message"] != _ODEINT_SUCCESS:
        return SimpleNamespace(t=t_eval[:0], y=y[:0].T, nfev=0, njev=0,
                               success=False, message=info["message"])
    return SimpleNamespace(t=t_eval, y=y[int(start):].T, nfev=int(info["nfe"][-1]),
                           njev=int(info["nje"][-1]), success=True,
                           message=info["message"])


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, with ``IntegrationWarning`` ignored during the call.

    The mapping's oscillatory overlaps sit at the roundoff limit of their
    requested tolerance, so the tolerance-not-achieved warning is noise
    there; the test suite checks the mapping's three overlaps against their
    closed forms in 40-digit mpmath (``TestOverlapOracle``) to 1e-11
    relative.  Any other warning still reaches the caller.
    """
    from scipy.integrate import IntegrationWarning, quad
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(*args, **kwargs)
