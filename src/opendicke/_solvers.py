"""SciPy's integrators, imported on their first call.

Importing ``scipy.integrate`` also loads ``scipy.special`` and
``scipy.optimize``, most of a fresh process's start-up.  The modules that
integrate bind these two functions instead, so a run that never integrates
(``spectrum``, ``steady-state``, ``photon-flux``, ``g2``) never pays for
that import.  ``quad``, and ``solve_ivp`` for every method but LSODA, pass
their arguments to the SciPy function unchanged; ``solve_ivp`` runs LSODA
through ``odeint``, whose step loop stays inside ODEPACK.  ``load``
imports it ahead of time, for a parent about to fork workers.
"""

from __future__ import annotations

import warnings
from types import SimpleNamespace

import numpy as np

#: ``odeint``'s message for a run that reached every output time
_ODEINT_SUCCESS = "Integration successful."

#: largest step count ``odeint`` accepts; the callers bound their work by
#: counting right-hand-side evaluations instead (``meanfield._bounded``)
_MXSTEP = 2 ** 31 - 1


def load() -> None:
    """Import ``scipy.integrate`` now, so that forked processes inherit it."""
    import scipy.integrate  # noqa: F401


def solve_ivp(fun, t_span, y0, method="RK45", t_eval=None, **options):
    """``scipy.integrate.solve_ivp``, with LSODA run by ``scipy.integrate.odeint``.

    ``solve_ivp`` drives LSODA from Python one step at a time, which costs
    about as much again as the right-hand side; ``odeint`` runs the same
    ODEPACK solver in its own loop.  For LSODA, ``t_eval`` is required and
    ``rtol`` and ``atol`` are the only options.  The result has the fields
    ``t``, ``y``, ``nfev``, ``njev`` (ODEPACK's own counts), ``success`` and
    ``message``.  A failed run carries no samples and counts no work, as
    ``odeint`` leaves both undefined past the output time it failed to
    reach.  The step count is not limited, and an exception raised by
    ``fun`` reaches the caller.
    """
    if method != "LSODA":
        from scipy.integrate import solve_ivp
        return solve_ivp(fun, t_span, y0, method=method, t_eval=t_eval, **options)
    if t_eval is None:
        raise ValueError("LSODA needs t_eval")
    return _odeint(fun, float(t_span[0]), y0, np.asarray(t_eval, dtype=float),
                   **options)


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
    there; the results are checked against brute-force quadrature in the
    test suite.  Any other warning still reaches the caller.
    """
    from scipy.integrate import IntegrationWarning, quad
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(*args, **kwargs)
