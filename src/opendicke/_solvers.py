"""SciPy's integrators, imported on their first call.

Importing ``scipy.integrate`` also loads ``scipy.special`` and
``scipy.optimize``, most of a fresh process's start-up.  The modules that
integrate bind these two functions instead, so a run that never integrates
(``spectrum``, ``steady-state``, ``photon-flux``, ``g2``) never pays for
that import.  Each passes its arguments to the SciPy function unchanged.
``load`` imports it ahead of time, for a parent about to fork workers.
"""

from __future__ import annotations

import warnings


def load() -> None:
    """Import ``scipy.integrate`` now, so that forked processes inherit it."""
    import scipy.integrate  # noqa: F401


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``."""
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)


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
