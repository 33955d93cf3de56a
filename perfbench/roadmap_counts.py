#!/usr/bin/env python3
"""Solver work of the kernels in the ROADMAP baseline table, at fixed points.

    python3 perfbench/roadmap_counts.py

Prints one JSON object: LSODA RHS and Jacobian evaluations of one driven
response-map cell on the ridge (fig4's time-series cell, lam = 0.8 lam_c,
nu = 1.2) and one off it (nu = 1.6), and of the regression correlator on
the default 16384-point tau grid at lam = 9 (N = 1e5).  The counts are
deterministic; the benchmark's traced runs report the same counters for
their seeded inputs.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer     # noqa: E402  (needs src on sys.path first)


def main() -> int:
    if not (ROOT / "src" / "opendicke").is_dir():
        print("error: run from a checkout with src/opendicke", file=sys.stderr)
        return 2
    from opendicke import correlations, meanfield, modulation
    from opendicke.figures import base_params

    tracer = Tracer()
    tracer.install()
    p = base_params(1e5)
    lam = 0.8 * meanfield.critical_coupling(p)
    out = {}
    for name, nu in (("cell_ridge_nu_1.2", 1.2), ("cell_off_ridge_nu_1.6", 1.6)):
        tracer.reset()
        tracer.active = True
        modulation.driven_response_map(p, [lam], [nu], eps=0.02)
        tracer.active = False
        (_, nfev, njev), = tracer.solver_calls
        out[name] = {"rhs_evals": nfev, "jac_evals": njev}
    q = base_params(1e5, lam=9.0)
    tau = correlations.default_tau_grid(q)
    tracer.reset()
    tracer.active = True
    correlations.two_time_correlations(q, tau, method="regression")
    tracer.active = False
    (_, nfev, njev), = tracer.solver_calls
    out["regression_lam_9"] = {"tau_points": len(tau), "rhs_evals": nfev,
                               "jac_evals": njev}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
