"""The benchmark's tracer still finds every function and solver it wraps."""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: one off-ridge cell and one resonant cell, traced as the benchmark does
TRACED_CELLS = """
import json
from tracing import Tracer
tracer = Tracer()
tracer.install()
from opendicke import meanfield, modulation
from opendicke.params import DickeParams
heads = []
tracer.hooks["modulation._solve_cell"] = lambda args, dur: heads.append(args[0][:3])
p = DickeParams(300.0, 1.0, 0.0, 0.0, 200.0, 1e5)
lc = meanfield.critical_coupling(p)
out = {}
for name, nu, t_max in (("off_ridge", 1.6, None), ("resonant", 1.2, 200.0)):
    tracer.reset()
    heads.clear()
    tracer.active = True
    modulation.driven_response_map(p, [0.8 * lc], [nu], eps=0.02, t_max=t_max)
    tracer.active = False
    out[name] = dict(
        cells=tracer.counts["modulation._solve_cell.calls"],
        nfev=tracer.counts["modulation.nfev"],
        heads=[[type(h[0]).__name__, h[1] / lc, h[2]] for h in heads])
print(json.dumps(out))
"""

#: one regression-route call on its default grid, traced as the benchmark
#: traces the photodetection workload
TRACED_REGRESSION = """
import json
from tracing import Tracer
tracer = Tracer()
tracer.install()
from opendicke import correlations
from opendicke.params import DickeParams
p = DickeParams(300.0, 1.0, 2.0, 0.0, 200.0, 1e5)
tracer.active = True
correlations.two_time_correlations(p, correlations.default_tau_grid(p),
                                   method="regression")
tracer.active = False
print(json.dumps(dict(nfev=tracer.counts["correlations.nfev"])))
"""


def _child(code: str) -> subprocess.CompletedProcess:
    # in a child process, so the wrappers never reach the other tests
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src"), str(REPO / "perfbench")]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_tracer_installs_on_package():
    proc = _child("from tracing import Tracer; Tracer().install()")
    assert proc.returncode == 0, proc.stderr


def test_traced_cells_report_integrator_work_only_where_it_runs():
    proc = _child(TRACED_CELLS)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    off, resonant = out["off_ridge"], out["resonant"]
    # the hook reads (p, lam, nu) from the cell's argument tuple
    assert off["cells"] == 1 and len(off["heads"]) == 1
    kind, lam_ratio, nu = off["heads"][0]
    assert kind == "DickeParams" and abs(lam_ratio - 0.8) < 1e-12 and nu == 1.6
    assert off["nfev"] == 0
    assert resonant["cells"] == 1 and resonant["nfev"] > 0


def test_traced_regression_route_reports_bounded_integrator_work():
    # the benchmark reads correlations.regression_rhs_evals from the
    # module's solve_ivp binding; the propagator keeps it non-zero and small
    proc = _child(TRACED_REGRESSION)
    assert proc.returncode == 0, proc.stderr
    nfev = json.loads(proc.stdout)["nfev"]
    assert 0 < nfev < 10 ** 4
