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

#: the resonant cell traced as above, with the right-hand side's calls counted
#: here as well
TRACED_RHS_CALLS = """
import json
from tracing import Tracer
tracer = Tracer()
tracer.install()
from opendicke import meanfield, modulation
from opendicke.params import DickeParams
calls = []
rhs = modulation._scaled_rhs
def counted(*args):
    calls.append(None)
    return rhs(*args)
modulation._scaled_rhs = counted
p = DickeParams(300.0, 1.0, 0.0, 0.0, 200.0, 1e5)
lc = meanfield.critical_coupling(p)
tracer.active = True
modulation.driven_response_map(p, [0.8 * lc], [1.2], eps=0.02, t_max=200.0)
tracer.active = False
print(json.dumps(dict(nfev=tracer.counts["modulation.nfev"], calls=len(calls))))
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

#: a traced unbiased steady-state sweep of more than 2048 states
TRACED_STEADY_STATES = """
import json
import numpy as np
from tracing import Tracer
tracer = Tracer()
tracer.install()
from opendicke import meanfield
from opendicke.params import DickeParams
p = DickeParams(300.0, 1.0, 0.0, 0.0, 200.0, 1e5)
lc = meanfield.critical_coupling(p)
stacks = []
tracer.hooks["fluctuations.dynamical_matrix"] = lambda args, dur: stacks.append(
    np.shape(args[0].g2))
tracer.active = True
branch = meanfield.steady_states(p, np.linspace(0.0, 2.0, 1100) * lc)
tracer.active = False
print(json.dumps(dict(
    flags=len(branch.flags), stacks=stacks,
    matrices=tracer.counts["fluctuations.dynamical_matrix.calls"],
    sweeps=tracer.counts["meanfield.steady_states.calls"])))
"""

#: a traced biased steady-state sweep, then a traced biased g2 request
TRACED_BIASED = """
import json
import tempfile
import numpy as np
from tracing import Tracer
tracer = Tracer()
tracer.install()
from opendicke import cli, meanfield
from opendicke.params import DickeParams
p = DickeParams(300.0, 1.0, 0.0, 1e-3, 200.0, 1e5)
lc = meanfield.critical_coupling(p)
out = {}
tracer.active = True
branch = meanfield.steady_states(p, np.linspace(0.1, 1.8, 1000) * lc)
out["sweep"] = dict(rows=len(branch.flags),
                    newton=tracer.counts["meanfield.newton_steady_state.calls"],
                    continued=tracer.counts["meanfield._continue_branch.calls"])
tracer.reset()
dicke = dict(omega=300.0, omega0=1.0, lam=8.0, lam_prime=8.0 / 360.0, kappa=200.0,
             atom_number=1e5)
argv = ["g2", *(a for k, v in dicke.items() for a in ("--set", f"dicke.{k}={v!r}"))]
with tempfile.TemporaryDirectory() as tmp:
    code = cli.main(argv + ["--out", tmp + "/g2"])
out["g2"] = dict(code=code, newton=tracer.counts["meanfield.newton_steady_state.calls"],
                 continued=tracer.counts["meanfield._continue_branch.calls"])
tracer.active = False
print(json.dumps(out))
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


def test_traced_rhs_evals_equal_the_calls_made():
    # the benchmark reads modulation.rhs_evals from the integrator's own
    # count; it must be the work done, not an estimate of it
    proc = _child(TRACED_RHS_CALLS)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["calls"] > 0
    assert out["nfev"] == out["calls"]


def test_traced_regression_route_reports_bounded_integrator_work():
    # the benchmark reads correlations.regression_rhs_evals from the
    # module's solve_ivp binding; the propagator keeps it non-zero and small
    proc = _child(TRACED_REGRESSION)
    assert proc.returncode == 0, proc.stderr
    nfev = json.loads(proc.stdout)["nfev"]
    assert 0 < nfev < 10 ** 4


def test_traced_steady_states_build_one_matrix_per_flag():
    # the benchmark reads fluctuations.matrices from the traced
    # dynamical_matrix; a sweep builds its stack of matrices in one call,
    # whose coefficients (the hook reads them) hold one row per flag
    proc = _child(TRACED_STEADY_STATES)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["flags"] > 2048
    assert out["matrices"] == 1
    assert out["stacks"] == [[out["flags"]]]
    assert out["sweeps"] == 1


def test_traced_biased_sweep_is_one_solve_and_g2_continues_nothing():
    # branch-sweeps reads meanfield.newton_calls and continue_calls from
    # these two traced functions: a biased sweep reaches each once, over its
    # whole stack, and photodetection's biased g2 only the one-point solve
    proc = _child(TRACED_BIASED)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["sweep"] == dict(rows=1000, newton=1, continued=1)
    assert out["g2"] == dict(code=0, newton=1, continued=0)
