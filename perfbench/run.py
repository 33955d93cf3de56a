#!/usr/bin/env python3
"""End-to-end benchmark of the opendicke toolkit.

    python3 perfbench/run.py --workload response-map --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16

Run from the repository root.  One client in one process sends seeded
requests in a closed loop (the next request starts when the previous one has
returned) to ``opendicke.cli.main`` with a scratch ``--out`` directory and to
public library calls, with ``workers = 1`` and the BLAS thread pools pinned
to one thread.  A run measures as many whole rounds of requests as fill
``--seconds`` at the reference speed (``workloads.ROUND_SECONDS``).
Every request is checked by a correctness gate (see ``gates.py``).

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs every request untraced and then traced, and reports per-layer metrics from spans recorded around each
module's functions (``tracing.py``), the tracing overhead, and a coverage
check of which layers each workload must and must not reach.

Times are CPU seconds of the process doing the work, which on an idle
machine equal wall seconds for this single-threaded workload; on a shared
VM they leave out the hypervisor's steal time.  Each request's CPU time is
then scaled to the reference machine's speed by a fixed probe run between
every two requests (``speed.py``); span times in traced runs stay raw.  The
details keep the raw CPU and wall-clock figures, the probe times and the
steal share.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's details (environment, workload properties, tail percentile,
failures, span table).
"""

import os
import sys

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:          # before NumPy is imported anywhere
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from pathlib import Path

import workloads                       # the benchmark's own modules, next to
from gates import ridge_nu             # this file on sys.path
from speed import REFERENCE_S, Speed
from tracing import LAYERS, Tracer, clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
SETUP_REPEATS = 5

#: child program timed for ``setup_s``: import the CLI, parse the first config;
#: it reports the CPU seconds its process has used since it started, then
#: the median of three speed probes run after a warm-up one
SETUP_CHILD = """\
import statistics, sys, time
sys.path.insert(0, sys.argv[1])
import opendicke.cli
from opendicke.config import load_config
load_config(sys.argv[2])
print("ready", time.process_time(), flush=True)
sys.path.insert(0, sys.argv[3])
from speed import probe_seconds
probe_seconds()
print("probe", statistics.median(probe_seconds() for _ in range(3)), flush=True)
"""

END_TO_END = {            # name -> unit
    "setup_s": "s", "points_per_s": "1/s", "request_p50_s": "s",
    "request_tail_s": "s", "peak_rss_mb": "MB", "ok_frac": "1",
}

#: which per-layer metrics each workload must drive (non-zero) and must
#: bypass (exactly zero); a wrapper left unattached by a rename reads zero
#: and fails the first list loudly
COVERAGE = {
    "response-map": dict(
        work=("modulation.cells", "modulation.cell_s.ridge",
              "modulation.cell_s.off_ridge", "modulation.rhs_evals",
              "modulation.trajectory_s", "runio.write_s", "runio.rows_written",
              "config.parse_s", "cli.self_s"),
        idle=("correlations.regression_rhs_evals", "correlations.tau_points",
              "correlations.refusals", "meanfield.newton_calls",
              "meanfield.integrate_rhs_evals", "fluctuations.matrices",
              "params.quad_calls", "params.map_to_dicke_calls")),
    "photodetection": dict(
        work=("correlations.regression_s", "correlations.regression_rhs_evals",
              "correlations.frequency_s", "correlations.steady_moments_s",
              "correlations.tau_grid_s", "correlations.g2_spectrum_s",
              "correlations.tau_points", "correlations.refusals",
              "meanfield.newton_calls", "fluctuations.matrices",
              "figures.self_s", "runio.write_s", "config.parse_s", "cli.self_s"),
        idle=("modulation.cells", "modulation.rhs_evals",
              "meanfield.continue_calls", "meanfield.integrate_rhs_evals",
              "fluctuations.spectrum_sweep_s", "params.quad_calls")),
    "branch-sweeps": dict(
        work=("meanfield.newton_calls", "meanfield.continue_calls",
              "meanfield.solves_per_point", "meanfield.newton_s",
              "meanfield.steady_states_s", "meanfield.integrate_s",
              "meanfield.integrate_rhs_evals", "fluctuations.spectrum_sweep_s",
              "fluctuations.matrices", "params.map_to_dicke_calls",
              "params.map_to_dicke_s", "params.quad_calls", "runio.write_s",
              "runio.rows_written", "runio.bytes_written", "figures.self_s",
              "config.parse_s", "cli.self_s"),
        idle=("modulation.cells", "modulation.rhs_evals",
              "correlations.regression_rhs_evals", "correlations.tau_points",
              "correlations.refusals")),
}


class Package:
    """The package modules, looked up by attribute at call time."""

    def __init__(self):
        for name in LAYERS:
            setattr(self, name, importlib.import_module(f"opendicke.{name}"))


# -- requests ----------------------------------------------------------------

def config_ini(argv: list) -> str:
    """The INI form of a request's command line, for the setup probe."""
    sections = {"run": {"mode": argv[0]}}
    it = iter(argv[1:])
    for arg in it:
        if arg == "--set":
            target, value = next(it).split("=", 1)
            section, key = target.split(".", 1)
            sections.setdefault(section, {})[key] = value
        elif arg == "--format":
            sections["run"]["format"] = next(it)
        elif not arg.startswith("-"):
            sections["figure"] = {"id": arg}
    return "".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                   for s, kv in sections.items())


def output_stats(out: Path) -> tuple[int, int]:
    """Data rows (CSV and JSON tables) and bytes a request wrote."""
    rows = size = 0
    if not out.exists():
        return 0, 0
    for path in out.iterdir():
        size += path.stat().st_size
        if path.suffix == ".csv":
            with open(path, "rb") as fh:
                n = sum(1 for _ in fh) - 1
            rows += n * (2 if path.with_suffix(".json").exists() else 1)
    return rows, size


def execute(req, pkg, out: Path) -> dict:
    """Run one request; time (CPU and wall) only the call into the package."""
    shutil.rmtree(out, ignore_errors=True)
    err = io.StringIO()
    result, code, crash = None, 0, None
    w0, t0 = time.perf_counter(), clock()
    with contextlib.redirect_stderr(err):
        try:
            if req.argv is not None:
                code = pkg.cli.main(req.argv + ["--out", str(out)])
            else:
                result = req.call(pkg)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            crash = traceback.format_exc(limit=-1).strip().splitlines()[-1]
    elapsed, wall = clock() - t0, time.perf_counter() - w0

    reasons = []
    if crash is not None:
        reasons.append(f"crashed: {crash}")
    elif code != req.expect_exit:
        first = (err.getvalue().strip().splitlines() or [""])[-1]
        reasons.append(f"exit {code}, expected {req.expect_exit}: {first}")
    elif code != 0:
        lines = err.getvalue().strip().splitlines()
        if len(lines) != 1 or "Traceback" in err.getvalue():
            reasons.append(f"exit {code} without a one-line message: {lines}")
    else:
        try:
            reasons += req.check(out if req.argv is not None else result)
        except Exception as exc:      # unreadable or malformed output
            reasons.append(f"output check failed: {exc!r}")
    rows, size = output_stats(out) if req.argv is not None else (0, 0)
    shutil.rmtree(out, ignore_errors=True)
    return dict(kind=req.kind, cpu=elapsed, wall=wall, ok=not reasons, reasons=reasons,
                wrong_output=bool(reasons) and code == req.expect_exit
                and crash is None,
                points=req.points, cells=req.cells, ridge_cells=req.ridge_cells,
                rows=rows, bytes=size, **req.props)


def timed(req, pkg, out: Path, speed: Speed) -> dict:
    """``execute`` with the request's time scaled to the reference speed."""
    rec = execute(req, pkg, out)
    rec["time"] = rec["cpu"] * speed.factor()
    return rec


# -- measurement -------------------------------------------------------------

def measure_setup(first_argv: list, work: Path) -> tuple[list, list]:
    """Seconds from a fresh interpreter to ready for the request.

    The child's CPU seconds, scaled to the reference speed by the probes
    it runs once it is ready, and its wall seconds.
    """
    ini = work / "first.ini"
    if "--config" in first_argv:
        ini = ROOT / first_argv[first_argv.index("--config") + 1]
    else:
        ini.write_text(config_ini(first_argv))
    cpu, wall = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(ini), str(HERE)],
            stdout=subprocess.PIPE, cwd=ROOT)
        ready = proc.stdout.readline().split()
        wall.append(time.perf_counter() - t0)
        probe = proc.stdout.readline().split()
        proc.stdout.close()
        if proc.wait() != 0 or ready[:1] != [b"ready"] or probe[:1] != [b"probe"]:
            raise RuntimeError("setup child failed")
        cpu.append(float(ready[1]) * REFERENCE_S / float(probe[1]))
    return cpu, wall


def cpu_ticks() -> tuple[int, int]:
    """Machine-wide (steal, total) CPU ticks from /proc/stat."""
    with open("/proc/stat") as fh:
        ticks = [int(v) for v in fh.readline().split()[1:]]
    return ticks[7], sum(ticks)


def tail(times: list) -> tuple[float, float]:
    """Value and rank of the highest percentile with ten samples beyond it."""
    s = sorted(times)
    if len(s) <= 10:
        return s[-1], 100.0
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s)


class LayerTrace:
    """A traced run: the tracer, its hooks and the per-round layer metrics."""

    def __init__(self):
        self.tracer = Tracer()
        self.tracer.install()
        self.tracer.hooks["modulation._solve_cell"] = self._on_cell
        self.tracer.hooks["correlations.two_time_correlations"] = self._on_tau
        self.nu_step = 0.0
        self.cell_s = {"ridge": [], "off_ridge": []}
        self.rounds = []       # (layer metrics, span table, solver calls)

    def _on_cell(self, args, dur):
        _, lam, nu = args[0][:3]
        ridge = abs(nu - ridge_nu(lam)) <= self.nu_step
        self.cell_s["ridge" if ridge else "off_ridge"].append(dur)

    def _on_tau(self, args, dur):
        self.tracer.counts["correlations.tau_points"] += len(args[1])

    def run_round(self, reqs, pkg, out: Path, speed: Speed) -> list:
        """Each request untraced, then traced, so both see the same machine."""
        tr = self.tracer
        tr.reset()
        records, traced = [], []
        for req in reqs:
            self.nu_step = req.nu_step
            records.append(dict(timed(req, pkg, out, speed), traced=False))
            before = tr.counts["meanfield.newton_steady_state.calls"]
            tr.active = True
            try:
                rec = execute(req, pkg, out)
            finally:
                tr.active = False
            rec["time"] = rec["cpu"] * speed.factor()
            rec["newton"] = tr.counts["meanfield.newton_steady_state.calls"] > before
            traced.append(dict(rec, traced=True))
        self.rounds.append((self.layer_metrics(traced), tr.span_table(),
                            list(tr.solver_calls)))
        return records + traced

    def layer_metrics(self, records: list) -> dict:
        """Per-layer metrics of one traced round."""
        tr = self.tracer
        c = tr.counts
        newton = c["meanfield.newton_steady_state.calls"]
        newton_points = sum(r["points"] for r in records if r["newton"])
        m = {
            "modulation.cells": c["modulation._solve_cell.calls"],
            "modulation.rhs_evals": c["modulation.nfev"],
            "modulation.jac_evals": c["modulation.njev"],
            "modulation.trajectory_s": tr.busy_s("modulation.driven_trajectory"),
            "correlations.regression_s": tr.busy_s("correlations._correlators_regression"),
            "correlations.regression_rhs_evals": c["correlations.nfev"],
            "correlations.frequency_s": tr.busy_s("correlations._correlators_frequency"),
            "correlations.steady_moments_s": tr.busy_s("correlations.steady_moments"),
            "correlations.tau_grid_s": tr.busy_s("correlations.default_tau_grid"),
            "correlations.g2_spectrum_s": tr.busy_s("correlations.g2_spectrum"),
            "correlations.tau_points": c["correlations.tau_points"],
            "correlations.refusals": tr.errors[("correlations", "ThresholdError")],
            "meanfield.newton_calls": newton,
            "meanfield.continue_calls": c["meanfield._continue_branch.calls"],
            "meanfield.solves_per_point": newton / newton_points if newton_points else 0.0,
            "meanfield.newton_s": tr.busy_s("meanfield.newton_steady_state"),
            "meanfield.steady_states_s": tr.busy_s("meanfield.steady_states"),
            "meanfield.convergence_errors": tr.errors[("meanfield", "ConvergenceError")],
            "meanfield.integrate_s": tr.busy_s("meanfield.integrate"),
            "meanfield.integrate_rhs_evals": c["meanfield.nfev"],
            "fluctuations.spectrum_sweep_s": tr.busy_s("fluctuations.spectrum_sweep"),
            "fluctuations.matrices": c["fluctuations.dynamical_matrix.calls"],
            "params.map_to_dicke_calls": c["params.map_to_dicke.calls"],
            "params.map_to_dicke_s": tr.busy_s("params.map_to_dicke"),
            "params.quad_calls": c["params.quad_calls"],
            "runio.write_s": tr.busy_s(*(f"runio.RunWriter.{m}" for m in (
                "__init__", "write_table", "write_json", "write_script", "finalize"))),
            "runio.rows_written": sum(r["rows"] for r in records),
            "runio.bytes_written": sum(r["bytes"] for r in records),
            "config.parse_s": tr.busy_s("config.load_config", "config.build_config"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = tr.self_s(layer)
        return m

    def metrics(self, plain: list, traced: list) -> dict:
        """Counts from round 0, which every run replays; times per round."""
        first = self.rounds[0][0]
        out = {}
        for name, value in first.items():
            if per_layer_unit(name) == "s":
                value = statistics.fmean(r[0][name] for r in self.rounds)
            out[name] = value
        for key, values in self.cell_s.items():
            out[f"modulation.cell_s.{key}"] = statistics.median(values) if values else 0.0
        out["trace.overhead_s"] = (statistics.median(r["time"] for r in traced)
                                   - statistics.median(r["time"] for r in plain))
        return out


def timing(records: list, key: str, points: int) -> dict:
    """The timed end-to-end metrics from one of the records' clocks."""
    times = [r[key] for r in records]
    return {"points_per_s": points / sum(times),
            "request_p50_s": statistics.median(times),
            "request_tail_s": tail(times)[0]}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or ".cell_s." in name:
        return "s"
    return "1" if name.endswith("per_point") else "count"


def coverage(workload: str, metrics: dict) -> dict:
    cov = COVERAGE[workload]
    return {"zero_where_work_predicted": [n for n in cov["work"] if not metrics[n] > 0],
            "nonzero_where_bypass_predicted": [n for n in cov["idle"] if metrics[n] != 0]}


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "workers": 1,
    }


def request_kinds(records: list) -> dict:
    """Count, median seconds and failures per request kind."""
    kinds: dict = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r)
    return {k: {"n": len(v), "median_s": statistics.median(r["time"] for r in v),
                "failed": sum(not r["ok"] for r in v)} for k, v in kinds.items()}


def properties(records: list) -> dict:
    n = len(records)
    cells = sum(r["cells"] for r in records)
    return {
        "requests": n,
        "ridge_cell_share": sum(r["ridge_cells"] for r in records) / cells if cells else 0.0,
        "biased_share": sum(r["biased"] for r in records) / n,
        "weak_bias_share": sum(r["weak_bias"] for r in records) / n,
        "near_threshold_share": sum(r["near_threshold"] for r in records) / n,
        "expected_refusal_share": sum(r["expected_refusal"] for r in records) / n,
        "rows_written": sum(r["rows"] for r in records),
        "bytes_written": sum(r["bytes"] for r in records),
    }


def run(args) -> int:
    if not (SRC / "opendicke" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'opendicke'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    pkg = Package()
    work = SCRATCH / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, pkg, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()


def measure(args, pkg, work: Path) -> int:
    wl, seed = args.workload, args.seed
    first = next(r for r in workloads.round_requests(wl, seed, 0) if r.argv)
    setup, setup_wall = ([], []) if args.trace else measure_setup(first.argv, work)
    speed = Speed()
    ticks0 = cpu_ticks()
    trace = LayerTrace() if args.trace else None

    out = work / "out"
    records = []
    rounds = workloads.rounds_for(wl, args.seconds)
    for k in range(rounds):
        reqs = workloads.round_requests(wl, seed, k)
        if trace:
            records += trace.run_round(reqs, pkg, out, speed)
        else:
            records += [dict(timed(req, pkg, out, speed), traced=False) for req in reqs]

    ticks = [b - a for a, b in zip(ticks0, cpu_ticks())]
    plain = [r for r in records if not r["traced"]]
    failed = [r for r in records if not r["ok"]]
    times = [r["time"] for r in plain]
    tail_s, tail_pct = tail(times)
    points = sum(r["points"] for r in plain if r["ok"])
    details = {
        "workload": wl, "seed": seed, "trace": args.trace, "rounds": rounds,
        "environment": environment(),
        "properties": properties(plain),
        "request_tail": {"percentile": tail_pct, "samples": len(times)},
        "fail_frac": len(failed) / len(records),
        "failures": [f"{r['kind']}: {'; '.join(r['reasons'])}" for r in failed][:20],
        "setup_samples_s": setup,
        "request_kinds": request_kinds(plain),
        "steal_share": ticks[0] / max(ticks[1], 1),
        "speed_probe": speed.summary(),
        "cpu_clock": timing(plain, "cpu", points),
        "wall_clock": dict(timing(plain, "wall", points), setup_s=statistics.median(
            setup_wall) if setup_wall else None),
    }
    correct = not any(r["wrong_output"] for r in records)

    if not trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "points_per_s": points / sum(times),
            "request_p50_s": statistics.median(times),
            "request_tail_s": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": sum(r["ok"] for r in plain) / len(plain),
        }
        units = END_TO_END
    else:
        metrics = trace.metrics(plain, [r for r in records if r["traced"]])
        units = {name: per_layer_unit(name) for name in metrics}
        _, spans, solver_calls = trace.rounds[0]
        details["coverage"] = coverage(wl, metrics)
        details["spans_round0"] = spans
        details["solver_calls_round0"] = {
            name: [(nfev, njev) for where, nfev, njev in solver_calls if where == name]
            for name in sorted({c[0] for c in solver_calls})}
        if any(details["coverage"].values()):
            print(f"coverage check failed: {details['coverage']}", file=sys.stderr)
            correct = False

    for name, value in metrics.items():
        print(f"{wl:>15} {name:<38} {value:>16.6g} {units[name]}")
    print(f"{wl:>15} {'correct':<38} {str(correct):>16} "
          f"({len(failed)} of {len(records)} requests failed)")
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": len(failed),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*workloads.WORKLOADS, "all"),
                    help="one workload, or 'all' of them, each in its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload != "all":
        return run(args)
    rc = 0
    for name in workloads.WORKLOADS:
        rc = max(rc, subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode)
    return rc


if __name__ == "__main__":
    sys.exit(main())
