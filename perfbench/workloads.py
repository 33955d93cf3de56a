"""Seeded request rounds for the three benchmark workloads.

A workload is an endless sequence of rounds; round ``k`` of a workload is a
pure function of ``(workload, seed, k)``, so the same seed always replays the
same requests.  Every round has the same mix of request kinds and fixed grid
sizes, and the seed draws the parameter values, so runs with different seeds
do comparable work.  Each request carries the properties the run records
(bias, threshold proximity, ridge cells, expected refusal) and a gate that
checks its output.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gates
from gates import LAM_C, KAPPA, OMEGA, OMEGA0, read_csv, ridge_nu

WEAK_BIAS = 1e-3            # |lam'| at or below this (omega0 units) is weak
NEAR_THRESHOLD = 0.03       # |lam/lam_c - 1| at or below this is near threshold
EPS, SEED_AMPLITUDE = 0.02, 1e-4
FIG5_CONFIG = "configs/fig5_physical.ini"

#: displaced-trap geometry of the fig5 config, for the map-params draws
PHYSICAL = dict(pump_cavity_detuning=-200.0, dispersive_shift=0.4002241204401242,
                pump_coupling=0.8047249101911135, atom_number=100000,
                condensate_length=40.3, cavity_length=200.0,
                trap_displacement=0.11309116782829488,
                cavity_wavevector=6.283185307179586,
                atom_mass=19.739208802178716, kappa=200.0)


@dataclass
class Request:
    """One closed-loop request: a CLI invocation or a library call."""

    kind: str
    points: int
    check: Callable
    argv: list | None = None
    call: Callable | None = None
    expect_exit: int = 0
    nu_step: float = 0.0
    lams: tuple = ()
    lam_prime: float = 0.0
    cells: int = 0
    ridge_cells: int = 0

    @property
    def props(self) -> dict:
        lp = abs(self.lam_prime)
        return {
            "biased": lp > 0.0,
            "weak_bias": 0.0 < lp <= WEAK_BIAS,
            "near_threshold": any(abs(lam / LAM_C - 1.0) <= NEAR_THRESHOLD
                                  for lam in self.lams),
            "expected_refusal": self.expect_exit != 0,
        }


def _f(x: float) -> str:
    return repr(float(x))


def _sets(section: str, **values) -> list[str]:
    out = []
    for key, value in values.items():
        out += ["--set", f"{section}.{key}={_f(value)}"]
    return out


def _dicke(lam: float, lam_prime: float, n: float) -> list[str]:
    return _sets("dicke", omega=OMEGA, omega0=OMEGA0, lam=lam,
                 lam_prime=lam_prime, kappa=KAPPA, atom_number=n)


def _lam_list(values) -> list[str]:
    return ["--set", "grid.lam_list=" + " ".join(_f(v) for v in values)]


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


# -- response-map -------------------------------------------------------------

def _modulate_cells(lam: float, nu: np.ndarray, step: float, ridge: bool) -> Request:
    def check(out: Path):
        rows = read_csv(out / "response_map.csv")
        errs = gates.lam_c_column(np.full(len(rows), lam), rows[:, 0])
        if not np.all(np.isfinite(rows)):
            errs.append("non-finite response")
        if ridge:
            errs += gates.response_row(lam, rows[:, 1], rows[:, 3], step)
        return errs

    argv = ["modulate", *_dicke(lam, 0.0, 1e5), *_lam_list([lam]),
            *_sets("grid", nu_min=nu[0], nu_max=nu[-1], nu_points=len(nu)),
            *_sets("modulation", eps=EPS, seed=SEED_AMPLITUDE)]
    n_ridge = int(np.sum(np.abs(nu - ridge_nu(lam)) <= step))
    return Request("modulate", len(nu), check, argv=argv, nu_step=step,
                   lams=(lam,), cells=len(nu), ridge_cells=n_ridge)


#: off-ridge cells (lam/lam_c, nu/omega0) spread over fig4's ranges, each at
#: least 0.4 omega0 from the ridge; round 0 uses the first five, round 1 the
#: rest, so a two-round run measures all ten
OFF_RIDGE_CELLS = ((0.525, 0.8), (0.6, 0.9), (0.7, 1.0), (0.8, 0.7), (0.9, 1.3),
                   (0.525, 2.15), (0.6, 2.05), (0.7, 1.9), (0.8, 1.6), (0.9, 1.75))


def response_map_round(rng: random.Random, k: int) -> list[Request]:
    """One ridge row of three cells and five off-ridge cells.

    Round 0 also sends the workload's one time-series request.  Two of the
    eight map cells lie within one nu step of the ridge, the
    share at which Floquet sorting of cells must win off the ridge and
    still pay full integration on it.  A cell costs 0.5 to 1.7 s depending
    on (lam, nu), so the seed only jitters cells around fixed points
    (+-0.025 in lam/lam_c, +-0.05 in nu): drawing them anywhere would make
    each run's cost and median depend on where its cells fell.
    """
    centre = (0.6, 0.8)[k % 2]
    reqs = []
    lam = rng.uniform(centre - 0.025, centre + 0.025) * LAM_C
    step, u = rng.uniform(0.06, 0.1), rng.uniform(0.1, 0.9)
    lo = ridge_nu(lam) - (1.0 + u if rng.random() < 0.5 else u) * step
    reqs.append(_modulate_cells(lam, lo + step * np.arange(3), step, ridge=True))
    half = len(OFF_RIDGE_CELLS) // 2
    for f, nu in OFF_RIDGE_CELLS[half * (k % 2):][:half]:
        lam = rng.uniform(f - 0.025, f + 0.025) * LAM_C
        nu = rng.uniform(nu - 0.05, nu + 0.05)
        reqs.append(_modulate_cells(lam, np.array([nu]), 0.1, ridge=False))
    if k > 0:
        return reqs

    lam = rng.uniform(1.375 - centre, 1.425 - centre) * LAM_C
    nu = ridge_nu(lam) * rng.uniform(0.99, 1.01)

    def check_series(out: Path):
        rows = read_csv(out / "modulate_timeseries.csv")
        errs = []
        if not np.all(np.isfinite(rows)):
            errs.append("non-finite time series")
        elif np.max(np.abs(rows[:, 1])) > 0.5 or np.min(rows[:, 2]) < 0.0:
            errs.append("time series left the Bloch sphere")
        elif rows[0, 1] != SEED_AMPLITUDE:
            errs.append(f"time series starts at {rows[0, 1]!r}, not the seed")
        return errs

    reqs.append(Request(
        "modulate-timeseries", 1, check_series,
        argv=["modulate", *_dicke(lam, 0.0, 1e5),
              *_sets("modulation", eps=EPS, seed=SEED_AMPLITUDE,
                     time_series_lam=lam, time_series_nu=nu)],
        lams=(lam,)))
    return reqs


# -- photodetection -----------------------------------------------------------

def _g2_request(lam: float, lam_prime: float, n: float, expect_exit: int = 0
                ) -> Request:
    def check(out: Path):
        rows = read_csv(out / "g2.csv")
        if lam_prime == 0.0:
            return gates.g2_zero(rows[0, 3])
        return gates.g1_zero(rows[0, 1], rows[0, 2])

    return Request("g2", 0 if expect_exit else 1, check,
                   argv=["g2", *_dicke(lam, lam_prime, n)],
                   expect_exit=expect_exit, lams=(lam,), lam_prime=lam_prime)


def _correlations_both(lam: float, n: float) -> Request:
    def call(od):
        p = od.params.DickeParams(OMEGA, OMEGA0, lam, 0.0, KAPPA, n)
        return od.correlations.two_time_correlations(
            p, od.correlations.default_tau_grid(p), method="both")

    return Request("two_time_correlations-both", 1,
                   lambda series: gates.g2_zero(series.g2[0]), call=call,
                   lams=(lam,))


def photodetection_round(rng: random.Random, k: int) -> list[Request]:
    """Frequency and regression correlators, moments and g2 spectra.

    Eight blocks of g2 requests (four random, a near-threshold, a biased
    with lam' = lam/360, and an above-threshold point whose documented
    answer is exit 3), a six-point g2 map and a photon-flux grid, plus
    fig2, fig3 and two cross-checked correlator calls.  Most requests cost
    about what a g2 point costs, so the median request is one of them.  Those two sit at a weak and a strong
    coupling: the regression route costs about 11 s near lam = 2 and 4 s
    near lam = 9, so drawing their couplings over the whole range would
    make the round's cost a lottery.
    """
    def n_atoms():
        return rng.choice((1e5, 1e6))

    def check_map(out: Path):
        return gates.g2_fft_peaks(read_csv(out / "g2_fft_map.csv"))

    def check_flux(out: Path):
        rows = read_csv(out / "photon_flux.csv")
        errs = []
        for lam, flux in rows:
            ref = gates.photon_flux(lam)
            if not abs(flux - ref) < gates.MOMENT_RTOL * ref:
                errs.append(f"flux at lam = {lam:.6g}: {flux!r} vs {ref!r}")
        return errs

    reqs = []
    for _ in range(8):
        for _ in range(4):
            reqs.append(_g2_request(rng.uniform(0.5, 10.3), 0.0, n_atoms()))
        reqs.append(_g2_request(rng.uniform(0.97, 0.99) * LAM_C, 0.0, n_atoms()))
        lam = rng.uniform(2.0, 10.0)
        reqs.append(_g2_request(lam, lam / 360.0, 1e6))
        reqs.append(_g2_request(rng.uniform(1.02, 1.5) * LAM_C, 0.0, n_atoms(),
                                expect_exit=3))
        lams = sorted(rng.uniform(0.5, 10.3) for _ in range(6))
        reqs.append(Request("g2-map", len(lams), check_map,
                            argv=["g2-map", *_dicke(lams[0], 0.0, n_atoms()),
                                  *_lam_list(lams)], lams=tuple(lams)))
        lams = sorted([rng.uniform(0.5, 10.3) for _ in range(5)]
                      + [rng.uniform(0.97, 0.99) * LAM_C])
        reqs.append(Request("photon-flux", len(lams), check_flux,
                            argv=["photon-flux", *_dicke(lams[0], 0.0, n_atoms()),
                                  *_lam_list(lams)], lams=tuple(lams)))

    def check_fig2(out: Path):
        rows = read_csv(out / "fig2a_g2_tau.csv")
        errs = []
        for g in rows[rows[:, 1] == 0.0, 2]:
            errs += gates.g2_zero(g)
        return errs or ([] if len(rows) else ["fig2 wrote no g2 rows"])

    def check_fig3(out: Path):
        rows = read_csv(out / "fig3_g2_beating.csv")
        sym = rows[(rows[:, 1] == 0.0) & (rows[:, 2] == 0.0), 3]
        errs = [e for g in sym for e in gates.g2_zero(g)]
        return errs if len(sym) == 5 else errs + [f"{len(sym)} unbiased g2(0) rows"]

    reqs.insert(5, _correlations_both(rng.uniform(1.75, 2.25), n_atoms()))
    reqs.insert(24, Request("fig2", 26, check_fig2,
                            argv=["reproduce-figure", "fig2"],
                            lams=tuple(np.linspace(0.5, 10.3, 25))))
    reqs.insert(43, _correlations_both(rng.uniform(8.75, 9.25), n_atoms()))
    reqs.insert(62, Request("fig3", 10, check_fig3,
                            argv=["reproduce-figure", "fig3"],
                            lams=(2.0, 6.0, 8.0, 9.0, 10.0),
                            lam_prime=10.0 / 360.0))
    return reqs


# -- branch-sweeps ------------------------------------------------------------

def _steady_state(lam_min: float, lam_max: float, points: int, lam_prime: float
                  ) -> Request:
    n = 1e5

    def check(out: Path):
        rows = read_csv(out / "steady_states.csv")
        errs = gates.branch_table(rows, n, lambda lam: lam_prime)
        return errs + gates.json_matches_csv(out, "steady_states", len(rows))

    grid = np.linspace(lam_min, lam_max, points)
    return Request("steady-state", points, check,
                   argv=["steady-state", "--format", "both",
                         *_dicke(lam_max, lam_prime, n),
                         *_sets("grid", lam_min=lam_min, lam_max=lam_max,
                                lam_points=points)],
                   lams=tuple(grid), lam_prime=lam_prime)


def _spectrum(lam_min: float, lam_max: float, points: int, lam_prime: float
              ) -> Request:
    def check(out: Path):
        rows = read_csv(out / "spectrum.csv")
        return (gates.spectrum_table(rows)
                + gates.json_matches_csv(out, "spectrum", len(rows)))

    grid = np.linspace(lam_min, lam_max, points)
    return Request("spectrum", points, check,
                   argv=["spectrum", "--format", "both",
                         *_dicke(lam_max, lam_prime, 1e5),
                         *_sets("grid", lam_min=lam_min, lam_max=lam_max,
                                lam_points=points)],
                   lams=tuple(grid), lam_prime=lam_prime)


def _fig5_check(out: Path) -> list[str]:
    errs = []
    rows = read_csv(out / "fig5a_branches.csv")
    errs += gates.branch_table(rows, 1e5, lambda lam: 0.0)
    for tag, sign in (("c_branches_plus", 1.0), ("d_branches_minus", -1.0)):
        model = gates.mapped_model(dict(PHYSICAL, trap_displacement=sign
                                        * PHYSICAL["trap_displacement"]))
        ratio = model["lam_prime"] / model["lam"]
        rows = read_csv(out / f"fig5{tag}.csv")
        errs += gates.branch_table(rows, 1e5, lambda lam: ratio * lam,
                                   omega=model["omega"])
    return errs


def branch_sweeps_round(rng: random.Random, k: int) -> list[Request]:
    """Fine branch and spectrum grids, weak biases, mapping and large writes.

    Biases are drawn log-uniformly down to 1e-5 omega0 and the biased grids
    cross threshold; weak-bias Newton failures are part of the answer.
    """
    reqs = [_spectrum(0.0, rng.uniform(1.2, 2.0) * LAM_C, 2000, 0.0),
            _spectrum(rng.uniform(0.0, 5.0), rng.uniform(12.0, 20.0), 1000,
                      _log_uniform(rng, 1e-5, 1e-2)),
            _steady_state(0.0, rng.uniform(1.2, 2.0) * LAM_C, 1000, 0.0)]
    for _ in range(2):
        reqs.append(_steady_state(rng.uniform(0.0, 5.0), rng.uniform(12.0, 20.0),
                                  1000, _log_uniform(rng, 1e-5, 1e-2)))

    phys = dict(PHYSICAL, trap_displacement=rng.choice((-1.0, 1.0))
                * rng.uniform(0.02, 0.3))
    model = gates.mapped_model(phys)

    def check_map(out: Path):
        found = json.loads((out / "dicke_params.json").read_text())
        return gates.mapped_params(found, model)

    reqs.append(Request("map-params", 1, check_map,
                        argv=["map-params", *_sets("physical", **phys)],
                        lams=(model["lam"],), lam_prime=model["lam_prime"]))

    def check_fig1(out: Path):
        errs = []
        for name in ("fig1_spectrum", "fig1_spectrum_zoom"):
            errs += gates.spectrum_table(read_csv(out / f"{name}.csv"))
        return errs

    reqs.append(Request("fig1", 482, check_fig1,
                        argv=["reproduce-figure", "fig1"], lams=(LAM_C,)))
    reqs.append(Request("fig5", 478, _fig5_check,
                        argv=["reproduce-figure", "--config", FIG5_CONFIG],
                        lams=(LAM_C,), lam_prime=9.0 / 120.0))

    lam, n = rng.uniform(1.05, 2.0) * LAM_C, 1e4

    def check_evolve(out: Path):
        return gates.pseudo_momentum_drift(
            read_csv(out / "trajectory.csv")[:, 6], n)

    reqs.append(Request("evolve", 1, check_evolve,
                        argv=["evolve", *_dicke(lam, 0.0, n),
                              *_sets("evolve", t_max=rng.uniform(20.0, 40.0),
                                     samples=500)],
                        lams=(lam,)))
    return reqs


WORKLOADS = {
    "response-map": response_map_round,
    "photodetection": photodetection_round,
    "branch-sweeps": branch_sweeps_round,
}

#: nominal seconds of one round at the reference speed (``speed.py``); a
#: run of S seconds measures ceil(S / ROUND_SECONDS) whole rounds, so a
#: run's work is fixed by its arguments and not by how busy the machine was.
#: At --seconds 16: three response-map rounds (the median and the tail
#: request then fall among the off-ridge cells of similar cost, not at the
#: gap below the two costliest), one photodetection round, six
#: branch-sweeps rounds.
ROUND_SECONDS = {"response-map": 6.0, "photodetection": 28.0, "branch-sweeps": 3.0}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, math.ceil(seconds / ROUND_SECONDS[workload]))


def round_requests(workload: str, seed: int, k: int) -> list[Request]:
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}/{k}"), k)
