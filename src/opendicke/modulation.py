"""Parametric response to a modulated pump: Mathieu reduction and full maps.

Modulating the pump power modulates the coupling, lam(t) = lam (1 + eps
cos(nu t)).  With the cavity adiabatically eliminated (kappa >> omega0) the
atomic coherence obeys a single nonlinear equation whose linearization is a
Mathieu equation; parametric instability at nu = 2 omega0 sqrt(1 -
(lam/lam_c)^2) marks twice the soft-mode frequency.  The full nonlinear
response map integrates the unreduced mean-field equations per (lam, nu)
cell.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .meanfield import MeanFieldState, Trajectory, critical_coupling
from .params import DickeParams


@dataclass(frozen=True)
class ModulationConfig:
    """Drive modulation and the derived Mathieu parameters.

    The reduced oscillator in scaled time t~ = omega0 t reads
    u'' + [A - 2 eps~ cos((nu/omega0) t~)] u = 0 with A = 1 - (lam/lam_c)^2
    and eps~ = (lam/lam_c)^2 eps.
    """

    lam: float
    eps: float
    nu: float
    omega0: float
    lam_c: float

    def __post_init__(self) -> None:
        if not 0.0 < self.eps < 0.2:
            raise ValueError(f"modulation depth must be in (0, 0.2), got {self.eps}")
        if self.nu <= 0:
            raise ValueError("modulation frequency must be positive")

    @property
    def mathieu_a(self) -> float:
        return 1.0 - (self.lam / self.lam_c) ** 2

    @property
    def eps_tilde(self) -> float:
        return (self.lam / self.lam_c) ** 2 * self.eps


@dataclass
class FloquetResult:
    """Floquet exponent and monodromy of the reduced Mathieu oscillator.

    ``mu`` is per scaled time; Re(mu) > 0 flags parametric instability.
    The reduced system is Hamiltonian, so det(monodromy) = 1.
    """

    mu: complex
    monodromy: np.ndarray
    unstable: bool


def adiabatic_beta_rhs(beta: complex, lam_t: float, p: DickeParams) -> complex:
    """Atomic equation after adiabatic elimination of the cavity.

    d beta/dt = -i omega0 beta + 4 i lam(t)^2 omega/(omega^2+kappa^2)
                * sqrt(1/4 - |beta|^2) * (beta + beta*)

    beta here is the per-atom coherence (|beta| <= 1/2); the inversion has
    been eliminated on its stable, negative branch.
    """
    if p.kappa / p.omega0 <= 10.0:
        raise ValueError("adiabatic elimination requires kappa/omega0 > 10")
    b2 = abs(beta) ** 2
    if b2 > 0.25:
        raise ValueError(f"|beta| = {math.sqrt(b2)} left the Bloch sphere")
    gain = 4.0 * lam_t ** 2 * p.omega / (p.omega ** 2 + p.kappa ** 2)
    return (-1j * p.omega0 * beta
            + 1j * gain * math.sqrt(0.25 - b2) * (beta + beta.conjugate()))


def mathieu_floquet(cfg: ModulationConfig, rtol: float = 1e-12) -> FloquetResult:
    """Monodromy matrix and Floquet exponent over one modulation period."""
    a = cfg.mathieu_a
    et = cfg.eps_tilde
    freq = cfg.nu / cfg.omega0
    period = 2.0 * math.pi / freq

    def rhs(t, y):
        u1, v1, u2, v2 = y
        stiff = a - 2.0 * et * math.cos(freq * t)
        return [v1, -stiff * u1, v2, -stiff * u2]

    sol = solve_ivp(rhs, (0.0, period), [1.0, 0.0, 0.0, 1.0], method="DOP853",
                    rtol=rtol, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"monodromy integration failed: {sol.message}")
    y = sol.y[:, -1]
    monodromy = np.array([[y[0], y[2]], [y[1], y[3]]])
    det = float(np.linalg.det(monodromy))
    if abs(det - 1.0) > 1e-8:
        raise RuntimeError(f"monodromy determinant {det} deviates from 1")
    eigvals = np.linalg.eigvals(monodromy)
    dominant = eigvals[np.argmax(np.abs(eigvals))]
    mu = complex(np.log(complex(dominant))) / period
    unstable = abs(np.trace(monodromy)) / 2.0 > 1.0
    return FloquetResult(mu, monodromy, unstable)


def instability_boundary(p: DickeParams, lam: float) -> float:
    """Principal parametric resonance frequency, twice the soft-mode energy.

    nu_res = 2 omega0 sqrt(1 - (lam/lam_c)^2)
    """
    lc = critical_coupling(p)
    if lam >= lc:
        raise ValueError(f"resonance formula requires lam < lam_c = {lc}")
    return 2.0 * p.omega0 * math.sqrt(1.0 - (lam / lc) ** 2)


@dataclass
class CellResponse:
    max_alpha2: float       # max |alpha|^2 / N over the retained window
    max_re_beta: float      # max Re(beta) / N over the retained window
    stabilized: bool


@dataclass
class ResponseMap:
    lam_grid: np.ndarray
    nu_grid: np.ndarray
    max_alpha2: np.ndarray      # shape (n_lam, n_nu)
    max_re_beta: np.ndarray
    stabilized: np.ndarray      # bool, same shape


def _scaled_rhs(t, y, p: DickeParams, lam0: float, eps: float, nu: float):
    # meanfield._rhs_vector per atom (alpha/sqrt(N), beta/N) with w slaved to
    # beta on its negative root; kept flat, as the response map's hot kernel
    ar, ai, br, bi = y
    lam = lam0 * (1.0 + eps * math.cos(nu * t))
    w = -math.sqrt(max(0.25 - (br * br + bi * bi), 0.0))
    a2re = 2.0 * ar
    lp = p.lam_prime
    d_ar = -p.kappa * ar + p.omega * ai
    d_ai = -p.kappa * ai - p.omega * ar - 2.0 * lam * br - lp * (0.5 - w)
    d_br = p.omega0 * bi - lp * bi * a2re
    d_bi = -p.omega0 * br + 2.0 * lam * a2re * w + lp * br * a2re
    return [d_ar, d_ai, d_br, d_bi]


def _solve_cell(args) -> CellResponse:
    p, lam, nu, eps, seed, t_max = args
    t_cut = 0.5 * t_max
    n_eval = 4096
    t_eval = np.linspace(t_cut, t_max, n_eval)
    sol = solve_ivp(_scaled_rhs, (0.0, t_max), [seed, 0.0, seed, 0.0],
                    method="LSODA", rtol=1e-6, atol=1e-13,
                    t_eval=t_eval, args=(p, lam, eps, nu))
    if not sol.success:
        raise RuntimeError(f"cell (lam={lam}, nu={nu}) failed: {sol.message}")
    alpha2 = sol.y[0] ** 2 + sol.y[1] ** 2
    re_beta = sol.y[2]
    # stationarity: the last quarter of the run must not exceed the
    # preceding quarter by more than 5%
    half = n_eval // 2
    prev_max = float(np.max(alpha2[:half]))
    last_max = float(np.max(alpha2[half:]))
    stabilized = last_max <= 1.05 * max(prev_max, 1e-300)
    return CellResponse(float(np.max(alpha2)), float(np.max(re_beta)), stabilized)


def driven_response_map(p: DickeParams, lam_grid, nu_grid, eps: float = 0.02,
                        seed: float = 1e-4, t_max: float | None = None,
                        workers: int = 1) -> ResponseMap:
    """Maximum stabilized response of the driven nonlinear system.

    For every (lam, nu) cell the full mean-field equations (inversion
    eliminated on its negative root) are integrated from a tiny seed with
    lam(t) = lam [1 + eps cos(nu t)]; the first half of the run is
    discarded as transient and the maxima of |alpha|^2/N and Re(beta)/N
    over the retained window are recorded.  Cells still growing at t_max
    are flagged as not stabilized.
    """
    lam_grid = np.asarray(lam_grid, dtype=float)
    nu_grid = np.asarray(nu_grid, dtype=float)
    if t_max is None:
        t_max = 2000.0 / p.omega0
    cells = [(p, float(lam), float(nu), eps, seed, t_max)
             for lam in lam_grid for nu in nu_grid]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_solve_cell, cells, chunksize=4))
    else:
        results = [_solve_cell(c) for c in cells]
    shape = (lam_grid.size, nu_grid.size)
    return ResponseMap(
        lam_grid, nu_grid,
        np.array([r.max_alpha2 for r in results]).reshape(shape),
        np.array([r.max_re_beta for r in results]).reshape(shape),
        np.array([r.stabilized for r in results]).reshape(shape),
    )


def driven_trajectory(p: DickeParams, lam: float, nu: float, eps: float = 0.02,
                      seed: float = 1e-4, t_max: float | None = None,
                      n_samples: int = 4096) -> Trajectory:
    """Scaled single-cell time series of the modulated mean-field system."""
    if t_max is None:
        t_max = 2000.0 / p.omega0
    t_eval = np.linspace(0.0, t_max, n_samples)
    sol = solve_ivp(_scaled_rhs, (0.0, t_max), [seed, 0.0, seed, 0.0],
                    method="LSODA", rtol=1e-8, atol=1e-14,
                    t_eval=t_eval, args=(p, lam, eps, nu))
    if not sol.success:
        raise RuntimeError(f"trajectory failed: {sol.message}")
    states = [MeanFieldState(complex(sol.y[0, i], sol.y[1, i]),
                             complex(sol.y[2, i], sol.y[3, i]),
                             -math.sqrt(max(0.25 - sol.y[2, i] ** 2 - sol.y[3, i] ** 2, 0.0)))
              for i in range(sol.t.size)]
    return Trajectory(sol.t, states)
