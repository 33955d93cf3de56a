"""Parametric response to a modulated pump: Floquet stability and driven maps.

Modulating the pump power modulates the coupling, lam(t) = lam (1 + eps
cos(nu t)).  Linearized at the trivial state, the four-variable mean-field
equations read y' = (A0 + A1 cos(nu t)) y (``_linearization``), and their
Floquet exponents, found with Hill's method (``floquet_exponents``), are
the one Floquet model here.  The soft polariton pair of A0 oscillates at
omega0 sqrt(1 - (lam/lam_c)^2); the principal parametric resonance at
twice that frequency opens an unstable tongue.

Since A0 and A1 are real, the Hill matrix is built and diagonalized in
real arithmetic, in the trigonometric basis of the harmonics.

The response map sorts its (lam, nu) cells by those exponents.  A cell
whose exponents all decay and whose seeded response stays in the linear
regime is evaluated from its Floquet solution, however close it lies to
the ridge; that solution is a sum of exponentials, sampled on a uniform
window from two small tables of them.  Cells above threshold or inside a
tongue, cells whose seed leaves the linear regime and every cell with
lam' != 0 are integrated through the nonlinear equations, as is the
single-cell time series; both run LSODA in ODEPACK's own step loop
(``_solvers.solve_ivp``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import _solvers
from ._expsum import uniform_samples
from ._solvers import solve_ivp
from .meanfield import Trajectory, _bounded, _rhs_vector
from .params import DickeParams, ParameterError


class FloquetError(RuntimeError):
    """The truncated Hill matrix does not resolve every Floquet exponent."""


@dataclass
class FloquetModes:
    """Floquet solutions y_j(t) = exp(mu_j t) sum_n v_jn exp(i n nu t).

    ``vectors[j, H + n]`` is v_jn for |n| <= H; mu is fixed modulo i nu by
    taking the representative whose harmonics are centred on n = 0.
    """

    mu: np.ndarray          # (d,)
    vectors: np.ndarray     # (d, 2H + 1, d)


#: harmonics kept on each side of the Hill matrix at first.  Harmonic n of
#: a soft Floquet vector falls roughly like (eps (lam/lam_c)^2 omega0/nu)^n
#: / n!; on the fig4 and criterion-8 maps (eps = 0.02) the edge test first
#: passes at H = 4 to 6, and against H = 12 the rates at H = 6 move by at
#: most 5.5e-12 omega0 and the cell maxima by at most 1.5e-9 relative,
#: within the scatter rounding gives between any two passing truncations
HILL_HARMONICS = 6
#: the truncations tried in turn, the last before giving up; at eps = 0.1
#: most cells need 6 to 8 harmonics, which doubling 6 would pay for at 12
_TRUNCATIONS = (HILL_HARMONICS, 8, 16, 32, 64)
#: largest share of its squared norm a resolved Floquet vector may put on
#: its outermost harmonics
_EDGE_WEIGHT = 1e-20


def floquet_exponents(a0, a1, nu: float) -> FloquetModes:
    """Floquet exponents and vectors of y' = (A0 + A1 cos(nu t)) y.

    A0 and A1 are the real trivial-state linearization of the driven
    mean-field equations (``_linearization``).  Hill's method: y = exp(mu t)
    sum_n c_n exp(i n nu t) turns the periodic system into the eigenproblem
    mu c_n = (A0 - i n nu) c_n + A1 (c_{n-1} + c_{n+1}) / 2, truncated at
    |n| <= H, a matrix of size d(2H+1) (Hill, Acta Math. 8, 1 (1886);
    Deconinck & Kutz, J. Comput. Phys. 219, 296 (2006)).  Since A0 and A1
    are real, it is solved in the trigonometric basis c_0, s_k = c_k +
    c_-k, d_k = i (c_k - c_-k), k = 1..H, where the operator is real and
    exactly similar to the complex one; the vectors are mapped back by
    c_+-k = (s_k -+ i d_k) / 2.  Each exponent appears once per harmonic
    shift; the copy whose harmonic weight is centred closest to n = 0 is
    kept.  H runs through ``_TRUNCATIONS`` until no kept vector reaches the
    outermost harmonics.  Raises ValueError, before any solve, unless A0 and
    A1 are finite and real and nu positive and finite; FloquetError when d
    distinct, resolved exponents are not found.  The kept exponents sum to
    tr A0 modulo i nu (Liouville's identity), -2 kappa for ``_linearization``.
    """
    a0, a1 = np.asarray(a0), np.asarray(a1)
    for a in (a0, a1):
        if np.iscomplexobj(a) and np.any(a.imag != 0.0):
            raise ValueError("Hill's method here needs real A0 and A1")
        if not np.all(np.isfinite(a)):
            raise ValueError("A0 and A1 must be finite")
    if not 0.0 < nu < math.inf:
        raise ValueError(f"nu must be positive and finite, got {nu}")
    a0, half = a0.real.astype(float), 0.5 * a1.real.astype(float)
    for harmonics in _TRUNCATIONS:
        modes = _hill_modes(a0, half, nu, harmonics)
        if modes is not None:
            return modes
    raise FloquetError(f"{harmonics} harmonics do not resolve the exponents at nu = {nu}")


def _hill_modes(a0: np.ndarray, half: np.ndarray, nu: float, harmonics: int
                ) -> FloquetModes | None:
    """The kept exponents at truncation H, None if H cuts off a kept vector."""
    d, h = a0.shape[0], harmonics
    size = 2 * h + 1
    # real Hill matrix on the blocks (c_0, s_1..s_H, d_1..d_H):
    #   mu c_0 = A0 c_0 + A1/2 s_1
    #   mu s_k = A0 s_k - k nu d_k + A1/2 (s_k-1 + s_k+1),  s_0 = 2 c_0
    #   mu d_k = A0 d_k + k nu s_k + A1/2 (d_k-1 + d_k+1),  d_0 = 0
    k = np.arange(1, h + 1)
    sk, dk = k, h + k                     # block indices of s_k and d_k
    hill = np.zeros((size, d, size, d))
    hill[np.arange(size), :, np.arange(size), :] = a0
    hill[sk, :, dk, :] = -(k * nu)[:, None, None] * np.eye(d)
    hill[dk, :, sk, :] = (k * nu)[:, None, None] * np.eye(d)
    hill[0, :, 1, :] = half
    hill[1, :, 0, :] = 2.0 * half
    for blocks in (sk, dk):
        hill[blocks[1:], :, blocks[:-1], :] = half
        hill[blocks[:-1], :, blocks[1:], :] = half
    mu_all, vec = np.linalg.eig(hill.reshape(size * d, size * d))
    vec = vec.reshape(size, d, -1)
    vec_all = np.empty(vec.shape, dtype=complex)     # blocks c_-H .. c_H
    vec_all[h] = vec[0]
    vec_all[h + k] = 0.5 * (vec[sk] - 1j * vec[dk])
    vec_all[h - k] = 0.5 * (vec[sk] + 1j * vec[dk])
    n = np.arange(-h, h + 1)
    weight = np.sum(np.abs(vec_all) ** 2, axis=1)
    centre = n @ weight / np.sum(weight, axis=0)
    chosen: list[int] = []
    for i in np.argsort(np.abs(centre)):
        shift = (mu_all[i] - mu_all[chosen]) / (1j * nu)
        if np.any(np.abs(shift - np.round(shift.real)) < 1e-9):
            continue                      # a harmonic copy of a kept exponent
        if weight[0, i] + weight[-1, i] > _EDGE_WEIGHT * np.sum(weight[:, i]):
            return None
        chosen.append(i)
        if len(chosen) == d:
            break
    else:
        raise FloquetError("Hill matrix yields fewer than "
                           f"{d} distinct Floquet exponents")
    vectors = np.moveaxis(vec_all[:, :, chosen], 2, 0)
    return FloquetModes(mu_all[chosen].astype(complex), vectors)


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
    """``_rhs_vector`` per atom (alpha/sqrt(N), beta/N) at the driven coupling.

    w is slaved to beta on its negative root; y comes as floats from ``_bounded``.
    """
    ar, ai, br, bi = y
    lam = lam0 * (1.0 + eps * math.cos(nu * t))
    w = -math.sqrt(max(0.25 - (br * br + bi * bi), 0.0))
    return _rhs_vector(t, (ar, ai, br, bi, w), p, lam, p.lam_prime, 0.5)[:4]


def _driven_run(p: DickeParams, lam: float, nu: float, eps: float, seed: float,
                t_eval: np.ndarray, rtol: float, atol: float) -> np.ndarray:
    """LSODA samples y(t_eval) of ``_scaled_rhs`` from y(0) = (seed, 0, seed, 0).

    ``_solvers.solve_ivp`` runs LSODA through ``odeint``, so the step loop
    stays inside ODEPACK and only the right-hand side calls back into
    Python.  ODEPACK's steps depend on the output times, so the samples
    do too, within the requested tolerance.  Bounded by
    ``meanfield.MAX_RHS_EVALS`` evaluations (IntegrationError); an ODEPACK
    failure raises RuntimeError.
    """
    sol = solve_ivp(_bounded(_scaled_rhs, p, lam, eps, nu), (0.0, float(t_eval[-1])),
                    [seed, 0.0, seed, 0.0], method="LSODA", rtol=rtol, atol=atol,
                    t_eval=t_eval)
    if not sol.success:
        raise RuntimeError(f"driven run (lam={lam}, nu={nu}) failed: {sol.message}")
    return sol.y


def _check_drive(p: DickeParams, lam, nu, eps: float, seed: float,
                 t_max: float | None) -> None:
    """ParameterError, naming the argument, for a drive no cell may run with.

    Neither grid may be empty, every coupling must be one that
    ``p.with_coupling`` accepts and every nu positive and finite; eps and
    seed must be finite, and t_max (None for the default) positive and finite.
    """
    for name, grid in (("coupling", lam), ("modulation", nu)):
        if np.size(grid) == 0:
            raise ParameterError(f"empty {name} grid")
    for bound in (np.min(lam), np.max(lam)):            # NaN propagates through both
        p.with_coupling(float(bound))
    if not np.all(np.isfinite(nu) & (np.asarray(nu) > 0.0)):
        raise ParameterError("modulation frequencies must be positive and finite")
    for name, value in (("eps", eps), ("seed", seed)):
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")
    if t_max is not None and not (t_max > 0 and math.isfinite(t_max)):
        raise ParameterError(f"t_max must be positive and finite, got {t_max}")


#: samples of a driven run: a map cell's retained half, or a whole time series
DRIVEN_SAMPLES = 4096


def _span(p: DickeParams, t_max: float | None) -> float:
    """Length of a driven run, by default 2000 / omega0."""
    return 2000.0 / p.omega0 if t_max is None else t_max


def _linearization(p: DickeParams, lam: float, eps: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Jacobian of ``_scaled_rhs`` at the trivial state for lam' = 0.

    y' = (A0 + A1 cos(nu t)) y with y = (Re alpha, Im alpha, Re beta,
    Im beta); w = -1/2 + O(|beta|^2) there.  The Jacobian J(lam) is affine
    in the coupling, so A0 = J(lam) and A1 = J(lam eps) - J(0).  Its
    columns are ``_rhs_vector`` at the unit vectors with w = -1/2, exactly:
    the one product of two fields, (alpha + alpha*) w, has alpha = 0 or
    w = -1/2 at each of them.
    """
    def jacobian(coupling: float) -> np.ndarray:
        return np.array([_rhs_vector(0.0, (*e, -0.5), p, coupling, 0.0, 0.5)[:4]
                         for e in np.eye(4).tolist()]).T

    return jacobian(lam), jacobian(lam * eps) - jacobian(0.0)


#: largest a-priori bound B on the per-atom amplitude |y| for which a stable
#: cell is evaluated from its linearization.  The neglected terms are
#: O(|beta|^2) relative to the linear ones (w = -1/2 + |beta|^2 + ...) and
#: mostly shift the soft-mode frequency.  Against DOP853 at rtol 1e-11 the
#: evaluated maxima of 24 stable cells were off by at most 90 B^2 relative
#: (2.9e-7 at B = 2.7e-4 and 0.8 lam_c, 4.5e-5 at B = 7.1e-4 and 0.95
#: lam_c), the integrated ones (LSODA, rtol 1e-6) by 1.4e-5 to 1.3e-3.  At
#: B <= 1e-3 that is at most 9e-5, inside the integrated path's own error
#: range; the default seed 1e-4 gives B = 2.6e-4 to 7.1e-4 on the fig4 map.
LINEAR_BOUND = 1e-3


def _linear_response(p: DickeParams, lam: float, nu: float, eps: float,
                     seed: float, start: float, stop: float, samples: int
                     ) -> np.ndarray | None:
    """Samples y(t) of a linearly stable cell, or None if it must be integrated.

    The times are np.linspace(start, stop, samples), built here so that the
    grid is uniform by construction: t_k = start + k dt.  y(t) = Re sum_jn
    w_jn exp(s_jn t) over the d(2H+1) rates s_jn = mu_j + i n nu, with
    weights w_jn = c_j v_jn and c from y(0), sampled by
    ``_expsum.uniform_samples`` from two (ceil(sqrt(samples)), d(2H+1))
    tables of ``_exp_table``.  None when some Re mu >= 0, when
    the Hill matrix does not resolve the exponents, or when the bound sum_j
    |c_j| sum_n |v_jn| on |y| leaves the linear regime.
    """
    try:
        modes = floquet_exponents(*_linearization(p, lam, eps), nu)
        if np.max(modes.mu.real) >= 0.0:
            return None
        c = np.linalg.solve(modes.vectors.sum(axis=1).T,
                            [seed, 0.0, seed, 0.0])
    except (FloquetError, np.linalg.LinAlgError):
        return None
    norms = np.linalg.norm(modes.vectors, axis=2).sum(axis=1)
    if not float(np.abs(c) @ norms) <= LINEAR_BOUND:
        return None
    d, size, _ = modes.vectors.shape
    n_nu = nu * np.arange(-(size // 2), size // 2 + 1)
    weights = (c[:, None, None] * modes.vectors).transpose(2, 0, 1).reshape(d, -1)
    dt = (stop - start) / max(samples - 1, 1)
    return uniform_samples(weights, lambda t: _exp_table(t, modes.mu, n_nu),
                           start, dt, samples).real


def _exp_table(t: np.ndarray, mu: np.ndarray, n_nu: np.ndarray) -> np.ndarray:
    """exp((mu_j + i n nu) t), a row per t in (j, n) order, from d + 2H + 1 exponentials."""
    return (np.exp(np.multiply.outer(t, mu))[:, :, None]
            * np.exp(1j * np.multiply.outer(t, n_nu))[:, None, :]).reshape(t.size, -1)


def _solve_cell(args) -> CellResponse:
    """Response of one (lam, nu) cell over the second half of its run.

    A lam' = 0 cell is evaluated from its Floquet solution when
    ``_linear_response`` admits it; any other cell is integrated by LSODA.
    """
    p, lam, nu, eps, seed, t_max = args
    window = (0.5 * t_max, t_max, DRIVEN_SAMPLES)
    y = (_linear_response(p, lam, nu, eps, seed, *window)
         if p.lam_prime == 0.0 else None)
    if y is None:
        y = _driven_run(p, lam, nu, eps, seed, np.linspace(*window), rtol=1e-6,
                        atol=1e-13)
    alpha2 = y[0] ** 2 + y[1] ** 2
    re_beta = y[2]
    # stationarity: the last quarter of the run must not exceed the
    # preceding quarter by more than 5%
    half = DRIVEN_SAMPLES // 2
    prev_max = float(np.max(alpha2[:half]))
    last_max = float(np.max(alpha2[half:]))
    stabilized = last_max <= 1.05 * max(prev_max, 1e-300)
    return CellResponse(float(np.max(alpha2)), float(np.max(re_beta)), stabilized)


def driven_response_map(p: DickeParams, lam_grid, nu_grid, eps: float = 0.02,
                        seed: float = 1e-4, t_max: float | None = None,
                        workers: int = 1) -> ResponseMap:
    """Maximum stabilized response of the driven nonlinear system.

    Every (lam, nu) cell starts from a tiny seed with lam(t) = lam [1 + eps
    cos(nu t)]; the first half of the run is discarded as transient and
    the maxima of |alpha|^2/N and Re(beta)/N over the retained window are
    recorded.  Cells still growing at t_max are flagged as not stabilized.
    A lam' = 0 cell that is linearly stable and stays in the linear regime
    is evaluated from its Floquet solution, on the ridge as off it; any
    other cell integrates the full mean-field equations (inversion
    eliminated on its negative root).  The cells run in min(workers,
    cells, CPU count) processes, in this one when that is 1; the result
    does not depend on the count.  An empty grid or a bad coupling,
    frequency, eps, seed or t_max raises ParameterError before any cell
    runs (``_check_drive``).
    """
    lam_grid = np.asarray(lam_grid, dtype=float)
    nu_grid = np.asarray(nu_grid, dtype=float)
    _check_drive(p, lam_grid, nu_grid, eps, seed, t_max)
    t_max = _span(p, t_max)
    cells = [(p, float(lam), float(nu), eps, seed, t_max)
             for lam in lam_grid for nu in nu_grid]
    # the executor forks all its processes at the first submit
    processes = min(workers, len(cells), os.cpu_count() or 1)
    if processes > 1:
        from concurrent.futures import ProcessPoolExecutor
        _solvers.load()          # once here, not in each worker's first cell
        with ProcessPoolExecutor(max_workers=processes) as pool:
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
                      seed: float = 1e-4, t_max: float | None = None) -> Trajectory:
    """Per-atom ``Trajectory`` of one driven cell, w/N slaved on its negative root.

    ``DRIVEN_SAMPLES`` samples, uniform over the whole run from t = 0.
    Raises ParameterError for a bad coupling, frequency, eps, seed or
    t_max (``_check_drive``).
    """
    _check_drive(p, lam, nu, eps, seed, t_max)
    t_eval = np.linspace(0.0, _span(p, t_max), DRIVEN_SAMPLES)
    y = _driven_run(p, lam, nu, eps, seed, t_eval, rtol=1e-8, atol=1e-14)
    w = -np.sqrt(np.maximum(0.25 - y[2] ** 2 - y[3] ** 2, 0.0))
    return Trajectory(t_eval, np.vstack([y, w]))
