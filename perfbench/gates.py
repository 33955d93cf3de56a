"""Correctness gates applied to every benchmark request.

Each gate re-derives the expected value independently of the package
(closed forms, the mean-field equations re-stated in NumPy, a trapezoid
quadrature oracle) and uses the tolerance of the matching acceptance or
unit test, never a tighter one.  A gate returns a list of failure reasons;
an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

OMEGA, OMEGA0, KAPPA = 300.0, 1.0, 200.0
LAM_C = 0.5 * math.sqrt((OMEGA0 / OMEGA) * (KAPPA ** 2 + OMEGA ** 2))

LAM_C_REF, LAM_C_TOL = 10.4083, 0.01    # acceptance criterion 1
G2_ZERO_TOL = 1e-6                      # criterion 2
MOMENT_RTOL = 1e-9                      # criterion 3
SPECTRUM_PEAK_BINS = 1.5                # criterion 6: one bin after parabolic
                                        # refinement, which moves the peak by
                                        # at most half a bin from the argmax
DRIFT_TOL = 1e-8                        # criterion 9, in units of N^2
RESIDUAL_TOL = 1e-9                     # criterion 11, in units of N
TRACE_TOL = 1e-9                        # trace(M) = -2 kappa unit test
QUAD_RTOL = 1e-5                        # quadrature-oracle unit test


def read_csv(path: Path) -> np.ndarray:
    """Data rows of a table the CLI wrote, one array row per CSV row."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def ridge_nu(lam: float) -> float:
    """Principal parametric resonance, twice the soft-mode frequency."""
    return 2.0 * OMEGA0 * math.sqrt(1.0 - (lam / LAM_C) ** 2)


def lam_c_column(lam: np.ndarray, ratio: np.ndarray) -> list[str]:
    keep = ratio > 0
    if not np.any(keep):
        return []
    lc = lam[keep] / ratio[keep]
    worst = float(np.max(np.abs(lc - LAM_C_REF)))
    if not worst < LAM_C_TOL:
        return [f"lam_c off by {worst:.3g} (tol {LAM_C_TOL})"]
    return []


def eom_residual(lam, lam_prime, n, omega, alpha, beta, w) -> np.ndarray:
    """Largest mean-field time derivative per row, in units of N."""
    rn = math.sqrt(n)
    a2re = 2.0 * alpha.real
    d_alpha = (-(KAPPA + 1j * omega) * alpha - 1j * (lam / rn) * 2.0 * beta.real
               - 1j * (lam_prime / rn) * (n / 2.0 - w))
    d_beta = (-1j * OMEGA0 * beta + 2j * (lam / rn) * a2re * w
              + 1j * (lam_prime / rn) * beta * a2re)
    d_w = -2.0 * (lam / rn) * a2re * beta.imag
    return np.maximum(np.maximum(np.abs(d_alpha), np.abs(d_beta)), np.abs(d_w)) / n


def branch_table(rows: np.ndarray, n: float, lam_prime_of, omega: float = OMEGA
                 ) -> list[str]:
    """Steady-state rows (lam, lam/lam_c, alpha, beta, w, stable) are fixed points."""
    if rows.size == 0:
        return ["empty steady-state table"]
    lam = rows[:, 0]
    res = eom_residual(lam, lam_prime_of(lam), n, omega,
                       rows[:, 2] + 1j * rows[:, 3], rows[:, 4] + 1j * rows[:, 5],
                       rows[:, 6])
    errs = lam_c_column(lam, rows[:, 1])
    worst = float(np.max(res))
    if not worst < RESIDUAL_TOL:
        i = int(np.argmax(res))
        errs.append(f"steady-state residual {worst:.3g} N at lam = {lam[i]:.6g}")
    return errs


def spectrum_table(rows: np.ndarray) -> list[str]:
    """Spectrum rows: lam_c column and trace(M) = -2 kappa per row."""
    errs = lam_c_column(rows[:, 0], rows[:, 1])
    re_sum = rows[:, 2:10:2].sum(axis=1)
    im_sum = rows[:, 3:10:2].sum(axis=1)
    worst = float(max(np.max(np.abs(re_sum)), np.max(np.abs(im_sum + 2.0 * KAPPA))))
    if not worst < TRACE_TOL * max(1.0, KAPPA):
        errs.append(f"eigenfrequencies violate trace = -2 kappa by {worst:.3g}")
    return errs


def g2_zero(value: float) -> list[str]:
    if not abs(value - 3.0) < G2_ZERO_TOL:
        return [f"g2(0) = {value!r}, expected 3"]
    return []


def g1_zero(g1_re: float, g1_im: float) -> list[str]:
    if not (abs(g1_re - 1.0) < MOMENT_RTOL and abs(g1_im) < MOMENT_RTOL):
        return [f"g1(0) = {g1_re!r}{g1_im:+g}j, expected 1"]
    return []


def photon_flux(lam: float) -> float:
    """Closed-form detected flux 2 kappa <c+c> for lam' = 0 below threshold."""
    r = (lam / LAM_C) ** 2
    return 2.0 * KAPPA * lam ** 2 / (2.0 * OMEGA * OMEGA0 * (1.0 - r))


def g2_fft_peaks(rows: np.ndarray) -> list[str]:
    """Dominant g2 spectral peak above 0.2 omega0 at twice the soft mode."""
    errs = []
    for lam in np.unique(rows[:, 0]):
        sel = rows[rows[:, 0] == lam]
        nu, lg = sel[:, 1], sel[:, 2]
        interior = np.nonzero((lg[1:-1] > lg[:-2]) & (lg[1:-1] > lg[2:]))[0] + 1
        interior = interior[nu[interior] > 0.2]
        if interior.size == 0:
            errs.append(f"no g2 spectral peak at lam = {lam}")
            continue
        peak = nu[interior[np.argmax(lg[interior])]]
        expected = ridge_nu(lam)
        off = abs(peak - expected) / (nu[1] - nu[0])
        if not off <= SPECTRUM_PEAK_BINS:
            errs.append(f"g2 peak at lam = {lam:.4g} is {off:.2f} bins off")
    return errs


def response_row(lam: float, nu: np.ndarray, re_beta: np.ndarray, step: float
                 ) -> list[str]:
    """Response-map ridge within one nu step of twice the soft mode."""
    best = float(nu[int(np.argmax(re_beta))])
    expected = ridge_nu(lam)
    if not abs(best - expected) <= step * (1.0 + 1e-9):
        return [f"ridge at nu = {best:.4g}, expected {expected:.4g} +- {step:.3g}"]
    return []


def pseudo_momentum_drift(values: np.ndarray, n: float) -> list[str]:
    drift = float(np.max(np.abs(values - values[0])))
    if not drift < DRIFT_TOL * n * n:
        return [f"pseudo-momentum drift {drift / n ** 2:.3g} N^2"]
    return []


def json_matches_csv(out: Path, name: str, n_rows: int) -> list[str]:
    path = out / f"{name}.json"
    if not path.exists():
        return [f"{path.name} missing"]
    rows = json.loads(path.read_text())["rows"]
    if len(rows) != n_rows:
        return [f"{path.name} has {len(rows)} rows, csv has {n_rows}"]
    return []


def mapped_model(phys: dict, points: int = 1_000_001) -> dict:
    """Two-mode model parameters by trapezoid quadrature (independent oracle)."""
    d_len, l_len = phys["condensate_length"], phys["cavity_length"]
    g = phys["cavity_wavevector"]
    x_left = 0.5 * (l_len - d_len) + phys["trap_displacement"]
    x = np.linspace(x_left, x_left + d_len, points)
    k_n = math.pi * max(1, round(g * d_len / math.pi)) / d_len
    cavity = np.sin(g * x) / math.sqrt(l_len)
    excited = math.sqrt(2.0 / d_len) * np.cos(k_n * (x - x_left))
    n_over_d = phys["atom_number"] / d_len
    i_exc = abs(np.trapezoid(cavity * excited, x))
    i_ground = np.trapezoid(cavity, x) / math.sqrt(d_len)
    i_cav2 = np.trapezoid(cavity ** 2, x)
    scale = math.sqrt(n_over_d) * phys["pump_coupling"]
    return dict(omega=-phys["pump_cavity_detuning"]
                + n_over_d * phys["dispersive_shift"] * i_cav2,
                omega0=phys.get("hbar", 1.0) * g ** 2 / (2.0 * phys["atom_mass"]),
                lam=scale * i_exc, lam_prime=scale * i_ground)


def mapped_params(found: dict, expected: dict) -> list[str]:
    errs = []
    for key in ("omega", "omega0", "lam", "lam_prime"):
        if not abs(found[key] - expected[key]) < QUAD_RTOL * abs(expected[key]):
            errs.append(f"{key} = {found[key]!r}, oracle {expected[key]!r}")
    return errs
