"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  Criterion 5 is implemented verbatim but is expected to
fail: the stated 10*eps^2 tolerance (eps = omega0^2/(omega^2+kappa^2) ~
7.7e-6) is tighter than the actual accuracy of the perturbative eigenvalue
formula at kappa/omega0 = 200, whose next-order corrections scale as
(kappa*omega0/(omega^2+kappa^2))^2 ~ 2.4e-6.  The supporting measurements
live in tests/test_fluctuations.py; the analysis is recorded in the
project notes.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from opendicke import correlations as corr
from opendicke import fluctuations as fl
from opendicke import meanfield as mfd
from opendicke import modulation as mod
from opendicke.config import load_config
from opendicke.params import DickeParams, density_profile, map_to_dicke

from util import alternation_ratio, correlation_shift, loglog_slope

OMEGA, KAPPA = 300.0, 200.0
FIG5_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "fig5_physical.ini"


def params(lam=0.0, lam_prime=0.0, n=1e5):
    return DickeParams(OMEGA, 1.0, lam, lam_prime, KAPPA, n)


LC = mfd.critical_coupling(params())


def report(num: int, text: str, passed: bool) -> bool:
    print(f"ACCEPTANCE {num:2d}: {text} ... {'PASS' if passed else 'FAIL'}")
    return passed


def test_criterion_1_critical_coupling():
    value = mfd.critical_coupling(params())
    ok = abs(value - 10.4083) < 0.01
    assert report(1, f"critical coupling {value:.4f} omega0 vs 10.4083 +- 0.01", ok)


def test_criterion_2_g2_zero_delay():
    worst = 0.0
    for frac in (0.2, 0.5, 0.8, 0.95):
        q = params(lam=frac * LC)
        series = corr.two_time_correlations(q, np.linspace(0.0, 1.0, 8))
        worst = max(worst, abs(series.g2[0] - 3.0))
    assert report(2, f"g2(0) = 3 within 1e-6 (worst |dev| {worst:.2e})",
                  worst < 1e-6)


def test_criterion_3_moment_closed_forms():
    worst_n, worst_cc, worst_id = 0.0, 0.0, 0.0
    for lam in np.linspace(0.05, 0.995, 20) * LC:
        q = params(lam=float(lam))
        m = corr.steady_moments(q)
        n_ref = corr.photon_number_closed_form(q)
        cc_ref = corr.cc_closed_form(q)
        worst_n = max(worst_n, abs(m.photon_number - n_ref) / n_ref)
        worst_cc = max(worst_cc, abs(m.cc - cc_ref) / abs(cc_ref))
        worst_id = max(worst_id, abs(abs(m.cc) - m.photon_number) / n_ref)
    ok = worst_n < 1e-9 and worst_cc < 1e-9 and worst_id < 1e-9
    assert report(3, "Lyapunov solve vs closed forms on 20-point grid "
                     f"(rel errs {worst_n:.1e}/{worst_cc:.1e}/{worst_id:.1e})", ok)


def test_criterion_4_scaling_exponents():
    p = params()
    u = np.logspace(-3, -1, 30)
    flux = [corr.photon_flux(p.with_coupling(float((1 - ui) * LC))) for ui in u]
    slope_open = loglog_slope(u, flux)
    lc_closed = 0.5 * math.sqrt(OMEGA)
    n_gs = [corr.ground_state_photon_number(p, float((1 - ui) * lc_closed))
            for ui in u]
    slope_gs = loglog_slope(u, n_gs)
    ok = abs(slope_open + 1.0) < 0.05 and abs(slope_gs + 0.5) < 0.05
    assert report(4, f"scaling exponents {slope_open:.3f} (open, -1.00 +- 0.05) "
                     f"and {slope_gs:.3f} (equilibrium, -0.50 +- 0.05)", ok)


def _exact_soft_pair(lam: float):
    p = params()
    q = p.with_coupling(lam)
    ss = mfd.trivial_state(p) if lam <= LC else mfd.superradiant_states(q)[0]
    m = fl.dynamical_matrix(fl.hp_coefficients(ss, q), q)
    freqs = sorted(1j * np.linalg.eigvals(m), key=lambda z: abs(z.real))
    return freqs[:2]


@pytest.mark.xfail(
    strict=True,
    reason="documented tolerance defect: at omega=300, kappa=200 the "
           "perturbative eigenvalue formula carries next-order terms of size "
           "(kappa*omega0)^2/(omega^2+kappa^2)^2 ~ 2.4e-6, so neither the "
           "10*eps^2 ~ 5.9e-10 tolerance nor Re = 0 across the full nominal "
           "overdamped window is attainable (the true overdamped region is "
           "the inner half of the nominal one); see the project notes")
def test_criterion_5_soft_mode_validation():
    p = params()
    eps = 1.0 / (OMEGA ** 2 + KAPPA ** 2)
    worst_re, worst_im = 0.0, 0.0
    for lam in np.linspace(0.02, 0.95, 50) * LC:
        exact = max(_exact_soft_pair(float(lam)), key=lambda z: z.real)
        approx = fl.soft_mode_perturbative(p, float(lam))
        worst_re = max(worst_re, abs(approx.real - exact.real) / exact.real)
        worst_im = max(worst_im, abs(approx.imag - exact.imag))
    window = fl.overdamped_window(p)
    worst_window = 0.0
    for lam in np.linspace(window.lam1, window.lam2, 23)[1:-1]:
        pair = _exact_soft_pair(float(lam))
        worst_window = max(worst_window, max(abs(z.real) for z in pair))
    ok = worst_re < 10 * eps ** 2 and worst_im < 10 * eps ** 2 \
        and worst_window < 1e-6
    report(5, f"soft-mode formula: Re rel err {worst_re:.1e} vs {10*eps**2:.1e}, "
              f"Im abs err {worst_im:.1e} vs {10*eps**2:.1e}, "
              f"window max|Re| {worst_window:.1e} vs 1e-6", ok)
    assert ok


def test_criterion_6_g2_spectroscopy():
    worst = 0.0
    ok = True
    for frac in (0.4, 0.7, 0.9):
        q = params(lam=frac * LC)
        series = corr.two_time_correlations(q, corr.default_tau_grid(q))
        spec = corr.g2_spectrum(series)
        peak = spec.dominant_peak(nu_min=0.2)
        bin_width = float(spec.nu[1] - spec.nu[0])
        expected = 2.0 * math.sqrt(1.0 - frac ** 2)
        off = abs(peak.frequency - expected)
        worst = max(worst, off / bin_width)
        ok = ok and off < bin_width
    assert report(6, "g2 FFT peak at 2*omega0*sqrt(1-r) within one bin "
                     f"(worst offset {worst:.2f} bins)", ok)


def test_criterion_7_beating_signature():
    biased = params(lam=9.0, lam_prime=9.0 / 360.0, n=1e6)
    sym = params(lam=9.0, n=1e6)
    r_biased = alternation_ratio(
        corr.two_time_correlations(biased, corr.default_tau_grid(biased)).g2)
    r_sym = alternation_ratio(
        corr.two_time_correlations(sym, corr.default_tau_grid(sym)).g2)
    ok = abs(r_biased - 1.0) > 0.05 and abs(r_sym - 1.0) < 0.01
    assert report(7, f"adjacent-peak alternation {abs(r_biased-1):.1%} with bias, "
                     f"{abs(r_sym-1):.2%} without", ok)


def test_criterion_8_modulation_resonance():
    p = params(lam=0.8 * LC)
    # fine scan at lam = 0.8 lam_c
    nu_scan = np.linspace(0.9, 1.5, 25)
    scan = mod.driven_response_map(p, [0.8 * LC], nu_scan, eps=1.0 / 50.0,
                                   workers=2)
    nu_star = float(nu_scan[int(np.argmax(scan.max_re_beta[0]))])
    d_nu = float(nu_scan[1] - nu_scan[0])
    ok = abs(nu_star - 1.20) <= d_nu
    # off-resonant cell stays below the seed scale
    off = mod.driven_response_map(p, [0.8 * LC], [1.6], eps=1.0 / 50.0)
    sub_seed = off.max_re_beta[0, 0] < 1e-4 and off.max_alpha2[0, 0] < 1e-8
    ok = ok and sub_seed
    # coarse 20x20 map: ridge tracks twice the exact soft-mode energy
    lam_rows = np.linspace(0.5, 0.95, 20) * LC
    nu_grid = np.linspace(0.5, 2.1, 20)
    rmap = mod.driven_response_map(p, lam_rows, nu_grid, eps=1.0 / 50.0,
                                   workers=2)
    cell = float(nu_grid[1] - nu_grid[0])
    worst_cells = 0.0
    for i, lam in enumerate(lam_rows):
        soft = max(_exact_soft_pair(float(lam)), key=lambda z: z.real)
        ridge = float(nu_grid[int(np.argmax(rmap.max_re_beta[i]))])
        worst_cells = max(worst_cells, abs(ridge - 2.0 * soft.real) / cell)
    ok = ok and worst_cells <= 1.0
    assert report(8, f"resonance at nu = {nu_star:.3f} (1.20 +- {d_nu:.3f}), "
                     f"sub-seed off resonance: {sub_seed}, ridge within "
                     f"{worst_cells:.2f} cells", ok)


def test_criterion_9_conservation_and_parity():
    p = params(lam=1.2 * LC, n=1e4)
    n = p.atom_number
    beta0 = 1e-3 * n * (1 + 0.2j)
    s0 = mfd.MeanFieldState(2e-3 * math.sqrt(n) * (0.8 - 0.1j), beta0,
                            -math.sqrt(n * n / 4 - abs(beta0) ** 2))
    t_eval = np.linspace(0.0, 100.0, 101)
    _, a = mfd.integrate(s0, p, (0.0, 100.0), t_eval=t_eval)
    drift = np.max(np.abs(a[2] ** 2 + a[3] ** 2 + a[4] ** 2 - s0.pseudo_momentum()))
    flipped = mfd.MeanFieldState(-s0.alpha, -s0.beta, s0.w)
    _, b = mfd.integrate(flipped, p, (0.0, 100.0), t_eval=t_eval)
    parity = max(np.max(np.hypot(a[0] + b[0], a[1] + b[1])) / math.sqrt(n),
                 np.max(np.hypot(a[2] + b[2], a[3] + b[3])) / n,
                 np.max(np.abs(a[4] - b[4])) / n)
    ok = drift < 1e-8 * n * n and parity < 1e-6
    assert report(9, f"pseudo-momentum drift {drift/n**2:.1e} N^2 over t=100, "
                     f"parity mismatch {parity:.1e}", ok)


def test_criterion_10_correlator_cross_check():
    q = params(lam=0.7 * LC)
    tau = np.linspace(0.0, 2000.0, 4096)
    f = corr.two_time_correlations(q, tau, method="frequency")
    r = corr.two_time_correlations(q, tau, method="regression")
    scale = float(np.max(np.abs(f.cdagc_tau)))
    err = max(float(np.max(np.abs(f.cdagc_tau - r.cdagc_tau))),
              float(np.max(np.abs(f.cc_tau - r.cc_tau)))) / scale
    assert report(10, "frequency-domain vs regression correlators on 4096-"
                      f"point grid (rel err {err:.1e} vs 1e-6)", err < 1e-6)


def test_criterion_11_symmetry_breaking_steady_states():
    # biased branch: nonzero, stable and smooth through the critical region
    biased = params(lam_prime=0.05, n=1e4)
    grid = np.linspace(0.2, 1.8, 33) * LC
    branch = mfd.steady_states(biased, grid)
    alphas = branch.vectors[:, 0] + 1j * branch.vectors[:, 1]
    no_bifurcation = (alphas.size == grid.size and np.all(np.abs(alphas) > 0)
                      and np.all(branch.flags == "stable")
                      and np.all(np.abs(np.diff(alphas)) < 0.15 * np.max(np.abs(alphas))))
    # unbiased Newton solutions coincide with the closed forms
    worst = 0.0
    n = 1e4
    p = params(n=n)
    for f in (1.1, 1.4, 1.8):
        q = p.with_coupling(f * LC)
        target = mfd.superradiant_states(q)[0]
        seed = mfd.MeanFieldState(1.05 * target.alpha, 1.05 * target.beta, target.w)
        found = mfd.newton_steady_state(q, seed)
        worst = max(worst, abs(found.alpha - target.alpha) / n,
                    abs(found.beta - target.beta) / n, abs(found.w - target.w) / n)
    closed_ok = worst < 1e-9
    # the two bias signs select density patterns half a pump wavelength apart
    phys = load_config(str(FIG5_CONFIG)).physical
    dk = map_to_dicke(phys)
    ratio = abs(dk.lam_prime / dk.lam)
    x = np.linspace(*phys.support, 4001)
    profiles = []
    for sign in (+1.0, -1.0):
        q = DickeParams(dk.omega, dk.omega0, 9.0, sign * ratio * 9.0,
                        dk.kappa, dk.atom_number)
        seed = mfd.MeanFieldState(
            -1j * q.lam_prime * math.sqrt(q.atom_number) / (q.kappa + 1j * q.omega),
            0j, -q.atom_number / 2.0)
        ss = mfd.newton_steady_state(q, seed)
        profiles.append(density_profile(phys, ss, x))
    shift = correlation_shift(profiles[0], profiles[1], float(x[1] - x[0]),
                              max_shift=0.9)
    half_pump = math.pi / phys.cavity_wavevector
    shift_ok = abs(shift - half_pump) < 0.02 * half_pump + (x[1] - x[0])
    ok = no_bifurcation and closed_ok and shift_ok
    assert report(11, f"biased branch smooth/stable: {no_bifurcation}, "
                      f"closed-form match {worst:.1e} N, density shift "
                      f"{shift:.3f} vs {half_pump:.3f}", ok)
