"""Shared measurement helpers and oracles for the test suite.

The oracles include the paper's closed forms, which the package computes
exactly instead (moments, 4x4 eigenproblem, Hill-Floquet exponents); they
live here, apart from the code they check, so that they cannot change with it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import mpmath
import numpy as np
import scipy.integrate
from scipy.integrate import ODEintWarning

from opendicke import fluctuations as fl
from opendicke import meanfield as mfd
from opendicke.correlations import G2Spectrum
from opendicke.params import DickeParams, critical_coupling

#: the canonical operating point, in units of omega0 = 1
OMEGA, KAPPA = 300.0, 200.0


def params(lam=0.0, lam_prime=0.0, n=1e5):
    return DickeParams(OMEGA, 1.0, lam, lam_prime, KAPPA, n)


LC = critical_coupling(params())


def strict_maxima(y: np.ndarray) -> np.ndarray:
    """Indices of the interior points of y above both neighbours."""
    return np.flatnonzero((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])) + 1


def refined_peak_heights(y: np.ndarray, n_peaks: int = 6) -> list[float]:
    """Heights of the first local maxima, parabola-refined to kill sampling bias."""
    y = np.asarray(y, dtype=float)
    heights = []
    for i in strict_maxima(y)[:n_peaks]:
        left, center, right = y[i - 1], y[i], y[i + 1]
        denom = left - 2.0 * center + right
        h = center - (left - right) ** 2 / (8.0 * denom) if denom != 0 else center
        heights.append(float(h))
    return heights


def alternation_ratio(g2: np.ndarray, baseline: float = 1.0) -> float:
    """(h0*h2)/h1^2 over consecutive g2 maxima above the long-time baseline.

    Exactly 1 for a geometrically decaying envelope; != 1 when adjacent
    peaks alternate (beating).
    """
    h = refined_peak_heights(np.asarray(g2) - baseline, n_peaks=3)
    if len(h) < 3:
        raise ValueError("need at least three maxima to measure alternation")
    return (h[0] * h[2]) / (h[1] * h[1])


def loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx, ly = np.log(np.asarray(x)), np.log(np.asarray(y))
    return float(np.polyfit(lx, ly, 1)[0])


def correlation_shift(profile_a: np.ndarray, profile_b: np.ndarray,
                      dx: float, max_shift: float) -> float:
    """Displacement of b relative to a maximizing their cross-correlation."""
    a = profile_a - profile_a.mean()
    b = profile_b - profile_b.mean()
    n_max = int(round(max_shift / dx))
    scores = [np.dot(a[:-k] if k else a, b[k:] if k else b) /
              max(len(a) - k, 1) for k in range(n_max + 1)]
    return float(np.argmax(scores) * dx)


#: ODEPACK's message for tolerances below what it can reach
ODEPACK_ERROR = "Excess accuracy requested (tolerances too small)."


def failing_odeint(func, y0, t, **kwargs):
    """A stand-in for ``scipy.integrate.odeint`` that fails as ODEPACK does.

    It warns and returns the error message in place of the run; a real run
    at tolerances that fail this way (rtol 1e-30) did not stop.
    """
    warnings.warn(f"{ODEPACK_ERROR} Run with full_output = 1 to get quantitative "
                  "information.", ODEintWarning)
    return np.zeros((len(t), len(y0))), {"message": ODEPACK_ERROR}


#: ``dopri5``'s message for a step size that fell below roundoff
DOPRI5_ERROR = "step size becomes too small"


class FailingOde(scipy.integrate.ode):
    """A stand-in for ``scipy.integrate.ode`` whose ``dopri5`` gives up as DOPRI5 does.

    Each ``integrate`` call warns and flags the run failed with DOPRI5's
    code -3, leaving the state where it was.
    """

    def integrate(self, t, step=False, relax=False):
        self._integrator.istate, self._integrator.success = -3, 0
        warnings.warn(f"dopri5: {DOPRI5_ERROR}", UserWarning)
        return self._y


def dop853_reference(fun, t_span, y0, t_eval, rtol, atol, args=()):
    """Samples y(t_eval), shape (len(y0), len(t_eval)), of ``ode``'s compiled ``dop853``.

    The same Dormand-Prince 8(5,3) pair as ``solve_ivp``'s DOP853, run at the
    same tolerances in Fortran's own step loop, stepped to each output time
    in turn; ``solve_ivp`` drives it from Python one step at a time.
    """
    solver = scipy.integrate.ode(fun).set_integrator("dop853", rtol=rtol, atol=atol,
                                                     nsteps=2 ** 31 - 1)
    solver.set_initial_value(y0, t_span[0]).set_f_params(*args)
    samples = []
    for t in t_eval:
        samples.append(solver.y if t == solver.t else solver.integrate(t))
        assert solver.successful(), f"dop853 failed at t = {t}"
    return np.array(samples).T


def expm_reference(m, v0, taus, dps=40):
    """exp(M tau) v0 at each tau, shape (len(taus), len(v0)), by ``mpmath.expm``.

    M and v0 are taken as the floats they are; only the propagation is
    done in extended precision, at ``dps`` digits.
    """
    with mpmath.workdps(dps):
        mm = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in m])
        v = mpmath.matrix([mpmath.mpc(complex(x)) for x in v0])
        out = []
        for tau in taus:
            y = mpmath.expm(mm * mpmath.mpf(float(tau))) * v
            out.append([complex(y[i]) for i in range(len(v0))])
    return np.array(out)


def photon_number_closed_form(p: DickeParams, lam: float | None = None) -> float:
    """Below-threshold intracavity fluctuation photon number (lam' = 0).

    <c+c>_ss = lam^2 / (2 omega omega0 [1 - (lam/lam_c)^2])
    """
    lam = p.lam if lam is None else lam
    r = (lam / critical_coupling(p)) ** 2
    return lam ** 2 / (2.0 * p.omega * p.omega0 * (1.0 - r))


def cc_closed_form(p: DickeParams, lam: float | None = None) -> complex:
    """Below-threshold anomalous moment <cc>_ss (lam' = 0).

    lam^2 [(omega^2 - kappa^2) + 2 i omega kappa] /
    (2 omega omega0 (omega^2 + kappa^2) [1 - (lam/lam_c)^2])

    Its modulus equals <c+c>_ss, which is what pins g2(0) = 3.
    """
    lam = p.lam if lam is None else lam
    r = (lam / critical_coupling(p)) ** 2
    s2 = p.omega ** 2 + p.kappa ** 2
    num = (p.omega ** 2 - p.kappa ** 2) + 2j * p.omega * p.kappa
    return lam ** 2 * num / (2.0 * p.omega * p.omega0 * s2 * (1.0 - r))


def ground_state_photon_number(p: DickeParams, lam: float) -> float:
    """Equilibrium (closed-system) photon number with exponent 1/2.

    lam^2 / (omega^2 sqrt(1 - (lam/lam_c_closed)^2)), valid in the
    dispersive regime omega0/omega << 1 below the closed-system threshold
    lam_c_closed = (1/2) sqrt(omega*omega0).
    """
    if p.omega0 / p.omega > 0.1:
        raise ValueError("ground-state formula requires omega0/omega << 1")
    lc_closed = 0.5 * math.sqrt(p.omega * p.omega0)
    if lam >= lc_closed:
        raise ValueError(f"lam = {lam} is above the closed-system threshold {lc_closed}")
    return lam ** 2 / (p.omega ** 2 * math.sqrt(1.0 - (lam / lc_closed) ** 2))


@dataclass
class SpectralPeak:
    frequency: float
    log_magnitude: float


def dominant_peak(spec: G2Spectrum, nu_min: float = 0.0) -> SpectralPeak:
    """The highest local maximum of ``spec`` above ``nu_min``, at its parabola-refined frequency.

    Of equal maxima the lowest in nu is taken; ValueError if none lies above.
    """
    logmag, nu = spec.log_magnitude, spec.nu
    maxima = strict_maxima(logmag)
    for i in maxima[np.argsort(-logmag[maxima], kind="stable")]:
        left, center, right = logmag[i - 1], logmag[i], logmag[i + 1]
        denom = left - 2.0 * center + right
        shift = 0.5 * (left - right) / denom if denom != 0 else 0.0
        frequency = float(nu[i] + shift * (nu[1] - nu[0]))
        if frequency > nu_min:
            return SpectralPeak(frequency, float(center))
    raise ValueError(f"no spectral peak above nu = {nu_min}")


def soft_mode_perturbative(p: DickeParams, lam: float) -> complex:
    """Dispersive-regime approximation of the soft polaritonic frequency.

    omega_ex = omega0 sqrt(1 - r) (1 + eps r / 2) - i kappa omega0^2 r /
    (omega^2 + kappa^2), with r = (lam/lam_c)^2 and eps = omega0^2 /
    (omega^2 + kappa^2).  Valid below the overdamped region and for
    eps < 1e-2.
    """
    eps = p.omega0 ** 2 / (p.omega ** 2 + p.kappa ** 2)
    if eps >= 1e-2:
        raise fl.ValidityError(f"dispersive-regime check failed: eps = {eps:.3e} >= 1e-2")
    window = overdamped_window(p)
    if lam >= window.lam1:
        raise fl.ValidityError(
            f"lam = {lam} is inside or above the overdamped region "
            f"starting at lam1 = {window.lam1}")
    r = (lam / critical_coupling(p)) ** 2
    re = p.omega0 * math.sqrt(1.0 - r) * (1.0 + 0.5 * eps * r)
    im = -p.kappa * p.omega0 ** 2 / (p.omega ** 2 + p.kappa ** 2) * r
    return complex(re, im)


def exact_soft_pair(p: DickeParams, lam: float) -> list[complex]:
    """The two eigenfrequencies of M nearest the imaginary axis at coupling ``lam``.

    M is linearized about the physical steady state at lam (trivial at or
    below lam_c, the first superradiant state above).  The pair is the
    atomic soft pair only where the cavity pair's |Re|, about omega, is the
    larger one, as at the canonical point.  Elsewhere it need not be: at
    omega = 0.1, kappa = 30, omega0 = 1 and 0.5 lam_c it is the overdamped
    cavity pair (Re 0, Im near -29.5 and -30.5), while the soft pair sits
    at +-0.866 - 0.0083i.
    """
    q = p.with_coupling(lam)
    lc = critical_coupling(p)
    ss = mfd.trivial_state(p) if lam <= lc else mfd.superradiant_states(q)[0]
    m = fl.dynamical_matrix(fl.hp_coefficients(ss, q), q)
    freqs = sorted(1j * np.linalg.eigvals(m), key=lambda z: abs(z.real))
    return freqs[:2]


@dataclass(frozen=True)
class OverdampedWindow:
    """Overdamped region (lam1, lam2) around the critical point.

    lam1 = lam_c [1 - kappa^2 omega0^2 / (omega^2+kappa^2)^2]
    lam2 = lam_c [1 + kappa^2 omega0^2 / (2 (omega^2+kappa^2)^2)]

    ``soft_frequency`` evaluates the purely damped near-critical eigenvalue
    -i (omega^2+kappa^2)/(2 kappa) (1 - lam^2/lam_c^2) valid inside the
    window below threshold.
    """

    lam1: float
    lam2: float
    lam_c: float
    rate_scale: float

    def soft_frequency(self, lam: float) -> complex:
        return -1j * self.rate_scale * (1.0 - (lam / self.lam_c) ** 2)


def overdamped_window(p: DickeParams) -> OverdampedWindow:
    lc = critical_coupling(p)
    s2 = p.omega ** 2 + p.kappa ** 2
    half = p.kappa ** 2 * p.omega0 ** 2 / s2 ** 2
    rate = s2 / (2.0 * p.kappa) if p.kappa > 0 else math.inf
    return OverdampedWindow(lc * (1.0 - half), lc * (1.0 + 0.5 * half), lc, rate)


def instability_boundary(p: DickeParams, lam: float) -> float:
    """Principal parametric resonance frequency, twice the soft-mode energy.

    nu_res = 2 omega0 sqrt(1 - (lam/lam_c)^2)
    """
    lc = critical_coupling(p)
    if lam >= lc:
        raise ValueError(f"resonance formula requires lam < lam_c = {lc}")
    return 2.0 * p.omega0 * math.sqrt(1.0 - (lam / lc) ** 2)


def eom_rhs(state: mfd.MeanFieldState, p: DickeParams) -> mfd.MeanFieldState:
    """Right-hand sides of the mean-field equations of motion at ``state``.

    They are ``meanfield._rhs_vector`` at the absolute fields' couplings.
    """
    return mfd.MeanFieldState.from_vector(
        mfd._rhs_vector(0.0, state.as_vector(), p, *mfd._couplings(p)))
