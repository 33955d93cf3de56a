"""Photodetection observables from input-output theory.

Below threshold the photons leaking out of the cavity carry the statistics
of the intracavity fluctuations.  Equal-time second moments of the two
fluctuation modes close under a 10-dimensional linear system; two-time
correlators follow either by contour integration of the frequency-domain
Langevin solution driven by vacuum noise, or by quantum-regression
propagation of the single-operator generator from the steady moments.
Both routes are implemented and must agree.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .fluctuations import HPCoefficients, dynamical_matrix, hp_coefficients
from .meanfield import MeanFieldState, critical_coupling, operating_point
from .params import DickeParams

#: index layout of the moment vector
MOMENT_NAMES = ("cc", "cdagcdag", "cdagc", "dd", "ddagddag", "ddagd",
                "cd", "cdagddag", "cdagd", "cddag")

NEAR_THRESHOLD_GUARD = 1e-6


class ThresholdError(RuntimeError):
    """Steady moments diverge: operating point too close to the instability."""


@dataclass
class MomentVector:
    """Equal-time second moments of the fluctuation operators.

    Layout: <cc>, <c+c+>, <c+c>, <dd>, <d+d+>, <d+d>, <cd>, <c+d+>, <c+d>,
    <cd+>.  Conjugate pairs must close (<c+c+> = <cc>* etc.) and the two
    occupation numbers are real and non-negative.
    """

    values: np.ndarray

    @property
    def cc(self) -> complex:
        return complex(self.values[0])

    @property
    def photon_number(self) -> float:
        return float(self.values[2].real)

    @property
    def dd(self) -> complex:
        return complex(self.values[3])

    @property
    def cd(self) -> complex:
        return complex(self.values[6])

    @property
    def c_ddag(self) -> complex:
        return complex(self.values[9])

    def conjugate_closure_residual(self) -> float:
        """Worst conjugate-pair mismatch, relative to the largest moment."""
        v = self.values
        pairs = ((0, 1), (3, 4), (6, 7), (8, 9))
        res = max(abs(v[j] - np.conj(v[i])) for i, j in pairs)
        res = max(res, abs(v[2].imag), abs(v[5].imag))
        scale = float(np.max(np.abs(v)))
        return res / scale if scale > 0 else res


def regression_generator(p: DickeParams, coeffs: HPCoefficients
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Generator (A, b) of the moment system d m/dt = A m + b.

    The only inhomogeneous entries come from commutators picked up when
    normal ordering the vacuum-noise-driven equations: the <cd> row (and
    conjugate) through g2 and the <dd> row (and conjugate) through g1.
    """
    w, k = p.omega, p.kappa
    w0, g1, g2 = coeffs.omega0_prime, coeffs.g1, coeffs.g2
    a = np.zeros((10, 10), dtype=complex)
    b = np.zeros(10, dtype=complex)

    # d<cc> = -2(iw+k)<cc> - 2i g2 (<cd> + <cd+>)
    a[0, 0] = -2j * w - 2 * k
    a[0, 6] = a[0, 9] = -2j * g2
    # conjugate row
    a[1, 1] = 2j * w - 2 * k
    a[1, 7] = a[1, 8] = 2j * g2
    # d<c+c> = -2k<c+c> + i g2 (<cd> + <cd+> - <c+d> - <c+d+>)
    a[2, 2] = -2 * k
    a[2, 6] = a[2, 9] = 1j * g2
    a[2, 7] = a[2, 8] = -1j * g2
    # d<dd> = -2i w0 <dd> - 2i g1 (2<dd> + 2<d+d> + 1) - 2i g2 (<cd> + <c+d>)
    a[3, 3] = -2j * w0 - 4j * g1
    a[3, 5] = -4j * g1
    a[3, 6] = a[3, 8] = -2j * g2
    b[3] = -2j * g1
    # conjugate row
    a[4, 4] = 2j * w0 + 4j * g1
    a[4, 5] = 4j * g1
    a[4, 7] = a[4, 9] = 2j * g2
    b[4] = 2j * g1
    # d<d+d> = 2i g1 (<dd> - <d+d+>) + i g2 (<cd> + <c+d> - <cd+> - <c+d+>)
    a[5, 3] = 2j * g1
    a[5, 4] = -2j * g1
    a[5, 6] = a[5, 8] = 1j * g2
    a[5, 7] = a[5, 9] = -1j * g2
    # d<cd> = -(iw + iw0 + k)<cd> - 2i g1 (<cd> + <cd+>)
    #         - i g2 (<cc> + <c+c> + <dd> + <d+d> + 1)
    a[6, 6] = -1j * (w + w0) - k - 2j * g1
    a[6, 9] = -2j * g1
    a[6, 0] = a[6, 2] = a[6, 3] = a[6, 5] = -1j * g2
    b[6] = -1j * g2
    # conjugate row
    a[7, 7] = 1j * (w + w0) - k + 2j * g1
    a[7, 8] = 2j * g1
    a[7, 1] = a[7, 2] = a[7, 4] = a[7, 5] = 1j * g2
    b[7] = 1j * g2
    # d<c+d> = (iw - iw0 - k)<c+d> - 2i g1 (<c+d> + <c+d+>)
    #          + i g2 (<dd> + <d+d> - <c+c+> - <c+c>)
    a[8, 8] = 1j * (w - w0) - k - 2j * g1
    a[8, 7] = -2j * g1
    a[8, 3] = a[8, 5] = 1j * g2
    a[8, 1] = a[8, 2] = -1j * g2
    # conjugate row
    a[9, 9] = -1j * (w - w0) - k + 2j * g1
    a[9, 6] = 2j * g1
    a[9, 4] = a[9, 5] = -1j * g2
    a[9, 0] = a[9, 2] = 1j * g2
    return a, b


def _resolve_operating_point(p: DickeParams
                             ) -> tuple[MeanFieldState, HPCoefficients]:
    """Operating point and fluctuation coefficients, refused near threshold."""
    if p.lam_prime == 0.0:
        lc = critical_coupling(p)
        if p.lam >= lc:
            raise ThresholdError(
                f"lam = {p.lam} >= lam_c = {lc}: no below-threshold steady moments")
        if 1.0 - p.lam / lc < NEAR_THRESHOLD_GUARD:
            raise ThresholdError(
                f"within {NEAR_THRESHOLD_GUARD} of threshold: moments diverge")
    ss = operating_point(p)
    return ss, hp_coefficients(ss, p)


def steady_moments(p: DickeParams, coeffs: HPCoefficients | None = None
                   ) -> MomentVector:
    """Steady solution of the moment system, A m = -b.

    With ``coeffs`` omitted the operating point is resolved from the
    parameters (trivial state for lam' = 0, Newton-continued state
    otherwise).  A dynamically unstable generator is rejected as threshold
    proximity.
    """
    if coeffs is None:
        _, coeffs = _resolve_operating_point(p)
    if coeffs.g1 == 0.0 and coeffs.g2 == 0.0:
        # decoupled modes with vacuum input: every moment vanishes (the
        # undriven atomic moments are conserved, so the matrix is singular)
        return MomentVector(np.zeros(10, dtype=complex))
    a, b = regression_generator(p, coeffs)
    m = dynamical_matrix(coeffs, p)
    growth = float(np.max(np.linalg.eigvals(m).real))
    if growth > 1e-12 * max(p.omega, p.kappa, p.omega0):
        raise ThresholdError("fluctuation dynamics is not stable at this point")
    try:
        values = np.linalg.solve(a, -b)
    except np.linalg.LinAlgError as exc:
        raise ThresholdError("moment system is singular (criticality)") from exc
    return MomentVector(values)


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


def photon_flux(p: DickeParams) -> float:
    """Detected photon flux 2 kappa (<c+c>_ss + |alpha_ss|^2)."""
    ss, coeffs = _resolve_operating_point(p)
    moments = steady_moments(p, coeffs)
    return 2.0 * p.kappa * (moments.photon_number + abs(ss.alpha) ** 2)


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
class CorrelationSeries:
    """Uniformly sampled two-time correlation data.

    ``cdagc_tau`` is <c+(t+tau) c(t)>, ``cc_tau`` is <c(t+tau) c(t)>;
    ``g1``/``g2`` include the coherent mean-field contribution through
    ``alpha_ss``.
    """

    tau: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    cdagc_tau: np.ndarray
    cc_tau: np.ndarray
    alpha_ss: complex
    photon_number: float


def _correlators_frequency(m: np.ndarray, kappa: float, tau: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Contour-integrated frequency-domain solution on the tau grid.

    With S(nu) = (-i nu I - M)^{-1} and vacuum input entering only through
    the commutator spectrum <a_in a_in+> the correlators are sums of
    exp(mu_k tau) over the eigenvalues of M:

    <c (t+tau) c(t)> = -2k sum_kl P_k R_l e^{mu_k tau} / (mu_k + mu_l)
    <c+(t+tau) c(t)> = -2k sum_kl Q_k R_l e^{mu_k tau} / (mu_k + mu_l)

    with P_k = V_1k (V^-1)_k1, Q_k = V_2k (V^-1)_k1, R_l = V_1l (V^-1)_l2.
    """
    mu, v = np.linalg.eig(m)
    scale = float(np.max(np.abs(mu)))
    if np.max(mu.real) > 1e-12 * scale:
        raise ThresholdError("correlators require a stable fluctuation matrix")
    v_inv = np.linalg.inv(v)
    p_k = v[0, :] * v_inv[:, 0]
    q_k = v[1, :] * v_inv[:, 0]
    r_l = v[0, :] * v_inv[:, 1]
    denom = mu[:, None] + mu[None, :]
    # modes decoupled from the input noise contribute nothing; masking them
    # keeps marginal (undamped, decoupled) modes from producing 0/0
    terms = np.zeros_like(denom)
    live = np.abs(r_l) > 1e-300
    terms[:, live] = r_l[live][None, :] / denom[:, live]
    weight = terms.sum(axis=1)
    amp_cc = -2.0 * kappa * p_k * weight
    amp_cdagc = -2.0 * kappa * q_k * weight
    phases = np.exp(np.outer(tau, mu))
    return phases @ amp_cdagc, phases @ amp_cc


def _correlators_regression(m: np.ndarray, moments: MomentVector, tau: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Quantum-regression propagation d v/d tau = M v from the steady moments.

    v = (<c(t+tau)c(t)>, <c+(t+tau)c(t)>, <d(t+tau)c(t)>, <d+(t+tau)c(t)>),
    seeded by (<cc>, <c+c>, <cd>, <cd+>).
    """
    v0 = np.array([moments.cc, moments.photon_number, moments.cd,
                   moments.c_ddag], dtype=complex)

    def rhs(t, y):
        v = y[:4] + 1j * y[4:]
        dv = m @ v
        return np.concatenate([dv.real, dv.imag])

    y0 = np.concatenate([v0.real, v0.imag])
    scale = max(np.max(np.abs(v0)), 1e-12)
    sol = solve_ivp(rhs, (float(tau[0]), float(tau[-1])), y0, t_eval=tau,
                    method="LSODA", rtol=1e-10, atol=1e-12 * scale)
    if not sol.success:
        raise RuntimeError(f"regression propagation failed: {sol.message}")
    v = sol.y[:4] + 1j * sol.y[4:]
    return v[1], v[0]


def two_time_correlations(p: DickeParams, tau, method: str = "frequency"
                          ) -> CorrelationSeries:
    """Two-time correlators and g1/g2 on a uniform tau grid.

    ``method`` selects the frequency-domain route ("frequency"), the
    quantum-regression route ("regression"), or "both", which computes the
    two independently and fails loudly if they disagree beyond 1e-6
    relative to the correlator scale.
    """
    tau = np.asarray(tau, dtype=float)
    if tau.ndim != 1 or tau.size < 2:
        raise ValueError("tau grid must be a 1-d array with at least 2 points")
    steps = np.diff(tau)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("tau grid must be uniform")

    ss, coeffs = _resolve_operating_point(p)
    m = dynamical_matrix(coeffs, p)
    moments = steady_moments(p, coeffs)

    soft_freq = min(np.abs(np.linalg.eigvals(m).imag))
    if soft_freq > 0 and math.pi / float(steps[0]) < 2.0 * soft_freq:
        warnings.warn(
            f"tau grid spacing {steps[0]:.3g} cannot resolve the soft-mode "
            f"oscillation at 2*{soft_freq:.3g}", stacklevel=2)

    if method == "frequency":
        cdagc_tau, cc_tau = _correlators_frequency(m, p.kappa, tau)
    elif method == "regression":
        cdagc_tau, cc_tau = _correlators_regression(m, moments, tau)
    elif method == "both":
        f1 = _correlators_frequency(m, p.kappa, tau)
        f2 = _correlators_regression(m, moments, tau)
        scale = max(np.max(np.abs(f1[0])), np.max(np.abs(f1[1])))
        err = max(np.max(np.abs(f1[0] - f2[0])), np.max(np.abs(f1[1] - f2[1])))
        if err > 1e-6 * scale:
            raise RuntimeError(
                f"frequency-domain and regression correlators disagree: "
                f"{err:.3e} vs scale {scale:.3e}")
        cdagc_tau, cc_tau = f1
    else:
        raise ValueError(f"unknown method {method!r}")

    g1, g2_vals = assemble_g2(cdagc_tau, cc_tau, moments.photon_number, ss.alpha)
    return CorrelationSeries(tau, g1, g2_vals, cdagc_tau, cc_tau,
                             complex(ss.alpha), moments.photon_number)


def assemble_g2(cdagc_tau, cc_tau, photon_number: float, alpha_ss: complex
                ) -> tuple[np.ndarray, np.ndarray]:
    """Normalized first and second order correlation functions.

    g1 = (<c+(t+tau)c(t)> + |a|^2) / (<c+c> + |a|^2)
    g2 = 1 + |g1|^2 + (|<c(t+tau)c(t)> + a^2|^2 - 2|a|^4) / (<c+c> + |a|^2)^2
    """
    a2 = abs(alpha_ss) ** 2
    total = photon_number + a2
    if total < 1e-30:
        raise ZeroDivisionError("total photon number vanishes; g2 undefined")
    g1 = (np.asarray(cdagc_tau) + a2) / total
    anomalous = np.abs(np.asarray(cc_tau) + alpha_ss ** 2) ** 2 - 2.0 * a2 ** 2
    g2_vals = 1.0 + np.abs(g1) ** 2 + anomalous / total ** 2
    return g1, g2_vals


def g2(p: DickeParams, tau, alpha_ss: complex | None = None,
       method: str = "frequency") -> CorrelationSeries:
    """Second-order correlation g2(tau) of the output light.

    ``alpha_ss`` overrides the coherent amplitude entering the dc terms;
    by default it is resolved from the mean-field branch (zero for a
    symmetric trap below threshold).
    """
    series = two_time_correlations(p, tau, method=method)
    if alpha_ss is None or complex(alpha_ss) == series.alpha_ss:
        return series
    g1, g2_vals = assemble_g2(series.cdagc_tau, series.cc_tau,
                              series.photon_number, complex(alpha_ss))
    return CorrelationSeries(series.tau, g1, g2_vals, series.cdagc_tau,
                             series.cc_tau, complex(alpha_ss),
                             series.photon_number)


def default_tau_grid(p: DickeParams, n: int = 2 ** 14) -> np.ndarray:
    """Tau grid resolving both the oscillation and the decay envelope.

    The span targets 20 decay times of the slowest fluctuation eigenmode
    and is capped so that the sampling stays well above the Nyquist rate
    for the fastest g2 spectral content (~2 omega0).
    """
    _, coeffs = _resolve_operating_point(p)
    m = dynamical_matrix(coeffs, p)
    mu = np.linalg.eigvals(m)
    slow = -float(np.max(mu.real))
    if slow <= 0:
        raise ThresholdError("no decaying steady state: tau grid undefined")
    span = 20.0 / slow
    span = min(span, n * math.pi / (8.0 * p.omega0))
    return np.linspace(0.0, span, n)


@dataclass
class SpectralPeak:
    frequency: float
    log_magnitude: float


@dataclass
class G2Spectrum:
    """One-sided spectrum of g2(tau) - (long-time mean)."""

    nu: np.ndarray
    log_magnitude: np.ndarray
    peaks: list[SpectralPeak]

    def dominant_peak(self, nu_min: float = 0.0) -> SpectralPeak:
        eligible = [pk for pk in self.peaks if pk.frequency > nu_min]
        if not eligible:
            raise ValueError(f"no spectral peak above nu = {nu_min}")
        return max(eligible, key=lambda pk: pk.log_magnitude)


def g2_spectrum(series: CorrelationSeries) -> G2Spectrum:
    """Discrete Fourier transform of the mean-subtracted g2 series.

    The long-time mean is estimated from the trailing tenth of the series;
    the series is zero-padded to the next power of two.  Peaks are local
    maxima of the log magnitude refined by three-point parabolic
    interpolation.
    """
    tau = series.tau
    dt = float(tau[1] - tau[0])
    values = np.asarray(series.g2, dtype=float)
    tail = max(values.size // 10, 1)
    centered = values - values[-tail:].mean()
    n = 1 << (values.size - 1).bit_length()
    spec = np.fft.rfft(centered, n=n)
    nu = 2.0 * math.pi * np.fft.rfftfreq(n, d=dt)
    logmag = np.log10(np.abs(spec) + 1e-300)

    peaks: list[SpectralPeak] = []
    interior = (logmag[1:-1] > logmag[:-2]) & (logmag[1:-1] > logmag[2:])
    for i in np.nonzero(interior)[0] + 1:
        left, center, right = logmag[i - 1], logmag[i], logmag[i + 1]
        denom = left - 2.0 * center + right
        shift = 0.5 * (left - right) / denom if denom != 0 else 0.0
        peaks.append(SpectralPeak(float(nu[i] + shift * (nu[1] - nu[0])),
                                  float(center)))
    peaks.sort(key=lambda pk: pk.log_magnitude, reverse=True)
    return G2Spectrum(nu, logmag, peaks)
