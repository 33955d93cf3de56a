"""Photodetection observables from input-output theory.

Below threshold the photons leaking out of the cavity carry the statistics
of the intracavity fluctuations.  Their dynamics is written only once, as
the 4x4 matrix ``fluctuations.dynamical_matrix``; the 10-dimensional linear
system that the equal-time second moments close under is derived from it
here, through one table of normal-ordered operator pairs.  Two-time
correlators follow either by contour integration of the frequency-domain
Langevin solution driven by vacuum noise (a sum over the eigenvalues of M),
or by quantum regression: the steady moments are propagated exactly along
the uniform tau grid by exp(M dtau), built from one ODE run of
d Phi/d tau = M Phi by scaling and squaring, without an eigendecomposition.
Both routes are implemented and must agree.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .fluctuations import dynamical_matrix, hp_coefficients, stability
from .meanfield import MeanFieldState, critical_coupling, operating_point
from .params import DickeParams

NEAR_THRESHOLD_GUARD = 1e-6

#: positions of the fluctuation operators in x = (c, c+, d, d+), the vector
#: that ``fluctuations.dynamical_matrix`` M acts on
C, CDAG, D, DDAG = range(4)
#: the ten normal-ordered moments <x_i x_j>; a pair's place in this table is
#: the moment's index in ``MomentVector.values`` and in the moment system
MOMENT_PAIRS = ((C, C), (CDAG, CDAG), (CDAG, C), (D, D), (DDAG, DDAG),
                (DDAG, D), (C, D), (CDAG, DDAG), (CDAG, D), (C, DDAG))
_INDEX = {pair: n for n, pair in enumerate(MOMENT_PAIRS)}


def _normal_order(i: int, j: int) -> tuple[int, float]:
    """Table index of <x_i x_j> and the c-number it picks up on reordering.

    A product missing from the table is flipped, <x_i x_j> = <x_j x_i> +
    [x_i, x_j]; of all the flips, only [c, c+] = [d, d+] = 1 is nonzero.
    """
    if (i, j) in _INDEX:
        return _INDEX[(i, j)], 0.0
    return _INDEX[(j, i)], 1.0 if (i, j) in ((C, CDAG), (D, DDAG)) else 0.0


class ThresholdError(RuntimeError):
    """Steady moments diverge: operating point too close to the instability."""


@dataclass
class MomentVector:
    """Equal-time second moments of the fluctuation operators.

    ``values[n]`` is <x_i x_j> for the n-th pair (i, j) of ``MOMENT_PAIRS``.
    Conjugate pairs must close (<c+c+> = <cc>* etc.) and the two
    occupation numbers are real and non-negative.
    """

    values: np.ndarray

    def pair(self, i: int, j: int) -> complex:
        """<x_i x_j> for any two of x = (c, c+, d, d+)."""
        n, commutator = _normal_order(i, j)
        return complex(self.values[n]) + commutator

    @property
    def cc(self) -> complex:
        return self.pair(C, C)

    @property
    def photon_number(self) -> float:
        return self.pair(CDAG, C).real

    def conjugate_closure_residual(self) -> float:
        """Worst mismatch |<(x_i x_j)+> - <x_i x_j>*|, relative to the largest moment.

        (x_i x_j)+ = x_j+ x_i+, and x_i+ sits at index i ^ 1 of x.
        """
        res = max(abs(self.pair(j ^ 1, i ^ 1) - self.pair(i, j).conjugate())
                  for i, j in MOMENT_PAIRS)
        scale = float(np.max(np.abs(self.values)))
        return res / scale if scale > 0 else res


def _derivation_maps() -> tuple[np.ndarray, np.ndarray]:
    """Constant linear maps from the entries of M to the moment system (A, b).

    For every pair (i, j) of the table,
    d<x_i x_j>/dt = sum_k M_ik <x_k x_j> + M_jk <x_i x_k>,
    with each product normal ordered by ``_normal_order``.  Vacuum input
    noise is anti-normally ordered, so it adds nothing to these moments.
    """
    a_map = np.zeros((10, 10, 4, 4), dtype=complex)
    b_map = np.zeros((10, 4, 4), dtype=complex)
    for row, (i, j) in enumerate(MOMENT_PAIRS):
        for k in range(4):
            for entry, product in (((i, k), (k, j)), ((j, k), (i, k))):
                col, commutator = _normal_order(*product)
                a_map[(row, col) + entry] += 1.0
                b_map[(row,) + entry] += commutator
    return a_map.reshape(100, 16), b_map.reshape(10, 16)


_A_MAP, _B_MAP = _derivation_maps()


def regression_generator(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Generator (A, b) of the moment system dv/dt = A v + b, v = MomentVector.values.

    Derived from the 4x4 dynamical matrix ``m`` (see ``_derivation_maps``);
    b collects the commutators picked up by normal ordering.
    """
    flat = m.reshape(16)
    return (_A_MAP @ flat).reshape(10, 10), _B_MAP @ flat


def _resolve_operating_point(p: DickeParams) -> tuple[MeanFieldState, np.ndarray]:
    """Operating point and its dynamical matrix, refused near threshold."""
    if p.lam_prime == 0.0:
        lc = critical_coupling(p)
        if p.lam >= lc:
            raise ThresholdError(
                f"lam = {p.lam} >= lam_c = {lc}: no below-threshold steady moments")
        if 1.0 - p.lam / lc < NEAR_THRESHOLD_GUARD:
            raise ThresholdError(
                f"within {NEAR_THRESHOLD_GUARD} of threshold: moments diverge")
    ss = operating_point(p)
    return ss, dynamical_matrix(hp_coefficients(ss, p), p)


def steady_moments(p: DickeParams, m: np.ndarray | None = None) -> MomentVector:
    """Steady solution of the moment system, A v = -b.

    ``m`` is the dynamical matrix at the operating point; omitted, the
    operating point is resolved from the parameters (trivial state for
    lam' = 0, Newton-continued state otherwise).  A generator that
    ``fluctuations.stability`` finds unstable is refused as threshold
    proximity; a marginal one passes.
    """
    if m is None:
        _, m = _resolve_operating_point(p)
    if m[C, D] == 0.0 and m[D, DDAG] == 0.0:
        # decoupled modes (g1 = g2 = 0) with vacuum input: every moment
        # vanishes (the undriven atomic moments are conserved, so the
        # matrix is singular)
        return MomentVector(np.zeros(10, dtype=complex))
    if stability(m, p.omega0) == "unstable":
        raise ThresholdError("fluctuation dynamics is not stable at this point")
    a, b = regression_generator(m)
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
    ss, m = _resolve_operating_point(p)
    moments = steady_moments(p, m)
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
    M has passed ``steady_moments``' stability check.
    """
    mu, v = np.linalg.eig(m)
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


#: largest ||M h||_1 integrated directly by ``_propagator``; longer steps
#: are halved until they fit and the result is squared back
_PROPAGATOR_REACH = 32.0
#: propagation block: E^0 ... E^63 are tabulated, blocks are joined by E^64
_BLOCK = 64


def _propagator(m: np.ndarray, h: float) -> np.ndarray:
    """Phi(h) = exp(M h) from one DOP853 run of d Phi/d tau = M Phi, Phi(0) = I.

    The run covers h / 2^s, with s the smallest integer for which
    (h / 2^s) ||M||_1 <= ``_PROPAGATOR_REACH``, and its result is squared s
    times, so the work is bounded whatever h is.  An ODE run rather than
    ``scipy.linalg.expm`` keeps the route's work countable through this
    module's ``solve_ivp`` binding, which the benchmark's tracer wraps.
    """
    if h == 0.0:
        return np.eye(4, dtype=complex)
    reach = h * float(np.max(np.abs(m).sum(axis=0)))
    s = 0
    while reach > _PROPAGATOR_REACH * 2.0 ** s:
        s += 1

    def rhs(t, y):
        dphi = m @ (y[:16] + 1j * y[16:]).reshape(4, 4)
        return np.concatenate([dphi.real.ravel(), dphi.imag.ravel()])

    y0 = np.concatenate([np.eye(4).ravel(), np.zeros(16)])
    sol = solve_ivp(rhs, (0.0, h / 2.0 ** s), y0, method="DOP853",
                    rtol=1e-13, atol=1e-16)
    if not sol.success:
        raise RuntimeError(f"regression propagator failed: {sol.message}")
    phi = (sol.y[:16, -1] + 1j * sol.y[16:, -1]).reshape(4, 4)
    for _ in range(s):
        phi = phi @ phi
    return phi


def _propagate(step: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """The n vectors step^k v, k = 0 ... n-1, as an (n, 4) array.

    Block starts step^(64 b) v are chained by step^64; every block is then
    one batched product with the table step^0 ... step^63.
    """
    powers = np.empty((_BLOCK, 4, 4), dtype=complex)
    powers[0] = np.eye(4)
    for k in range(1, _BLOCK):
        powers[k] = step @ powers[k - 1]
    jump = step @ powers[-1]
    starts = np.empty((4, -(-n // _BLOCK)), dtype=complex)
    starts[:, 0] = v
    for b in range(1, starts.shape[1]):
        starts[:, b] = jump @ starts[:, b - 1]
    blocks = powers @ starts                 # (64, 4, blocks)
    return blocks.transpose(2, 0, 1).reshape(-1, 4)[:n]


def _correlators_regression(m: np.ndarray, moments: MomentVector, tau: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Quantum-regression propagation d v/d tau = M v from the steady moments.

    v_k = <x_k(t+tau) c(t)> for x = (c, c+, d, d+), seeded at tau = 0 by
    the steady moments <x_k c>, carried to the grid's first point by
    exp(M tau_0) and along the uniform grid by E = exp(M dtau)
    (``_propagator``).  No eigendecomposition is used, so the route stays
    independent of the frequency route.
    """
    v0 = np.array([moments.pair(k, C) for k in range(4)], dtype=complex)
    # <c+c> is an occupation number; drop the rounding in its imaginary part
    v0[CDAG] = moments.photon_number
    n = tau.size
    first = _propagator(m, float(tau[0])) @ v0
    step = _propagator(m, float(tau[-1] - tau[0]) / (n - 1))
    v = _propagate(step, first, n)
    return v[:, CDAG], v[:, C]


def two_time_correlations(p: DickeParams, tau, method: str = "frequency",
                          resolved: tuple[MeanFieldState, np.ndarray] | None = None
                          ) -> CorrelationSeries:
    """Two-time correlators and g1/g2 on a uniform tau grid.

    ``method`` selects the frequency-domain route ("frequency"), the
    quantum-regression route ("regression"), or "both", which computes the
    two independently and fails loudly if they disagree beyond 1e-6
    relative to the correlator scale.  ``resolved`` is the operating point
    and dynamical matrix of ``p`` when the caller has them already.
    """
    tau = np.asarray(tau, dtype=float)
    if tau.ndim != 1 or tau.size < 2:
        raise ValueError("tau grid must be a 1-d array with at least 2 points")
    if tau.min() < 0.0:
        raise ValueError(f"tau grid reaches tau = {tau.min():g} < 0")
    steps = np.diff(tau)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("tau grid must be uniform")

    ss, m = resolved if resolved is not None else _resolve_operating_point(p)
    moments = steady_moments(p, m)

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


def default_tau_grid(p: DickeParams, n: int = 2 ** 14,
                     m: np.ndarray | None = None) -> np.ndarray:
    """Tau grid resolving both the oscillation and the decay envelope.

    The span targets 20 decay times of the slowest fluctuation eigenmode
    and is capped so that the sampling stays well above the Nyquist rate
    for the fastest g2 spectral content (~2 omega0).  ``m`` is the
    dynamical matrix at the operating point, resolved when omitted.
    """
    if m is None:
        _, m = _resolve_operating_point(p)
    mu = np.linalg.eigvals(m)
    slow = -float(np.max(mu.real))
    if slow <= 0:
        raise ThresholdError("no decaying steady state: tau grid undefined")
    span = 20.0 / slow
    span = min(span, n * math.pi / (8.0 * p.omega0))
    return np.linspace(0.0, span, n)


def default_correlations(p: DickeParams) -> CorrelationSeries:
    """``two_time_correlations`` on ``default_tau_grid``, frequency route.

    The operating point and dynamical matrix are resolved once and shared.
    """
    resolved = _resolve_operating_point(p)
    return two_time_correlations(p, default_tau_grid(p, m=resolved[1]),
                                 "frequency", resolved)


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
