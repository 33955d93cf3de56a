"""Photodetection observables from input-output theory.

Below threshold the photons leaking out of the cavity carry the statistics
of the intracavity fluctuations.  Their dynamics is written only once, as
the 4x4 matrix ``fluctuations.dynamical_matrix`` M; the equal-time second
moments S_ij = <x_i x_j> solve the Lyapunov equation M S + S M^T + Q = 0,
with the vacuum input noise 2 kappa <c_in c_in+> as the one entry of Q,
and each has a closed form, rational in omega, kappa and M's atomic
entries (``steady_moments``).
By the quantum-regression theorem the two-time correlators v_k(tau) =
<x_k(t+tau) c(t)> obey d v/d tau = M v from the steady moments v0_k =
<x_k c>, the tau = 0 data of both routes.  The frequency route integrates
the frequency-domain solution (-i nu - M)^-1 v0 around M's eigenvalues, a
sum of residues sampled at tau_0 + k dtau from two small tables of
exponentials; the regression route propagates v0 exactly along the uniform
tau grid by the powers of exp(M dtau), formed by repeated squaring, and
builds exp(M dtau) itself from one ODE run of d Phi/d tau = M Phi by
scaling and squaring, without an eigendecomposition.  Both routes are
implemented and must agree: they share M and v0 and differ in how they
propagate.  The steady moments and the photon flux also come for a whole
coupling grid from one stack of M.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._expsum import uniform_samples
from ._solvers import solve_ivp
from .fluctuations import (ValidityError, _eigenvalues, _walk_stack, dynamical_matrix,
                           hp_coefficients, stability)
from .meanfield import MeanFieldState, _sorted_grid, critical_coupling, operating_point
from .params import DickeParams

NEAR_THRESHOLD_GUARD = 1e-6

#: positions of the fluctuation operators in x = (c, c+, d, d+), the vector
#: that ``fluctuations.dynamical_matrix`` M acts on
C, CDAG, D, DDAG = range(4)
#: the commutators [x_i, x_j] that reorder a product into normal order:
#: <x_i x_j> = <:x_i x_j:> + _COMMUTATORS[i, j]
_COMMUTATORS = np.zeros((4, 4))
_COMMUTATORS[C, CDAG] = _COMMUTATORS[D, DDAG] = 1.0


class ThresholdError(RuntimeError):
    """Steady moments diverge: operating point too close to the instability."""


@dataclass
class MomentVector:
    """Equal-time second moments of the fluctuation operators.

    ``values[i, j]`` is the normal-ordered moment <:x_i x_j:>, or
    ``values[r, i, j]`` that of row r of a stack.  Conjugate pairs must
    close (<c+c+> = <cc>* etc.) and the two occupation numbers are real and
    non-negative.
    """

    values: np.ndarray

    def pair(self, i: int, j: int) -> complex | np.ndarray:
        """<x_i x_j> for any two of x = (c, c+, d, d+), an array over a stack's rows."""
        if self.values.ndim == 2:
            return complex(self.values[i, j]) + _COMMUTATORS[i, j]
        return self.values[:, i, j] + _COMMUTATORS[i, j]

    @property
    def cc(self) -> complex:
        return self.pair(C, C)

    @property
    def photon_number(self) -> float | np.ndarray:
        return self.pair(CDAG, C).real

    def conjugate_closure_residual(self) -> float:
        """Worst mismatch |<(x_i x_j)+> - <x_i x_j>*|, relative to the largest moment.

        (x_i x_j)+ = x_j+ x_i+, and x_i+ sits at index i ^ 1 of x; over all
        rows of a stack.
        """
        dagger = [CDAG, C, DDAG, D]
        res = float(np.max(np.abs(self.values[..., dagger, :][..., dagger].swapaxes(-1, -2)
                                  - self.values.conj())))
        scale = float(np.max(np.abs(self.values)))
        return res / scale if scale > 0 else res


def _resolve_operating_point(p: DickeParams, lam: np.ndarray | None = None
                             ) -> tuple[MeanFieldState | np.ndarray, np.ndarray]:
    """Operating point and its dynamical matrix, refused near threshold.

    With ``lam``, a sorted coupling grid at p's bias, the (rows, 5) state
    vectors (``MeanFieldState.as_vector``) and the (rows, 4, 4) stack of M
    of ``fluctuations._walk_stack``; at lam' = 0 the threshold guard first
    raises at the first coupling it refuses, as that coupling does alone.
    """
    if p.lam_prime == 0.0:
        lc = critical_coupling(p)
        for x in ((p.lam,) if lam is None else lam.tolist()):
            if x >= lc:
                raise ThresholdError(
                    f"lam = {x} >= lam_c = {lc}: no below-threshold steady moments")
            if 1.0 - x / lc < NEAR_THRESHOLD_GUARD:
                raise ThresholdError(
                    f"within {NEAR_THRESHOLD_GUARD} of threshold: moments diverge")
    if lam is None:
        ss = operating_point(p)
        return ss, dynamical_matrix(hp_coefficients(ss, p), p)
    return _walk_stack(p, lam)[1:]


def steady_moments(p: DickeParams, m: np.ndarray | None = None) -> MomentVector:
    """Steady moments of M S + S M^T + Q = 0, each in closed form.

    In M's real quadrature form R (``fluctuations._quadrature_terms``) the
    equation is R V + V R^T + diag(kappa, kappa, 0, 0) = 0 (Dimer et al.,
    PRA 75, 013804 (2007)), solved once symbolically.  With g2 = -Im M[c, d],
    2 g1 = -Im M[d, d+], omega0' + 2 g1 = -Im M[d, d], s = omega^2 + kappa^2
    and Delta = (omega0' + 4 g1) s - 4 g2^2 omega (det R = omega0' Delta),
    each normal-ordered moment is its own fraction, here in delta = Delta / s:

        <c+c> = g2^2 / (2 omega delta),   <cc> = <c+c> (omega + i kappa)^2 / s
        <cd>, <cd+> = -/+ g2 / (4 omega) - g2 (omega + i kappa) / (4 omega delta)
        <dd>  = -(g1 omega0' delta + g1 s - g2^2 omega) / (2 omega omega0' delta)
        <d+d> = [((omega - omega0')^2 + kappa^2 + 2 g1 omega0') delta
                 - 2 (g1 s - g2^2 omega)] / (4 omega omega0' delta)

    the rest being conjugates and transposes.  A row with g2 = 0 (lam = 0)
    has decoupled modes and all moments 0: its atomic moments are conserved,
    not fixed by the equation, although <d+d> tends to ((omega - omega0')^2
    + kappa^2) / (4 omega omega0') as g2 -> 0+ (107.8 at the canonical
    point; the effective temperature of Dalla Torre et al., PRA 87, 023831
    (2013)).  ``m`` is the dynamical matrix at the operating point or a
    (rows, 4, 4) stack of them, resolved from p when omitted.  An M that
    ``fluctuations.stability`` finds unstable (a marginal one passes) and a
    singular equation (omega0' Delta = 0, or a moment past the float range)
    raise ThresholdError; in a stack the first refused row raises as it
    does alone.
    """
    if m is None:
        _, m = _resolve_operating_point(p)
    w, k = p.omega, p.kappa
    g2, off, diag = (-m[..., i, j].imag for i, j in ((C, D), (D, DDAG), (D, D)))
    g1, w0p, s = 0.5 * off, diag - off, w * w + k * k
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        delta = diag + off - 4.0 * g2 * g2 * w / s
        photons = g2 * g2 / (2.0 * w * delta)
        cross = -g2 * complex(w, k) / (4.0 * w * delta)
        shift, detuning = g1 * s - g2 * g2 * w, w - w0p
        free = {(C, C): photons * (complex(w, k) ** 2 / s), (C, CDAG): photons,
                (C, D): cross - g2 / (4.0 * w), (C, DDAG): cross + g2 / (4.0 * w),
                (D, D): -(g1 * w0p * delta + shift) / (2.0 * w * w0p * delta),
                (D, DDAG): ((detuning * detuning + k * k + 2.0 * g1 * w0p) * delta - 2.0 * shift)
                / (4.0 * w * w0p * delta)}
    values = np.empty(m.shape, dtype=complex)
    for (i, j), v in free.items():
        # normal order makes the matrix symmetric; x_i+ sits at index i ^ 1
        values[..., i, j] = values[..., j, i] = v
        values[..., i ^ 1, j ^ 1] = values[..., j ^ 1, i ^ 1] = np.conj(v)
    values[g2 == 0.0] = 0.0
    unstable = stability(m, p.omega0) == "unstable"
    refused = np.flatnonzero(unstable | ~np.isfinite(values).all(axis=(-2, -1)))
    if refused.size and np.ravel(unstable)[refused[0]]:
        raise ThresholdError("fluctuation dynamics is not stable at this point")
    if refused.size:
        raise ThresholdError("moment equation is singular (criticality)")
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


def photon_flux(p: DickeParams, lam=None) -> float | np.ndarray:
    """Detected photon flux 2 kappa (<c+c>_ss + |alpha_ss|^2).

    At p's coupling, or as an array at each coupling of the sorted grid
    ``lam`` at p's bias, from one stack of operating points
    (``_resolve_operating_point``) and one ``steady_moments`` call.  The
    first coupling that fails raises what ``photon_flux`` raises at it alone.
    """
    if lam is None:
        ss, m = _resolve_operating_point(p)
        moments = steady_moments(p, m)
        return 2.0 * p.kappa * (moments.photon_number + abs(ss.alpha) ** 2)
    lam = _sorted_grid(lam)
    try:
        vectors, m = _resolve_operating_point(p, lam)
        photons = steady_moments(p, m).photon_number
    except (ValueError, RuntimeError):
        # a refusal at the threshold guard may follow a moment failure
        for x in lam.tolist():
            photon_flux(p.with_coupling(x))
        raise
    return 2.0 * p.kappa * (photons + np.hypot(vectors[:, 0], vectors[:, 1]) ** 2)


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


def _correlators_frequency(m: np.ndarray, moments: MomentVector, tau: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Contour-integrated frequency-domain solution on the tau grid.

    The regression equation d v/d tau = M v solves in the frequency domain
    as v(nu) = (-i nu I - M)^-1 v0; closing the contour around M's
    eigenvalues mu_k leaves one residue per pole (``_residues``),

        v(tau) = sum_k V[:, k] (V^-1 v0)_k e^{mu_k tau},   M = V diag(mu) V^-1,

    with v0 the steady moments <x_k c> (``_seed``).  Rows c+ and c of v
    are <c+(t+tau) c(t)> and <c(t+tau) c(t)>, sampled at tau_0 + k dtau,
    dtau = (tau[-1] - tau_0) / (n - 1), by ``_expsum.uniform_samples``:
    2 ceil(sqrt(n)) rows of four exponentials, not n.  M has passed
    ``steady_moments``' stability check.
    """
    mu, amp = _residues(m, _seed(moments))
    n = tau.size
    dtau = float(tau[-1] - tau[0]) / (n - 1)
    y = uniform_samples(amp, lambda t: np.exp(np.multiply.outer(t, mu)),
                        float(tau[0]), dtau, n)
    return y[0], y[1]


def _residues(m: np.ndarray, v0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues mu of M and the amplitudes of their exponentials, a row per correlator.

    The residue of (-i nu I - M)^-1 v0 at mu_k is V[:, k] (V^-1 v0)_k; row
    0 holds its c+ entries, of <c+(t+tau) c(t)>, and row 1 its c entries,
    of <c(t+tau) c(t)>.
    """
    mu, v = np.linalg.eig(m)
    return mu, v[[CDAG, C], :] * np.linalg.solve(v, v0)


def _seed(moments: MomentVector) -> np.ndarray:
    """v0_k = <x_k c> for x = (c, c+, d, d+), the tau = 0 data of both correlator routes."""
    return np.array([moments.pair(k, C) for k in range(4)], dtype=complex)


#: largest ||M h||_1 integrated directly by ``_propagator``; longer steps
#: are halved until they fit and the result is squared back
_PROPAGATOR_REACH = 32.0


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

    By repeated squaring: with the first m rows filled and E = step^m, the
    next m rows are those rows times E^T, and E is squared.
    """
    out = np.empty((n, 4), dtype=complex)
    out[0] = v
    power, m = step, 1
    while m < n:
        k = min(m, n - m)
        out[m:m + k] = out[:k] @ power.T
        power = power @ power
        m += k
    return out


def _correlators_regression(m: np.ndarray, moments: MomentVector, tau: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Quantum-regression propagation d v/d tau = M v from the steady moments.

    v_k = <x_k(t+tau) c(t)> for x = (c, c+, d, d+), seeded at tau = 0 by
    the steady moments <x_k c> (``_seed``), carried to the grid's first
    point by exp(M tau_0) and along the uniform grid by the powers of E =
    exp(M dtau) (``_propagator``), which ``_propagate`` forms by repeated
    squaring.  No eigendecomposition is used, so the route checks the
    frequency route's propagation.
    """
    n = tau.size
    first = _propagator(m, float(tau[0])) @ _seed(moments)
    step = _propagator(m, float(tau[-1] - tau[0]) / (n - 1))
    v = _propagate(step, first, n)
    return v[:, CDAG], v[:, C]


def two_time_correlations(p: DickeParams, tau, method: str = "frequency",
                          resolved: tuple[MeanFieldState, np.ndarray] | None = None
                          ) -> CorrelationSeries:
    """Two-time correlators and g1/g2 on a uniform tau grid.

    ``method`` selects the frequency-domain route ("frequency"), the
    quantum-regression route ("regression"), or "both", which computes the
    two and fails loudly if they disagree beyond 1e-6 relative to the
    correlator scale.  Both routes take M and the steady moments' seed
    v0 = <x_k c>, so "both" checks their propagation: M's eigenvectors
    against exp(M dtau) from an ODE run.  ``resolved`` is the operating
    point and dynamical matrix of ``p`` when the caller has them already.
    """
    tau = np.asarray(tau, dtype=float)
    if tau.ndim != 1 or tau.size < 2:
        raise ValueError("tau grid must be a 1-d array with at least 2 points")
    if not np.all(np.isfinite(tau)):
        raise ValueError("tau grid must be finite")
    if tau.min() < 0.0:
        raise ValueError(f"tau grid reaches tau = {tau.min():g} < 0")
    steps = np.diff(tau)
    if steps.min() <= 0.0:
        raise ValueError("tau grid must be strictly increasing")
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("tau grid must be uniform")

    ss, m = resolved if resolved is not None else _resolve_operating_point(p)
    moments = steady_moments(p, m)

    soft_freq = min(np.abs(_eigenvalues(m).imag))
    if soft_freq > 0 and math.pi / float(steps[0]) < 2.0 * soft_freq:
        warnings.warn(
            f"tau grid spacing {steps[0]:.3g} cannot resolve the soft-mode "
            f"oscillation at 2*{soft_freq:.3g}", stacklevel=2)

    routes = {"frequency": _correlators_frequency, "regression": _correlators_regression}
    if method == "both":
        f1, f2 = (route(m, moments, tau) for route in routes.values())
        scale = max(np.max(np.abs(f1[0])), np.max(np.abs(f1[1])))
        err = max(np.max(np.abs(f1[0] - f2[0])), np.max(np.abs(f1[1] - f2[1])))
        if err > 1e-6 * scale:
            raise RuntimeError(
                f"frequency-domain and regression correlators disagree: "
                f"{err:.3e} vs scale {scale:.3e}")
        cdagc_tau, cc_tau = f1
    elif method in routes:
        cdagc_tau, cc_tau = routes[method](m, moments, tau)
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

    A total photon number below 1e-30 raises ValidityError.
    """
    a2 = abs(alpha_ss) ** 2
    total = photon_number + a2
    if total < 1e-30:
        raise ValidityError(f"total photon number {total:.3g} is below 1e-30: g2 not resolved")
    g1 = (np.asarray(cdagc_tau) + a2) / total
    anomalous = np.abs(np.asarray(cc_tau) + alpha_ss ** 2) ** 2 - 2.0 * a2 ** 2
    g2_vals = 1.0 + np.abs(g1) ** 2 + anomalous / total ** 2
    return g1, g2_vals


#: points of ``default_tau_grid``
TAU_POINTS = 2 ** 14


def default_tau_grid(p: DickeParams, m: np.ndarray | None = None) -> np.ndarray:
    """Tau grid of ``TAU_POINTS`` points resolving the oscillation and the decay envelope.

    The span targets 20 decay times of the slowest fluctuation eigenmode
    and is capped so that the sampling stays well above the Nyquist rate
    for the fastest g2 spectral content (~2 omega0).  ``m`` is the
    dynamical matrix at the operating point, resolved when omitted.
    """
    if m is None:
        _, m = _resolve_operating_point(p)
    slow = -float(np.max(_eigenvalues(m).real))
    if slow <= 0:
        raise ThresholdError("the soft mode is undamped to rounding: tau grid undefined")
    span = 20.0 / slow
    span = min(span, TAU_POINTS * math.pi / (8.0 * p.omega0))
    return np.linspace(0.0, span, TAU_POINTS)


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

    def dominant_peak(self, nu_min: float = 0.0) -> SpectralPeak:
        """The highest local maximum above ``nu_min``, at its parabola-refined frequency.

        Of equal maxima the lowest in nu is taken; ValueError if none lies above.
        """
        logmag, nu = self.log_magnitude, self.nu
        maxima = np.flatnonzero((logmag[1:-1] > logmag[:-2])
                                & (logmag[1:-1] > logmag[2:])) + 1
        for i in maxima[np.argsort(-logmag[maxima], kind="stable")]:
            left, center, right = logmag[i - 1], logmag[i], logmag[i + 1]
            denom = left - 2.0 * center + right
            shift = 0.5 * (left - right) / denom if denom != 0 else 0.0
            frequency = float(nu[i] + shift * (nu[1] - nu[0]))
            if frequency > nu_min:
                return SpectralPeak(frequency, float(center))
        raise ValueError(f"no spectral peak above nu = {nu_min}")


def g2_spectrum(series: CorrelationSeries) -> G2Spectrum:
    """Discrete Fourier transform of the mean-subtracted g2 series.

    The long-time mean is estimated from the trailing tenth of the series;
    the series is zero-padded to the next power of two.  Its peaks are
    found on demand (``G2Spectrum.dominant_peak``).
    """
    tau = series.tau
    dt = float(tau[1] - tau[0])
    values = np.asarray(series.g2, dtype=float)
    tail = max(values.size // 10, 1)
    centered = values - values[-tail:].mean()
    n = 1 << (values.size - 1).bit_length()
    spec = np.fft.rfft(centered, n=n)
    nu = 2.0 * math.pi * np.fft.rfftfreq(n, d=dt)
    return G2Spectrum(nu, np.log10(np.abs(spec) + 1e-300))
