"""Linearized fluctuations about a steady state and their spectrum.

Bosonizing the collective spin about a mean-field steady state gives a
quadratic Hamiltonian for the photonic fluctuation c and the atomic
fluctuation d, with a shifted atomic frequency omega0' and couplings g1, g2
that depend on the scaled steady-state amplitudes.  Cavity damping enters
the c rows of the resulting 4x4 dynamical matrix.

Eigenvalues mu of the dynamical matrix are reported as complex frequencies
omega_k = i*mu (dynamics ~ exp(-i omega_k t)), so a positive damping rate
appears as a negative imaginary part, matching the plotted spectra.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .meanfield import MeanFieldState, _sorted_grid, branch_walk, critical_coupling
from .params import DickeParams


class ValidityError(ValueError):
    """Inputs outside the validity region of an expansion or formula."""


@dataclass(frozen=True)
class HPCoefficients:
    """Coefficients of the quadratic fluctuation Hamiltonian.

    omega0_prime : shifted atomic frequency
    g1           : atomic self-coupling (d + d^dag)^2 term
    g2           : light-matter coupling (c + c^dag)(d + d^dag) term
    alpha_tilde  : alpha_ss / sqrt(N)
    beta_tilde   : scaled displacement of the atomic mode; equals
                   beta_ss/N to leading order in the order parameter
    """

    omega0_prime: float
    g1: float
    g2: float
    alpha_tilde: complex
    beta_tilde: float


def hp_coefficients(ss: MeanFieldState | np.ndarray, p: DickeParams,
                    lam=None, lam_prime=None) -> HPCoefficients:
    """Expansion coefficients about a steady state, or about each row of a stack.

    ``ss`` is a state at ``p``, or a (rows, 5) array of state vectors
    (``MeanFieldState.as_vector``) at the couplings ``lam`` and biases
    ``lam_prime`` (arrays over the rows or one value; p's where not
    given), which gives arrays over the rows.  The atomic mode is
    displaced by the scaled bosonic amplitude s with s*sqrt(1 - s^2) =
    beta_ss/N, equivalently s^2 = 1/2 + w_ss/N, which reduces to beta_ss/N
    for weak order.  Using the displacement rather than beta_ss/N itself
    keeps the linearized spectrum consistent with the mean-field
    linearization on the whole symmetry-broken branch.  Requires |beta_ss/N|
    < 1/2 strictly (validity of the bosonization); the first failing row
    raises its first failing check.
    """
    ar, ai, br, bi, w = ss.as_vector() if isinstance(ss, MeanFieldState) else ss.T
    lam = p.lam if lam is None else lam
    lam_prime = p.lam_prime if lam_prime is None else lam_prime
    n = p.atom_number
    re_a = ar / math.sqrt(n)
    b, b_im = br / n, bi / n
    pop = 0.5 + w / n
    # a row with pop >= 1/2 fails; the clip keeps 1 - bt^2 positive there
    bt = np.copysign(np.sqrt(pop.clip(0.0, 0.5)), b)
    residual = abs(bt * np.sqrt(1.0 - bt * bt) - b)
    checks = (abs(b_im) > 1e-9 * (1.0 + np.hypot(b, b_im)), abs(b) >= 0.5,
              pop >= 0.5, residual > 1e-6 * (1.0 + abs(bt)))
    if (checks[0] | checks[1] | checks[2] | checks[3]).any():
        # the first True in (row, check) order: the four checks of each row in turn
        row, check = divmod(int(np.column_stack(checks).argmax()), 4)
        im, mod, res = (float(np.ravel(v)[row]) for v in (b_im, abs(b), residual))
        raise ValidityError((
            f"beta_ss must be real at a steady state, got Im = {im:.3e}",
            f"|beta_ss|/N = {mod} >= 1/2 is outside validity",
            "excited-mode population >= N/2 is outside validity",
            f"state is off the conservation manifold (residual {res:.3e})")[check])
    s = np.sqrt(1.0 - bt * bt)
    omega0_prime = p.omega0 - 2.0 * lam * bt / s * re_a
    # np.float_power rounds as float ** does; array ** need not
    g1 = -lam * bt * (2.0 - bt * bt) / (2.0 * np.float_power(s, 3)) * re_a
    g2 = lam * (1.0 - 2.0 * bt * bt) / s - lam_prime * bt
    return HPCoefficients(omega0_prime, g1, g2, re_a + 1j * (ai / math.sqrt(n)), bt)


def dynamical_matrix(c: HPCoefficients, p: DickeParams) -> np.ndarray:
    """Generator M of d/dt (c, c^dag, d, d^dag) = M (c, c^dag, d, d^dag).

    dc/dt = -(i omega + kappa) c - i g2 (d + d^dag)
    dd/dt = -i omega0' d - 2 i g1 (d + d^dag) - i g2 (c + c^dag)
    plus the conjugate rows; the trace is -2 kappa for any parameters.
    A stack's coefficients give the (rows, 4, 4) stack of matrices.
    """
    w, k = p.omega, p.kappa
    w0p, g1, g2 = c.omega0_prime, c.g1, c.g2
    m = np.zeros(np.shape(g2) + (4, 4), dtype=complex)
    m[..., 0, 0], m[..., 1, 1] = -(1j * w + k), 1j * w - k
    m[..., 0, 2] = m[..., 0, 3] = m[..., 2, 0] = m[..., 2, 1] = -1j * g2
    m[..., 1, 2] = m[..., 1, 3] = m[..., 3, 0] = m[..., 3, 1] = 1j * g2
    m[..., 2, 2], m[..., 2, 3] = -1j * w0p - 2j * g1, -2j * g1
    m[..., 3, 2], m[..., 3, 3] = 2j * g1, 1j * w0p + 2j * g1
    return m


def stability(m: np.ndarray, omega0: float) -> str | np.ndarray:
    """"stable", "unstable" or "marginal" by the largest growth rate Re mu of M.

    A growth rate within 1e-12 omega0 of zero is marginal: at lam = 1e-6
    omega0 on the canonical operating point the normal phase grows at
    +1.1e-16 omega0 from rounding alone.  A ``(..., 4, 4)`` stack is
    classified by one eigenvalue call into an array of labels of shape
    ``(...)``; a single matrix gets a ``str``.
    """
    growth = np.linalg.eigvals(m).real.max(axis=-1)
    tol = 1e-12 * omega0
    verdict = np.where(growth < -tol, "stable",
                       np.where(growth > tol, "unstable", "marginal"))
    return str(verdict) if verdict.ndim == 0 else verdict


@dataclass
class TrackedSpectrum:
    """Branch-tracked eigenfrequencies along a coupling sweep.

    ``frequencies[i, b]`` is branch b at ``lam_grid[i]``; branch labels are
    continuous in lam (matched by frequency continuity).  ``polariton_index``
    labels the branch connected to +omega0 at lam = 0.
    """

    lam_grid: np.ndarray
    frequencies: np.ndarray
    polariton_index: int

    def polariton(self) -> np.ndarray:
        return self.frequencies[:, self.polariton_index]


def spectrum_sweep(p: DickeParams, lam_grid) -> TrackedSpectrum:
    """Eigenfrequency branches over a coupling sweep with continuity labels.

    The sweep is anchored at lam = 0, where the four modes are the bare
    cavity pair omega - i kappa, -omega - i kappa and the bare atomic pair
    +/- omega0; at every later grid point the modes are ordered to follow
    their frequencies at the previous point, with the smallest total
    distance sum_b |omega_b - omega_b(previous)|.  ``branch_walk`` gives
    the states for every bias, one ``dynamical_matrix`` call their stack and
    one ``eigvals`` call its eigenvalues, before the matching runs over them.
    The grid is checked by ``_sorted_grid``, as for ``steady_states``.
    """
    lam_grid = _sorted_grid(lam_grid)
    # ramp up from the anchor at lam = 0 in small steps, so that matching by
    # frequency stays unambiguous even when the requested grid starts near lam_c
    approach = np.linspace(0.0, lam_grid[0], 33)[:-1] if lam_grid[0] > 0.0 else []
    work_grid = np.concatenate([approach, lam_grid])
    freqs_out = 1j * np.linalg.eigvals(_walk_stack(p, work_grid.tolist())[2])
    # anchor: order deterministically; the polariton branch starts as the
    # mode closest to the bare atomic frequency +omega0
    anchor = freqs_out[0]
    freqs_out[0] = anchor[np.lexsort((anchor.imag, np.abs(anchor.real)))]
    pol_index = int(np.argmin(np.abs(freqs_out[0] - p.omega0)))
    for i in range(1, work_grid.size):
        freqs, prev = freqs_out[i], freqs_out[i - 1]
        freqs_out[i] = freqs[_best_permutation(np.abs(freqs[None, :] - prev[:, None]))]
    return TrackedSpectrum(lam_grid, freqs_out[len(approach):], pol_index)


def _walk_stack(p: DickeParams, lams: list, lam_prime_over_lam: float | None = None):
    """Row couplings, (rows, 5) state vectors and M stack along ``branch_walk``."""
    rows = []
    try:
        for q, st in branch_walk(p, lams, lam_prime_over_lam):
            rows.append((q.lam, q.lam_prime, st.alpha.real, st.alpha.imag,
                         st.beta.real, st.beta.imag, st.w))
    finally:  # where the walk fails, a failing state before that point raises first
        rows = np.reshape(rows, (-1, 7))
        m = dynamical_matrix(hp_coefficients(rows[:, 2:], p, rows[:, 0], rows[:, 1]), p)
    return rows[:, 0], rows[:, 2:], m


_ROWS = np.arange(4)
#: the 24 orderings of the four modes, in lexicographic order
_PERMUTATIONS = np.array(list(itertools.permutations(range(4))))


def _best_permutation(cost: np.ndarray) -> np.ndarray:
    """The ordering perm minimizing sum_i cost[i, perm[i]] of a 4x4 cost matrix."""
    return _PERMUTATIONS[np.argmin(cost[_ROWS, _PERMUTATIONS].sum(axis=1))]


def soft_mode_perturbative(p: DickeParams, lam: float) -> complex:
    """Dispersive-regime approximation of the soft polaritonic frequency.

    omega_ex = omega0 sqrt(1 - r) (1 + eps r / 2) - i kappa omega0^2 r /
    (omega^2 + kappa^2), with r = (lam/lam_c)^2 and eps = omega0^2 /
    (omega^2 + kappa^2).  Valid below the overdamped region and for
    eps < 1e-2.
    """
    eps = p.omega0 ** 2 / (p.omega ** 2 + p.kappa ** 2)
    if eps >= 1e-2:
        raise ValidityError(f"dispersive-regime check failed: eps = {eps:.3e} >= 1e-2")
    window = overdamped_window(p)
    if lam >= window.lam1:
        raise ValidityError(
            f"lam = {lam} is inside or above the overdamped region "
            f"starting at lam1 = {window.lam1}")
    r = (lam / critical_coupling(p)) ** 2
    re = p.omega0 * math.sqrt(1.0 - r) * (1.0 + 0.5 * eps * r)
    im = -p.kappa * p.omega0 ** 2 / (p.omega ** 2 + p.kappa ** 2) * r
    return complex(re, im)


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
