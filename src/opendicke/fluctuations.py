"""Linearized fluctuations about a steady state and their spectrum.

Bosonizing the collective spin about a mean-field steady state gives a
quadratic Hamiltonian for the photonic fluctuation c and the atomic
fluctuation d, with a shifted atomic frequency omega0' and couplings g1, g2
that depend on the scaled steady-state amplitudes.  Cavity damping enters
the c rows of the resulting 4x4 dynamical matrix.

Eigenvalues mu of the dynamical matrix are reported as complex frequencies
omega_k = i*mu (dynamics ~ exp(-i omega_k t)), so a positive damping rate
appears as a negative imaginary part, matching the plotted spectra.

In each mode's quadratures x = (a + a^dag)/sqrt(2), p = -i (a - a^dag)/sqrt(2)
M is the real matrix R = T M T^dag (the form of Dimer et al., PRA 75, 013804
(2007)), whose real eigensolve costs half the complex one; ``stability``
and ``spectrum_sweep`` take their eigenvalues from it (``_eigenvalues``),
as do the tau grids of ``correlations``.  The frequency route's residues
project the steady moments onto M's eigenvectors in the c basis, so they
keep the complex M.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .meanfield import (ConvergenceError, MeanFieldState, _continue_branch, _sorted_grid,
                        critical_coupling, superradiant_states, trivial_state)
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

    A damping rate above 1e-12 omega0 is stable, a growth rate above
    max(1e-12 omega0, 0.1 eps max|M|) unstable, with eps the float epsilon,
    and anything between marginal.  Growth must clear the eigensolve's
    rounding, which scales with M's largest entry: at lam = 1e-6 omega0 on
    the canonical operating point the normal phase grows at +1.1e-16
    omega0 from rounding alone, where eps max|M| is 8e-14 omega0; at omega
    = 22.3, kappa = 1.09e7, omega0 = 0.0187 and 0.1 lam_c a 60-digit solve
    of the same M damps at 3.2e-13, and the eigensolve reads growth of
    +1.8e-10 = 0.076 eps max|M| (0.1 is the smallest power of ten above
    that).  A damping is taken as computed: at omega = omega0 = 1e-3 and
    kappa = 1e5 the real form resolves one of 1e-13 = 0.0045 eps max|M|,
    which a band on both sides would call marginal.  A ``(..., 4, 4)``
    stack is classified by one eigenvalue call into an array of labels of
    shape ``(...)``; a single matrix gets a ``str``.  The eigenvalues are
    those of M's real quadrature form (``_eigenvalues``), so M must have
    the structure of a ``dynamical_matrix``, its c^dag and d^dag rows the
    conjugates of its c and d rows; any other matrix raises ValueError.
    """
    growth = _eigenvalues(m).real.max(axis=-1)
    tol = 1e-12 * omega0
    rounding = 0.1 * _EPS * np.abs(m).max(axis=(-2, -1))
    verdict = _VERDICTS[1 + (growth > np.maximum(tol, rounding)).astype(int) - (growth < -tol)]
    return str(verdict) if verdict.ndim == 0 else verdict


#: the float epsilon, the relative rounding of the eigensolve
_EPS = np.finfo(float).eps

#: ``stability``'s labels, indexed by 1 + (growth beyond rounding) - (damping)
_VERDICTS = np.array(["stable", "marginal", "unstable"])


#: the columns (c, c^dag, d, d^dag) in conjugated order (c^dag, c, d^dag, d)
_CONJUGATE = [1, 0, 3, 2]


def _quadrature_terms(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R = T M T^dag's 16 entries, and the 16 (Re, Im) residuals of M's conjugate rows.

    T = diag(t, t), t = [[1, 1], [-i, i]]/sqrt(2), takes each mode's (a,
    a^dag) to its quadratures (x, p).  A 2x2 block [[a, b], [b*, a*]] of M
    gives the block [[Re(a + b), -Im(a - b)], [Im(a + b), Re(a - b)]] of R,
    T's halves cancelled by hand: each entry is one rounding of two of M's
    (a T of 1/sqrt(2) products moves the bare modes).
    """
    # top[..., row mode, column mode, a or b]; r[..., row mode, x or p, column mode, x or p]
    top = m[..., ::2, :].reshape(m.shape[:-2] + (2, 2, 2))
    plus, minus = top[..., 0] + top[..., 1], top[..., 0] - top[..., 1]
    r = np.stack([np.stack([plus.real, -minus.imag], -1),
                  np.stack([plus.imag, minus.real], -1)], -3)
    residual = m[..., 1::2, :] - m[..., ::2, _CONJUGATE].conj()
    return (r.reshape(m.shape[:-2] + (16,)),
            residual.view(float).reshape(m.shape[:-2] + (16,)))


#: ``_quadrature_terms`` as two (32, 16) matrices of 0 and +/-1 on M's 16
#: (Re, Im) pairs, read off at the 32 unit matrices; no output has more than
#: two non-zero terms, so each product rounds as the formula does
_QUADRATURE_FORM, _CONJUGATE_RESIDUALS = _quadrature_terms(
    np.eye(32).view(complex).reshape(32, 4, 4))


def _eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of M, or of each matrix of a (..., 4, 4) stack, as complex.

    A product with ``_CONJUGATE_RESIDUALS`` checks M, one with
    ``_QUADRATURE_FORM`` gives R and one real ``eigvals`` call solves it.  R
    is similar to M only if M's c^dag and d^dag rows are the conjugates of
    its c and d rows, as ``dynamical_matrix`` builds them bit for bit; any
    other finite M raises ValueError (a non-finite one fails in ``eigvals``).
    """
    m = np.asarray(m, dtype=complex)
    parts = m.reshape(m.shape[:-2] + (16,)).view(float)
    if (parts @ _CONJUGATE_RESIDUALS).any() and np.isfinite(m).all():
        raise ValueError("M's c^dag and d^dag rows must be the conjugates of its c and d rows")
    return np.linalg.eigvals((parts @ _QUADRATURE_FORM).reshape(m.shape)).astype(complex, copy=False)


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
    distance sum_b |omega_b - omega_b(previous)| (``_follow``).
    ``_walk_stack`` gives the states (closed forms over the grid at
    lam' = 0, one array solve under a bias), one ``dynamical_matrix`` call
    their stack and one ``_eigenvalues`` call, on the real quadrature
    form, its eigenvalues.  The grid is checked by ``_sorted_grid``, as for
    ``steady_states``.
    """
    lam_grid = _sorted_grid(lam_grid)
    # ramp up from the anchor at lam = 0 in small steps, so that matching by
    # frequency stays unambiguous even when the requested grid starts near lam_c
    approach = np.linspace(0.0, lam_grid[0], 33)[:-1] if lam_grid[0] > 0.0 else []
    work_grid = np.concatenate([approach, lam_grid])
    freqs = 1j * _eigenvalues(_walk_stack(p, work_grid)[2])
    # every row in one order, whichever the eigensolver returns: descending
    # Re, then descending Im; an exact tie in ``_follow`` (a mode pair meeting
    # on the imaginary axis as mirror images) then gives the lower column the
    # mode with the larger Re, then the larger Im
    freqs = np.take_along_axis(freqs, np.lexsort((-freqs.imag, -freqs.real)), axis=-1)
    # anchor: ascending |Re|, then ascending Im, each pair's positive
    # frequency first; the polariton branch starts as the mode closest to the
    # bare atomic frequency +omega0
    anchor = freqs[0]
    freqs[0] = anchor[np.lexsort((anchor.imag, np.abs(anchor.real)))]
    pol_index = int(np.argmin(np.abs(freqs[0] - p.omega0)))
    return TrackedSpectrum(lam_grid, _follow(freqs)[len(approach):], pol_index)


def _walk_stack(p: DickeParams, lam: np.ndarray, lam_prime_over_lam: float | None = None):
    """Row couplings, (rows, 5) state vectors and M stack of the physical branch.

    One row per coupling of the sorted grid ``lam``, with lam' =
    ``lam_prime_over_lam`` * lam if the ratio is given and ``p.lam_prime``
    otherwise, each the per-point ``operating_point`` bit for bit: the
    closed forms where lam' = 0 (the trivial state up to lam_c, the first
    ``superradiant_states`` above), one ``_continue_branch`` call for the
    rest.  The first row that fails alone (a negative coupling, an infinite
    lam', a failed solve) raises what it raises alone, after any failing
    state before it has raised its ``hp_coefficients`` error.
    """
    with np.errstate(over="ignore"):  # an infinite lam' is refused at its row
        lam_prime = (np.full(lam.shape, p.lam_prime) if lam_prime_over_lam is None
                     else lam_prime_over_lam * lam)
    p.with_coupling(float(lam[0]), float(lam_prime[0]))  # refuses a negative coupling
    # |lam'| ascends with lam >= 0, so the infinite rows come last
    stop, failure = int(np.isfinite(lam_prime).sum()), None
    vectors = np.tile(trivial_state(p).as_vector(), (stop, 1))
    zero = lam_prime[:stop] == 0.0
    above = zero & (lam[:stop] > critical_coupling(p))
    if above.any():
        vectors[above] = superradiant_states(p, lam[:stop][above])[0].as_vector().T
    biased = np.flatnonzero(~zero)
    try:
        if biased.size:
            vectors[biased] = _continue_branch(p, lam[biased], lam_prime[biased])
    except ConvergenceError as exc:
        solved = len(exc.state)
        failure, stop = exc, biased[solved]
        vectors[biased[:solved]] = exc.state
    m = dynamical_matrix(hp_coefficients(vectors[:stop], p, lam[:stop], lam_prime[:stop]), p)
    if failure is not None:
        raise failure
    if stop < lam.size:
        p.with_coupling(float(lam[stop]), float(lam_prime[stop]))  # raises
    return lam, vectors, m


_ROWS = np.arange(4)
#: the 24 orderings of the four modes, in lexicographic order
_PERMUTATIONS = np.array(list(itertools.permutations(range(4))))
#: ``_COMPOSE[j][k]`` is the index of the ordering ``_PERMUTATIONS[k][_PERMUTATIONS[j]]``,
#: found by its digits read in base 4, which ascend with the orderings
_COMPOSE = np.searchsorted(_PERMUTATIONS @ 4 ** _ROWS[::-1],
                           _PERMUTATIONS[:, _PERMUTATIONS].transpose(1, 0, 2) @ 4 ** _ROWS[::-1]
                           ).tolist()
#: two best sums of ``_best_permutation`` closer than this (relative) are a near tie
_NEAR_TIE = 1e-14


def _best_permutation(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ordering perm minimizing sum_i cost[..., i, perm[i]], and whether it nearly ties.

    For a (..., 4, 4) stack of non-negative costs, arrays over its leading
    axes: the index in ``_PERMUTATIONS`` of the first ordering with the
    smallest sum, and True where the second-smallest sum is within
    ``_NEAR_TIE`` of it, relative, or the smallest sum is not finite.
    """
    sums = cost[..., _ROWS, _PERMUTATIONS].sum(axis=-1)
    low = np.partition(sums, 1, axis=-1)
    return np.argmin(sums, axis=-1), ~(low[..., 1] - low[..., 0] > _NEAR_TIE * low[..., 0])


def _follow(freqs: np.ndarray) -> np.ndarray:
    """The rows of ``freqs`` reordered so that each follows the row before it.

    Row 0 stays; each later row takes the ``_best_permutation`` of its
    distances to the reordered row before it.  One batched call finds each
    step's best ordering relative to the raw row before, which ``_COMPOSE``
    composes onto that row's ordering.  The batched and the per-step call
    sum the same four non-negative terms in two orders, whose sums differ
    by at most about 6.7e-16 relative, so they pick the same ordering
    wherever the two best sums lie further apart than ``_NEAR_TIE``; a step
    with a near tie is taken by the per-step call, and the result is the
    per-step loop's bit for bit.
    """
    cost = np.abs(freqs[1:, None, :] - freqs[:-1, :, None])
    best, near = _best_permutation(cost)
    k, order = 0, [0]
    for i, (step, tie) in enumerate(zip(best.tolist(), near.tolist())):
        k = int(_best_permutation(cost[i, _PERMUTATIONS[k]])[0]) if tie else _COMPOSE[k][step]
        order.append(k)
    return np.take_along_axis(freqs, _PERMUTATIONS[order], axis=1)
