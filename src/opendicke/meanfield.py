"""Semiclassical dynamics, steady states and the bifurcation structure.

The mean fields are the cavity amplitude alpha = <a>, the atomic coherence
beta = <J-> and the inversion w = <Jz>.  Their equations of motion conserve
the pseudo angular momentum |beta|^2 + w^2 = N^2/4, which is used to
eliminate w (negative root, the physically stable branch) in the steady
states.  For real lam those reduce to one scalar equation in Re beta,
whose physical root ``newton_steady_state`` brackets and solves, at one
coupling or at a whole grid of them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._solvers import solve_ivp
from .params import DickeParams, critical_coupling


class IntegrationError(RuntimeError):
    """Integrator failure; carries the last accepted state for diagnosis."""

    def __init__(self, message: str, t: float | None = None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


class ConvergenceError(RuntimeError):
    """Failed steady-state solve; ``state`` holds a stack's rows solved before it."""

    def __init__(self, message: str, state=None):
        super().__init__(message)
        self.state = state


@dataclass
class MeanFieldState:
    alpha: complex
    beta: complex
    w: float

    def pseudo_momentum(self) -> float:
        """Conserved quantity |beta|^2 + w^2."""
        return abs(self.beta) ** 2 + self.w ** 2

    def as_vector(self) -> np.ndarray:
        return np.array([self.alpha.real, self.alpha.imag,
                         self.beta.real, self.beta.imag, self.w])

    @classmethod
    def from_vector(cls, y) -> "MeanFieldState":
        return cls(complex(y[0], y[1]), complex(y[2], y[3]), float(y[4]))


@dataclass
class SteadyStateBranch:
    """Steady states along a coupling grid with stability flags, one row per state.

    Row i is the state vector ``vectors[i]`` (``MeanFieldState.as_vector``)
    at the coupling ``lam[i]``, flagged ``flags[i]`` "stable", "unstable"
    or "marginal"; the rows follow the grid.
    """

    lam: np.ndarray
    vectors: np.ndarray
    flags: np.ndarray


def _couplings(p: DickeParams) -> tuple[float, float, float]:
    """The coupling arguments of ``_rhs_vector``: lam/sqrt(N), lam'/sqrt(N), N/2."""
    rn = math.sqrt(p.atom_number)
    return p.lam / rn, p.lam_prime / rn, p.atom_number / 2.0


def _rhs_vector(t, y, p: DickeParams, k_l: float, k_lp: float, half_n: float):
    """Mean-field equations of motion on the real vector (Re a, Im a, Re b, Im b, w).

    d alpha/dt = -(kappa + i omega) alpha - i k_l (beta + beta*) - i k_lp (half_n - w)
    d beta/dt  = -i omega0 beta + 2 i k_l (alpha + alpha*) w + i k_lp beta (alpha + alpha*)
    d w/dt     = i k_l (alpha + alpha*) (beta - beta*)

    with k_l = lam/sqrt(N), k_lp = lam'/sqrt(N), half_n = N/2 (``_couplings``),
    or lam, lam', 1/2 for the per-atom fields alpha/sqrt(N), beta/N, w/N.
    """
    ar, ai, br, bi, w = y
    a2re = 2.0 * ar
    b2im = 2.0 * bi
    d_ar = -p.kappa * ar + p.omega * ai
    d_ai = -p.kappa * ai - p.omega * ar - k_l * 2.0 * br - k_lp * (half_n - w)
    d_br = p.omega0 * bi - k_lp * bi * a2re
    d_bi = -p.omega0 * br + 2.0 * k_l * a2re * w + k_lp * br * a2re
    d_w = -k_l * a2re * b2im
    return [d_ar, d_ai, d_br, d_bi, d_w]


class Trajectory(NamedTuple):
    """Sample times ``t`` and the solver's (5, len(t)) samples ``y`` of a run.

    Rows (Re alpha, Im alpha, Re beta, Im beta, w): absolute from ``integrate``,
    per atom (alpha/sqrt(N), beta/N, w/N) from ``modulation.driven_trajectory``.
    """

    t: np.ndarray
    y: np.ndarray


#: most right-hand-side evaluations one integration may spend, read when it
#: starts: 15 to 30 s of RK45 on one shared Xeon core (1.4 to 1.7 s per 1e6).
#: ``_solvers.solve_ivp`` leaves the step counts of LSODA and RK45
#: unlimited, so for them this is the only work limit.  RK45's ``dopri5``
#: does not stop for the IntegrationError raised past it; it is given NaN
#: from then on, steps down within a few thousand more calls, and the
#: error is raised once it has returned.  At the defaults an ``evolve`` run
#: needs 9e4 to 1.0e5, an integrated response-map cell 5e4 to 1.3e5 and a
#: driven time series 1.8e5
MAX_RHS_EVALS = 10 ** 7


def _bounded(fun, *args):
    """``fun(t, y.tolist(), *args)``, raising IntegrationError past ``MAX_RHS_EVALS`` calls.

    Python floats round as numpy's float64 scalars do, at under half the cost per call.
    """
    evals = itertools.count(1)
    limit = MAX_RHS_EVALS

    def rhs(t, y):
        if next(evals) > limit:
            raise IntegrationError(f"integration stopped after {limit} "
                                   "right-hand-side evaluations")
        return fun(t, y.tolist(), *args)
    return rhs


def integrate(state0: MeanFieldState, p: DickeParams, t_span, t_eval,
              rtol: float = 1e-10, method: str = "RK45") -> Trajectory:
    """Adaptive integration of the mean-field equations at fixed coupling.

    Returns the solver's samples at the output times ``t_eval`` as they are
    (``Trajectory``).  RK45 runs through ``dopri5`` (``_solvers.solve_ivp``).
    Raises IntegrationError when the solver gives up, as on step-size
    underflow, reporting the last output sample reached (the initial state
    if none was reached, and always for LSODA, whose failed runs return no
    samples); and once ``MAX_RHS_EVALS`` evaluations are spent: the cost
    grows with the span and with the precession rate, which a large initial
    field makes arbitrarily fast.  A bad rtol, and a non-finite span or bad
    output times (refused by ``_solvers.solve_ivp``), raise ValueError
    before the solver starts.
    """
    if not rtol > 0:  # NaN included
        raise ValueError("rtol must be positive")
    scale = max(1.0, math.sqrt(p.atom_number))
    sol = solve_ivp(_bounded(_rhs_vector, p, *_couplings(p)), t_span,
                    state0.as_vector(), method=method,
                    rtol=rtol, atol=rtol * scale * 1e-2, t_eval=t_eval)
    if not sol.success:
        last = MeanFieldState.from_vector(sol.y[:, -1]) if sol.y.size else state0
        raise IntegrationError(f"integration failed: {sol.message}",
                               t=float(sol.t[-1]) if sol.t.size else None,
                               state=last)
    return Trajectory(sol.t, sol.y)


def trivial_state(p: DickeParams) -> MeanFieldState:
    return MeanFieldState(0j, 0j, -p.atom_number / 2.0)


def superradiant_states(p: DickeParams, lam=None) -> tuple[MeanFieldState, MeanFieldState]:
    """Closed-form symmetry-broken steady states (lam' = 0, lam > lam_c).

    At p's coupling, or with array fields at each of an array of couplings
    ``lam``.  Either is the Python-float arithmetic bit for bit: powers go
    through ``math.pow`` or ``np.float_power`` (which round as float ``**``
    does), and alpha's quotient takes CPython's complex-division steps.
    """
    lc = critical_coupling(p)
    lams = p.lam if lam is None else np.asarray(lam, dtype=float)
    if np.asarray(lams <= lc).any():
        raise ValueError(f"no symmetry-broken solutions below lam_c = {lc}")
    # math for one point, whose fields are then Python numbers
    sqrt, power = (math.sqrt, math.pow) if lam is None else (np.sqrt, np.float_power)
    n, om, k = p.atom_number, p.omega, p.kappa
    root = sqrt(1.0 - power(lc / lams, 4))
    x = math.sqrt(n) * lams
    if om >= k:  # alpha = x / (omega - i kappa) * root, divided in CPython's steps
        ratio = -k / om
        re, im, denom = x, -x * ratio, om + -k * ratio
    else:
        ratio = om / -k
        re, im, denom = x * ratio, -x, om * ratio + -k
    alpha = re / denom * root + 1j * (im / denom * root)
    beta = -n / 2.0 * root
    w = -n / 2.0 * power(lc / lams, 2)
    return MeanFieldState(alpha, beta, w), MeanFieldState(-alpha, -beta, w)


def _w_from_beta(beta, n: float):
    # negative root of the conservation constraint (float_power rounds as float ** does)
    return -np.sqrt(np.maximum(n * n / 4.0 - np.float_power(abs(beta), 2), 0.0))


def _stationary(b: float, p: DickeParams, k_l: float, k_lp: float, half_n: float):
    """State with real beta = b at which every equation but d Im beta/dt vanishes.

    Im beta = 0 and w = ``_w_from_beta(b, N)``; d Re alpha/dt = 0 gives
    Im alpha = kappa Re alpha / omega and d Im alpha/dt = 0 gives
    Re alpha = -omega (2 k_l b + k_lp (half_n - w)) / (omega^2 + kappa^2).
    """
    w = _w_from_beta(b, 2.0 * half_n)
    ar = -p.omega * (2.0 * k_l * b + k_lp * (half_n - w)) / (p.omega ** 2 + p.kappa ** 2)
    return ar, p.kappa * ar / p.omega, b, 0.0, w


def _slope(y, p: DickeParams, k_l: float, k_lp: float) -> float:
    """dg/db at y = ``_stationary(b)``, where g = -omega0 b + 2 Re alpha (2 k_l w + k_lp b)."""
    ar, _, b, _, w = y
    dw = np.where(w != 0.0, -b / w, np.inf)
    dar = -p.omega * (2.0 * k_l - k_lp * dw) / (p.omega ** 2 + p.kappa ** 2)
    return -p.omega0 + 2.0 * dar * (2.0 * k_l * w + k_lp * b) + 2.0 * ar * (2.0 * k_l * dw + k_lp)


def newton_steady_state(p: DickeParams, seed: MeanFieldState | np.ndarray,
                        lam=None, lam_prime=None) -> MeanFieldState | np.ndarray:
    """Steady state on the half-disc of the seed from one bracketed scalar equation.

    At ``_stationary(b)`` only g(b) = d Im beta/dt is left to vanish.  On
    the half with Re beta of the sign of lam' (either half for lam' = 0),
    g has that sign next to b = 0 and the opposite sign at b = +-N/2, so
    the root is bracketed.  Newton on g with its analytic derivative starts
    at the seed's Re beta and bisects the bracket whenever a step would
    leave it, or is above 1e-13 N and not half the step before; it stops
    at a step below 1e-13 N.  The seed's Re beta picks the half (lam''s
    half when it is zero); the other half, where g need not change sign,
    is refused.  A (rows, 5) stack of seed vectors at the couplings ``lam``
    and biases ``lam_prime`` (p's where not given) gives the stack of
    roots, each row its one-row solve bit for bit.  The first row where g
    or its slope is not finite, or not converged in 200 steps, raises
    ConvergenceError naming its coupling, the rows before it as ``state``.
    """
    one = isinstance(seed, MeanFieldState)
    seed = np.reshape(seed.as_vector() if one else seed, (-1, 5))
    rows, n = len(seed), p.atom_number
    lam, lam_prime = (np.broadcast_to(v, rows).astype(float) for v in (
        p.lam if lam is None else lam, p.lam_prime if lam_prime is None else lam_prime))
    if (np.hypot(seed[:, 2], seed[:, 3]) >= 0.5 * n).any():
        raise ConvergenceError(f"the seed must lie inside |beta| < N/2 = {0.5 * n}")
    b = seed[:, 2]
    side = np.copysign(1.0, np.where(b != 0.0, b, lam_prime))
    against = side * lam_prime < 0
    if against.any():
        raise ConvergenceError(f"the seed's Re beta is against the sign of lam' = "
                               f"{lam_prime[against.argmax()]}, on the half-disc with no bracket")
    rn, half_n, tol = math.sqrt(n), n / 2.0, 1e-13 * n
    solved, first, message = b.copy(), rows, ""
    # the rows still solving: their index, couplings, bracket and last step;
    # on either half g > 0 at lo and g < 0 at hi
    at, k_l, k_lp = np.arange(rows), lam / rn, lam_prime / rn
    lo, hi = np.minimum(0.0, side * 0.5 * n), np.maximum(0.0, side * 0.5 * n)
    step = np.full(rows, np.inf)
    with np.errstate(all="ignore"):
        for _ in range(200):
            y = _stationary(b, p, k_l, k_lp, half_n)
            g = _rhs_vector(0.0, y, p, k_l, k_lp, half_n)[3]
            dg = _slope(y, p, k_l, k_lp)
            zero = g == 0.0
            bad = ~(np.isfinite(g) & (zero | np.isfinite(dg)))
            if bad.any():  # no later row matters
                first = at[bad.argmax()]
                message = f"the steady-state equation is not finite at lam = {lam[first]}"
            lo, hi = np.where(g > 0, b, lo), np.where(g > 0, hi, b)
            last, step = step, np.where(dg != 0.0, -g / dg, np.inf)
            land = b + step
            newton = (lo <= land) & (land <= hi) & ((abs(step) <= tol) | (
                (lo < land) & (land < hi) & (abs(step) <= 0.5 * abs(last))))
            step = np.where(newton, step, 0.5 * (lo + hi) - b)
            b = np.where(zero, b, b + step)
            done = zero | (abs(step) <= tol)
            solved[at[done]] = b[done]
            keep = ~done & (at < first)
            at, b, lo, hi, step, k_l, k_lp = (
                v[keep] for v in (at, b, lo, hi, step, k_l, k_lp))
            if not at.size:
                break
        else:
            first = at[0]
            message = f"bracketed solve did not converge at lam = {lam[first]}"
        vectors = np.column_stack(np.broadcast_arrays(
            *_stationary(solved, p, lam / rn, lam_prime / rn, half_n)))
    vectors = vectors[:first]
    if message:
        raise ConvergenceError(message, state=vectors)
    return MeanFieldState.from_vector(vectors[0]) if one else vectors


def operating_point(p: DickeParams) -> MeanFieldState:
    """Physical steady state at the coupling and bias of ``p``.

    For lam' = 0 it is the closed form: the trivial state up to lam_c and
    the first of the symmetry-broken pair above.  Otherwise it is the root
    whose Re beta has the sign of lam' (the branch rule), which
    ``newton_steady_state`` brackets on that half-disc; its solve starts
    at b = 0 for every coupling.
    """
    if p.lam_prime == 0.0:
        return superradiant_states(p)[0] if p.lam > critical_coupling(p) else trivial_state(p)
    return newton_steady_state(p, trivial_state(p))


def _sorted_grid(lam_grid) -> np.ndarray:
    """``lam_grid`` as a float array; ValueError unless non-empty, finite and ascending.

    NaN passes the ascending test, and the sweeps would otherwise fail
    later, inside an eigensolve or a validity check.
    """
    lam_grid = np.asarray(lam_grid, dtype=float)
    if lam_grid.size == 0:
        raise ValueError("empty coupling grid")
    if not np.all(np.isfinite(lam_grid)):
        raise ValueError("coupling grid must be finite")
    if np.any(np.diff(lam_grid) < 0):
        raise ValueError("coupling grid must be sorted ascending")
    return lam_grid


def steady_states(p: DickeParams, lam_grid, lam_prime_over_lam: float | None = None
                  ) -> SteadyStateBranch:
    """Steady states over a sorted coupling grid, one row per state.

    With lam' = 0 and no ``lam_prime_over_lam`` every coupling has the
    trivial state and above threshold the closed-form symmetry-broken pair
    after it, built as arrays over the grid.  Otherwise every coupling has
    its operating point (``fluctuations._walk_stack``), whose Re beta has
    the sign of lam' where lam' != 0.  If ``lam_prime_over_lam`` is given, the
    bias scales with the coupling (both are proportional to the pump
    strength for a fixed geometry).  One ``fluctuations.dynamical_matrix``
    call builds the stack of matrices, and one ``stability`` call flags it.
    """
    lam_grid = _sorted_grid(lam_grid)

    # local import: fluctuations builds on the steady states defined here
    from .fluctuations import _walk_stack, dynamical_matrix, hp_coefficients, stability

    if p.lam_prime == 0.0 and lam_prime_over_lam is None:
        p.with_coupling(float(lam_grid[0]))  # refuses a negative coupling
        above = np.flatnonzero(lam_grid > critical_coupling(p))
        at = np.concatenate([np.arange(lam_grid.size), above, above])
        order = np.argsort(at, kind="stable")
        lam = lam_grid[at[order]]
        trivial = np.broadcast_to(trivial_state(p).as_vector(), (lam_grid.size, 5))
        pair = [st.as_vector().T for st in superradiant_states(p, lam_grid[above])]
        vectors = np.concatenate([trivial, *pair])[order]
        m = dynamical_matrix(hp_coefficients(vectors, p, lam), p)
    else:
        lam, vectors, m = _walk_stack(p, lam_grid, lam_prime_over_lam)
    return SteadyStateBranch(lam, vectors, stability(m, p.omega0))


def _continue_branch(p: DickeParams, lam: np.ndarray, lam_prime: np.ndarray) -> np.ndarray:
    """State vectors of the physical branch at the couplings ``lam`` and biases ``lam_prime``.

    One ``newton_steady_state`` call, each row started at b = 0 and so the
    ``operating_point`` of its coupling and bias bit for bit.
    """
    seed = np.broadcast_to(trivial_state(p).as_vector(), (len(lam), 5))
    return newton_steady_state(p, seed, lam, lam_prime)
