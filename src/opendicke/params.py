"""Parameter types and the physical-system -> two-mode model mapping.

A laser-driven condensate of length D sits inside a cavity of length L,
displaced by d from the symmetric position.  Keeping the uniform trap mode
and the single excited trap mode with wave vector closest to the cavity
wave vector G reduces the system to a two-mode collective-spin model with
cavity frequency ``omega``, atomic frequency ``omega0``, coupling ``lam``
and a bias ``lam_prime`` generated by the trap displacement.

Internally all routines are unit-agnostic; the canonical choice used by the
figure pipeline is frequencies in units of omega0 and lengths in units of
the pump wavelength 2*pi/G.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from ._solvers import quad

QUAD_RTOL = 1e-10

#: largest magnitude of an input number or a mapped model parameter: the
#: closed forms square and multiply parameters in Python floats, whose ``**``
#: raises OverflowError past about 1e154, so products of several must stay finite
MAX_MAGNITUDE = 1e30

#: |trap_displacement| must stay below this fraction of the condensate length
MAX_DISPLACEMENT_FRACTION = 0.1


class ParameterError(ValueError):
    """Raised when parameters violate a documented validity condition."""


@dataclass(frozen=True)
class DickeParams:
    """Open two-mode collective-spin model parameters.

    Attributes
    ----------
    omega : float
        Cavity frequency in the frame rotating at the pump frequency
        (includes the collective dispersive shift).
    omega0 : float
        Atomic excitation frequency (recoil frequency of the scattering
        process).
    lam : float
        Collective light-matter coupling, >= 0.
    lam_prime : float
        Symmetry-breaking bias field from asymmetric trap placement.
        Either sign; zero for a symmetric trap.
    kappa : float
        Cavity field decay rate.
    atom_number : float
        Number of atoms N.

    Every field must be finite, and ``critical_coupling`` finite and positive.
    """

    omega: float
    omega0: float
    lam: float
    lam_prime: float
    kappa: float
    atom_number: float

    def __post_init__(self) -> None:
        if not self.omega > 0:
            raise ParameterError(f"omega must be positive, got {self.omega}")
        if not self.omega0 > 0:
            raise ParameterError(f"omega0 must be positive, got {self.omega0}")
        if not self.kappa >= 0:
            raise ParameterError(f"kappa must be >= 0, got {self.kappa}")
        if not self.lam >= 0:
            raise ParameterError(f"lam must be >= 0, got {self.lam}")
        if not self.atom_number >= 1:
            raise ParameterError(f"atom_number must be >= 1, got {self.atom_number}")
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ParameterError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        try:  # omega^2 + kappa^2 may underflow to 0, omega0/omega overflow
            lam_c = critical_coupling(self)
        except OverflowError:  # a square past the float range
            lam_c = math.inf
        if not 0.0 < lam_c < math.inf:
            raise ParameterError(f"omega = {self.omega}, kappa = {self.kappa} and omega0 = "
                                 f"{self.omega0} give no finite, positive lam_c ({lam_c})")

    def with_coupling(self, lam: float, lam_prime: float | None = None) -> "DickeParams":
        return DickeParams(self.omega, self.omega0, lam,
                           self.lam_prime if lam_prime is None else lam_prime,
                           self.kappa, self.atom_number)


def critical_coupling(p: DickeParams) -> float:
    """Coupling at which the normal phase loses stability.

    lam_c = (1/2) sqrt((omega0/omega) (kappa^2 + omega^2)); for kappa = 0
    this reduces to the closed-system value (1/2) sqrt(omega*omega0).
    """
    return 0.5 * math.sqrt((p.omega0 / p.omega) * (p.kappa ** 2 + p.omega ** 2))


@dataclass(frozen=True)
class PhysicalParams:
    """Physical description of the driven condensate-cavity system.

    Frequencies are angular and hbar = 1 unless ``hbar`` is set; lengths and
    the wave vector share one length unit.  ``dispersive_shift`` is
    U0 = g0^2/Delta_a and ``pump_coupling`` is eta = Omega_p*g0/Delta_a.
    The cavity linewidth is carried through to the mapped model unchanged.
    Every field must be finite and at most ``MAX_MAGNITUDE`` in magnitude.
    """

    pump_cavity_detuning: float        # Delta_c
    dispersive_shift: float            # U0
    pump_coupling: float               # eta
    atom_number: int
    condensate_length: float           # D
    cavity_length: float               # L
    trap_displacement: float           # d
    cavity_wavevector: float           # G
    atom_mass: float
    kappa: float
    hbar: float = 1.0

    def __post_init__(self) -> None:
        # past MAX_MAGNITUDE the mapping's ``round(G*D/pi)`` and ``G ** 2``
        # raise OverflowError, and an infinite length maps to lam = lam' = 0
        for f in fields(self):
            value = getattr(self, f.name)
            if not abs(value) <= MAX_MAGNITUDE:  # NaN included
                raise ParameterError(f"{f.name} must be finite and at most "
                                     f"{MAX_MAGNITUDE:g} in magnitude, got {value}")
        # lam = sqrt(N/D) eta times a non-negative overlap, so lam >= 0 needs eta >= 0
        if not self.pump_coupling >= 0:
            raise ParameterError(f"pump_coupling must be >= 0, got {self.pump_coupling}")
        if not self.hbar > 0:
            raise ParameterError(f"hbar must be positive, got {self.hbar}")
        if not self.atom_number >= 1:
            raise ParameterError("atom_number must be >= 1")
        if not self.condensate_length > 0:
            raise ParameterError("condensate_length must be positive")
        if not self.cavity_length >= self.condensate_length:
            raise ParameterError("cavity_length must be >= condensate_length")
        if not self.cavity_wavevector > 0:
            raise ParameterError("cavity_wavevector must be positive")
        if not self.atom_mass > 0:
            raise ParameterError("atom_mass must be positive")
        if not self.kappa >= 0:
            raise ParameterError("kappa must be >= 0")
        limit = MAX_DISPLACEMENT_FRACTION * self.condensate_length
        if not abs(self.trap_displacement) < limit:
            raise ParameterError(
                f"|trap_displacement| = {abs(self.trap_displacement)} exceeds "
                f"{MAX_DISPLACEMENT_FRACTION} * condensate_length = {limit}")

    @property
    def support(self) -> tuple[float, float]:
        """Trap support [x_left, x_right], the whole trap rigidly shifted by d."""
        x0 = 0.5 * (self.cavity_length - self.condensate_length)
        return (x0 + self.trap_displacement,
                x0 + self.condensate_length + self.trap_displacement)


@dataclass(frozen=True)
class ModeFunctions:
    """Condensate trap modes and the cavity mode on the trap support.

    The uniform ground mode is 1/sqrt(D).  The excited mode is the Neumann
    box mode sqrt(2/D)*cos(k_n (x - x_left)) whose wave vector k_n = pi*n/D,
    n = round(G*D/pi), is closest to the cavity wave vector.  ``orientation``
    fixes the sign convention of the excited mode so that its overlap with
    the cavity mode is non-negative.

    Each mode takes a float, as ``quad`` passes it, or an ndarray, as
    ``density_profile`` builds it, and returns a float for a float and an
    array for an array; no input is converted, so a list is not accepted.
    A float gives the same bits as a one-element array holding it.
    """

    x_left: float
    x_right: float
    mode_index: int
    k_n: float
    condensate_length: float
    cavity_length: float
    cavity_wavevector: float
    orientation: float = 1.0

    def ground(self, x):
        # 0 * x keeps x's shape: a float for a float, an array for an array
        return 0.0 * x + 1.0 / math.sqrt(self.condensate_length)

    def excited(self, x):
        return (self.orientation * math.sqrt(2.0 / self.condensate_length)
                * np.cos(self.k_n * (x - self.x_left)))

    def cavity(self, x):
        return np.sin(self.cavity_wavevector * x) / math.sqrt(self.cavity_length)


def mode_functions(p: PhysicalParams) -> ModeFunctions:
    return _oriented_modes(p)[0]


@functools.lru_cache(maxsize=16)
def _oriented_modes(p: PhysicalParams) -> tuple[ModeFunctions, float]:
    """The mode functions and the non-negative overlap of cavity and excited mode.

    Cached: both types are frozen, and a figure maps and profiles one
    system several times, each time paying a ``quad`` for the overlap.
    fig5, which maps two geometries and profiles one of them twice, builds
    its tables in 14.5 ms of CPU with the cache cold and in 18.2 ms without
    it (in-process, one core of a 2-core x86_64 host, numpy 2.4.6).
    """
    x_left, x_right = p.support
    n = max(1, round(p.cavity_wavevector * p.condensate_length / math.pi))
    k_n = math.pi * n / p.condensate_length
    mf = ModeFunctions(x_left, x_right, n, k_n, p.condensate_length,
                       p.cavity_length, p.cavity_wavevector)
    overlap = _overlap(lambda x: mf.cavity(x) * mf.excited(x), x_left, x_right)
    # flipping the sign of the integrand flips the sign of quad's result exactly
    if overlap < 0:
        mf = replace(mf, orientation=-1.0)
    return mf, abs(overlap)


def _overlap(f, a: float, b: float) -> float:
    # ``quad`` ignores its tolerance-not-achieved warning (see ``_solvers``)
    val, _ = quad(f, a, b, epsabs=0.0, epsrel=QUAD_RTOL, limit=400)
    return val


def map_to_dicke(p: PhysicalParams) -> DickeParams:
    """Map physical parameters onto the two-mode collective-spin model.

    omega  = -Delta_c + (N*U0/D) * int |phi_cav|^2 dx
    omega0 = hbar*G^2/(2 m)
    lam    = sqrt(N/D) * eta * int phi_cav * phi_exc dx
    lam'   = sqrt(N/D) * eta * int phi_cav * phi_ground dx

    with all integrals over the (displaced) trap support, evaluated by
    adaptive quadrature at relative tolerance 1e-10.

    Raises
    ------
    ParameterError
        If the shifted cavity frequency comes out non-positive, which
        signals leaving the dispersive operating regime.
    """
    mf, i_exc = _oriented_modes(p)
    a, b = p.support
    n_over_d = p.atom_number / p.condensate_length

    i_cavity2 = _overlap(lambda x: mf.cavity(x) ** 2, a, b)
    i_ground = _overlap(lambda x: mf.cavity(x) * mf.ground(x), a, b)

    omega = -p.pump_cavity_detuning + n_over_d * p.dispersive_shift * i_cavity2
    omega0 = p.hbar * p.cavity_wavevector ** 2 / (2.0 * p.atom_mass)
    lam = math.sqrt(n_over_d) * p.pump_coupling * i_exc
    lam_prime = math.sqrt(n_over_d) * p.pump_coupling * i_ground

    if omega <= 0:
        raise ParameterError(
            f"shifted cavity frequency omega = {omega} is not positive; "
            "parameters are outside the dispersive regime")
    dk = DickeParams(omega=omega, omega0=omega0, lam=lam, lam_prime=lam_prime,
                     kappa=p.kappa, atom_number=float(p.atom_number))
    for name, value in vars(dk).items():
        if abs(value) > MAX_MAGNITUDE:
            raise ParameterError(f"mapped {name} = {value:g} exceeds {MAX_MAGNITUDE:g}")
    return dk


def density_profile(p: PhysicalParams, state, grid) -> np.ndarray:
    """Atomic density |c0*phi_0(x) + cn*phi_n(x)|^2 on the given grid.

    Mode populations follow from the collective-spin state: |cn|^2 = N/2 + w,
    |c0|^2 = N/2 - w, and the relative phase is the phase of beta (the sign
    of Re(beta) for the real steady states).  The profile integrates to N.
    """
    mf = mode_functions(p)
    grid = np.asarray(grid, dtype=float)
    if grid.size and (grid.min() < mf.x_left - 1e-12 or grid.max() > mf.x_right + 1e-12):
        raise ParameterError("density grid extends outside the trap support")

    n_atoms = float(p.atom_number)
    beta = complex(state.beta)
    w = float(state.w)
    residual = abs(abs(beta) ** 2 + w ** 2 - 0.25 * n_atoms ** 2)
    if residual > 1e-6 * n_atoms ** 2:
        raise ParameterError(
            f"state violates |beta|^2 + w^2 = N^2/4 (residual {residual:.3e})")

    ground_pop = max(n_atoms / 2.0 - w, 0.0)
    c0 = math.sqrt(ground_pop)
    if c0 > 0:
        cn = beta / c0
    else:  # fully excited: beta = 0 by the constraint
        cn = complex(math.sqrt(n_atoms))
    amplitude = c0 * mf.ground(grid) + cn * mf.excited(grid)
    return np.abs(amplitude) ** 2
