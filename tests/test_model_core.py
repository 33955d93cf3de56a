"""Physical-parameter mapping, mode functions and density profiles."""

import math
import re
import warnings
from dataclasses import fields
from datetime import timedelta

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from opendicke import _solvers, params
from opendicke.meanfield import MeanFieldState
from opendicke.params import (MAX_MAGNITUDE, DickeParams, ParameterError, PhysicalParams,
                              density_profile, map_to_dicke, mode_functions)

from util import correlation_shift

# reference geometry: lengths in pump wavelengths, omega0 = 1
GEOMETRY = dict(
    pump_cavity_detuning=-200.0,
    dispersive_shift=0.4002241204401242,
    pump_coupling=0.8047249101911135,
    atom_number=100000,
    condensate_length=40.3,
    cavity_length=200.0,
    cavity_wavevector=2.0 * math.pi,
    atom_mass=2.0 * math.pi ** 2,
    kappa=200.0,
)
D_RATIO_360 = 0.04445860697271532   # displacement giving lam'/lam = 1/360
D_RATIO_120 = 0.11309116782829488   # displacement giving lam'/lam = 1/120


def build(d=0.0, **kw):
    params = {**GEOMETRY, "trap_displacement": d, **kw}
    return PhysicalParams(**params)


DICKE = dict(omega=300.0, omega0=1.0, lam=5.0, lam_prime=0.1, kappa=200.0, atom_number=1e4)


def dicke(**kw):
    return DickeParams(**{**DICKE, **kw})


class TestModeFunctions:
    def test_normalization_and_orthogonality(self):
        mf = mode_functions(build(d=0.37))
        a, b = mf.x_left, mf.x_right
        norm0, _ = quad(lambda x: mf.ground(x) ** 2, a, b, epsrel=1e-12)
        normn, _ = quad(lambda x: mf.excited(x) ** 2, a, b, epsrel=1e-12, limit=400)
        cross, _ = quad(lambda x: mf.ground(x) * mf.excited(x), a, b,
                        epsrel=1e-12, limit=400)
        assert abs(norm0 - 1.0) < 1e-10
        assert abs(normn - 1.0) < 1e-10
        assert abs(cross) < 1e-10

    def test_wavevector_close_to_cavity(self):
        mf = mode_functions(build())
        assert abs(mf.k_n / GEOMETRY["cavity_wavevector"] - 1.0) < 0.01

    def test_excited_mode_orientation_nonnegative_overlap(self):
        for d in (0.0, 0.2, -0.2):
            mf = mode_functions(build(d=d))
            overlap, _ = quad(lambda x: mf.cavity(x) * mf.excited(x),
                              mf.x_left, mf.x_right, epsrel=1e-10, limit=400)
            assert overlap >= 0.0

    @pytest.mark.parametrize("d", [0.0, D_RATIO_120, -D_RATIO_120])
    @pytest.mark.parametrize("mode", ["ground", "excited", "cavity"])
    def test_a_float_gives_the_bits_of_a_one_element_array(self, mode, d):
        # quad evaluates the modes on floats, density_profile on arrays
        mf = mode_functions(build(d=d))
        f = getattr(mf, mode)
        for x in (mf.x_left, mf.x_right, *np.linspace(mf.x_left, mf.x_right, 257)[1:-1]):
            x = float(x)
            value = f(x)
            assert isinstance(value, float)
            assert value.hex() == float(f(np.array([x]))[0]).hex(), x


class TestMapToDicke:
    def test_symmetric_trap_has_no_bias(self):
        dk = map_to_dicke(build(d=0.0))
        assert dk.lam > 1.0
        assert abs(dk.lam_prime) < 1e-9 * dk.lam

    def test_no_drive_no_coupling(self):
        dk = map_to_dicke(build(d=0.1, pump_coupling=0.0))
        assert dk.lam == 0.0
        assert dk.lam_prime == 0.0

    def test_recoil_frequency(self):
        dk = map_to_dicke(build())
        assert abs(dk.omega0 - 1.0) < 1e-12

    def test_cavity_frequency_shift(self):
        # drive and shift constants are calibrated at the 1/120 displacement
        dk = map_to_dicke(build(d=D_RATIO_120))
        assert abs(dk.omega - 300.0) < 1e-9
        assert abs(dk.lam - 9.0) < 1e-9
        assert abs(dk.lam_prime * 120.0 - dk.lam) < 1e-9

    def test_brute_force_quadrature_oracle(self):
        # trapezoid sum on 10^6 points plays the independent oracle for the
        # two overlap integrals at the 1/360 bias displacement
        p = build(d=D_RATIO_360)
        mf = mode_functions(p)
        x = np.linspace(mf.x_left, mf.x_right, 1_000_001)
        i_exc = np.trapezoid(mf.cavity(x) * mf.excited(x), x)
        i_ground = np.trapezoid(mf.cavity(x) * mf.ground(x), x)
        scale = math.sqrt(p.atom_number / p.condensate_length) * p.pump_coupling
        dk = map_to_dicke(p)
        assert abs(dk.lam - scale * i_exc) < 1e-5 * abs(dk.lam)
        assert abs(dk.lam_prime - scale * i_ground) < 1e-5 * abs(dk.lam_prime)
        assert abs(dk.lam_prime / dk.lam - 1.0 / 360.0) < 0.01 / 360.0

    def test_homogeneous_in_pump(self):
        base = map_to_dicke(build(d=0.05))
        scaled = map_to_dicke(build(d=0.05, pump_coupling=GEOMETRY["pump_coupling"] * 3.7))
        assert abs(scaled.lam - 3.7 * base.lam) < 1e-12 * scaled.lam
        assert abs(scaled.lam_prime - 3.7 * base.lam_prime) < 1e-12 * abs(scaled.lam_prime)

    def test_bias_odd_in_displacement(self):
        plus = map_to_dicke(build(d=0.07))
        minus = map_to_dicke(build(d=-0.07))
        assert abs(plus.lam_prime + minus.lam_prime) < 1e-9 * abs(plus.lam_prime)
        assert abs(plus.lam - minus.lam) < 1e-9 * plus.lam

    def test_rejects_nonpositive_cavity_frequency(self):
        with pytest.raises(ParameterError, match="dispersive"):
            map_to_dicke(build(pump_cavity_detuning=200.0))

    def test_rejects_large_displacement(self):
        with pytest.raises(ParameterError, match="displacement"):
            build(d=5.0)

    # every field refuses NaN when constructed, with a message that names it;
    # so do a negative pump coupling (lam >= 0 needs eta >= 0) and hbar = 0
    @pytest.mark.parametrize("make, field, value", [
        *(pytest.param(dicke, name, math.nan, id=f"dicke-{name}") for name in DICKE),
        *(pytest.param(build, f.name, math.nan, id=f"build-{f.name}")
          for f in fields(PhysicalParams)),
        pytest.param(build, "pump_coupling", -1.0, id="build-pump_coupling-negative"),
        pytest.param(build, "hbar", 0.0, id="build-hbar-zero"),
    ])
    def test_nan_in_any_field_is_refused(self, make, field, value):
        with pytest.raises(ParameterError, match=field):
            make(**{field: value})

    @pytest.mark.parametrize("value", [math.inf, -math.inf], ids=["inf", "minus-inf"])
    @pytest.mark.parametrize("field", list(DICKE))
    def test_infinite_dicke_field_is_refused(self, field, value):
        # +inf passed every sign check and reached the solvers as inf or NaN
        with pytest.raises(ParameterError, match=f"^{field} must "):
            dicke(**{field: value})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, 1e155],
                             ids=["inf", "minus-inf", "1e155"])
    @pytest.mark.parametrize("field", [f.name for f in fields(PhysicalParams)])
    def test_infinite_or_huge_physical_field_is_refused(self, field, value):
        # an infinite cavity_length mapped to lam = lam' = 0; an infinite or
        # 1e155 cavity_wavevector escaped as OverflowError from round or ** 2
        with pytest.raises(ParameterError, match=(
                f"^{field} must be finite and at most 1e\\+30 in magnitude, "
                f"got {re.escape(str(value))}$")):
            build(**{field: value})

    def test_with_coupling_refuses_an_infinite_coupling(self):
        p = dicke()
        with pytest.raises(ParameterError, match="^lam must be finite, got inf$"):
            p.with_coupling(math.inf)
        with pytest.raises(ParameterError, match="^lam_prime must be finite, got -inf$"):
            p.with_coupling(5.0, -math.inf)


def mapped_overlaps(p, monkeypatch):
    """The three overlaps ``map_to_dicke`` integrates: excited (before the
    orientation flips its sign), cavity squared and ground."""
    found = []

    def recorded(f, a, b):
        found.append(overlap(f, a, b))
        return found[-1]

    overlap = params._overlap
    monkeypatch.setattr(params, "_overlap", recorded)
    params._oriented_modes.cache_clear()
    map_to_dicke(p)
    return found


def closed_form_overlaps(p, mf):
    """The three overlaps in closed form, in 40-digit mpmath on the float inputs.

    sin(Gx)cos(k(x-a)) = [sin((G+k)x - ka) + sin((G-k)x + ka)]/2, and the
    G - k term is written with a sinc, so that it stays exact at G = k.
    """
    with mpmath.workdps(40):
        a, b = map(mpmath.mpf, p.support)
        g, k = mpmath.mpf(p.cavity_wavevector), mpmath.mpf(mf.k_n)
        width, length = mpmath.mpf(p.condensate_length), mpmath.mpf(p.cavity_length)
        q = g - k
        excited = mpmath.sqrt(2 / (width * length)) / 2 * (
            (mpmath.cos(g * a) - mpmath.cos((g + k) * b - k * a)) / (g + k)
            + (b - a) * mpmath.sin(q * (a + b) / 2 + k * a) * mpmath.sinc(q * (b - a) / 2))
        cavity2 = ((b - a) / 2 - (mpmath.sin(2 * g * b) - mpmath.sin(2 * g * a)) / (4 * g)) / length
        ground = (2 * mpmath.sin(g * (a + b) / 2) * mpmath.sin(g * (b - a) / 2)
                  / (g * mpmath.sqrt(length * width)))
        return excited, cavity2, ground


#: (condensate length, displacement): fig5's geometry and its mirror, a
#: sweep of displacements, the resonance G = k at length 40.5, and the two
#: smallest lam' overlaps (|overlap| 3.8e-4 and 2.7e-4) of a wider scan, where
#: quad sits 3.4e-12 and 1.4e-12 off.  Overlaps near zero (a symmetric trap's
#: lam') are off by quad's absolute error, about 1e-15, and are not here.
ORACLE_GEOMETRIES = [
    (40.3, D_RATIO_120), (40.3, -D_RATIO_120),
    *((40.3, d) for d in (-3.627, -0.403, 0.1209, 0.806, 2.821)),
    *((40.5, d) for d in (-3.645, -2.025, 0.1215, 2.835)),
    (20.3, -1.015), (40.3, -2.015),
]


class TestOverlapOracle:
    """``quad``'s overlaps against their closed forms; the accuracy gate of the mapping."""

    @pytest.mark.parametrize("length, d", ORACLE_GEOMETRIES)
    def test_quad_overlaps_match_the_closed_forms(self, length, d, monkeypatch):
        p = build(d=d, condensate_length=length)
        found = mapped_overlaps(p, monkeypatch)
        oracle = closed_form_overlaps(p, mode_functions(p))
        assert len(found) == 3
        for name, value, exact in zip(("excited", "cavity2", "ground"), found, oracle):
            assert abs((value - exact) / exact) < 1e-11, name

    def test_length_40_5_is_the_resonance(self):
        # n = 81 at length 40.5 puts k_n within rounding of G
        mf = mode_functions(build(condensate_length=40.5))
        assert abs(mf.k_n - GEOMETRY["cavity_wavevector"]) < 1e-14

    @pytest.mark.parametrize("length, d", [(40.3, D_RATIO_120), (40.5, -2.025)])
    def test_closed_forms_match_mpmath_quadrature(self, length, d):
        # the oracle itself, against 20-digit tanh-sinh quadrature over 40 pieces
        p = build(d=d, condensate_length=length)
        mf = mode_functions(p)
        oracle = closed_form_overlaps(p, mf)
        with mpmath.workdps(20):
            a, b = map(mpmath.mpf, p.support)
            g, k = mpmath.mpf(p.cavity_wavevector), mpmath.mpf(mf.k_n)
            width, length = mpmath.mpf(p.condensate_length), mpmath.mpf(p.cavity_length)

            def cavity(x):
                return mpmath.sin(g * x) / mpmath.sqrt(length)

            pieces = mpmath.linspace(a, b, 41)
            integrals = (
                mpmath.quad(lambda x: cavity(x) * mpmath.sqrt(2 / width)
                            * mpmath.cos(k * (x - a)), pieces),
                mpmath.quad(lambda x: cavity(x) ** 2, pieces),
                mpmath.quad(lambda x: cavity(x) / mpmath.sqrt(width), pieces))
            for value, exact in zip(integrals, oracle):
                assert abs((value - exact) / exact) < 1e-18


#: fig5's geometry
FIG5 = {**GEOMETRY, "trap_displacement": D_RATIO_120, "hbar": 1.0}
#: every field's boundary values: non-finite, zero, negative, extreme and
#: at MAX_MAGNITUDE
EXTREMES = st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, -1.0, 1e300, -1e300,
                            1e-300, -1e-300, MAX_MAGNITUDE, -MAX_MAGNITUDE,
                            1.0 / MAX_MAGNITUDE]) | st.floats()


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestMapBoundary:
    @settings(max_examples=300, deadline=timedelta(seconds=2), database=None)
    @given(changed=st.dictionaries(st.sampled_from(list(FIG5)), EXTREMES))
    def test_maps_to_finite_params_or_refuses(self, changed):
        # fig5's geometry with any fields replaced by boundary values
        try:
            dk = map_to_dicke(PhysicalParams(**{**FIG5, **changed}))
        except ParameterError as exc:
            assert str(exc)
            return
        assert all(math.isfinite(v) for v in vars(dk).values())


class TestQuadShim:
    """``_solvers.quad`` is SciPy's ``quad`` with only IntegrationWarning hidden."""

    @staticmethod
    def oscillatory(x):
        return np.sin(50 * x) ** 2 / (x + 1e-3)

    def test_same_result_without_the_warning(self):
        with pytest.warns(IntegrationWarning):
            direct = quad(self.oscillatory, 0, 10, limit=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            shimmed = _solvers.quad(self.oscillatory, 0, 10, limit=2)
        assert shimmed == direct

    def test_other_warnings_reach_the_caller(self):
        def noisy(x):
            warnings.warn("from the integrand", UserWarning)
            return self.oscillatory(x)

        with pytest.warns(UserWarning, match="from the integrand"):
            _solvers.quad(noisy, 0, 10, limit=2)


class TestDensityProfile:
    def test_pure_ground_mode_is_uniform(self):
        p = build()
        n = p.atom_number
        state = MeanFieldState(0j, 0j, -n / 2.0)
        mf = mode_functions(p)
        x = np.linspace(mf.x_left, mf.x_right, 501)
        dens = density_profile(p, state, x)
        assert np.allclose(dens, n / p.condensate_length, rtol=1e-12)

    def test_normalization(self):
        p = build(d=0.05)
        n = p.atom_number
        beta = 0.21 * n
        w = -math.sqrt(n * n / 4.0 - abs(beta) ** 2)
        state = MeanFieldState(0j, beta, w)
        mf = mode_functions(p)
        total, _ = quad(lambda x: float(density_profile(p, state, [x])[0]),
                        mf.x_left, mf.x_right, epsrel=1e-10, limit=800)
        assert abs(total - n) < 1e-8 * n

    def test_rejects_grid_outside_support(self):
        p = build()
        state = MeanFieldState(0j, 0j, -p.atom_number / 2.0)
        with pytest.raises(ParameterError, match="support"):
            density_profile(p, state, [p.support[0] - 1.0])

    def test_rejects_inconsistent_state(self):
        p = build()
        with pytest.raises(ParameterError, match="N\\^2/4"):
            density_profile(p, MeanFieldState(0j, 0.4 * p.atom_number, 0.0),
                            [p.support[0] + 1.0])

    def test_sign_flip_translates_by_half_wavelength(self):
        p = build()
        n = p.atom_number
        beta = 0.3 * n
        w = -math.sqrt(n * n / 4.0 - beta ** 2)
        mf = mode_functions(p)
        x = np.linspace(mf.x_left, mf.x_right, 8001)
        dens_plus = density_profile(p, MeanFieldState(0j, beta, w), x)
        dens_minus = density_profile(p, MeanFieldState(0j, -beta, w), x)
        dx = x[1] - x[0]
        shift = correlation_shift(dens_plus, dens_minus, dx, max_shift=0.9)
        half_pump = math.pi / p.cavity_wavevector
        assert abs(shift - half_pump) < 0.01 * half_pump + dx
        # the flip is an exact translation by half the excited-mode period
        period_half = math.pi / mf.k_n
        keep = x + period_half <= mf.x_right
        translated = density_profile(p, MeanFieldState(0j, beta, w),
                                     x[keep] + period_half)
        assert np.allclose(dens_minus[keep], translated, rtol=1e-10, atol=1e-10)
