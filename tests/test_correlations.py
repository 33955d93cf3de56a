"""Moment system, two-time correlators, g2 and its spectrum."""

import itertools
import math
import re
import warnings
from datetime import timedelta

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from opendicke import correlations as corr
from opendicke import fluctuations as fl
from opendicke import meanfield as mfd
from opendicke.params import DickeParams

from util import (KAPPA, LC, OMEGA, SpectralPeak, alternation_ratio, cc_closed_form,
                  dominant_peak, expm_reference, ground_state_photon_number, loglog_slope,
                  params, photon_number_closed_form)


class TestSteadyMoments:
    def test_empty_cavity(self):
        m = corr.steady_moments(params(lam=0.0))
        assert np.allclose(m.values, 0.0, atol=1e-15)

    def test_closed_forms_across_grid(self):
        p = params()
        for lam in np.linspace(0.05, 0.995, 20) * LC:
            q = p.with_coupling(float(lam))
            m = corr.steady_moments(q)
            n_c = photon_number_closed_form(q)
            cc = cc_closed_form(q)
            assert abs(m.photon_number - n_c) < 1e-9 * n_c
            assert abs(m.cc - cc) < 1e-9 * abs(cc)
            assert abs(abs(m.cc) - m.photon_number) < 1e-9 * n_c

    def test_conjugate_closure(self):
        m = corr.steady_moments(params(lam=0.7 * LC))
        assert m.conjugate_closure_residual() < 1e-12
        _, stack = corr._resolve_operating_point(params(), np.linspace(0.1, 0.99, 50) * LC)
        assert corr.steady_moments(params(), stack).conjugate_closure_residual() < 1e-12

    @pytest.mark.parametrize("lam_prime_ratio, fractions", [
        (0.0, (0.3, 0.7, 0.99)),
        (1.0 / 360.0, (0.7, 0.99, 1.1, 1.6)),
    ], ids=["symmetric", "biased"])
    def test_commutators(self, lam_prime_ratio, fractions):
        # the solved moments keep [c, c+] = [d, d+] = 1, to 1e-12 of the
        # largest moment; the vacuum noise entry of Q is what fixes them
        C, CDAG, D, DDAG = corr.C, corr.CDAG, corr.D, corr.DDAG
        for f in fractions:
            q = params(lam=f * LC, lam_prime=f * LC * lam_prime_ratio, n=1e6)
            m = corr.steady_moments(q)
            bound = 1e-12 * float(np.max(np.abs(m.values)))
            assert abs(m.pair(C, CDAG) - m.pair(CDAG, C) - 1.0) < bound
            assert abs(m.pair(D, DDAG) - m.pair(DDAG, D) - 1.0) < bound

    def test_threshold_guards(self):
        with pytest.raises(corr.ThresholdError):
            corr.steady_moments(params(lam=1.01 * LC))
        with pytest.raises(corr.ThresholdError):
            corr.steady_moments(params(lam=LC * (1 - 1e-8)))


def lyapunov_oracle(m, kappa):
    """Normal-ordered moments of M S + S M^T + Q = 0 from a 50-digit solve of its 16 equations."""
    with mpmath.workdps(50):
        entries = [[mpmath.mpc(complex(x)) for x in row] for row in m]
        a = mpmath.matrix(16, 16)
        for i, j, k in itertools.product(range(4), repeat=3):
            a[4 * i + j, 4 * k + j] += entries[i][k]
            a[4 * i + j, 4 * i + k] += entries[j][k]
        q = mpmath.matrix(16, 1)
        q[4 * corr.C + corr.CDAG] = -2 * mpmath.mpf(kappa)
        s = mpmath.lu_solve(a, q)
        return np.array([complex(s[r]) for r in range(16)]).reshape(4, 4) - corr._COMMUTATORS


def oracle_box(seed, exponents, omega0):
    """40 draws of omega and kappa (and omega0 if not given) log-uniform over ``exponents``.

    Every second draw is biased, lam'/lam log-uniform in [1e-5, 1e-1]; each
    draw gives three points, at 0.1, 0.5 and 0.9 lam_c, with N = 1e5.
    """
    rng = np.random.default_rng(seed)
    for k in range(40):
        w, kappa, *rest = 10.0 ** rng.uniform(*exponents, 2 if omega0 else 3)
        ratio = 10.0 ** rng.uniform(-5.0, -1.0) if k % 2 else 0.0
        p = DickeParams(w, omega0 or rest[0], 1.0, 0.0, kappa, 1e5)
        for f in (0.1, 0.5, 0.9):
            lam = f * mfd.critical_coupling(p)
            yield p.with_coupling(lam, ratio * lam)


def extreme_ratios():
    """The points where a 16x16 Kronecker solve of the moments was off by up to 57%, silently.

    (omega, kappa, omega0) = (1e5, 1e-3, 1e-3), (300, 1e5, 1e-3) and (1e-3,
    1e5, 1e-3), each at 0.1, 0.5 and 0.9 lam_c, with N = 1e5.
    """
    for (w, k, w0), f in itertools.product(
            [(1e5, 1e-3, 1e-3), (300.0, 1e5, 1e-3), (1e-3, 1e5, 1e-3)], (0.1, 0.5, 0.9)):
        p = DickeParams(w, w0, 1.0, 0.0, k, 1e5)
        yield p.with_coupling(f * mfd.critical_coupling(p))


class TestMomentOracle:
    """Every moment against a 50-digit solve of the same M, within 1e-12 of the largest."""

    @staticmethod
    def worst(points):
        worst = 0.0
        for q in points:
            _, m = corr._resolve_operating_point(q)
            want = lyapunov_oracle(m, q.kappa)
            got = corr.steady_moments(q, m).values
            worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
        return worst

    @pytest.mark.parametrize("seed, exponents, omega0", [
        (2041, (-1.0, 5.0), 1.0), (4117, (-3.0, 8.0), None)], ids=["physical", "wide"])
    def test_boxes(self, seed, exponents, omega0):
        # physical: omega0 = 1, omega and kappa in [0.1, 1e5]; wide: all
        # three in [1e-3, 1e8]
        assert self.worst(oracle_box(seed, exponents, omega0)) < 1e-12

    def test_extreme_frequency_ratios(self):
        assert self.worst(extreme_ratios()) < 1e-12
        for q in extreme_ratios():
            n = photon_number_closed_form(q)
            assert abs(corr.steady_moments(q).photon_number - n) < 1e-14 * n

    def test_singular_equation_is_refused(self):
        # omega = kappa = 1, omega0' = 2, g1 = 0 and g2 = 1: Delta = 2 * 2 - 4 * 1 = 0
        p = DickeParams(1.0, 2.0, 1.0, 0.0, 1.0, 1e5)
        m = fl.dynamical_matrix(fl.HPCoefficients(2.0, 0.0, 1.0, 0j, 0.0), p)
        assert fl.stability(m, p.omega0) == "marginal"
        good = fl.dynamical_matrix(fl.HPCoefficients(2.0, 0.0, 0.5, 0j, 0.0), p)
        for stack in (m, np.stack([good, m, good])):
            with pytest.raises(corr.ThresholdError,
                               match=r"^moment equation is singular \(criticality\)$"):
                corr.steady_moments(p, stack)


#: omega, kappa or omega0 log-uniform in [1e-3, 1e8], the wide box
WIDE = st.floats(-3.0, 8.0).map(lambda e: 10.0 ** e)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestMomentBoundary:
    """Finite moments with |<cc>| = <c+c>, or a refusal with a message, over the wide box."""

    @settings(max_examples=150, deadline=timedelta(seconds=2), database=None)
    @given(w=WIDE, kappa=WIDE, w0=WIDE, fraction=st.floats(0.0, 1.5),
           ratio=st.just(0.0) | st.floats(-5.0, -1.0).map(lambda e: 10.0 ** e),
           n=st.floats(2.0, 8.0).map(lambda e: 10.0 ** e))
    def test_moments_and_flux(self, w, kappa, w0, fraction, ratio, n):
        p = DickeParams(w, w0, 1.0, 0.0, kappa, n)
        lam = fraction * mfd.critical_coupling(p)
        q = p.with_coupling(lam, ratio * lam)
        try:
            moments = corr.steady_moments(q)
            flux = corr.photon_flux(q)
        except (corr.ThresholdError, fl.ValidityError) as exc:
            assert str(exc)
            return
        assert np.isfinite(moments.values).all() and math.isfinite(flux) and flux >= 0.0
        # a subnormal photon number carries no relative accuracy
        photons = moments.photon_number
        assert abs(abs(moments.cc) - photons) <= 1e-12 * photons + np.finfo(float).tiny


class TestExpmOracle:
    """The correlator routes against a 40-digit exp(M tau) v0."""

    def test_physical_box(self):
        # at tau indices 0, 1, 1000 and 16383 of each default grid, within
        # 1e-6 of the correlator scale (the largest |<c+c>|, |<cc>| there);
        # v0 is the same float seed, so this checks the propagation alone
        index = [0, 1, 1000, 2 ** 14 - 1]
        worst = 0.0
        for q in oracle_box(2041, (-1.0, 5.0), 1.0):
            _, m = corr._resolve_operating_point(q)
            moments = corr.steady_moments(q, m)
            tau = corr.default_tau_grid(q, m=m)
            want = expm_reference(m, corr._seed(moments), tau[index])[:, [corr.CDAG, corr.C]]
            got = np.column_stack(corr._correlators_frequency(m, moments, tau))[index]
            worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
        assert worst <= 1e-6

    @pytest.mark.xfail(strict=True, reason="repeated squaring of the non-normal "
                       "exp(M dtau) amplifies its rounding")
    def test_regression_route_at_a_wide_box_point(self):
        # omega << kappa, omega0: ||M dtau||_1 = 137 and exp(M dtau) is far from
        # normal, with entries up to 59.  The route's step is 8.1e-13 off a
        # 40-digit one, but _propagate's powers of it are 0.44 and 2.3e4 of the
        # correlator scale off at tau indices 1000 and 16383 (the frequency
        # route 7.4e-7 and 1.1e-13), so method="both" raises here
        p = DickeParams(0.4966318430974738, 144503.39852338837, 1.0, 0.0,
                        1983694.5434581405, 1e5)
        q = p.with_coupling(0.9 * mfd.critical_coupling(p))
        _, m = corr._resolve_operating_point(q)
        moments = corr.steady_moments(q, m)
        tau = corr.default_tau_grid(q, m=m)
        index = [0, 1000, corr.TAU_POINTS - 1]
        want = expm_reference(m, corr._seed(moments), tau[index])[:, [corr.CDAG, corr.C]]
        got = np.column_stack(corr._correlators_regression(m, moments, tau))[index]
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))


class TestPhotonFlux:
    def test_vanishes_without_drive(self):
        assert corr.photon_flux(params(lam=0.0)) == pytest.approx(0.0, abs=1e-20)

    def test_scaling_exponent_open_system(self):
        p = params()
        u = np.logspace(-3, -1, 30)          # 1 - lam/lam_c
        flux = [corr.photon_flux(p.with_coupling(float((1 - ui) * LC)))
                for ui in u]
        assert loglog_slope(u, flux) == pytest.approx(-1.0, abs=0.05)

    def test_scaling_exponent_ground_state(self):
        p = params()
        lc_closed = 0.5 * math.sqrt(OMEGA)
        u = np.logspace(-3, -1, 30)
        n_gs = [ground_state_photon_number(p, float((1 - ui) * lc_closed))
                for ui in u]
        assert loglog_slope(u, n_gs) == pytest.approx(-0.5, abs=0.05)

    def test_open_vs_equilibrium_diverge_toward_threshold(self):
        # the equilibrium expression blows up at its (smaller) threshold
        # while the open-system one stays finite there, so their ratio
        # grows monotonically as that point is approached
        p = params()
        lc_closed = 0.5 * math.sqrt(OMEGA)
        ratios = []
        for f in (0.9, 0.95, 0.99, 0.999):
            lam = f * lc_closed
            ratios.append(ground_state_photon_number(p, lam)
                          / photon_number_closed_form(p, lam))
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_bias_adds_coherent_flux(self):
        p = params(lam=9.0, lam_prime=9.0 / 360.0, n=1e6)
        n = p.atom_number
        seed = mfd.MeanFieldState(
            -1j * p.lam_prime * math.sqrt(n) / (KAPPA + 1j * OMEGA), 0j, -n / 2)
        ss = mfd.newton_steady_state(p, seed)
        coherent = 2 * KAPPA * abs(ss.alpha) ** 2
        fluct = 2 * KAPPA * corr.steady_moments(
            p, fl.dynamical_matrix(fl.hp_coefficients(ss, p), p)).photon_number
        assert corr.photon_flux(p) == pytest.approx(coherent + fluct, rel=1e-9)
        assert coherent > 0

    def test_grid_equals_the_points_alone_bit_for_bit(self):
        # one stack of trivial states, lam = 0 (decoupled, zero moments) included
        p = params()
        lam = np.concatenate([[0.0, 1e-6], np.linspace(0.01, 0.999, 400) * LC])
        alone = [corr.photon_flux(p.with_coupling(x)) for x in lam.tolist()]
        assert corr.photon_flux(p, lam).tobytes() == np.array(alone).tobytes()

    def test_tiny_couplings_give_the_closed_form(self):
        # the closed-form moments need no damping to resolve a coupling: every
        # coupling down to the smallest float gives the closed-form flux,
        # singly and as one grid, subnormal photon numbers included
        p = params()
        lam = np.append(5e-324, 10.0 ** -np.arange(323.0, 139.9, -0.5))
        closed = np.array([2.0 * p.kappa * photon_number_closed_form(p, x)
                           for x in lam.tolist()])
        alone = np.array([corr.photon_flux(p.with_coupling(x)) for x in lam.tolist()])
        assert np.all(np.abs(alone - closed) <= 1e-12 * closed)
        assert np.all(np.abs(corr.photon_flux(p, lam) - closed) <= 1e-12 * closed)
        assert closed[-1] > 0.0
        # lam = 0 stays exactly decoupled
        assert corr.photon_flux(p, [0.0, 1e-140]).tolist()[0] == 0.0
        assert not corr.steady_moments(p).values.any()

    def test_biased_grid_agrees_with_the_points_alone(self):
        # every row of the stack is the cold bracketed root, as each point alone
        p = params(lam_prime=0.025, n=1e6)
        lam = np.linspace(0.5, 1.5 * LC, 150)
        alone = [corr.photon_flux(p.with_coupling(x)) for x in lam.tolist()]
        assert corr.photon_flux(p, lam).tobytes() == np.array(alone).tobytes()

    @pytest.mark.parametrize("lam", [
        [2.0, 9.0, LC, 12.0], [2.0, LC * (1 - 1e-8)], [1e-170, 20.0], [-1.0, 2.0]],
        ids=["at-threshold", "near-threshold", "tiny-before-threshold", "negative"])
    def test_grid_raises_what_the_first_failing_point_raises(self, lam):
        p = params()
        with pytest.raises((ValueError, corr.ThresholdError)) as alone:
            for x in lam:
                corr.photon_flux(p.with_coupling(x))
        with pytest.raises(type(alone.value), match=f"^{re.escape(str(alone.value))}$"):
            corr.photon_flux(p, lam)

    def test_ground_state_guards(self):
        with pytest.raises(ValueError, match="threshold"):
            ground_state_photon_number(params(), 0.6 * math.sqrt(OMEGA))
        with pytest.raises(ValueError, match="omega0/omega"):
            ground_state_photon_number(
                DickeParams(2.0, 1.0, 0.1, 0.0, 1.0, 10), 0.1)


class TestTwoTimeCorrelations:
    def test_tau_zero_reproduces_moments(self):
        # the residues are seeded with the steady moments, so at tau = 0 this
        # checks the round trip V (V^-1 v0) through M's eigenvectors, not an
        # independent solve (TestMomentOracle checks the moments themselves)
        q = params(lam=0.7 * LC)
        m = corr.steady_moments(q)
        tau = np.linspace(0.0, 5.0, 16)
        s = corr.two_time_correlations(q, tau, method="frequency")
        assert abs(s.cdagc_tau[0] - m.photon_number) < 1e-9 * m.photon_number
        assert abs(s.cc_tau[0] - m.cc) < 1e-9 * abs(m.cc)

    @pytest.mark.parametrize("lam", [6.0, 9.0])
    def test_tau_zero_reproduces_biased_moments(self, lam):
        # the V (V^-1 v0) round trip with a bias g1 != 0, so the g1 entries
        # of M count
        q = params(lam=lam, lam_prime=lam / 360.0, n=1e6)
        m = corr.steady_moments(q)
        tau = np.linspace(0.0, 5.0, 16)
        s = corr.two_time_correlations(q, tau, method="frequency")
        assert abs(s.cdagc_tau[0] - m.photon_number) < 1e-9 * m.photon_number
        assert abs(s.cc_tau[0] - m.cc) < 1e-9 * abs(m.cc)

    def test_methods_cross_validate(self):
        q = params(lam=0.7 * LC)
        tau = np.linspace(0.0, 2000.0, 4096)
        f = corr.two_time_correlations(q, tau, method="frequency")
        r = corr.two_time_correlations(q, tau, method="regression")
        scale = np.max(np.abs(f.cdagc_tau))
        assert np.max(np.abs(f.cdagc_tau - r.cdagc_tau)) < 1e-6 * scale
        assert np.max(np.abs(f.cc_tau - r.cc_tau)) < 1e-6 * scale
        # "both" runs the comparison internally and must not raise
        corr.two_time_correlations(q, tau, method="both")

    def test_regression_on_a_grid_not_starting_at_zero(self):
        # the regression route is seeded at tau = 0, so a grid from tau = 5
        # must give the tau = 5 correlators, not the tau = 0 moments
        q = params(lam=6.0)
        tau = np.linspace(5.0, 50.0, 2001)
        f = corr.two_time_correlations(q, tau, method="frequency")
        r = corr.two_time_correlations(q, tau, method="regression")
        assert r.g2 == pytest.approx(f.g2, rel=1e-6)
        corr.two_time_correlations(q, tau, method="both")

    @pytest.mark.parametrize("lam, lam_prime, n", [
        (0.5, 0.0, 1e5), (2.0, 0.0, 1e5), (5.0, 0.0, 1e5), (9.0, 0.0, 1e5),
        (10.3, 0.0, 1e5), (9.0, 0.025, 1e6)])
    def test_both_passes_on_default_grid(self, lam, lam_prime, n):
        # the full-span cross-check at its 1e-6 bound, 16384 points
        q = params(lam=lam, lam_prime=lam_prime, n=n)
        s = corr.two_time_correlations(q, corr.default_tau_grid(q), method="both")
        assert s.tau.size == 2 ** 14

    @pytest.mark.parametrize("lam, lam_prime, n", [
        (0.5, 0.0, 1e5), (2.0, 0.0, 1e5), (9.0, 0.0, 1e5), (0.99 * LC, 0.0, 1e5),
        (9.0, 0.025, 1e6)])
    def test_frequency_route_equals_the_direct_phase_table(self, lam, lam_prime, n):
        # the two-table sampling against one exponential per tau and eigenvalue
        q = params(lam=lam, lam_prime=lam_prime, n=n)
        _, m = corr._resolve_operating_point(q)
        moments = corr.steady_moments(q, m)
        tau = corr.default_tau_grid(q, m=m)
        mu, amp = corr._residues(m, corr._seed(moments))
        direct = np.exp(np.outer(tau, mu)) @ amp.T
        sampled = np.column_stack(corr._correlators_frequency(m, moments, tau))
        assert np.max(np.abs(sampled - direct)) <= 2e-12 * np.max(np.abs(direct))

    def test_frequency_route_takes_two_small_tables_of_exponentials(self, monkeypatch):
        q = params(lam=6.0)
        _, m = corr._resolve_operating_point(q)
        moments = corr.steady_moments(q, m)
        sizes, exp = [], np.exp
        monkeypatch.setattr(np, "exp", lambda x: sizes.append(np.size(x)) or exp(x))
        corr._correlators_frequency(m, moments, np.linspace(0.0, 50.0, 2 ** 14))
        assert sizes == [128 * 4, 128 * 4]          # ceil(sqrt(16384)) = 128

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 200])
    def test_squared_propagation_matches_stepping(self, n):
        _, m = corr._resolve_operating_point(params(lam=6.0))
        step = corr._propagator(m, 0.05)
        v = np.array([1.0, 0.5 - 0.2j, 0.3j, -0.1])
        squared = corr._propagate(step, v, n)
        stepped = [v]
        for _ in range(n - 1):
            stepped.append(step @ stepped[-1])
        scale = np.max(np.abs(stepped))
        assert squared.shape == (n, 4)
        assert np.max(np.abs(squared - np.array(stepped))) < 1e-13 * scale

    @pytest.mark.parametrize("tau", [np.linspace(5000.0, 5050.0, 201),
                                     np.linspace(0.0, 6000.0, 3)],
                             ids=["late-start", "three-points"])
    def test_regression_cost_is_bounded(self, monkeypatch, tau):
        # the propagator halves long steps and squares back, so neither a far
        # first point nor a coarse step makes the integrator walk the span
        nfev = []

        def counted(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            nfev.append(sol.nfev)
            return sol

        monkeypatch.setattr(corr, "solve_ivp", counted)
        q = params(lam=6.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")      # the 3-point grid is coarse
            f = corr.two_time_correlations(q, tau, method="frequency")
            r = corr.two_time_correlations(q, tau, method="regression")
        assert 0 < sum(nfev) < 10 ** 4
        scale = max(np.max(np.abs(f.cdagc_tau)), np.max(np.abs(f.cc_tau)))
        assert np.max(np.abs(f.cdagc_tau - r.cdagc_tau)) < 1e-6 * scale
        assert np.max(np.abs(f.cc_tau - r.cc_tau)) < 1e-6 * scale

    @pytest.mark.parametrize("method", ["frequency", "regression", "both"])
    def test_negative_tau_rejected(self, method):
        with pytest.raises(ValueError, match="< 0"):
            corr.two_time_correlations(params(lam=6.0), np.linspace(-1.0, 10.0, 64),
                                       method=method)

    def test_envelope_decays_at_soft_mode_rate(self):
        q = params(lam=0.6 * LC)
        tau = corr.default_tau_grid(q)
        s = corr.two_time_correlations(q, tau)
        env = np.abs(s.cdagc_tau)
        m = fl.dynamical_matrix(
            fl.hp_coefficients(mfd.trivial_state(q), q), q)
        gamma = -float(np.max(np.linalg.eigvals(m).real))
        # exponential fit on the oscillation peaks
        peaks = [(t, v) for i, (t, v) in enumerate(zip(tau, env))
                 if v == max(env[max(0, i - 8):i + 8])]
        t_pk = np.array([t for t, _ in peaks[1:-1]])
        v_pk = np.array([v for _, v in peaks[1:-1]])
        slope = np.polyfit(t_pk, np.log(v_pk), 1)[0]
        assert slope == pytest.approx(-gamma, rel=0.05)

    def test_grid_validation(self):
        q = params(lam=0.5 * LC)
        with pytest.raises(ValueError, match="uniform"):
            corr.two_time_correlations(q, np.array([0.0, 1.0, 3.0]))
        for tau in ([0.0, 0.0], [2.0, 1.0, 0.0]):
            with pytest.raises(ValueError, match="strictly increasing"):
                corr.two_time_correlations(q, np.array(tau))
        for tau in ([0.0, np.inf], [np.nan] * 4):
            with pytest.raises(ValueError, match="^tau grid must be finite$"):
                corr.two_time_correlations(q, np.array(tau))
        with pytest.raises(ValueError, match="method"):
            corr.two_time_correlations(q, np.linspace(0, 1, 8), method="magic")

    def test_coarse_grid_warns_about_nyquist(self):
        q = params(lam=0.7 * LC)
        with pytest.warns(UserWarning, match="resolve"):
            corr.two_time_correlations(q, np.linspace(0.0, 300.0, 64))


class TestWeakCoupling:
    """g2(0) = 3 at the canonical point from lam = 1e-6 up to 0.99 lam_c."""

    @pytest.mark.parametrize("lam", [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1 * LC, 0.5 * LC,
                                     0.99 * LC])
    def test_default_grid(self, lam):
        q = params(lam=lam)
        assert abs(corr.default_correlations(q).g2[0] - 3.0) <= 1e-10
        s = corr.two_time_correlations(q, corr.default_tau_grid(q), method="both")
        assert abs(s.g2[0] - 3.0) <= 1e-10

    def test_below_the_default_grid(self):
        # at lam = 1e-7 the soft mode damps at about 1e-19, below rounding, so
        # the default grid refuses; a fixed grid still gives both routes
        q = params(lam=1e-7)
        with pytest.raises(corr.ThresholdError, match="^the soft mode is undamped to rounding"):
            corr.default_tau_grid(q)
        s = corr.two_time_correlations(q, np.linspace(0.0, 50.0, 4096), method="both")
        assert abs(s.g2[0] - 3.0) <= 1e-10


class TestCorrelationBoundary:
    """g2(0) = 3 on the default grid, or a one-line refusal, over the wide box."""

    @settings(max_examples=150, deadline=timedelta(seconds=2), database=None)
    @given(w=WIDE, kappa=WIDE, w0=WIDE,
           fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_default_correlations(self, w, kappa, w0, fraction):
        p = DickeParams(w, w0, 1.0, 0.0, kappa, 1e5)
        q = p.with_coupling(fraction * mfd.critical_coupling(p))
        try:
            s = corr.default_correlations(q)
        except (corr.ThresholdError, fl.ValidityError) as exc:
            assert str(exc) and "\n" not in str(exc)
            return
        assert np.isfinite(s.g2).all()
        assert abs(s.g2[0] - 3.0) <= 1e-12


class TestG2:
    @pytest.mark.parametrize("frac", [0.2, 0.5, 0.8, 0.95])
    def test_zero_delay_value_is_three(self, frac):
        q = params(lam=frac * LC)
        tau = np.linspace(0.0, 1.0, 8)
        s = corr.two_time_correlations(q, tau)
        assert abs(s.g2[0] - 3.0) < 1e-6

    def test_long_time_limit_is_one(self):
        q = params(lam=0.6 * LC)
        tau = corr.default_tau_grid(q)
        s = corr.two_time_correlations(q, tau)
        assert s.g2[-1] == pytest.approx(1.0, abs=1e-3)

    def test_deterministic(self):
        q = params(lam=0.5 * LC)
        tau = np.linspace(0.0, 100.0, 256)
        a = corr.two_time_correlations(q, tau)
        b = corr.two_time_correlations(q, tau)
        assert np.array_equal(a.g2, b.g2)
        assert np.array_equal(a.g1, b.g1)

    def test_direct_four_point_oracle(self):
        # assemble g2 from the Wick-decoupled four-operator average of the
        # displaced field a = alpha + c, using only the raw correlators
        q = params(lam=9.0, lam_prime=9.0 / 360.0, n=1e6)
        tau = np.linspace(0.0, 400.0, 1024)
        s = corr.two_time_correlations(q, tau)
        a = s.alpha_ss
        n_c = s.photon_number
        cdagc, cc = s.cdagc_tau, s.cc_tau
        four = np.abs(cc) ** 2 + np.abs(cdagc) ** 2 + n_c ** 2
        numerator = (abs(a) ** 4 + four
                     + abs(a) ** 2 * (2 * n_c + cdagc + np.conj(cdagc))
                     + a ** 2 * np.conj(cc) + np.conj(a) ** 2 * cc)
        direct = numerator.real / (n_c + abs(a) ** 2) ** 2
        assert np.max(np.abs(direct - s.g2)) < 1e-6 * np.max(np.abs(s.g2))
        # the four-point assembly must be real up to rounding
        assert np.max(np.abs(numerator.imag)) < 1e-10 * np.max(np.abs(numerator.real))

    @pytest.mark.parametrize("alpha", [1e76, 1e76j, -0.97e77])
    def test_g2_is_formed_up_to_the_photon_cap(self, alpha):
        # a coherent photon number just below MAX_PHOTONS: the terms stay floats
        g1, g2 = corr.assemble_g2([0.5, 0.0], [0.1, 0.0], 1.0, alpha)
        assert np.all(np.isfinite(g1)) and np.all(np.isfinite(g2))
        assert g2[0] == pytest.approx(1.0) and g2[1] == pytest.approx(1.0)

    @pytest.mark.parametrize("photons, alpha", [(0.0, 1e77), (0.0, 3.2e159j),
                                                (0.0, complex(1e300, 1e300)), (1e154, 0.0)])
    def test_photon_number_past_the_cap_is_refused(self, photons, alpha):
        # |alpha|^2 past sqrt(float max) raised OverflowError
        with pytest.raises(fl.ValidityError, match="is above 9.48e\\+153"):
            corr.assemble_g2([0.5], [0.1], photons, alpha)

    def test_spectrum_peak_tracks_soft_mode(self):
        for frac in (0.4, 0.7, 0.9):
            q = params(lam=frac * LC)
            tau = corr.default_tau_grid(q)
            s = corr.two_time_correlations(q, tau)
            spec = corr.g2_spectrum(s)
            peak = dominant_peak(spec, nu_min=0.2)
            bin_width = spec.nu[1] - spec.nu[0]
            expected = 2.0 * math.sqrt(1.0 - frac ** 2)
            assert abs(peak.frequency - expected) < bin_width

    def test_spectrum_width_grows_with_coupling(self):
        # peak width tracks the soft-mode damping, which grows with lam
        widths = []
        for frac in (0.4, 0.6, 0.8):
            q = params(lam=frac * LC)
            tau = corr.default_tau_grid(q)
            s = corr.two_time_correlations(q, tau)
            spec = corr.g2_spectrum(s)
            peak = dominant_peak(spec, nu_min=0.2)
            half = peak.log_magnitude - math.log10(2.0)
            above = spec.nu[spec.log_magnitude > half]
            near = above[np.abs(above - peak.frequency) < 0.2]
            widths.append(near.max() - near.min())
        assert widths[0] < widths[1] < widths[2]

    def test_constant_series_has_single_dc_peak(self):
        series = corr.CorrelationSeries(
            tau=np.linspace(0, 10, 64), g1=np.ones(64, dtype=complex),
            g2=np.full(64, 2.5), cdagc_tau=np.ones(64, dtype=complex),
            cc_tau=np.ones(64, dtype=complex), alpha_ss=0j, photon_number=1.0)
        spec = corr.g2_spectrum(series)
        with pytest.raises(ValueError):
            dominant_peak(spec, nu_min=0.2)

    def test_beating_asymmetry_with_bias(self):
        q = params(lam=9.0, lam_prime=9.0 / 360.0, n=1e6)
        tau = corr.default_tau_grid(q)
        s = corr.two_time_correlations(q, tau)
        ratio = alternation_ratio(s.g2)
        assert abs(ratio - 1.0) > 0.05

    def test_no_beating_without_bias(self):
        q = params(lam=9.0)
        tau = corr.default_tau_grid(q)
        s = corr.two_time_correlations(q, tau)
        ratio = alternation_ratio(s.g2)
        assert abs(ratio - 1.0) < 0.01


class TestDominantPeak:
    """``dominant_peak`` on synthetic log spectra, bins 0.5 apart."""

    NU = 0.5 * np.arange(12)

    def test_refines_by_the_parabola(self):
        # one maximum, at bin 4 (nu = 2); the parabola's vertex is at 2.2
        logmag = -(self.NU - 2.2) ** 2
        spec = corr.G2Spectrum(self.NU, logmag)
        peak = dominant_peak(spec)
        assert peak.frequency == pytest.approx(2.2, abs=1e-12)
        assert peak.log_magnitude == logmag[4]
        # the refined frequency, not the bin's, is compared with nu_min
        assert dominant_peak(spec, nu_min=2.1) == peak

    def test_takes_the_lowest_nu_on_an_exact_tie(self):
        logmag = np.zeros(12)
        logmag[[2, 5, 8]] = [1.0, 3.0, 3.0]
        spec = corr.G2Spectrum(self.NU, logmag)
        assert dominant_peak(spec) == SpectralPeak(2.5, 3.0)
        assert dominant_peak(spec, nu_min=2.5) == SpectralPeak(4.0, 3.0)
        # the highest peaks lie below nu_min: the next one above is taken
        logmag[[2, 5, 8]] = [3.0, 3.0, 1.0]
        spec = corr.G2Spectrum(self.NU, logmag)
        assert dominant_peak(spec, nu_min=2.5) == SpectralPeak(4.0, 1.0)

    def test_raises_without_a_peak_above_nu_min(self):
        logmag = -(self.NU - 2.2) ** 2
        with pytest.raises(ValueError, match="^no spectral peak above nu = 2.3$"):
            dominant_peak(corr.G2Spectrum(self.NU, logmag), nu_min=2.3)
        with pytest.raises(ValueError, match="^no spectral peak above nu = 0.0$"):
            dominant_peak(corr.G2Spectrum(self.NU, -self.NU))


class TestDefaultTauGrid:
    def test_grid_wherever_stability_finds_damping(self):
        # one eigensolver with ``stability``: at omega = omega0 = 1e-3 and
        # kappa = 1e5 it resolves a soft-mode damping near 1e-13
        p = DickeParams(1e-3, 1e-3, 1.0, 0.0, 1e5, 1e5)
        for f in (0.1, 0.5, 0.9):
            q = p.with_coupling(f * mfd.critical_coupling(p))
            _, m = corr._resolve_operating_point(q)
            assert fl.stability(m, q.omega0) == "stable"
            assert corr.default_tau_grid(q, m)[-1] > 0.0
        # decoupled at lam = 0, the atomic mode is not damped at all
        with pytest.raises(corr.ThresholdError, match="^the soft mode is undamped to rounding"):
            corr.default_tau_grid(params(lam=0.0))

    @pytest.mark.parametrize("w, kappa, w0", [
        (22.28181113744107, 10940248.372354899, 0.01871820118990345),
        (51.534566579969606, 2356782.221339923, 0.032787253751198966)])
    def test_rounding_growth_is_refused_by_the_grid_alone(self, w, kappa, w0):
        # at 0.1 lam_c the eigensolve reads growth of +1.8e-10 and +9.4e-12,
        # rounding of entries near 1e7 and 2e6: marginal, so the moments are
        # given, and the grid refuses a soft mode it cannot see damped
        p = DickeParams(w, w0, 1.0, 0.0, kappa, 1e5)
        q = p.with_coupling(0.1 * mfd.critical_coupling(p))
        _, m = corr._resolve_operating_point(q)
        assert float(np.max(fl._eigenvalues(m).real)) > 1e-12 * w0
        assert fl.stability(m, w0) == "marginal"
        assert np.isfinite(corr.steady_moments(q, m).values).all()
        with pytest.raises(corr.ThresholdError, match="^the soft mode is undamped to rounding"):
            corr.default_tau_grid(q, m=m)

    def test_resolves_envelope_and_oscillation(self):
        q = params(lam=0.7 * LC)
        tau = corr.default_tau_grid(q)
        dt = tau[1] - tau[0]
        assert math.pi / dt > 4.0        # Nyquist margin above 2 omega0
        m = fl.dynamical_matrix(
            fl.hp_coefficients(mfd.trivial_state(q), q), q)
        gamma = -float(np.max(np.linalg.eigvals(m).real))
        # the g2 envelope (squared correlators) decays at 2*gamma
        assert 2.0 * gamma * tau[-1] > 8.0
