"""Moment system, two-time correlators, g2 and its spectrum."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from opendicke import correlations as corr
from opendicke import fluctuations as fl
from opendicke import meanfield as mfd
from opendicke.params import DickeParams

from util import alternation_ratio, loglog_slope, refined_peak_heights

OMEGA, KAPPA = 300.0, 200.0


def params(lam=0.0, lam_prime=0.0, n=1e5):
    return DickeParams(OMEGA, 1.0, lam, lam_prime, KAPPA, n)


LC = mfd.critical_coupling(params())


class TestSteadyMoments:
    def test_empty_cavity(self):
        m = corr.steady_moments(params(lam=0.0))
        assert np.allclose(m.values, 0.0, atol=1e-15)

    def test_closed_forms_across_grid(self):
        p = params()
        for lam in np.linspace(0.05, 0.995, 20) * LC:
            q = p.with_coupling(float(lam))
            m = corr.steady_moments(q)
            n_c = corr.photon_number_closed_form(q)
            cc = corr.cc_closed_form(q)
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
        n_gs = [corr.ground_state_photon_number(p, float((1 - ui) * lc_closed))
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
            ratios.append(corr.ground_state_photon_number(p, lam)
                          / corr.photon_number_closed_form(p, lam))
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

    def test_biased_grid_agrees_with_the_points_alone(self):
        # the stack continues each state from the last; alone each is solved afresh
        p = params(lam_prime=0.025, n=1e6)
        lam = np.linspace(0.5, 1.5 * LC, 150)
        alone = np.array([corr.photon_flux(p.with_coupling(x)) for x in lam.tolist()])
        assert np.max(np.abs(corr.photon_flux(p, lam) / alone - 1.0)) < 1e-12

    @pytest.mark.parametrize("lam", [
        [2.0, 9.0, LC, 12.0], [2.0, LC * (1 - 1e-8)], [1e-170, 20.0], [-1.0, 2.0]],
        ids=["at-threshold", "near-threshold", "singular-before-threshold", "negative"])
    def test_grid_raises_what_the_first_failing_point_raises(self, lam):
        p = params()
        with pytest.raises(ValueError if lam[0] < 0 else corr.ThresholdError) as alone:
            for x in lam:
                corr.photon_flux(p.with_coupling(x))
        with pytest.raises(type(alone.value), match=f"^{re.escape(str(alone.value))}$"):
            corr.photon_flux(p, lam)

    def test_ground_state_guards(self):
        with pytest.raises(ValueError, match="threshold"):
            corr.ground_state_photon_number(params(), 0.6 * math.sqrt(OMEGA))
        with pytest.raises(ValueError, match="omega0/omega"):
            corr.ground_state_photon_number(
                DickeParams(2.0, 1.0, 0.1, 0.0, 1.0, 10), 0.1)


class TestTwoTimeCorrelations:
    def test_tau_zero_reproduces_moments(self):
        # the contour-integrated correlators at tau = 0 must agree with the
        # independent Lyapunov steady solve
        q = params(lam=0.7 * LC)
        m = corr.steady_moments(q)
        tau = np.linspace(0.0, 5.0, 16)
        s = corr.two_time_correlations(q, tau, method="frequency")
        assert abs(s.cdagc_tau[0] - m.photon_number) < 1e-9 * m.photon_number
        assert abs(s.cc_tau[0] - m.cc) < 1e-9 * abs(m.cc)

    @pytest.mark.parametrize("lam", [6.0, 9.0])
    def test_tau_zero_reproduces_biased_moments(self, lam):
        # with a bias g1 != 0, so the g1 entries of M count
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
        tau = corr.default_tau_grid(q, m=m)
        mu, amp = corr._residues(m, q.kappa)
        direct = np.exp(np.outer(tau, mu)) @ amp.T
        sampled = np.column_stack(corr._correlators_frequency(m, q.kappa, tau))
        assert np.max(np.abs(sampled - direct)) <= 2e-12 * np.max(np.abs(direct))

    def test_frequency_route_takes_two_small_tables_of_exponentials(self, monkeypatch):
        q = params(lam=6.0)
        _, m = corr._resolve_operating_point(q)
        sizes, exp = [], np.exp
        monkeypatch.setattr(np, "exp", lambda x: sizes.append(np.size(x)) or exp(x))
        corr._correlators_frequency(m, q.kappa, np.linspace(0.0, 50.0, 2 ** 14))
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
        tau = corr.default_tau_grid(q, n=2 ** 12)
        s = corr.two_time_correlations(q, tau)
        env = np.abs(s.cdagc_tau)
        m = fl.dynamical_matrix(
            fl.hp_coefficients(mfd.trivial_state(q), q), q)
        gamma = -float(np.max(np.linalg.eigvals(m).real))
        # exponential fit on the oscillation peaks
        peaks = [(t, v) for t, v in zip(tau, env)
                 if v == max(env[max(0, list(tau).index(t) - 8):
                             list(tau).index(t) + 8])]
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

    def test_spectrum_peak_tracks_soft_mode(self):
        for frac in (0.4, 0.7, 0.9):
            q = params(lam=frac * LC)
            tau = corr.default_tau_grid(q)
            s = corr.two_time_correlations(q, tau)
            spec = corr.g2_spectrum(s)
            peak = spec.dominant_peak(nu_min=0.2)
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
            peak = spec.dominant_peak(nu_min=0.2)
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
            spec.dominant_peak(nu_min=0.2)

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


class TestDefaultTauGrid:
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
