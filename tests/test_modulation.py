"""Mathieu reduction, Floquet stability and driven response maps."""

import concurrent.futures
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from opendicke import meanfield as mfd
from opendicke import modulation as mod
from opendicke.fluctuations import soft_mode_perturbative
from opendicke.params import DickeParams

OMEGA, KAPPA = 300.0, 200.0


def params(lam=0.0, lam_prime=0.0, n=1e5):
    return DickeParams(OMEGA, 1.0, lam, lam_prime, KAPPA, n)


LC = mfd.critical_coupling(params())


class TestAdiabaticEquation:
    def test_origin_is_fixed_point(self):
        assert mod.adiabatic_beta_rhs(0j, 5.0, params()) == 0

    def test_bare_precession_without_drive(self):
        val = mod.adiabatic_beta_rhs(0.3 + 0j, 0.0, params())
        assert val == pytest.approx(-1j * 0.3)

    def test_bloch_sphere_guard(self):
        with pytest.raises(ValueError, match="Bloch"):
            mod.adiabatic_beta_rhs(0.6 + 0j, 5.0, params())

    def test_adiabatic_regime_guard(self):
        slow_cavity = DickeParams(300.0, 1.0, 5.0, 0.0, 5.0, 1e5)
        with pytest.raises(ValueError, match="adiabatic"):
            mod.adiabatic_beta_rhs(0.1 + 0j, 5.0, slow_cavity)

    def test_linearization_reproduces_mathieu_frequency(self):
        # the Jacobian at the origin must oscillate at omega0 sqrt(A)
        p = params()
        lam = 0.8 * LC
        h = 1e-7

        def rhs_vec(z):
            val = mod.adiabatic_beta_rhs(complex(z[0], z[1]), lam, p)
            return np.array([val.real, val.imag])

        jac = np.empty((2, 2))
        for j in range(2):
            zp, zm = np.zeros(2), np.zeros(2)
            zp[j], zm[j] = h, -h
            jac[:, j] = (rhs_vec(zp) - rhs_vec(zm)) / (2 * h)
        eigs = np.linalg.eigvals(jac)
        a = 1.0 - (lam / LC) ** 2
        assert np.allclose(sorted(eigs.imag), [-math.sqrt(a), math.sqrt(a)],
                           atol=1e-5)
        assert np.allclose(eigs.real, 0.0, atol=1e-5)


class TestMathieuFloquet:
    def test_undriven_oscillator_is_stable(self):
        cfg = mod.ModulationConfig(0.5 * LC, 1e-9, 1.0, 1.0, LC)
        res = mod.mathieu_floquet(cfg)
        assert not res.unstable
        assert abs(res.mu.real) < 1e-10

    def test_monodromy_determinant_is_one(self):
        for nu in (0.7, 1.2, 1.9):
            cfg = mod.ModulationConfig(0.8 * LC, 1.0 / 50.0, nu, 1.0, LC)
            res = mod.mathieu_floquet(cfg)
            assert abs(np.linalg.det(res.monodromy) - 1.0) < 1e-8

    def test_principal_resonance_is_unstable(self):
        lam = 0.8 * LC
        nu_res = 2.0 * math.sqrt(1.0 - (lam / LC) ** 2)
        res = mod.mathieu_floquet(mod.ModulationConfig(lam, 1.0 / 50.0, nu_res, 1.0, LC))
        assert res.unstable
        assert res.mu.real > 0

    def test_detuned_drive_is_stable(self):
        lam = 0.8 * LC
        cfg = mod.ModulationConfig(lam, 1.0 / 50.0, 1.6, 1.0, LC)
        res = mod.mathieu_floquet(cfg)
        assert not res.unstable
        assert abs(res.mu.real) < 1e-10

    def test_tongue_boundary_matches_textbook_chart(self):
        # principal tongue of u'' + [a - 2q cos 2T] u = 0 spans a = 1 -+ q;
        # locate the upper boundary in nu by bisection and compare
        lam = 0.8 * LC
        eps = 1.0 / 50.0
        cfg0 = mod.ModulationConfig(lam, eps, 1.0, 1.0, LC)
        a, q = cfg0.mathieu_a, cfg0.eps_tilde

        def unstable(nu):
            return mod.mathieu_floquet(
                mod.ModulationConfig(lam, eps, nu, 1.0, LC)).unstable

        lo, hi = 2.0 * math.sqrt(a), 2.0 * math.sqrt(a) + 0.1
        assert unstable(lo) and not unstable(hi)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if unstable(mid) else (lo, mid)
        # nu_edge = 2 sqrt(A + q) + O(q^2)
        expected = 2.0 * math.sqrt(a + q)
        assert abs(0.5 * (lo + hi) - expected) < q ** 2 * 10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            mod.ModulationConfig(1.0, 0.5, 1.0, 1.0, LC)
        with pytest.raises(ValueError):
            mod.ModulationConfig(1.0, 0.01, -1.0, 1.0, LC)


class TestFloquetExponents:
    def test_linearization_is_the_jacobian_of_the_cell_rhs(self):
        p = params()
        lam, eps, nu, t, h = 0.8 * LC, 0.02, 1.3, 0.7, 1e-7
        a0, a1 = mod._linearization(p, lam, eps)
        jac = np.empty((4, 4))
        for j in range(4):
            dy = np.zeros(4)
            dy[j] = h
            jac[:, j] = (np.array(mod._scaled_rhs(t, dy, p, lam, eps, nu))
                         - np.array(mod._scaled_rhs(t, -dy, p, lam, eps, nu))) / (2 * h)
        assert np.allclose(jac, a0 + a1 * math.cos(nu * t), rtol=1e-7, atol=1e-7)

    def test_off_resonant_rate_is_the_polariton_damping(self):
        p = params()
        lam = 0.8 * LC
        modes = mod.floquet_exponents(*mod._linearization(p, lam, 0.02), 1.6)
        r = (lam / LC) ** 2
        damping = KAPPA * p.omega0 ** 2 * r / (OMEGA ** 2 + KAPPA ** 2)
        assert -np.max(modes.mu.real) == pytest.approx(damping, rel=1e-3)

    @pytest.mark.parametrize("frac, nu", [(0.8, 1.6), (0.8, 1.225), (0.6, 0.9),
                                          (0.9, 0.85), (0.525, 2.15)])
    def test_rates_do_not_move_when_harmonics_double(self, frac, nu):
        a0, a1 = mod._linearization(params(), frac * LC, 0.02)
        h = mod.HILL_HARMONICS
        short = mod.floquet_exponents(a0, a1, nu, h)
        long = mod.floquet_exponents(a0, a1, nu, 2 * h)
        assert np.max(np.abs(np.sort(short.mu.real) - np.sort(long.mu.real))) < 1e-10

    def test_slow_modulation_widens_the_truncation(self):
        # at nu = 0.02 the Floquet vectors of the Mathieu oscillator spread
        # over more than 8 harmonics; the truncation must grow, not give up
        cfg = mod.ModulationConfig(0.8 * LC, 0.02, 0.02, 1.0, LC)
        a, et = cfg.mathieu_a, cfg.eps_tilde
        modes = mod.floquet_exponents(np.array([[0.0, 1.0], [-a, 0.0]]),
                                      np.array([[0.0, 0.0], [2.0 * et, 0.0]]), 0.02)
        assert modes.vectors.shape[1] > 2 * mod.HILL_HARMONICS + 1
        res = mod.mathieu_floquet(cfg)
        assert not res.unstable and abs(res.mu.real) < 1e-10

    def test_fine_scan_flags_only_the_resonant_cell(self):
        # criterion 8's fine scan: only nu = 1.2 lies in the principal tongue;
        # every cell stabilizes, the off-resonant ones by decaying and the
        # resonant one by saturating
        p = params(lam=0.8 * LC)
        nu_scan = np.linspace(0.9, 1.5, 25)
        unstable = [np.max(mod.floquet_exponents(
            *mod._linearization(p, 0.8 * LC, 0.02), float(nu)).mu.real) > 0
            for nu in nu_scan]
        assert np.flatnonzero(unstable).tolist() == [12]
        scan = mod.driven_response_map(p, [0.8 * LC], nu_scan, eps=0.02)
        assert scan.stabilized.all()

    @pytest.mark.parametrize("nu", [1.6, 1.26, 1.35])   # off and near the ridge
    def test_stable_cell_matches_a_tight_nonlinear_reference(self, nu):
        p = params(lam=0.8 * LC)
        lam, eps, seed, t_max = 0.8 * LC, 0.02, 1e-4, 150.0
        cell = mod._solve_cell((p, lam, nu, eps, seed, t_max))
        t = np.linspace(0.5 * t_max, t_max, 4096)
        ref = solve_ivp(mod._scaled_rhs, (0.0, t_max), [seed, 0.0, seed, 0.0],
                        method="DOP853", rtol=1e-11, atol=1e-16, t_eval=t,
                        args=(p, lam, eps, nu))
        assert ref.success
        assert cell.max_alpha2 == pytest.approx(
            np.max(ref.y[0] ** 2 + ref.y[1] ** 2), rel=1e-5)
        assert cell.max_re_beta == pytest.approx(np.max(ref.y[2]), rel=1e-5)

    def test_integrated_cells_still_call_the_integrator(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["method"])
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(mod, "solve_ivp", counted)
        lam = 0.8 * LC
        stable = (params(lam=lam), lam, 1.6, 0.02, 1e-4, 200.0)
        mod._solve_cell(stable)
        assert calls == []
        mod._solve_cell((params(lam=lam, lam_prime=1e-3), *stable[1:]))
        assert calls == ["LSODA"]
        mod._solve_cell((params(lam=lam), lam, 1.2, 0.02, 1e-4, 200.0))
        assert calls == ["LSODA"] * 2          # inside the resonance tongue
        mod._solve_cell((params(lam=lam), lam, 1.6, 0.02, 0.3, 200.0))
        assert calls == ["LSODA"] * 3          # seed outside the linear regime
        near = (params(lam=lam), lam, 1.35, 0.02, 1e-4, 200.0)
        a0, a1 = mod._linearization(near[0], lam, 0.02)
        assert np.max(mod.floquet_exponents(a0, a1, 1.35).mu.real) < 0.0
        mod._solve_cell(near)
        assert calls == ["LSODA"] * 3          # stable near the ridge: evaluated

    @pytest.mark.parametrize("workers, cpus, cells, started", [
        (100000, 64, 1, None),      # one cell runs in this process
        (100000, 64, 3, 3),         # capped by the cells
        (100000, 2, 3, 2),          # capped by the CPU count
        (2, 64, 3, 2),
        (100000, 1, 3, None),
        (1, 64, 3, None),
    ])
    def test_worker_processes_are_capped(self, monkeypatch, workers, cpus, cells,
                                         started):
        created = []

        class RecordingExecutor:
            """Records max_workers and maps in this process; starts nothing."""

            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        lam = 0.8 * LC
        p, nu = params(lam=lam), np.linspace(1.6, 1.8, cells)
        serial = mod.driven_response_map(p, [lam], nu, t_max=150.0)
        # the executor is imported where it is used, only when processes > 1
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(mod.os, "cpu_count", lambda: cpus)
        rmap = mod.driven_response_map(p, [lam], nu, t_max=150.0, workers=workers)
        assert created == ([] if started is None else [started])
        for field in ("max_alpha2", "max_re_beta", "stabilized"):
            assert np.array_equal(getattr(rmap, field), getattr(serial, field))


class TestInstabilityBoundary:
    def test_resonance_at_eighty_percent(self):
        assert mod.instability_boundary(params(), 0.8 * LC) == pytest.approx(1.2)

    def test_resonance_at_zero_coupling(self):
        assert mod.instability_boundary(params(), 0.0) == pytest.approx(2.0)

    def test_above_threshold_rejected(self):
        with pytest.raises(ValueError):
            mod.instability_boundary(params(), 1.2 * LC)

    def test_consistency_chain(self):
        # the resonance law, twice the leading-order soft-mode energy and
        # the g2 spectral-peak law are one identical function of lam
        p = params()
        for lam in np.linspace(0.05, 0.9, 10) * LC:
            nu_res = mod.instability_boundary(p, float(lam))
            leading = 2.0 * math.sqrt(1.0 - (lam / LC) ** 2)
            assert nu_res == pytest.approx(leading, rel=1e-12)
        # and the full perturbative expression only deviates at O(eps)
        lam = 0.8 * LC
        assert mod.instability_boundary(p, lam) == pytest.approx(
            2.0 * soft_mode_perturbative(p, lam).real, rel=1e-4)

    def test_floquet_scan_peaks_at_resonance(self):
        p = params()
        lam = 0.7 * LC
        eps_t = mod.ModulationConfig(lam, 1.0 / 50.0, 1.0, 1.0, LC).eps_tilde
        nu_grid = np.linspace(1.2, 1.7, 101)
        growth = [mod.mathieu_floquet(
            mod.ModulationConfig(lam, 1.0 / 50.0, float(nu), 1.0, LC)).mu.real
            for nu in nu_grid]
        nu_star = nu_grid[int(np.argmax(growth))]
        assert abs(nu_star - mod.instability_boundary(p, lam)) < eps_t


class TestDrivenResponse:
    def test_resonant_cell_grows_and_stabilizes(self):
        p = params(lam=0.8 * LC)
        rmap = mod.driven_response_map(p, [0.8 * LC], [1.2], eps=1.0 / 50.0)
        assert rmap.max_re_beta[0, 0] > 1e-2      # far above the 1e-4 seed
        assert bool(rmap.stabilized[0, 0])

    def test_off_resonant_cell_stays_at_seed_level(self):
        p = params(lam=0.5 * LC)
        rmap = mod.driven_response_map(p, [0.5 * LC], [2.5], eps=1.0 / 50.0)
        assert rmap.max_alpha2[0, 0] < 1e-6
        assert rmap.max_re_beta[0, 0] < 1e-4

    def test_undriven_seed_decays(self):
        # without modulation the seed contracts to the normal phase; the
        # contraction rate is the slow soft-mode damping, so use a long run
        p = params(lam=0.8 * LC)
        traj = mod.driven_trajectory(p, 0.8 * LC, 1.2, eps=1e-12, seed=1e-4,
                                     t_max=6000.0, n_samples=64)
        end = traj.states[-1]
        assert max(abs(end.alpha), abs(end.beta)) < 1e-2 * 1e-4

    def test_seed_parity_invariance(self):
        p = params(lam=0.7 * LC)
        cell = (p, 0.7 * LC, 1.43, 1.0 / 50.0, 1e-4, 500.0)
        flipped = (p, 0.7 * LC, 1.43, 1.0 / 50.0, -1e-4, 500.0)
        a = mod._solve_cell(cell)
        b = mod._solve_cell(flipped)
        assert a.max_alpha2 == pytest.approx(b.max_alpha2, rel=1e-6)

    def test_growth_flagged_when_not_stabilized(self):
        p = params(lam=0.9 * LC)
        nu_res = mod.instability_boundary(p, 0.9 * LC)
        rmap = mod.driven_response_map(p, [0.9 * LC], [nu_res], eps=1.0 / 50.0,
                                       t_max=300.0)
        assert not bool(rmap.stabilized[0, 0])

    @settings(max_examples=300, deadline=None)
    @given(t=st.floats(0, 4000), ar=st.floats(-1, 1), ai=st.floats(-1, 1),
           br=st.floats(-0.6, 0.6), bi=st.floats(-0.6, 0.6),
           lam0=st.floats(0, 20), eps=st.floats(0, 0.19), nu=st.floats(0.01, 5),
           omega=st.floats(1, 500), omega0=st.floats(0.1, 5),
           kappa=st.floats(0, 400), lam_prime=st.floats(-0.5, 0.5))
    def test_scaled_rhs_is_the_per_atom_mean_field_rhs(
            self, t, ar, ai, br, bi, lam0, eps, nu, omega, omega0, kappa, lam_prime):
        # the response-map kernel must equal the public equations of motion
        # bit for bit at N = 1, with the driven coupling lam0 (1 + eps cos(nu
        # t)) and w on its negative root; the kernel itself does not use N
        p = DickeParams(omega, omega0, lam0, lam_prime, kappa, 1e5)
        w = -math.sqrt(max(0.25 - (br * br + bi * bi), 0.0))
        driven = DickeParams(omega, omega0, lam0 * (1 + eps * math.cos(nu * t)),
                             lam_prime, kappa, 1.0)
        rates = mfd.eom_rhs(mfd.MeanFieldState(complex(ar, ai), complex(br, bi), w),
                            driven)
        expected = [rates.alpha.real, rates.alpha.imag, rates.beta.real, rates.beta.imag]
        got = mod._scaled_rhs(t, np.array([ar, ai, br, bi]), p, lam0, eps, nu)
        assert np.array(got).tobytes() == np.array(expected).tobytes()

    def test_trajectory_states_stay_on_bloch_sphere(self):
        p = params(lam=0.8 * LC)
        traj = mod.driven_trajectory(p, 0.8 * LC, 1.2, t_max=400.0,
                                     n_samples=256)
        for s in traj.states:
            assert abs(s.beta) ** 2 + s.w ** 2 == pytest.approx(0.25, abs=1e-9)
