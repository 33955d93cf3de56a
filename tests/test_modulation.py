"""Floquet stability of the full linearization and driven response maps.

The reduced Mathieu oscillator's claims (soft-mode frequency, principal
tongue, slow modulation, resonance scan) are asserted on the exponents of
``modulation._linearization``, the one Floquet model.
"""

import concurrent.futures
import math
import warnings
from datetime import timedelta
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from opendicke import _solvers
from opendicke import meanfield as mfd
from opendicke.figures import FIGURE_PARAMS
from opendicke import modulation as mod
from opendicke.params import DickeParams, ParameterError

from util import (KAPPA, LC, ODEPACK_ERROR, OMEGA, dop853_reference, eom_rhs, failing_odeint,
                  instability_boundary, params, soft_mode_perturbative)


def max_rate(frac, nu):
    """Largest Re mu of the full linearization at lam = frac lam_c, eps = 0.02."""
    modes = mod.floquet_exponents(*mod._linearization(params(), frac * LC, 0.02), nu)
    return float(np.max(modes.mu.real))


FIG4 = FIGURE_PARAMS["fig4"]
#: (lam, nu) of every cell of the fig4 map; its parameters are params()'s
FIG4_CELLS = [(lam, nu) for lam in np.linspace(*FIG4["lam_over_lc"], FIG4["map_points"]) * LC
              for nu in np.linspace(*FIG4["nu_over_omega0"], FIG4["map_points"])]


def hill_calls(monkeypatch) -> list:
    """The truncation of each ``_hill_modes`` call from here on."""
    calls, hill = [], mod._hill_modes

    def counted(a0, half, nu, harmonics):
        calls.append(harmonics)
        return hill(a0, half, nu, harmonics)

    monkeypatch.setattr(mod, "_hill_modes", counted)
    return calls


def modulo_gap(a, b, nu):
    """|a_i - b_j| with the imaginary part taken modulo nu, shape (len a, len b)."""
    gap = np.subtract.outer(a, b)
    return np.hypot(gap.real, np.remainder(gap.imag + nu / 2, nu) - nu / 2)


class TestAdiabaticEquation:
    """What adiabatic elimination (kappa >> omega0) predicts, on the full kernel."""

    def test_origin_is_fixed_point(self):
        rates = mod._scaled_rhs(0.7, np.zeros(4), params(), 5.0, 0.02, 1.3)
        assert rates == [0.0] * 4

    def test_bare_precession_without_drive(self):
        # at lam = 0, d beta/dt = -i omega0 beta and the cavity stays empty
        rates = mod._scaled_rhs(0.7, np.array([0.0, 0.0, 0.3, 0.0]), params(),
                                0.0, 0.02, 1.3)
        assert rates == pytest.approx([0.0, 0.0, 0.0, -0.3], abs=1e-15)

    def test_linearization_reproduces_mathieu_frequency(self):
        # the soft pair of A0 oscillates at omega0 sqrt(A), A = 1 - (lam/lam_c)^2
        for frac in np.linspace(0.1, 0.9, 9):
            a0, _ = mod._linearization(params(), frac * LC, 0.02)
            soft = np.sort(np.abs(np.linalg.eigvals(a0).imag))[:2]
            assert soft == pytest.approx([math.sqrt(1.0 - frac ** 2)] * 2, rel=1e-5)


class TestMathieuFloquet:
    """The soft mode's Mathieu tongue, on the full Floquet exponents.

    The reduced oscillator u'' + [A - 2q cos(nu t)] u = 0 has A = 1 -
    (lam/lam_c)^2 and q = (lam/lam_c)^2 eps; the full model adds the
    polariton damping, which narrows the tongue.
    """

    def test_undriven_oscillator_is_stable(self):
        a0, a1 = mod._linearization(params(), 0.5 * LC, 1e-9)
        modes = mod.floquet_exponents(a0, a1, 1.0)
        assert np.max(modes.mu.real) < 0.0
        assert np.allclose(np.sort(modes.mu.real), np.sort(np.linalg.eigvals(a0).real),
                           rtol=0.0, atol=1e-9)

    def test_principal_resonance_is_unstable(self):
        assert max_rate(0.8, 2.0 * math.sqrt(1.0 - 0.8 ** 2)) > 0.0

    def test_detuned_drive_is_stable(self):
        assert max_rate(0.8, 1.6) < 0.0

    def test_tongue_boundary_matches_textbook_chart(self):
        # the principal tongue spans A -+ q; locate its upper edge in nu by
        # bisection: nu_edge = 2 sqrt(A + q) + O(q^2)
        frac = 0.8
        a, q = 1.0 - frac ** 2, frac ** 2 * 0.02
        lo, hi = 2.0 * math.sqrt(a), 2.0 * math.sqrt(a) + 0.1
        assert max_rate(frac, lo) > 0.0 and max_rate(frac, hi) < 0.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if max_rate(frac, mid) > 0.0 else (lo, mid)
        assert abs(0.5 * (lo + hi) - 2.0 * math.sqrt(a + q)) < q ** 2 * 10


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
        # and it is the closed form exactly, at lam = 0 and with lam' held at 0
        for q, lam, eps in [(p, lam, eps), (p, 0.0, 0.02), (params(lam_prime=0.08), 0.95 * LC, 0.1),
                            (DickeParams(37.5, 2.25, 0.0, -0.3, 0.7, 1e4), 1.3, 0.15)]:
            a0, a1 = mod._linearization(q, lam, eps)
            assert np.array_equal(a0, [[-q.kappa, q.omega, 0.0, 0.0],
                                       [-q.omega, -q.kappa, -2.0 * lam, 0.0],
                                       [0.0, 0.0, 0.0, q.omega0],
                                       [-2.0 * lam, 0.0, -q.omega0, 0.0]])
            closed = np.zeros((4, 4))
            closed[1, 2] = closed[3, 0] = -2.0 * lam * eps
            assert np.array_equal(a1, closed)

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
        short = mod._hill_modes(a0, 0.5 * a1, nu, h)
        long = mod._hill_modes(a0, 0.5 * a1, nu, 2 * h)
        assert np.max(np.abs(np.sort(short.mu.real) - np.sort(long.mu.real))) < 1e-10
        # Liouville: the exponents sum to tr A(t) = tr A0 = -2 kappa modulo i nu
        trace = np.trace(a0)
        assert trace == -2.0 * KAPPA
        for modes in (short, long):
            assert abs(np.sum(modes.mu.real) - trace) <= 1e-12 * abs(trace)
            assert abs(math.remainder(np.sum(modes.mu.imag), nu)) < 1e-9

    @pytest.mark.parametrize("field, bad", [(0, 1e-3j), (1, 1e-3j), (0, math.nan),
                                            (1, math.inf)])
    def test_complex_or_non_finite_matrices_rejected(self, field, bad):
        # the real Hill form would drop an imaginary part without a word
        pair = [m.astype(complex) for m in mod._linearization(params(), 0.8 * LC, 0.02)]
        mod.floquet_exponents(*pair, 1.6)            # zero imaginary parts pass
        pair[field][1, 2] += bad
        with pytest.raises(ValueError):
            mod.floquet_exponents(*pair, 1.6)

    @pytest.mark.parametrize("frac, nu", [(f, nu) for f in np.linspace(0.5, 0.95, 6)
                                          for nu in np.linspace(0.6, 2.2, 6)]
                             + [(0.8, 0.02)])
    def test_real_form_matches_the_complex_hill_matrix(self, frac, nu):
        a0, a1 = mod._linearization(params(), frac * LC, 0.02)
        modes = mod.floquet_exponents(a0, a1, nu)
        h = (modes.vectors.shape[1] - 1) // 2
        # the complex Hill matrix, blocks c_-H .. c_H
        size, d = 2 * h + 1, a0.shape[0]
        hill = np.zeros((size, d, size, d), dtype=complex)
        for k, n in enumerate(range(-h, h + 1)):
            hill[k, :, k, :] = a0 - 1j * n * nu * np.eye(d)
            if k > 0:
                hill[k, :, k - 1, :] = hill[k - 1, :, k, :] = a1 / 2
        mu_ref, vec_ref = np.linalg.eig(hill.reshape(size * d, size * d))
        weight = np.sum(np.abs(vec_ref.reshape(size, d, -1)) ** 2, axis=1)
        centre = np.arange(-h, h + 1) @ weight / np.sum(weight, axis=0)
        kept = []                         # the best-centred copy of each exponent
        for i in np.argsort(np.abs(centre)):
            if not kept or np.min(modulo_gap(mu_ref[[i]], mu_ref[kept], nu)) > 1e-9:
                kept.append(i)
        # the same exponents modulo i nu; which copy is kept may differ where
        # two copies are centred equally, as at (0.95 lam_c, nu = 0.6)
        gap = modulo_gap(mu_ref[kept[:d]], modes.mu, nu)
        tol = 1e-12 * np.max(np.abs(modes.mu))
        assert np.max(np.min(gap, axis=0)) <= tol and np.max(np.min(gap, axis=1)) <= tol

    # 4096 = 64^2 fills the m x m grid of the two tables, 1000, 65 and 4097
    # end inside it, and 1 and 2 samples use one row of the coarse table
    @pytest.mark.parametrize("samples", [4096, 1000, 1, 2, 65, 4097])
    @pytest.mark.parametrize("start", [1000.0, 0.0])
    @pytest.mark.parametrize("frac, nu", [(0.8, 1.6), (0.9, 1.3), (0.8, 0.02)])
    def test_exponential_table_sampling_matches_horner(self, frac, nu, start, samples):
        p, lam, seed = params(), frac * LC, 1e-4
        t = np.linspace(start, 2000.0, samples)
        y = mod._linear_response(p, lam, nu, 0.02, seed, start, 2000.0, samples)
        modes = mod.floquet_exponents(*mod._linearization(p, lam, 0.02), nu)
        c = np.linalg.solve(modes.vectors.sum(axis=1).T, [seed, 0.0, seed, 0.0])
        h = (modes.vectors.shape[1] - 1) // 2
        z = np.exp(1j * nu * t)[:, None]
        ref = np.zeros((4, samples))
        for c_j, mu_j, v_j in zip(c, modes.mu, modes.vectors):
            periodic = np.zeros((samples, 4), dtype=complex)
            for v_n in v_j[::-1]:        # Horner: sum_n v_jn z^(n + H)
                periodic = periodic * z + v_n
            ref += (c_j * np.exp((mu_j - 1j * h * nu) * t) * periodic.T).real
        assert np.max(np.abs(y - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_every_fig4_cell_resolves_at_the_start(self, monkeypatch):
        calls = hill_calls(monkeypatch)
        for lam, nu in FIG4_CELLS:
            mod.floquet_exponents(*mod._linearization(params(), lam, FIG4["eps"]), nu)
        assert calls == [mod.HILL_HARMONICS] * 400

    @pytest.mark.parametrize("nu, tried", [(1.6, [6]), (0.1, [6, 8]), (0.02, [6, 8, 16]),
                                           (0.002, [6, 8, 16, 32]),
                                           (0.001, [6, 8, 16, 32, 64])])
    def test_truncations_are_tried_in_turn(self, monkeypatch, nu, tried):
        calls = hill_calls(monkeypatch)
        modes = mod.floquet_exponents(*mod._linearization(params(), 0.8 * LC, 0.02), nu)
        assert calls == tried
        assert modes.vectors.shape[1] == 2 * tried[-1] + 1

    def test_too_slow_a_modulation_gives_up_at_64_harmonics(self, monkeypatch):
        calls = hill_calls(monkeypatch)
        with pytest.raises(mod.FloquetError, match="64 harmonics .* at nu = 0.0001$"):
            mod.floquet_exponents(*mod._linearization(params(), 0.8 * LC, 0.02), 1e-4)
        assert calls == [6, 8, 16, 32, 64]

    def test_fig4_maxima_at_the_start_match_twice_the_start(self, monkeypatch):
        # both truncations pass the edge test at every cell, so what separates
        # them is rounding: max Re beta moves by at most 4.3e-10 relative and
        # max |alpha|^2 by 1.5e-9, at (0.926 lam_c, 0.684 omega0), where it
        # scatters over 3.3e-9 as H runs from 7 to 24
        t_max = mod._span(params(), None)
        maxima = {}
        for harmonics in (mod.HILL_HARMONICS, 2 * mod.HILL_HARMONICS):
            monkeypatch.setattr(mod, "_TRUNCATIONS", (harmonics,))
            cells = [mod._linear_response(params(), lam, nu, FIG4["eps"], 1e-4, 0.5 * t_max,
                                          t_max, mod.DRIVEN_SAMPLES) for lam, nu in FIG4_CELLS]
            maxima[harmonics] = np.array([[np.max(y[0] ** 2 + y[1] ** 2), np.max(y[2])]
                                          for y in cells if y is not None])
        short, long = maxima.values()
        assert len(short) == 389               # fig4 integrates the other 11 cells
        spread = np.max(np.abs(short / long - 1.0), axis=0)
        assert spread[0] <= 2e-9 and spread[1] <= 1e-9

    @settings(max_examples=60, deadline=timedelta(seconds=5), database=None)
    @given(nu=st.sampled_from([math.nan, math.inf, 1e-300, 1e300]) | st.floats(max_value=0.0)
           | st.floats(0.05, 5.0))
    def test_any_nu_gives_finite_exponents_or_a_refusal(self, nu):
        a0, a1 = mod._linearization(params(), 0.8 * LC, 0.02)
        if not 0.0 < nu < math.inf:
            # refused before any Hill solve, naming nu
            with mock.patch.object(mod, "_hill_modes", side_effect=AssertionError):
                with pytest.raises(ValueError, match=r"^nu must be positive and finite"):
                    mod.floquet_exponents(a0, a1, nu)
            return
        try:
            modes = mod.floquet_exponents(a0, a1, nu)
        except mod.FloquetError as exc:
            assert str(exc)
            return
        assert modes.mu.shape == (4,) and np.all(np.isfinite(modes.mu))
        assert np.all(np.isfinite(modes.vectors))

    def test_slow_modulation_widens_the_truncation(self):
        # at nu = 0.02 the Floquet vectors spread past the first truncations,
        # 6 and 8 harmonics; the truncation must grow, not give up
        modes = mod.floquet_exponents(*mod._linearization(params(), 0.8 * LC, 0.02), 0.02)
        assert modes.vectors.shape[1] > 2 * mod.HILL_HARMONICS + 1
        assert np.max(modes.mu.real) < 0.0

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
        ref = dop853_reference(mod._scaled_rhs, (0.0, t_max), [seed, 0.0, seed, 0.0], t,
                               rtol=1e-11, atol=1e-16, args=(p, lam, eps, nu))
        assert cell.max_alpha2 == pytest.approx(np.max(ref[0] ** 2 + ref[1] ** 2), rel=1e-5)
        assert cell.max_re_beta == pytest.approx(np.max(ref[2]), rel=1e-5)

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

    def test_integrated_cell_kernel_is_given_floats(self, monkeypatch):
        # LSODA's state reaches the cell's kernel through meanfield._bounded
        states, kernel = [], mod._scaled_rhs

        def recorded(t, y, *args):
            states.append(y)
            return kernel(t, y, *args)

        monkeypatch.setattr(mod, "_scaled_rhs", recorded)
        lam = 0.8 * LC
        mod._solve_cell((params(lam=lam, lam_prime=1e-3), lam, 1.6, 0.02, 1e-4, 200.0))
        assert states
        assert all(type(y) is list and list(map(type, y)) == [float] * 4 for y in states)

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
        assert instability_boundary(params(), 0.8 * LC) == pytest.approx(1.2)

    def test_resonance_at_zero_coupling(self):
        assert instability_boundary(params(), 0.0) == pytest.approx(2.0)

    def test_above_threshold_rejected(self):
        with pytest.raises(ValueError):
            instability_boundary(params(), 1.2 * LC)

    def test_consistency_chain(self):
        # the resonance law, twice the leading-order soft-mode energy and
        # the g2 spectral-peak law are one identical function of lam
        p = params()
        for lam in np.linspace(0.05, 0.9, 10) * LC:
            nu_res = instability_boundary(p, float(lam))
            leading = 2.0 * math.sqrt(1.0 - (lam / LC) ** 2)
            assert nu_res == pytest.approx(leading, rel=1e-12)
        # and the full perturbative expression only deviates at O(eps)
        lam = 0.8 * LC
        assert instability_boundary(p, lam) == pytest.approx(
            2.0 * soft_mode_perturbative(p, lam).real, rel=1e-4)

    def test_floquet_scan_peaks_at_resonance(self):
        frac = 0.7
        eps_t = frac ** 2 / 50.0            # q = (lam/lam_c)^2 eps
        nu_grid = np.linspace(1.2, 1.7, 101)
        growth = [max_rate(frac, float(nu)) for nu in nu_grid]
        nu_star = nu_grid[int(np.argmax(growth))]
        assert abs(nu_star - instability_boundary(params(), frac * LC)) < eps_t


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
                                     t_max=6000.0)
        ar, ai, br, bi, _ = traj.y[:, -1]
        assert max(math.hypot(ar, ai), math.hypot(br, bi)) < 1e-2 * 1e-4

    def test_seed_parity_invariance(self):
        p = params(lam=0.7 * LC)
        cell = (p, 0.7 * LC, 1.43, 1.0 / 50.0, 1e-4, 500.0)
        flipped = (p, 0.7 * LC, 1.43, 1.0 / 50.0, -1e-4, 500.0)
        a = mod._solve_cell(cell)
        b = mod._solve_cell(flipped)
        assert a.max_alpha2 == pytest.approx(b.max_alpha2, rel=1e-6)

    @pytest.mark.parametrize("lam, nu, message", [
        (0.8 * LC, math.nan, "modulation frequencies"), (0.8 * LC, 0.0, "modulation frequencies"),
        (0.8 * LC, -1.2, "modulation frequencies"), (0.8 * LC, math.inf, "modulation frequencies"),
        (-0.8 * LC, 1.2, "lam must be >= 0"), (math.nan, 1.2, "lam must be >= 0"),
        (math.inf, 1.2, "lam must be finite"),
    ], ids=["nu-nan", "nu-0", "nu-negative", "nu-inf", "lam-negative", "lam-nan",
            "lam-inf"])
    @pytest.mark.parametrize("driven", ["map", "trajectory"])
    def test_bad_drive_is_refused_before_any_cell_runs(self, monkeypatch, lam, nu, message,
                                                       driven):
        # refused up front: a NaN nu would give a NaN map, and nu <= 0 numbers
        def no_run(*args, **kwargs):
            raise AssertionError("a driven cell ran")
        monkeypatch.setattr(mod, "_solve_cell", no_run)
        monkeypatch.setattr(mod, "_driven_run", no_run)
        with pytest.raises(ParameterError, match=message):
            if driven == "map":
                mod.driven_response_map(params(), [0.5 * LC, lam], [1.6, nu], t_max=50.0)
            else:
                mod.driven_trajectory(params(), lam, nu, t_max=50.0)

    @pytest.mark.parametrize("drive, message", [
        (dict(eps=math.nan), "^eps must be finite, got nan$"),
        (dict(eps=math.inf), "^eps must be finite, got inf$"),
        (dict(seed=math.inf), "^seed must be finite, got inf$"),
        (dict(seed=math.nan), "^seed must be finite, got nan$"),
        (dict(t_max=math.inf), "^t_max must be positive and finite, got inf$"),
        (dict(t_max=math.nan), "^t_max must be positive and finite, got nan$"),
        (dict(t_max=0.0), "^t_max must be positive and finite, got 0.0$"),
        (dict(t_max=-5.0), "^t_max must be positive and finite, got -5.0$"),
    ], ids=["eps-nan", "eps-inf", "seed-inf", "seed-nan", "t_max-inf", "t_max-nan",
            "t_max-0", "t_max-negative"])
    @pytest.mark.parametrize("driven", ["map", "trajectory"])
    def test_bad_eps_seed_or_span_is_refused_before_any_cell_runs(
            self, monkeypatch, drive, message, driven):
        # t_max = inf gave a NaN map, eps = nan a message naming A0 and A1,
        # seed = inf an ODEPACK "Illegal input"
        def no_run(*args, **kwargs):
            raise AssertionError("a driven cell ran")
        monkeypatch.setattr(mod, "_solve_cell", no_run)
        monkeypatch.setattr(mod, "_driven_run", no_run)
        with pytest.raises(ParameterError, match=message):
            if driven == "map":
                mod.driven_response_map(params(), [0.5 * LC], [1.6], **drive)
            else:
                mod.driven_trajectory(params(), 0.5 * LC, 1.6, **drive)

    @pytest.mark.parametrize("lam, nu, message", [
        ([], [1.6], "^empty coupling grid$"), ([0.5 * LC], [], "^empty modulation grid$")],
        ids=["lam", "nu"])
    def test_empty_grid_is_refused(self, lam, nu, message):
        with pytest.raises(ParameterError, match=message):
            mod.driven_response_map(params(), lam, nu)

    def test_growth_flagged_when_not_stabilized(self):
        p = params(lam=0.9 * LC)
        nu_res = instability_boundary(p, 0.9 * LC)
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
        rates = eom_rhs(mfd.MeanFieldState(complex(ar, ai), complex(br, bi), w),
                        driven)
        expected = [rates.alpha.real, rates.alpha.imag, rates.beta.real, rates.beta.imag]
        got = mod._scaled_rhs(t, np.array([ar, ai, br, bi]), p, lam0, eps, nu)
        assert np.array(got).tobytes() == np.array(expected).tobytes()

    def test_trajectory_states_stay_on_bloch_sphere(self):
        p = params(lam=0.8 * LC)
        traj = mod.driven_trajectory(p, 0.8 * LC, 1.2, t_max=400.0)
        _, _, br, bi, w = traj.y
        assert br ** 2 + bi ** 2 + w ** 2 == pytest.approx(0.25, abs=1e-9)

    def test_time_series_matches_a_tight_reference(self):
        # at rtol 1e-8 the samples are 1.08e-6 of each component's scale
        # off, and 1.00e-6 through SciPy's solve_ivp stepper
        p = params(lam=0.8 * LC)
        lam, nu, t_max = 0.8 * LC, 1.2, 200.0
        traj = mod.driven_trajectory(p, lam, nu, t_max=t_max)
        y = traj.y[:4]
        ref = solve_ivp(mod._scaled_rhs, (0.0, t_max), [1e-4, 0.0, 1e-4, 0.0],
                        method="LSODA", rtol=1e-12, atol=1e-18, t_eval=traj.t,
                        args=(p, lam, 0.02, nu))
        assert ref.success
        scale = np.max(np.abs(ref.y), axis=1)
        assert np.all(np.max(np.abs(y - ref.y), axis=1) <= 2e-6 * scale)


def oscillator(t, y):
    return [y[1], -y[0]]


class TestLsodaShim:
    """``_solvers.solve_ivp``'s LSODA route, through ``odeint``."""

    @pytest.mark.parametrize("t_eval", [[0.0, 1.0, 2.5], [1.0, 2.5]],
                             ids=["from-start", "after-start"])
    def test_samples_at_the_requested_times(self, t_eval):
        sol = _solvers.solve_ivp(oscillator, (0.0, 2.5), [1.0, 0.0], method="LSODA",
                                 t_eval=t_eval, rtol=1e-10, atol=1e-12)
        assert sol.success
        assert sol.t.tolist() == t_eval and sol.y.shape == (2, len(t_eval))
        assert np.allclose(sol.y, [np.cos(t_eval), -np.sin(t_eval)], rtol=0, atol=1e-8)
        assert sol.nfev > 0 and sol.njev >= 0

    def test_needs_output_times(self):
        with pytest.raises(ValueError, match="t_eval"):
            _solvers.solve_ivp(oscillator, (0.0, 1.0), [1.0, 0.0], method="LSODA")

    def test_odepack_failure_is_reported_not_warned(self, monkeypatch):
        monkeypatch.setattr(scipy.integrate, "odeint", failing_odeint)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = _solvers.solve_ivp(oscillator, (0.0, 1.0), [1.0, 0.0],
                                     method="LSODA", t_eval=[0.5, 1.0],
                                     rtol=1e-6, atol=1e-9)
        assert not sol.success and sol.message == ODEPACK_ERROR
        assert sol.t.size == 0 and sol.y.shape == (2, 0)
        assert (sol.nfev, sol.njev) == (0, 0)
