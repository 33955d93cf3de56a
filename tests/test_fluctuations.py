"""Fluctuation coefficients, dynamical matrix and excitation spectra."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from opendicke import correlations as corr
from opendicke import fluctuations as fl
from opendicke import meanfield as mfd
from opendicke.figures import FIGURE_PARAMS
from opendicke.params import DickeParams

OMEGA, KAPPA = 300.0, 200.0


def params(lam=0.0, lam_prime=0.0, n=1e5):
    return DickeParams(OMEGA, 1.0, lam, lam_prime, KAPPA, n)


def exact_soft_pair(p, lam):
    """Two smallest-|Re| eigenfrequencies about the physical steady state."""
    q = p.with_coupling(lam)
    lc = mfd.critical_coupling(p)
    ss = mfd.trivial_state(p) if lam <= lc else mfd.superradiant_states(q)[0]
    m = fl.dynamical_matrix(fl.hp_coefficients(ss, q), q)
    freqs = sorted(1j * np.linalg.eigvals(m), key=lambda z: abs(z.real))
    return freqs[:2]


class TestHPCoefficients:
    def test_trivial_state(self):
        p = params(lam=5.0)
        c = fl.hp_coefficients(mfd.trivial_state(p), p)
        assert c.omega0_prime == 1.0
        assert c.g1 == 0.0
        assert c.g2 == 5.0
        assert c.beta_tilde == 0.0

    def test_symmetry_broken_point_oracle(self):
        # at lam = sqrt(2) lam_c the displacement is exactly -1/2 and the
        # coefficients close to simple rationals (frozen high-precision
        # evaluation of the three formulas at the closed-form steady state)
        p = params()
        lam = math.sqrt(2) * mfd.critical_coupling(p)
        q = p.with_coupling(lam)
        c = fl.hp_coefficients(mfd.superradiant_states(q)[0], q)
        assert c.beta_tilde == pytest.approx(-0.5, abs=1e-14)
        assert c.alpha_tilde.real == pytest.approx(0.0294174202707276048, rel=1e-14)
        assert c.alpha_tilde.imag == pytest.approx(0.0196116135138184032, rel=1e-14)
        assert c.omega0_prime == pytest.approx(1.5, rel=1e-13)
        assert c.g1 == pytest.approx(0.291666666666666667, rel=1e-13)
        assert c.g2 == pytest.approx(8.49836585598797472, rel=1e-13)

    def test_bias_shifts_g2(self):
        p = DickeParams(OMEGA, 1.0, 9.0, 9.0 / 360.0, KAPPA, 1e5)
        n = p.atom_number
        seed = mfd.MeanFieldState(
            -1j * p.lam_prime * math.sqrt(n) / (KAPPA + 1j * OMEGA), 0j, -n / 2)
        ss = mfd.newton_steady_state(p, seed)
        c = fl.hp_coefficients(ss, p)
        assert c.beta_tilde != 0.0
        bt = c.beta_tilde
        expected = p.lam * (1 - 2 * bt * bt) / math.sqrt(1 - bt * bt) - p.lam_prime * bt
        assert c.g2 == pytest.approx(expected, rel=1e-12)
        assert c.g2 != pytest.approx(p.lam, rel=1e-6)

    def test_matches_mean_field_linearization_above_threshold(self):
        # independent oracle: finite-difference Jacobian of the constrained
        # mean-field flow must share the soft eigenvalue pair
        p = params(n=1e4)
        q = p.with_coupling(1.2 * mfd.critical_coupling(p))
        ss = mfd.superradiant_states(q)[0]
        n = q.atom_number

        def rhs(z):
            beta = complex(z[2], z[3])
            w = -math.sqrt(max(n * n / 4 - abs(beta) ** 2, 0.0))
            d = mfd.eom_rhs(mfd.MeanFieldState(complex(z[0], z[1]), beta, w), q)
            return np.array([d.alpha.real, d.alpha.imag, d.beta.real, d.beta.imag])

        z0 = np.array([ss.alpha.real, ss.alpha.imag, ss.beta.real, ss.beta.imag])
        jac = np.empty((4, 4))
        for j in range(4):
            h = 1e-6 * max(abs(z0[j]), math.sqrt(n))
            zp, zm = z0.copy(), z0.copy()
            zp[j] += h
            zm[j] -= h
            jac[:, j] = (rhs(zp) - rhs(zm)) / (2 * h)
        mf_soft = sorted(np.linalg.eigvals(jac), key=lambda z: abs(z.imag))[:2]
        m = fl.dynamical_matrix(fl.hp_coefficients(ss, q), q)
        hp_soft = sorted(np.linalg.eigvals(m), key=lambda z: abs(z.imag))[:2]
        for a, b in zip(sorted(mf_soft, key=lambda z: z.imag),
                        sorted(hp_soft, key=lambda z: z.imag)):
            assert abs(a - b) < 1e-5

    def test_validity_guards(self):
        p = params(lam=5.0)
        n = p.atom_number
        with pytest.raises(fl.ValidityError, match="outside validity"):
            fl.hp_coefficients(mfd.MeanFieldState(0j, 0.5 * n, 0.0), p)
        with pytest.raises(fl.ValidityError, match="real"):
            fl.hp_coefficients(mfd.MeanFieldState(0j, 0.3j * n,
                                                  -0.4 * n), p)


class TestDynamicalMatrix:
    def test_decoupled_eigenvalues(self):
        p = params(lam=0.0)
        m = fl.dynamical_matrix(fl.hp_coefficients(mfd.trivial_state(p), p), p)
        freqs = np.sort_complex(1j * np.linalg.eigvals(m))
        expected = np.sort_complex(np.array(
            [OMEGA - 1j * KAPPA, -OMEGA - 1j * KAPPA, 1.0, -1.0]))
        assert np.allclose(freqs, expected, atol=1e-12)

    def test_rows_match_linear_equations_of_motion(self):
        c = fl.HPCoefficients(1.3, 0.2, 7.0, 0.1 + 0.05j, -0.25)
        p = params(lam=7.0)
        m = fl.dynamical_matrix(c, p)
        # dc/dt = -(i omega + kappa) c - i g2 (d + d+)
        assert m[0, 0] == -(1j * OMEGA + KAPPA)
        assert m[0, 2] == m[0, 3] == -7.0j
        assert m[0, 1] == 0.0
        # dd/dt = -i omega0' d - 2i g1 (d + d+) - i g2 (c + c+)
        assert m[2, 2] == -1.3j - 0.4j
        assert m[2, 3] == -0.4j
        assert m[2, 0] == m[2, 1] == -7.0j
        # conjugate rows
        assert m[1, 1] == (1j * OMEGA - KAPPA)
        assert m[1, 2] == m[1, 3] == 7.0j
        assert m[3, 3] == 1.3j + 0.4j
        assert m[3, 2] == 0.4j
        assert m[3, 0] == m[3, 1] == 7.0j

    @settings(max_examples=50, deadline=None)
    @given(w0p=st.floats(0.1, 10), g1=st.floats(-2, 2), g2=st.floats(0, 20),
           kappa=st.floats(0, 500))
    def test_trace_is_minus_two_kappa(self, w0p, g1, g2, kappa):
        p = DickeParams(OMEGA, 1.0, g2, 0.0, kappa, 1e5)
        c = fl.HPCoefficients(w0p, g1, g2, 0j, 0.0)
        tr = np.trace(fl.dynamical_matrix(c, p))
        assert abs(tr - (-2.0 * kappa)) < 1e-9 * max(1.0, kappa)

    @settings(max_examples=50, deadline=None)
    @given(w0p=st.floats(0.1, 10), g1=st.floats(-2, 2), g2=st.floats(0, 20),
           kappa=st.floats(0, 500))
    def test_eigenvalue_reflection_symmetry(self, w0p, g1, g2, kappa):
        # omega_k come in {omega, -omega*} pairs (set-valued comparison:
        # ordering by real part is ill-defined when Re ~ 0)
        p = DickeParams(OMEGA, 1.0, g2, 0.0, kappa, 1e5)
        c = fl.HPCoefficients(w0p, g1, g2, 0j, 0.0)
        freqs = 1j * np.linalg.eigvals(fl.dynamical_matrix(c, p))
        reflected = -np.conj(freqs)
        dist = np.abs(freqs[:, None] - reflected[None, :])
        assert np.max(np.min(dist, axis=1)) < 1e-9 * max(1.0, OMEGA, kappa)


def recorded_stacks(monkeypatch) -> list:
    """The list every later ``fl.dynamical_matrix`` call appends its result to."""
    build, stacks = fl.dynamical_matrix, []

    def recorded(c, q):
        stacks.append(build(c, q))
        return stacks[-1]

    monkeypatch.setattr(fl, "dynamical_matrix", recorded)
    return stacks


def overlap_matched(matrices):
    """Frequencies of successive dynamical matrices, labelled by eigenvector overlap.

    The matcher ``spectrum_sweep`` used before it matched by frequency alone:
    maximal overlap with the previous point's eigenvectors, and frequency
    continuity wherever an overlap falls below 0.99.
    """
    rows, vecs_prev = [], None
    for m in matrices:
        mu, vecs = np.linalg.eig(m)
        freqs = 1j * mu
        if vecs_prev is None:
            order = np.lexsort((freqs.imag, np.abs(freqs.real)))
        else:
            overlap = np.abs(vecs_prev.conj().T @ vecs)
            order = fl._best_permutation(-overlap)
            if np.min(overlap[np.arange(4), order]) < 0.99:
                order = order[fl._best_permutation(
                    np.abs(freqs[order][None, :] - rows[-1][:, None]))]
        rows.append(freqs[order])
        vecs_prev = vecs[:, order]
    return np.array(rows)


class TestSpectrum:
    @pytest.mark.parametrize("lam_prime, lo, hi, points", [
        (0.0, *FIGURE_PARAMS["fig1"]["lam_over_lc"], FIGURE_PARAMS["fig1"]["points"]),
        (0.0, *FIGURE_PARAMS["fig1"]["zoom"], FIGURE_PARAMS["fig1"]["zoom_points"]),
        (1e-5, 0.05, 2.0, 400),
        (1e-4, 0.0, 2.0, 400),
        (1e-3, 0.05, 2.0, 400),
        (-3e-3, 0.9, 1.1, 400),
        (1e-2, 0.05, 2.0, 400),
    ])
    def test_frequency_matching_keeps_the_overlap_labels(self, monkeypatch, lam_prime,
                                                         lo, hi, points):
        # the overlap matcher labels the very matrices the sweep builds, in
        # one stack
        stacks = recorded_stacks(monkeypatch)
        p = params(lam_prime=lam_prime)
        grid = np.linspace(lo, hi, points) * mfd.critical_coupling(p)
        sw = fl.spectrum_sweep(p, grid)
        (matrices,) = stacks
        assert matrices.shape[1:] == (4, 4) and len(matrices) >= points
        np.testing.assert_array_equal(sw.frequencies,
                                      overlap_matched(matrices)[-points:])

    def test_polariton_continues_from_bare_atom(self):
        p = params()
        lc = mfd.critical_coupling(p)
        sw = fl.spectrum_sweep(p, np.linspace(0.01, 0.95, 40) * lc)
        pol = sw.polariton()
        assert pol[0].real == pytest.approx(1.0, abs=1e-4)
        assert pol[0].imag == pytest.approx(0.0, abs=1e-4)
        # softening: monotone decrease of the excitation energy
        assert np.all(np.diff(pol.real) < 0)

    def test_branch_tracking_is_step_stable(self):
        p = params()
        lc = mfd.critical_coupling(p)
        coarse = np.linspace(0.05, 1.3, 26) * lc
        fine = np.linspace(0.05, 1.3, 51) * lc  # contains the coarse grid
        sw_c = fl.spectrum_sweep(p, coarse)
        sw_f = fl.spectrum_sweep(p, fine)
        assert sw_c.polariton_index == sw_f.polariton_index
        assert np.allclose(sw_c.polariton(), sw_f.polariton()[::2], atol=1e-9)

    def test_weak_bias_sweep_has_no_growing_mode(self):
        # the biased branch through lam_c is stable everywhere; a sweep that
        # followed the near-trivial root would show Im omega > 0 above lam_c
        sw = fl.spectrum_sweep(params(lam_prime=1e-4), np.linspace(0.0, 20.0, 1000))
        assert np.all(sw.frequencies.imag <= 0.0)

    def test_damping_crosses_zero_at_critical_coupling(self):
        p = params()
        lc = mfd.critical_coupling(p)

        def max_growth(lam):
            q = p.with_coupling(lam)
            m = fl.dynamical_matrix(
                fl.hp_coefficients(mfd.trivial_state(p), q), q)
            return float(np.max(np.linalg.eigvals(m).real))

        lo, hi = 0.9 * lc, 1.1 * lc
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if max_growth(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - lc) < 1e-8 * lc

    def test_best_permutation_is_the_optimal_assignment(self):
        # scipy's Hungarian solver is the oracle for the 24-ordering search
        rng = np.random.default_rng(7)
        for cost in rng.normal(size=(500, 4, 4)):
            row, col = linear_sum_assignment(cost)
            assert np.array_equal(row, np.arange(4))
            assert np.array_equal(fl._best_permutation(cost), col)

    def test_no_module_imports_scipy_optimize(self):
        for path in Path(fl.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [f"{node.module}.{a.name}" for a in node.names]
                else:
                    continue
                assert not [n for n in names if n.startswith("scipy.optimize")], path.name


class TestStability:
    def test_verdicts_at_the_tolerance(self):
        cases = ((-2e-12, "stable"), (0.0, "marginal"), (5e-13, "marginal"),
                 (-5e-13, "marginal"), (2e-12, "unstable"))
        stack = np.array([np.diag([growth - 1.0, growth, -3.0, -1.0])
                          for growth, _ in cases], dtype=complex)
        verdicts = [verdict for _, verdict in cases]
        for m, verdict in zip(stack, verdicts):
            assert type(fl.stability(m, 1.0)) is str
            assert fl.stability(m, 1.0) == verdict
            assert fl.stability(m * 10.0, 10.0) == verdict
        # the same matrices stacked get exactly the per-matrix labels
        assert fl.stability(stack, 1.0).tolist() == verdicts
        assert fl.stability(stack * 10.0, 10.0).tolist() == verdicts
        assert fl.stability(stack.reshape(5, 1, 4, 4), 1.0).tolist() == [
            [verdict] for verdict in verdicts]

    @pytest.mark.parametrize("lam_prime", [0.0, 1e-3])
    def test_steady_moments_refuse_exactly_the_unstable_states(self, lam_prime):
        # the steady-state flags and the moment guard are one verdict
        p = params(lam_prime=lam_prime)
        lc = mfd.critical_coupling(p)
        branch = mfd.steady_states(p, np.linspace(0.0, 1.6, 13) * lc)
        flags = branch.flags.tolist()
        for lam, vector, flag in zip(branch.lam.tolist(), branch.vectors, flags):
            q = p.with_coupling(lam)
            state = mfd.MeanFieldState.from_vector(vector)
            m = fl.dynamical_matrix(fl.hp_coefficients(state, q), q)
            if flag == "unstable":
                with pytest.raises(corr.ThresholdError):
                    corr.steady_moments(q, m)
            else:
                assert np.all(np.isfinite(corr.steady_moments(q, m).values))
        assert "stable" in flags and (lam_prime or "unstable" in flags)


def oracle_matrix(ss, q):
    """M of one state as built before sweeps were stacked: math and Python floats.

    The reference for the stacked builder, bit for bit: numpy's array ``**``
    and complex division round differently from Python's float ``**`` and
    CPython's complex quotient.
    """
    n = q.atom_number
    alpha_t = ss.alpha / math.sqrt(n)
    beta_t_c = ss.beta / n
    if abs(beta_t_c.imag) > 1e-9 * (1.0 + abs(beta_t_c)):
        raise fl.ValidityError(
            f"beta_ss must be real at a steady state, got Im = {beta_t_c.imag:.3e}")
    if abs(beta_t_c.real) >= 0.5:
        raise fl.ValidityError(
            f"|beta_ss|/N = {abs(beta_t_c.real)} >= 1/2 is outside validity")
    pop = 0.5 + ss.w / n
    if pop >= 0.5:
        raise fl.ValidityError("excited-mode population >= N/2 is outside validity")
    bt = math.copysign(math.sqrt(max(pop, 0.0)), beta_t_c.real)
    residual = abs(bt * math.sqrt(1.0 - bt * bt) - beta_t_c.real)
    if residual > 1e-6 * (1.0 + abs(bt)):
        raise fl.ValidityError(
            f"state is off the conservation manifold (residual {residual:.3e})")
    s = math.sqrt(1.0 - bt * bt)
    re_a = alpha_t.real
    w0p = q.omega0 - 2.0 * q.lam * bt / s * re_a
    g1 = -q.lam * bt * (2.0 - bt * bt) / (2.0 * s ** 3) * re_a
    g2 = q.lam * (1.0 - 2.0 * bt * bt) / s - q.lam_prime * bt
    w, k = q.omega, q.kappa
    return np.array([
        [-(1j * w + k), 0.0, -1j * g2, -1j * g2],
        [0.0, (1j * w - k), 1j * g2, 1j * g2],
        [-1j * g2, -1j * g2, -1j * w0p - 2j * g1, -2j * g1],
        [1j * g2, 1j * g2, 2j * g1, 1j * w0p + 2j * g1],
    ], dtype=complex)


def oracle_superradiant(q):
    """The symmetry-broken pair at q as computed before sweeps were stacked."""
    lam, lc = q.lam, mfd.critical_coupling(q)
    n = q.atom_number
    root = math.sqrt(1.0 - (lc / lam) ** 4)
    alpha = math.sqrt(n) * lam / (q.omega - 1j * q.kappa) * root
    beta = -n / 2.0 * root
    w = -n / 2.0 * (lc / lam) ** 2
    return mfd.MeanFieldState(alpha, beta, w), mfd.MeanFieldState(-alpha, -beta, w)


def per_point(walk, omega0):
    """Reference rows (couplings, state vectors, flags, M stack) of a walk.

    One oracle M and one ``eigvals`` call per state, in walk order.
    """
    lam, vectors, flags, matrices = [], [], [], []
    for q, state in walk:
        m = oracle_matrix(state, q)
        growth = float(np.max(np.linalg.eigvals(m).real))
        tol = 1e-12 * omega0
        flags.append("stable" if growth < -tol
                     else "unstable" if growth > tol else "marginal")
        lam.append(q.lam)
        vectors.append(state.as_vector())
        matrices.append(m)
    return np.array(lam), np.array(vectors), flags, np.array(matrices)


def unbiased_walk(p, lams):
    lc = mfd.critical_coupling(p)
    for lam in lams:
        q = p.with_coupling(lam)
        for state in [mfd.trivial_state(p)] + (
                list(oracle_superradiant(q)) if lam > lc else []):
            yield q, state


def per_point_spectrum(p, lam_grid):
    """Reference tracked spectrum and M stack: one ``eigvals`` call per coupling."""
    work = lam_grid
    if lam_grid[0] > 0.0:
        work = np.concatenate([np.linspace(0.0, lam_grid[0], 33)[:-1], lam_grid])
    if p.lam_prime == 0.0:
        lc = mfd.critical_coupling(p)
        walk = ((q, oracle_superradiant(q)[0] if q.lam > lc else mfd.trivial_state(q))
                for q in map(p.with_coupling, work.tolist()))
    else:
        walk = mfd.branch_walk(p, work.tolist())
    rows, matrices, pol = [], [], 0
    for q, state in walk:
        matrices.append(oracle_matrix(state, q))
        freqs = 1j * np.linalg.eigvals(matrices[-1])
        if not rows:
            freqs = freqs[np.lexsort((freqs.imag, np.abs(freqs.real)))]
            pol = int(np.argmin(np.abs(freqs - p.omega0)))
        else:
            freqs = freqs[fl._best_permutation(np.abs(freqs[None, :] - rows[-1][:, None]))]
        rows.append(freqs)
    return np.array(rows)[work.size - lam_grid.size:], pol, np.array(matrices)


class TestStackedSweeps:
    """Sweeps build one stack of matrices; every value equals the per-point oracle."""

    def grid(self, lo, hi):
        # 1101 couplings, with lam_c on the grid
        lc = mfd.critical_coupling(params())
        return np.union1d(np.linspace(lo, hi, 1101) * lc, [lc])

    def assert_branch_is(self, branch, want):
        lam, vectors, flags, _ = want
        assert branch.lam.tobytes() == lam.tobytes()
        assert branch.vectors.shape == vectors.shape
        assert branch.vectors.tobytes() == vectors.tobytes()
        assert branch.flags.tolist() == flags

    def test_unbiased_steady_states_equal_the_per_point_flags(self, monkeypatch):
        p = params()
        grid = self.grid(0.0, 2.0)
        stacks = recorded_stacks(monkeypatch)
        branch = mfd.steady_states(p, grid)
        want = per_point(unbiased_walk(p, grid.tolist()), p.omega0)
        # three states above lam_c: more than 2048 states in one stack
        assert len(branch.flags) > 2048
        self.assert_branch_is(branch, want)
        (stack,) = stacks
        assert stack.tobytes() == want[3].tobytes()
        assert {"stable", "unstable", "marginal"} <= set(want[2])

    @pytest.mark.parametrize("lam_prime, ratio", [(2e-3, None), (0.0, -1e-3)])
    def test_biased_steady_states_equal_the_per_point_flags(self, monkeypatch,
                                                            lam_prime, ratio):
        p = params(lam_prime=lam_prime)
        grid = self.grid(0.1, 1.6)
        stacks = recorded_stacks(monkeypatch)
        branch = mfd.steady_states(p, grid, ratio)
        want = per_point(mfd.branch_walk(p, grid.tolist(), ratio), p.omega0)
        self.assert_branch_is(branch, want)
        (stack,) = stacks
        assert stack.tobytes() == want[3].tobytes()

    @pytest.mark.parametrize("lam_prime, lo", [(0.0, 0.0), (0.0, 0.4), (1e-3, 0.2)])
    def test_spectra_equal_the_per_point_solve_bit_for_bit(self, monkeypatch,
                                                           lam_prime, lo):
        p = params(lam_prime=lam_prime)
        grid = self.grid(lo, 1.6)
        stacks = recorded_stacks(monkeypatch)
        sw = fl.spectrum_sweep(p, grid)
        freqs, pol, matrices = per_point_spectrum(p, grid)
        (stack,) = stacks
        assert stack.tobytes() == matrices.tobytes()
        assert sw.frequencies.shape == freqs.shape
        assert sw.frequencies.tobytes() == freqs.tobytes()
        assert sw.polariton_index == pol

    def test_one_state_builds_the_oracle_matrix(self):
        # the scalar call correlations makes, on both branches and biased
        p = params()
        lc = mfd.critical_coupling(p)
        for lam, lam_prime in ((0.3 * lc, 0.0), (0.99 * lc, 0.0), (1.7 * lc, 0.0),
                               (0.8 * lc, 1e-3), (1.3 * lc, -2e-2)):
            q = p.with_coupling(lam, lam_prime)
            state = mfd.operating_point(q)
            m = fl.dynamical_matrix(fl.hp_coefficients(state, q), q)
            assert m.shape == (4, 4)
            assert m.tobytes() == oracle_matrix(state, q).tobytes()

    @pytest.mark.parametrize("omega, kappa", [(OMEGA, KAPPA), (1.0, 3.0), (2.0, 0.0)])
    def test_closed_forms_equal_the_python_float_pair(self, omega, kappa):
        # alpha's quotient divides through by the larger of omega and kappa
        p = DickeParams(omega, 1.0, 0.0, 0.0, kappa, 1e5)
        lams = np.linspace(1.0 + 1e-9, 40.0, 997) * mfd.critical_coupling(p)
        stacked = [st.as_vector().T for st in mfd.superradiant_states(p, lams)]
        for i, lam in enumerate(lams.tolist()):
            want = oracle_superradiant(p.with_coupling(lam))
            got = mfd.superradiant_states(p.with_coupling(lam))
            assert got == want
            for rows, state in zip(stacked, want):
                assert rows[i].tobytes() == state.as_vector().tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_rejected(self, bad):
        # as for meanfield.steady_states
        with pytest.raises(ValueError, match="coupling grid must be finite"):
            fl.spectrum_sweep(params(), [0.1, bad])

    def test_a_failing_point_raises_what_the_per_point_walk_raises(self):
        # at 1e9 lam_c the symmetry-broken |beta|/N rounds to 1/2, in the
        # middle of the sweep
        p = params()
        lc = mfd.critical_coupling(p)
        grid = np.array([0.0, 0.5, 1.5, 3.0, 1e9, 2e9]) * lc
        with pytest.raises(fl.ValidityError) as want:
            per_point(unbiased_walk(p, grid.tolist()), p.omega0)
        with pytest.raises(fl.ValidityError) as got:
            mfd.steady_states(p, grid)
        assert str(got.value) == str(want.value)
        with pytest.raises(fl.ValidityError) as want:
            per_point_spectrum(p, grid)
        with pytest.raises(fl.ValidityError) as got:
            fl.spectrum_sweep(p, grid)
        assert str(got.value) == str(want.value)

    def test_the_first_failing_row_raises_its_first_failing_check(self):
        p = params(lam=5.0)
        n = p.atom_number
        trivial = mfd.trivial_state(p).as_vector()
        wide = [0.0, 0.0, 0.5 * n, 0.0, 0.0]            # |beta|/N = 1/2
        complex_beta = [0.0, 0.0, 0.1 * n, 0.3 * n, -0.4 * n]
        off_sphere = [0.0, 0.0, 0.0, 0.0, -0.1 * n]     # |beta|^2 + w^2 != N^2/4
        lam = np.full(3, 5.0)
        for rows, message in (
                ([trivial, wide, complex_beta], "|beta_ss|/N = 0.5 >= 1/2"),
                ([trivial, complex_beta, wide], "beta_ss must be real"),
                ([trivial, off_sphere, wide], "off the conservation manifold"),
                ([off_sphere, wide, complex_beta], "off the conservation manifold")):
            with pytest.raises(fl.ValidityError) as got:
                fl.hp_coefficients(np.array(rows), p, lam, 0.0)
            assert message in str(got.value)
            # the per-point builder raises the same message at the same row
            with pytest.raises(fl.ValidityError) as want:
                for row in rows:
                    oracle_matrix(mfd.MeanFieldState.from_vector(row), p)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("bad_row", [1, None])
    def test_a_walk_failure_raises_after_the_states_before_it(self, monkeypatch, bad_row):
        # the walk stops at its fourth point; a failing state before that
        # point raises in its place, as when each state was built in turn
        p = params(lam_prime=1e-3)
        walk = mfd.branch_walk

        def stopping(*args):
            for i, (q, state) in enumerate(walk(*args)):
                if i == 3:
                    raise mfd.ConvergenceError("walk stopped")
                yield q, (mfd.MeanFieldState(0j, 0.5 * p.atom_number, 0.0)
                          if i == bad_row else state)

        monkeypatch.setattr(fl, "branch_walk", stopping)
        grid = np.linspace(1.0, 8.0, 6)
        error, message = ((fl.ValidityError, r"\|beta_ss\|/N = 0.5 >= 1/2") if bad_row
                          else (mfd.ConvergenceError, "walk stopped"))
        for sweep in (mfd.steady_states, fl.spectrum_sweep):
            with pytest.raises(error, match=message):
                sweep(p, grid)


class TestPerturbativeSoftMode:
    def test_zero_coupling_limit(self):
        assert fl.soft_mode_perturbative(params(), 0.0) == pytest.approx(1.0)

    def test_leading_order_at_eighty_percent(self):
        val = fl.soft_mode_perturbative(params(), 0.8 * mfd.critical_coupling(params()))
        assert val.real == pytest.approx(0.6, abs=1e-4)

    def test_damping_approaches_kappa_scale_at_threshold(self):
        p = params()
        win = fl.overdamped_window(p)
        val = fl.soft_mode_perturbative(p, win.lam1 * (1 - 1e-9))
        assert val.imag == pytest.approx(-KAPPA / (OMEGA ** 2 + KAPPA ** 2),
                                         rel=1e-4)

    def test_matches_exact_spectrum_at_dispersive_accuracy(self):
        # achievable envelope at omega/omega0 = 300, kappa/omega0 = 200:
        # the next-order terms scale as (kappa omega0 / (omega^2+kappa^2))^2
        p = params()
        lc = mfd.critical_coupling(p)
        worst_re, worst_im = 0.0, 0.0
        for lam in np.linspace(0.02, 0.95, 50) * lc:
            exact = max(exact_soft_pair(p, float(lam)), key=lambda z: z.real)
            approx = fl.soft_mode_perturbative(p, float(lam))
            worst_re = max(worst_re, abs(approx.real - exact.real) / exact.real)
            worst_im = max(worst_im, abs(approx.imag - exact.imag))
        assert worst_re < 2e-5
        assert worst_im < 1e-8

    def test_guards(self):
        p = params()
        win = fl.overdamped_window(p)
        with pytest.raises(fl.ValidityError, match="overdamped"):
            fl.soft_mode_perturbative(p, win.lam1 * 1.000001)
        with pytest.raises(fl.ValidityError, match="dispersive"):
            fl.soft_mode_perturbative(DickeParams(2.0, 1.0, 0.0, 0.0, 1.0, 10), 0.1)


class TestOverdampedWindow:
    def test_lossless_window_closes(self):
        p = DickeParams(OMEGA, 1.0, 0.0, 0.0, 0.0, 1e5)
        win = fl.overdamped_window(p)
        lc = mfd.critical_coupling(p)
        assert win.lam1 == pytest.approx(lc)
        assert win.lam2 == pytest.approx(lc)

    def test_half_widths(self):
        p = params()
        win = fl.overdamped_window(p)
        lc = mfd.critical_coupling(p)
        width = KAPPA ** 2 / (OMEGA ** 2 + KAPPA ** 2) ** 2
        assert (lc - win.lam1) / lc == pytest.approx(width, rel=1e-12)
        assert (win.lam2 - lc) / lc == pytest.approx(width / 2, rel=1e-12)

    def test_exact_spectrum_is_overdamped_at_window_center(self):
        p = params()
        win = fl.overdamped_window(p)
        center = 0.5 * (win.lam1 + win.lam2)
        pair = exact_soft_pair(p, center)
        assert max(abs(z.real) for z in pair) < 1e-6

    def test_near_critical_rate_inside_true_window(self):
        # deep inside the overdamped region the least-damped eigenvalue is
        # purely imaginary with rate (omega^2+kappa^2)/(2 kappa) (1 - r)
        p = params()
        lc = mfd.critical_coupling(p)
        lam = lc * (1 - 0.4e-6)
        win = fl.overdamped_window(p)
        least_damped = max(exact_soft_pair(p, lam), key=lambda z: z.imag)
        assert win.soft_frequency(lam).imag == pytest.approx(
            least_damped.imag, rel=0.1)
