"""Fluctuation coefficients, dynamical matrix and excitation spectra."""

import ast
import math
import re
import warnings
from datetime import timedelta
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
from opendicke.modulation import FloquetError
from opendicke.params import DickeParams, ParameterError

OMEGA, KAPPA = 300.0, 200.0


def params(lam=0.0, lam_prime=0.0, n=1e5):
    return DickeParams(OMEGA, 1.0, lam, lam_prime, KAPPA, n)


LC = mfd.critical_coupling(params())


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


class TestRealForm:
    @pytest.mark.parametrize("lam_prime", [0.0, 1e-3])
    def test_eigenvalues_match_fifty_digit_ones(self, lam_prime):
        mpmath = pytest.importorskip("mpmath")
        p = params(lam_prime=lam_prime)
        lc = mfd.critical_coupling(p)
        with mpmath.workdps(50):
            for ratio in (0.0, 0.5, 0.9, 0.99, 0.999, 1.0, 1.001, 1.01, 1.5):
                q = p.with_coupling(ratio * lc)
                m = fl.dynamical_matrix(fl.hp_coefficients(mfd.operating_point(q), q), q)
                exact = np.array([complex(z) for z in mpmath.eig(
                    mpmath.matrix(m.tolist()), left=False, right=False)])
                mu = fl._eigenvalues(m)
                assert mu.dtype == complex
                assert np.max(np.min(np.abs(mu[:, None] - exact[None, :]), axis=1)) < 1e-12

    def test_real_form_is_t_m_t_dagger(self):
        p = params(lam_prime=1e-3)
        m = fl._walk_stack(p, np.linspace(0.0, 1.6, 50) * LC)[2]
        parts = m.reshape(-1, 16).view(float)
        want = QUADRATURES @ m @ QUADRATURES.conj().T
        assert np.allclose((parts @ fl._QUADRATURE_FORM).reshape(m.shape), want.real,
                           rtol=0.0, atol=1e-13 * LC)
        assert np.max(np.abs(want.imag)) < 1e-13 * LC
        assert not (parts @ fl._CONJUGATE_RESIDUALS).any()
        # a real stack and a complex one with the same entries agree
        real = np.diag([-1.0, -1.0, -2.0, -2.0])
        np.testing.assert_array_equal(fl._eigenvalues(real), fl._eigenvalues(real + 0j))

    @pytest.mark.parametrize("lam_prime", [0.0, 1e-3])
    def test_sweep_order_is_independent_of_the_eigensolver(self, monkeypatch, lam_prime):
        # the anchor row reversed, then every row reversed: the same bytes
        p = params(lam_prime=lam_prime)
        grid = np.linspace(0.0, 1.4, 281) * mfd.critical_coupling(p)
        want = fl.spectrum_sweep(p, grid)
        solve = fl._eigenvalues
        for rows in (slice(0, 1), slice(None)):
            def reversed_rows(m, rows=rows):
                mu = solve(m)
                mu[rows] = mu[rows, ::-1]
                return mu

            monkeypatch.setattr(fl, "_eigenvalues", reversed_rows)
            got = fl.spectrum_sweep(p, grid)
            assert got.frequencies.tobytes() == want.frequencies.tobytes()
            assert got.polariton_index == want.polariton_index == 0

    @pytest.mark.parametrize("lo, hi, points", [
        (*FIGURE_PARAMS["fig1"]["lam_over_lc"], FIGURE_PARAMS["fig1"]["points"]),
        (*FIGURE_PARAMS["fig1"]["zoom"], FIGURE_PARAMS["fig1"]["zoom_points"]),
    ])
    def test_polariton_is_the_soft_mode_at_threshold(self, lo, hi, points):
        # at lam_c the atomic pair is purely damped, one mode at zero; the
        # pair meets the imaginary axis as mirror images, and the tie goes to
        # the lower, polariton column
        p = params()
        grid = np.linspace(lo, hi, points) * mfd.critical_coupling(p)
        at = int(np.argmin(np.abs(grid - mfd.critical_coupling(p))))
        sw = fl.spectrum_sweep(p, grid)
        assert abs(sw.polariton()[at]) < 1e-9
        assert sw.polariton()[0].real > 0.0 and sw.polariton()[-1].real > 0.0


def recorded_stacks(monkeypatch) -> list:
    """The list every later ``fl.dynamical_matrix`` call appends its result to."""
    build, stacks = fl.dynamical_matrix, []

    def recorded(c, q):
        stacks.append(build(c, q))
        return stacks[-1]

    monkeypatch.setattr(fl, "dynamical_matrix", recorded)
    return stacks


def best_ordering(cost):
    """The ordering ``fl._best_permutation`` picks for one 4x4 cost matrix."""
    return fl._PERMUTATIONS[fl._best_permutation(cost)[0]]


def canonical(freqs):
    """One matrix's frequencies by descending Re, then descending Im, as the sweep orders them."""
    return freqs[np.lexsort((-freqs.imag, -freqs.real))]


#: T = diag(t, t), t = [[1, 1], [-i, i]]/sqrt(2): (a, a^dag) to the quadratures (x, p)
QUADRATURES = np.kron(np.eye(2), np.array([[1.0, 1.0], [-1j, 1j]]) / math.sqrt(2.0))


def overlap_matched(matrices):
    """Frequencies of successive dynamical matrices, labelled by eigenvector overlap.

    The matcher ``spectrum_sweep`` used before it matched by frequency alone:
    maximal overlap with the previous point's eigenvectors, and frequency
    continuity wherever an overlap falls below 0.99.  The frequencies are
    ``fl._eigenvalues``'s, one matrix at a time, each with the eigenvector
    ``eig`` gives the real form T M T^dag for its nearest eigenvalue; the
    unitary T leaves every overlap as it is in the c basis.  A mode pair on
    the imaginary axis ties its overlaps exactly (the real eigenvectors of a
    conjugate pair are conjugates), and the tie goes to the lower raw index,
    as in the sweep.
    """
    rows, vecs_prev = [], None
    for m in matrices:
        freqs = canonical(1j * fl._eigenvalues(m))
        mu_r, vecs_r = np.linalg.eig((QUADRATURES @ m @ QUADRATURES.conj().T).real)
        vecs = vecs_r[:, best_ordering(np.abs(freqs[:, None] - 1j * mu_r[None, :]))]
        if vecs_prev is None:
            order = np.lexsort((freqs.imag, np.abs(freqs.real)))
        else:
            overlap = np.abs(vecs_prev.conj().T @ vecs)
            order = best_ordering(-overlap)
            if np.min(overlap[np.arange(4), order]) < 0.99:
                order = order[best_ordering(
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
            assert np.array_equal(best_ordering(cost), col)

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
        # diag(a, a*, b, b*): the conjugate-row structure of a dynamical matrix
        stack = np.array([np.diag([growth + 2j, growth - 2j, -1.0 + 0.5j, -1.0 - 0.5j])
                          for growth, _ in cases])
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

    def test_refuses_a_matrix_without_conjugate_rows(self):
        m = fl.dynamical_matrix(fl.hp_coefficients(mfd.trivial_state(params()), params(5.0)),
                                params(5.0))
        assert fl.stability(m, 1.0) == "stable"
        for bad in (np.diag([-1.0, -2.0, -3.0, -4.0]).astype(complex), m * 1j):
            with pytest.raises(ValueError, match="conjugates"):
                fl.stability(bad, 1.0)
            with pytest.raises(ValueError, match="conjugates"):
                fl.stability(np.array([m, bad]), 1.0)
        broken = m.copy()
        broken[1, 2] += 1e-15
        with pytest.raises(ValueError, match="conjugates"):
            fl.stability(broken, 1.0)

    @pytest.mark.parametrize("ratio", [0.1, 0.5, 0.9])
    def test_a_slow_atom_in_a_broad_cavity_is_stable(self, ratio):
        # omega = omega0 = 1e-3, kappa = 1e5: the soft mode damps at 1e-13 to
        # 8e-12, which the complex eigensolver of M read as growth (+8.8e-13
        # to +3.2e-11); the real form resolves the perturbative damping
        p = DickeParams(1e-3, 1e-3, 0.0, 0.0, 1e5, 1e5)
        lam = ratio * mfd.critical_coupling(p)
        q = p.with_coupling(lam)
        m = fl.dynamical_matrix(fl.hp_coefficients(mfd.trivial_state(q), q), q)
        assert fl.stability(m, q.omega0) == "stable"
        growth = float(np.max(fl._eigenvalues(m).real))
        assert growth == pytest.approx(fl.soft_mode_perturbative(q, lam).imag, rel=0.15)

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

    One oracle M and one ``fl._eigenvalues`` call per state, in walk order.
    """
    lam, vectors, flags, matrices = [], [], [], []
    for q, state in walk:
        m = oracle_matrix(state, q)
        growth = float(np.max(fl._eigenvalues(m).real))
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


def oracle_operating_point(q):
    """``operating_point(q)`` as the scalar solve computed it, in Python floats.

    The bracketed Newton from b = 0 as it was written before the array
    solve, with the rules added since: a step that leaves the bracket
    bisects however small it is, and a residual or slope that is not finite
    raises.  About 20 us a point, where the one-row array solve takes 0.3 to
    0.6 ms.
    """
    if q.lam_prime == 0.0:
        return mfd.operating_point(q)
    n, om, k = q.atom_number, q.omega, q.kappa
    k_l, k_lp, half_n = mfd._couplings(q)

    def stationary(b):
        w = -math.sqrt(max(n * n / 4.0 - abs(b) ** 2, 0.0))
        ar = -om * (2.0 * k_l * b + k_lp * (half_n - w)) / (om ** 2 + k ** 2)
        return ar, k * ar / om, b, 0.0, w

    def slope(ar, b, w):
        dw = -b / w if w else math.inf
        dar = -om * (2.0 * k_l - k_lp * dw) / (om ** 2 + k ** 2)
        return (-q.omega0 + 2.0 * dar * (2.0 * k_l * w + k_lp * b)
                + 2.0 * ar * (2.0 * k_l * dw + k_lp))

    side = math.copysign(1.0, q.lam_prime)
    inner, outer = 0.0, side * 0.5 * n
    b, step, tol = 0.0, math.inf, 1e-13 * n
    for _ in range(200):
        y = stationary(b)
        g = mfd._rhs_vector(0.0, y, q, k_l, k_lp, half_n)[3]
        if g == 0.0:
            break
        dg = slope(y[0], b, y[4])
        if not (math.isfinite(g) and math.isfinite(dg)):
            raise mfd.ConvergenceError(f"the steady-state equation is not finite at lam = {q.lam}")
        inner, outer = (b, outer) if side * g > 0 else (inner, b)
        last, step = step, (-g / dg if dg else math.inf)
        lo, hi = min(inner, outer), max(inner, outer)
        if not (lo <= b + step <= hi and (abs(step) <= tol or (
                lo < b + step < hi and abs(step) <= 0.5 * abs(last)))):
            step = 0.5 * (inner + outer) - b
        b += step
        if abs(step) <= tol:
            break
    else:
        raise mfd.ConvergenceError(f"bracketed solve did not converge at lam = {q.lam}")
    return mfd.MeanFieldState.from_vector(stationary(b))


def biased_walk(p, lams, ratio=None, solve=mfd.operating_point):
    """Each coupling's parameters and its own operating point, one point at a time."""
    for lam in lams:
        q = p.with_coupling(lam, None if ratio is None else ratio * lam)
        yield q, solve(q)


def per_point_spectrum(p, lam_grid):
    """Reference tracked spectrum and M stack: one ``fl._eigenvalues`` call per coupling."""
    work = lam_grid
    if lam_grid[0] > 0.0:
        work = np.concatenate([np.linspace(0.0, lam_grid[0], 33)[:-1], lam_grid])
    if p.lam_prime == 0.0:
        lc = mfd.critical_coupling(p)
        walk = ((q, oracle_superradiant(q)[0] if q.lam > lc else mfd.trivial_state(q))
                for q in map(p.with_coupling, work.tolist()))
    else:
        walk = biased_walk(p, work.tolist())
    rows, matrices, pol = [], [], 0
    for q, state in walk:
        matrices.append(oracle_matrix(state, q))
        freqs = canonical(1j * fl._eigenvalues(matrices[-1]))
        if not rows:
            freqs = freqs[np.lexsort((freqs.imag, np.abs(freqs.real)))]
            pol = int(np.argmin(np.abs(freqs - p.omega0)))
        else:
            freqs = freqs[best_ordering(np.abs(freqs[None, :] - rows[-1][:, None]))]
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
        want = per_point(biased_walk(p, grid.tolist(), ratio), p.omega0)
        self.assert_branch_is(branch, want)
        (stack,) = stacks
        assert stack.tobytes() == want[3].tobytes()

    @pytest.mark.parametrize("lam_prime, lo, grid", [
        pytest.param(0.0, 0.0, None, id="0.0-0.0"),
        pytest.param(0.0, 0.4, None, id="0.0-0.4"),
        pytest.param(1e-3, 0.2, None, id="0.001-0.2"),
        # fig1's zoom, where the soft pair is overdamped
        pytest.param(0.0, None, np.linspace(1.0 - 1e-5, 1.0 + 1e-5, 201) * LC, id="fig1-zoom"),
        pytest.param(0.0, None, np.linspace(0.0, 1.6, 2000) * LC, id="2000-points"),
        pytest.param(0.0, None, np.linspace(1.0, 1.6, 300) * LC, id="from-lam_c"),
        pytest.param(0.0, None, np.full(2000, LC), id="2000-copies-of-lam_c"),
        pytest.param(0.0, None, np.array([0.0]), id="one-point-0"),
        pytest.param(0.0, None, np.array([LC]), id="one-point-lam_c"),
    ])
    def test_spectra_equal_the_per_point_solve_bit_for_bit(self, monkeypatch,
                                                           lam_prime, lo, grid):
        p = params(lam_prime=lam_prime)
        grid = self.grid(lo, 1.6) if grid is None else grid
        stacks = recorded_stacks(monkeypatch)
        sw = fl.spectrum_sweep(p, grid)
        freqs, pol, matrices = per_point_spectrum(p, grid)
        (stack,) = stacks
        assert stack.tobytes() == matrices.tobytes()
        assert sw.frequencies.shape == freqs.shape
        assert sw.frequencies.tobytes() == freqs.tobytes()
        assert sw.polariton_index == pol

    def test_batched_matching_equals_the_per_step_loop_at_exact_ties(self, monkeypatch):
        # integer-valued eigenvalues tie exactly and often; where the two best
        # orderings nearly tie the step is taken by the per-step rule, with
        # one more _best_permutation call
        rng = np.random.default_rng(37)
        calls, best = [], fl._best_permutation

        def counted(cost):
            calls.append(best(cost))
            return calls[-1]

        monkeypatch.setattr(fl, "_best_permutation", counted)
        needed = 0
        for seq in rng.integers(-2, 3, size=(3000, 7, 4, 2)):
            freqs = (seq[..., 0] + 1j * seq[..., 1]).astype(complex)
            want = [freqs[0]]
            for row in freqs[1:]:
                want.append(row[best_ordering(np.abs(row[None, :] - want[-1][:, None]))])
            calls.clear()
            got = fl._follow(freqs)
            assert got.tobytes() == np.array(want).tobytes()
            ties = int(calls[0][1].sum())
            assert len(calls) == 1 + ties
            needed += ties > 0
        assert needed > 1000

    def test_unbiased_sweeps_walk_no_branch(self, monkeypatch):
        # the closed forms over the grid: no walk, operating point or Newton
        p = params()
        grid = np.linspace(0.0, 1.6, 400) * LC
        below = grid[grid < 0.99 * LC]
        want = per_point_spectrum(p, grid)
        flux = [corr.photon_flux(p.with_coupling(x)) for x in below.tolist()]

        def refused(*args, **kwargs):
            raise AssertionError("walked")

        for module, name in ((mfd, "_continue_branch"), (fl, "_continue_branch"),
                             (mfd, "operating_point"), (corr, "operating_point"),
                             (mfd, "newton_steady_state")):
            monkeypatch.setattr(module, name, refused)
        calls, best = [], fl._best_permutation
        monkeypatch.setattr(fl, "_best_permutation", lambda cost: calls.append(cost) or best(cost))
        sw = fl.spectrum_sweep(p, grid)
        assert sw.frequencies.tobytes() == want[0].tobytes()
        # one batched matching call, no near tie on this grid
        assert [cost.shape for cost in calls] == [(len(grid) - 1, 4, 4)]
        assert corr.photon_flux(p, below).tobytes() == np.array(flux).tobytes()
        # a zero ratio is lam' = 0 too
        biased = params(lam_prime=1e-3)
        walk = ((q, mfd.trivial_state(q) if q.lam <= LC else oracle_superradiant(q)[0])
                for q in (biased.with_coupling(x, 0.0) for x in grid.tolist()))
        self.assert_branch_is(mfd.steady_states(biased, grid, 0.0), per_point(walk, p.omega0))

    @pytest.mark.parametrize("lam_prime, ratio", [(0.0, None), (1e-3, 0.0), (1e-3, None)])
    def test_a_negative_first_coupling_is_refused_as_alone(self, lam_prime, ratio):
        p = params(lam_prime=lam_prime)
        with pytest.raises(ParameterError) as alone:
            p.with_coupling(-1.0, None if ratio is None else -ratio)
        message = f"^{re.escape(str(alone.value))}$"
        grid = np.array([-1.0, 0.5, 2.0])
        with pytest.raises(ParameterError, match=message):
            mfd.steady_states(p, grid, ratio)
        with pytest.raises(ParameterError, match=message):
            fl._walk_stack(p, grid, ratio)
        if ratio is None:
            for sweep in (fl.spectrum_sweep, corr.photon_flux):
                with pytest.raises(ParameterError, match=message):
                    sweep(p, grid)

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

    @pytest.mark.parametrize("ratio", [None, 1e-4])
    @pytest.mark.parametrize("bad_row", [1, None])
    def test_a_solve_failure_raises_after_the_states_before_it(self, monkeypatch, bad_row,
                                                               ratio):
        # the solve stops at its fourth row; a failing state before that
        # row raises in its place, as when each state was built in turn.
        # Under the ratio the first coupling, lam = 0, is unbiased and solved
        # in closed form, so the solve's rows are the grid's rows 1 to 5
        p = params(lam_prime=1e-3)
        solve = mfd._continue_branch

        def stopping(*args):
            rows = solve(*args)[:3]
            if bad_row is not None:
                rows[bad_row] = [0.0, 0.0, 0.5 * p.atom_number, 0.0, 0.0]
            raise mfd.ConvergenceError("walk stopped", state=rows)

        monkeypatch.setattr(fl, "_continue_branch", stopping)
        grid = np.linspace(1.0 if ratio is None else 0.0, 8.0, 6)
        error, message = ((fl.ValidityError, r"\|beta_ss\|/N = 0.5 >= 1/2") if bad_row
                          else (mfd.ConvergenceError, "walk stopped"))
        with pytest.raises(error, match=message):
            mfd.steady_states(p, grid, ratio)
        if ratio is None:
            with pytest.raises(error, match=message):
                fl.spectrum_sweep(p, grid)


    @pytest.mark.parametrize("grid, ratio, error", [
        ([1.0, 2.0, 3.0, 1e300, 1e300], None, mfd.ConvergenceError),
        ([0.0, 2.0, 3.0, 1e300, 1e300], 1e10, ParameterError),
        ([0.0, 2.0, 3.0, 1e300, 1e300], -1e-14, mfd.ConvergenceError),
    ])
    def test_the_first_failing_row_raises_what_it_raises_alone(self, grid, ratio, error):
        # the fourth row fails alone: a residual that overflows, or lam' =
        # ratio * lam that does; the rows before it are solved as usual
        p = params(lam_prime=1e-3)
        with pytest.raises(error) as want:
            list(biased_walk(p, grid, ratio))
        for sweep in (lambda: mfd.steady_states(p, grid, ratio),
                      lambda: fl._walk_stack(p, np.array(grid), ratio)):
            with pytest.raises(error) as got:
                sweep()
            assert str(got.value) == str(want.value)
        if ratio is None:
            with pytest.raises(error) as got:
                fl.spectrum_sweep(p, grid)
            assert str(got.value) == str(want.value)


#: the package's errors; every coupling-grid entry point raises one of them,
#: or a ValueError, with a message
PACKAGE_ERRORS = (ValueError, corr.ThresholdError, mfd.ConvergenceError,
                  mfd.IntegrationError, FloquetError)
#: grid entries at and past every boundary: non-finite, zero, negative,
#: extreme, and the couplings around lam_c
GRID_ENTRIES = st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, -1.0, -1e300,
                                1e300, 1e-300, 5e-324, LC, 0.5 * LC, 1.5 * LC]) | st.floats(
    -LC, 3.0 * LC, allow_nan=False)
#: lam' / lam: none (lam' = 0), or a weak bias of either sign
BIASES = st.none() | st.builds(math.copysign, st.floats(1e-5, 1e-2), st.sampled_from([1, -1]))
#: empty, duplicated and descending grids, and sorted ones that reach the sweeps
GRIDS = st.lists(GRID_ENTRIES, max_size=6) | st.lists(GRID_ENTRIES, max_size=6).map(sorted)


# no numpy warning escapes the grid entry points, at any coupling
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestGridBoundary:
    """Grid entry points return finite arrays over the grid or raise a package error."""

    @staticmethod
    def returns_or_refuses(call, grid):
        try:
            out = call()
        except PACKAGE_ERRORS as exc:
            assert str(exc), type(exc)
            return
        assert len(out) == len(grid) > 0
        assert np.all(np.isfinite(out))

    @settings(max_examples=80, deadline=timedelta(seconds=2), database=None)
    @given(grid=GRIDS, ratio=BIASES)
    def test_steady_states(self, grid, ratio):
        # one row per coupling, and two more above lam_c at lam' = 0
        def rows():
            branch = mfd.steady_states(params(), grid, ratio)
            assert np.isfinite(branch.lam).all()
            assert np.unique(branch.lam).tolist() == np.unique(grid).tolist()
            return branch.vectors[np.unique(branch.lam, return_index=True)[1]]
        self.returns_or_refuses(rows, np.unique(grid))

    @settings(max_examples=80, deadline=timedelta(seconds=2), database=None)
    @given(grid=GRIDS, ratio=BIASES)
    def test_spectrum_sweep(self, grid, ratio):
        p = params(lam_prime=(ratio or 0.0) * LC)
        self.returns_or_refuses(lambda: fl.spectrum_sweep(p, grid).frequencies, grid)

    @settings(max_examples=80, deadline=timedelta(seconds=2), database=None)
    @given(grid=GRIDS, ratio=BIASES)
    def test_photon_flux(self, grid, ratio):
        p = params(lam_prime=(ratio or 0.0) * LC)
        self.returns_or_refuses(lambda: corr.photon_flux(p, grid), grid)


#: a bias of either sign from 1e-14 to 1e-1 omega0
SIGNED_BIASES = st.builds(lambda exponent, sign: math.copysign(10.0 ** exponent, sign),
                          st.floats(-14.0, -1.0), st.sampled_from([1.0, -1.0]))
#: 1 to 2000 ascending couplings from below lam_c to above it, up to 1e300
CROSSING_GRIDS = st.builds(
    np.linspace, st.floats(0.0, 0.999).map(lambda x: x * LC),
    st.floats(1.001, 3.0).map(lambda x: x * LC) | st.floats(1.2, 300.0).map(lambda e: 10.0 ** e),
    st.integers(1, 2000))


class TestBiasedGrids:
    """Each row of a biased sweep is its own operating point bit for bit, or the sweep raises."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(grid=CROSSING_GRIDS, bias=SIGNED_BIASES, as_ratio=st.booleans())
    def test_rows_are_the_per_point_operating_points(self, grid, bias, as_ratio):
        p = params(lam_prime=0.0 if as_ratio else bias)
        ratio = bias if as_ratio else None
        # one point at a time: its solve, then its validity check
        want, error = [], None
        try:
            for q, state in biased_walk(p, grid.tolist(), ratio, oracle_operating_point):
                fl.hp_coefficients(state, q)
                want.append((q, state))
        except PACKAGE_ERRORS as exc:
            error = exc
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                branch = mfd.steady_states(p, grid, ratio)
            except PACKAGE_ERRORS as exc:
                assert (type(exc), str(exc)) == (type(error), str(error))
                return
        assert error is None
        assert branch.lam.tobytes() == grid.tobytes()
        for (q, state), vector in zip(want, branch.vectors, strict=True):
            assert vector.tobytes() == state.as_vector().tobytes(), q
            assert vector[2] * q.lam_prime >= 0.0, q
        # the oracle is the public per-point solve
        for q, state in (want[0], want[-1]):
            assert mfd.operating_point(q) == state


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
