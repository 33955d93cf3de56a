"""Mean-field dynamics, steady states and the bifurcation structure."""

import math
import random
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from opendicke import _solvers
from opendicke import fluctuations as fl
from opendicke import meanfield as mfd
from opendicke.params import DickeParams, ParameterError

from util import DOPRI5_ERROR, FailingOde

OMEGA, KAPPA = 300.0, 200.0


def params(lam=0.0, lam_prime=0.0, n=1e4):
    return DickeParams(OMEGA, 1.0, lam, lam_prime, KAPPA, n)


def state_norm(s: mfd.MeanFieldState) -> float:
    return max(abs(s.alpha), abs(s.beta), abs(s.w))


class TestCriticalCoupling:
    def test_dispersive_operating_point(self):
        # lam_c/omega0 = 10.41 at omega = 300, kappa = 200
        assert abs(mfd.critical_coupling(params()) - 10.4083) < 1e-4

    def test_lossless_limit(self):
        p = DickeParams(OMEGA, 1.0, 0.0, 0.0, 0.0, 1e4)
        assert mfd.critical_coupling(p) == pytest.approx(0.5 * math.sqrt(OMEGA))

    def test_resonant_lossless(self):
        p = DickeParams(1.0, 1.0, 0.0, 0.0, 0.0, 1e4)
        assert mfd.critical_coupling(p) == pytest.approx(0.5)


class TestEquationsOfMotion:
    def test_trivial_fixed_point(self):
        p = params(lam=5.0)
        d = mfd.eom_rhs(mfd.trivial_state(p), p)
        assert d.alpha == 0 and d.beta == 0 and d.w == 0

    def test_bias_drives_cavity_only(self):
        p = params(lam=5.0, lam_prime=0.02)
        d = mfd.eom_rhs(mfd.trivial_state(p), p)
        assert d.alpha == pytest.approx(-1j * 0.02 * math.sqrt(p.atom_number))
        assert d.beta == 0 and d.w == 0

    def test_symmetry_broken_closed_forms_are_fixed_points(self):
        p = params()
        lc = mfd.critical_coupling(p)
        for lam in (1.05 * lc, math.sqrt(2) * lc, 3.0 * lc):
            q = p.with_coupling(lam)
            for ss in mfd.superradiant_states(q):
                d = mfd.eom_rhs(ss, q)
                assert state_norm(d) < 1e-12 * p.atom_number

    def test_order_parameter_value_at_sqrt2_lambda_c(self):
        # |beta_ss| = (N/2) sqrt(1 - 1/4) at lam = sqrt(2) lam_c
        p = params()
        q = p.with_coupling(math.sqrt(2) * mfd.critical_coupling(p))
        ss = mfd.superradiant_states(q)[0]
        assert abs(ss.beta) == pytest.approx(p.atom_number / 2 * math.sqrt(3) / 2)

    @settings(max_examples=40, deadline=None)
    @given(ar=st.floats(-1, 1), ai=st.floats(-1, 1),
           br=st.floats(-0.45, 0.45), bi=st.floats(-0.45, 0.45),
           lam=st.floats(0, 20), lam_prime=st.floats(-0.1, 0.1))
    def test_rhs_conserves_pseudo_momentum(self, ar, ai, br, bi, lam, lam_prime):
        # d/dt (|beta|^2 + w^2) = 2 Re(beta* dbeta) + 2 w dw = 0 identically
        p = params(lam=lam, lam_prime=lam_prime)
        n = p.atom_number
        beta = complex(br, bi) * n
        w_mag2 = n * n / 4.0 - abs(beta) ** 2
        w = -math.sqrt(max(w_mag2, 0.0))
        s = mfd.MeanFieldState(complex(ar, ai) * math.sqrt(n), beta, w)
        d = mfd.eom_rhs(s, p)
        rate = 2.0 * (beta.conjugate() * d.beta).real + 2.0 * w * d.w
        assert abs(rate) < 1e-9 * n * n


class TestIntegration:
    def test_decoupled_cavity_decay(self):
        p = params(lam=0.0)
        alpha0 = 1.0 + 0.0j
        s0 = mfd.MeanFieldState(alpha0, 0j, -p.atom_number / 2)
        t_eval = np.linspace(0.0, 0.05, 21)
        traj = mfd.integrate(s0, p, (0.0, 0.05), rtol=1e-12, method="DOP853",
                             t_eval=t_eval)
        alpha = traj.y[0] + 1j * traj.y[1]
        assert np.all(np.abs(alpha - alpha0 * np.exp(-(KAPPA + 1j * OMEGA) * traj.t)) < 1e-8)

    def test_pseudo_momentum_conservation(self):
        p = params(lam=1.2 * mfd.critical_coupling(params()))
        n = p.atom_number
        s0 = mfd.MeanFieldState(1e-3 * math.sqrt(n), 1e-3 * n,
                                -math.sqrt(n * n / 4 - (1e-3 * n) ** 2))
        traj = mfd.integrate(s0, p, (0.0, 100.0),
                             t_eval=np.linspace(0.0, 100.0, 51))
        j0 = s0.pseudo_momentum()
        drift = np.max(np.abs(traj.y[2] ** 2 + traj.y[3] ** 2 + traj.y[4] ** 2 - j0))
        assert drift < 1e-8 * n * n

    def test_relaxes_to_symmetry_broken_state(self):
        p = params(lam=1.2 * mfd.critical_coupling(params()))
        n = p.atom_number
        s0 = mfd.MeanFieldState(1e-4 * math.sqrt(n) * (1 + 0.3j), 1e-4 * n,
                                -math.sqrt(n * n / 4 - (1e-4 * n) ** 2))
        traj = mfd.integrate(s0, p, (0.0, 9600.0), rtol=1e-10, method="LSODA",
                             t_eval=[9600.0])
        end = mfd.MeanFieldState.from_vector(traj.y[:, -1])
        dist = min(
            max(abs(end.alpha - c.alpha), abs(end.beta - c.beta), abs(end.w - c.w))
            for c in mfd.superradiant_states(p))
        assert dist < 1e-6 * n

    def test_below_threshold_perturbation_decays(self):
        # a cavity kick leaks into the slow atomic mode, so full contraction
        # takes ~1/(soft-mode damping), far longer than 1/kappa; assert a
        # monotone-envelope decay over a moderate horizon instead
        p = params(lam=0.5 * mfd.critical_coupling(params()))
        n = p.atom_number
        s0 = mfd.MeanFieldState(0.01 * math.sqrt(n), 0j, -n / 2)
        traj = mfd.integrate(s0, p, (0.0, 1000.0), rtol=1e-10, method="LSODA",
                             t_eval=np.linspace(0.0, 1000.0, 101))
        ar, ai, br, bi, _ = traj.y
        scaled = np.maximum(np.hypot(ar, ai) / math.sqrt(n), np.hypot(br, bi) / n)
        assert scaled[-1] < 0.75 * scaled[0]
        assert np.max(scaled) < 2.0 * scaled[0]

    def test_parity_map_commutes_with_flow(self):
        p = params(lam=1.1 * mfd.critical_coupling(params()))
        n = p.atom_number
        s0 = mfd.MeanFieldState(2e-3 * math.sqrt(n) * (0.8 - 0.1j),
                                1e-3 * n * (1 + 0.2j),
                                -math.sqrt(n * n / 4 - abs(1e-3 * n * (1 + 0.2j)) ** 2))
        flipped = mfd.MeanFieldState(-s0.alpha, -s0.beta, s0.w)
        t_eval = np.linspace(0.0, 50.0, 26)
        t1 = mfd.integrate(s0, p, (0.0, 50.0), t_eval=t_eval)
        t2 = mfd.integrate(flipped, p, (0.0, 50.0), t_eval=t_eval)
        a, b = t1.y, t2.y
        assert np.all(np.hypot(a[0] + b[0], a[1] + b[1]) < 1e-6 * math.sqrt(n))
        assert np.all(np.hypot(a[2] + b[2], a[3] + b[3]) < 1e-6 * n)
        assert np.all(np.abs(a[4] - b[4]) < 1e-6 * n)

    @pytest.mark.parametrize("method", ["RK45", "LSODA", "DOP853"])
    @pytest.mark.parametrize("rtol", [-1.0, math.nan], ids=["negative", "nan"])
    def test_invalid_tolerance_rejected(self, rtol, method):
        p = params()
        with pytest.raises(ValueError, match="rtol must be positive"):
            mfd.integrate(mfd.trivial_state(p), p, (0.0, 1.0), rtol=rtol,
                          t_eval=[1.0], method=method)

    @pytest.mark.parametrize("method", ["RK45", "LSODA", "DOP853"])
    @pytest.mark.parametrize("span", [(0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan)],
                             ids=["inf", "minus-inf", "nan"])
    def test_non_finite_span_is_refused_before_any_solver_call(self, span, method,
                                                               monkeypatch):
        # DOPRI5 given (0, inf) spins in Fortran without calling the right-hand
        # side, so no work limit stops it; the stand-ins fail where it would hang
        def reached(*args, **kwargs):
            raise AssertionError("a SciPy integrator was reached")

        for name in ("ode", "odeint", "solve_ivp"):
            monkeypatch.setattr(scipy.integrate, name, reached)
        p = params()
        with pytest.raises(ValueError, match="^t_span must be finite"):
            mfd.integrate(mfd.trivial_state(p), p, span, [1.0], method=method)

    @pytest.mark.parametrize("method", ["RK45", "LSODA"])
    def test_missing_output_times_are_refused_before_any_solver_call(self, method,
                                                                     monkeypatch):
        # the compiled routes sample only at output times, so both require them
        def reached(*args, **kwargs):
            raise AssertionError("a SciPy integrator was reached")

        for name in ("ode", "odeint", "solve_ivp"):
            monkeypatch.setattr(scipy.integrate, name, reached)
        p = params()
        with pytest.raises(ValueError, match=f"^{method} needs t_eval$"):
            mfd.integrate(mfd.trivial_state(p), p, (0.0, 1.0), None, method=method)
        with pytest.raises(ValueError, match=f"^{method} needs t_eval$"):
            _solvers.solve_ivp(oscillator, (0.0, 1.0), [1.0, 0.0], method=method,
                               rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("method", ["RK45", "LSODA", "DOP853"])
    def test_the_kernel_is_given_floats(self, method, monkeypatch):
        # _bounded converts the solver's state once, for every route; 2000
        # samples over t = 2 take RK45 on to solve_ivp's dense output too
        states, kernel = [], mfd._rhs_vector

        def recorded(t, y, *args):
            states.append(y)
            return kernel(t, y, *args)

        monkeypatch.setattr(mfd, "_rhs_vector", recorded)
        p = params(lam=1.2 * mfd.critical_coupling(params()))
        mfd.integrate(evolve_start(p), p, (0.0, 2.0), t_eval=np.linspace(0.0, 2.0, 2000),
                      method=method)
        assert states
        assert all(type(y) is list and list(map(type, y)) == [float] * 5 for y in states)


def oscillator(t, y):
    return [y[1], -y[0]]


def evolve_start(p: DickeParams) -> mfd.MeanFieldState:
    """The ``evolve`` command's default initial state."""
    n = p.atom_number
    return mfd.MeanFieldState(1e-3 * math.sqrt(n) + 0j, 1e-3 * n + 0j,
                              mfd._w_from_beta(1e-3 * n + 0j, n))


class TestDopri5Route:
    """``_solvers.solve_ivp``'s RK45 route, through ``ode``'s ``dopri5``."""

    def test_samples_at_the_requested_times(self):
        t_eval = [0.5, 1.0, 2.5]
        sol = _solvers.solve_ivp(oscillator, (0.0, 2.5), [1.0, 0.0], t_eval=t_eval,
                                 rtol=1e-10, atol=1e-12)
        assert sol.success and sol.message == "computation successful"
        assert sol.t.tolist() == t_eval and sol.y.shape == (2, 3)
        assert np.allclose(sol.y, [np.cos(t_eval), -np.sin(t_eval)], rtol=0, atol=1e-9)
        assert sol.nfev > 0 and sol.njev == 0

    def test_first_sample_at_the_start_is_the_initial_state(self):
        y0 = [0.1, 1.0 / 3.0]
        sol = _solvers.solve_ivp(oscillator, (0.0, 1.0), y0, t_eval=[0.0, 1.0],
                                 rtol=1e-10, atol=1e-12)
        assert sol.y[:, 0].tobytes() == np.array(y0).tobytes()

    def test_dopri5_failure_is_reported_not_warned(self, monkeypatch):
        monkeypatch.setattr(scipy.integrate, "ode", FailingOde)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = _solvers.solve_ivp(oscillator, (0.0, 1.0), [1.0, 0.0],
                                     t_eval=[0.0, 0.5, 1.0], rtol=1e-6, atol=1e-9)
        assert not sol.success and sol.message == DOPRI5_ERROR
        # the samples reached: the initial one
        assert sol.t.tolist() == [0.0] and sol.y.tolist() == [[1.0], [0.0]]

    def test_right_hand_side_error_reaches_the_caller_and_stops_the_run(
            self, monkeypatch):
        calls = []

        class CountingOde(scipy.integrate.ode):
            def __init__(self, f, jac=None):
                super().__init__(lambda t, y: calls.append(t) or f(t, y), jac)

        def fails_later(t, y):
            if len(calls) == 50:
                raise ValueError("right-hand side failed")
            return oscillator(t, y)

        monkeypatch.setattr(scipy.integrate, "ode", CountingOde)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="right-hand side failed"):
                _solvers.solve_ivp(fails_later, (0.0, 1e6), [1.0, 0.0],
                                   t_eval=np.linspace(0.0, 1e6, 5), rtol=1e-10,
                                   atol=1e-12)
        # DOPRI5 steps down on the NaN it is given from the raise on
        assert 50 < len(calls) < 1000

    @pytest.mark.parametrize("method", ["RK45", "LSODA"])
    @pytest.mark.parametrize("t_eval", [[0.0, 3.0], [3.0, 0.5], [0.0, 1.0, 1.0],
                                        [[0.0, 1.0]]],
                             ids=["outside", "unsorted", "repeated", "2d"])
    def test_output_times_are_checked_as_solve_ivp_checks_them(self, t_eval, method):
        # both compiled routes, with SciPy's own message
        with pytest.raises(ValueError) as scipy_error:
            scipy.integrate.solve_ivp(oscillator, (0.0, 2.5), [1.0, 0.0], t_eval=t_eval)
        with pytest.raises(ValueError) as error:
            _solvers.solve_ivp(oscillator, (0.0, 2.5), [1.0, 0.0], method=method,
                               t_eval=t_eval, rtol=1e-10, atol=1e-12)
        assert str(error.value) == str(scipy_error.value)

    def test_dense_output_times_cost_no_more_steps(self):
        def run(samples):
            return _solvers.solve_ivp(oscillator, (0.0, 10.0), [1.0, 0.0],
                                      t_eval=np.linspace(0.0, 10.0, samples),
                                      rtol=1e-10, atol=1e-12)

        sparse, dense = run(11), run(100_000)
        assert dense.success and dense.t.size == 100_000
        assert np.allclose(dense.y, [np.cos(dense.t), -np.sin(dense.t)], rtol=0, atol=1e-9)
        # 16 intervals on dopri5, then solve_ivp's dense output: no call per sample
        assert dense.nfev < 2 * sparse.nfev

    @pytest.mark.parametrize("t_eval", [[0.0, 1.0]], ids=["end"])
    def test_damping_dominated_runs_step_past_the_stiffness_test(self, t_eval,
                                                                 monkeypatch):
        # kappa >> omega puts the fast eigenvalue near the negative real
        # axis: about 3000 steps at RK45's stability limit, past which
        # DOPRI5's own stiffness test, were it on, would stop the run
        starts = []

        class CountingOde(scipy.integrate.ode):
            def set_initial_value(self, y, t=0.0):
                starts.append(t)
                return super().set_initial_value(y, t)

        monkeypatch.setattr(scipy.integrate, "ode", CountingOde)
        p0 = DickeParams(100.0, 1.0, 0.0, 0.0, 1e4, 1e4)
        p = DickeParams(100.0, 1.0, 1.2 * mfd.critical_coupling(p0), 0.0, 1e4, 1e4)
        sol = mfd.integrate(evolve_start(p), p, (0.0, 1.0), t_eval=t_eval)
        assert sol.t[-1] == 1.0 and np.all(np.diff(sol.t) > 0)
        assert starts == [0.0]  # one DOPRI5 pass, with no restart
        ref = mfd.integrate(evolve_start(p), p, (0.0, 1.0), t_eval=[1.0],
                            method="LSODA").y[:, -1]
        assert np.allclose(sol.y[:, -1], ref, rtol=0, atol=1e-6 * np.max(np.abs(ref)))

    def test_integrate_agrees_with_a_tight_dop853_reference(self):
        p = params(lam=1.2 * mfd.critical_coupling(params()))
        s0, t_eval = evolve_start(p), np.linspace(0.0, 30.0, 500)
        y = mfd.integrate(s0, p, (0.0, 30.0), t_eval=t_eval).y
        ref = mfd.integrate(s0, p, (0.0, 30.0), t_eval=t_eval, rtol=1e-13,
                            method="DOP853").y
        scale = np.max(np.abs(ref), axis=1)
        assert np.all(np.max(np.abs(y - ref), axis=1) <= 1e-8 * scale)

    def test_threads_match_serial_runs_bit_for_bit(self):
        lc = mfd.critical_coupling(params())
        runs = [params(lam=ratio * lc) for ratio in (1.05, 1.2, 1.5, 1.9)]
        t_eval = np.linspace(0.0, 10.0, 200)

        def samples(p):
            return mfd.integrate(evolve_start(p), p, (0.0, 10.0), t_eval=t_eval).y.tobytes()

        serial = [samples(p) for p in runs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more thread switches inside each run
        try:
            with ThreadPoolExecutor(4) as pool:
                threaded = list(pool.map(samples, runs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


class TestSteadyStateBranches:
    def test_symmetric_branch_structure(self):
        p = params()
        lc = mfd.critical_coupling(p)
        grid = np.array([0.5, 0.9, 1.1, 1.5]) * lc
        branch = mfd.steady_states(p, grid)
        assert branch.lam.tolist() == np.repeat(grid, [1, 1, 3, 3]).tolist()
        assert branch.vectors.shape == (8, 5)
        assert branch.flags.tolist() == (["stable", "stable"]
                                         + 2 * ["unstable", "stable", "stable"])
        # each coupling lists the trivial state first, then the + and - states
        trivial = mfd.trivial_state(p).as_vector()
        assert all(np.array_equal(branch.vectors[i], trivial) for i in (0, 1, 2, 5))
        for i in (3, 6):
            plus, minus = mfd.superradiant_states(p.with_coupling(float(branch.lam[i])))
            assert np.array_equal(branch.vectors[i], plus.as_vector())
            assert np.array_equal(branch.vectors[i + 1], minus.as_vector())

    def test_newton_recovers_closed_form_above_threshold(self):
        p = params()
        lc = mfd.critical_coupling(p)
        q = p.with_coupling(1.4 * lc)
        target = mfd.superradiant_states(q)[0]
        seed = mfd.MeanFieldState(1.15 * target.alpha, 1.1 * target.beta, target.w)
        found = mfd.newton_steady_state(q, seed)
        n = p.atom_number
        assert abs(found.alpha - target.alpha) < 1e-9 * n
        assert abs(found.beta - target.beta) < 1e-9 * n
        assert abs(found.w - target.w) < 1e-9 * n

    def test_newton_refuses_iterate_outside_disc(self):
        # a seed outside |beta| < N/2 picks no half-disc to bracket the root in
        p = DickeParams(300.0, 1.0, 12.0, 0.01, 200.0, 1e5)
        seed = mfd.MeanFieldState(1e6 + 0j, 0.51e5 + 0j, 0.0)
        with pytest.raises(mfd.ConvergenceError, match="inside"):
            mfd.newton_steady_state(p, seed)

    def test_weak_bias_just_above_threshold(self):
        # lam = 1.00075 lam_c, weak bias, N = 3.76e6: a Newton step on the
        # full fixed-point system stalled here at |residual| = 0.04
        p = DickeParams(0.8258750103613945, 0.4487237448381642, 0.327198981782771,
                        1.09138248947855e-05, 0.3239196979980446, 3761382)
        branch = mfd.steady_states(p, [p.lam])
        (flag,), (vector,) = branch.flags, branch.vectors
        state = mfd.MeanFieldState.from_vector(vector)
        assert flag == "stable"
        assert state.beta.real > 0
        assert state_norm(mfd.eom_rhs(state, p)) < 1e-12 * p.atom_number

    def test_random_regimes_solve_on_the_bias_side(self):
        rng = random.Random(21)
        for _ in range(200):
            omega = 10.0 ** rng.uniform(math.log10(0.5), 3.0)
            omega0 = 10.0 ** rng.uniform(-1.0, 1.0)
            kappa = rng.choice((0.0, 10.0 ** rng.uniform(-2.0, 3.0)))
            n = 10.0 ** rng.uniform(2.0, 7.0)
            lc = mfd.critical_coupling(DickeParams(omega, omega0, 0.0, 0.0, kappa, n))
            lam_prime = rng.choice((-1.0, 1.0)) * omega0 * 10.0 ** rng.uniform(-6.0, -1.0)
            p = DickeParams(omega, omega0, rng.uniform(0.05, 2.5) * lc, lam_prime, kappa, n)
            state = mfd.operating_point(p)
            assert state_norm(mfd.eom_rhs(state, p)) < 1e-12 * n, p
            assert state.beta.real * lam_prime > 0, p

    def test_slope_is_the_derivative_of_the_residual(self):
        for p in (DickeParams(OMEGA, 1.0, 12.0, 0.03, KAPPA, 1e5),
                  DickeParams(OMEGA, 1.0, 8.0, -0.001, KAPPA, 1e3),
                  DickeParams(2.0, 0.5, 1.3, 0.0, 0.0, 1e6)):
            k = mfd._couplings(p)

            def g(b):
                return mfd._rhs_vector(0.0, mfd._stationary(b, p, *k), p, *k)[3]

            h = 1e-6 * p.atom_number
            for frac in (-0.45, -0.2, 0.05, 0.3, 0.48):
                b = frac * p.atom_number
                central = (g(b + h) - g(b - h)) / (2.0 * h)
                slope = mfd._slope(mfd._stationary(b, p, *k), p, *k[:2])
                assert slope == pytest.approx(central, rel=1e-6, abs=1e-9 * p.omega0)

    def test_array_solve_spends_few_residual_evaluations(self, monkeypatch):
        # a wrong slope still converges, by bisection, at several times this
        # cost; each call evaluates the rows still solving
        rows = []
        rhs = mfd._rhs_vector
        monkeypatch.setattr(mfd, "_rhs_vector",
                            lambda *args: rows.append(np.size(args[1][0])) or rhs(*args))
        p = DickeParams(OMEGA, 1.0, 0.0, 0.0, KAPPA, 1e5)
        grid = np.linspace(0.0, 2.0 * mfd.critical_coupling(p), 1001)[1:]
        branch = mfd.steady_states(p, grid, 1.0 / 120.0)
        assert len(branch.lam) == 1000
        assert sum(rows) <= 8 * len(branch.lam)

    @pytest.mark.parametrize("lam_prime", [1e-12, 1e-13, 1e-15])
    def test_a_step_out_of_the_bracket_bisects_however_small(self, lam_prime):
        # from b = 0 above lam_c the first Newton step points at the
        # near-trivial root on the other half, under the step tolerance when
        # lam'/lam is below about 1e-13; the solve used to stop there
        p = DickeParams(OMEGA, 1.0, 15.0, lam_prime, KAPPA, 1e5)
        state = mfd.operating_point(p)
        assert state.beta.real / p.atom_number == pytest.approx(0.438, abs=1e-3)
        assert state_norm(mfd.eom_rhs(state, p)) < 1e-12 * p.atom_number
        branch = mfd.steady_states(p, [9.0, 15.0])
        assert branch.flags.tolist() == ["stable", "stable"]
        assert branch.vectors[1].tobytes() == state.as_vector().tobytes()

    @pytest.mark.parametrize("grid", [[1.0, 1e300], [1e300]])
    def test_a_coupling_that_overflows_the_residual_is_refused(self, grid):
        p = DickeParams(OMEGA, 1.0, 5.0, 1e-3, KAPPA, 1e5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(mfd.ConvergenceError,
                               match=r"^the steady-state equation is not finite at lam = 1e\+300$"):
                mfd.steady_states(p, grid)
            with pytest.raises(mfd.ConvergenceError, match="not finite at lam = 1e"):
                mfd.operating_point(p.with_coupling(1e300))

    def test_solve_refuses_the_half_against_the_bias(self):
        # g keeps one sign next to b = 0 and at b = -N/2 there: no bracket
        p = DickeParams(OMEGA, 1.0, 12.0, 0.03, KAPPA, 1e5)
        seed = mfd.MeanFieldState(0j, -0.3e5 + 0j, -0.4e5)
        with pytest.raises(mfd.ConvergenceError, match="against"):
            mfd.newton_steady_state(p, seed)

    def test_branch_residuals_below_spec(self):
        p = params(lam_prime=0.0)
        lc = mfd.critical_coupling(p)
        biased = DickeParams(OMEGA, 1.0, 0.0, 0.03, KAPPA, p.atom_number)
        branch = mfd.steady_states(biased, np.linspace(0.2, 1.6, 15) * lc)
        assert len(branch.lam) == 15
        for lam, vector in zip(branch.lam, branch.vectors):
            q = biased.with_coupling(float(lam))
            st_ = mfd.MeanFieldState.from_vector(vector)
            assert state_norm(mfd.eom_rhs(st_, q)) < 1e-10 * p.atom_number

    def test_bias_removes_bifurcation(self):
        p = DickeParams(OMEGA, 1.0, 0.0, 0.05, KAPPA, 1e4)
        lc = mfd.critical_coupling(p)
        grid = np.linspace(0.2, 1.8, 33) * lc
        branch = mfd.steady_states(p, grid)
        assert branch.lam.tolist() == grid.tolist()
        alphas = branch.vectors[:, 0] + 1j * branch.vectors[:, 1]
        assert np.all(np.abs(alphas) > 0.0)
        assert np.all(branch.flags == "stable")
        # smooth in lam: no jumps between neighbouring grid points
        steps = np.abs(np.diff(alphas))
        scale = np.max(np.abs(alphas))
        assert np.all(steps < 0.15 * scale)

    def test_bias_sign_selects_branch(self):
        lc = mfd.critical_coupling(params())
        grid = np.linspace(0.5, 1.5, 9) * lc
        left = mfd.steady_states(DickeParams(OMEGA, 1.0, 0.0, 0.05, KAPPA, 1e4), grid)
        right = mfd.steady_states(DickeParams(OMEGA, 1.0, 0.0, -0.05, KAPPA, 1e4), grid)
        assert len(left.lam) == len(right.lam) == 9
        for sl, sr in zip(left.vectors, right.vectors):
            assert sl[0] * sr[0] < 0
            assert sl[2] * sr[2] < 0
            # atomic coherence sign opposite to the field quadrature sign
            assert sl[0] * sl[2] < 0

    @pytest.mark.parametrize("lam_prime", [0.03, -0.03])
    def test_biased_operating_point_above_threshold(self, lam_prime):
        # above lam_c the unstable near-trivial root lies on the other half;
        # the one-point solve and the last row of a sweep from below
        # threshold agree
        p = DickeParams(OMEGA, 1.0, 12.0, lam_prime, KAPPA, 1e5)
        branch = mfd.steady_states(p, np.linspace(0.5, 12.0, 60))
        assert branch.flags[-1] == "stable"
        swept = mfd.MeanFieldState.from_vector(branch.vectors[-1])
        state = mfd.operating_point(p)
        n = p.atom_number
        assert abs(state.beta - swept.beta) < 1e-9 * n
        assert abs(state.alpha - swept.alpha) < 1e-9 * math.sqrt(n)
        assert state.beta.real * lam_prime > 0

    def test_weak_bias_walk_through_threshold_returns(self):
        # Newton used to stall just above lam_c on this grid
        p = DickeParams(OMEGA, 1.0, 0.0, 0.000444958725361214, KAPPA, 1e5)
        grid = np.linspace(4.416919132207562, 18.55423870268593, 1000)
        branch = mfd.steady_states(p, grid)
        assert branch.flags.tolist() == ["stable"] * 1000

    def test_weak_bias_sweep_is_the_operating_point(self):
        # grids drawn as the branch-sweeps benchmark draws them, both signs
        rng = random.Random(14)
        n = 1e5
        for _ in range(10):
            lo, hi = rng.uniform(0.0, 5.0), rng.uniform(12.0, 20.0)
            lam_prime = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-5.0, -2.0)
            p = DickeParams(OMEGA, 1.0, 0.0, lam_prime, KAPPA, n)
            grid = np.linspace(lo, hi, 200)
            branch = mfd.steady_states(p, grid)
            for lam, vector in zip(grid, branch.vectors):
                swept = mfd.MeanFieldState.from_vector(vector)
                ref = mfd.operating_point(p.with_coupling(float(lam)))
                assert abs(swept.alpha - ref.alpha) < 1e-6 * math.sqrt(n), (lam_prime, lam)
                assert abs(swept.beta - ref.beta) < 1e-6 * n, (lam_prime, lam)
                assert vector.tobytes() == ref.as_vector().tobytes(), (lam_prime, lam)

    @pytest.mark.parametrize("ratio", [None, 1.0 / 120.0, -1.0 / 360.0])
    def test_sweep_rows_are_the_states_at_the_parameters_of_each_point(self, ratio):
        p = DickeParams(OMEGA, 1.0, 0.0, 0.03, KAPPA, 1e5)
        grid = np.linspace(0.5, 20.0, 40)
        branch = mfd.steady_states(p, grid, ratio)
        assert branch.lam.tolist() == grid.tolist()
        for lam, vector in zip(grid.tolist(), branch.vectors):
            q = p.with_coupling(lam, None if ratio is None else ratio * lam)
            state = mfd.MeanFieldState.from_vector(vector)
            assert state.beta.real * q.lam_prime > 0
            assert vector.tobytes() == mfd.operating_point(q).as_vector().tobytes()
            assert state_norm(mfd.eom_rhs(state, q)) < 1e-10 * p.atom_number

    @pytest.mark.parametrize("ratio", [None, 0.0])
    def test_unbiased_walk_keeps_the_branch_rule_through_threshold(self, ratio):
        # lam' = 0 takes the closed forms at every point: continued from the
        # trivial state, the walk used to stay there above lam_c, unstable
        p = DickeParams(OMEGA, 1.0, 0.0, 0.0, KAPPA, 1e5)
        grid = np.array([0.1, 0.5, 0.9, 1.1, 1.25, 1.5, 2.0]) * mfd.critical_coupling(p)
        want = [mfd.operating_point(p.with_coupling(float(lam))) for lam in grid]
        _, vectors, _ = fl._walk_stack(p, grid, ratio)
        assert [mfd.MeanFieldState.from_vector(v) for v in vectors] == want
        branch = mfd.steady_states(p, grid, lam_prime_over_lam=0.0)
        assert branch.lam.tolist() == grid.tolist()
        assert branch.vectors.tolist() == [state.as_vector().tolist() for state in want]
        assert branch.flags.tolist() == ["stable"] * len(want)

    def test_grid_validation(self):
        p = params()
        for sweep in (mfd.steady_states, fl.spectrum_sweep):
            with pytest.raises(ValueError, match="^empty coupling grid$"):
                sweep(p, [])
        with pytest.raises(ValueError):
            mfd.steady_states(p, [2.0, 1.0])
        # as when every point made its own parameters
        for ratio in (None, 0.01):
            with pytest.raises(ParameterError, match="lam must be >= 0, got -1.0"):
                mfd.steady_states(p, [-1.0, 2.0], ratio)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_rejected(self, bad):
        # NaN passes the ascending check; unchecked, NaN ends in an
        # eigensolve's LinAlgError and +inf in ValidityError
        with pytest.raises(ValueError, match="coupling grid must be finite"):
            mfd.steady_states(params(), [0.1, bad])
