"""Method-of-steps integrator, reduced-equation integrator, frequency
measurement, and dynamic validation of the computed manifold coefficients."""

import math
import random

import numpy as np
import pytest

from ddecm.chareq import LinearPart
from ddecm.cmcore import ModelSpec, second_order, third_order
from ddecm.ddesim import (
    _BLOWUP,
    SimConfig,
    Trajectory,
    _history_fn,
    integrate_dde,
    integrate_reduced,
    manifold_history,
    measure_frequency,
    reconstruct_state,
)
from ddecm.errors import DivergenceError, TooFewCrossingsError
from ddecm.reduction import ReducedEquation, assemble_reduced

C_KEYS = ((2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3))


def reference_integrate_dde(model, cfg):
    """General-lookup method of steps: the delayed value at any float position,
    by the cubic Hermite at any theta, and the right-hand side term by term.

    The same RK4 scheme and grid as ``integrate_dde``, written without using
    that every delayed stage point is a node or an interval midpoint.
    """
    lin = model.lin
    r = lin.r
    n_hist = max(20, int(math.ceil(r / cfg.dt)))
    dt = r / n_hist
    n = int(math.ceil(cfg.horizon / dt))
    hist = _history_fn(cfg, r)

    def rhs(x, xd):
        out = lin.A * x + lin.B * xd
        for (j, k), c in model.C.items():
            out += c * x**j * xd**k / (math.factorial(j) * math.factorial(k))
        return out

    def hermite(x0, m0, x1, m1, theta, h):
        t2 = theta * theta
        t3 = t2 * theta
        return (
            x0 * (2 * t3 - 3 * t2 + 1)
            + m0 * h * (t3 - 2 * t2 + theta)
            + x1 * (-2 * t3 + 3 * t2)
            + m1 * h * (t3 - t2)
        )

    xs = np.empty(n + 1)
    ms = np.empty(n + 1)
    xs[0] = hist(0.0)

    def past(t, completed):
        if t <= 0.0:
            return hist(t)
        pos = t / dt
        j = min(int(pos), completed - 1)
        return hermite(xs[j], ms[j], xs[j + 1], ms[j + 1], pos - j, dt)

    for i in range(n):
        t = i * dt
        x = xs[i]
        k1 = rhs(x, past(t - r, i))
        ms[i] = k1
        xd_mid = past(t + 0.5 * dt - r, i)
        k2 = rhs(x + 0.5 * dt * k1, xd_mid)
        k3 = rhs(x + 0.5 * dt * k2, xd_mid)
        k4 = rhs(x + dt * k3, past(t + dt - r, i))
        xs[i + 1] = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return Trajectory(times=np.arange(n + 1) * dt, values=xs)


def reference_measure_frequency(traj, t_min):
    """Loop form of the zero-crossing rule of ``measure_frequency``."""
    mask = traj.times >= t_min
    ts = traj.times[mask]
    vs = np.real(traj.values[mask])
    crossings = []
    for i in range(len(vs) - 1):
        a, b = vs[i], vs[i + 1]
        if a == 0.0:
            crossings.append(ts[i])
        elif a * b < 0.0:
            crossings.append(ts[i] - a * (ts[i + 1] - ts[i]) / (b - a))
    if len(crossings) < 5:
        raise TooFewCrossingsError(f"only {len(crossings)} zero crossings")
    spacing = (crossings[-1] - crossings[0]) / (len(crossings) - 1)
    return math.pi / spacing


def random_hopf_models(seed, count):
    """k = 0, B < 0 points of the Hopf curve with all seven Taylor entries."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        omega = math.exp(rng.uniform(math.log(0.03), math.log(30.0)))
        theta = rng.uniform(0.05, math.pi - 0.05)
        lin = LinearPart(omega / math.tan(theta), -omega / math.sin(theta), theta / omega)
        out.append(ModelSpec(lin, {key: rng.uniform(-2.0, 2.0) for key in C_KEYS}))
    return out


def assert_matches_reference(model, cfg):
    traj = integrate_dde(model, cfg)
    ref = reference_integrate_dde(model, cfg)
    np.testing.assert_array_equal(traj.times, ref.times)
    scale = np.max(np.abs(ref.values))
    assert np.max(np.abs(traj.values - ref.values)) <= 1e-12 * scale
    return traj


def project_series(traj, lin, eig, n_hist, start, step):
    """u(t_i) = <Psi1, x_{t_i}> on grid nodes via composite Simpson.

    The integrator snaps dt to r/n_hist, so the pairing integral's nodes all
    lie on the trajectory grid.
    """
    r = lin.r
    dt = traj.times[1] - traj.times[0]
    assert n_hist % 2 == 0
    zs = -r + np.arange(n_hist + 1) * dt
    kernel = eig.Psi1_at_0 * np.exp(-1j * eig.omega * (zs + r))
    wgt = np.ones(n_hist + 1)
    wgt[1:-1:2] = 4.0
    wgt[2:-1:2] = 2.0
    wgt *= dt / 3.0
    out = []
    for i in range(start, len(traj.times), step):
        seg = traj.values[i - n_hist : i + 1]
        u = eig.Psi1_at_0 * traj.values[i] + lin.B * np.dot(wgt * kernel, seg)
        out.append((i, u))
    return out


class TestIntegrateDde:
    def test_zero_history(self, bench_model_c1, bench_lin):
        cfg = SimConfig(dt=bench_lin.r / 20, horizon=12 * bench_lin.r, history=0.0)
        traj = integrate_dde(bench_model_c1, cfg)
        assert np.all(traj.values == 0.0)

    def test_linear_critical_frequency(self, bench_lin):
        model = ModelSpec(bench_lin, {})
        r = bench_lin.r
        traj = integrate_dde(model, SimConfig(dt=r / 40, horizon=50 * r, history=0.01))
        freq = measure_frequency(traj, t_min=10 * r)
        assert abs(freq - 1.0) <= 0.01

    def test_fourth_order_convergence(self, bench_lin):
        model = ModelSpec(bench_lin, {})
        r = bench_lin.r
        ends = []
        for n in (20, 40, 80):
            traj = integrate_dde(model, SimConfig(dt=r / n, horizon=12 * r, history=0.01))
            ends.append(traj.values[-1])
        ratio = abs(ends[0] - ends[1]) / abs(ends[1] - ends[2])
        assert 8.0 <= ratio <= 40.0

    def test_blow_up_reports_time(self, bench_lin):
        # x' = -x(t-r) + x^2 with a large constant history escapes in finite time
        model = ModelSpec(bench_lin, {(2, 0): 2.0})
        cfg = SimConfig(dt=bench_lin.r / 40, horizon=20 * bench_lin.r, history=10.0)
        with pytest.warns(UserWarning, match="history amplitude"):
            with pytest.raises(DivergenceError) as err:
                integrate_dde(model, cfg)
        assert 0.0 < err.value.time < 20 * bench_lin.r

    def test_dt_cap(self, bench_model_c1, bench_lin):
        with pytest.raises(ValueError):
            integrate_dde(bench_model_c1, SimConfig(dt=bench_lin.r, horizon=20 * bench_lin.r, history=0.0))

    def test_horizon_floor(self, bench_model_c1, bench_lin):
        with pytest.raises(ValueError):
            integrate_dde(bench_model_c1, SimConfig(dt=bench_lin.r / 40, horizon=bench_lin.r, history=0.0))

    def test_blow_up_at_last_step(self):
        # x' = x from 1e-4 first exceeds the guard at node i_star; a horizon
        # ending on that node leaves it to the check after the last step
        model = ModelSpec(LinearPart(1.0, 0.0, 1.0), {})
        cfg = SimConfig(dt=1 / 40, horizon=40.0, history=1e-4)
        with pytest.raises(DivergenceError) as err:
            integrate_dde(model, cfg)
        dt = 1 / 40
        i_star = round(err.value.time / dt)
        before = integrate_dde(model, SimConfig(dt=dt, horizon=(i_star - 1.5) * dt, history=1e-4))
        assert np.max(np.abs(before.values)) <= _BLOWUP
        horizon = (i_star - 0.5) * dt
        with pytest.raises(DivergenceError) as err:
            integrate_dde(model, SimConfig(dt=dt, horizon=horizon, history=1e-4))
        assert err.value.time == pytest.approx(horizon, abs=dt)
        assert err.value.time == pytest.approx(i_star * dt, rel=1e-12)

    @pytest.mark.filterwarnings("ignore:history amplitude")
    def test_overflow_to_nan_raises(self, bench_lin):
        # with no x^3 term the cubic's leading coefficient is 0, and 0 * inf
        # turns a stage that overflows into nan, which the guard must catch
        model = ModelSpec(bench_lin, {(2, 0): 1e300})
        dt = bench_lin.r / 40
        with pytest.raises(DivergenceError) as err:
            integrate_dde(model, SimConfig(dt=dt, horizon=12 * bench_lin.r, history=1.0))
        assert err.value.time == pytest.approx(dt)


class TestReferenceIntegrator:
    """``integrate_dde`` against the general-lookup method of steps."""

    @pytest.mark.parametrize("index", range(20))
    def test_random_hopf_models(self, index):
        model = random_hopf_models(seed=5, count=20)[index]
        r = model.lin.r
        assert_matches_reference(model, SimConfig(dt=r / 40, horizon=50 * r, history=1e-4))

    def test_manifold_history(self, bench_model_c1, bench_lin, bench_eig):
        so = second_order(bench_model_c1, bench_eig)
        third = third_order(bench_model_c1, bench_eig, so)
        history = manifold_history(0.01, so, bench_eig, third)
        r = bench_lin.r
        traj = assert_matches_reference(bench_model_c1, SimConfig(dt=r / 40, horizon=20 * r, history=history))
        assert np.max(np.abs(traj.values)) > 0.01

    def test_step_not_dividing_delay(self, bench_model_c1, bench_lin, bench_eig):
        so = second_order(bench_model_c1, bench_eig)
        history = manifold_history(0.01, so, bench_eig)
        r = bench_lin.r
        cfg = SimConfig(dt=r / 37.3, horizon=20 * r, history=history)
        traj = assert_matches_reference(bench_model_c1, cfg)
        dt = r / 38  # the step snapped so that the delay is 38 steps
        n = int(math.ceil(cfg.horizon / dt))
        np.testing.assert_array_equal(traj.times, np.arange(n + 1) * dt)


class TestIntegrateReduced:
    def test_zero_start(self):
        red = ReducedEquation(1j, {})
        traj = integrate_reduced(red, 0j, SimConfig(dt=0.01, horizon=10.0, history=0.0))
        assert np.all(traj.values == 0)

    def test_pure_rotation_conserves_modulus(self):
        red = ReducedEquation(1j, {})
        traj = integrate_reduced(red, 0.3 + 0j, SimConfig(dt=0.01, horizon=10.0, history=0.0))
        assert np.max(np.abs(np.abs(traj.values) - 0.3)) <= 1e-10

    def test_cubic_radial_law(self):
        # u' = i u + (g21/2) u^2 ubar has |u|' = l1 |u|^3 exactly, with the
        # closed-form solution r(t) = r0 / sqrt(1 - 2 l1 r0^2 t)
        g21 = complex(-0.8, 0.3)
        l1 = g21.real / 2
        red = ReducedEquation(1j, {(2, 1): g21})
        r0 = 0.1
        T = 10.0
        traj = integrate_reduced(red, r0 + 0j, SimConfig(dt=0.005, horizon=T, history=0.0))
        want = r0 / math.sqrt(1.0 - 2.0 * l1 * r0**2 * T)
        assert abs(abs(traj.values[-1]) - want) <= 1e-9

    def test_amplitude_cap(self):
        with pytest.raises(ValueError):
            integrate_reduced(ReducedEquation(1j, {}), 0.6, SimConfig(dt=0.01, horizon=1.0, history=0.0))

    def test_divergence_guard(self):
        # u' = i u + 2 u^2 ubar: |u|' = |u|^3, finite-time escape from 0.5
        red = ReducedEquation(1j, {(2, 1): 4.0})
        with pytest.raises(DivergenceError):
            integrate_reduced(red, 0.5, SimConfig(dt=0.01, horizon=20.0, history=0.0))


class TestValidation:
    def test_sim_config(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0, horizon=1.0, history=0.0)
        with pytest.raises(ValueError):
            SimConfig(dt=0.1, horizon=-1.0, history=0.0)

    def test_trajectory_shapes(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.array([1.0, 2.0]))


class TestMeasureFrequency:
    def test_unit_sine(self):
        t = np.arange(0.0, 60.0, 0.01)
        freq = measure_frequency(Trajectory(t, np.sin(t)), t_min=0.0)
        assert abs(freq - 1.0) <= 1e-4

    def test_fast_sine(self):
        t = np.arange(0.0, 30.0, 0.01)
        freq = measure_frequency(Trajectory(t, np.sin(3 * t)), t_min=0.0)
        assert abs(freq - 3.0) <= 1e-3

    def test_too_few_crossings(self):
        t = np.arange(0.0, 1.0, 0.01)
        with pytest.raises(TooFewCrossingsError):
            measure_frequency(Trajectory(t, np.sin(t)), t_min=0.0)

    def test_exact_zero_samples_match_loop(self):
        # samples that are exactly 0.0, alone and in pairs, count at their own time
        t = np.arange(0.0, 40.0, 0.5)
        x = np.round(np.sin(t), 1)
        x[::7] = 0.0
        x[1::13] = 0.0
        traj = Trajectory(t, x)
        assert np.count_nonzero(x == 0.0) > 10
        assert measure_frequency(traj, t_min=2.0) == reference_measure_frequency(traj, t_min=2.0)

    def test_simulated_runs_match_loop(self):
        # benchmark-style runs; at small theta = omega r a run has too few crossings
        measured = 0
        for model in random_hopf_models(seed=7, count=8):
            r = model.lin.r
            traj = integrate_dde(model, SimConfig(dt=r / 40, horizon=50 * r, history=1e-4))
            try:
                want = reference_measure_frequency(traj, t_min=10 * r)
            except TooFewCrossingsError:
                with pytest.raises(TooFewCrossingsError):
                    measure_frequency(traj, t_min=10 * r)
                continue
            assert measure_frequency(traj, t_min=10 * r) == want
            measured += 1
        assert measured >= 3

    def test_too_few_crossings_matches_loop(self):
        t = np.arange(0.0, 10.0, 0.01)
        traj = Trajectory(t, np.sin(t))
        with pytest.raises(TooFewCrossingsError):
            reference_measure_frequency(traj, t_min=0.0)
        with pytest.raises(TooFewCrossingsError):
            measure_frequency(traj, t_min=0.0)


class TestManifoldDynamics:
    def test_nonlinear_frequency_at_small_amplitude(self, bench_model_c1, bench_lin):
        r = bench_lin.r
        traj = integrate_dde(bench_model_c1, SimConfig(dt=r / 40, horizon=50 * r, history=1e-3))
        freq = measure_frequency(traj, t_min=10 * r)
        assert abs(freq - 1.0) <= 0.02

    def test_envelope_matches_reduced_flow(self, bench_model_c1, bench_lin, bench_eig):
        r = bench_lin.r
        so = second_order(bench_model_c1, bench_eig)
        third = third_order(bench_model_c1, bench_eig, so)
        u_init = 0.01
        history = manifold_history(u_init, so, bench_eig, third)
        from ddecm.spectral import project_coordinates

        u0, _ = project_coordinates(history, bench_eig, bench_lin)
        assert abs(u0 - u_init) <= 1e-4  # manifold part projects to ~nothing

        n = 40
        cfg = SimConfig(dt=r / n, horizon=20 * r, history=history)
        full = integrate_dde(bench_model_c1, cfg)
        red = assemble_reduced(bench_model_c1, bench_eig, so, third)
        dt = full.times[1] - full.times[0]
        reduced = integrate_reduced(red, u0, SimConfig(dt=dt, horizon=full.times[-1], history=0.0))
        recon = np.array([reconstruct_state(u, so, third) for u in reduced.values])

        period = 2 * math.pi / bench_eig.omega
        win = int(round(period / dt))
        n_win = len(full.values) // win
        for k in range(n_win):
            sl = slice(k * win, (k + 1) * win)
            env_full = np.max(np.abs(full.values[sl]))
            env_recon = np.max(np.abs(recon[sl]))
            assert abs(env_full - env_recon) <= 0.10 * env_full

    def test_quadratic_manifold_invariance(self, bench_model_c1, bench_lin, bench_eig):
        """Off-critical-plane residual drops to third order once the quadratic
        terms are subtracted: the residual scales like amplitude cubed."""
        r = bench_lin.r
        so = second_order(bench_model_c1, bench_eig)
        n = 40
        resid = []
        for amp in (0.02, 0.01):
            history = manifold_history(amp, so, bench_eig)
            traj = integrate_dde(bench_model_c1, SimConfig(dt=r / n, horizon=30 * r, history=history))
            start = int(15 * r / (traj.times[1] - traj.times[0]))
            samples = project_series(traj, bench_lin, bench_eig, n, start, 2 * n)
            errs = []
            for i, u in samples:
                v = traj.values[i] - 2 * u.real - (
                    so.w20_0 * u * u / 2 + so.w11_0 * u * u.conjugate() + so.w02_0 * u.conjugate() ** 2 / 2
                ).real
                errs.append(abs(v))
            resid.append(np.max(errs))
        # halving the amplitude should shrink the residual ~8x; allow slack
        assert resid[0] / resid[1] >= 4.0

    def test_dynamic_extraction_of_w21(self, bench_model_c1, bench_lin, bench_eig):
        """Regress the third-order off-plane residual onto {u^2 ubar, u^3}:
        the first coefficient is w21(0), measured from the flow alone."""
        r = bench_lin.r
        so = second_order(bench_model_c1, bench_eig)
        third = third_order(bench_model_c1, bench_eig, so)
        n = 40
        history = manifold_history(0.01, so, bench_eig, third)
        traj = integrate_dde(bench_model_c1, SimConfig(dt=r / n, horizon=60 * r, history=history))
        dt = traj.times[1] - traj.times[0]
        start = int(25 * r / dt)
        samples = project_series(traj, bench_lin, bench_eig, n, start, n // 4)
        rows, rhs = [], []
        for i, u in samples:
            v = traj.values[i] - 2 * u.real - (
                so.w20_0 * u * u / 2 + so.w11_0 * u * u.conjugate() + so.w02_0 * u.conjugate() ** 2 / 2
            ).real
            m1 = u * u * u.conjugate()
            m2 = u**3
            rows.append([m1.real, -m1.imag, m2.real, -m2.imag])
            rhs.append(v)
        sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
        measured = complex(sol[0], sol[1])
        assert abs(measured - third.w21_0) <= 2e-2