"""Method-of-steps integrator, frequency measurement, and dynamic validation
of the computed manifold coefficients and of l1 by the Hopf amplitude law."""

import math
import random

import numpy as np
import pytest

from ddecm.chareq import LinearPart
from ddecm.cmcore import ModelSpec, second_order, third_order
from ddecm.ddesim import _BLOWUP, SimConfig, Trajectory, integrate_dde, measure_frequency
from ddecm.errors import DivergenceError, TooFewCrossingsError

from conftest import (
    SUPERCRITICAL_C,
    amplitude_ratio_limit,
    half_peak_to_peak,
    hopf_amplitude_run,
    hopf_curve_model,
    manifold_history,
)

C_KEYS = ((2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3))


def reference_integrate_dde(model, dt, horizon, history):
    """General-lookup method of steps: the delayed value at any float position,
    by the cubic Hermite at any theta, and the right-hand side term by term.

    The same RK4 scheme and grid as ``integrate_dde``, written without using
    that every delayed stage point is a node or an interval midpoint.
    ``history`` is x on [-r, 0]: a number, as in ``SimConfig``, or a callable
    of s, such as a manifold start.
    """
    lin = model.lin
    r = lin.r
    n_hist = max(20, int(math.ceil(r / dt)))
    dt = r / n_hist
    n = int(math.ceil(horizon / dt))
    hist = history if callable(history) else lambda s: float(history)

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
    prev = None  # index of the last nonzero sample
    for i in range(len(vs)):
        b = vs[i]
        if b == 0.0:
            continue
        if prev is not None and (vs[prev] < 0.0) != (b < 0.0):
            a = vs[prev]
            if prev == i - 1:
                crossings.append(ts[prev] - a * (ts[i] - ts[prev]) / (b - a))
            else:  # a run of zeros between opposite signs: one crossing, at its start
                crossings.append(ts[prev + 1])
        prev = i
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
        lin = hopf_curve_model(omega, theta, 0, {}).lin
        out.append(ModelSpec(lin, {key: rng.uniform(-2.0, 2.0) for key in C_KEYS}))
    return out


def assert_matches_reference(model, cfg):
    traj = integrate_dde(model, cfg)
    ref = reference_integrate_dde(model, cfg.dt, cfg.horizon, cfg.history)
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

    def test_step_not_dividing_delay(self, bench_model_c1, bench_lin):
        r = bench_lin.r
        cfg = SimConfig(dt=r / 37.3, horizon=20 * r, history=0.01)
        traj = assert_matches_reference(bench_model_c1, cfg)
        dt = r / 38  # the step snapped so that the delay is 38 steps
        n = int(math.ceil(cfg.horizon / dt))
        np.testing.assert_array_equal(traj.times, np.arange(n + 1) * dt)


class TestValidation:
    def test_sim_config(self, bench_model_c1):
        # SimConfig only holds the settings; integrate_dde range-checks them first
        with pytest.raises(ValueError, match="dt must be positive"):
            integrate_dde(bench_model_c1, SimConfig(dt=0.0, horizon=1.0, history=0.0))
        with pytest.raises(ValueError, match="horizon must be positive"):
            integrate_dde(bench_model_c1, SimConfig(dt=0.1, horizon=-1.0, history=0.0))

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
        # samples that are exactly 0.0, alone and in pairs: a run counts once, at
        # its start, and only between nonzero samples of opposite signs
        t = np.arange(0.0, 40.0, 0.5)
        x = np.round(np.sin(t), 1)
        x[::7] = 0.0
        x[1::13] = 0.0
        traj = Trajectory(t, x)
        assert np.count_nonzero(x == 0.0) > 10
        assert measure_frequency(traj, t_min=2.0) == reference_measure_frequency(traj, t_min=2.0)

    def test_zero_runs(self):
        t = np.arange(12.0)
        # a touch (+, 0, +) is no crossing; (+, 0, 0, -) is one, at the first zero
        x = np.array([1.0, 0.0, 1.0, 0.0, 0.0, -1.0, 0.0, 1.0, -1.0, 0.0, 0.0, 0.0])
        crossings = [3.0, 6.0, 7.5]
        with pytest.raises(TooFewCrossingsError, match="only 3 zero crossings"):
            measure_frequency(Trajectory(t, x), t_min=0.0)
        with pytest.raises(TooFewCrossingsError, match="only 3 zero crossings"):
            reference_measure_frequency(Trajectory(t, x), t_min=0.0)
        x = np.concatenate([x, [-1.0, 1.0, 0.0, -1.0]])  # two more: 12.5 and 14
        crossings += [12.5, 14.0]
        want = math.pi / ((crossings[-1] - crossings[0]) / 4)
        traj = Trajectory(np.arange(16.0), x)
        assert measure_frequency(traj, t_min=0.0) == reference_measure_frequency(traj, t_min=0.0) == want

    def test_flat_zero_signal_has_no_crossings(self):
        traj = Trajectory(np.arange(0.0, 50.0, 0.01), np.zeros(5000))
        with pytest.raises(TooFewCrossingsError, match="only 0 zero crossings"):
            measure_frequency(traj, t_min=0.0)
        with pytest.raises(TooFewCrossingsError, match="only 0 zero crossings"):
            reference_measure_frequency(traj, t_min=0.0)

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

    def test_amplitude_law_supercritical(self):
        """l1 < 0: the stable cycle at B -> (1 + eps) B has amplitude
        2 sqrt(-Re lambda'(0) eps / l1); the measured-to-predicted ratio,
        extrapolated to eps = 0, is 1. Every point is k = 0 with B < 0, where
        the rest of the spectrum is stable; the last has omega = 10 and the
        cubic coefficients scaled by 10. Acceptance criterion 7 checks
        (omega, theta) = (1, 2)."""
        scaled = {key: c * 10.0 if sum(key) == 3 else c for key, c in SUPERCRITICAL_C.items()}
        points = [(1.0, theta, SUPERCRITICAL_C) for theta in (1.5, 2.5, 2.8)] + [(10.0, 2.0, scaled)]
        for omega, theta, C in points:
            ratio = amplitude_ratio_limit(hopf_curve_model(omega, theta, 0, C))
            assert abs(ratio - 1.0) <= 1e-2, (omega, theta, ratio)

    def test_amplitude_law_subcritical(self):
        """l1 > 0, eps < 0: the cycle of amplitude 2 sqrt(-Re lambda'(0) eps / l1)
        is unstable; a history inside it decays to 0 and one outside diverges."""
        model = hopf_curve_model(1.0, 2.0, 0, {(2, 0): 1.0, (0, 2): 0.4, (2, 1): -0.8, (0, 3): 0.3})
        inside, amp = hopf_amplitude_run(model, -0.01, 0.7)
        assert half_peak_to_peak(inside) <= 1e-6 * amp
        with pytest.raises(DivergenceError):
            hopf_amplitude_run(model, -0.01, 1.3)

    def test_quadratic_manifold_invariance(self, bench_model_c1, bench_lin, bench_eig):
        """Off-critical-plane residual drops to third order once the quadratic
        terms are subtracted: the residual scales like amplitude cubed. A
        manifold start is not constant, so the reference integrator runs it."""
        r = bench_lin.r
        so = second_order(bench_model_c1, bench_eig)
        n = 40
        resid = []
        for amp in (0.02, 0.01):
            history = manifold_history(amp, so, bench_eig)
            traj = reference_integrate_dde(bench_model_c1, r / n, 30 * r, lambda s: history.eval(s).real)
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
        the first coefficient is w21(0), measured from the flow alone (on the
        reference integrator, from a manifold start)."""
        r = bench_lin.r
        so = second_order(bench_model_c1, bench_eig)
        third = third_order(bench_model_c1, bench_eig, so)
        n = 40
        history = manifold_history(0.01, so, bench_eig, third)
        traj = reference_integrate_dde(bench_model_c1, r / n, 60 * r, lambda s: history.eval(s).real)
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