"""Dynamics-level validation: method-of-steps integration of the full delay
equation and one-step integration of the reduced equation, plus a
zero-crossing frequency estimator.

The full equation is stepped on a grid of which the delay is an exact
multiple, so delayed values are read at grid nodes and at interval midpoints
(Bellen & Zennaro, Numerical Methods for Delay Differential Equations, 2003,
ch. 3: the constrained-mesh method of steps).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cmcore import ModelSpec
from .errors import DivergenceError, TooFewCrossingsError
from .exppoly import ExpPoly
from .reduction import ReducedEquation

_BLOWUP = 1e6
_HISTORY_WARN = 0.5


@dataclass(frozen=True)
class SimConfig:
    dt: float
    horizon: float
    history: ExpPoly | float

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive")
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise ValueError("horizon must be positive")


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")


def _history_fn(cfg: SimConfig, r: float):
    h = cfg.history
    if isinstance(h, ExpPoly):
        def fn(s: float) -> float:
            v = h.eval(s)
            return v.real
        probe = max(abs(h.eval(-r + k * r / 16).real) for k in range(17))
    else:
        val = float(h)
        def fn(s: float) -> float:
            return val
        probe = abs(val)
    if probe > _HISTORY_WARN:
        warnings.warn(
            f"history amplitude {probe:.3g} exceeds {_HISTORY_WARN}; the cubic "
            "truncation of the nonlinearity may not be meaningful",
            stacklevel=3,
        )
    return fn


def _rhs_table(model: ModelSpec) -> list[list[float]]:
    """``a[p][q]`` with ``f(x, xd) = sum a[p][q] x^p xd^q``: A, B and every
    C[j, k] / (j! k!) folded once (``ModelSpec`` keeps 2 <= j + k <= 3)."""
    a = [[0.0] * 4 for _ in range(4)]
    a[1][0] = model.lin.A
    a[0][1] = model.lin.B
    for (j, k), c in model.C.items():
        a[j][k] = c / (math.factorial(j) * math.factorial(k))
    return a


def integrate_dde(model: ModelSpec, cfg: SimConfig) -> Trajectory:
    """Classic one-step 4th-order integration on a grid the delay fits exactly.

    The step is snapped to dt = r / n_hist, so the delay is an exact multiple
    of it. The delayed value of every stage then falls on a grid node or on
    an interval midpoint of a completed interval: with j = i - n_hist, step i
    reads x[j] at its start, the cubic Hermite at theta = 1/2,
    (x[j] + x[j+1]) / 2 + dt/8 (m[j] - m[j+1]), at its midpoint, and x[j+1]
    at its end (m is the slope at each node). For j < 0 the lookups come
    from the analytic history, exact at every stage point.

    The right-hand side is a cubic in x whose four coefficients are cubics
    in the delayed value; they are evaluated once per distinct delayed
    value, twice a step, since the end of one step is the start of the next.
    """
    lin = model.lin
    r = lin.r
    if cfg.dt > r / 20:
        raise ValueError(f"dt must be at most r/20 = {r / 20:.6g}")
    if cfg.horizon < 10 * r:
        raise ValueError(f"horizon must be at least 10 r = {10 * r:.6g}")
    n_hist = max(20, int(math.ceil(r / cfg.dt)))
    dt = r / n_hist
    n = int(math.ceil(cfg.horizon / dt))

    hist = _history_fn(cfg, r)
    a = _rhs_table(model)
    a01, a02, a03 = a[0][1:]
    a10, a11, a12 = a[1][:3]
    a20, a21 = a[2][:2]
    c3 = a[3][0]

    def coeffs(xd: float) -> tuple[float, float, float]:
        # x^0, x^1, x^2 coefficients of f(., xd); the x^3 one is c3
        return ((a03 * xd + a02) * xd + a01) * xd, (a12 * xd + a11) * xd + a10, a21 * xd + a20

    half, eighth, sixth = 0.5 * dt, 0.125 * dt, dt / 6.0
    x = hist(0.0)
    xs = [x]
    ms = []
    c0, c1, c2 = coeffs(hist(-r))
    for i in range(n):
        if not abs(x) <= _BLOWUP:  # also catches nan (0 * inf in an overflowing stage)
            raise DivergenceError(f"|x| exceeded {_BLOWUP:g} at t = {i * dt:.6g}", time=i * dt)
        j = i - n_hist
        if j >= 0:
            xd_mid = 0.5 * (xs[j] + xs[j + 1]) + eighth * (ms[j] - ms[j + 1])
            xd_end = xs[j + 1]
        else:
            xd_mid = hist((j + 0.5) * dt)
            xd_end = hist((j + 1) * dt)
        k1 = ((c3 * x + c2) * x + c1) * x + c0
        ms.append(k1)
        c0, c1, c2 = coeffs(xd_mid)
        y = x + half * k1
        k2 = ((c3 * y + c2) * y + c1) * y + c0
        y = x + half * k2
        k3 = ((c3 * y + c2) * y + c1) * y + c0
        c0, c1, c2 = coeffs(xd_end)
        y = x + dt * k3
        k4 = ((c3 * y + c2) * y + c1) * y + c0
        x = x + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
        xs.append(x)
    if not abs(x) <= _BLOWUP:
        raise DivergenceError(f"|x| exceeded {_BLOWUP:g} at t = {n * dt:.6g}", time=n * dt)
    return Trajectory(times=np.arange(n + 1) * dt, values=np.array(xs))


def integrate_reduced(red: ReducedEquation, u0: complex, cfg: SimConfig) -> Trajectory:
    """One-step 4th-order integration of the complex scalar reduced equation."""
    if abs(u0) > 0.5:
        raise ValueError("|u0| must be at most 0.5 for the cubic truncation to be meaningful")
    lam = red.lambda1
    items = [((j, k), g, math.factorial(j) * math.factorial(k)) for (j, k), g in red.g.items()]

    def rhs(u: complex) -> complex:
        out = lam * u
        ub = u.conjugate()
        for (j, k), g, fact in items:
            out += g * u**j * ub**k / fact
        return out

    n = int(math.ceil(cfg.horizon / cfg.dt))
    dt = cfg.horizon / n
    us = np.empty(n + 1, dtype=complex)
    us[0] = u0
    for i in range(n):
        u = us[i]
        if abs(u) > _BLOWUP:
            raise DivergenceError(f"|u| exceeded {_BLOWUP:g} at t = {i * dt:.6g}", time=i * dt)
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * dt * k1)
        k3 = rhs(u + 0.5 * dt * k2)
        k4 = rhs(u + dt * k3)
        us[i + 1] = u + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return Trajectory(times=np.arange(n + 1) * dt, values=us)


def measure_frequency(traj: Trajectory, t_min: float) -> float:
    """Angular frequency from the mean spacing of zero crossings after t_min.

    A sample that is exactly 0.0 is a crossing at its own time; a sign change
    between two samples is a crossing at the linearly interpolated time.
    """
    mask = traj.times >= t_min
    ts = traj.times[mask]
    vs = np.real(traj.values[mask])
    a, b = vs[:-1], vs[1:]
    change = a * b < 0.0
    crossings = ts[:-1].copy()
    lo, hi = ts[:-1][change], ts[1:][change]
    crossings[change] = lo - a[change] * (hi - lo) / (b[change] - a[change])
    crossings = crossings[change | (a == 0.0)]
    if len(crossings) < 5:
        raise TooFewCrossingsError(
            f"only {len(crossings)} zero crossings after t = {t_min:g}; need at least 5"
        )
    spacing = (crossings[-1] - crossings[0]) / (len(crossings) - 1)
    return math.pi / float(spacing)


def manifold_history(
    u0: complex,
    so,
    eig,
    third=None,
) -> ExpPoly:
    """History lying (to cubic order) on the computed manifold at coordinate u0.

    2 Re(u0 phi1) + sum over stored w profiles of w_jk u0^j conj(u0)^k / (j! k!).
    """
    ub = u0.conjugate()
    out = eig.phi1.scale(u0) + eig.phi2.scale(ub)
    out = out + so.w20.scale(u0 * u0 / 2) + so.w11.scale(u0 * ub) + so.w02.scale(ub * ub / 2)
    if third is not None:
        out = out + third.w21.scale(u0 * u0 * ub / 2) + third.w21.conjugate().scale(u0 * ub * ub / 2)
    return out


def reconstruct_state(u: complex, so, third=None) -> float:
    """Head-point value x(t) ~ 2 Re u + sum w_jk(0) u^j ubar^k / (j! k!)."""
    ub = u.conjugate()
    val = 2 * u.real + (so.w20_0 * u * u / 2 + so.w11_0 * u * ub + so.w02_0 * ub * ub / 2).real
    if third is not None:
        val += (third.w21_0 * u * u * ub).real  # w21 and conj(w12) terms combine
    return val
