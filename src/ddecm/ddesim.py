"""Dynamics-level validation of the full delay equation, the only one simulated:
method-of-steps integration from a constant history and a zero-crossing
frequency estimator.

The equation is stepped on a grid of which the delay is an exact multiple, so
delayed values are read at grid nodes and at interval midpoints (Bellen &
Zennaro, Numerical Methods for Delay Differential Equations, 2003, ch. 3: the
constrained-mesh method of steps).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cmcore import ModelSpec
from .errors import DivergenceError, TooFewCrossingsError

_BLOWUP = 1e6
_HISTORY_WARN = 0.5
# the most steps a run may take on its snapped grid: every step is held in memory
MAX_SIM_STEPS = 10**6


@dataclass(frozen=True)
class SimConfig:
    """The settings of one run: the step, the horizon and the constant value
    of x on [-r, 0]. ``integrate_dde`` checks them."""

    dt: float
    horizon: float
    history: float


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")


def integrate_dde(model: ModelSpec, cfg: SimConfig) -> Trajectory:
    """Classic one-step 4th-order integration on a grid the delay fits exactly.

    The step is snapped to dt = r / n_hist, so the delay is an exact multiple
    of it. The delayed value of every stage then falls on a grid node or on
    an interval midpoint of a completed interval: with j = i - n_hist, step i
    reads x[j] at its start, the cubic Hermite at theta = 1/2,
    (x[j] + x[j+1]) / 2 + dt/8 (m[j] - m[j+1]), at its midpoint, and x[j+1]
    at its end (m is the slope at each node). For j < 0 every lookup is the
    constant history.

    The right-hand side is a cubic in x whose four coefficients are cubics
    in the delayed value; they are evaluated once per distinct delayed
    value, twice a step, since the end of one step is the start of the next.
    """
    r = model.lin.r
    if not (cfg.dt > 0 and math.isfinite(cfg.dt)):
        raise ValueError("dt must be positive")
    if not (cfg.horizon > 0 and math.isfinite(cfg.horizon)):
        raise ValueError("horizon must be positive")
    if cfg.horizon / cfg.dt > MAX_SIM_STEPS:  # inf too: r / dt is finite past this check
        raise ValueError(f"horizon / dt = {cfg.horizon / cfg.dt:.3g} steps exceeds {MAX_SIM_STEPS}")
    if cfg.dt > r / 20:
        raise ValueError(f"dt must be at most r/20 = {r / 20:.6g}")
    if cfg.horizon < 10 * r:
        raise ValueError(f"horizon must be at least 10 r = {10 * r:.6g}")
    n_hist = max(20, int(math.ceil(r / cfg.dt)))
    dt = r / n_hist
    n = int(math.ceil(cfg.horizon / dt))
    if n > MAX_SIM_STEPS:  # the snapped step is up to 5 % shorter than cfg.dt
        raise ValueError(f"horizon / (r / {n_hist}) = {n} steps exceeds {MAX_SIM_STEPS}")
    if not math.isfinite(cfg.history):
        raise ValueError("history must be finite")

    h = cfg.history
    if abs(h) > _HISTORY_WARN:
        warnings.warn(
            f"history amplitude {abs(h):.3g} exceeds {_HISTORY_WARN}; the cubic "
            "truncation of the nonlinearity may not be meaningful",
            stacklevel=2,
        )
    # f(x, xd) = sum a_pq x^p xd^q with a_pq = C[p, q] / (p! q!)
    a01, a02, a03 = model.lin.B, model.c(0, 2) / 2, model.c(0, 3) / 6
    a10, a11, a12 = model.lin.A, model.c(1, 1), model.c(1, 2) / 2
    a20, a21 = model.c(2, 0) / 2, model.c(2, 1) / 2
    c3 = model.c(3, 0) / 6

    def coeffs(xd: float) -> tuple[float, float, float]:
        # x^0, x^1, x^2 coefficients of f(., xd); the x^3 one is c3
        return ((a03 * xd + a02) * xd + a01) * xd, (a12 * xd + a11) * xd + a10, a21 * xd + a20

    half, eighth, sixth = 0.5 * dt, 0.125 * dt, dt / 6.0
    x = h
    xs = [x]
    ms = []
    c0, c1, c2 = coeffs(h)
    for i in range(n):
        if not abs(x) <= _BLOWUP:  # also catches nan (0 * inf in an overflowing stage)
            raise DivergenceError(f"|x| exceeded {_BLOWUP:g} at t = {i * dt:.6g}", time=i * dt)
        j = i - n_hist
        if j >= 0:
            xd_mid = 0.5 * (xs[j] + xs[j + 1]) + eighth * (ms[j] - ms[j + 1])
            xd_end = xs[j + 1]
        else:
            xd_mid = xd_end = h
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


def measure_frequency(traj: Trajectory, t_min: float) -> float:
    """Angular frequency from the mean spacing of zero crossings after t_min.

    A sign change between two adjacent samples is a crossing at the linearly
    interpolated time. A run of samples that are exactly 0.0 is one crossing,
    at the time of its first sample, when the nearest nonzero samples before
    and after it have opposite signs, and none otherwise (a touch, or a flat
    signal).
    """
    mask = traj.times >= t_min
    ts = traj.times[mask]
    vs = np.real(traj.values[mask])
    nz = np.flatnonzero(vs)
    flip = (vs[nz[:-1]] < 0.0) != (vs[nz[1:]] < 0.0)
    i, j = nz[:-1][flip], nz[1:][flip]
    a, b = vs[i], vs[j]
    lo, hi = ts[i], ts[j]
    crossings = np.where(j == i + 1, lo - a * (hi - lo) / (b - a), ts[i + 1])
    if len(crossings) < 5:
        raise TooFewCrossingsError(
            f"only {len(crossings)} zero crossings after t = {t_min:g}; need at least 5"
        )
    spacing = (crossings[-1] - crossings[0]) / (len(crossings) - 1)
    return math.pi / float(spacing)

