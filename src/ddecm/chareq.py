"""Characteristic equation lambda - A - B*exp(-lambda*r) = 0 of the linearized
delay equation: evaluation, Hopf-point location and verification, the
closed-form count of roots with nonnegative real part, and argument-principle
root counting over rectangles.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

from .errors import (
    InvalidRootError,
    NoHopfError,
    NotHopfPointError,
    QuadratureError,
    RootOnContourError,
    SpectrumAuditWarning,
)
from .quadrature import adaptive_simpson

HOPF_TOL = 1e-10          # default acceptance tolerance on |F(i w)|
SIMPLE_TOL = 1e-8         # simplicity threshold on |F'(i w)|; keeps the
                          # limit denominator 2(1 + B r e^{-i w r}) well away from 0
_NEWTON_RESIDUAL = 1e-12
_NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class LinearPart:
    """Coefficients of ``x'(t) = A x(t) + B x(t - r)``."""

    A: float
    B: float
    r: float

    def __post_init__(self):
        if not (math.isfinite(self.A) and math.isfinite(self.B) and math.isfinite(self.r)):
            raise ValueError("A, B, r must be finite")
        if self.r <= 0:
            raise ValueError(f"delay r must be positive, got {self.r}")


@dataclass(frozen=True)
class HopfPoint:
    """A verified pure-imaginary eigenvalue pair +- i*omega."""

    omega: float
    residual: float
    simple: bool


def char_value(lin: LinearPart, lam: complex) -> complex:
    """F(lambda) = lambda - A - B exp(-lambda r)."""
    return lam - lin.A - lin.B * cmath.exp(-lam * lin.r)


def char_derivative(lin: LinearPart, lam: complex) -> complex:
    """F'(lambda) = 1 + B r exp(-lambda r)."""
    return 1.0 + lin.B * lin.r * cmath.exp(-lam * lin.r)


def find_hopf_parameter(B: float, r: float, omega_guess: float) -> tuple[float, HopfPoint]:
    """Solve F(i*omega; A) = 0 for (A, omega) by a damped 2x2 real Newton.

    Returns the parameter value A at which ``x' = A x + B x(t-r)`` has the
    eigenvalue pair +- i*omega, together with the verified Hopf point.
    """
    if omega_guess <= 0:
        raise ValueError("omega_guess must be positive")
    A = 0.0
    w = omega_guess

    def residual(Av: float, wv: float) -> tuple[float, float, float]:
        re = -Av - B * math.cos(wv * r)
        im = wv + B * math.sin(wv * r)
        return re, im, math.hypot(re, im)

    re, im, res = residual(A, w)
    for _ in range(_NEWTON_MAX_ITER):
        if res <= _NEWTON_RESIDUAL:
            break
        # J = [[dre/dA, dre/dw], [dim/dA, dim/dw]]
        j11, j12 = -1.0, B * r * math.sin(w * r)
        j21, j22 = 0.0, 1.0 + B * r * math.cos(w * r)
        det = j11 * j22 - j12 * j21
        if abs(det) < 1e-300:
            raise NoHopfError("singular Newton Jacobian while searching for a Hopf point")
        dA = -(re * j22 - j12 * im) / det
        dw = -(j11 * im - re * j21) / det
        # damp by halving while the residual grows
        step = 1.0
        for _ in range(60):
            re2, im2, res2 = residual(A + step * dA, w + step * dw)
            if res2 < res or step < 1e-12:
                break
            step *= 0.5
        A, w = A + step * dA, w + step * dw
        re, im, res = re2, im2, res2
    else:
        raise NoHopfError(
            f"Newton did not reach residual {_NEWTON_RESIDUAL} in {_NEWTON_MAX_ITER} iterations"
        )
    if w <= 0:
        raise InvalidRootError(f"Newton converged to non-positive frequency {w}")
    lin = LinearPart(A, B, r)
    return A, HopfPoint(w, abs(char_value(lin, 1j * w)), _is_simple(lin, w))


def _is_simple(lin: LinearPart, omega: float) -> bool:
    return abs(char_derivative(lin, 1j * omega)) > SIMPLE_TOL


def verify_hopf(lin: LinearPart, omega: float, tol: float = HOPF_TOL) -> HopfPoint:
    """Check that +- i*omega solves the characteristic equation to ``tol``."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    res = abs(char_value(lin, 1j * omega))
    if res > tol:
        raise NotHopfPointError(
            f"|F(i*{omega:g})| = {res:.3e} exceeds Hopf tolerance {tol:.3e}"
        )
    return HopfPoint(omega, res, _is_simple(lin, omega))


def find_critical_frequency(
    lin: LinearPart, omega_hint: float | None = None, tol: float = HOPF_TOL
) -> HopfPoint:
    """Locate omega > 0 with F(i*omega) = 0 for a linear part assumed at a Hopf point.

    Newton on Im F(i*omega) from one or several guesses, each candidate then
    verified against the full residual.
    """
    r = lin.r
    if omega_hint is not None:
        guesses = [float(omega_hint)]
    else:
        guesses = [k * math.pi / (2.0 * r) for k in range(1, 25)]
    seen: list[float] = []
    for guess in guesses:
        w = guess
        ok = False
        for _ in range(80):
            g = w + lin.B * math.sin(w * r)
            dg = 1.0 + lin.B * r * math.cos(w * r)
            if abs(dg) < 1e-14:
                break
            w_next = w - g / dg
            if abs(w_next - w) <= 1e-15 * (1.0 + abs(w)):
                w = w_next
                ok = True
                break
            w = w_next
        if not ok and abs(w + lin.B * math.sin(w * r)) > 1e-12 * (1.0 + abs(w)):
            continue
        if w <= 1e-12 or any(abs(w - s) <= 1e-9 * (1.0 + w) for s in seen):
            continue
        seen.append(w)
    for w in sorted(seen):
        try:
            return verify_hopf(lin, w, tol)
        except NotHopfPointError:
            continue
    raise NotHopfPointError(
        "no pure-imaginary eigenvalue pair found; the model is not at a Hopf point"
    )


def count_roots_rect(
    lin: LinearPart,
    rect: tuple[float, float, float, float],
    tol: float = 1e-6,
) -> int:
    """Number of characteristic roots inside ``rect = (re_min, re_max, im_min, im_max)``.

    Winding number of F along the rectangle boundary via adaptive contour
    quadrature of F'/F; the real part must round to an integer within 0.25.
    """
    re_min, re_max, im_min, im_max = rect
    if not (re_min < re_max and im_min < im_max):
        raise ValueError(f"degenerate rectangle {rect}")
    corners = [
        complex(re_min, im_min),
        complex(re_max, im_min),
        complex(re_max, im_max),
        complex(re_min, im_max),
        complex(re_min, im_min),
    ]

    def logderiv(lam: complex) -> complex:
        fv = char_value(lin, lam)
        dfv = char_derivative(lin, lam)
        if abs(fv) <= 1e-8 * (1.0 + abs(dfv)):
            raise RootOnContourError(f"characteristic root within ~1e-8 of the contour near {lam}")
        return dfv / fv

    total = 0j
    for z0, z1 in zip(corners[:-1], corners[1:]):
        seg = z1 - z0
        total += seg * adaptive_simpson(lambda t: logderiv(z0 + t * seg), 0.0, 1.0, tol=tol / 8.0)
    winding = (total / (2j * math.pi)).real
    n = round(winding)
    if abs(winding - n) > 0.25:
        raise QuadratureError(
            f"contour integral {winding:.6f} is not within 0.25 of an integer"
        )
    return int(n)


def crossing_count(lin: LinearPart, hopf: HopfPoint) -> int:
    """Number of root pairs that have reached Re >= 0 through the imaginary axis.

    Roots cross the axis only at +-i w, w = sqrt(B^2 - A^2), when the delay
    passes r_j = (theta + 2 pi j) / w, j >= 0, with cos theta = -A/B and
    sin theta = -w/B; every crossing moves a pair from left to right (Hayes
    1950; Cooke & van den Driessche 1986). Counts #{j >= 0 : r_j <= r}. When
    i * hopf.omega is a root to within hopf.residual (or HOPF_TOL), the
    nearest crossing is the critical pair itself, on the axis, and counts on
    whichever side of r_j rounding puts r.
    """
    A, B = lin.A, lin.B
    if abs(B) <= abs(A):
        return 0
    omega = math.sqrt((B - A) * (B + A))
    theta = math.atan2(-omega / B, -A / B) % (2.0 * math.pi)
    turns = (omega * lin.r - theta) / (2.0 * math.pi)
    on_axis = abs(char_value(lin, 1j * hopf.omega)) <= max(hopf.residual, HOPF_TOL)
    return max(0, (round(turns) if on_axis else math.floor(turns)) + 1)


def audit_spectrum(lin: LinearPart, hopf: HopfPoint) -> int:
    """Number of characteristic roots with Re >= 0; warn (never fail) if not exactly 2.

    The count is [A + B > 0] + 2 * crossing_count: as r -> 0+ the only root
    left at finite distance is A + B. The standing assumption that every
    non-critical eigenvalue has negative real part is the user's
    responsibility; this is an advisory check.
    """
    count = (1 if lin.A + lin.B > 0 else 0) + 2 * crossing_count(lin, hopf)
    if count != 2:
        warnings.warn(
            f"spectrum audit counted {count} roots with nonnegative real part "
            "(expected 2, the critical pair alone)",
            SpectrumAuditWarning,
            stacklevel=2,
        )
    return count
