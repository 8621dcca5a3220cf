"""Characteristic equation lambda - A - B*exp(-lambda*r) = 0 of the linearized
delay equation: evaluation, the Hopf frequency (seeded by its closed form
sqrt(B^2 - A^2), polished by Newton on Im F, then verified), and the
closed-form count of roots with nonnegative real part. The verified
:class:`HopfPoint` is the one place the linear-layer facts are evaluated:
the residual, the slope F'(i w) and the crossing count, which the spectral
kit and the audit read from it.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

from .errors import NotHopfPointError, SpectrumAuditWarning

HOPF_TOL = 1e-10          # default acceptance tolerance on |F(i w)|
SIMPLE_TOL = 1e-6         # the one simplicity threshold on |F'(i w)| = |e11|: below it
                          # the root is not simple and the spectral kit refuses to normalize


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
    """A verified pure-imaginary eigenvalue pair +- i*omega: its residual
    |F(i omega)|, the slope F'(i omega) (the spectral kit's e11) and the number
    of root pairs that have crossed the imaginary axis, the critical pair included."""

    omega: float
    residual: float
    slope: complex
    crossings: int

    @property
    def simple(self) -> bool:
        return abs(self.slope) > SIMPLE_TOL


def char_value(lin: LinearPart, lam: complex) -> complex:
    """F(lambda) = lambda - A - B exp(-lambda r)."""
    return lam - lin.A - lin.B * cmath.exp(-lam * lin.r)


def char_derivative(lin: LinearPart, lam: complex) -> complex:
    """F'(lambda) = 1 + B r exp(-lambda r); at lambda = i w it is the spectral kit's
    e11 = <psi1, phi1>, associated as that pairing's B * (e^{-i w r} * r)."""
    return 1.0 + lin.B * (cmath.exp(-lam * lin.r) * lin.r)


def verify_hopf(lin: LinearPart, omega: float, tol: float = HOPF_TOL) -> HopfPoint:
    """Check that +- i*omega solves the characteristic equation to ``tol``,
    which must be positive and finite (``ValueError`` otherwise), and evaluate
    the point's slope F'(i omega) and crossing count.

    Roots cross the axis only at +-i w, w = sqrt(B^2 - A^2), when the delay
    passes r_j = (theta + 2 pi j) / w, j >= 0, with cos theta = -A/B and
    sin theta = -w/B; every crossing moves a pair from left to right (Hayes
    1950; Cooke & van den Driessche 1986). The critical pair is the nearest
    crossing, on the axis, and counts on whichever side of r_j rounding puts r;
    |B| <= |A| has no crossing.
    """
    if not 0.0 < tol < math.inf:  # nan or inf would accept every residual
        raise ValueError(f"Hopf tolerance must be positive and finite, got {tol!r}")
    if not 0.0 < omega < math.inf:
        raise ValueError(f"omega must be positive and finite, got {omega!r}")
    res = abs(char_value(lin, 1j * omega))
    if not res <= tol:
        raise NotHopfPointError(
            f"|F(i*{omega:g})| = {res:.3e} exceeds Hopf tolerance {tol:.3e}"
        )
    A, B = lin.A, lin.B
    crossings = 0
    if abs(B) > abs(A):
        w0 = math.sqrt((B - A) * (B + A))
        theta = math.atan2(-w0 / B, -A / B) % (2.0 * math.pi)
        crossings = max(0, round((w0 * lin.r - theta) / (2.0 * math.pi)) + 1)
    return HopfPoint(omega, res, char_derivative(lin, 1j * omega), crossings)


def find_critical_frequency(
    lin: LinearPart, omega_hint: float | None = None, tol: float = HOPF_TOL
) -> HopfPoint:
    """Locate omega > 0 with F(i*omega) = 0 for a linear part assumed at a Hopf point.

    |i omega - A| = |B| at a root, so the only candidate is the closed form
    omega0 = sqrt(B^2 - A^2); |B| < |A| leaves none and raises
    NotHopfPointError, whatever the hint and ``tol``. So does |B| = |A|
    without a hint. Newton on Im F(i*omega) = omega + B sin(omega r),
    started at ``omega_hint`` when given and else at omega0, polishes it to
    the last digits, and :func:`verify_hopf` checks the full residual to ``tol``.
    An iterate whose phase omega r is not a finite float is NotHopfPointError.
    """
    r, B = lin.r, lin.B
    if abs(B) < abs(lin.A) or (omega_hint is None and abs(B) == abs(lin.A)):
        raise NotHopfPointError(
            f"|B| = {abs(B):g} <= |A| = {abs(lin.A):g}: no pure-imaginary eigenvalue pair; "
            "the model is not at a Hopf point"
        )
    w = math.sqrt((B - lin.A) * (B + lin.A)) if omega_hint is None else float(omega_hint)
    ok = False
    for _ in range(80):
        if not math.isfinite(w * r):  # an iterate (or the hint) past the floats: no root
            break
        g = w + B * math.sin(w * r)
        dg = 1.0 + B * r * math.cos(w * r)
        if abs(dg) < 1e-14:
            break
        w_next = w - g / dg
        if abs(w_next - w) <= 1e-15 * (1.0 + abs(w)):
            w = w_next
            ok = True
            break
        w = w_next
    if not math.isfinite(w * r) or w <= 1e-12 or (
        not ok and abs(w + B * math.sin(w * r)) > 1e-12 * (1.0 + abs(w))
    ):
        raise NotHopfPointError(
            "Newton on Im F(i*omega) found no positive frequency; the model is not at a Hopf point"
        )
    return verify_hopf(lin, w, tol)


def audit_spectrum(lin: LinearPart, hopf: HopfPoint) -> int:
    """Number of characteristic roots with Re >= 0; warn (never fail) if not exactly 2.

    The count is [A + B > 0] + 2 * hopf.crossings: as r -> 0+ the only root
    left at finite distance is A + B. The standing assumption that every
    non-critical eigenvalue has negative real part is the user's
    responsibility; this is an advisory check.
    """
    count = (1 if lin.A + lin.B > 0 else 0) + 2 * hopf.crossings
    if count != 2:
        warnings.warn(
            f"spectrum audit counted {count} roots with nonnegative real part "
            "(expected 2, the critical pair alone)",
            SpectrumAuditWarning,
            stacklevel=2,
        )
    return count
