"""Perturbation oracle: the family B_eps = (1 + eps) B at fixed omega, whose
critical pair moves to mu_eps + i omega with mu_eps > 0 and makes the w21
boundary system nonsingular. Solving it on a decreasing eps grid and
extrapolating to zero validates the closed-form w21(0) of the critical
problem.

A family member is a ``cmcore.CubicStage``: the perturbed problem runs the
same quadratic and cubic stages as the critical one, at ``lam = mu_eps +
i omega``, in scalar closed form, and builds no ExpPoly. At fixed omega,
A_eps, mu_eps and lam depend on B_eps alone, so any other scaling of B
traces the same curve of problems with another parametrization.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

from .cmcore import (
    CubicStage,
    ModelSpec,
    cubic_stage,
    quadratic_data,
    second_order,
    third_order_rhs,
    w21_at_zero,
)
from .errors import InconsistentFamilyError, NoConvergenceWarning
from .spectral import EigenData

_CHAR_TOL = 1e-12  # relative to the terms' scale |lam| + |A_eps| + |B_eps|
_H_FORM_SWITCH = 1e-8  # below this |Delta_eps| the direct solve loses digits


@dataclass(frozen=True)
class ExtrapolationResult:
    eps_grid: tuple[float, ...]
    estimates: tuple[complex, ...]
    extrapolated: complex
    closed_form: complex
    gap_to_closed_form: float


def perturbed_stage(model: ModelSpec, omega: float, eps: float) -> CubicStage:
    """The quadratic and cubic stages of the family member B_eps = (1 + eps) B.

    mu_eps solves the imaginary part of the perturbed characteristic equation
    with omega held fixed; A_eps then follows from the real part. The full
    characteristic residual is verified before the stages run.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    B, r = model.lin.B, model.lin.r
    s, c = math.sin(omega * r), math.cos(omega * r)
    if abs(-B * s / omega - 1.0) > 1e-8:
        raise InconsistentFamilyError(
            "linear part is not at the Hopf identity -B sin(w r)/w = 1; "
            "cannot build the perturbation family"
        )
    B_eps = B * (1.0 + eps)
    arg = -B_eps * s / omega
    if arg <= 1.0:
        raise InconsistentFamilyError(
            f"family gives exp(mu r) = {arg:.6g} <= 1, so mu_eps <= 0"
        )
    mu = math.log(arg) / r
    A_eps = mu - B_eps * math.exp(-mu * r) * c
    lam = complex(mu, omega)
    residual = abs(lam - A_eps - B_eps * cmath.exp(-lam * r))
    if residual > _CHAR_TOL * (abs(lam) + abs(A_eps) + abs(B_eps)):
        raise InconsistentFamilyError(
            f"perturbed eigenvalue misses its characteristic equation by {residual:.3e}"
        )
    # normalization constant of the perturbed adjoint pair
    psi0 = (1.0 + (lam.conjugate() - A_eps) * r) / (
        (1.0 - A_eps * r + mu * r) ** 2 + omega**2 * r**2
    )
    so = quadratic_data(A_eps, B_eps, r, lam, psi0, model)
    return cubic_stage(A_eps, B_eps, psi0, so)


def w21_estimate(st: CubicStage) -> complex:
    """w_eps21(0) by the Cramer solve (B R1 - R2) / Delta of the nonsingular
    system, or by h1/h2 when the determinant is tiny."""
    if abs(st.Delta) < _H_FORM_SWITCH:
        return w21_at_zero(st)
    return (st.B * st.R1 - st.R2) / st.Delta


def _neville_at_zero(xs: Sequence[float], ys: Sequence[complex]) -> complex:
    """Polynomial extrapolation of (xs, ys) to x = 0 (works for any grid)."""
    tab = list(ys)
    n = len(tab)
    for j in range(1, n):
        for k in range(n - 1, j - 1, -1):
            tab[k] = tab[k] + (tab[k] - tab[k - 1]) * xs[k] / (xs[k - j] - xs[k])
    return tab[-1]


DEFAULT_EPS_GRID = (1e-2, 5e-3, 2.5e-3, 1.25e-3)


def check_eps_grid(eps_grid: Sequence[float]) -> tuple[float, ...]:
    """``eps_grid`` as a tuple of floats, if it holds at least 3 strictly
    decreasing positive finite values; ``ValueError`` otherwise."""
    try:
        grid = tuple(float(e) for e in eps_grid)
    except OverflowError:
        raise ValueError("eps_grid entries must fit in a float") from None
    if len(grid) < 3:
        raise ValueError(f"eps_grid needs at least 3 entries, got {len(grid)}")
    if not all(0 < e < math.inf for e in grid):
        raise ValueError(f"eps_grid entries must be positive and finite, got {grid}")
    if not all(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"eps_grid must be strictly decreasing, got {grid}")
    return grid


def extrapolate_w21(
    model: ModelSpec,
    eig: EigenData,
    eps_grid: Sequence[float] = DEFAULT_EPS_GRID,
    closed_form: complex | None = None,
) -> ExtrapolationResult:
    """Solve the perturbed problems on ``eps_grid``, extrapolate to zero, and
    report the gap against the closed-form limit; ``closed_form`` is the
    critical w21(0), if the caller already has it."""
    grid = check_eps_grid(eps_grid)

    estimates = []
    for eps in grid:
        estimates.append(w21_estimate(perturbed_stage(model, eig.omega, eps)))

    extrapolated = _neville_at_zero(grid, estimates)
    if closed_form is None:
        closed_form = w21_at_zero(third_order_rhs(model, eig, second_order(model, eig)))

    gaps = [abs(e - extrapolated) for e in estimates]
    if any(g2 > 1.5 * g1 + 1e-14 for g1, g2 in zip(gaps, gaps[1:])):
        warnings.warn(
            "perturbed estimates do not approach the extrapolated limit monotonically",
            NoConvergenceWarning,
            stacklevel=2,
        )
    return ExtrapolationResult(
        eps_grid=grid,
        estimates=tuple(estimates),
        extrapolated=extrapolated,
        closed_form=closed_form,
        gap_to_closed_form=abs(extrapolated - closed_form),
    )
