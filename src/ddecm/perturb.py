"""Perturbation oracle: a nearby problem whose critical pair is pushed to
mu_eps + i*omega_eps with mu_eps > 0, making the third-order boundary system
nonsingular. Solving it on a decreasing grid and extrapolating to zero
validates the closed-form w21(0) of the critical problem.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

from .chareq import LinearPart
from .cmcore import ModelSpec, SecondOrder, cubic_f21, quadratic_data, second_order, third_order_rhs, w21_at_zero
from .errors import (
    DegenerateSystemError,
    InconsistentFamilyError,
    NoConvergenceWarning,
)
from .exppoly import ExpMonomial, ExpPoly
from .spectral import EigenData, bilinear

_CHAR_TOL = 1e-12
_DIRECT_SOLVE_MIN_DET = 1e-14
_H_FORM_SWITCH = 1e-8  # below this |Delta_eps| the direct solve loses digits


@dataclass(frozen=True)
class PerturbedProblem:
    """One member of a perturbation family, with its unstable eigenvalue."""

    eps: float
    A_eps: float
    B_eps: float
    mu_eps: float
    omega_eps: float
    lambda_eps: complex
    char_residual: float
    r: float  # the delay never changes along a family

    @property
    def lin(self) -> LinearPart:
        return LinearPart(self.A_eps, self.B_eps, self.r)


@dataclass(frozen=True)
class PerturbedCoeffs:
    """Perturbed spectral/quadratic data plus the nonsingular determinant."""

    Psi_eps1_at_0: complex
    so: SecondOrder
    f21: complex
    g21: complex
    g12_bar: complex
    Delta_eps: complex


@dataclass(frozen=True)
class ExtrapolationResult:
    eps_grid: tuple[float, ...]
    estimates: tuple[complex, ...]
    extrapolated: complex
    closed_form: complex
    gap_to_closed_form: float


def make_perturbed(
    lin: LinearPart,
    omega: float,
    eps: float,
    b_factor: Callable[[float], float] | None = None,
) -> PerturbedProblem:
    """Build the example family B_eps = B * b_factor(eps) (default 1 + eps).

    mu_eps solves the imaginary part of the perturbed characteristic equation
    with omega_eps = omega held fixed; A_eps then follows from the real part.
    The full characteristic residual is verified before returning.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    A, B, r = lin.A, lin.B, lin.r
    s, c = math.sin(omega * r), math.cos(omega * r)
    if abs(-B * s / omega - 1.0) > 1e-8:
        raise InconsistentFamilyError(
            "linear part is not at the Hopf identity -B sin(w r)/w = 1; "
            "cannot build the perturbation family"
        )
    factor = b_factor(eps) if b_factor is not None else 1.0 + eps
    B_eps = B * factor
    arg = -B_eps * s / omega
    if arg <= 1.0:
        raise InconsistentFamilyError(
            f"family gives exp(mu r) = {arg:.6g} <= 1, so mu_eps <= 0"
        )
    mu = math.log(arg) / r
    A_eps = mu - B_eps * math.exp(-mu * r) * c
    lam = complex(mu, omega)
    residual = abs(lam - A_eps - B_eps * cmath.exp(-lam * r))
    if residual > _CHAR_TOL:
        raise InconsistentFamilyError(
            f"perturbed eigenvalue misses its characteristic equation by {residual:.3e}"
        )
    return PerturbedProblem(
        eps=eps, A_eps=A_eps, B_eps=B_eps, mu_eps=mu, omega_eps=omega,
        lambda_eps=lam, char_residual=residual, r=r,
    )


def psi_eps1_at_0(p: PerturbedProblem) -> complex:
    """Normalization constant of the perturbed adjoint pair."""
    lam = p.lambda_eps
    r = p.r
    return (1.0 + (lam.conjugate() - p.A_eps) * r) / (
        (1.0 - p.A_eps * r + p.mu_eps * r) ** 2 + p.omega_eps**2 * r**2
    )


def perturbed_eigenfunctions(p: PerturbedProblem) -> tuple[ExpPoly, ExpPoly, ExpPoly, ExpPoly]:
    """(phi_eps1, phi_eps2) on [-r, 0] and (Psi_eps1, Psi_eps2) on [0, r]."""
    lam = p.lambda_eps
    r = p.r
    phi1 = ExpPoly.monomial(1.0, lam, 0, (-r, 0.0))
    Psi1 = ExpPoly.monomial(psi_eps1_at_0(p), -lam, 0, (0.0, r))
    return phi1, phi1.conjugate(), Psi1, Psi1.conjugate()


def delta_eps(p: PerturbedProblem) -> complex:
    """Determinant of the perturbed third-order system.

    Computed through the characteristic-equation-reduced form
    B_eps e^{-lam r}(1 - e^{-2 mu r}) + 2 mu with expm1: the raw 2x2
    determinant loses every significant digit as mu -> 0.
    """
    lam = p.lambda_eps
    return p.B_eps * cmath.exp(-lam * p.r) * (-math.expm1(-2 * p.mu_eps * p.r)) + 2 * p.mu_eps


def perturbed_coeffs(model: ModelSpec, p: PerturbedProblem) -> PerturbedCoeffs:
    """Quadratic data and f21/g21 for the perturbed problem."""
    psi0 = psi_eps1_at_0(p)
    so = quadratic_data(
        p.A_eps, p.B_eps, p.r, p.lambda_eps, psi0, model,
        det_tol_w20=1e-12, det_tol_w11=1e-12, perturbed=True,
    )
    f21 = cubic_f21(model, p.lambda_eps, so, p.r)
    return PerturbedCoeffs(
        Psi_eps1_at_0=psi0,
        so=so,
        f21=f21,
        g21=psi0 * f21,
        g12_bar=psi0.conjugate() * f21,
        Delta_eps=delta_eps(p),
    )


def perturbed_rhs(model: ModelSpec, p: PerturbedProblem, pc: PerturbedCoeffs) -> tuple[complex, complex]:
    """Right-hand sides R_eps1, R_eps2 of the perturbed system (closed form)."""
    lam = p.lambda_eps
    lamb = lam.conjugate()
    nu = 2 * lam + lamb
    r = p.r
    mu = p.mu_eps
    so = pc.so
    elr = cmath.exp(-lam * r)
    elbr = cmath.exp(-lamb * r)
    enur = cmath.exp(-nu * r)
    gb11, gb02 = so.g11.conjugate(), so.g02.conjugate()

    kernel = ExpPoly.monomial(1.0, -nu, 0, (-r, 0.0))
    i20 = (so.w20 * kernel).integrate()
    i11 = (so.w11 * kernel).integrate()
    i02 = (so.w02 * kernel).integrate()

    # (e^{-lam r} - e^{-nu r})/(2 mu) is 0/0-prone; reduce it with expm1
    R1 = (
        -pc.g21 * elr * (-math.expm1(-2 * mu * r)) / (2 * mu)
        - (pc.g12_bar / (2 * lam)) * (elbr - enur)
        - 2 * so.g11 * enur * i20
        - (so.g20 + 2 * gb11) * enur * i11
        - gb02 * enur * i02
    )
    R2 = (
        pc.g21 + pc.g12_bar - pc.f21
        + 2 * so.g11 * so.w20_0
        + (so.g20 + 2 * gb11) * so.w11_0
        + gb02 * so.w02_0
    )
    return R1, R2


def solve_perturbed_w21(
    model: ModelSpec, p: PerturbedProblem, pc: PerturbedCoeffs
) -> tuple[complex, complex]:
    """Direct Cramer solve of the nonsingular perturbed system."""
    if abs(pc.Delta_eps) <= _DIRECT_SOLVE_MIN_DET:
        raise DegenerateSystemError(
            f"perturbed determinant {abs(pc.Delta_eps):.3e} is too small for a direct "
            "solve; use the h-decomposition"
        )
    R1, R2 = perturbed_rhs(model, p, pc)
    w0 = (p.B_eps * R1 - R2) / pc.Delta_eps
    wmr = R1 + cmath.exp(-(2 * p.lambda_eps + p.lambda_eps.conjugate()) * p.r) * w0
    return w0, wmr


def regularized_kernels(p: PerturbedProblem) -> tuple[ExpPoly, ExpPoly]:
    """rho_eps on [-r, 0] and rho_tilde_eps on [0, r].

    Exact two-term forms (phi_eps1 - eta_eps)/mu and (eta-tilde - psi_eps1)/mu;
    no series truncation.
    """
    lam = p.lambda_eps
    nu = 2 * lam + lam.conjugate()
    mu = p.mu_eps
    r = p.r
    rho = ExpPoly(
        (ExpMonomial(1.0 / mu, lam, 0), ExpMonomial(-1.0 / mu, nu, 0)), (-r, 0.0)
    )
    rho_t = ExpPoly(
        (ExpMonomial(1.0 / mu, -nu, 0), ExpMonomial(-1.0 / mu, -lam, 0)), (0.0, r)
    )
    return rho, rho_t


def h_decomposition(model: ModelSpec, p: PerturbedProblem, pc: PerturbedCoeffs) -> tuple[complex, complex]:
    """(h1, h2) with B_eps R_eps1 - R_eps2 = mu h1 and Delta_eps = mu h2.

    Both factors stay finite as the perturbation vanishes, so w21(0) = h1/h2
    is computable arbitrarily close to (and at) criticality.
    """
    lam = p.lambda_eps
    mu = p.mu_eps
    r = p.r
    h2 = p.B_eps * cmath.exp(-lam * r) * (-math.expm1(-2 * mu * r) / mu) + 2.0

    lin_eps = LinearPart(p.A_eps, p.B_eps, r)
    _, _, Psi1, Psi2 = perturbed_eigenfunctions(p)
    rho, rho_t = regularized_kernels(p)
    so = pc.so
    gb11, gb02 = so.g11.conjugate(), so.g02.conjugate()
    h1 = (
        pc.f21 * (bilinear(Psi1, rho, lin_eps) + bilinear(Psi2, rho, lin_eps))
        - 2 * so.g11 * bilinear(rho_t, so.w20, lin_eps)
        - (so.g20 + 2 * gb11) * bilinear(rho_t, so.w11, lin_eps)
        - gb02 * bilinear(rho_t, so.w02, lin_eps)
    )
    return h1, h2


def w21_estimate(model: ModelSpec, p: PerturbedProblem, pc: PerturbedCoeffs) -> complex:
    """w_eps21(0) by direct solve, or by h1/h2 when the determinant is tiny."""
    if abs(pc.Delta_eps) < _H_FORM_SWITCH:
        h1, h2 = h_decomposition(model, p, pc)
        return h1 / h2
    return solve_perturbed_w21(model, p, pc)[0]


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
    b_factor: Callable[[float], float] | None = None,
) -> ExtrapolationResult:
    """Solve the perturbed problems on ``eps_grid``, extrapolate to zero, and
    report the gap against the closed-form limit."""
    grid = check_eps_grid(eps_grid)

    estimates = []
    for eps in grid:
        p = make_perturbed(model.lin, eig.omega, eps, b_factor)
        pc = perturbed_coeffs(model, p)
        estimates.append(w21_estimate(model, p, pc))

    extrapolated = _neville_at_zero(grid, estimates)
    so = second_order(model, eig)
    closed = w21_at_zero(model, eig, so, third_order_rhs(model, eig, so).f21)

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
        closed_form=closed,
        gap_to_closed_form=abs(extrapolated - closed),
    )
