"""Reduced equation on the center manifold, the first Lyapunov coefficient,
parameter sweeps for its zeros, and the full analysis pipeline.

``l1`` is exactly quadratic in any single Taylor coefficient ``Cj,k``: the
second-order coefficients g20, g11, g02 are linear in it and g21 is at most
quadratic. A sweep therefore fits that quadratic from three evaluations,
checks it with a fourth, and reads its grid values and zeros from the
polynomial.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .chareq import HopfPoint, audit_spectrum, find_critical_frequency, HOPF_TOL
from .cmcore import (
    _VALID_KEYS,
    DegeneracyReport,
    ModelSpec,
    SecondOrder,
    ThirdOrder,
    second_order,
    third_order,
    third_order_rhs,
)
from .errors import InconsistencyError
from .perturb import DEFAULT_EPS_GRID, ExtrapolationResult, extrapolate_w21
from .spectral import EigenData, bilinear, build_eigendata


@dataclass(frozen=True)
class ReducedEquation:
    """du/dt = lambda1 u + sum g[j,k] u^j ubar^k / (j! k!), orders 2..3."""

    lambda1: complex
    g: Mapping[tuple[int, int], complex]

    def __post_init__(self):
        for j, k in self.g:
            if not 2 <= j + k <= 3:
                raise ValueError(f"g key ({j},{k}) outside orders 2..3")

    def coeff(self, j: int, k: int) -> complex:
        return self.g.get((j, k), 0j)


def assemble_reduced(
    model: ModelSpec, eig: EigenData, so: SecondOrder, third: ThirdOrder | None = None
) -> ReducedEquation:
    """Collect the g coefficients needed for the cubic normal form.

    Third-order terms other than g21 are not required for the first Lyapunov
    coefficient and are recorded as absent. Without ``third``, g21 is
    ``Psi1(0) f21`` with the f21 of ``so``: it needs none of the w21 system.
    """
    g: dict[tuple[int, int], complex] = {
        (2, 0): so.g20,
        (1, 1): so.g11,
        (0, 2): so.g02,
    }
    g[(2, 1)] = eig.Psi1_at_0 * so.f21 if third is None else third.stage.g21
    return ReducedEquation(lambda1=1j * eig.omega, g=g)


def lyapunov_l1(red: ReducedEquation) -> float:
    """First Lyapunov coefficient of the cubic normal form.

    Convention: Re[(i / 2 w)(g20 g11 - 2|g11|^2 - |g02|^2 / 3) + g21 / 2]. Its
    magnitude, not only its sign and zeros, is part of the contract: at
    B -> (1 + eps) B the cycle has amplitude 2 sqrt(-Re lambda'(0) eps / l1)
    (Hassard, Kazarinoff & Wan, 1981), which the tests check on the full equation.
    """
    if abs(red.lambda1.real) > 1e-9 * (1.0 + abs(red.lambda1)):
        raise ValueError("lambda1 must be purely imaginary at criticality")
    w = red.lambda1.imag
    if w <= 0:
        raise ValueError("lambda1 must have positive imaginary part")
    g20, g11, g02, g21 = (red.coeff(2, 0), red.coeff(1, 1), red.coeff(0, 2), red.coeff(2, 1))
    return (
        (1j / (2.0 * w)) * (g20 * g11 - 2.0 * abs(g11) ** 2 - abs(g02) ** 2 / 3.0) + g21 / 2.0
    ).real


@dataclass(frozen=True)
class SweepResult:
    param: str
    grid: tuple[float, ...]
    values: tuple[float, ...]
    roots: tuple[float, ...]


# relative disagreement allowed between the fourth evaluation and the quadratic
# fitted through the other three, in units of |f(lo)| + |f(mid)| + |f(hi)|
QUADRATIC_CHECK_TOL = 1e-9

# the largest sweep grid: the grid and its values are held as Python lists
MAX_SWEEP_POINTS = 10**6

# the sweepable parameters, one canonical name "Cj,k" per Taylor coefficient
_SWEEP_PARAMS = {f"C{j},{k}": (j, k) for j, k in _VALID_KEYS}


def check_sweep(param: str, lo: float, hi: float, n_points: int) -> tuple[int, int]:
    """(j, k) of a ``"Cj,k"`` sweep parameter, if ``lo < hi`` with a finite
    width ``hi - lo`` and midpoint and ``n_points`` is from 2 to
    ``MAX_SWEEP_POINTS``; ``ValueError`` otherwise.

    Only a Taylor coefficient can be swept: moving A, B or r alone leaves
    the Hopf point.
    """
    if not lo < hi:
        raise ValueError(f"sweep range [{lo}, {hi}] is empty")
    if not (math.isfinite(hi - lo) and math.isfinite(lo + hi)):
        raise ValueError(f"sweep range [{lo}, {hi}] must have a finite width and midpoint")
    if not 2 <= n_points <= MAX_SWEEP_POINTS:
        raise ValueError(f"n_points must be from 2 to {MAX_SWEEP_POINTS}, got {n_points}")
    if param not in _SWEEP_PARAMS:
        raise ValueError(
            f"unknown sweep parameter {param!r}: only a Taylor coefficient 'Cj,k' "
            "with 2 <= j+k <= 3 can be swept"
        )
    return _SWEEP_PARAMS[param]


def sweep_l1_zeros(
    template: ModelSpec,
    param: str,
    lo: float,
    hi: float,
    n_points: int,
    tol: float = HOPF_TOL,
    jobs: int = 1,
) -> SweepResult:
    """l1 over a grid of one Taylor coefficient ``"Cj,k"``, and its zeros.

    ``l1`` is exactly quadratic in the swept coefficient, so the pipeline
    runs four times whatever ``n_points`` is: at ``lo``, the midpoint and
    ``hi``, which fix the quadratic, and at ``lo + (hi - lo) / 4``, which
    must agree with it to ``QUADRATIC_CHECK_TOL`` of the node values' scale
    or ``InconsistencyError`` is raised. Grid values come from the quadratic.
    The roots are its simple real zeros in ``[lo, hi]``; a double (tangential)
    zero is not a sign change and is not reported. The linear part is fixed,
    so the spectral data is computed once. ``jobs`` is accepted and ignored.
    """
    key = check_sweep(param, lo, hi, n_points)
    hopf = find_critical_frequency(template.lin, template.omega_hint, tol)
    eig = build_eigendata(template.lin, hopf)

    def evaluate(value: float) -> float:
        model = dataclasses.replace(template, C={**template.C, key: value})
        so = second_order(model, eig)
        return lyapunov_l1(assemble_reduced(model, eig, so))

    # the quadratic in t = (x - mid) / half, which maps [lo, hi] onto [-1, 1]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    f_lo, f_mid, f_hi = evaluate(lo), evaluate(mid), evaluate(hi)
    a, b, c = 0.5 * (f_hi + f_lo) - f_mid, 0.5 * (f_hi - f_lo), f_mid

    def quad(t: float) -> float:
        return c + t * (b + t * a)

    x_check = lo + 0.25 * (hi - lo)
    residual = abs(evaluate(x_check) - quad(-0.5))
    scale = abs(f_lo) + abs(f_mid) + abs(f_hi)
    if residual > QUADRATIC_CHECK_TOL * scale:
        raise InconsistencyError(
            f"l1 is not quadratic in {param} on [{lo}, {hi}]: at {x_check!r} it differs from "
            f"the fit by {residual:.3e}, more than {QUADRATIC_CHECK_TOL:g} x {scale:.3e}"
        )

    grid = [lo + (hi - lo) * i / (n_points - 1) for i in range(n_points)]
    values = [quad(2.0 * i / (n_points - 1) - 1.0) for i in range(n_points)]
    roots = [mid + half * t for t in _simple_real_roots(a, b, c) if -1.0 <= t <= 1.0]
    return SweepResult(param=param, grid=tuple(grid), values=tuple(values), roots=tuple(roots))


def _simple_real_roots(a: float, b: float, c: float) -> list[float]:
    """Ascending simple real zeros of a t^2 + b t + c, without cancellation."""
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:  # no real zero, a double one, or (a = b = 0) no isolated one
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    roots = [c / q]
    if a != 0.0:
        roots.append(q / a)
    return sorted(roots)


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the pipeline produced for one model.

    ``timing_seconds`` is diagnostics-only and excluded from serialization so
    reports stay byte-identical across runs.
    """

    model: ModelSpec
    hopf: HopfPoint
    root_count: int | None
    e11: complex
    e22: complex
    Psi1_at_0: complex
    so: SecondOrder
    third: ThirdOrder
    degeneracy: DegeneracyReport
    psi1_w21_pairing: complex
    oracle: ExtrapolationResult | None
    l1: float
    timing_seconds: Mapping[str, float] | None = field(default=None, compare=False)


def analyze_model(
    model: ModelSpec,
    hopf_tol: float = HOPF_TOL,
    eps_grid: Sequence[float] | None = DEFAULT_EPS_GRID,
    audit: bool = False,
) -> AnalysisReport:
    """Run the whole pipeline: Hopf -> spectral kit -> orders 2 and 3 ->
    limit w21 -> perturbation oracle -> l1."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    hopf = find_critical_frequency(model.lin, model.omega_hint, hopf_tol)
    root_count = audit_spectrum(model.lin, hopf) if audit else None
    eig = build_eigendata(model.lin, hopf)
    timings["spectral"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    so = second_order(model, eig)
    stage = third_order_rhs(model, eig, so)
    third = third_order(model, eig, so, stage)
    # diagnostic: <Psi1, w21>, the limit's component along the center
    # eigenspace; zero in exact arithmetic, so what it measures is rounding
    pairing = bilinear(eig.Psi1, third.w21, model.lin)
    timings["coefficients"] = time.perf_counter() - t1

    t2 = time.perf_counter()
    oracle = None
    if eps_grid is not None:
        oracle = extrapolate_w21(model, eig, eps_grid, closed_form=third.w21_0)
    timings["oracle"] = time.perf_counter() - t2

    l1 = lyapunov_l1(assemble_reduced(model, eig, so, third))
    timings["total"] = time.perf_counter() - t0
    return AnalysisReport(
        model=model,
        hopf=hopf,
        root_count=root_count,
        e11=eig.e11,
        e22=eig.e22,
        Psi1_at_0=eig.Psi1_at_0,
        so=so,
        third=third,
        degeneracy=stage.degeneracy(),
        psi1_w21_pairing=pairing,
        oracle=oracle,
        l1=l1,
        timing_seconds=timings,
    )
