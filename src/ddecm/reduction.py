"""Reduced equation on the center manifold, the first Lyapunov coefficient,
parameter sweeps for its zeros, and the full analysis pipeline.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .chareq import HopfPoint, audit_spectrum, find_critical_frequency, HOPF_TOL
from .cmcore import (
    _VALID_KEYS,
    ModelSpec,
    SecondOrder,
    ThirdOrder,
    second_order,
    third_order,
    third_order_rhs,
    degeneracy_report,
    DegeneracyReport,
)
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
    coefficient and are recorded as absent.
    """
    g: dict[tuple[int, int], complex] = {
        (2, 0): so.g20,
        (1, 1): so.g11,
        (0, 2): so.g02,
    }
    if third is not None:
        g[(2, 1)] = third.g21
    else:
        g[(2, 1)] = third_order_rhs(model, eig, so).g21
    return ReducedEquation(lambda1=1j * eig.omega, g=g)


def lyapunov_l1(red: ReducedEquation) -> float:
    """First Lyapunov coefficient of the cubic normal form.

    Convention: Re[(i / 2 w)(g20 g11 - 2|g11|^2 - |g02|^2 / 3) + g21 / 2]; only
    its sign and zeros are contract-level, and those are convention-invariant.
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


def _taylor_key(param: str) -> tuple[int, int]:
    """(j, k) of a ``"Cj,k"`` sweep parameter; anything else is rejected.

    Only a Taylor coefficient can be swept: moving A, B or r alone leaves
    the Hopf point.
    """
    try:
        key = tuple(int(part) for part in param[1:].split(",")) if param.startswith("C") else None
    except ValueError:
        key = None
    if key not in _VALID_KEYS:
        raise ValueError(
            f"unknown sweep parameter {param!r}: only a Taylor coefficient 'Cj,k' "
            "with 2 <= j+k <= 3 can be swept"
        )
    return key


def l1_of_model(model: ModelSpec, tol: float = HOPF_TOL) -> float:
    """Hopf location + full pipeline down to l1 for a single model."""
    hopf = find_critical_frequency(model.lin, model.omega_hint, tol)
    eig = build_eigendata(model.lin, hopf)
    so = second_order(model, eig)
    return lyapunov_l1(assemble_reduced(model, eig, so))


def sweep_l1_zeros(
    template: ModelSpec,
    param: str,
    lo: float,
    hi: float,
    n_points: int,
    tol: float = HOPF_TOL,
    jobs: int = 1,
) -> SweepResult:
    """Evaluate l1 over a grid of one Taylor coefficient ``"Cj,k"`` and
    bisect every sign change to 1e-10.

    The linear part is fixed, so the spectral data is computed once and
    reused across grid points.
    """
    if not lo < hi:
        raise ValueError(f"sweep range [{lo}, {hi}] is empty")
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    key = _taylor_key(param)
    grid = [lo + (hi - lo) * i / (n_points - 1) for i in range(n_points)]
    hopf = find_critical_frequency(template.lin, template.omega_hint, tol)
    eig = build_eigendata(template.lin, hopf)

    def evaluate(value: float) -> float:
        model = dataclasses.replace(template, C={**template.C, key: value})
        so = second_order(model, eig)
        return lyapunov_l1(assemble_reduced(model, eig, so))

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            values = list(pool.map(evaluate, grid))
    else:
        values = [evaluate(v) for v in grid]

    roots: list[float] = []
    for (a, fa), (b, fb) in zip(zip(grid, values), zip(grid[1:], values[1:])):
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0.0:
            roots.append(_bisect(evaluate, a, b, fa))
    if values and values[-1] == 0.0 and (len(values) < 2 or values[-2] != 0.0):
        roots.append(grid[-1])
    return SweepResult(param=param, grid=tuple(grid), values=tuple(values), roots=tuple(sorted(set(roots))))


def _bisect(f: Callable[[float], float], a: float, b: float, fa: float, xtol: float = 1e-10) -> float:
    while b - a > xtol:
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


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
    third = third_order(model, eig, so)
    rep = degeneracy_report(model, eig, so)
    # diagnostic only: the limit w21 is not constrained to be orthogonal to Psi1
    pairing = bilinear(eig.Psi1, third.w21, model.lin)
    timings["coefficients"] = time.perf_counter() - t1

    t2 = time.perf_counter()
    oracle = None
    if eps_grid is not None:
        oracle = extrapolate_w21(model, eig, eps_grid)
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
        degeneracy=rep,
        psi1_w21_pairing=pairing,
        oracle=oracle,
        l1=l1,
        timing_seconds=timings,
    )
