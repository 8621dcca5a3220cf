"""Reduced equation on the center manifold, the first Lyapunov coefficient,
parameter sweeps for its zeros, and the full analysis pipeline.

``l1 = C2^T Q C2 + L . C3`` exactly, with Q and L fixed by (A, B, r): g20,
g11, g02 are linear in the quadratic coefficients C2, and g21 is quadratic in
C2 and linear in the cubic ones C3. In one swept ``Cj,k``, l1 is thus of
degree j + k - 1, and a sweep reads its coefficients from two or three
evaluations at the model's own scale, whatever the range.
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
    try:
        return (
            (1j / (2.0 * w)) * (g20 * g11 - 2.0 * abs(g11) ** 2 - abs(g02) ** 2 / 3.0) + g21 / 2.0
        ).real
    except OverflowError:  # |g11|^2 or |g02|^2 past the float range
        raise ValueError(f"l1 overflows a float: |g11| = {abs(g11):.3e}, |g02| = {abs(g02):.3e}") from None


@dataclass(frozen=True)
class SweepResult:
    param: str
    grid: tuple[float, ...]
    values: tuple[float, ...]
    roots: tuple[float, ...]


# the largest sweep grid: the grid and its values are held as Python lists
MAX_SWEEP_POINTS = 10**6

# the sweepable parameters, one canonical name "Cj,k" per Taylor coefficient
_SWEEP_PARAMS = {f"C{j},{k}": (j, k) for j, k in _VALID_KEYS}


def check_sweep(param: str, lo: float, hi: float, n_points: int) -> tuple[int, int]:
    """(j, k) of a ``"Cj,k"`` sweep parameter, if ``lo < hi`` with a finite
    width ``hi - lo`` and ``n_points`` is from 2 to ``MAX_SWEEP_POINTS``;
    ``ValueError`` otherwise.

    Only a Taylor coefficient can be swept: moving A, B or r alone leaves
    the Hopf point.
    """
    if not lo < hi:
        raise ValueError(f"sweep range [{lo}, {hi}] is empty")
    if not math.isfinite(hi - lo):
        raise ValueError(f"sweep range [{lo}, {hi}] must have a finite width")
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

    In the swept value c, ``l1 = d + b c + a c^2``: ``d`` is l1 at c = 0, and
    ``lead``, the l1 of the model whose only coefficient is ``Cj,k = 1``, is
    Q_jj for a quadratic key and L_jk for a cubic one. A cubic key is affine
    (a = 0, b = lead); a quadratic key has a = lead and b = (l1(c = s) - a s^2
    - d) / s, s a power of two of the template's scale. So the pipeline runs
    two or three times whatever ``n_points`` is, and no coefficient depends on
    the range. Grid values come from the polynomial; a non-finite one is
    ``ValueError``. The roots are its simple real zeros in ``[lo, hi]``; a
    double (tangential) zero is not a sign change and is not reported. The
    spectral data is computed once. ``jobs`` is accepted and ignored.
    """
    key = check_sweep(param, lo, hi, n_points)
    hopf = find_critical_frequency(template.lin, template.omega_hint, tol)
    eig = build_eigendata(template.lin, hopf)

    def evaluate(C: Mapping[tuple[int, int], float]) -> float:
        model = dataclasses.replace(template, C=C)
        so = second_order(model, eig)
        return lyapunov_l1(assemble_reduced(model, eig, so))

    d, lead = evaluate({**template.C, key: 0.0}), evaluate({key: 1.0})
    a, b = 0.0, lead
    if sum(key) == 2:  # at c = s, a power of two of the other quadratic
        # coefficients' size, d, b s and a s^2 agree in size: no digits lost
        others = [abs(v) for jk, v in template.C.items() if sum(jk) == 2 and jk != key]
        s = 2.0 ** round(math.log2(max(others, default=1.0)))
        a, b = lead, (evaluate({**template.C, key: s}) - lead * s * s - d) / s

    grid = [lo + (hi - lo) * (i / (n_points - 1)) for i in range(n_points)]
    values = [d + x * (b + x * a) for x in grid]
    for x, v in zip(grid, values):
        if not math.isfinite(v):
            raise ValueError(f"l1 = {d!r} + {b!r} c + {a!r} c^2 leaves the floats at {param} = c = {x!r}")
    roots = [x for x in _simple_real_roots(a, b, d) if lo <= x <= hi]
    return SweepResult(param=param, grid=tuple(grid), values=tuple(values), roots=tuple(roots))


def _simple_real_roots(a: float, b: float, c: float) -> list[float]:
    """Ascending simple real zeros of a x^2 + b x + c, without cancellation."""
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
