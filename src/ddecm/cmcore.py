"""Center-manifold coefficients: the quadratic and the cubic stage.

Both stages are written once, for an eigenvalue ``lam = mu + i w`` of the
linear part: ``mu = 0`` is the critical problem, and the perturbation oracle
(``perturb``) calls the same functions at ``mu > 0``. The quadratic stage
evaluates f21, the w21 forcing weights and every exponential of ``lam``
once; the cubic stage reads them, and ``lam`` itself, from its
``SecondOrder``. Every w profile is a sum of three exponentials, kept as its
(coeff, rate) pairs, so the kernel integrals and pairings of the cubic stage
are scalar sums of ``exppoly.moment``; ExpPoly profiles are built only when
asked for (the report serializes them). At criticality the cubic stage also
yields the degeneracy identities of the singular w21 system and the
admissible w21(0), the regularized limit h1/h2 of the perturbed solves.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple

from .chareq import LinearPart
from .errors import (
    DegenerateSystemError,
    InconsistencyError,
    ResonanceError,
    ZeroEigenvalueError,
)
from .exppoly import ExpMonomial, ExpPoly, moment
from .spectral import EigenData

_ORDER2 = ((2, 0), (1, 1), (0, 2))
_ORDER3 = ((3, 0), (2, 1), (1, 2), (0, 3))
_VALID_KEYS = frozenset(_ORDER2) | frozenset(_ORDER3)

# the (coeff, rate) pairs of a profile sum_i coeff_i e^{rate_i s} on [-r, 0]
Terms = tuple[tuple[complex, complex], ...]


@dataclass(frozen=True)
class ModelSpec:
    """A scalar one-delay model: linear part plus Taylor coefficients C[j, k]
    of the nonlinearity (orders 2 and 3 only; absent keys are zero)."""

    lin: LinearPart
    C: Mapping[tuple[int, int], float]
    omega_hint: float | None = None

    def __post_init__(self):
        clean: dict[tuple[int, int], float] = {}
        for key, val in dict(self.C).items():
            j, k = key
            if (j, k) not in _VALID_KEYS:
                raise ValueError(f"C key {key} invalid: need j,k >= 0 with 2 <= j+k <= 3")
            v = float(val)
            if not math.isfinite(v):
                raise ValueError(f"C[{j},{k}] must be finite")
            if v != 0.0:
                clean[(j, k)] = v
        object.__setattr__(self, "C", clean)
        if self.omega_hint is not None and not math.isfinite(self.omega_hint):
            raise ValueError(f"omega_hint must be finite, got {self.omega_hint!r}")

    def c(self, j: int, k: int) -> float:
        return self.C.get((j, k), 0.0)


@dataclass(frozen=True)
class SecondOrder:
    """Quadratic data at one eigenvalue ``lam``, kept with ``r`` and ``nu``: f/g
    coefficients, each w profile as its endpoints and its three (coeff, rate)
    terms on [-r, 0], and the f21, forcing weights and exponentials that the
    cubic stage reads with ``lam`` and ``r``, so it cannot mix two eigenvalues'
    data. The ExpPoly profiles ``w20``, ``w11``, ``w02`` are built on first use."""

    f20: complex
    f11: complex
    f02: complex
    g20: complex
    g11: complex
    g02: complex
    w20_0: complex
    w20_mr: complex
    w11_0: complex
    w11_mr: complex
    w02_0: complex
    w02_mr: complex
    t20: Terms
    t11: Terms
    t02: Terms
    r: float
    lam: complex
    nu: complex  # 2 lam + conj(lam)
    f21: complex
    forcing_weights: tuple[complex, complex, complex]  # of w20, w11, w02: 2 g11, g20 + 2 conj(g11), conj(g02)
    elr: complex  # e^{-lam r}
    elbr: complex  # e^{-conj(lam) r}
    enur: complex  # e^{-nu r}

    @cached_property
    def w20(self) -> ExpPoly:
        return profile_poly(self.t20, self.r)

    @cached_property
    def w11(self) -> ExpPoly:
        return profile_poly(self.t11, self.r)

    @cached_property
    def w02(self) -> ExpPoly:
        return profile_poly(self.t02, self.r)


def profile_poly(terms: Terms, r: float) -> ExpPoly:
    """The profile ``sum coeff e^{rate s}`` on [-r, 0] as an ExpPoly."""
    return ExpPoly(tuple(ExpMonomial(c, rate, 0) for c, rate in terms), (-r, 0.0))


@dataclass(frozen=True)
class DegeneracyReport:
    residual_R1: float
    residual_R2: float
    residual_R3: float
    residual_R4: float
    BR1_minus_R2: float


# ---------------------------------------------------------------------------
# quadratic stage (lam = i*omega at criticality, mu_eps + i*omega_eps for the
# perturbed problem)


def quadratic_data(
    A: float,
    B: float,
    r: float,
    lam: complex,
    psi0: complex,
    model: ModelSpec,
) -> SecondOrder:
    """Solve both quadratic boundary systems, collect the profiles' terms and
    evaluate f21 from their endpoints and the cubic Taylor coefficients.

    w20 and w11 solve one system at rate rho = 2 lam and rho = 2 mu: the
    profile is ``K e^{rho s} - (g / d) e^{lam s} - (g' / d') e^{conj(lam) s}``
    with ``d = rho - lam`` and ``d' = rho - conj(lam)``, and (K, w(-r)) comes
    from the rows ``(-e^{-rho r}, 1)`` and ``(A - rho, B)``. A system counts
    as singular when its determinant is at most 1e-10 at criticality
    (``mu = 0``) and 1e-12 in a perturbed problem (``mu != 0``).
    """
    mu = lam.real
    perturbed = mu != 0.0
    det_tol = 1e-12 if perturbed else 1e-10
    lamb = lam.conjugate()
    nu = 2 * lam + lamb
    elr = cmath.exp(-lam * r)
    elbr = cmath.exp(-lamb * r)
    e2lr = cmath.exp(-2 * lam * r)
    e2mr = math.exp(-2 * mu * r)
    enur = cmath.exp(-nu * r)

    C20, C11, C02 = model.c(2, 0), model.c(1, 1), model.c(0, 2)
    f20 = C20 + 2 * C11 * elr + C02 * e2lr
    f11 = C20 + C11 * (elr + elbr) + C02 * e2mr
    f02 = C20 + 2 * C11 * elbr + C02 * e2lr.conjugate()
    g20, g11, g02 = psi0 * f20, psi0 * f11, psi0 * f02
    gb11, gb02 = g11.conjugate(), g02.conjugate()

    def solve(rho, erho, g, d, gb, db, f, singular):
        # erho = e^{-rho r}; singular = (error type, message format of |det|)
        det = rho - A - B * erho
        if abs(det) <= det_tol:
            raise singular[0](singular[1].format(abs(det)))
        rhs1 = -(g / d) * (elr - erho) - (gb / db) * (elbr - erho)
        rhs2 = g + gb - f
        w0 = (rhs1 * B - rhs2) / det
        wmr = (-erho * rhs2 - (A - rho) * rhs1) / det
        return w0, wmr, ((w0 + g / d + gb / db, complex(rho)), (-g / d, lam), (-gb / db, lamb))

    where = " in the perturbed problem" if perturbed else ""
    w11_singular = (ResonanceError, "singular quadratic system" + where + ": |det| = {:.3e}")
    if not perturbed:
        w11_singular = (ZeroEigenvalueError, "w11 system singular: |A + B| = {:.3e} (zero eigenvalue)")
    # w11 first: on the Hopf curve det20 = (A + B)(2 e^{-i w r} + 1), so a zero
    # eigenvalue makes both systems singular and is the cause to name
    w11_0, w11_mr, t11 = solve(2 * mu, e2mr, g11, lamb, gb11, lam, f11, w11_singular)
    w20_0, w20_mr, t20 = solve(
        2 * lam, e2lr, g20, lam, gb02, 2 * lam - lamb, f20,
        (ResonanceError, "singular quadratic system (1:2 resonance)" + where + ": |det| = {:.3e}"),
    )
    for c, _ in t20 + t11:
        if not cmath.isfinite(c):
            raise ValueError(f"coeff must be finite, got {c!r}")
    f21 = (
        C20 * (2 * w11_0 + w20_0)
        + C11 * (w20_0 * elbr + 2 * w11_0 * elr + w20_mr + 2 * w11_mr)
        + C02 * (2 * w11_mr * elr + w20_mr * elbr)
        + model.c(3, 0)
        + model.c(2, 1) * (2 * elr + elbr)
        + model.c(1, 2) * (2 * e2mr + e2lr)
        + model.c(0, 3) * (elbr * e2lr)
    )
    return SecondOrder(
        f20=f20, f11=f11, f02=f02, g20=g20, g11=g11, g02=g02,
        w20_0=w20_0, w20_mr=w20_mr,
        w11_0=w11_0, w11_mr=w11_mr,
        w02_0=w20_0.conjugate(), w02_mr=w20_mr.conjugate(), r=r, lam=lam, nu=nu,
        t20=t20, t11=t11, t02=tuple((c.conjugate(), rate.conjugate()) for c, rate in t20),
        f21=f21, forcing_weights=(2 * g11, g20 + 2 * gb11, gb02), elr=elr, elbr=elbr, enur=enur,
    )


# ---------------------------------------------------------------------------
# cubic stage at a general lam; criticality is mu = 0


def _kernel_integral(terms: Terms, shift: complex, r: float, k: int = 0) -> complex:
    """int_{-r}^0 s^k w(s) e^{-shift s} ds for the profile w with these terms."""
    return sum((c * moment(rate - shift, k, -r, 0.0) for c, rate in terms), 0j)


class CubicStage(NamedTuple):
    """The w21 boundary system at an eigenvalue ``lam = mu + i w`` of
    x' = A x + B x(t - r), with ``nu = 2 lam + conj(lam)``.

    Its rows are ``-e^{-nu r} w21(0) + w21(-r) = R1`` and
    ``-(nu - A) w21(0) + B w21(-r) = R2``, with determinant ``Delta``;
    ``i20``, ``i11``, ``i02`` are the kernel integrals
    ``int_{-r}^0 w_jk(s) e^{-nu s} ds`` and ``direct`` is the part of R1
    they do not carry. At ``mu = 0`` the rows are dependent (see
    :meth:`degeneracy`); at ``mu > 0`` ``lam`` must be a root of the
    characteristic equation, which ``Delta`` is reduced by.
    """

    A: float
    B: float
    r: float
    lam: complex
    psi0: complex
    so: SecondOrder
    f21: complex
    g21: complex
    g12_bar: complex
    i20: complex
    i11: complex
    i02: complex
    direct: complex
    R1: complex
    R2: complex
    Delta: complex

    def degeneracy(self) -> DegeneracyReport:
        """Residuals of the four identities that make the rows dependent at
        ``mu = 0``: ``B direct = g21 + conj(g12) - f21`` and
        ``B e^{-nu r} i_jk = -w_jk(0)``, each weighted as in R1 and R2. At
        ``mu > 0`` the identities do not hold and the residuals mean nothing."""
        so = self.so
        weights = so.forcing_weights
        res2, res3, res4 = (
            abs(c * (self.B * so.enur * v + w0))
            for c, v, w0 in zip(weights, (self.i20, self.i11, self.i02), (so.w20_0, so.w11_0, so.w02_0))
        )
        return DegeneracyReport(
            residual_R1=abs(self.B * self.direct - (self.g21 + self.g12_bar - self.f21)),
            residual_R2=res2,
            residual_R3=res3,
            residual_R4=res4,
            BR1_minus_R2=abs(self.B * self.R1 - self.R2),
        )

    def pairings(self) -> tuple[complex, complex, complex, complex]:
        """``<Psi1, rho> + <Psi2, rho>`` and ``<rho~, w_jk>`` for jk = 20, 11, 02.

        ``Psi1 = psi0 e^{-lam z}`` on [0, r] is the normalized adjoint
        eigenfunction and ``Psi2`` its conjugate. At ``mu > 0`` the kernels
        are the exact two-term forms ``rho(s) = (e^{lam s} - e^{nu s}) / mu``
        and ``rho~(z) = (e^{-nu z} - e^{-lam z}) / mu``; at ``mu = 0``, where
        that form cannot be evaluated, their limits, the resonant kernels
        ``-2 s e^{i w s}`` and ``-2 z e^{-i w z}``. Both kernels vanish at 0,
        so each pairing is its B-weighted integral alone.
        """
        B, r, lam, nu, so = self.B, self.r, self.lam, self.so.nu, self.so
        mu = lam.real
        lamb = lam.conjugate()
        if mu == 0.0:
            k1 = -2.0 * moment(0j, 1, -r, 0.0)
            k2 = -2.0 * moment(lam - lamb, 1, -r, 0.0)

            def tilde(terms: Terms, i: complex) -> complex:
                return -2.0 * B * so.elr * (_kernel_integral(terms, lam, r, 1) + r * i)
        else:
            k1 = (r - moment(nu - lam, 0, -r, 0.0)) / mu
            k2 = (moment(lam - lamb, 0, -r, 0.0) - moment(nu - lamb, 0, -r, 0.0)) / mu

            def tilde(terms: Terms, i: complex) -> complex:
                return B * (so.enur * i - so.elr * _kernel_integral(terms, lam, r)) / mu

        pair_rho = B * (self.psi0 * so.elr * k1 + (self.psi0 * so.elr).conjugate() * k2)
        return (pair_rho,) + tuple(
            tilde(t, i) for t, i in zip((so.t20, so.t11, so.t02), (self.i20, self.i11, self.i02))
        )

    def h(self) -> tuple[complex, complex]:
        """``(h1, h2)`` with ``B R1 - R2 = mu h1`` and ``Delta = mu h2``.

        Both stay finite as ``mu -> 0``, and at ``mu = 0`` they are those
        limits, so ``h1 / h2`` is w21(0) arbitrarily close to and at
        criticality.
        """
        A, B, r, lam = self.A, self.B, self.r, self.lam
        mu = lam.real
        if mu == 0.0:
            h2 = 2 * r * lam.imag * 1j - 2 * r * A + 2.0
        else:
            h2 = B * self.so.elr * (-math.expm1(-2 * mu * r) / mu) + 2.0
        pair_rho, *pairs = self.pairings()
        h1 = self.f21 * pair_rho - sum(c * p for c, p in zip(self.so.forcing_weights, pairs))
        return h1, h2


def cubic_stage(A: float, B: float, psi0: complex, so: SecondOrder) -> CubicStage:
    """g21, conj(g12), the kernel integrals, R1, R2 and Delta of the w21
    system at the eigenvalue ``so.lam`` of the quadratic data ``so`` (see
    :class:`CubicStage`)."""
    r, lam, nu = so.r, so.lam, so.nu
    mu = lam.real
    f21, elr, elbr, enur = so.f21, so.elr, so.elbr, so.enur
    g21 = psi0 * f21
    g12_bar = psi0.conjugate() * f21  # f12 = conj(f21): the nonlinearity is real
    if mu == 0.0:
        Delta = nu - A - B * enur
        E = r
    else:
        # reduced by the characteristic equation with expm1: the raw
        # determinant and (e^{-lam r} - e^{-nu r}) / (2 mu) lose every digit as mu -> 0
        em = -math.expm1(-2 * mu * r)
        Delta = B * elr * em + 2 * mu
        E = em / (2 * mu)

    i = tuple(_kernel_integral(t, nu, r) for t in (so.t20, so.t11, so.t02))
    weights = so.forcing_weights
    direct = -g21 * elr * E - (g12_bar / (2 * lam)) * (elbr - enur)
    R1 = direct - enur * sum(c * v for c, v in zip(weights, i))
    R2 = g21 + g12_bar - f21 + sum(c * v for c, v in zip(weights, (so.w20_0, so.w11_0, so.w02_0)))
    return CubicStage(A, B, r, lam, psi0, so, f21, g21, g12_bar, *i, direct, R1, R2, Delta)


# ---------------------------------------------------------------------------
# critical (unperturbed) pipeline


def second_order(model: ModelSpec, eig: EigenData) -> SecondOrder:
    """Quadratic coefficients and profiles at the Hopf point itself."""
    lin = model.lin
    return quadratic_data(lin.A, lin.B, lin.r, 1j * eig.omega, eig.Psi1_at_0, model)


def third_order_rhs(model: ModelSpec, eig: EigenData, so: SecondOrder) -> CubicStage:
    """The cubic stage at the Hopf point itself (mu = 0)."""
    lin = model.lin
    return cubic_stage(lin.A, lin.B, eig.Psi1_at_0, so)


def degeneracy_report(model: ModelSpec, eig: EigenData, so: SecondOrder) -> DegeneracyReport:
    """Residuals of the four identities proving the two system rows dependent."""
    return third_order_rhs(model, eig, so).degeneracy()


def w21_at_zero(stage: CubicStage) -> complex:
    """w21(0) = h1/h2: at mu = 0 the admissible value, the limit of the
    perturbed solves as the perturbation vanishes."""
    h1, h2 = stage.h()
    if abs(h2) <= 1e-10:
        raise DegenerateSystemError(
            f"regularized denominator h2 (2 r w i - 2 r A + 2 at criticality) is "
            f"numerically zero ({abs(h2):.3e})"
        )
    return h1 / h2


def w21_at_minus_r(stage: CubicStage, w21_0: complex) -> complex:
    """w21(-r) from the first row of the critical ``stage``'s system; the
    second row must hold to 1e-9 relative to R2."""
    A, B, lam, R2 = stage.A, stage.B, stage.lam, stage.R2
    value = stage.so.elr * w21_0 + stage.R1
    residual = abs(-(lam - A) * w21_0 + B * value - R2)
    if residual > 1e-9 * (1.0 + abs(R2)):
        raise InconsistencyError(
            f"second system row violated by {residual:.3e}; upstream computation is wrong"
        )
    return value


def w21_profile(stage: CubicStage, w21_0: complex) -> ExpPoly:
    """Integrate the w21 equation w' = i w w + forcing from s = 0 in closed form,
    for the critical ``stage``.

    The forcing is g21 e^{i w s} + conj(g12) e^{-i w s} plus the quadratic
    profiles' terms, collected by rate. A component at rate rho != i w
    integrates to coeff / (rho - i w) e^{rho s}; the one at rate i w is
    resonant and yields the secular s e^{i w s} term.
    """
    so, nu = stage.so, stage.lam
    forcing = {nu: stage.g21, -nu: stage.g12_bar}
    for factor, terms in zip(so.forcing_weights, (so.t20, so.t11, so.t02)):
        for c, rate in terms:
            forcing[rate] = forcing.get(rate, 0j) + factor * c
    terms = [ExpMonomial(forcing.pop(nu), nu, 1)]
    const = w21_0
    for rate, a in forcing.items():
        c = a / (rate - nu)
        terms.append(ExpMonomial(c, rate, 0))
        const -= c
    terms.append(ExpMonomial(const, nu, 0))
    return ExpPoly(terms, (-stage.r, 0.0))


@dataclass(frozen=True)
class ThirdOrder:
    """The critical cubic stage (f21, g21, conj(g12), R1, R2, Delta and the
    degeneracy identities) and the admissible w21: its endpoints and profile."""

    stage: CubicStage
    w21_0: complex
    w21_mr: complex
    w21: ExpPoly


def third_order(
    model: ModelSpec, eig: EigenData, so: SecondOrder, stage: CubicStage | None = None
) -> ThirdOrder:
    """The critical cubic stage with its limit w21(0), w21(-r) and profile.
    ``stage`` is the stage from :func:`third_order_rhs`, if the caller
    already has it."""
    st = third_order_rhs(model, eig, so) if stage is None else stage
    w0 = w21_at_zero(st)
    return ThirdOrder(st, w0, w21_at_minus_r(st, w0), w21_profile(st, w0))
