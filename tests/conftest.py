"""Shared fixtures and independent numerical oracles for the test suite."""

from __future__ import annotations

import cmath
import dataclasses
import math
import random

from typing import Callable, NamedTuple

import numpy as np
import pytest

import ddecm.chareq as chareq
from ddecm import (
    LinearPart,
    ModelSpec,
    SimConfig,
    Trajectory,
    analyze_model,
    build_eigendata,
    integrate_dde,
    verify_hopf,
)
from ddecm.errors import CenterManifoldError
from ddecm.exppoly import ExpMonomial, ExpPoly, moment
from ddecm.spectral import bilinear

# Benchmark system: x' = a x(t-r) + x(t)^2 + c x(t) x(t-r) with a = -1,
# r = pi/2, critical pair +-i. The two parameter values where the first
# Lyapunov coefficient vanishes have the closed forms below.
R2_A = 0.0
R2_B = -1.0
R2_R = math.pi / 2.0
R2_OMEGA = 1.0
_SQ = math.sqrt(36.0 + 212.0 * math.pi + math.pi**2)
C1 = (18.0 - 7.0 * math.pi + _SQ) / (2.0 * (3.0 * math.pi - 2.0))
C2 = (18.0 - 7.0 * math.pi - _SQ) / (2.0 * (3.0 * math.pi - 2.0))


@pytest.fixture(scope="session")
def bench_lin() -> LinearPart:
    return LinearPart(R2_A, R2_B, R2_R)


@pytest.fixture(scope="session")
def bench_eig(bench_lin):
    return build_eigendata(bench_lin, verify_hopf(bench_lin, R2_OMEGA))


@pytest.fixture(scope="session")
def bench_ef():
    return eigenfunctions(R2_OMEGA, R2_R)


@pytest.fixture(scope="session")
def bench_model_c1(bench_lin) -> ModelSpec:
    return ModelSpec(bench_lin, {(2, 0): 2.0, (1, 1): C1})


@pytest.fixture(scope="session")
def bench_model_c2(bench_lin) -> ModelSpec:
    return ModelSpec(bench_lin, {(2, 0): 2.0, (1, 1): C2})


# --- quadrature oracles: adaptive Simpson and the argument-principle root count


class QuadratureError(CenterManifoldError):
    """Adaptive quadrature failed to converge to the requested tolerance."""


class RootOnContourError(CenterManifoldError):
    """A characteristic root lies (numerically) on the counting contour."""


def adaptive_simpson(
    f: Callable[[float], complex],
    a: float,
    b: float,
    tol: float = 1e-12,
    max_depth: int = 50,
) -> complex:
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``tol``."""
    if b < a:
        return -adaptive_simpson(f, b, a, tol, max_depth)
    if a == b:
        return 0j
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    # rounding-noise scale of the whole integral; per-level tolerances are
    # clamped here so the refinement cannot chase digits that do not exist
    floor = 1e-16 * (abs(whole) + (b - a) * (abs(fa) + 4.0 * abs(fm) + abs(fb)) / 6.0)
    return _recurse(f, a, b, fa, fm, fb, whole, tol, max_depth, floor)


def _recurse(f, a, b, fa, fm, fb, whole, tol, depth, floor):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * max(tol, floor) or abs(delta) <= 1e-15 * (abs(left) + abs(right)):
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureError(
            f"adaptive Simpson did not converge on [{a}, {b}] (residual {abs(delta):.3e})"
        )
    half = max(0.5 * tol, floor)
    return _recurse(f, a, m, fa, flm, fm, left, half, depth - 1, floor) + _recurse(
        f, m, b, fm, frm, fb, right, half, depth - 1, floor
    )


def count_roots_rect(
    lin: LinearPart,
    rect: tuple[float, float, float, float],
    tol: float = 1e-6,
) -> int:
    """Number of characteristic roots inside ``rect = (re_min, re_max, im_min, im_max)``.

    Winding number of F along the rectangle boundary via adaptive contour
    quadrature of F'/F; the real part must round to an integer within 0.25.
    F and F' are looked up on ``ddecm.chareq`` at each call, so a wrapper
    installed there (an evaluation counter) sees every evaluation.
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
        fv = chareq.char_value(lin, lam)
        dfv = chareq.char_derivative(lin, lam)
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


def bilinear_quad(psi, phi, lin, tol=1e-13):
    """Quadrature-based pairing oracle, independent of the closed-form algebra."""
    r = lin.r
    integral = adaptive_simpson(lambda z: psi.eval(z + r) * phi.eval(z), -r, 0.0, tol=tol)
    return psi.eval(0.0) * phi.eval(0.0) + lin.B * integral


class Collocation(NamedTuple):
    w21_0: complex
    w21_mr: complex
    g20: complex
    g11: complex
    g02: complex
    g21: complex
    l1: float


def collocation_w21(A, B, r, omega, C, n=24):
    """w21(0), w21(-r) of :func:`collocation_manifold`."""
    cm = collocation_manifold(A, B, r, omega, C, n)
    return cm.w21_0, cm.w21_mr


def collocation_manifold(A, B, r, omega, C, n=24) -> Collocation:
    """w21(0), w21(-r), g20, g11, g02, g21 and the first Lyapunov coefficient
    l1 from a Chebyshev collocation of the DDE, independent of ddecm.

    The history segment is sampled at n + 1 Chebyshev points theta_0 = 0 >
    ... > theta_n = -r: rows 1..n differentiate the interpolant, row 0 is
    x' = A x(0) + B x(-r) + f. The Hassard-Kazarinoff-Wan center manifold of
    this ODE is computed with the same conventions as the package
    (f = sum C[j,k] x^j y^k / (j! k!), eigenvector q with q(0) = 1, left
    eigenvector p with p.q = 1, W = sum w_ij z^i zbar^j / (i! j!)), and the
    uniqueness condition p.w21 = 0 is imposed by the spectral projection q p^T.
    l1 is Re[(i / 2 w)(g20 g11 - 2|g11|^2 - |g02|^2 / 3) + g21 / 2] at the
    collocation's own eigenvalue lam = i w (up to its rounding).
    """
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    D = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n + 1))
    D -= np.diag(D.sum(axis=1))
    M = D * (2.0 / r)  # theta = r (x - 1) / 2
    M[0, :] = 0.0
    M[0, 0], M[0, n] = A, B

    vals, V = np.linalg.eig(M)
    k = int(np.argmin(abs(vals - 1j * omega)))
    lam = vals[k]
    q = V[:, k] / V[0, k]
    p = np.linalg.inv(V)[k] * V[0, k]
    qb, pb = q.conj(), p.conj()

    def cf(i, j):
        return C.get((i, j), 0.0)

    def d2(u, v):
        return (
            cf(2, 0) * u[0] * v[0]
            + cf(1, 1) * (u[0] * v[n] + u[n] * v[0])
            + cf(0, 2) * u[n] * v[n]
        )

    def d3(u, v, w):
        (x0, x1, x2), (y0, y1, y2) = (u[0], v[0], w[0]), (u[n], v[n], w[n])
        return (
            cf(3, 0) * x0 * x1 * x2
            + cf(2, 1) * (x0 * x1 * y2 + x0 * y1 * x2 + y0 * x1 * x2)
            + cf(1, 2) * (x0 * y1 * y2 + y0 * x1 * y2 + y0 * y1 * x2)
            + cf(0, 3) * y0 * y1 * y2
        )

    eye = np.eye(n + 1)
    e0 = eye[0]
    f20, f11 = d2(q, q), d2(q, qb)
    g20, g11, gb02 = p[0] * f20, p[0] * f11, pb[0] * f20
    gb11 = g11.conjugate()
    w20 = np.linalg.solve(2 * lam * eye - M, f20 * e0 - g20 * q - gb02 * qb)
    w11 = np.linalg.solve(2 * lam.real * eye - M, f11 * e0 - g11 * q - gb11 * qb)
    w02 = w20.conj()
    f21 = d3(q, q, qb) + 2 * d2(q, w11) + d2(qb, w20)
    g21, gb12 = p[0] * f21, pb[0] * f21
    rhs = f21 * e0 - g21 * q - gb12 * qb - 2 * g11 * w20 - (g20 + 2 * gb11) * w11 - gb02 * w02
    # (2 lam + lam_bar) - M is singular on q; adding q p^T makes it regular, and
    # p.rhs = 0 then forces p.w21 = 0, so the solve returns the admissible w21
    w21 = np.linalg.solve((2 * lam + lam.conjugate()) * eye - M + np.outer(q, p), rhs)
    g02 = p[0] * d2(qb, qb)
    l1 = ((1j / (2.0 * lam.imag)) * (g20 * g11 - 2.0 * abs(g11) ** 2 - abs(g02) ** 2 / 3.0) + g21 / 2.0).real
    return Collocation(*(complex(v) for v in (w21[0], w21[n], g20, g11, g02, g21)), float(l1))


def random_hopf_model(rng: random.Random, max_cubic=True) -> ModelSpec:
    """A random model constructed to sit exactly on a Hopf point.

    omega and r are sampled, then B = -omega/sin(omega r) and
    A = -B cos(omega r) place +-i omega on the spectrum. Draws that would be
    ill-conditioned (near 1:2 resonance, near a zero eigenvalue, tiny
    normalization) are rejected so absolute tolerances stay meaningful.
    """
    while True:
        w = rng.uniform(0.6, 2.2)
        r = rng.uniform(0.6, 2.5)
        s = math.sin(w * r)
        if abs(s) < 0.25:
            continue
        B = -w / s
        A = -B * math.cos(w * r)
        if abs(B) > 9.0 or abs(A) > 9.0:
            continue
        # well away from the additional degeneracies
        char2 = abs(2j * w - A - B * complex(math.cos(2 * w * r), -math.sin(2 * w * r)))
        if char2 < 0.3 or abs(A + B) < 0.3:
            continue
        break
    keys = [(2, 0), (1, 1), (0, 2)]
    if max_cubic:
        keys += [(3, 0), (2, 1), (1, 2), (0, 3)]
    C = {key: rng.uniform(-2.0, 2.0) for key in keys if rng.random() > 0.2}
    return ModelSpec(LinearPart(A, B, r), C, omega_hint=w)


def hopf_curve_model(omega: float, theta: float, k: int, C) -> ModelSpec:
    """The model on the closed-form Hopf curve at crossing k: A = w cot theta,
    B = -w / sin theta, r = (theta + 2 pi k) / w (B > 0 for pi < theta < 2 pi)."""
    lin = LinearPart(omega / math.tan(theta), -omega / math.sin(theta), (theta + 2 * math.pi * k) / omega)
    return ModelSpec(lin, C, omega_hint=omega)


# Taylor coefficients with l1 < 0 at (w, theta, 0) for theta in [1.5, 2.8]
SUPERCRITICAL_C = {(2, 0): 0.5, (1, 1): -0.3, (3, 0): -1.0, (1, 2): -0.5}


def hopf_amplitude_run(model: ModelSpec, eps: float, start: float) -> tuple[Trajectory, float]:
    """The Hopf amplitude law on the full equation (Hassard, Kazarinoff & Wan,
    Theory and Applications of Hopf Bifurcation, 1981).

    At B -> (1 + eps) B with A and r fixed, the critical pair moves at
    lambda'(0) = (i w - A) Psi1(0) = (i w - A) / (1 + r (i w - A)), and the
    cycle born at the Hopf point has amplitude a = 2 sqrt(-Re lambda'(0) eps / l1),
    with ``l1`` from ``analyze_model``: stable when l1 < 0 < eps, unstable when
    eps < 0 < l1. Runs ``integrate_dde`` on the perturbed model with dt = r / 40
    from the constant history ``start * a`` for 60 / (2 Re lambda'(0) |eps|) time
    units and returns the trajectory with a.
    """
    lin = model.lin
    rep = analyze_model(model, eps_grid=None)
    rate = ((1j * rep.hopf.omega - lin.A) * rep.Psi1_at_0).real
    amp = 2.0 * math.sqrt(-rate * eps / rep.l1)
    perturbed = ModelSpec(LinearPart(lin.A, (1.0 + eps) * lin.B, lin.r), model.C)
    cfg = SimConfig(dt=lin.r / 40, horizon=60.0 / (2.0 * rate * abs(eps)), history=start * amp)
    return integrate_dde(perturbed, cfg), amp


def half_peak_to_peak(traj: Trajectory) -> float:
    """Amplitude of the last 10 % of a run."""
    tail = traj.values[int(0.9 * len(traj.values)):]
    return 0.5 * float(tail.max() - tail.min())


def amplitude_ratio_limit(model: ModelSpec) -> float:
    """Measured over predicted amplitude of the stable cycle (l1 < 0), from a
    history of 0.3 times the prediction, extrapolated linearly in eps to 0 from
    eps = 0.02 and 0.01: 2 R(0.01) - R(0.02)."""
    r02, r01 = (half_peak_to_peak(traj) / amp for traj, amp in
                (hopf_amplitude_run(model, eps, 0.3) for eps in (0.02, 0.01)))
    return 2.0 * r01 - r02


_TAYLOR_KEYS = ((2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3))


def hopf_family_sample(seed: int) -> list[ModelSpec]:
    """Seeded models on the Hopf curve, without ``omega_hint``: for each
    crossing k in {0, 1, 2} and each sign of B, theta at 0.05 from both ends
    of its half-turn (with omega at 0.03 and 30) and at six uniform draws
    between, omega log-uniform on [0.03, 30]; every Taylor coefficient
    uniform on [-2, 2]."""
    rng = random.Random(seed)
    lo, hi = math.log(0.03), math.log(30.0)
    models = []
    for k in (0, 1, 2):
        for base in (0.0, math.pi):  # B < 0, B > 0
            points = [(0.03, base + 0.05), (30.0, base + math.pi - 0.05)]
            points += [
                (math.exp(rng.uniform(lo, hi)), base + rng.uniform(0.05, math.pi - 0.05))
                for _ in range(6)
            ]
            for omega, theta in points:
                C = {key: rng.uniform(-2.0, 2.0) for key in _TAYLOR_KEYS}
                models.append(dataclasses.replace(hopf_curve_model(omega, theta, k, C), omega_hint=None))
    return models


HOPF_FAMILY = hopf_family_sample(7)


class Eigenfunctions(NamedTuple):
    phi1: ExpPoly
    phi2: ExpPoly
    psi1: ExpPoly
    psi2: ExpPoly


def eigenfunctions(omega: float, r: float) -> Eigenfunctions:
    """The critical eigenfunctions phi1 = e^{i w s}, phi2 = conj(phi1) on [-r, 0]
    and the adjoint ones psi1 = e^{-i w z}, psi2 = conj(psi1) on [0, r], built
    from (omega, r) alone."""
    phi1 = ExpPoly.monomial(1.0, 1j * omega, 0, (-r, 0.0))
    psi1 = ExpPoly.monomial(1.0, -1j * omega, 0, (0.0, r))
    return Eigenfunctions(phi1, phi1.conjugate(), psi1, psi1.conjugate())


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
    ef = eigenfunctions(eig.omega, eig.Psi1.domain[1])
    out = ef.phi1.scale(u0) + ef.phi2.scale(ub)
    out = out + so.w20.scale(u0 * u0 / 2) + so.w11.scale(u0 * ub) + so.w02.scale(ub * ub / 2)
    if third is not None:
        out = out + third.w21.scale(u0 * u0 * ub / 2) + third.w21.conjugate().scale(u0 * ub * ub / 2)
    return out


# --- the ExpPoly route: the algebra the cubic stage's scalar closed forms replaced


def perturbed_eigenfunctions(st):
    """(phi_eps1, phi_eps2) on [-r, 0] and (Psi_eps1, Psi_eps2) on [0, r] of a
    perturbed ``CubicStage``."""
    phi1 = ExpPoly.monomial(1.0, st.so.lam, 0, (-st.so.r, 0.0))
    Psi1 = ExpPoly.monomial(st.psi0, -st.so.lam, 0, (0.0, st.so.r))
    return phi1, phi1.conjugate(), Psi1, Psi1.conjugate()


def _kernels(lam: complex, r: float):
    """rho on [-r, 0] and rho-tilde on [0, r]: the exact two-term forms
    (e^{lam s} - e^{nu s}) / mu and (e^{-nu z} - e^{-lam z}) / mu, or at mu = 0
    the resonant kernels -2 s e^{i w s} and -2 z e^{-i w z}."""
    mu = lam.real
    if mu == 0.0:
        return (ExpPoly.monomial(-2.0, lam, 1, (-r, 0.0)),
                ExpPoly.monomial(-2.0, -lam, 1, (0.0, r)))
    nu = 2 * lam + lam.conjugate()
    rho = ExpPoly((ExpMonomial(1.0 / mu, lam, 0), ExpMonomial(-1.0 / mu, nu, 0)), (-r, 0.0))
    rho_t = ExpPoly((ExpMonomial(1.0 / mu, -nu, 0), ExpMonomial(-1.0 / mu, -lam, 0)), (0.0, r))
    return rho, rho_t


def regularized_kernels(st):
    """rho_eps on [-r, 0] and rho_tilde_eps on [0, r] of a perturbed ``CubicStage``."""
    return _kernels(st.so.lam, st.so.r)


def _integral_with_scale(poly: ExpPoly) -> tuple[complex, float]:
    """poly.integrate() and the sum of its terms' magnitudes, the scale of its rounding."""
    parts = [t.coeff * moment(t.rate, t.degree, *poly.domain) for t in poly.terms]
    return poly.integrate(), sum(map(abs, parts))


def _bilinear_with_scale(psi: ExpPoly, phi: ExpPoly, lin: LinearPart) -> tuple[complex, float]:
    """spectral.bilinear and the scale of its rounding."""
    _, scale = _integral_with_scale(psi.shift_argument(lin.r) * phi)
    return bilinear(psi, phi, lin), abs(psi.eval(0.0) * phi.eval(0.0)) + abs(lin.B) * scale


def exppoly_stage(st) -> dict:
    """Kernel integrals, pairings, R1, R2 and h1 of a ``CubicStage`` by
    ExpPoly product-and-integrate and ``spectral.bilinear``, each as
    (value, scale): the scale is the sum of the magnitudes of what is
    summed, so two summation orders agree to a few ulps of it."""
    A, B, r, lam, so = st.A, st.B, st.so.r, st.so.lam, st.so
    mu, w = lam.real, lam.imag
    lamb = lam.conjugate()
    nu = 2 * lam + lamb
    lin = LinearPart(A, B, r)
    kernel = ExpPoly.monomial(1.0, -nu, 0, (-r, 0.0))
    i = [_integral_with_scale(prof * kernel) for prof in (so.w20, so.w11, so.w02)]
    Psi1 = ExpPoly.monomial(st.psi0, -lam, 0, (0.0, r))
    rho, rho_t = _kernels(lam, r)
    (p1, s1), (p2, s2) = _bilinear_with_scale(Psi1, rho, lin), _bilinear_with_scale(Psi1.conjugate(), rho, lin)
    pairings = [(p1 + p2, s1 + s2)] + [_bilinear_with_scale(rho_t, prof, lin) for prof in (so.w20, so.w11, so.w02)]
    elr, elbr, enur = cmath.exp(-lam * r), cmath.exp(-lamb * r), cmath.exp(-nu * r)
    if mu == 0.0:
        direct = (-st.g21 * r * elr, (1j / (2 * w)) * st.g12_bar * (cmath.exp(1j * w * r) - elr))
    else:
        direct = (-st.g21 * elr * (-math.expm1(-2 * mu * r)) / (2 * mu),
                  -(st.g12_bar / (2 * lam)) * (elbr - enur))
    gb11, gb02 = so.g11.conjugate(), so.g02.conjugate()
    factors = (2 * so.g11, so.g20 + 2 * gb11, gb02)
    R1 = sum(direct) - sum(c * enur * v for c, (v, _) in zip(factors, i))
    R1_scale = sum(map(abs, direct)) + sum(abs(c * enur) * sc for c, (_, sc) in zip(factors, i))
    R2_parts = (st.g21, st.g12_bar, -st.so.f21) + tuple(
        c * v for c, v in zip(factors, (so.w20_0, so.w11_0, so.w02_0)))
    h1 = st.so.f21 * pairings[0][0] - sum(c * v for c, (v, _) in zip(factors, pairings[1:]))
    h1_scale = abs(st.so.f21) * pairings[0][1] + sum(abs(c) * sc for c, (_, sc) in zip(factors, pairings[1:]))
    return {
        "i": i,
        "pairings": pairings,
        "R1": (R1, R1_scale),
        "R2": (sum(R2_parts), sum(map(abs, R2_parts))),
        "h1": (h1, h1_scale),
    }


# --- report drift: field-by-field comparison of two analyze reports

REPORT_SCALE_TOL = 1e-13   # |change| <= tol * max(1, |value|), complex pairs by modulus
ORACLE_REL_TOL = 1e-11     # estimates, extrapolated: (B R1 - R2) / Delta_eps amplifies ~1/mu_eps
NOISE_ABS_TOL = 1e-12      # fields that are rounding noise


def _report_tol(key: str, in_oracle: bool, value: float) -> float:
    if key.startswith("residual_") or key in ("BR1_minus_R2", "degeneracy_residual", "gap"):
        return NOISE_ABS_TOL
    if in_oracle and key in ("estimates", "extrapolated"):
        return ORACLE_REL_TOL * value
    return REPORT_SCALE_TOL * max(1.0, value)


def report_drift(expected, actual, path: str = "", key: str = "", in_oracle: bool = False) -> list[str]:
    """Every difference between two analyze report documents beyond the
    drift allowed to a change that keeps the numbers: keys, nesting and
    types must be identical, numbers within ``_report_tol`` of their field.
    A two-number list is compared as one complex value."""
    if type(expected) is not type(actual):
        return [f"{path}: type {type(expected).__name__} -> {type(actual).__name__}"]
    if isinstance(expected, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(expected)} -> {sorted(actual)}"]
        out = []
        for k in expected:
            out += report_drift(expected[k], actual[k], f"{path}/{k}", k, in_oracle or k == "oracle")
        return out
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} -> {len(actual)}"]
        if len(expected) == 2 and all(type(v) is float for v in expected + actual):
            z, z2 = complex(*expected), complex(*actual)
            if abs(z2 - z) > _report_tol(key, in_oracle, abs(z)):
                return [f"{path}: {z!r} -> {z2!r}"]
            return []
        out = []
        for i, (a, b) in enumerate(zip(expected, actual)):
            out += report_drift(a, b, f"{path}[{i}]", key, in_oracle)
        return out
    if type(expected) is float:
        if not abs(actual - expected) <= _report_tol(key, in_oracle, abs(expected)):
            return [f"{path}: {expected!r} -> {actual!r}"]
        return []
    return [] if expected == actual else [f"{path}: {expected!r} -> {actual!r}"]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
