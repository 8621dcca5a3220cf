"""Center-manifold coefficients: quadratic stage, degeneracy identities,
and the regularized w21.

Frozen endpoint values below were produced by an out-of-tree oracle that
solves the same boundary systems with composite-Simpson integrals and plain
cmath arithmetic, then cross-validated two further ways (perturbation
extrapolation, which shares no pairing code, and least-squares extraction
from simulated trajectories, which shares nothing at all). The in-tree
Chebyshev collocation oracle ``conftest.collocation_w21``, which imports
nothing from ddecm, reproduces the same four numbers to 1e-9 (checked in
``TestW21.test_frozen_oracle_values``).
"""

import cmath
import dataclasses
import math

import pytest

import ddecm.cmcore as cmcore
from ddecm.chareq import LinearPart, verify_hopf
from ddecm.cmcore import (
    CubicStage,
    ModelSpec,
    SecondOrder,
    degeneracy_report,
    quadratic_data,
    second_order,
    third_order,
    third_order_rhs,
    w21_at_minus_r,
    w21_at_zero,
    w21_profile,
)
from ddecm.errors import InconsistencyError, ResonanceError, ZeroEigenvalueError
from ddecm.exppoly import ExpPoly, moment
from ddecm.perturb import perturbed_stage
from ddecm.spectral import EigenData, bilinear, build_eigendata

from conftest import (
    C1,
    C2,
    adaptive_simpson,
    bilinear_quad,
    collocation_w21,
    eigenfunctions,
    exppoly_stage,
    hopf_curve_model,
    random_hopf_model,
)

# oracle values (see module docstring); tolerance reflects the oracle's own
# quadrature error
W21_0_C1 = complex(0.34234287212916764, -0.31416585343071735)
W21_MR_C1 = complex(1.6331285950690941, -1.8143079872064722)
W21_0_C2 = complex(-0.6500038584933936, -0.281508067307564)
W21_MR_C2 = complex(-4.463278214772915, -1.4116068281802647)
_FROZEN_TOL = 1e-9


def pipeline(model, eig):
    so = second_order(model, eig)
    rhs = third_order_rhs(model, eig, so)
    return so, rhs


class TestSecondOrder:
    def test_linear_model_is_trivial(self, bench_lin, bench_eig):
        so = second_order(ModelSpec(bench_lin, {}), bench_eig)
        assert so.f20 == so.f11 == so.f02 == 0
        assert so.g20 == so.g11 == so.g02 == 0
        assert so.w20.is_zero() and so.w11.is_zero() and so.w02.is_zero()
        assert so.w20_0 == so.w11_0 == so.w02_0 == 0

    def test_benchmark_f11(self, bench_model_c1, bench_eig):
        # e^{-i pi/2} + e^{i pi/2} = 0 kills the C11 contribution
        so = second_order(bench_model_c1, bench_eig)
        assert so.f11 == pytest.approx(2.0, abs=1e-14)

    def test_benchmark_f20(self, bench_model_c1, bench_eig):
        # e^{-i pi/2} = -i, so f20 = 2 + 2 c1 (-i)
        so = second_order(bench_model_c1, bench_eig)
        assert so.f20 == pytest.approx(2.0 - 2.0 * C1 * 1j, abs=1e-14)

    def test_conjugation_structure(self, bench_model_c1, bench_eig):
        so = second_order(bench_model_c1, bench_eig)
        assert abs(so.f02 - so.f20.conjugate()) <= 1e-14 * (1 + abs(so.f20))
        assert abs(so.g02 - (bench_eig.Psi1_at_0 * so.f20.conjugate())) <= 1e-14
        assert so.w02 == so.w20.conjugate()

    def test_profiles_match_endpoints(self, bench_model_c1, bench_lin, bench_eig):
        so = second_order(bench_model_c1, bench_eig)
        r = bench_lin.r
        for prof, v0, vmr in (
            (so.w20, so.w20_0, so.w20_mr),
            (so.w11, so.w11_0, so.w11_mr),
            (so.w02, so.w02_0, so.w02_mr),
        ):
            assert abs(prof.eval(0.0) - v0) <= 1e-13 * (1 + abs(v0))
            assert abs(prof.eval(-r) - vmr) <= 1e-13 * (1 + abs(vmr))

    def test_ode_residuals_vanish(self, bench_model_c1, bench_lin, bench_eig):
        so = second_order(bench_model_c1, bench_eig)
        w = bench_eig.omega
        r = bench_lin.r
        dom = (-r, 0.0)
        gb11, gb02 = so.g11.conjugate(), so.g02.conjugate()
        cases = (
            (so.w20, 2j * w, so.g20, gb02),
            (so.w11, 0.0, so.g11, gb11),
        )
        for prof, lin_rate, gp, gm in cases:
            forcing = ExpPoly.monomial(gp, 1j * w, 0, dom) + ExpPoly.monomial(gm, -1j * w, 0, dom)
            residual = prof.derivative() - prof.scale(lin_rate) - forcing
            scale = 1.0 + prof.max_coeff() + forcing.max_coeff()
            assert residual.max_coeff() <= 1e-12 * scale

    def test_orthogonal_to_adjoint_pair(self, bench_model_c1, bench_lin, bench_eig):
        so = second_order(bench_model_c1, bench_eig)
        ef = eigenfunctions(bench_eig.omega, bench_lin.r)
        for prof in (so.w20, so.w11, so.w02):
            assert abs(bilinear(ef.psi1, prof, bench_lin)) <= 1e-10
            assert abs(bilinear(ef.psi2, prof, bench_lin)) <= 1e-10

    def test_overflowing_coefficients_rejected(self, bench_lin, bench_eig):
        # the profiles' terms overflow to nan; no later stage may run on them
        model = ModelSpec(bench_lin, {(2, 0): 1e308, (1, 1): 1e308})
        with pytest.raises(ValueError, match="must be finite"):
            second_order(model, bench_eig)

    def test_resonance_guard(self):
        # char(2i) = 0 for A=0, B=-2, r=pi/4 (and i is then NOT a root, so this
        # eig is synthetic: the guard protects against sloppily-verified input)
        lin = LinearPart(0.0, -2.0, math.pi / 4)
        eig = _fake_eig(lin, 1.0)
        with pytest.raises(ResonanceError):
            second_order(ModelSpec(lin, {(2, 0): 1.0}), eig)

    def test_zero_eigenvalue_guard(self):
        lin = LinearPart(1.0, -1.0, 2.0)
        eig = _fake_eig(lin, 0.9477)
        with pytest.raises(ZeroEigenvalueError):
            second_order(ModelSpec(lin, {(2, 0): 1.0}), eig)
        # a true fold-Hopf point, A + B = -5e-13: on the Hopf curve the w20
        # determinant is (A + B)(2 e^{-i w r} + 1), so both systems are singular
        # and the zero eigenvalue is the cause named
        model = hopf_curve_model(1e-6, 1e-6, 1, {(2, 0): 1.0})
        eig = build_eigendata(model.lin, verify_hopf(model.lin, model.omega_hint))
        with pytest.raises(ZeroEigenvalueError, match="zero eigenvalue"):
            second_order(model, eig)


def _fake_eig(lin: LinearPart, omega: float) -> EigenData:
    """EigenData shaped like the real thing without Hopf verification."""
    e11 = 1.0 - (lin.A - 1j * omega) * lin.r
    Psi1 = ExpPoly.monomial(1.0, -1j * omega, 0, (0.0, lin.r)).scale(1.0 / e11)
    return EigenData(omega=omega, e11=e11, e22=e11.conjugate(), Psi1=Psi1, Psi1_at_0=1.0 / e11)


class TestThirdOrderRhs:
    def test_trivial_model(self, bench_lin, bench_eig):
        so, rhs = pipeline(ModelSpec(bench_lin, {}), bench_eig)
        assert rhs.so.f21 == rhs.g21 == rhs.R1 == rhs.R2 == 0

    def test_dependence_identity(self, bench_model_c1, bench_lin, bench_eig):
        so, rhs = pipeline(bench_model_c1, bench_eig)
        assert abs(bench_lin.B * rhs.R1 - rhs.R2) <= 1e-10
        assert abs(rhs.R1) > 0.1  # nonzero, finite

    def test_integrals_against_quadrature(self, bench_model_c1, bench_lin, bench_eig):
        so = second_order(bench_model_c1, bench_eig)
        w, r = bench_eig.omega, bench_lin.r
        for prof in (so.w20, so.w11, so.w02):
            exact = (prof * ExpPoly.monomial(1.0, -1j * w, 0, (-r, 0.0))).integrate()
            quad = adaptive_simpson(
                lambda t: prof.eval(t) * cmath.exp(-1j * w * t), -r, 0.0, tol=1e-13
            )
            assert abs(exact - quad) <= 1e-10 * (1 + abs(exact))

    def test_g12_bar_is_conjugate_normalized(self, bench_model_c1, bench_eig):
        _, rhs = pipeline(bench_model_c1, bench_eig)
        want = bench_eig.Psi1_at_0.conjugate() * rhs.so.f21
        assert abs(rhs.g12_bar - want) == 0.0


class TestDegeneracy:
    def test_delta_vanishes(self, bench_model_c1, bench_lin, bench_eig):
        so = second_order(bench_model_c1, bench_eig)
        assert abs(third_order_rhs(bench_model_c1, bench_eig, so).Delta) <= 1e-12

    def test_four_identities(self, bench_model_c1, bench_eig):
        so = second_order(bench_model_c1, bench_eig)
        rep = degeneracy_report(bench_model_c1, bench_eig, so)
        for res in (rep.residual_R1, rep.residual_R2, rep.residual_R3, rep.residual_R4):
            assert res <= 1e-10

    def test_trivial_model_identities_exact(self, bench_lin, bench_eig):
        model = ModelSpec(bench_lin, {})
        rep = degeneracy_report(model, bench_eig, second_order(model, bench_eig))
        assert rep.residual_R2 == rep.residual_R3 == rep.residual_R4 == 0.0

    def test_random_hopf_models(self, rng):
        for _ in range(50):
            model = random_hopf_model(rng)
            eig = build_eigendata(model.lin, verify_hopf(model.lin, model.omega_hint))
            so = second_order(model, eig)
            rep = degeneracy_report(model, eig, so)
            rhs = third_order_rhs(model, eig, so)
            assert abs(rhs.Delta) <= 1e-11
            assert rep.BR1_minus_R2 <= 1e-9 * (1.0 + abs(rhs.R2))
            for res in (rep.residual_R1, rep.residual_R2, rep.residual_R3, rep.residual_R4):
                assert res <= 1e-10
            # conjugation symmetry of the whole quadratic stage
            assert abs(so.f02 - so.f20.conjugate()) <= 1e-13 * (1 + abs(so.f20))
            assert abs(so.g02 - eig.Psi1_at_0 * so.f20.conjugate()) <= 1e-13 * (1 + abs(so.g02))
            assert so.w02 == so.w20.conjugate()


class TestW21:
    def test_trivial_model(self, bench_lin, bench_eig):
        model = ModelSpec(bench_lin, {})
        so, rhs = pipeline(model, bench_eig)
        assert w21_at_zero(rhs) == 0
        assert w21_at_minus_r(rhs, 0j) == 0

    @pytest.mark.parametrize(
        "cval,want0,wantmr",
        [(C1, W21_0_C1, W21_MR_C1), (C2, W21_0_C2, W21_MR_C2)],
        ids=["c1", "c2"],
    )
    def test_frozen_oracle_values(self, bench_lin, bench_eig, cval, want0, wantmr):
        model = ModelSpec(bench_lin, {(2, 0): 2.0, (1, 1): cval})
        so, rhs = pipeline(model, bench_eig)
        w0 = w21_at_zero(rhs)
        wmr = w21_at_minus_r(rhs, w0)
        assert abs(w0 - want0) <= _FROZEN_TOL
        assert abs(wmr - wantmr) <= _FROZEN_TOL
        args = (bench_lin.A, bench_lin.B, bench_lin.r, bench_eig.omega, model.C)
        coarse, fine = collocation_w21(*args, n=24), collocation_w21(*args, n=40)
        assert abs(coarse[0] - want0) <= _FROZEN_TOL
        assert abs(coarse[1] - wantmr) <= _FROZEN_TOL
        assert max(abs(a - b) for a, b in zip(coarse, fine)) <= 1e-10

    def test_collocation_agrees_on_random_hopf_models(self, rng):
        # cubic coefficients and general (A, B, r), which the benchmark lacks
        for _ in range(20):
            model = random_hopf_model(rng)
            lin = model.lin
            eig = build_eigendata(lin, verify_hopf(lin, model.omega_hint))
            third = third_order(model, eig, second_order(model, eig))
            ref0, refmr = collocation_w21(lin.A, lin.B, lin.r, eig.omega, model.C)
            scale = 1.0 + abs(third.w21_0) + abs(third.w21_mr)
            assert abs(third.w21_0 - ref0) <= 1e-9 * scale
            assert abs(third.w21_mr - refmr) <= 1e-9 * scale

    def test_numerator_pairings_against_quadrature(self, bench_model_c1, bench_lin, bench_eig):
        so = second_order(bench_model_c1, bench_eig)
        w, r = bench_eig.omega, bench_lin.r
        rho = ExpPoly.monomial(-2.0, 1j * w, 1, (-r, 0.0))
        rho_t = ExpPoly.monomial(-2.0, -1j * w, 1, (0.0, r))
        for psi, phi in (
            (bench_eig.Psi1, rho),
            (bench_eig.Psi1.conjugate(), rho),
            (rho_t, so.w20),
            (rho_t, so.w11),
            (rho_t, so.w02),
        ):
            exact = bilinear(psi, phi, bench_lin)
            quad = bilinear_quad(psi, phi, bench_lin)
            assert abs(exact - quad) <= 1e-10 * (1 + abs(exact))

    def test_second_row_consistency_check(self, bench_model_c1, bench_eig):
        so, rhs = pipeline(bench_model_c1, bench_eig)
        w0 = w21_at_zero(rhs)
        # satisfied with the true R2
        w21_at_minus_r(rhs, w0)
        # a corrupted R2 must be caught
        with pytest.raises(InconsistencyError):
            w21_at_minus_r(rhs._replace(R2=rhs.R2 + 1.0), w0)

    def test_both_rows_satisfied(self, bench_model_c1, bench_lin, bench_eig):
        so, rhs = pipeline(bench_model_c1, bench_eig)
        w0 = w21_at_zero(rhs)
        wmr = w21_at_minus_r(rhs, w0)
        w, B, r = bench_eig.omega, bench_lin.B, bench_lin.r
        row1 = abs(-cmath.exp(-1j * w * r) * w0 + wmr - rhs.R1)
        row2 = abs(-(1j * w - bench_lin.A) * w0 + B * wmr - rhs.R2)
        assert row1 <= 1e-9 and row2 <= 1e-9


class TestW21Profile:
    def test_initial_condition(self, bench_model_c1, bench_eig):
        so, rhs = pipeline(bench_model_c1, bench_eig)
        w0 = w21_at_zero(rhs)
        prof = w21_profile(rhs, w0)
        assert abs(prof.eval(0.0) - w0) <= 1e-13 * (1 + abs(w0))

    def test_endpoint_cross_check(self, bench_model_c1, bench_lin, bench_eig):
        so, rhs = pipeline(bench_model_c1, bench_eig)
        w0 = w21_at_zero(rhs)
        wmr = w21_at_minus_r(rhs, w0)
        prof = w21_profile(rhs, w0)
        assert abs(prof.eval(-bench_lin.r) - wmr) <= 1e-10 * (1 + abs(wmr))

    def test_trivial_model(self, bench_lin, bench_eig):
        model = ModelSpec(bench_lin, {})
        so = second_order(model, bench_eig)
        assert w21_profile(third_order_rhs(model, bench_eig, so), 0j).is_zero()

    def test_resonant_term_present(self, bench_model_c1, bench_eig):
        so, rhs = pipeline(bench_model_c1, bench_eig)
        w0 = w21_at_zero(rhs)
        prof = w21_profile(rhs, w0)
        w = bench_eig.omega
        secular = [t for t in prof.terms if t.degree == 1 and abs(t.rate - 1j * w) < 1e-12]
        assert len(secular) == 1
        # the secular coefficient is the total rate-(i w) component of the
        # forcing: g21 plus contributions from the quadratic profiles
        gb11, gb02 = so.g11.conjugate(), so.g02.conjugate()
        resonant = rhs.g21
        for poly, factor in (
            (so.w20, 2 * so.g11),
            (so.w11, so.g20 + 2 * gb11),
            (so.w02, gb02),
        ):
            for t in poly.terms:
                if t.degree == 0 and abs(t.rate - 1j * w) < 1e-12:
                    resonant += factor * t.coeff
        assert abs(secular[0].coeff - resonant) <= 1e-12 * (1 + abs(resonant))

    def test_ode_residual(self, bench_model_c1, bench_lin, bench_eig):
        so, rhs = pipeline(bench_model_c1, bench_eig)
        w0 = w21_at_zero(rhs)
        prof = w21_profile(rhs, w0)
        w, r = bench_eig.omega, bench_lin.r
        dom = (-r, 0.0)
        gb11, gb02 = so.g11.conjugate(), so.g02.conjugate()
        forcing = (
            ExpPoly.monomial(rhs.g21, 1j * w, 0, dom)
            + ExpPoly.monomial(rhs.g12_bar, -1j * w, 0, dom)
            + so.w20.scale(2 * so.g11)
            + so.w11.scale(so.g20 + 2 * gb11)
            + so.w02.scale(gb02)
        )
        residual = prof.derivative() - prof.scale(1j * w) - forcing
        scale = 1.0 + prof.max_coeff() + forcing.max_coeff()
        assert residual.max_coeff() <= 1e-12 * scale


# (omega, theta, k) on the Hopf curve: omega r = theta + 2 pi k runs from 0.05
# to 30, B < 0 for theta < pi and B > 0 above
CURVE_POINTS = [
    (1.0, 0.05, 0),
    (0.05, 0.5, 0),
    (7.0, 2.0, 0),
    (1.3, 4.0, 0),
    (0.4, 1.0, 1),
    (2.5, 5.5, 1),
    (1.0, 0.3, 2),
    (0.2, 3.5, 2),
    (0.7, 30.0 - 8.0 * math.pi, 4),
]
CUBIC_C = {(2, 0): 1.3, (1, 1): -0.7, (0, 2): 0.4, (3, 0): 0.9, (2, 1): -1.1, (1, 2): 0.6, (0, 3): -0.5}


def _curve_stage(omega, theta, k, eps):
    """The critical cubic stage (eps None) or the perturbed one at eps."""
    model = hopf_curve_model(omega, theta, k, CUBIC_C)
    eig = build_eigendata(model.lin, verify_hopf(model.lin, omega))
    if eps is not None:
        return perturbed_stage(model, eig, eps)
    return third_order_rhs(model, eig, second_order(model, eig))


class TestCubicStage:
    def test_stores_nothing_second_order_owns(self):
        # lam, r and f21 live on SecondOrder alone, so a stage cannot pair one
        # eigenvalue's data with another's
        assert not set(CubicStage._fields) & {f.name for f in dataclasses.fields(SecondOrder)}

    @pytest.mark.parametrize("eps", [None, 1e-2, 1e-4])
    @pytest.mark.parametrize("omega,theta,k", CURVE_POINTS)
    def test_scalar_forms_match_exppoly_route(self, omega, theta, k, eps):
        # near a zero eigenvalue (small theta) both routes cancel the same
        # large terms, so agreement is measured against the size of what is
        # summed, not against the (much smaller) result
        st = _curve_stage(omega, theta, k, eps)
        ref = exppoly_stage(st)
        got = {
            "i": (st.i20, st.i11, st.i02),
            "pairings": st.pairings(),
            "R1": (st.R1,),
            "R2": (st.R2,),
            "h1": (st.h()[0],),
        }
        for key, values in got.items():
            want = ref[key] if isinstance(ref[key], list) else [ref[key]]
            for value, (expected, scale) in zip(values, want, strict=True):
                assert abs(value - expected) <= 1e-13 * scale, (key, value, expected, scale)

    def test_moment_branches_all_reached(self, monkeypatch):
        # exact polynomial, power series and closed form (|rate| r <= 1e-12,
        # <= 0.5, above), as exppoly.moment chooses them on [-r, 0]
        sizes = []

        def recording(rate, k, a, b):
            sizes.append(abs(rate) * (b - a))
            return moment(rate, k, a, b)

        monkeypatch.setattr(cmcore, "moment", recording)
        for omega, theta, k in CURVE_POINTS:
            for eps in (None, 1e-2):
                _curve_stage(omega, theta, k, eps).h()
        assert min(sizes) <= 1e-12
        assert any(1e-12 < x <= 0.5 for x in sizes)
        assert max(sizes) > 0.5

    @pytest.mark.parametrize("omega,theta,k", [(1.0, math.pi / 2, 0), (1.3, 4.0, 0), (0.4, 1.0, 1)])
    def test_h_ratio_tends_to_critical_w21(self, omega, theta, k):
        w21_0 = cmcore.w21_at_zero(_curve_stage(omega, theta, k, None))
        gaps = []
        for eps in (1e-2, 1e-3, 1e-4, 1e-5):
            h1, h2 = _curve_stage(omega, theta, k, eps).h()
            gaps.append(abs(h1 / h2 - w21_0))
        # first order in eps: each tenfold step shrinks the gap about tenfold
        assert all(5.0 * g2 <= g1 <= 20.0 * g2 for g1, g2 in zip(gaps, gaps[1:])), gaps


class TestThirdOrderBundle:
    def test_bundle_consistency(self, bench_model_c1, bench_lin, bench_eig):
        so = second_order(bench_model_c1, bench_eig)
        third = third_order(bench_model_c1, bench_eig, so)
        assert third.w21_0 == pytest.approx(W21_0_C1, abs=_FROZEN_TOL)
        assert third.w21_mr == pytest.approx(W21_MR_C1, abs=_FROZEN_TOL)
        assert abs(third.stage.Delta) <= 1e-12
        assert third.stage.degeneracy().BR1_minus_R2 <= 1e-10
        assert abs(third.w21.eval(0.0) - third.w21_0) <= 1e-12


class TestModelSpec:
    def test_invalid_key_rejected(self, bench_lin):
        with pytest.raises(ValueError):
            ModelSpec(bench_lin, {(1, 0): 1.0})
        with pytest.raises(ValueError):
            ModelSpec(bench_lin, {(4, 0): 1.0})

    def test_zero_entries_dropped(self, bench_lin):
        m = ModelSpec(bench_lin, {(2, 0): 0.0, (1, 1): 1.0})
        assert (2, 0) not in m.C
        assert m.c(2, 0) == 0.0 and m.c(1, 1) == 1.0
