"""Perturbation oracle: family construction, perturbed coefficients, the
h-decomposition, and extrapolation back to criticality."""

import cmath
import math

import pytest

from ddecm.chareq import LinearPart, char_value, find_critical_frequency, verify_hopf
from ddecm.cmcore import ModelSpec, second_order, third_order_rhs, w21_at_zero
from ddecm.errors import InconsistentFamilyError
from ddecm.exppoly import ExpPoly
from ddecm.perturb import (
    DEFAULT_EPS_GRID,
    _neville_at_zero,
    extrapolate_w21,
    perturbed_stage,
    w21_estimate,
)
from ddecm.reduction import analyze_model
from ddecm.spectral import bilinear, build_eigendata

from conftest import HOPF_FAMILY, R2_OMEGA, hopf_curve_model, perturbed_eigenfunctions, regularized_kernels
from test_cmcore import W21_0_C1


def cramer_solve(st):
    """w_eps21(0) and w_eps21(-r) by Cramer's rule on the nonsingular
    perturbed system of a ``CubicStage``."""
    w0 = (st.B * st.R1 - st.R2) / st.Delta
    return w0, st.R1 + cmath.exp(-(2 * st.so.lam + st.so.lam.conjugate()) * st.so.r) * w0


def alternate_family(model, eig, grid):
    """The extrapolation over ``grid`` of the family B_eps = (1 + eps)^2 B: at
    fixed omega it is the default family at eps' = (1 + eps)^2 - 1, so the
    same curve of problems, extrapolated in another parameter."""
    res = extrapolate_w21(model, eig, [(1.0 + e) ** 2 - 1.0 for e in grid])
    return _neville_at_zero(grid, res.estimates)


class TestMakePerturbed:
    def test_benchmark_point_one(self, bench_lin, bench_eig):
        # cos(w r) = 0, so A_eps = mu_eps = (2/pi) ln(1.1)
        st = perturbed_stage(ModelSpec(bench_lin, {}), bench_eig, 0.1)
        assert st.B == pytest.approx(-1.1, abs=1e-15)
        assert st.so.lam.real == pytest.approx(2.0 / math.pi * math.log(1.1), abs=1e-14)
        assert st.A == pytest.approx(st.so.lam.real, abs=1e-14)
        assert abs(char_value(LinearPart(st.A, st.B, st.so.r), st.so.lam)) <= 1e-12

    def test_limits_at_vanishing_eps(self, bench_lin, bench_eig):
        prev_mu = None
        for eps in (1e-2, 1e-3, 1e-4, 1e-5):
            st = perturbed_stage(ModelSpec(bench_lin, {}), bench_eig, eps)
            assert st.so.lam.real > 0
            assert abs(st.A - bench_lin.A) <= 2 * eps
            assert abs(st.B - bench_lin.B) <= 2 * eps
            if prev_mu is not None:
                assert st.so.lam.real < prev_mu
            prev_mu = st.so.lam.real

    def test_negative_eps_rejected(self, bench_lin, bench_eig):
        with pytest.raises(ValueError):
            perturbed_stage(ModelSpec(bench_lin, {}), bench_eig, -0.1)
        # B (1 + eps) == B is no family member; it once blamed the family,
        # with InconsistentFamilyError (exit 2)
        with pytest.raises(ValueError, match="eps = 1e-16 is below the float resolution"):
            perturbed_stage(ModelSpec(bench_lin, {}), bench_eig, 1e-16)

    def test_shrinking_family_fails(self):
        # |F(i)| = 5e-9 passes a Hopf check at tol 1e-8, but at eps = 1e-9 the
        # family still has exp(mu r) = -B_eps sin(w r)/w < 1: the pair is stable
        lin = LinearPart(0.0, -(1.0 - 5e-9), math.pi / 2)
        eig = build_eigendata(lin, verify_hopf(lin, 1.0, tol=1e-8))
        with pytest.raises(InconsistentFamilyError, match="mu_eps <= 0"):
            perturbed_stage(ModelSpec(lin, {}), eig, 1e-9)


    @pytest.mark.parametrize("model", HOPF_FAMILY)
    def test_family_member_is_a_root_by_construction(self, model):
        # the two checks perturbed_stage no longer makes: the verified point
        # satisfies -B sin(w r)/w = 1, and lam_eps solves F_eps to rounding
        lin = model.lin
        hopf = find_critical_frequency(lin)
        w, r = hopf.omega, lin.r
        assert abs(-lin.B * math.sin(w * r) / w - 1.0) <= 1e-8
        eig = build_eigendata(lin, hopf)
        for eps in DEFAULT_EPS_GRID:
            st = perturbed_stage(model, eig, eps)
            lam = st.so.lam
            residual = abs(char_value(LinearPart(st.A, st.B, r), lam))
            assert residual <= 1e-12 * (abs(lam) + abs(st.A) + abs(st.B))

    @pytest.mark.parametrize("omega,theta,k", [
        (1e3, 3.1, 0), (1e3, 3.2, 1), (1e4, 0.5, 0), (1e4, 3.6, 1), (1e4, 5.0, 2),
    ])
    def test_characteristic_check_in_the_problem_scale(self, omega, theta, k):
        # exact Hopf points at large omega, each of which the closed form accepts;
        # |F(lambda_eps)| rounds to 1.8e-12 .. 4.1e-12 there, which an absolute
        # bound of 1e-12 refused as an inconsistent family
        C = {(2, 0): 0.7, (1, 1): -0.4, (0, 2): 0.3, (3, 0): -0.6, (2, 1): 0.5, (1, 2): -0.2, (0, 3): 0.1}
        model = hopf_curve_model(omega, theta, k, {key: c * omega if sum(key) == 3 else c for key, c in C.items()})
        closed = analyze_model(model, eps_grid=None)
        rep = analyze_model(model, eps_grid=DEFAULT_EPS_GRID)
        assert rep.third.w21_0 == closed.third.w21_0
        assert rep.oracle.gap_to_closed_form <= 1e-9 * abs(rep.third.w21_0)


class TestPerturbedSpectral:
    @pytest.mark.parametrize("eps", [0.2, 1e-2, 1e-3])
    def test_biorthogonality(self, bench_lin, eps, bench_eig):
        st = perturbed_stage(ModelSpec(bench_lin, {}), bench_eig, eps)
        phi1, phi2, Psi1, Psi2 = perturbed_eigenfunctions(st)
        for i, Psi in ((1, Psi1), (2, Psi2)):
            for j, phi in ((1, phi1), (2, phi2)):
                got = bilinear(Psi, phi, LinearPart(st.A, st.B, st.so.r))
                assert abs(got - (1.0 if i == j else 0.0)) <= 1e-12

    def test_normalization_limit(self, bench_lin, bench_eig, bench_model_c1):
        pc = perturbed_stage(bench_model_c1, bench_eig, 1e-8)
        assert abs(pc.psi0 - bench_eig.Psi1_at_0) <= 1e-6


class TestPerturbedCoeffs:
    def test_trivial_model(self, bench_lin, bench_eig):
        pc = perturbed_stage(ModelSpec(bench_lin, {}), bench_eig, 1e-2)
        assert pc.so.f21 == pc.g21 == 0
        assert pc.so.w20.is_zero() and pc.so.w11.is_zero()

    def test_continuity_in_eps(self, bench_model_c1, bench_eig):
        so0 = second_order(bench_model_c1, bench_eig)
        pc = perturbed_stage(bench_model_c1, bench_eig, 1e-3)
        assert abs(pc.so.g11 - so0.g11) <= 0.01

    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    def test_profiles_orthogonal_to_adjoint(self, bench_model_c1, eps, bench_eig):
        pc = perturbed_stage(bench_model_c1, bench_eig, eps)
        lin = LinearPart(pc.A, pc.B, pc.so.r)
        psi1 = ExpPoly.monomial(1.0, -pc.so.lam, 0, (0.0, pc.so.r))
        psi2 = psi1.conjugate()
        for prof in (pc.so.w20, pc.so.w11, pc.so.w02):
            assert abs(bilinear(psi1, prof, lin)) <= 1e-10
            assert abs(bilinear(psi2, prof, lin)) <= 1e-10

    def test_profile_ode_residuals(self, bench_model_c1, bench_eig):
        pc = perturbed_stage(bench_model_c1, bench_eig, 1e-2)
        so = pc.so
        lam = pc.so.lam
        dom = (-pc.so.r, 0.0)
        gb11, gb02 = so.g11.conjugate(), so.g02.conjugate()
        for prof, rate, gp, gm in (
            (so.w20, 2 * lam, so.g20, gb02),
            (so.w11, 2 * lam.real, so.g11, gb11),
        ):
            forcing = ExpPoly.monomial(gp, lam, 0, dom) + ExpPoly.monomial(
                gm, lam.conjugate(), 0, dom
            )
            residual = prof.derivative() - prof.scale(rate) - forcing
            assert residual.max_coeff() <= 1e-12 * (1 + prof.max_coeff() + forcing.max_coeff())


class TestRegularizedKernels:
    def test_eigenfunction_minus_kernel_identity(self, bench_lin, bench_eig):
        # phi_eps1(s) - e^{nu s} = mu * rho_eps(s) pointwise
        st = perturbed_stage(ModelSpec(bench_lin, {}), bench_eig, 1e-2)
        lam = st.so.lam
        nu = 2 * lam + lam.conjugate()
        rho, _ = regularized_kernels(st)
        for k in range(9):
            s = -st.so.r + k * st.so.r / 8
            lhs = cmath.exp(lam * s) - cmath.exp(nu * s)
            rhs = lam.real * rho.eval(s)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))

    def test_limit_is_resonant_kernel(self, bench_lin, bench_eig):
        st = perturbed_stage(ModelSpec(bench_lin, {}), bench_eig, 1e-9)
        rho, rho_t = regularized_kernels(st)
        for k in range(5):
            s = -st.so.r + k * st.so.r / 4
            want = -2 * s * cmath.exp(1j * R2_OMEGA * s)
            assert abs(rho.eval(s) - want) <= 1e-6 * (1 + abs(want))
            z = -s
            want_t = -2 * z * cmath.exp(-1j * R2_OMEGA * z)
            assert abs(rho_t.eval(z) - want_t) <= 1e-6 * (1 + abs(want_t))


class TestHDecomposition:
    def test_determinant_factorization(self, bench_model_c1, bench_eig):
        for eps in DEFAULT_EPS_GRID:
            pc = perturbed_stage(bench_model_c1, bench_eig, eps)
            h1, h2 = pc.h()
            assert abs(pc.Delta - pc.so.lam.real * h2) <= 1e-13 * abs(pc.Delta)
            assert abs(pc.Delta) > 0

    def test_stable_form_matches_raw_determinant(self, bench_model_c1, bench_eig):
        pc = perturbed_stage(bench_model_c1, bench_eig, 1e-2)
        lam = pc.so.lam
        nu = 2 * lam + lam.conjugate()
        raw = -pc.B * cmath.exp(-nu * pc.so.r) - pc.A + nu
        assert abs(pc.Delta - raw) <= 1e-12

    def test_numerator_factorization(self, bench_model_c1, bench_eig):
        for eps in (1e-2, 1e-3):
            pc = perturbed_stage(bench_model_c1, bench_eig, eps)
            R1, R2 = pc.R1, pc.R2
            h1, _ = pc.h()
            lhs = pc.B * R1 - R2
            assert abs(lhs - pc.so.lam.real * h1) <= 1e-10 * (1.0 + abs(R2))

    def test_h2_limit(self, bench_model_c1, bench_lin, bench_eig):
        lin = bench_lin
        limit = 2 * lin.r * R2_OMEGA * 1j - 2 * lin.r * lin.A + 2.0
        prev = None
        for eps in DEFAULT_EPS_GRID:
            pc = perturbed_stage(bench_model_c1, bench_eig, eps)
            _, h2 = pc.h()
            gap = abs(h2 - limit)
            if prev is not None:
                assert gap < prev
            prev = gap
        assert prev < 0.05


class TestSolve:
    def test_nonzero_determinant_on_range(self, bench_model_c1, bench_eig):
        for eps in (0.2, 0.1, 0.05, 0.01, 1e-3):
            pc = perturbed_stage(bench_model_c1, bench_eig, eps)
            assert abs(pc.Delta) > 0

    def test_close_to_limit_at_small_eps(self, bench_model_c1, bench_eig):
        # converges O(eps) to the limit value: the gap is 6.1e-3 at eps = 1e-2
        # and 6.2e-4 at eps = 1e-3
        for eps, bound in ((1e-2, 1e-2), (1e-3, 1e-3)):
            pc = perturbed_stage(bench_model_c1, bench_eig, eps)
            w0, _ = cramer_solve(pc)
            assert abs(w0 - W21_0_C1) <= bound

    def test_trivial_model(self, bench_lin, bench_eig):
        pc = perturbed_stage(ModelSpec(bench_lin, {}), bench_eig, 1e-2)
        assert cramer_solve(pc) == (0j, 0j)

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
    def test_two_computation_paths_agree(self, bench_model_c1, eps, bench_eig):
        pc = perturbed_stage(bench_model_c1, bench_eig, eps)
        direct, _ = cramer_solve(pc)
        h1, h2 = pc.h()
        assert abs(direct - h1 / h2) <= 1e-9 * abs(direct)

    def test_h_form_used_near_criticality(self, bench_model_c1, bench_eig):
        so = second_order(bench_model_c1, bench_eig)
        closed = w21_at_zero(third_order_rhs(bench_model_c1, bench_eig, so))
        pc = perturbed_stage(bench_model_c1, bench_eig, 1e-9)
        assert abs(pc.Delta) < 1e-8  # direct solve would be hopeless
        est = w21_estimate(pc)
        assert abs(est - closed) <= 1e-6


class TestExtrapolation:
    def test_benchmark_gap(self, bench_model_c1, bench_eig):
        res = extrapolate_w21(bench_model_c1, bench_eig)
        assert res.gap_to_closed_form <= 1e-6

    def test_random_models_gap(self, rng):
        from conftest import random_hopf_model

        for _ in range(20):
            model = random_hopf_model(rng)
            eig = build_eigendata(model.lin, verify_hopf(model.lin, model.omega_hint))
            res = extrapolate_w21(model, eig)
            assert res.gap_to_closed_form <= 1e-6

    def test_trivial_model(self, bench_lin, bench_eig):
        res = extrapolate_w21(ModelSpec(bench_lin, {}), bench_eig)
        assert res.extrapolated == 0 and res.gap_to_closed_form == 0

    def test_first_order_convergence(self, bench_model_c1, bench_eig):
        res = extrapolate_w21(bench_model_c1, bench_eig)
        gaps = [abs(e - res.extrapolated) for e in res.estimates]
        # grid ratio 2: consecutive gap ratios near 2 for an O(eps) error
        orders = [math.log2(g1 / g2) for g1, g2 in zip(gaps, gaps[1:])]
        assert all(o >= 0.9 for o in orders)

    def test_family_independence(self, bench_model_c1, bench_eig):
        # any scaling of B traces the same curve: the limit must not depend on
        # how that curve is parametrized
        res_default = extrapolate_w21(bench_model_c1, bench_eig)
        res_alt = alternate_family(bench_model_c1, bench_eig, DEFAULT_EPS_GRID)
        assert abs(res_default.extrapolated - res_alt) <= 1e-6

    def test_grid_validation(self, bench_model_c1, bench_eig):
        with pytest.raises(ValueError):
            extrapolate_w21(bench_model_c1, bench_eig, (1e-2, 5e-3))
        with pytest.raises(ValueError):
            extrapolate_w21(bench_model_c1, bench_eig, (1e-2, -5e-3, 1e-3))
        with pytest.raises(ValueError):
            extrapolate_w21(bench_model_c1, bench_eig, (1e-3, 5e-3, 1e-2))

    def test_nan_grid_entry_rejected(self, bench_model_c1, bench_eig):
        with pytest.raises(ValueError, match="positive"):
            extrapolate_w21(bench_model_c1, bench_eig, (1e-2, math.nan, 1e-3))

    def test_entry_too_large_for_float_rejected(self, bench_model_c1, bench_eig):
        with pytest.raises(ValueError, match="fit in a float"):
            extrapolate_w21(bench_model_c1, bench_eig, (10**400, 1e-2, 1e-3))
        with pytest.raises(ValueError, match="finite"):
            extrapolate_w21(bench_model_c1, bench_eig, (math.inf, 1e-2, 1e-3))
