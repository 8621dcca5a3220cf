"""Perturbation oracle: family construction, perturbed coefficients, the
h-decomposition, and extrapolation back to criticality."""

import cmath
import math

import pytest

from ddecm.chareq import LinearPart
from ddecm.cmcore import ModelSpec, second_order, third_order_rhs, w21_at_zero
from ddecm.errors import DegenerateSystemError, InconsistentFamilyError
from ddecm.exppoly import ExpPoly
from ddecm.perturb import (
    DEFAULT_EPS_GRID,
    extrapolate_w21,
    h_decomposition,
    make_perturbed,
    perturbed_coeffs,
    perturbed_eigenfunctions,
    perturbed_rhs,
    regularized_kernels,
    solve_perturbed_w21,
    w21_estimate,
)
from ddecm.spectral import bilinear

from conftest import R2_OMEGA
from test_cmcore import W21_0_C1


class TestMakePerturbed:
    def test_benchmark_point_one(self, bench_lin):
        # cos(w r) = 0, so A_eps = mu_eps = (2/pi) ln(1.1)
        p = make_perturbed(bench_lin, R2_OMEGA, 0.1)
        assert p.B_eps == pytest.approx(-1.1, abs=1e-15)
        assert p.mu_eps == pytest.approx(2.0 / math.pi * math.log(1.1), abs=1e-14)
        assert p.A_eps == pytest.approx(p.mu_eps, abs=1e-14)
        assert p.char_residual <= 1e-12

    def test_limits_at_vanishing_eps(self, bench_lin):
        prev_mu = None
        for eps in (1e-2, 1e-3, 1e-4, 1e-5):
            p = make_perturbed(bench_lin, R2_OMEGA, eps)
            assert p.mu_eps > 0
            assert abs(p.A_eps - bench_lin.A) <= 2 * eps
            assert abs(p.B_eps - bench_lin.B) <= 2 * eps
            if prev_mu is not None:
                assert p.mu_eps < prev_mu
            prev_mu = p.mu_eps

    def test_no_coupling_fails(self):
        with pytest.raises(InconsistentFamilyError):
            make_perturbed(LinearPart(0.0, 0.0, 1.0), 1.0, 0.1)

    def test_negative_eps_rejected(self, bench_lin):
        with pytest.raises(ValueError):
            make_perturbed(bench_lin, R2_OMEGA, -0.1)

    def test_shrinking_family_fails(self, bench_lin):
        # b_factor < 1 would push the pair into the stable half-plane
        with pytest.raises(InconsistentFamilyError):
            make_perturbed(bench_lin, R2_OMEGA, 0.1, b_factor=lambda e: 1.0 - e)


class TestPerturbedSpectral:
    @pytest.mark.parametrize("eps", [0.2, 1e-2, 1e-3])
    def test_biorthogonality(self, bench_lin, eps):
        p = make_perturbed(bench_lin, R2_OMEGA, eps)
        phi1, phi2, Psi1, Psi2 = perturbed_eigenfunctions(p)
        for i, Psi in ((1, Psi1), (2, Psi2)):
            for j, phi in ((1, phi1), (2, phi2)):
                got = bilinear(Psi, phi, p.lin)
                assert abs(got - (1.0 if i == j else 0.0)) <= 1e-12

    def test_normalization_limit(self, bench_lin, bench_eig, bench_model_c1):
        p = make_perturbed(bench_lin, R2_OMEGA, 1e-8)
        pc = perturbed_coeffs(bench_model_c1, p)
        assert abs(pc.Psi_eps1_at_0 - bench_eig.Psi1_at_0) <= 1e-6


class TestPerturbedCoeffs:
    def test_trivial_model(self, bench_lin):
        model = ModelSpec(bench_lin, {})
        p = make_perturbed(bench_lin, R2_OMEGA, 1e-2)
        pc = perturbed_coeffs(model, p)
        assert pc.f21 == pc.g21 == 0
        assert pc.so.w20.is_zero() and pc.so.w11.is_zero()

    def test_continuity_in_eps(self, bench_model_c1, bench_eig):
        so0 = second_order(bench_model_c1, bench_eig)
        p = make_perturbed(bench_model_c1.lin, R2_OMEGA, 1e-3)
        pc = perturbed_coeffs(bench_model_c1, p)
        assert abs(pc.so.g11 - so0.g11) <= 0.01

    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    def test_profiles_orthogonal_to_adjoint(self, bench_model_c1, eps):
        p = make_perturbed(bench_model_c1.lin, R2_OMEGA, eps)
        pc = perturbed_coeffs(bench_model_c1, p)
        r = p.r
        psi1 = ExpPoly.monomial(1.0, -p.lambda_eps, 0, (0.0, r))
        psi2 = psi1.conjugate()
        for prof in (pc.so.w20, pc.so.w11, pc.so.w02):
            assert abs(bilinear(psi1, prof, p.lin)) <= 1e-10
            assert abs(bilinear(psi2, prof, p.lin)) <= 1e-10

    def test_profile_ode_residuals(self, bench_model_c1):
        p = make_perturbed(bench_model_c1.lin, R2_OMEGA, 1e-2)
        pc = perturbed_coeffs(bench_model_c1, p)
        so = pc.so
        lam = p.lambda_eps
        dom = (-p.r, 0.0)
        gb11, gb02 = so.g11.conjugate(), so.g02.conjugate()
        for prof, rate, gp, gm in (
            (so.w20, 2 * lam, so.g20, gb02),
            (so.w11, 2 * p.mu_eps, so.g11, gb11),
        ):
            forcing = ExpPoly.monomial(gp, lam, 0, dom) + ExpPoly.monomial(
                gm, lam.conjugate(), 0, dom
            )
            residual = prof.derivative() - prof.scale(rate) - forcing
            assert residual.max_coeff() <= 1e-12 * (1 + prof.max_coeff() + forcing.max_coeff())


class TestRegularizedKernels:
    def test_eigenfunction_minus_kernel_identity(self, bench_lin):
        # phi_eps1(s) - e^{nu s} = mu * rho_eps(s) pointwise
        p = make_perturbed(bench_lin, R2_OMEGA, 1e-2)
        lam = p.lambda_eps
        nu = 2 * lam + lam.conjugate()
        rho, _ = regularized_kernels(p)
        for k in range(9):
            s = -p.r + k * p.r / 8
            lhs = cmath.exp(lam * s) - cmath.exp(nu * s)
            rhs = p.mu_eps * rho.eval(s)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))

    def test_limit_is_resonant_kernel(self, bench_lin):
        p = make_perturbed(bench_lin, R2_OMEGA, 1e-9)
        rho, rho_t = regularized_kernels(p)
        for k in range(5):
            s = -p.r + k * p.r / 4
            want = -2 * s * cmath.exp(1j * R2_OMEGA * s)
            assert abs(rho.eval(s) - want) <= 1e-6 * (1 + abs(want))
            z = -s
            want_t = -2 * z * cmath.exp(-1j * R2_OMEGA * z)
            assert abs(rho_t.eval(z) - want_t) <= 1e-6 * (1 + abs(want_t))


class TestHDecomposition:
    def test_determinant_factorization(self, bench_model_c1):
        for eps in DEFAULT_EPS_GRID:
            p = make_perturbed(bench_model_c1.lin, R2_OMEGA, eps)
            pc = perturbed_coeffs(bench_model_c1, p)
            h1, h2 = h_decomposition(bench_model_c1, p, pc)
            assert abs(pc.Delta_eps - p.mu_eps * h2) <= 1e-13 * abs(pc.Delta_eps)
            assert abs(pc.Delta_eps) > 0

    def test_stable_form_matches_raw_determinant(self, bench_model_c1):
        p = make_perturbed(bench_model_c1.lin, R2_OMEGA, 1e-2)
        pc = perturbed_coeffs(bench_model_c1, p)
        lam = p.lambda_eps
        nu = 2 * lam + lam.conjugate()
        raw = -p.B_eps * cmath.exp(-nu * p.r) - p.A_eps + nu
        assert abs(pc.Delta_eps - raw) <= 1e-12

    def test_numerator_factorization(self, bench_model_c1):
        for eps in (1e-2, 1e-3):
            p = make_perturbed(bench_model_c1.lin, R2_OMEGA, eps)
            pc = perturbed_coeffs(bench_model_c1, p)
            R1, R2 = perturbed_rhs(bench_model_c1, p, pc)
            h1, _ = h_decomposition(bench_model_c1, p, pc)
            lhs = p.B_eps * R1 - R2
            assert abs(lhs - p.mu_eps * h1) <= 1e-10 * (1.0 + abs(R2))

    def test_h2_limit(self, bench_model_c1, bench_lin):
        lin = bench_lin
        limit = 2 * lin.r * R2_OMEGA * 1j - 2 * lin.r * lin.A + 2.0
        prev = None
        for eps in DEFAULT_EPS_GRID:
            p = make_perturbed(lin, R2_OMEGA, eps)
            pc = perturbed_coeffs(bench_model_c1, p)
            _, h2 = h_decomposition(bench_model_c1, p, pc)
            gap = abs(h2 - limit)
            if prev is not None:
                assert gap < prev
            prev = gap
        assert prev < 0.05


class TestSolve:
    def test_nonzero_determinant_on_range(self, bench_model_c1):
        for eps in (0.2, 0.1, 0.05, 0.01, 1e-3):
            p = make_perturbed(bench_model_c1.lin, R2_OMEGA, eps)
            pc = perturbed_coeffs(bench_model_c1, p)
            assert abs(pc.Delta_eps) > 0

    def test_close_to_limit_at_small_eps(self, bench_model_c1):
        # converges O(eps) to the limit value: the gap is 6.1e-3 at eps = 1e-2
        # and 6.2e-4 at eps = 1e-3
        for eps, bound in ((1e-2, 1e-2), (1e-3, 1e-3)):
            p = make_perturbed(bench_model_c1.lin, R2_OMEGA, eps)
            pc = perturbed_coeffs(bench_model_c1, p)
            w0, _ = solve_perturbed_w21(bench_model_c1, p, pc)
            assert abs(w0 - W21_0_C1) <= bound

    def test_trivial_model(self, bench_lin):
        model = ModelSpec(bench_lin, {})
        p = make_perturbed(bench_lin, R2_OMEGA, 1e-2)
        pc = perturbed_coeffs(model, p)
        assert solve_perturbed_w21(model, p, pc) == (0j, 0j)

    def test_direct_solve_guard(self, bench_model_c1):
        p = make_perturbed(bench_model_c1.lin, R2_OMEGA, 1e-15)
        pc = perturbed_coeffs(bench_model_c1, p)
        with pytest.raises(DegenerateSystemError):
            solve_perturbed_w21(bench_model_c1, p, pc)

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
    def test_two_computation_paths_agree(self, bench_model_c1, eps):
        p = make_perturbed(bench_model_c1.lin, R2_OMEGA, eps)
        pc = perturbed_coeffs(bench_model_c1, p)
        direct, _ = solve_perturbed_w21(bench_model_c1, p, pc)
        h1, h2 = h_decomposition(bench_model_c1, p, pc)
        assert abs(direct - h1 / h2) <= 1e-9 * abs(direct)

    def test_h_form_used_near_criticality(self, bench_model_c1, bench_eig):
        so = second_order(bench_model_c1, bench_eig)
        closed = w21_at_zero(
            bench_model_c1, bench_eig, so, third_order_rhs(bench_model_c1, bench_eig, so).f21
        )
        p = make_perturbed(bench_model_c1.lin, R2_OMEGA, 1e-9)
        pc = perturbed_coeffs(bench_model_c1, p)
        assert abs(pc.Delta_eps) < 1e-8  # direct solve would be hopeless
        est = w21_estimate(bench_model_c1, p, pc)
        assert abs(est - closed) <= 1e-6


class TestExtrapolation:
    def test_benchmark_gap(self, bench_model_c1, bench_eig):
        res = extrapolate_w21(bench_model_c1, bench_eig)
        assert res.gap_to_closed_form <= 1e-6

    def test_random_models_gap(self, rng):
        from ddecm.chareq import verify_hopf
        from ddecm.spectral import build_eigendata
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
        res_default = extrapolate_w21(bench_model_c1, bench_eig)
        res_alt = extrapolate_w21(
            bench_model_c1, bench_eig, b_factor=lambda e: (1.0 + e) ** 2
        )
        assert abs(res_default.extrapolated - res_alt.extrapolated) <= 1e-6

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
