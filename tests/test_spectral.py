"""Bilinear pairing and eigendata normalization."""

import cmath
import math
import random

import pytest

from ddecm.chareq import find_critical_frequency, verify_hopf
from ddecm.errors import DegenerateSystemError, DomainMismatchError
from ddecm.exppoly import ExpPoly
from ddecm.spectral import bilinear, build_eigendata

from conftest import HOPF_FAMILY, bilinear_quad, eigenfunctions, hopf_curve_model, random_hopf_model


class TestBilinear:
    def test_e11_closed_form_benchmark(self, bench_lin, bench_ef):
        # <psi1, phi1> = 1 - (A - i w) r = 1 + i pi/2 at A=0, w=1, r=pi/2
        val = bilinear(bench_ef.psi1, bench_ef.phi1, bench_lin)
        assert val == pytest.approx(1.0 + 1j * math.pi / 2, abs=1e-14)

    def test_cross_pairing_vanishes(self, bench_lin, bench_ef):
        val = bilinear(bench_ef.psi1, bench_ef.phi2, bench_lin)
        assert abs(val) <= 1e-14

    def test_e11_closed_form_random(self, rng):
        for _ in range(10):
            model = random_hopf_model(rng)
            lin = model.lin
            hopf = verify_hopf(lin, model.omega_hint)
            eig = build_eigendata(lin, hopf)
            want = 1.0 - (lin.A - 1j * hopf.omega) * lin.r
            assert abs(eig.e11 - want) <= 1e-12 * (1 + abs(want))
            assert abs(eig.e22 - eig.e11.conjugate()) <= 1e-14 * (1 + abs(eig.e11))

    def test_bilinearity(self, bench_lin, bench_eig, rng):
        r = bench_lin.r
        psi = bench_eig.Psi1
        phi_a = ExpPoly.monomial(complex(0.4, -0.2), 0.7j, 1, (-r, 0.0))
        phi_b = ExpPoly.monomial(complex(-1.1, 0.3), -0.4j, 0, (-r, 0.0))
        for _ in range(20):
            alpha = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            lhs = bilinear(psi, phi_a.scale(alpha) + phi_b, bench_lin)
            rhs = alpha * bilinear(psi, phi_a, bench_lin) + bilinear(psi, phi_b, bench_lin)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))
            # first slot
            Psi2 = bench_eig.Psi1.conjugate()
            lhs2 = bilinear(psi.scale(alpha) + Psi2, phi_a, bench_lin)
            rhs2 = alpha * bilinear(psi, phi_a, bench_lin) + bilinear(Psi2, phi_a, bench_lin)
            assert abs(lhs2 - rhs2) <= 1e-12 * (1 + abs(rhs2))

    def test_against_quadrature(self, bench_lin, bench_eig):
        r = bench_lin.r
        phi = ExpPoly.monomial(complex(1.2, -0.7), complex(0.3, 0.9), 1, (-r, 0.0))
        exact = bilinear(bench_eig.Psi1, phi, bench_lin)
        quad = bilinear_quad(bench_eig.Psi1, phi, bench_lin)
        assert abs(exact - quad) <= 1e-10 * (1 + abs(exact))

    def test_domain_mismatch(self, bench_lin, bench_ef):
        bad = ExpPoly.monomial(1.0, 0.0, 0, (0.0, bench_lin.r))
        with pytest.raises(DomainMismatchError):
            bilinear(bench_ef.psi1, bad, bench_lin)
        with pytest.raises(DomainMismatchError):
            bilinear(bad.shift_argument(bench_lin.r), bench_ef.phi1, bench_lin)

    def test_eigenfunction_coordinates(self, bench_lin, bench_eig, bench_ef):
        # the coordinates (<Psi1, phi>, <Psi2, phi>) of phi on the critical plane
        for j, phi in ((1, bench_ef.phi1), (2, bench_ef.phi2)):
            for i, Psi in ((1, bench_eig.Psi1), (2, bench_eig.Psi1.conjugate())):
                assert abs(bilinear(Psi, phi, bench_lin) - (1.0 if i == j else 0.0)) <= 1e-13

    def test_zero_function(self, bench_lin, bench_eig):
        zero = ExpPoly.zero((-bench_lin.r, 0.0))
        assert bilinear(bench_eig.Psi1, zero, bench_lin) == 0
        assert bilinear(bench_eig.Psi1.conjugate(), zero, bench_lin) == 0

    def test_conjugate_symmetric_input(self, bench_lin, bench_eig):
        r = bench_lin.r
        phi = ExpPoly.monomial(0.3, 1.7j, 0, (-r, 0.0))
        phi = phi + phi.conjugate()  # real-valued function
        u, ub = bilinear(bench_eig.Psi1, phi, bench_lin), bilinear(bench_eig.Psi1.conjugate(), phi, bench_lin)
        assert abs(ub - u.conjugate()) <= 1e-13


class TestBuildEigendata:
    def test_normalization_constant(self, bench_eig):
        want = (1.0 - 1j * math.pi / 2) / (1.0 + math.pi**2 / 4)
        assert bench_eig.Psi1_at_0 == pytest.approx(want, abs=1e-14)

    def test_biorthogonality(self, bench_lin, bench_eig, bench_ef):
        for i, Psi in ((1, bench_eig.Psi1), (2, bench_eig.Psi1.conjugate())):
            for j, phi in ((1, bench_ef.phi1), (2, bench_ef.phi2)):
                got = bilinear(Psi, phi, bench_lin)
                assert abs(got - (1.0 if i == j else 0.0)) <= 1e-12

    def test_psi2_is_conjugate(self, bench_lin, bench_eig, bench_ef):
        # the conjugate pair needs no fields of its own: Psi2 = conj(Psi1) pairs
        # phi2 = conj(phi1) to e22 / e22 = 1, and e22 = conj(e11)
        assert bench_eig.e22 == bench_eig.e11.conjugate()
        Psi2 = bench_eig.Psi1.conjugate()
        assert bilinear(Psi2, bench_ef.phi2, bench_lin) == bilinear(bench_eig.Psi1, bench_ef.phi1, bench_lin).conjugate()

    @pytest.mark.parametrize("model", HOPF_FAMILY)
    def test_scalar_pairings_equal_bilinear(self, model):
        lin = model.lin
        eig = build_eigendata(lin, find_critical_frequency(lin))
        ef = eigenfunctions(eig.omega, lin.r)
        e11 = bilinear(ef.psi1, ef.phi1, lin)
        assert eig.e11 == e11
        assert eig.e22 == bilinear(ef.psi2, ef.phi2, lin)
        assert eig.Psi1 == ef.psi1.scale(1.0 / e11)
        assert eig.Psi1_at_0 == ef.psi1.scale(1.0 / e11).eval(0.0)

    def test_degenerate_pairing(self):
        # at theta = w r = 1e-7, e11 = 1 - (A - i w) r = 1 - theta cot theta + i theta ~ 1e-7;
        # the simplicity flag and the kit's refusal read the one threshold SIMPLE_TOL
        lin = hopf_curve_model(1.0, 1e-7, 0, {}).lin
        hopf = find_critical_frequency(lin)
        assert hopf.simple is False
        with pytest.raises(DegenerateSystemError, match="pairing matrix is degenerate"):
            build_eigendata(lin, hopf)

    def test_random_models(self, rng):
        for _ in range(10):
            model = random_hopf_model(rng)
            eig = build_eigendata(model.lin, verify_hopf(model.lin, model.omega_hint))
            ef = eigenfunctions(eig.omega, model.lin.r)
            for i, Psi in ((1, eig.Psi1), (2, eig.Psi1.conjugate())):
                for j, phi in ((1, ef.phi1), (2, ef.phi2)):
                    got = bilinear(Psi, phi, model.lin)
                    assert abs(got - (1.0 if i == j else 0.0)) <= 1e-12


class TestDescendIdentities:
    """The two split identities behind the first dependence relation."""

    def test_first(self, rng):
        for _ in range(10):
            model = random_hopf_model(rng)
            lin = model.lin
            hopf = verify_hopf(lin, model.omega_hint)
            eig = build_eigendata(lin, hopf)
            w, r = hopf.omega, lin.r
            psi0 = eig.Psi1_at_0
            lhs = psi0 + lin.B * cmath.exp(-1j * w * r) * psi0 * r
            assert abs(lhs - 1.0) <= 1e-12

    def test_second(self, rng):
        for _ in range(10):
            model = random_hopf_model(rng)
            lin = model.lin
            hopf = verify_hopf(lin, model.omega_hint)
            eig = build_eigendata(lin, hopf)
            w, r = hopf.omega, lin.r
            psib = eig.Psi1_at_0.conjugate()
            lhs = psib + lin.B * psib * (cmath.exp(1j * w * r) - cmath.exp(-1j * w * r)) / (2j * w)
            assert abs(lhs) <= 1e-12
