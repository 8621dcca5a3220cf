"""Exponential-polynomial algebra: exact values, closed-form integration
against quadrature, and structural invariants."""

import cmath
import math
import random

import pytest

from ddecm.errors import DomainMismatchError
from ddecm.exppoly import ExpMonomial, ExpPoly

from conftest import adaptive_simpson

HALF_PI = math.pi / 2


def random_poly(rng, domain, max_rate=4.0, n_terms=4):
    terms = []
    for _ in range(rng.randint(1, n_terms)):
        coeff = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        mod = rng.uniform(0.0, max_rate)
        arg = rng.uniform(0.0, 2.0 * math.pi)
        rate = mod * complex(math.cos(arg), math.sin(arg))
        terms.append(ExpMonomial(coeff, rate, rng.randint(0, 2)))
    return ExpPoly(terms, domain)


def eval_horner(p, s):
    """Independent evaluation: group by rate, Horner per group."""
    groups = {}
    for t in p.terms:
        groups.setdefault(t.rate, [0j] * 5)[t.degree] += t.coeff
    total = 0j
    for rate, coeffs in groups.items():
        poly = 0j
        for c in reversed(coeffs):
            poly = poly * s + c
        total += poly * cmath.exp(rate * s)
    return total


class TestEval:
    def test_constant(self):
        p = ExpPoly.monomial(1.0, 0.0, 0, (0.0, 10.0))
        assert p.eval(5.0) == 1.0

    def test_euler_identity(self):
        phi1 = ExpPoly.monomial(1.0, 1j, 0, (-HALF_PI, 0.0))
        assert phi1.eval(-HALF_PI) == pytest.approx(-1j, abs=1e-15)

    def test_resonant_kernel(self):
        # -2 s e^{i s} at s = -pi/2: -2(-pi/2) e^{-i pi/2} = -pi i
        rho = ExpPoly.monomial(-2.0, 1j, 1, (-HALF_PI, 0.0))
        assert rho.eval(-HALF_PI) == pytest.approx(-math.pi * 1j, abs=1e-14)

    def test_outside_domain(self):
        p = ExpPoly.monomial(1.0, 0.0, 0, (0.0, 1.0))
        with pytest.raises(DomainMismatchError):
            p.eval(2.0)

    def test_horner_agreement(self):
        rng = random.Random(7)
        p = random_poly(rng, (-2.0, 2.0))
        for _ in range(1000):
            s = rng.uniform(-2.0, 2.0)
            direct = p.eval(s)
            horner = eval_horner(p, s)
            assert abs(direct - horner) <= 1e-13 * (1.0 + abs(direct))


class TestIntegrate:
    def test_constant(self):
        p = ExpPoly.monomial(1.0, 0.0, 0, (-HALF_PI, 0.0))
        assert p.integrate() == pytest.approx(HALF_PI, abs=1e-15)

    def test_linear_polynomial(self):
        p = ExpPoly.monomial(1.0, 0.0, 1, (0.0, HALF_PI))
        assert p.integrate() == pytest.approx(HALF_PI**2 / 2, abs=1e-15)

    def test_pure_exponential(self):
        # int_{-pi/2}^0 e^{is} ds = (1 - e^{-i pi/2})/i = 1 - i
        p = ExpPoly.monomial(1.0, 1j, 0, (-HALF_PI, 0.0))
        assert p.integrate() == pytest.approx(1.0 - 1j, abs=1e-14)

    @pytest.mark.parametrize("seed", range(12))
    def test_against_quadrature(self, seed):
        # |rate| * (b - a) <= 20: the regime every pipeline integral lives in
        rng = random.Random(seed)
        a = rng.uniform(-3, 0)
        b = a + rng.uniform(0.5, 3.0)
        p = random_poly(rng, (a, b), max_rate=20.0 / (b - a))
        exact = p.integrate()
        quad = adaptive_simpson(p.eval, a, b, tol=1e-12 * (1.0 + abs(exact)))
        assert abs(exact - quad) <= 1e-10 * (1.0 + abs(exact))

    def test_small_rate_has_full_precision(self):
        # the antiderivative difference e^{ls}/l would cancel at rate ~1e-6
        p = ExpPoly.monomial(1.0 + 0.5j, 1e-6 + 1e-6j, 2, (-1.0, 1.0))
        quad = adaptive_simpson(p.eval, -1.0, 1.0, tol=1e-15)
        assert abs(p.integrate() - quad) <= 1e-13 * abs(quad)

    @pytest.mark.parametrize("seed", range(8))
    def test_additivity(self, seed):
        rng = random.Random(100 + seed)
        p = random_poly(rng, (-2.0, 2.0))
        a, c = -2.0, 2.0
        b = rng.uniform(-1.9, 1.9)
        lhs = p.integrate(a, b) + p.integrate(b, c)
        rhs = p.integrate(a, c)
        scale = 1.0 + abs(lhs) + abs(rhs)
        assert abs(lhs - rhs) <= 1e-12 * scale

    def test_subinterval_outside_domain(self):
        p = ExpPoly.monomial(1.0, 0.0, 0, (0.0, 1.0))
        with pytest.raises(DomainMismatchError):
            p.integrate(0.0, 2.0)


class TestConjugate:
    def test_zero(self):
        z = ExpPoly.zero((-1.0, 0.0))
        assert z.conjugate().is_zero()

    def test_exponent(self):
        p = ExpPoly.monomial(1.0, 2j, 0, (-1.0, 0.0))
        q = p.conjugate()
        assert q.terms[0].rate == -2j

    def test_componentwise(self):
        p = ExpPoly.monomial(2 + 1j, 1 + 2j, 1, (-1.0, 0.0))
        q = p.conjugate()
        (t,) = q.terms
        assert t.coeff == 2 - 1j and t.rate == 1 - 2j and t.degree == 1

    def test_involution_and_pointwise(self):
        rng = random.Random(11)
        p = random_poly(rng, (-1.5, 1.5))
        assert p.conjugate().conjugate() == p
        for _ in range(50):
            s = rng.uniform(-1.5, 1.5)
            assert abs(p.conjugate().eval(s) - p.eval(s).conjugate()) <= 1e-14 * (1 + abs(p.eval(s)))

    def test_integral_commutes(self):
        rng = random.Random(12)
        p = random_poly(rng, (-1.0, 1.0))
        lhs = p.conjugate().integrate()
        rhs = p.integrate().conjugate()
        assert abs(lhs - rhs) <= 1e-13 * (1 + abs(rhs))


class TestAlgebra:
    def test_shift_argument_pointwise(self):
        rng = random.Random(13)
        p = random_poly(rng, (0.0, 2.0))
        q = p.shift_argument(1.5)
        assert q.domain == (-1.5, 0.5)
        for _ in range(50):
            s = rng.uniform(-1.5, 0.5)
            assert abs(q.eval(s) - p.eval(s + 1.5)) <= 1e-12 * (1 + abs(p.eval(s + 1.5)))

    def test_shift_zero_is_identity(self):
        p = ExpPoly.monomial(1 + 1j, 2j, 2, (0.0, 1.0))
        assert p.shift_argument(0.0) == p

    def test_product_pointwise(self):
        rng = random.Random(14)
        p = random_poly(rng, (-1.0, 1.0), n_terms=2)
        q = random_poly(rng, (-1.0, 1.0), n_terms=2)
        prod = p * q
        for _ in range(50):
            s = rng.uniform(-1.0, 1.0)
            want = p.eval(s) * q.eval(s)
            assert abs(prod.eval(s) - want) <= 1e-12 * (1 + abs(want))

    def test_product_degree_cap(self):
        p = ExpPoly.monomial(1.0, 0.0, 3, (-1.0, 1.0))
        with pytest.raises(ValueError):
            _ = p * p

    def test_scale_and_add(self):
        p = ExpPoly.monomial(1.0, 1j, 0, (-1.0, 0.0))
        q = ExpPoly.monomial(2.0, -1j, 1, (-1.0, 0.0))
        s = p.scale(3.0) + q
        assert abs(s.eval(-0.5) - (3 * p.eval(-0.5) + q.eval(-0.5))) < 1e-15

    def test_add_domain_mismatch(self):
        p = ExpPoly.monomial(1.0, 0.0, 0, (-1.0, 0.0))
        q = ExpPoly.monomial(1.0, 0.0, 0, (0.0, 1.0))
        with pytest.raises(DomainMismatchError):
            _ = p + q


class TestStructure:
    def test_merge_identical_keys(self):
        terms = (ExpMonomial(1.0, 2j, 1), ExpMonomial(2.0, 2j, 1), ExpMonomial(1.0, 2j, 0))
        p = ExpPoly(terms, (-1.0, 0.0))
        assert len(p.terms) == 2
        merged = [t for t in p.terms if t.degree == 1]
        assert merged[0].coeff == 3.0

    def test_cancellation_gives_zero(self):
        terms = (ExpMonomial(1.5, 1j, 0), ExpMonomial(-1.5, 1j, 0))
        assert ExpPoly(terms, (-1.0, 0.0)).is_zero()

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            ExpMonomial(1.0, 0.0, 5)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            ExpMonomial(complex("nan"), 0.0, 0)
        with pytest.raises(ValueError):
            ExpMonomial(1.0, complex("inf"), 0)

    def test_bad_domain(self):
        with pytest.raises(ValueError):
            ExpPoly.zero((1.0, 0.0))
