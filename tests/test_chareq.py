"""Characteristic equation: evaluation, Hopf search/verification, root counting."""

import math
import random

import pytest

import ddecm.chareq as chareq
from ddecm.chareq import (
    HopfPoint,
    LinearPart,
    audit_spectrum,
    char_derivative,
    char_value,
    count_roots_rect,
    crossing_count,
    find_critical_frequency,
    find_hopf_parameter,
    verify_hopf,
)
from ddecm.errors import NoHopfError, NotHopfPointError, RootOnContourError, SpectrumAuditWarning

from conftest import R2_B, R2_R


class TestCharValue:
    def test_critical_pair_is_root(self, bench_lin):
        assert char_value(bench_lin, 1j) == pytest.approx(0.0, abs=1e-15)

    def test_no_delay_term(self):
        lin = LinearPart(1.0, 0.0, 1.0)
        assert char_value(lin, 0.0) == pytest.approx(-1.0, abs=1e-15)

    def test_at_zero(self, bench_lin):
        assert char_value(bench_lin, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_conjugation_symmetry(self):
        rng = random.Random(3)
        for _ in range(30):
            lin = LinearPart(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.2, 3))
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            lhs = char_value(lin, lam.conjugate())
            rhs = char_value(lin, lam).conjugate()
            assert abs(lhs - rhs) <= 1e-14 * (1 + abs(rhs))


class TestFindHopfParameter:
    @pytest.mark.parametrize("guess", [0.9, 1.4])
    def test_benchmark_basin(self, guess):
        A, hopf = find_hopf_parameter(R2_B, R2_R, guess)
        assert A == pytest.approx(0.0, abs=1e-12)
        assert hopf.omega == pytest.approx(1.0, abs=1e-12)
        assert hopf.residual <= 1e-12
        assert hopf.simple

    def test_no_delay_coupling_fails(self):
        # B = 0: the only root lambda = A is real
        with pytest.raises(NoHopfError):
            find_hopf_parameter(0.0, 1.0, 1.0)

    def test_returned_point_is_root_both_signs(self):
        A, hopf = find_hopf_parameter(-2.0, 1.0, 1.5)
        lin = LinearPart(A, -2.0, 1.0)
        assert abs(char_value(lin, 1j * hopf.omega)) <= 1e-12
        assert abs(char_value(lin, -1j * hopf.omega)) <= 1e-12


class TestVerifyHopf:
    def test_benchmark(self, bench_lin):
        hopf = verify_hopf(bench_lin, 1.0)
        assert hopf.residual <= 1e-14
        assert hopf.simple

    def test_wrong_frequency(self, bench_lin):
        with pytest.raises(NotHopfPointError):
            verify_hopf(bench_lin, 2.0)

    def test_simplicity_witness(self, bench_lin):
        # F'(i) = 1 + B r e^{-i w r} = 1 + i pi/2 for the benchmark
        val = char_derivative(bench_lin, 1j)
        assert val == pytest.approx(1.0 + 1j * math.pi / 2, abs=1e-14)

    def test_tolerance_override(self):
        lin = LinearPart(0.0, -1.0, math.pi / 2 + 1e-6)
        with pytest.raises(NotHopfPointError):
            verify_hopf(lin, 1.0)
        assert verify_hopf(lin, 1.0, tol=1e-3).residual > 1e-10

    def test_nonpositive_omega_rejected(self, bench_lin):
        with pytest.raises(ValueError):
            verify_hopf(bench_lin, -1.0)


class TestFindCriticalFrequency:
    def test_benchmark_no_hint(self, bench_lin):
        hopf = find_critical_frequency(bench_lin)
        assert hopf.omega == pytest.approx(1.0, abs=1e-10)

    def test_benchmark_with_hint(self, bench_lin):
        hopf = find_critical_frequency(bench_lin, omega_hint=0.8)
        assert hopf.omega == pytest.approx(1.0, abs=1e-10)

    def test_not_a_hopf_model(self):
        with pytest.raises(NotHopfPointError):
            find_critical_frequency(LinearPart(-1.0, -0.3, 1.0))


class TestCountRoots:
    def test_critical_pair(self, bench_lin):
        assert count_roots_rect(bench_lin, (-0.2, 0.3, -2.0, 2.0)) == 2

    def test_empty_region(self, bench_lin):
        assert count_roots_rect(bench_lin, (1.0, 2.0, 0.0, 1.0)) == 0

    def test_single_real_root(self):
        # no delay coupling: lambda = 1 is the only root
        lin = LinearPart(1.0, 0.0, 1.0)
        assert count_roots_rect(lin, (0.5, 1.5, -0.5, 0.5)) == 1

    def test_additive_over_split(self, bench_lin):
        whole = count_roots_rect(bench_lin, (-0.2, 0.3, -2.0, 2.0))
        lower = count_roots_rect(bench_lin, (-0.2, 0.3, -2.0, 0.1))
        upper = count_roots_rect(bench_lin, (-0.2, 0.3, 0.1, 2.0))
        assert lower + upper == whole

    def test_root_on_contour_detected(self, bench_lin):
        # the root at i sits on the edge im = 1
        with pytest.raises(RootOnContourError):
            count_roots_rect(bench_lin, (-0.2, 0.3, 0.0, 1.0))

    def test_degenerate_rectangle(self, bench_lin):
        with pytest.raises(ValueError):
            count_roots_rect(bench_lin, (0.0, 0.0, -1.0, 1.0))


def hopf_lin(omega, theta, k):
    """The Hopf point with frequency omega, phase theta and crossing index k:
    A = w cot(theta), B = -w / sin(theta), r = (theta + 2 pi k) / w."""
    return LinearPart(omega / math.tan(theta), -omega / math.sin(theta), (theta + 2 * math.pi * k) / omega)


def closed_count(lin, k):
    """Roots with Re >= 0 at the k-th crossing: the critical pair, 2k, and [A + B > 0]."""
    return 2 + 2 * k + (1 if lin.A + lin.B > 0 else 0)


def lambert_roots(lin, branches=40):
    """lambda = A + W_j(B r e^{-A r}) / r over |j| <= branches: one root per branch."""
    lambertw = pytest.importorskip("scipy.special").lambertw
    z = lin.B * lin.r * math.exp(-lin.A * lin.r)
    return [lin.A + complex(lambertw(z, j)) / lin.r for j in range(-branches, branches + 1)]


# (omega, theta, k) over both signs of B (theta below or above pi), small and
# large omega, and the first three crossings
_GRID = [
    (omega, theta + shift, k)
    for omega in (0.03, 1.0, 30.0)
    for theta in (0.3, 2.5)
    for shift in (0.0, math.pi)
    for k in (0, 1, 2)
]


# most of these points have unstable roots, so the advisory warning is expected
_QUIET = pytest.mark.filterwarnings("ignore::ddecm.errors.SpectrumAuditWarning")


class TestAudit:
    def test_benchmark_audit_is_clean(self, bench_lin):
        hopf = verify_hopf(bench_lin, 1.0)
        assert audit_spectrum(bench_lin, hopf) == 2

    @pytest.mark.parametrize("omega, theta, k, want", [(0.04, 3.2, 0, 3), (0.03, 0.065, 2, 6)])
    def test_unstable_roots_outside_any_window_counted(self, omega, theta, k, want):
        # (0.04, 3.2, 0): the unstable real root sits near A + B = 1.37, far
        # right of the critical frequency; (0.03, 0.065, 2): two earlier
        # crossings at small omega r
        lin = hopf_lin(omega, theta, k)
        hopf = verify_hopf(lin, omega)
        with pytest.warns(SpectrumAuditWarning):
            assert audit_spectrum(lin, hopf) == want
        assert crossing_count(lin, hopf) == k + 1

    @_QUIET
    @pytest.mark.parametrize("omega, theta, k", _GRID)
    def test_matches_lambert_branches(self, omega, theta, k):
        lin = hopf_lin(omega, theta, k)
        roots = lambert_roots(lin)
        scale = abs(lin.A) + abs(lin.B)
        assert all(abs(char_value(lin, lam)) <= 1e-9 * (1 + scale) for lam in roots)
        # the critical pair is found to ~1e-14; every other root is > 5e-5 from the axis
        assert all(abs(lam.real) > 1e-9 or abs(abs(lam.imag) - omega) < 1e-6 * omega for lam in roots)
        nonneg = sum(1 for lam in roots if lam.real > -1e-9)
        hopf = verify_hopf(lin, omega)
        assert audit_spectrum(lin, hopf) == nonneg == closed_count(lin, k)

    @_QUIET
    @pytest.mark.parametrize("theta, k", [(1.0, 0), (1.0, 1), (1.0 + math.pi, 0), (1.0 + math.pi, 1)])
    def test_matches_argument_principle(self, theta, k):
        # every root with Re >= 0 has |lambda| <= |A| + |B|; the left edge sits
        # between the axis and the nearest stable root
        lin = hopf_lin(1.0, theta, k)
        hopf = verify_hopf(lin, 1.0)
        size = abs(lin.A) + abs(lin.B) + 1.0
        rect = (-0.02, size, -size, size)
        assert audit_spectrum(lin, hopf) == count_roots_rect(lin, rect) == closed_count(lin, k)

    @_QUIET
    @pytest.mark.parametrize("omega, theta, k", [(0.03, 0.065, 2), (1.0, 4.0, 1), (30.0, 2.5, 0)])
    def test_on_axis_pair_counted_either_side_of_r_k(self, omega, theta, k):
        lin = hopf_lin(omega, theta, k)
        want = closed_count(lin, k)
        for r in (math.nextafter(lin.r, 0.0), lin.r, math.nextafter(lin.r, math.inf)):
            nudged = LinearPart(lin.A, lin.B, r)
            assert audit_spectrum(nudged, verify_hopf(nudged, omega)) == want

    @pytest.mark.parametrize("A, B, want", [(0.5, 0.0, 1), (-0.5, 0.0, 0), (2.0, 1.0, 1),
                                            (2.0, -1.0, 1), (-2.0, 1.0, 0), (-2.0, -1.0, 0)])
    def test_linear_parts_without_crossings(self, A, B, want):
        # |B| <= |A|: no root ever reaches the axis, so only A + B > 0 counts
        lin = LinearPart(A, B, 1.3)
        assert count_roots_rect(lin, (-1e-3, 4.0, -4.0, 4.0)) == want
        with pytest.warns(SpectrumAuditWarning):
            assert audit_spectrum(lin, HopfPoint(1.0, 0.0, True)) == want
        assert crossing_count(lin, HopfPoint(1.0, 0.0, True)) == 0

    @_QUIET
    @pytest.mark.parametrize("r, want", [(1.0, 0), (2.5, 2), (5.0, 2), (8.0, 4)])
    def test_between_crossings(self, r, want):
        # x' = -x(t - r) crosses at r = pi/2 + 2 pi j; off those delays the
        # nearest crossing is not on the axis and counts only once passed
        lin = LinearPart(0.0, -1.0, r)
        assert count_roots_rect(lin, (-1e-3, 2.0, -2.0, 2.0)) == want
        assert audit_spectrum(lin, HopfPoint(1.0, 0.0, True)) == want

    @_QUIET
    def test_constant_number_of_char_evaluations(self, monkeypatch):
        calls = []
        inner = chareq.char_value

        def counted(lin, lam):
            calls.append(lam)
            return inner(lin, lam)

        monkeypatch.setattr(chareq, "char_value", counted)
        per_audit = []
        for omega, theta, k in _GRID[::5]:
            lin = hopf_lin(omega, theta, k)
            hopf = verify_hopf(lin, omega)
            calls.clear()
            audit_spectrum(lin, hopf)
            per_audit.append(len(calls))
        assert len(set(per_audit)) == 1 and per_audit[0] <= 4

    def test_unstable_root_flagged(self):
        # A = 0.5, B = 0: root at 0.5, no imaginary pair; audit a synthetic point
        lin = LinearPart(0.5, 0.0, 1.0)
        count = count_roots_rect(lin, (-1e-6, 5.0, -20.0, 20.0))
        assert count == 1

    def test_violation_warns_but_does_not_fail(self):
        # synthetic Hopf point over a linear part with a single real root: the
        # audit finds 1 root where 2 are expected and only warns
        lin = LinearPart(0.5, 0.0, 1.0)
        with pytest.warns(SpectrumAuditWarning):
            count = audit_spectrum(lin, HopfPoint(1.0, 0.0, True))
        assert count == 1

