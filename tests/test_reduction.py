"""Reduced equation, first Lyapunov coefficient, sweeps, and the report pipeline."""

import cmath
import math
import types
from collections import Counter

import pytest

import ddecm.cmcore as cmcore
import ddecm.perturb as perturb
import ddecm.reduction as reduction
from ddecm.chareq import HOPF_TOL, find_critical_frequency
from ddecm.cmcore import ModelSpec, degeneracy_report, second_order, third_order, third_order_rhs
from ddecm.errors import InconsistencyError
from ddecm.exppoly import ExpPoly
from ddecm.modelio import dump_json, report_to_dict
from ddecm.perturb import DEFAULT_EPS_GRID, extrapolate_w21
from ddecm.reduction import (
    AnalysisReport,
    ReducedEquation,
    analyze_model,
    assemble_reduced,
    lyapunov_l1,
    sweep_l1_zeros,
)
from ddecm.spectral import bilinear, build_eigendata

from conftest import C1, C2, HOPF_FAMILY, collocation_manifold, random_hopf_model


class TestAssemble:
    def test_trivial_model(self, bench_lin, bench_eig):
        model = ModelSpec(bench_lin, {})
        red = assemble_reduced(model, bench_eig, second_order(model, bench_eig))
        assert all(v == 0 for v in red.g.values())

    def test_benchmark_g11(self, bench_model_c1, bench_eig):
        red = assemble_reduced(bench_model_c1, bench_eig, second_order(bench_model_c1, bench_eig))
        assert red.coeff(1, 1) == pytest.approx(2.0 * bench_eig.Psi1_at_0, abs=1e-14)

    def test_g02_conjugate_consistency(self, bench_model_c1, bench_eig):
        so = second_order(bench_model_c1, bench_eig)
        red = assemble_reduced(bench_model_c1, bench_eig, so)
        assert red.coeff(0, 2) == pytest.approx(bench_eig.Psi1_at_0 * so.f20.conjugate(), abs=1e-14)

    @pytest.mark.parametrize("model", HOPF_FAMILY)
    def test_g21_alone_equals_cubic_stage(self, model):
        eig = build_eigendata(model.lin, find_critical_frequency(model.lin))
        so = second_order(model, eig)
        assert assemble_reduced(model, eig, so).g[(2, 1)] == third_order_rhs(model, eig, so).g21

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            ReducedEquation(1j, {(4, 0): 1.0})


class TestLyapunov:
    def test_zero_coefficients(self):
        assert lyapunov_l1(ReducedEquation(1j, {})) == 0.0

    def test_vanishes_at_first_branch(self, bench_model_c1, bench_eig):
        red = assemble_reduced(bench_model_c1, bench_eig, second_order(bench_model_c1, bench_eig))
        assert abs(lyapunov_l1(red)) <= 1e-6

    def test_vanishes_at_second_branch(self, bench_model_c2, bench_eig):
        red = assemble_reduced(bench_model_c2, bench_eig, second_order(bench_model_c2, bench_eig))
        assert abs(lyapunov_l1(red)) <= 1e-6

    def test_generic_coupling_nonzero(self, bench_lin, bench_eig):
        model = ModelSpec(bench_lin, {(2, 0): 2.0})
        red = assemble_reduced(model, bench_eig, second_order(model, bench_eig))
        assert abs(lyapunov_l1(red)) > 0.1

    def test_requires_imaginary_lambda1(self):
        with pytest.raises(ValueError):
            lyapunov_l1(ReducedEquation(0.1 + 1j, {}))

    @pytest.mark.parametrize("model", HOPF_FAMILY)
    def test_agrees_with_collocation(self, model):
        # an independent route: the l1 of a Chebyshev collocation of the DDE,
        # which shares no code with the package
        rep = analyze_model(model, eps_grid=None)
        lin, w = model.lin, rep.hopf.omega
        ref = collocation_manifold(lin.A, lin.B, lin.r, w, model.C, n=40)
        scale = abs(rep.third.stage.g21) + abs(rep.so.g20 * rep.so.g11) / w
        assert abs(rep.l1 - ref.l1) <= 1e-8 * scale


class TestSweep:
    def test_benchmark_roots(self, bench_lin):
        template = ModelSpec(bench_lin, {(2, 0): 2.0}, omega_hint=1.0)
        res = sweep_l1_zeros(template, "C1,1", -4.0, 4.0, 200)
        assert len(res.roots) == 2
        assert res.roots[0] == pytest.approx(C2, abs=1e-5)
        assert res.roots[1] == pytest.approx(C1, abs=1e-5)

    def test_grid_density_invariance(self, bench_lin):
        template = ModelSpec(bench_lin, {(2, 0): 2.0}, omega_hint=1.0)
        coarse = sweep_l1_zeros(template, "C1,1", -4.0, 4.0, 200)
        fine = sweep_l1_zeros(template, "C1,1", -4.0, 4.0, 400)
        for a, b in zip(coarse.roots, fine.roots):
            assert abs(a - b) <= 1e-9

    def test_trivial_template_has_no_roots(self, bench_lin):
        # sweeping C1,1 over the zero template gives l1(c) proportional to c^2:
        # sign-definite, so no bracketed zero
        res = sweep_l1_zeros(ModelSpec(bench_lin, {}, omega_hint=1.0), "C1,1", -4.0, 4.0, 50)
        assert res.roots == ()

    def test_range_excluding_roots(self, bench_lin):
        template = ModelSpec(bench_lin, {(2, 0): 2.0}, omega_hint=1.0)
        res = sweep_l1_zeros(template, "C1,1", 3.0, 4.0, 40)
        assert res.roots == ()

    def test_bad_range(self, bench_lin):
        with pytest.raises(ValueError):
            sweep_l1_zeros(ModelSpec(bench_lin, {}), "C1,1", 2.0, -2.0, 10)

    def test_points_beyond_cap_rejected(self, bench_lin):
        template = ModelSpec(bench_lin, {(2, 0): 2.0}, omega_hint=1.0)
        with pytest.raises(ValueError, match="n_points"):
            sweep_l1_zeros(template, "C1,1", -4.0, 4.0, reduction.MAX_SWEEP_POINTS + 1)
        with pytest.raises(ValueError, match="n_points"):
            sweep_l1_zeros(template, "C1,1", -4.0, 4.0, 10**30)

    def test_unknown_parameter(self, bench_lin):
        with pytest.raises(ValueError):
            sweep_l1_zeros(ModelSpec(bench_lin, {}), "Q", 0.0, 1.0, 10)

    @pytest.mark.parametrize("param", ["B", "C1,1,1", "Cx", "C-1,3"])
    def test_only_taylor_coefficients_sweep(self, bench_lin, param):
        # moving A or B alone leaves the Hopf point, so only C entries sweep
        with pytest.raises(ValueError, match="only a Taylor coefficient"):
            sweep_l1_zeros(ModelSpec(bench_lin, {}), param, -1.2, -0.8, 10)

    def test_grid_values_match_pointwise_evaluation(self, bench_lin):
        # grid values come from the fitted quadratic; each must agree with the
        # whole public pipeline run at that point
        template = ModelSpec(bench_lin, {(2, 0): 2.0}, omega_hint=1.0)
        res = sweep_l1_zeros(template, "C1,1", -4.0, 4.0, 200)
        pointwise = []
        for c in res.grid:
            model = ModelSpec(bench_lin, {(2, 0): 2.0, (1, 1): c}, omega_hint=1.0)
            eig = build_eigendata(model.lin, find_critical_frequency(model.lin, model.omega_hint))
            pointwise.append(lyapunov_l1(assemble_reduced(model, eig, second_order(model, eig))))
        scale = max(abs(v) for v in pointwise)
        assert max(abs(v - p) for v, p in zip(res.values, pointwise)) <= 1e-12 * scale

    def test_root_pair_inside_one_grid_cell(self, bench_lin):
        # with 2 points the whole range is one cell holding both zeros
        template = ModelSpec(bench_lin, {(2, 0): 2.0}, omega_hint=1.0)
        res = sweep_l1_zeros(template, "C1,1", -4.0, 4.0, 2)
        assert res.roots == pytest.approx((C2, C1), abs=1e-9)
        assert res.grid == (-4.0, 4.0)

    @pytest.mark.parametrize("n_points", [2, 7, 200])
    def test_four_evaluations_whatever_the_grid(self, bench_lin, monkeypatch, n_points):
        calls = []

        def counting(model, eig):
            calls.append(model.c(1, 1))
            return second_order(model, eig)

        monkeypatch.setattr(reduction, "second_order", counting)
        template = ModelSpec(bench_lin, {(2, 0): 2.0}, omega_hint=1.0)
        sweep_l1_zeros(template, "C1,1", -4.0, 4.0, n_points)
        assert sorted(calls) == [-4.0, -2.0, 0.0, 4.0]

    def test_single_root_in_range(self, bench_lin):
        template = ModelSpec(bench_lin, {(2, 0): 2.0}, omega_hint=1.0)
        res = sweep_l1_zeros(template, "C1,1", 0.0, 4.0, 5)
        assert res.roots == pytest.approx((C1,), abs=1e-9)

    def test_not_quadratic_raises(self, bench_lin, monkeypatch):
        # a cubic term in the swept value breaks the fourth evaluation's check
        swept = []

        def recording(model, eig):
            swept.append(model.c(1, 1))
            return second_order(model, eig)

        monkeypatch.setattr(reduction, "second_order", recording)
        monkeypatch.setattr(reduction, "lyapunov_l1", lambda red: lyapunov_l1(red) + 1e-6 * swept[-1] ** 3)
        template = ModelSpec(bench_lin, {(2, 0): 2.0}, omega_hint=1.0)
        with pytest.raises(InconsistencyError, match="not quadratic in C1,1"):
            sweep_l1_zeros(template, "C1,1", -4.0, 4.0, 200)


class TestAnalyzeReport:
    @pytest.mark.parametrize("model", HOPF_FAMILY)
    def test_limit_is_psi1_orthogonal(self, model):
        # w21 has no component along the center eigenspace, so the report's
        # <Psi1, w21> is rounding: at most 8.8e-10 |w21(0)| over this family
        rep = analyze_model(model, eps_grid=None)
        assert abs(rep.psi1_w21_pairing) <= 1e-7 * abs(rep.third.w21_0)

    def test_deterministic_serialization(self, bench_model_c1):
        rep1 = analyze_model(bench_model_c1)
        rep2 = analyze_model(bench_model_c1)
        assert dump_json(report_to_dict(rep1)) == dump_json(report_to_dict(rep2))

    def test_skipping_oracle(self, bench_model_c1):
        rep = analyze_model(bench_model_c1, eps_grid=None)
        assert rep.oracle is None
        assert abs(rep.l1) <= 1e-6

    def test_oracle_block(self, bench_model_c1):
        rep = analyze_model(bench_model_c1)
        assert rep.oracle is not None
        assert rep.oracle.gap_to_closed_form <= 1e-6

    def test_timing_excluded_from_schema(self, bench_model_c1):
        rep = analyze_model(bench_model_c1)
        assert rep.timing_seconds  # collected in memory
        assert "timing" not in dump_json(report_to_dict(rep))


def _replayed_report(model, grid):
    """The report rebuilt from the public calls the benchmark's traced replay
    makes, one at a time, in its order."""
    lin = model.lin
    hopf = find_critical_frequency(lin, model.omega_hint, HOPF_TOL)
    eig = build_eigendata(lin, hopf)
    so = second_order(model, eig)
    third = third_order(model, eig, so)
    deg = degeneracy_report(model, eig, so)
    pairing = bilinear(eig.Psi1, third.w21, lin)
    oracle = extrapolate_w21(model, eig, grid) if grid is not None else None
    l1 = lyapunov_l1(assemble_reduced(model, eig, so, third))
    return AnalysisReport(
        model=model, hopf=hopf, root_count=None, e11=eig.e11, e22=eig.e22,
        Psi1_at_0=eig.Psi1_at_0, so=so, third=third, degeneracy=deg,
        psi1_w21_pairing=pairing, oracle=oracle, l1=l1,
    )


class TestComputedOnce:
    @pytest.mark.parametrize("grid", [DEFAULT_EPS_GRID, None], ids=["oracle", "no-oracle"])
    def test_public_calls_rebuild_the_report(self, bench_model_c1, rng, grid):
        for model in (bench_model_c1, random_hopf_model(rng), random_hopf_model(rng)):
            replayed = dump_json(report_to_dict(_replayed_report(model, grid)))
            assert replayed == dump_json(report_to_dict(analyze_model(model, eps_grid=grid)))

    def test_each_stage_runs_once(self, bench_model_c1, monkeypatch):
        calls = Counter()
        stage_lams = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                result = fn(*args, **kwargs)
                if name == "cubic_stage":
                    stage_lams.append(result.lam)
                return result
            return wrapped

        for module in (cmcore, perturb, reduction):
            for name in ("quadratic_data", "cubic_stage", "second_order", "third_order_rhs"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        analyze_model(bench_model_c1)
        n = len(DEFAULT_EPS_GRID)
        assert calls == {"quadratic_data": 1 + n, "cubic_stage": 1 + n, "second_order": 1,
                         "third_order_rhs": 1}
        # the critical stage once, at lam = i w; the oracle's at mu_eps > 0
        assert [lam.real for lam in stage_lams].count(0.0) == 1
        assert all(lam.real > 0 for lam in stage_lams[1:])

    @pytest.fixture
    def exp_calls(self, monkeypatch):
        """The arguments of every cmath.exp and math.exp call made in cmcore."""
        calls = []
        for name, module in (("cmath", cmath), ("math", math)):
            def exp(x, exp=module.exp):
                calls.append(x)
                return exp(x)
            names = {n: getattr(module, n) for n in dir(module) if not n.startswith("_")}
            monkeypatch.setattr(cmcore, name, types.SimpleNamespace(**{**names, "exp": exp}))
        return calls

    def test_each_exponential_evaluated_once(self, bench_model_c1, bench_eig, exp_calls):
        # the quadratic stage evaluates e^{-lam r}, e^{-conj(lam) r}, e^{-2 lam r},
        # e^{-2 mu r} and e^{-nu r}; every later stage reads them from SecondOrder
        model, eig = bench_model_c1, bench_eig
        so = second_order(model, eig)
        stage = third_order_rhs(model, eig, so)
        stage.degeneracy()
        third_order(model, eig, so, stage)
        assert len(exp_calls) == 5
        exp_calls.clear()
        perturb.perturbed_stage(model, eig.omega, 1e-2)
        assert len(exp_calls) == 5
        exp_calls.clear()
        assemble_reduced(model, eig, second_order(model, eig))  # one sweep node
        assert len(exp_calls) == 5

    def test_perturbed_problems_build_no_exppoly(self, bench_model_c1, bench_eig, monkeypatch):
        built = []
        init = ExpPoly.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(ExpPoly, "__init__", counting_init)
        extrapolate_w21(bench_model_c1, bench_eig, closed_form=0j)
        assert built == []
