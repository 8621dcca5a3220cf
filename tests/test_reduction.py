"""Reduced equation, first Lyapunov coefficient, sweeps, and the report pipeline."""

import pytest

from ddecm.cmcore import ModelSpec, second_order
from ddecm.modelio import dump_json, report_from_dict, report_to_dict
from ddecm.reduction import (
    ReducedEquation,
    analyze_model,
    assemble_reduced,
    l1_of_model,
    lyapunov_l1,
    sweep_l1_zeros,
)

from conftest import C1, C2


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

    def test_parallel_matches_serial(self, bench_lin):
        template = ModelSpec(bench_lin, {(2, 0): 2.0}, omega_hint=1.0)
        serial = sweep_l1_zeros(template, "C1,1", -3.0, 3.0, 60)
        parallel = sweep_l1_zeros(template, "C1,1", -3.0, 3.0, 60, jobs=4)
        assert serial.values == parallel.values
        assert serial.roots == parallel.roots

    def test_bad_range(self, bench_lin):
        with pytest.raises(ValueError):
            sweep_l1_zeros(ModelSpec(bench_lin, {}), "C1,1", 2.0, -2.0, 10)

    def test_unknown_parameter(self, bench_lin):
        with pytest.raises(ValueError):
            sweep_l1_zeros(ModelSpec(bench_lin, {}), "Q", 0.0, 1.0, 10)

    @pytest.mark.parametrize("param", ["B", "C1,1,1", "Cx", "C-1,3"])
    def test_only_taylor_coefficients_sweep(self, bench_lin, param):
        # moving A or B alone leaves the Hopf point, so only C entries sweep
        with pytest.raises(ValueError, match="only a Taylor coefficient"):
            sweep_l1_zeros(ModelSpec(bench_lin, {}), param, -1.2, -0.8, 10)

    def test_l1_of_model_matches_sweep_values(self, bench_lin):
        template = ModelSpec(bench_lin, {(2, 0): 2.0}, omega_hint=1.0)
        res = sweep_l1_zeros(template, "C1,1", -1.0, 1.0, 3)
        for c, v in zip(res.grid, res.values):
            model = ModelSpec(bench_lin, {(2, 0): 2.0, (1, 1): c}, omega_hint=1.0)
            assert l1_of_model(model) == pytest.approx(v, abs=1e-14)


class TestAnalyzeReport:
    def test_deterministic_serialization(self, bench_model_c1):
        rep1 = analyze_model(bench_model_c1)
        rep2 = analyze_model(bench_model_c1)
        assert dump_json(report_to_dict(rep1)) == dump_json(report_to_dict(rep2))

    def test_round_trip(self, bench_model_c1):
        rep = analyze_model(bench_model_c1)
        doc = report_to_dict(rep)
        back = report_from_dict(doc)
        assert report_to_dict(back) == doc

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
