"""Command-line interface: documents, exit codes, determinism."""

import copy
import json
import math
import os
import subprocess
import sys

import pytest

import ddecm.cli as cli
import ddecm.reduction as reduction
from ddecm.cli import main
from ddecm.cmcore import second_order
from ddecm.ddesim import MAX_SIM_STEPS, SimConfig, integrate_dde
from ddecm.errors import ModelFileError
from ddecm.modelio import DEFAULT_SIM_HISTORY, dump_json, load_model_file, parse_model_document
from ddecm.reduction import lyapunov_l1

from conftest import C1, C2, R2_R, SUPERCRITICAL_C, collocation_manifold, hopf_curve_model, report_drift
from test_cmcore import W21_0_C1

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the bundled model's report as written before the cubic stage became scalar
BASELINE_REPORT = os.path.join(ROOT, "tests", "data", "benchmark_report.json")


def write_model(tmp_path, name="model.json", **overrides):
    doc = {
        "A": 0.0,
        "B": -1.0,
        "r": R2_R,
        "C": {"2,0": 2.0, "1,1": C1},
        "omega_hint": 1.0,
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestModelFile:
    def test_parse_benchmark(self, tmp_path):
        mf = load_model_file(write_model(tmp_path))
        assert mf.model.lin.B == -1.0
        assert mf.model.c(2, 0) == 2.0
        assert mf.model.omega_hint == 1.0

    @pytest.mark.parametrize("sim,want", [
        (None, SimConfig(R2_R / 40.0, 50.0 * R2_R, DEFAULT_SIM_HISTORY)),
        ({"horizon": 30.0}, SimConfig(R2_R / 40.0, 30.0, DEFAULT_SIM_HISTORY)),
        ({"dt": 0.05, "history": 0.002}, SimConfig(0.05, 50.0 * R2_R, 0.002)),
    ])
    def test_sim_defaults_resolved(self, tmp_path, sim, want):
        model = write_model(tmp_path) if sim is None else write_model(tmp_path, sim=sim)
        assert load_model_file(model).sim == want

    def test_unknown_key_named(self):
        with pytest.raises(ModelFileError, match="frobnicate"):
            parse_model_document({"A": 0, "B": -1, "r": 1.0, "frobnicate": 1})

    def test_bad_c_key(self):
        with pytest.raises(ModelFileError, match="j,k"):
            parse_model_document({"A": 0, "B": -1, "r": 1.0, "C": {"x": 1.0}})

    def test_c_key_of_three_integers(self):
        # its first two parts name C2,0, which must not take the value 5
        with pytest.raises(ModelFileError, match="'2,0,7' is not of the form"):
            parse_model_document({"A": 0, "B": -1, "r": 1.0, "C": {"2,0": 2.0, "2,0,7": 5.0}})

    def test_c_key_naming_a_coefficient_twice(self, tmp_path, capsys):
        # "01,1" and "1,1" both name C1,1; neither may silently win
        model = write_model(tmp_path, C={"1,1": 1.0, "01,1": 5.0})
        assert main(["roots", "--model", model, "--out", str(tmp_path / "out.json")]) == 1
        assert "error[ModelFileError]: C key '01,1' names C1,1 a second time" in capsys.readouterr().err

    def test_invalid_order(self):
        with pytest.raises(ModelFileError):
            parse_model_document({"A": 0, "B": -1, "r": 1.0, "C": {"1,0": 1.0}})

    def test_missing_required(self):
        with pytest.raises(ModelFileError, match="'r'"):
            parse_model_document({"A": 0, "B": -1})

    def test_sweep_block_validation(self):
        base = {"A": 0, "B": -1, "r": 1.0}
        with pytest.raises(ModelFileError):
            parse_model_document({**base, "sweep": {"param": "C1,1", "min": 2, "max": -2, "points": 10}})
        with pytest.raises(ModelFileError):
            parse_model_document({**base, "sweep": {"param": "C1,1", "min": -2, "max": 2, "points": 1}})

    def test_sweep_points_cap(self):
        base = {"A": 0, "B": -1, "r": 1.0}
        cap = reduction.MAX_SWEEP_POINTS
        with pytest.raises(ModelFileError, match="from 2 to"):
            parse_model_document({**base, "sweep": {"param": "C1,1", "min": -2, "max": 2, "points": cap + 1}})
        mf = parse_model_document({**base, "sweep": {"param": "C1,1", "min": -2, "max": 2, "points": cap}})
        assert mf.sweep.points == cap

    def test_eps_grid_validation(self):
        base = {"A": 0, "B": -1, "r": 1.0}
        with pytest.raises(ModelFileError):
            parse_model_document({**base, "perturb": {"eps_grid": [1e-2, -5e-3, 1e-3]}})
        with pytest.raises(ModelFileError):
            parse_model_document({**base, "perturb": {"eps_grid": [1e-3, 5e-3, 1e-2]}})

    @pytest.mark.parametrize("command", ["roots", "analyze"])
    @pytest.mark.parametrize("field", [
        {"r": 10**400},
        {"C": {"2,0": 2.0, "1,1": -(10**400)}},
        {"perturb": {"eps_grid": [1e-2, 10**400, 1e-3]}},
        {"perturb": {"eps_grid": [math.inf, 1e-2, 1e-3]}},
    ], ids=["r", "C", "eps_grid", "eps_grid_infinity"])
    def test_number_too_large_for_float_exit_1(self, tmp_path, capsys, command, field):
        model = write_model(tmp_path, **field)
        assert main([command, "--model", model, "--out", str(tmp_path / "out.json")]) == 1
        assert "error[ModelFileError]" in capsys.readouterr().err


def strict_json(text):
    """json.loads refusing NaN and Infinity, which no JSON document may hold."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestOmegaHint:
    SWEEP = {"param": "C1,1", "min": -4.0, "max": 4.0, "points": 20}

    def run(self, tmp_path, command, hint):
        """Exit code and output path of ``command`` on the bundled model with
        ``hint``; every JSON document written must be strict JSON."""
        model = write_model(tmp_path, omega_hint=hint, sweep=self.SWEEP)
        out = tmp_path / "out"
        code = main([command, "--model", model, "--out", str(out)])
        if out.exists() and command in ("analyze", "perturb-check", "roots"):
            strict_json(out.read_text())
        return code, out

    @pytest.mark.parametrize("hint", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("command", ["analyze", "sweep", "perturb-check", "roots", "simulate"])
    def test_non_finite_hint_rejects_the_file(self, tmp_path, capsys, command, hint):
        # a NaN hint once reached the roots document as "omega": NaN
        code, out = self.run(tmp_path, command, hint)
        assert code == 1 and not out.exists()
        assert f"error[ModelFileError]: omega_hint must be finite, got {hint!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "sweep", "perturb-check", "roots"])
    def test_newton_past_the_floats_is_no_hopf_point(self, tmp_path, capsys, command):
        # 1e308 is finite, but Newton's steps from it leave the floats
        code, out = self.run(tmp_path, command, 1e308)
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert "error[NotHopfPointError]: Newton on Im F(i*omega) found no positive frequency" in err


class TestTolerance:
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("command", ["analyze", "sweep", "perturb-check", "roots"])
    def test_not_positive_and_finite_exit_1(self, tmp_path, capsys, command, tol):
        # nan and inf would accept any residual; 0 and -1 would reject the exact
        # Hopf point as not one
        model = write_model(tmp_path, sweep={"param": "C1,1", "min": -4.0, "max": 4.0, "points": 20})
        argv = [command, "--model", model, "--out", str(tmp_path / "out"), "--tol", tol]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"error[ValueError]: Hopf tolerance must be positive and finite, got {float(tol)!r}" in err


class TestAnalyze:
    def test_benchmark_report(self, tmp_path):
        model = write_model(tmp_path)
        out = str(tmp_path / "report.json")
        assert main(["analyze", "--model", model, "--out", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["version"] == 1
        w21_0 = complex(*doc["third_order"]["w21_0"])
        # triple-validated value for this system (see test_cmcore frozen constants)
        assert abs(w21_0 - W21_0_C1) <= 1e-9
        assert abs(doc["l1"]) <= 1e-6
        assert doc["oracle"]["gap"] <= 1e-6

    def test_bundled_report_within_drift_of_baseline(self, tmp_path):
        out = str(tmp_path / "report.json")
        assert main(["analyze", "--model", os.path.join(ROOT, "models", "benchmark.json"), "--out", out]) == 0
        with open(BASELINE_REPORT, encoding="utf-8") as fh:
            baseline = json.load(fh)
        assert report_drift(baseline, json.loads(open(out).read())) == []

    def test_drift_comparator_flags_changes(self):
        with open(BASELINE_REPORT, encoding="utf-8") as fh:
            base = json.load(fh)

        def drift(edit):
            doc = copy.deepcopy(base)
            edit(doc)
            return report_drift(base, doc)

        def shift(field, index, by):
            def edit(doc):
                field(doc)[index] += by
            return edit

        third, oracle = (lambda d: d["third_order"]["w21_0"]), (lambda d: d["oracle"]["extrapolated"])
        assert drift(lambda d: None) == []
        assert drift(shift(third, 0, 5e-14)) == []
        assert drift(shift(third, 0, 2e-13)) != []
        assert drift(shift(oracle, 1, 1e-12)) == []
        assert drift(shift(oracle, 1, 1e-11)) != []
        assert drift(lambda d: d["oracle"].update(gap=d["oracle"]["gap"] + 5e-13)) == []
        assert drift(lambda d: d["oracle"].update(gap=d["oracle"]["gap"] + 2e-12)) != []
        assert drift(lambda d: d.update(l1=d["l1"] + 2e-13)) != []
        assert drift(lambda d: d["hopf"].update(simple=1)) != []
        assert drift(lambda d: d["third_order"].pop("Delta")) != []
        assert drift(lambda d: d["second_order"]["profiles"]["w20"]["terms"].pop()) != []

    def test_trivial_model(self, tmp_path):
        model = write_model(tmp_path, C={})
        out = str(tmp_path / "report.json")
        assert main(["analyze", "--model", model, "--out", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["l1"] == 0.0
        assert doc["second_order"]["f20"] == [0.0, 0.0]
        assert doc["third_order"]["w21_0"] == [0.0, 0.0]

    def test_report_supports_offline_reverification(self, tmp_path):
        """Serialized numbers alone must carry enough digits to re-check the
        pipeline identities."""
        from ddecm.exppoly import ExpMonomial, ExpPoly

        model = write_model(tmp_path)
        out = str(tmp_path / "report.json")
        assert main(["analyze", "--model", model, "--out", out]) == 0
        doc = json.loads(open(out).read())
        t = doc["third_order"]
        psi0 = complex(*doc["eigen"]["Psi1_at_0"])
        f21 = complex(*t["f21"])
        g21 = complex(*t["g21"])
        assert abs(g21 - psi0 * f21) <= 1e-15 * (1 + abs(g21))
        prof = ExpPoly(
            tuple(
                ExpMonomial(complex(*term["coeff"]), complex(*term["rate"]), term["degree"])
                for term in t["w21_profile"]["terms"]
            ),
            tuple(t["w21_profile"]["domain"]),
        )
        w21_0 = complex(*t["w21_0"])
        w21_mr = complex(*t["w21_mr"])
        assert abs(prof.eval(0.0) - w21_0) <= 1e-13 * (1 + abs(w21_0))
        assert abs(prof.eval(-doc["model"]["r"]) - w21_mr) <= 1e-10 * (1 + abs(w21_mr))

    def test_byte_identical_reports(self, tmp_path):
        model = write_model(tmp_path)
        out1 = str(tmp_path / "r1.json")
        out2 = str(tmp_path / "r2.json")
        assert main(["analyze", "--model", model, "--out", out1]) == 0
        assert main(["analyze", "--model", model, "--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["analyze", "--model", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r.json")]) == 1

    def test_not_a_hopf_model_exit_2(self, tmp_path, capsys):
        model = write_model(tmp_path, A=-1.0, B=-0.3, r=1.0, omega_hint=None)
        assert main(["analyze", "--model", model, "--out", str(tmp_path / "r.json")]) == 2
        assert "NotHopfPointError" in capsys.readouterr().err

    def test_zero_eigenvalue_exit_2(self, tmp_path, capsys):
        # A + B = 0 with a sloppily-verified "Hopf" frequency: the quadratic
        # stage must refuse (the w11 system is singular)
        model = write_model(tmp_path, A=1.0, B=-1.0, r=2.0, C={"2,0": 1.0}, omega_hint=0.9477)
        code = main(["analyze", "--model", model, "--out", str(tmp_path / "r.json"), "--tol", "10"])
        assert code == 2
        assert "ZeroEigenvalueError" in capsys.readouterr().err
        # a true fold-Hopf point, where the w20 system is singular as well
        lin = hopf_curve_model(1e-6, 1e-6, 1, {}).lin
        model = write_model(tmp_path, A=lin.A, B=lin.B, r=lin.r, C={"2,0": 1.0}, omega_hint=1e-6)
        assert main(["analyze", "--model", model, "--out", str(tmp_path / "r.json")]) == 2
        assert "error[ZeroEigenvalueError]: w11 system singular" in capsys.readouterr().err

    def test_degenerate_pairing_exit_2(self, tmp_path, capsys):
        lin = hopf_curve_model(1.0, 1e-7, 0, {}).lin
        model = write_model(tmp_path, A=lin.A, B=lin.B, r=lin.r, C={"2,0": 1.0}, omega_hint=None)
        assert main(["analyze", "--model", model, "--out", str(tmp_path / "r.json")]) == 2
        assert "error[DegenerateSystemError]: pairing matrix is degenerate" in capsys.readouterr().err

    def test_large_b_r_point_matches_collocation(self, tmp_path):
        # |B| r ~ 3.1e4: pairing checks with bounds that do not scale with |B| r
        # refuse this point on rounding alone ("pairing e11 ... differs from its closed form")
        C = {**SUPERCRITICAL_C, (2, 1): 0.7, (0, 3): -0.4}
        lin = hopf_curve_model(1.0, math.pi + 1e-4, 0, C).lin
        assert abs(lin.B) * lin.r > 3e4
        model = write_model(tmp_path, A=lin.A, B=lin.B, r=lin.r,
                            C={f"{j},{k}": v for (j, k), v in C.items()})
        out = tmp_path / "report.json"
        assert main(["analyze", "--model", model, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        w21_0 = complex(*doc["third_order"]["w21_0"])
        for n in (24, 40):
            ref = collocation_manifold(lin.A, lin.B, lin.r, doc["hopf"]["omega"], C, n=n)
            assert abs(w21_0 - ref.w21_0) <= 1e-12 * abs(ref.w21_0)
            assert abs(doc["l1"] - ref.l1) <= 1e-12 * abs(ref.l1)
        assert doc["oracle"]["gap"] <= 1e-9 * abs(w21_0)

    def test_unknown_key_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"A": 0, "B": -1, "r": 1.0, "bogus": True}))
        assert main(["analyze", "--model", str(path), "--out", str(tmp_path / "r.json")]) == 1
        assert "bogus" in capsys.readouterr().err


class TestSweep:
    def test_benchmark_roots_in_csv(self, tmp_path):
        model = write_model(
            tmp_path,
            C={"2,0": 2.0},
            sweep={"param": "C1,1", "min": -4.0, "max": 4.0, "points": 200},
        )
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--model", model, "--out", out]) == 0
        text = open(out).read()
        header = text.splitlines()[0]
        assert header.startswith("# roots =")
        roots = [float(tok) for tok in header.split("=")[1].split()]
        assert len(roots) == 2
        assert abs(roots[0] - C2) <= 1e-5 and abs(roots[1] - C1) <= 1e-5
        assert text.splitlines()[1] == "C1,1,l1"

    def test_root_pair_inside_one_grid_cell(self, tmp_path):
        model = write_model(
            tmp_path, C={"2,0": 2.0}, sweep={"param": "C1,1", "min": -4.0, "max": 4.0, "points": 2}
        )
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--model", model, "--out", out]) == 0
        lines = open(out).read().splitlines()
        roots = [float(tok) for tok in lines[0].split("=")[1].split()]
        assert roots == pytest.approx([C2, C1], abs=1e-9)
        assert len(lines) == 4

    def test_repeat_runs_byte_identical(self, tmp_path):
        model = write_model(
            tmp_path, C={"2,0": 2.0}, sweep={"param": "C1,1", "min": -4.0, "max": 4.0, "points": 200}
        )
        texts = []
        for name in ("a.csv", "b.csv"):
            assert main(["sweep", "--model", model, "--out", str(tmp_path / name)]) == 0
            texts.append((tmp_path / name).read_bytes())
        assert texts[0] == texts[1]

    def test_failed_quadratic_check_exit_2(self, tmp_path, capsys, monkeypatch):
        # a cubic term in the swept value breaks the fourth evaluation's check
        swept = []

        def recording(model, eig):
            swept.append(model.c(1, 1))
            return second_order(model, eig)

        monkeypatch.setattr(reduction, "second_order", recording)
        monkeypatch.setattr(reduction, "lyapunov_l1", lambda red: lyapunov_l1(red) + 1e-6 * swept[-1] ** 3)
        model = write_model(
            tmp_path, C={"2,0": 2.0}, sweep={"param": "C1,1", "min": -4.0, "max": 4.0, "points": 20}
        )
        assert main(["sweep", "--model", model, "--out", str(tmp_path / "s.csv")]) == 2
        assert "error[InconsistencyError]" in capsys.readouterr().err

    def test_points_beyond_cap_exit_1(self, tmp_path, capsys, monkeypatch):
        # the model file is rejected before the sweep builds anything
        swept = []
        monkeypatch.setattr(cli, "sweep_l1_zeros", lambda *args, **kwargs: swept.append(args))
        model = write_model(tmp_path, sweep={"param": "C1,1", "min": -4.0, "max": 4.0, "points": 10**30})
        assert '"points": 1000000000000000000000000000000' in open(model).read()
        assert main(["sweep", "--model", model, "--out", str(tmp_path / "s.csv")]) == 1
        assert swept == []
        err = capsys.readouterr().err
        assert "error[ModelFileError]" in err and "points" in err

    def test_missing_sweep_block(self, tmp_path):
        model = write_model(tmp_path)
        assert main(["sweep", "--model", model, "--out", str(tmp_path / "s.csv")]) == 1

    def test_malformed_range_exit_1(self, tmp_path):
        model = write_model(tmp_path, sweep={"param": "C1,1", "min": 4.0, "max": -4.0, "points": 10})
        assert main(["sweep", "--model", model, "--out", str(tmp_path / "s.csv")]) == 1

    # a non-canonical spelling of C1,1 or C0,2 was once swept and echoed
    # into the CSV header as given: "C+1,+1,l1"
    @pytest.mark.parametrize("param", ["A", "B", "r", "C1,0", "C2", "C+1,+1", "C 1, 1", "C-0,2", "C01,1", "C1,1 "])
    def test_only_taylor_coefficients_sweep(self, tmp_path, capsys, param):
        model = write_model(tmp_path, sweep={"param": param, "min": -1.2, "max": -0.8, "points": 10})
        assert main(["sweep", "--model", model, "--out", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err
        assert "error[ModelFileError]" in err and repr(param) in err and "'Cj,k'" in err

    @pytest.mark.parametrize("command", ["analyze", "sweep"])
    @pytest.mark.parametrize("sweep,words", [
        ({"param": "C1,1", "min": -1.2, "max": -0.8, "points": 1}, "from 2 to"),
        ({"param": "A", "min": -1.2, "max": -0.8, "points": 10}, "'Cj,k'"),
        # both once loaded, then failed in the pipeline naming a coefficient
        ({"param": "C1,1", "min": -math.inf, "max": math.inf, "points": 10}, "[-inf, inf] must have a finite width"),
        ({"param": "C1,1", "min": -1e308, "max": 1e308, "points": 10}, "[-1e+308, 1e+308] must have a finite width"),
        # a finite width, but the midpoint overflowed to inf
        ({"param": "C1,1", "min": 1e308, "max": 1.7e308, "points": 10}, "[1e+308, 1.7e+308] must have a finite width"),
    ])
    def test_bad_sweep_block_rejects_the_file(self, tmp_path, capsys, command, sweep, words):
        # the sweep block is validated when the file loads, whichever command reads it
        model = write_model(tmp_path, sweep=sweep)
        assert main([command, "--model", model, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[ModelFileError]: ") and words in err
        assert not (tmp_path / "out").exists()

    def test_empty_template_empty_roots(self, tmp_path):
        model = write_model(
            tmp_path, C={}, sweep={"param": "C1,1", "min": 3.0, "max": 4.0, "points": 20}
        )
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--model", model, "--out", out]) == 0
        assert open(out).read().splitlines()[0] == "# roots ="


class TestPerturbCheck:
    def test_benchmark_gap_printed(self, tmp_path, capsys):
        model = write_model(tmp_path)
        out = str(tmp_path / "check.json")
        assert main(["perturb-check", "--model", model, "--out", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["gap"] <= 1e-6
        assert len(doc["estimates"]) == 4
        assert "gap to closed form" in capsys.readouterr().out

    def test_document_is_the_analyze_oracle_block(self, tmp_path):
        model = os.path.join(ROOT, "models", "benchmark.json")
        check, report = str(tmp_path / "check.json"), str(tmp_path / "report.json")
        assert main(["perturb-check", "--model", model, "--out", check]) == 0
        assert main(["analyze", "--model", model, "--out", report]) == 0
        oracle = json.loads(open(report).read())["oracle"]
        assert open(check).read() == dump_json(oracle)

    def test_trivial_model_gap_zero(self, tmp_path):
        model = write_model(tmp_path, C={})
        out = str(tmp_path / "check.json")
        assert main(["perturb-check", "--model", model, "--out", out]) == 0
        assert json.loads(open(out).read())["gap"] == 0.0

    def test_negative_grid_entry_exit_1(self, tmp_path):
        model = write_model(tmp_path, perturb={"eps_grid": [1e-2, -5e-3, 1e-3]})
        assert main(["perturb-check", "--model", model, "--out", str(tmp_path / "c.json")]) == 1

    def test_nan_grid_entry_exit_1(self, tmp_path, capsys):
        # the model file and --eps-grid share one validation rule
        model = write_model(tmp_path, perturb={"eps_grid": [1e-2, math.nan, 1e-3]})
        assert main(["perturb-check", "--model", model, "--out", str(tmp_path / "c.json")]) == 1
        model = write_model(tmp_path, name="plain.json")
        argv = ["perturb-check", "--model", model, "--out", str(tmp_path / "c.json")]
        assert main(argv + ["--eps-grid", "1e-2,nan,1e-3"]) == 1
        assert main(argv + ["--eps-grid", "1e-2,x,1e-3"]) == 1
        assert capsys.readouterr().err.count("error[ModelFileError]") == 3

    def test_cli_grid_override(self, tmp_path):
        model = write_model(tmp_path)
        out = str(tmp_path / "check.json")
        code = main([
            "perturb-check", "--model", model, "--out", out,
            "--eps-grid", "2e-2,1e-2,5e-3,2.5e-3",
        ])
        assert code == 0
        assert json.loads(open(out).read())["eps_grid"] == [2e-2, 1e-2, 5e-3, 2.5e-3]


class TestSimulate:
    def test_tol_rejected(self, tmp_path):
        # simulate verifies no Hopf point, so it has no tolerance to take
        model = write_model(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--model", model, "--out", str(tmp_path / "t.csv"), "--tol", "123"])
        assert exit_info.value.code == 2

    def test_zero_history_zero_csv(self, tmp_path):
        model = write_model(tmp_path, sim={"history": 0.0})
        out = str(tmp_path / "traj.csv")
        assert main(["simulate", "--model", model, "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "t,x"
        assert all(float(line.split(",")[1]) == 0.0 for line in lines[1:])

    def test_flat_trajectory_reports_no_frequency(self, tmp_path, capsys):
        # x = 0 has no zero crossings, so simulate states no frequency
        model = write_model(tmp_path, sim={"history": 0})
        assert main(["simulate", "--model", model, "--out", str(tmp_path / "traj.csv")]) == 0
        assert capsys.readouterr().err == "simulate: 2001 samples\n"

    @pytest.mark.parametrize("field", ["dt", "horizon"])
    @pytest.mark.parametrize("value", [0, 0.0, -0.04])
    def test_non_positive_step_or_horizon_exit_1(self, tmp_path, capsys, field, value):
        # zero is a value, not an absent key: it fails like any non-positive one
        model = write_model(tmp_path, sim={field: value})
        assert main(["simulate", "--model", model, "--out", str(tmp_path / "traj.csv")]) == 1
        assert f"error[ValueError]: {field} must be positive" in capsys.readouterr().err
        # only simulate runs the sim block: the other subcommands take the file
        assert main(["roots", "--model", model, "--out", str(tmp_path / "roots.json")]) == 0

    def test_linear_period(self, tmp_path):
        model = write_model(tmp_path, C={}, sim={"history": 0.01})
        out = str(tmp_path / "traj.csv")
        assert main(["simulate", "--model", model, "--out", out]) == 0
        rows = [line.split(",") for line in open(out).read().splitlines()[1:]]
        ts = [float(a) for a, _ in rows]
        xs = [float(b) for _, b in rows]
        # zero-crossing period estimate: expect 2 pi within 1%
        crossings = [
            ts[i] - xs[i] * (ts[i + 1] - ts[i]) / (xs[i + 1] - xs[i])
            for i in range(len(xs) - 1)
            if xs[i] * xs[i + 1] < 0 and ts[i] > 10 * R2_R
        ]
        period = 2 * (crossings[-1] - crossings[0]) / (len(crossings) - 1)
        assert abs(period - 2 * math.pi) <= 0.01 * 2 * math.pi

    def test_csv_matches_numpy_scalar_rendering(self, tmp_path):
        model = write_model(tmp_path, sim={"history": 0.01})
        out = str(tmp_path / "traj.csv")
        assert main(["simulate", "--model", model, "--out", out]) == 0
        mf = load_model_file(model)
        r = mf.model.lin.r
        traj = integrate_dde(mf.model, SimConfig(dt=r / 40.0, horizon=50.0 * r, history=0.01))
        lines = ["t,x"]
        lines.extend(f"{t:.17g},{x:.17g}" for t, x in zip(traj.times, traj.values))
        assert open(out).read() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("sim", [
        {"horizon": 1e12},
        {"dt": 1e-9},
        {"dt": 5e-324, "horizon": 1e308},
        # horizon / dt = 999000, but the step snaps to r / 21: 1048426 steps
        {"dt": R2_R / 20.01, "horizon": 999_000 * R2_R / 20.01},
    ])
    def test_step_cap_exit_1(self, tmp_path, sim):
        # in a process of its own, so that a run which is not stopped fails at
        # the timeout instead of hanging the suite
        model = write_model(tmp_path, sim=sim)
        env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "ddecm.cli", "simulate", "--model", model, "--out", str(tmp_path / "t.csv")],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 1
        assert f"steps exceeds {MAX_SIM_STEPS}" in proc.stderr
        assert not os.path.exists(tmp_path / "t.csv")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_history_exit_1(self, tmp_path, capsys, value):
        # a history that is no finite number is a bad file value, not a divergence
        model = write_model(tmp_path, sim={"history": value})
        out = tmp_path / "t.csv"
        assert main(["simulate", "--model", model, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error[ValueError]: history must be finite\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:history amplitude")
    def test_huge_finite_history_diverges(self, tmp_path, capsys):
        model = write_model(tmp_path, sim={"history": 1e308})
        assert main(["simulate", "--model", model, "--out", str(tmp_path / "t.csv")]) == 2
        assert "error[DivergenceError]: |x| exceeded 1e+06 at t = 0" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:history amplitude")
    def test_blow_up_exit_2(self, tmp_path, capsys):
        model = write_model(tmp_path, C={"2,0": 2.0}, sim={"history": 10.0})
        code = main(["simulate", "--model", model, "--out", str(tmp_path / "t.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "DivergenceError" in err and "t =" in err


class TestRoots:
    def test_benchmark_count(self, tmp_path):
        model = write_model(tmp_path)
        out = str(tmp_path / "roots.json")
        assert main(["roots", "--model", model, "--out", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["count"] == 2 and doc["expected"] == 2
        assert doc["crossing"] == 0 and "rectangle" not in doc

    def test_later_crossing_with_unstable_roots(self, tmp_path, capsys):
        # omega = 1, theta = 4 (B > 0), second crossing: 2 + 2 + [A + B > 0] = 5
        A, B, r = 1.0 / math.tan(4.0), -1.0 / math.sin(4.0), 4.0 + 2.0 * math.pi
        model = write_model(tmp_path, A=A, B=B, r=r, omega_hint=None)
        out = str(tmp_path / "roots.json")
        assert main(["roots", "--model", model, "--out", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["count"] == 5 and doc["crossing"] == 1
        assert doc["omega"] == pytest.approx(1.0, rel=1e-12)
        captured = capsys.readouterr()
        assert "crossing 1" in captured.out
        # one line in the error format, free of the install path and source line
        assert captured.err == (
            "warning[SpectrumAuditWarning]: spectrum audit counted 5 roots with nonnegative "
            "real part (expected 2, the critical pair alone)\n"
        )
        assert "cli.py" not in captured.err

    def test_point_with_no_crossing_is_no_hopf_point(self, tmp_path, capsys):
        # |B| = |A| with a hint and a loose --tol: the hint passes verification,
        # but no crossing has happened, so i * omega is no root
        model = write_model(tmp_path, A=1.0, B=-1.0, r=2.0, C={"2,0": 1.0}, omega_hint=0.9477)
        out = tmp_path / "roots.json"
        assert main(["roots", "--model", model, "--out", str(out), "--tol", "10"]) == 2
        assert "error[NotHopfPointError]" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("argv", [["roots"], ["analyze", "--no-oracle"]])
    def test_b_below_a_is_no_hopf_point_whatever_the_hint(self, tmp_path, capsys, argv):
        # |B| < |A| leaves no root on the axis; Newton from the hint once drifted
        # toward omega -> 0, and a loose --tol let roots accept omega = 1.01e-07
        model = write_model(tmp_path, A=-1.2, B=-1.0, r=1.0, C={"2,0": 1.0}, omega_hint=0.5)
        out = tmp_path / "out.json"
        assert main([argv[0], "--model", model, "--out", str(out), *argv[1:], "--tol", "10"]) == 2
        assert "error[NotHopfPointError]: |B| = 1 <= |A| = 1.2" in capsys.readouterr().err
        assert not out.exists()


class TestParser:
    BUNDLED = os.path.join(ROOT, "models", "benchmark.json")

    def test_reused_parser_writes_what_a_fresh_process_writes(self, tmp_path, capsys):
        # one parser serves every call of a process, after usage errors and --help too
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", "--model", self.BUNDLED])
        assert exit_info.value.code == 2
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", "--help"])
        assert exit_info.value.code == 0
        assert "--no-oracle" in capsys.readouterr().out
        runs = [("analyze", []), ("sweep", []), ("perturb-check", []), ("roots", []), ("analyze", ["--tol", "1e-9"])]
        env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
        for n, (command, extra) in enumerate(runs):
            here, fresh = tmp_path / f"{n}-here.out", tmp_path / f"{n}-fresh.out"
            assert main([command, "--model", self.BUNDLED, "--out", str(here), *extra]) == 0
            argv = [command, "--model", self.BUNDLED, "--out", str(fresh), *extra]
            subprocess.run([sys.executable, "-m", "ddecm.cli", *argv], env=env, check=True,
                           capture_output=True, timeout=60)
            assert here.read_bytes() == fresh.read_bytes()

    def test_import_builds_no_parser(self):
        # importing the CLI, which the benchmark's setup time measures, builds nothing;
        # the first main call builds the parser and later calls reuse it
        code = (
            "import ddecm.cli as cli\n"
            "print(cli._build_parser.cache_info().currsize)\n"
            "for _ in range(2):\n"
            "    try:\n"
            "        cli.main(['roots'])\n"
            "    except SystemExit:\n"
            "        pass\n"
            "info = cli._build_parser.cache_info()\n"
            "print(info.currsize, info.misses, info.hits)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        assert proc.stdout.split("\n") == ["0", "1 1 1", ""]
