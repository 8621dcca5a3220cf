"""Command-line interface: documents, exit codes, determinism."""

import json
import math

import pytest

import ddecm.reduction as reduction
from ddecm.cli import main
from ddecm.cmcore import second_order
from ddecm.ddesim import SimConfig, integrate_dde
from ddecm.errors import ModelFileError, SpectrumAuditWarning
from ddecm.modelio import load_model_file, parse_model_document
from ddecm.reduction import lyapunov_l1

from conftest import C1, C2, R2_R
from test_cmcore import W21_0_C1


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

    def test_unknown_key_named(self):
        with pytest.raises(ModelFileError, match="frobnicate"):
            parse_model_document({"A": 0, "B": -1, "r": 1.0, "frobnicate": 1})

    def test_bad_c_key(self):
        with pytest.raises(ModelFileError, match="j,k"):
            parse_model_document({"A": 0, "B": -1, "r": 1.0, "C": {"x": 1.0}})

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

    def test_missing_sweep_block(self, tmp_path):
        model = write_model(tmp_path)
        assert main(["sweep", "--model", model, "--out", str(tmp_path / "s.csv")]) == 1

    def test_malformed_range_exit_1(self, tmp_path):
        model = write_model(tmp_path, sweep={"param": "C1,1", "min": 4.0, "max": -4.0, "points": 10})
        assert main(["sweep", "--model", model, "--out", str(tmp_path / "s.csv")]) == 1

    @pytest.mark.parametrize("param", ["A", "B", "r", "C1,0", "C2"])
    def test_only_taylor_coefficients_sweep(self, tmp_path, capsys, param):
        model = write_model(tmp_path, sweep={"param": param, "min": -1.2, "max": -0.8, "points": 10})
        assert main(["sweep", "--model", model, "--out", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err
        assert "error[ValueError]" in err and repr(param) in err and "'Cj,k'" in err

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
    def test_zero_history_zero_csv(self, tmp_path):
        model = write_model(tmp_path, sim={"history": 0.0})
        out = str(tmp_path / "traj.csv")
        assert main(["simulate", "--model", model, "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "t,x"
        assert all(float(line.split(",")[1]) == 0.0 for line in lines[1:])

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
        with pytest.warns(SpectrumAuditWarning):
            assert main(["roots", "--model", model, "--out", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["count"] == 5 and doc["crossing"] == 1
        assert doc["omega"] == pytest.approx(1.0, rel=1e-12)
        assert "crossing 1" in capsys.readouterr().out
