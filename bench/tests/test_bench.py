"""Tests of the benchmark itself: generator, checks, tracer and a smoke run.

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import cmath
import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

import checks
import hopfgen
from tracing import Tracer
from workloads import WORKLOADS, bundled_item

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
BUNDLED = os.path.join(ROOT, "models", "benchmark.json")


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _cli(tmp_path, *args):
    from ddecm.cli import main

    out = str(tmp_path / "out")
    assert main([args[0], "--model", args[1], "--out", out, *args[2:]]) == 0
    return _read(out)


def test_generator_is_byte_deterministic_per_seed(tmp_path):
    def files(seed, name):
        paths = hopfgen.write_models(hopfgen.sample(seed, 24, sweep=True), str(tmp_path / name))
        return [_read(p) for p in paths]

    assert files(5, "a") == files(5, "b")
    assert files(5, "a") != files(6, "c")


def test_generator_strata_and_hopf_points():
    items = hopfgen.sample(9, 60)
    for k in (0, 1, 2):
        for positive in (False, True):
            assert sum(it.k == k and (it.B > 0) == positive for it in items) == 10
    for it in items:
        assert (it.A + it.B > 0) == (it.B > 0)
        assert min(it.theta % cmath.pi, cmath.pi - it.theta % cmath.pi) >= hopfgen.THETA_MARGIN
        assert hopfgen.OMEGA_RANGE[0] <= it.omega <= hopfgen.OMEGA_RANGE[1]
        lam = 1j * it.omega
        assert abs(lam - it.A - it.B * cmath.exp(-lam * it.r)) <= 1e-12 * (1 + abs(it.B))
    with pytest.raises(ValueError):
        hopfgen.sample(1, 7)


def test_report_check_fires_on_corrupted_output(tmp_path):
    item = bundled_item(BUNDLED)
    text = _cli(tmp_path, "analyze", BUNDLED)
    assert checks.check_report(item, text, oracle=True, audit=False, bundled=True).ok

    doc = json.loads(text)
    doc["l1"] = -doc["l1"] + 1e-6
    assert checks.check_report(item, json.dumps(doc), True, False).kind == "l1_mismatch"
    doc = json.loads(text)
    doc["third_order"]["w21_mr"][0] += 1e-3
    assert checks.check_report(item, json.dumps(doc), True, False).kind == "w21_row1"
    doc = json.loads(text)
    doc["third_order"]["R2"][1] += 1e-3
    assert checks.check_report(item, json.dumps(doc), True, False).kind == "w21_row2"
    doc = json.loads(text)
    doc["oracle"]["extrapolated"][0] += 1.0
    v = checks.check_report(item, json.dumps(doc), True, False)
    assert (v.kind, v.known) == ("oracle_gap", True)


def test_bundled_l1_check_uses_the_closed_form_zero(tmp_path):
    item = bundled_item(BUNDLED)
    text = _cli(tmp_path, "analyze", BUNDLED, "--no-oracle")
    assert checks.check_report(item, text, oracle=False, audit=False, bundled=True).ok
    doc = json.loads(text)
    doc["third_order"]["g21"][0] += 2e-6  # l1 moves by 1e-6 and stays consistent with g
    doc["l1"] += 1e-6
    assert checks.check_report(item, json.dumps(doc), False, False).ok
    assert checks.check_report(item, json.dumps(doc), False, False, bundled=True).kind == "bundled_l1"


def test_root_count_check_fires_on_wrong_count(tmp_path):
    item = bundled_item(BUNDLED)
    text = _cli(tmp_path, "analyze", BUNDLED, "--no-oracle", "--audit")
    assert checks.check_report(item, text, oracle=False, audit=True).ok
    doc = json.loads(text)
    doc["root_count"] += 1
    v = checks.check_report(item, json.dumps(doc), oracle=False, audit=True)
    assert (v.kind, v.known) == ("count_mismatch", True)


def test_sweep_check_fires_on_wrong_root_or_value(tmp_path):
    item = bundled_item(BUNDLED)
    text = _cli(tmp_path, "sweep", BUNDLED)
    assert WORKLOADS["sweep"].check(item, text).ok
    head, rest = text.split("\n", 1)
    roots = head.split("=")[1].split()
    bad = "# roots = " + " ".join([roots[0], repr(float(roots[1]) + 1e-3)]) + "\n" + rest
    assert WORKLOADS["sweep"].check(item, bad).kind == "sweep_roots"
    lines = text.splitlines()
    x, v = lines[10].split(",")
    lines[10] = f"{x},{float(v) + 1e-3!r}"
    assert WORKLOADS["sweep"].check(item, "\n".join(lines) + "\n").kind == "sweep_values"


def test_sweep_check_knows_the_grid_cannot_see_a_close_root_pair():
    item = bundled_item(BUNDLED)
    a, b = -1.019, -1.0047  # both inside the grid cell [-1.0352, -0.9950]

    def text(roots):
        lo, hi = hopfgen.SWEEP_RANGE
        xs = [lo + (hi - lo) * i / (hopfgen.SWEEP_POINTS - 1) for i in range(hopfgen.SWEEP_POINTS)]
        rows = [f"{x!r},{(x - a) * (x - b)!r}" for x in xs]
        head = ("# roots = " + " ".join(f"{r:.12g}" for r in roots)).rstrip()
        return "\n".join([head, "C1,1,l1", *rows]) + "\n"

    fitted = tuple((x - a) * (x - b) for x in (-4.0, 0.0, 4.0))
    v = checks.check_sweep(item, text([]), fitted)
    assert (v.kind, v.known) == ("sweep_missed_pair", True)
    assert checks.check_sweep(item, text([a, b]), fitted).ok
    v = checks.check_sweep(item, text([a]), fitted)
    assert (v.kind, v.known) == ("sweep_roots", False)


def test_quadratic_roots_are_cancellation_free():
    assert checks.quadratic_roots(2.0, -3.0, 1.0, -4, 4) == [1.0, 2.0]
    assert checks.quadratic_roots(-1.0, 2.0, 0.0, -4, 4) == [0.5]
    assert checks.quadratic_roots(1.0, 0.0, 1.0, -4, 4) == []
    small = checks.quadratic_roots(1e-12, 1.0, 1.0, -4, 4)
    assert small[1] == pytest.approx(-1e-12, rel=1e-10)  # the naive formula is off by 1e-4


def test_trajectory_check_fires_on_wrong_frequency(tmp_path):
    item = bundled_item(BUNDLED)
    text = _cli(tmp_path, "simulate", BUNDLED)
    assert checks.check_trajectory(item, text).ok
    lines = text.splitlines()
    stretched = [lines[0]] + [f"{float(t) * 1.05!r},{x}" for t, x in (ln.split(",") for ln in lines[1:])]
    assert checks.check_trajectory(item, "\n".join(stretched) + "\n").kind == "sim_frequency"
    lines[500] = lines[500].split(",")[0] + ",nan"
    assert checks.check_trajectory(item, "\n".join(lines) + "\n").kind == "not_finite"


def test_work_limit_counts_evaluations_not_time(monkeypatch):
    import ddecm.chareq as chareq
    import run

    monkeypatch.setattr(chareq, "char_value", chareq.char_value)  # undone after the test
    budget = run.EvalBudget(1000)
    item = bundled_item(BUNDLED)
    lin = chareq.LinearPart(item.A, item.B, item.r)
    hopf = chareq.find_critical_frequency(lin)
    old = signal.signal(signal.SIGALRM, run._alarm)
    try:
        with pytest.raises(run.WorkLimit), budget.armed():
            chareq.audit_spectrum(lin, hopf)
        assert chareq.audit_spectrum(lin, hopf) == 2  # disarmed: no limit
        budget.limit = run.EVAL_LIMIT
        with budget.armed():
            assert chareq.audit_spectrum(lin, hopf) == 2
            used = run.EVAL_LIMIT - budget.left
        with budget.armed():
            chareq.audit_spectrum(lin, hopf)
            assert run.EVAL_LIMIT - budget.left == used
    finally:
        signal.signal(signal.SIGALRM, old)


def test_tracer_self_time_subtracts_children():
    tr = Tracer()
    tr.item = "a"
    with tr.span("outer"):
        with tr.span("inner"):
            sum(range(10000))
        with tr.span("inner"):
            pass
    self_s = tr.self_times()
    outer = next(t1 - t0 for _, name, t0, t1, _, _ in tr.spans if name == "outer")
    assert abs(self_s[("a", "outer")] + self_s[("a", "inner")] - outer) < 1e-12
    assert [s[4] for s in tr.spans].count(-1) == 1


def test_benchmark_json_matches_the_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}


def _run(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_metric(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    proc = _run(["--workload", "analyze", "--seed", "3", "--seconds", "0.05", "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] == 121
    assert set(result["metrics"]) == {m["name"] for m in spec[section]}
    for m in spec[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = _run(["--workload", "analyze", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
