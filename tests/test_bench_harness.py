"""The benchmark harness in ``bench/`` still runs against the package: its
modules import, the sweep replay interposes only names that exist, and each
probe replay writes what the CLI writes.

``bench/tests`` exercises the harness itself; this module keeps a change to
``src/`` that breaks the harness from passing the package's own suite.
"""

import importlib.util
import math
import os
import sys
import types

import pytest

import ddecm.cli as cli
import ddecm.reduction as reduction

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
# dependencies first: each module imports the ones before it by name
MODULES = ("hopfgen", "tracing", "checks", "workloads", "run")


@pytest.fixture
def bench(monkeypatch):
    """The harness modules, each loaded from its file and registered under
    its own name for the length of one test."""
    loaded = {}
    for name in MODULES:
        spec = importlib.util.spec_from_file_location(name, os.path.join(BENCH, name + ".py"))
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        loaded[name] = module
    return loaded


def test_harness_modules_import(bench):
    assert set(bench["run"].WORKLOAD_NAMES) == set(bench["workloads"].WORKLOADS)
    assert callable(bench["checks"].check_report)


def test_sweep_callees_exist_in_reduction(bench):
    callees = bench["workloads"]._SWEEP_CALLEES
    assert callees
    missing = [name for name in callees if not hasattr(reduction, name)]
    assert not missing, f"bench/workloads.py interposes names ddecm.reduction lacks: {missing}"


def test_traced_run_measurements(bench):
    # only a --trace 1 run calls these two, so nothing else in this suite
    # notices when a name they import leaves the package
    run = bench["run"]
    model = os.path.join(os.path.dirname(BENCH), "models", "benchmark.json")
    runner = types.SimpleNamespace(items=[bench["workloads"].bundled_item(model)])
    micro_us = run.exppoly_micro({}, runner)
    numpy_s, ddecm_s = run.measure_imports()
    for value in (micro_us, numpy_s, ddecm_s):
        assert math.isfinite(value) and value > 0


def test_probe_replays_match_cli(bench, tmp_path):
    # the harness counts a failing replay only as a lower match ratio, so a
    # name it replays that breaks in src/ must fail here
    workloads = bench["workloads"]
    model = os.path.join(os.path.dirname(BENCH), "models", "benchmark.json")
    item = workloads.bundled_item(model)
    for name, args, replay in workloads.PROBES:
        out = str(tmp_path / f"{name}.out")
        assert cli.main([args[0], "--model", model, "--out", out, *args[1:]]) == 0
        text, _ = replay(bench["tracing"].Tracer(), item, model, out + ".replay")
        with open(out, encoding="utf-8") as fh:
            assert text == fh.read(), f"{name}: the replay differs from the CLI output"
