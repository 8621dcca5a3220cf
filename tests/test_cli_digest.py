"""tools/cli_digest.py: digests of every subcommand on the bundled models and
of the error group, and the comparison that lists the runs whose digests differ."""

import hashlib
import importlib.util
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "cli_digest.py")


@pytest.fixture
def tool(monkeypatch):
    """The tool's module, loaded from its file; ``sys.path`` is restored after."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # digest_tree prepends the tree's src
    spec = importlib.util.spec_from_file_location("cli_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bundled_models_digest_and_compare(tool, tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    digests = tool.digest_tree(ROOT, ())
    # six subcommands on each of the two bundled models, and the error group
    n = 12 + sum(len(commands) for _, _, commands in tool.ERROR_EDITS)
    assert len(digests) == n
    assert "analyze --no-oracle --audit wright.json" in digests
    assert len({d for run, d in digests.items() if "errors/" not in run}) == 12

    # a failing run is digested as its exit code and error line, with no output file
    err = "error[ModelFileError]: eps_grid entries must be positive, finite and below 1, got (1e+300, 5e+299, 2.5e+299)\n"
    record = json.dumps({"code": 1, "out": None, "stdout": "", "stderr": err}, sort_keys=True)
    assert digests["perturb-check errors/eps_huge.json"] == hashlib.sha256(record.encode()).hexdigest()

    # the timing line aside, a run writes the same bytes every time
    for path in (a, b):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tool.digest_tree(ROOT, ()), fh)
    capsys.readouterr()
    assert tool.compare(a, b) == 0
    assert capsys.readouterr() == ("", f"{n} of {n} runs match\n")

    digests["sweep benchmark.json"] = "0" * 64
    del digests["roots wright.json"]
    with open(b, "w", encoding="utf-8") as fh:
        json.dump(digests, fh)
    assert tool.compare(a, b) == 1
    assert capsys.readouterr() == ("roots wright.json\nsweep benchmark.json\n", f"{n - 2} of {n} runs match\n")
