"""Digest every CLI run on a fixed set of inputs, to check that a change
leaves the command line's outputs byte-identical.

    python tools/cli_digest.py TREE OUT.json
    python tools/cli_digest.py --compare A.json B.json

The first form imports ``ddecm`` from ``TREE/src`` and runs, in one process,
``analyze``, ``analyze --no-oracle --audit``, ``sweep``, ``perturb-check``,
``roots`` and ``simulate`` on ``models/benchmark.json``, ``models/wright.json``
and ``bench/hopfgen.sample(seed, 60, sweep=True)`` for seeds 21-24, and
``simulate`` alone on ``hopfgen.sample(seed, 48, ks=(0,), signs=(-1,),
history=hopfgen.SIM_HISTORY)``. The inputs come from this checkout, so two
trees digested by the same script run on the same files. Each run records
one digest of its output file's bytes (or its absence), its exit code, its
stdout and its stderr without ``analyze``'s timing line; a run that raises
past ``main`` records the exception's type and message in place of the exit
code. ``digest_tree(tree, ())`` runs the two bundled models alone.

The second form lists the runs whose digests differ, or that only one file
has, and exits 1 if there are any.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUNDLED = ("benchmark", "wright")
DEFAULT_SEEDS = (21, 22, 23, 24)
SUBCOMMANDS = (
    ("analyze", []),
    ("analyze", ["--no-oracle", "--audit"]),
    ("sweep", []),
    ("perturb-check", []),
    ("roots", []),
    ("simulate", []),
)


def write_inputs(directory: str, seeds) -> list[tuple[str, list[tuple[str, list[str]]]]]:
    """Write every model file under ``directory``; (relative path, subcommands) pairs."""
    sys.path.insert(0, os.path.join(HERE, "bench"))
    import hopfgen

    runs = []
    for name in BUNDLED:
        with open(os.path.join(HERE, "models", name + ".json"), encoding="utf-8") as fh:
            text = fh.read()
        with open(os.path.join(directory, name + ".json"), "w", encoding="utf-8") as fh:
            fh.write(text)
        runs.append((name + ".json", list(SUBCOMMANDS)))
    for seed in seeds:
        for group, items, commands in (
            ("all", hopfgen.sample(seed, 60, sweep=True), list(SUBCOMMANDS)),
            ("sim", hopfgen.sample(seed, 48, ks=(0,), signs=(-1,), history=hopfgen.SIM_HISTORY),
             [("simulate", [])]),
        ):
            sub = os.path.join(f"seed{seed}", group)
            os.makedirs(os.path.join(directory, sub), exist_ok=True)
            for path in hopfgen.write_models(items, os.path.join(directory, sub)):
                runs.append((os.path.relpath(path, directory), commands))
    return runs


def digest_run(main, argv: list[str], out: str) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # recorded: a change may turn it into an exit code or back
            code = f"{type(exc).__name__}: {exc}"
    err = "".join(line for line in stderr.getvalue().splitlines(True) if not line.startswith("analyze: wrote "))
    body = None
    if os.path.exists(out):
        with open(out, "rb") as fh:
            body = hashlib.sha256(fh.read()).hexdigest()
        os.remove(out)
    record = json.dumps({"code": code, "out": body, "stdout": stdout.getvalue(), "stderr": err}, sort_keys=True)
    return hashlib.sha256(record.encode()).hexdigest()


def digest_tree(tree: str, seeds) -> dict[str, str]:
    src = os.path.join(os.path.abspath(tree), "src")
    sys.path.insert(0, src)
    import ddecm.cli

    if not os.path.abspath(ddecm.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"ddecm was imported from {ddecm.cli.__file__}, not from {src}")
    digests = {}
    with tempfile.TemporaryDirectory() as work:
        here = os.getcwd()
        os.chdir(work)  # relative paths: messages that name a file read the same for any tree
        try:
            for model, commands in write_inputs(work, seeds):
                for command, extra in commands:
                    run = " ".join([command, *extra, model])
                    digests[run] = digest_run(ddecm.cli.main, [command, "--model", model, "--out", "out", *extra], "out")
        finally:
            os.chdir(here)
    return digests


def compare(a_path: str, b_path: str) -> int:
    with open(a_path, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(b_path, encoding="utf-8") as fh:
        b = json.load(fh)
    runs = sorted(set(a) | set(b))
    differ = [run for run in runs if a.get(run) != b.get(run)]
    for run in differ:
        print(run)
    print(f"{len(runs) - len(differ)} of {len(runs)} runs match", file=sys.stderr)
    return 1 if differ else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs=2, metavar="PATH", help="TREE OUT.json, or A.json B.json with --compare")
    parser.add_argument("--compare", action="store_true", help="list the runs whose digests differ")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.paths)
    tree, out = args.paths
    digests = digest_tree(tree, DEFAULT_SEEDS)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} runs digested", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
