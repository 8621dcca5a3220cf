"""Benchmark of the ddecm command line, end to end and layer by layer.

    python3 bench/run.py --workload analyze --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --summary --seconds 2   # every metric of every workload

Each item is one in-process call of ``ddecm.cli.main(argv)`` on a model file
generated from the seed: one client, one item at a time (a closed loop).
Items run in rounds until ``--seconds`` have passed (at least MIN_ROUNDS of them);
an item's latency is the interquartile mean of its rounds (``item_time``).
An item that needs more than EVAL_LIMIT evaluations of the characteristic
function fails as over the work limit: a count of work, not a clock, so the
same seed fails the same items on any machine and under any load. Every
item's output is checked (see ``checks.py``), and a repeat must reproduce
the first output byte for byte.
``correct`` is false when an item fails in a way outside the known failure
classes that ``checks.Verdict.known`` marks.

With ``--trace 0`` the last stdout line holds the end-to-end metrics. With
``--trace 1`` it holds the per-layer metrics: every CLI call is followed by
a traced replay of the same item (see ``workloads.py``), and the spans of
the first round go to ``bench/_out/spans-<workload>.json``. Layers that the
workload does not reach are measured on replays of the bundled model, so
every metric is present on every workload; their shares are 0. If a replay
does not reproduce the CLI's output, ``trace.replay_match_ratio`` drops
below 1 and the breakdown is stale.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
BUNDLED = os.path.join(ROOT, "models", "benchmark.json")
WORK = os.path.join(BENCH, "_work")
OUT = os.path.join(BENCH, "_out")

# An item fails once it has evaluated F(lambda) = lambda - A - B exp(-lambda r)
# this many times. Only the argument-principle count of --audit comes near it:
# audit items of the family need 20k to several million evaluations, and at the
# commit that defined this benchmark 100k of them took 0.3-0.8 s on a 2-vCPU
# x86-64 host under CPython 3.11. That time also depends on the depth of the
# Python stack the CLI is called from (up to 3x between depths a few frames
# apart), because the recursive adaptive Simpson keeps crossing the
# interpreter's frame-stack chunk boundaries; the harness calls the CLI from a
# fixed depth, so the figures compare across commits of the program only as
# long as its own call path keeps its depth.
EVAL_LIMIT = 100_000
# A wall-clock net under every call, so that a run ends even if the work limit
# stops counting (for example when F is no longer evaluated through
# ddecm.chareq.char_value). Items at the work limit stay far below it.
WALL_GUARD_S = 10.0
MIN_ROUNDS = 2         # untraced, every item is timed at least this often, however long a round takes
SETUP_REPEATS = 11
IMPORTTIME_REPEATS = 3
MICRO_OPS = 50         # product-and-integrate operations per timed batch
MICRO_ITEMS = 24
WORKLOAD_NAMES = ("analyze", "audit", "sweep", "simulate")

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import ddecm.cli
from ddecm.modelio import load_model_file
for path in sys.argv[1:]:
    load_model_file(path)
print(time.perf_counter() - t0)
"""


class ItemTimeout(BaseException):
    """Raised inside an item that ran past WALL_GUARD_S (not an Exception, so
    the CLI's own handlers cannot swallow it)."""


class WorkLimit(BaseException):
    """Raised inside an item that evaluated F more than EVAL_LIMIT times."""


def _alarm(signum, frame):
    raise ItemTimeout()


class EvalBudget:
    """Counts calls of ``ddecm.chareq.char_value`` and raises WorkLimit past
    ``limit`` while armed; disarmed, it only counts down from infinity."""

    def __init__(self, limit: int):
        import ddecm.chareq as chareq

        self.limit = limit
        self.left = math.inf
        inner = chareq.char_value

        def counted(lin, lam):
            self.left -= 1
            if self.left < 0:
                raise WorkLimit()
            return inner(lin, lam)

        chareq.char_value = counted

    @contextmanager
    def armed(self):
        """Arm the work limit and the wall-clock guard for one call."""
        self.left = self.limit
        signal.setitimer(signal.ITIMER_REAL, WALL_GUARD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.left = math.inf


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(paths: list[str]) -> float:
    """Median over fresh interpreters of ``import ddecm.cli`` plus parsing every model file."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *paths], env=_child_env(),
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def measure_imports() -> tuple[float, float]:
    """Median cumulative import seconds of numpy and of ddecm, from -X importtime."""
    numpy_s, ddecm_s = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ddecm.cli"],
                              env=_child_env(), capture_output=True, text=True, timeout=120, check=True)
        rows = []
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$", line)
            if m:
                rows.append((m.group(3), len(m.group(2)), int(m.group(1)) * 1e-6))
        numpy_s.append(next(cum for name, _, cum in rows if name == "numpy"))
        top = min(depth for name, depth, _ in rows if name.startswith("ddecm"))
        ddecm_s.append(sum(cum for name, depth, cum in rows if name.startswith("ddecm") and depth == top))
    return statistics.median(numpy_s), statistics.median(ddecm_s)


def item_time(repeats: list[float]) -> float:
    """An item's time: the mean of the middle half of its repeats (their
    median when there are fewer than four). Unlike the median, it does not
    flip between a fast and a slow value when the machine's speed changes
    halfway through a run."""
    if len(repeats) < 4:
        return statistics.median(repeats)
    ordered = sorted(repeats)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter:len(ordered) - quarter])


def _quantile(values: list[float], q: int) -> float:
    """q-th decile with linear interpolation (q = 5 is the median)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


class Runner:
    """Runs one workload's items through the CLI and keeps each item's verdict."""

    def __init__(self, wl, items, paths, workdir):
        from ddecm.cli import main as cli_main

        self.cli_main = cli_main
        self.budget = EvalBudget(EVAL_LIMIT)
        self.wl, self.items, self.paths = wl, items, paths
        self.outs = [os.path.join(workdir, it.name + ".out") for it in items]
        self.sink = io.StringIO()
        self.outputs: list[str | None] = [None] * len(items)
        self.verdicts: list = [None] * len(items)

    def call(self, argv: list[str]) -> tuple[float, str | None]:
        """One timed CLI call; returns (seconds, error or None)."""
        error = None
        t0 = time.perf_counter()
        try:
            with self.budget.armed():
                code = self.cli_main(argv)
        except WorkLimit:
            code, error = None, "work_limit"
        except ItemTimeout:
            code, error = None, "wall_guard"
        except Exception as exc:  # an untyped exception escaping the CLI is a failed item
            code, error = None, f"untyped {type(exc).__name__}"
        elapsed = time.perf_counter() - t0
        if code not in (0, None):
            found = re.findall(r"error\[(\w+)\]", self.sink.getvalue())
            error = f"exit {code} {found[-1] if found else ''}".rstrip()
        self.sink.seek(0)
        self.sink.truncate()
        return elapsed, error

    def verdict(self, i: int, error: str | None):
        from checks import Verdict

        item = self.items[i]
        if error is not None:
            known = error in ("work_limit", "wall_guard") or (
                self.wl.name == "audit" and error == "exit 2 QuadratureError")
            return Verdict(False, error, known)
        with open(self.outs[i], encoding="utf-8") as fh:
            text = fh.read()
        if self.outputs[i] is None:
            self.outputs[i] = text
            return self.wl.check(item, text)
        if text != self.outputs[i]:
            return Verdict(False, "nondeterministic", False, "output differs from the first round")
        return self.verdicts[i]

    def timed_item(self, i: int) -> float:
        """One timed CLI call of item i, with its output checked."""
        elapsed, error = self.call(self.wl.argv(self.paths[i], self.outs[i]))
        v = self.verdict(i, error)
        if self.verdicts[i] is None or self.verdicts[i].ok:
            self.verdicts[i] = v
        return elapsed

    def rounds(self, seconds: float, after=None, min_rounds: int = MIN_ROUNDS) -> list[list[float]]:
        """Run every item per round until ``seconds`` have passed and at least
        ``min_rounds`` rounds are done; returns each item's CLI times.
        ``after(i)`` runs after each item's CLI call."""
        times: list[list[float]] = [[] for _ in self.items]
        deadline = time.perf_counter() + seconds
        while True:
            for i in range(len(self.items)):
                times[i].append(self.timed_item(i))
                if after is not None:
                    after(i)
            if len(times[0]) >= min_rounds and time.perf_counter() >= deadline:
                return times


def end_to_end(runner: Runner, times: list[list[float]], setup_s: float) -> dict:
    per_item = [item_time(t) for t in times]
    passed = sum(v.ok for v in runner.verdicts)
    return {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (_quantile(per_item, 5) * 1e3, "ms"),
        "latency_p90_ms": (_quantile(per_item, 9) * 1e3, "ms"),
        # one pass over the items, each at its item_time, in the closed loop
        "throughput_per_s": (passed / sum(per_item), "1/s"),
        "pass_ratio": (passed / len(per_item), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


class TracedRun:
    """Each item's CLI call is followed by its traced replay, so both see the
    same machine state; the bundled-model probes run once at the end."""

    def __init__(self, runner: Runner):
        from tracing import Tracer

        self.runner = runner
        self.tr = Tracer()
        self.rounds: list[dict] = []    # self times per (item, span) of each round
        self.obs: dict[str, dict] = {}  # health numbers of each item's first replay
        self.matched = self.compared = 0

    def replay(self, name, fn, item, path, out, reference) -> None:
        from workloads import ROOT_SPAN

        self.tr.item = name
        text, seen = None, {}
        try:
            with self.runner.budget.armed(), self.tr.span(ROOT_SPAN):
                text, seen = fn(self.tr, item, path, out)
        except (WorkLimit, ItemTimeout):
            return
        except Exception:  # a replay that fails where the CLI succeeded counts as a mismatch
            pass
        if name not in self.obs:
            self.obs[name] = seen
            if reference is not None:
                self.compared += 1
                self.matched += text == reference

    def run(self, seconds: float) -> list[list[float]]:
        from workloads import PROBES, bundled_item

        r = self.runner
        start = [0]

        def after(i):
            item = r.items[i]
            self.replay(item.name, r.wl.replay, item, r.paths[i], r.outs[i] + ".replay", r.outputs[i])
            if i == len(r.items) - 1:
                self.rounds.append(self.tr.self_times(start[0]))
                if len(self.rounds) > 1:  # keep the spans of the first round only
                    del self.tr.spans[start[0]:]
                start[0] = len(self.tr.spans)

        times = r.rounds(seconds, after, min_rounds=1)  # a replay doubles each round's length
        probe_item = bundled_item(BUNDLED)
        out = r.outs[0] + ".probe"
        for name, args, fn in PROBES:
            r.call([args[0], "--model", BUNDLED, "--out", out, *args[1:]])
            with open(out, encoding="utf-8") as fh:
                reference = fh.read()
            self.replay(name, fn, probe_item, BUNDLED, out + ".replay", reference)
        self.rounds.append(self.tr.self_times(start[0]))
        return times


def exppoly_micro(obs: dict[str, dict], runner: Runner) -> float:
    """Median microseconds of one w-profile x kernel product plus integrate()."""
    from ddecm import ExpPoly, LinearPart, ModelSpec, build_eigendata, find_critical_frequency, second_order

    samples = []
    for item in runner.items[:MICRO_ITEMS]:
        seen = obs.get(item.name, {})
        if "profiles" in seen:
            omega, r, profiles = seen["profiles"]
        else:
            lin = LinearPart(item.A, item.B, item.r)
            model = ModelSpec(lin, item.taylor())
            eig = build_eigendata(lin, find_critical_frequency(lin))
            so = second_order(model, eig)
            omega, r, profiles = eig.omega, item.r, (so.w20, so.w11, so.w02)
        kernel = ExpPoly.monomial(1.0, -1j * omega, 0, (-r, 0.0))
        for w in profiles:
            t0 = time.perf_counter()
            for _ in range(MICRO_OPS):
                (w * kernel).integrate()
            samples.append((time.perf_counter() - t0) / MICRO_OPS * 1e6)
    return statistics.median(samples)


LAYERS = (
    "modelio.load_model_file", "chareq.find_critical_frequency", "chareq.audit_spectrum",
    "spectral.build_eigendata", "cmcore.second_order", "cmcore.third_order",
    "cmcore.degeneracy_report", "spectral.bilinear", "perturb.extrapolate_w21",
    "reduction.lyapunov_l1", "reduction.sweep_l1_zeros", "ddesim.integrate_dde",
    "ddesim.measure_frequency", "modelio.report_to_dict", "modelio.dump_json",
)


def per_layer(runner: Runner, times: list[list[float]], t: TracedRun, imports) -> dict:
    from workloads import ROOT_SPAN

    names = [it.name for it in runner.items]
    probes = [n for n in t.obs if n.startswith("probe")]
    cli_s = {n: item_time(x) for n, x in zip(names, times)}
    per_round: dict[tuple[str, str], list[float]] = defaultdict(list)
    for r in t.rounds:
        for key, value in r.items():
            per_round[key].append(value)
    layer_s = {key: item_time(v) for key, v in per_round.items()}

    def source(has) -> list[str]:
        """The workload's items for which ``has`` holds, or else the probes."""
        return [n for n in names if has(n)] or [n for n in probes if has(n)]

    def reached(layer) -> list[float]:
        """Self seconds of ``layer`` per item that reaches it."""
        return [layer_s[(n, layer)] for n in source(lambda n: (n, layer) in layer_s)]

    def seen(key) -> list:
        return [t.obs[n][key] for n in source(lambda n: key in t.obs.get(n, {}))]

    def own(n, layer) -> float:
        return layer_s.get((n, layer), 0.0)

    total_cli = sum(cli_s.values())
    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        vals = reached(layer)
        if layer == "chareq.audit_spectrum":
            m[layer + "_ms_p50"] = (_quantile(vals, 5) * 1e3, "ms")
            m[layer + "_ms_p90"] = (_quantile(vals, 9) * 1e3, "ms")
        else:
            m[layer + "_ms"] = (statistics.fmean(vals) * 1e3, "ms")
        m[layer + ".share"] = (sum(own(n, layer) for n in names) / total_cli, "ratio")
    glue = [cli_s[n] - sum(own(n, layer) for layer in LAYERS) for n in names]
    m["cli.glue_ms"] = (statistics.fmean(glue) * 1e3, "ms")
    m["cli.glue.share"] = (sum(glue) / total_cli, "ratio")

    gaps = seen("rel_gap")
    m["perturb.rel_gap_p50"] = (statistics.median(gaps), "1")
    m["perturb.rel_gap_max"] = (max(gaps), "1")
    m["perturb.warned_ratio"] = (statistics.fmean(seen("warned")), "ratio")
    m["chareq.audit_mismatch_ratio"] = (statistics.fmean(seen("audit_mismatch")), "ratio")
    m["chareq.hopf_residual_max"] = (max(seen("hopf_residual")), "1")
    m["cmcore.degeneracy_residual_max"] = (max(seen("degeneracy_residual")), "1")
    m["reduction.sweep_roots_per_item"] = (statistics.fmean(seen("roots")), "count")
    stepped = source(lambda n: "steps" in t.obs.get(n, {}) and (n, "ddesim.integrate_dde") in layer_s)
    m["ddesim.steps_per_s"] = (sum(t.obs[n]["steps"] for n in stepped)
                               / sum(layer_s[(n, "ddesim.integrate_dde")] for n in stepped), "1/s")
    unchecked = [v.unchecked for v in runner.verdicts] if runner.wl.name == "simulate" else [False]
    m["ddesim.unchecked_ratio"] = (statistics.fmean(unchecked), "ratio")
    m["modelio.report_bytes"] = (statistics.fmean(seen("report_bytes")), "bytes")
    m["exppoly.mul_integrate_us"] = (exppoly_micro(t.obs, runner), "us")
    m["setup.import_numpy_s"] = (imports[0], "s")
    m["setup.import_ddecm_s"] = (imports[1], "s")
    traced_total = sum(own(n, ROOT_SPAN) + sum(own(n, layer) for layer in LAYERS) for n in names)
    m["trace.overhead_ratio"] = (traced_total / total_cli, "ratio")
    m["trace.replay_match_ratio"] = (t.matched / t.compared if t.compared else 0.0, "ratio")
    return m


def run(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "ddecm", "__init__.py")) or not os.path.isfile(BUNDLED):
        print(f"error: no ddecm sources under {SRC} or no bundled model; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import hopfgen
    from workloads import WORKLOADS, bundled_item

    wl = WORKLOADS[args.workload]
    print(f"env: {json.dumps(environment())}", file=sys.stderr)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-{args.seed}-", dir=WORK)
    old_handler = signal.signal(signal.SIGALRM, _alarm)
    real_stderr = sys.stderr
    try:
        items = wl.sample(args.seed, wl.n_items)
        paths = hopfgen.write_models(items, workdir)
        if wl.with_bundled:
            items.append(bundled_item(BUNDLED))
            paths.append(BUNDLED)
        runner = Runner(wl, items, paths, workdir)
        if args.trace:
            imports = measure_imports()
        else:
            setup_s = measure_setup(paths)
        sys.stderr = runner.sink
        runner.call(wl.argv(BUNDLED, os.path.join(workdir, "warmup.out")))  # first-call costs
        if args.trace:
            t = TracedRun(runner)
            times = t.run(args.seconds)
            metrics = per_layer(runner, times, t, imports)
            os.makedirs(OUT, exist_ok=True)
            t.tr.dump(os.path.join(OUT, f"spans-{wl.name}.json"))
        else:
            times = runner.rounds(args.seconds)
            metrics = end_to_end(runner, times, setup_s)
    finally:
        sys.stderr = real_stderr
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old_handler)
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [(it.name, v) for it, v in zip(runner.items, runner.verdicts) if not v.ok]
    for name, v in failures:
        print(f"failed {name}: {v.kind}{'' if v.known else ' (unexpected)'} {v.detail}", file=sys.stderr)
    if args.trace and metrics["trace.replay_match_ratio"][0] < 1.0:
        print("warning: the traced replay did not reproduce the CLI output; "
              "the layer breakdown is stale", file=sys.stderr)
    result = {
        "correct": all(v.known for _, v in failures),
        "attempted": len(runner.items),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def summary(args) -> int:
    """Run every workload untraced and traced; print each metric with its unit."""
    print(f"env: {json.dumps(environment())}")
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                return proc.returncode
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"\n{name} trace={trace}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}")
            for metric, v in res["metrics"].items():
                print(f"  {metric:40s} {v['value']:>14.6g} {v['unit']}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--summary", action="store_true", help="run every workload and print every metric")
    args = p.parse_args(argv)
    if args.summary:
        return summary(args)
    if args.workload is None:
        p.error("--workload is required unless --summary is given")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
