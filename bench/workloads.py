"""The four benchmark workloads: inputs, CLI call, output check and traced replay.

Each workload draws its models from ``hopfgen`` and runs one ``ddecm``
subcommand per item. ``replay`` calls the public functions that the
subcommand's ``cmd_*`` handler calls, in the same order, with a span around
each call, and returns the bytes the handler would have written plus the
health numbers it saw.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Callable

import ddecm.reduction as reduction
from ddecm.chareq import HOPF_TOL, audit_spectrum, find_critical_frequency
from ddecm.cmcore import degeneracy_report, second_order, third_order
from ddecm.ddesim import SimConfig, integrate_dde, measure_frequency
from ddecm.errors import CenterManifoldError, NoConvergenceWarning
from ddecm.modelio import dump_json, load_model_file, report_to_dict
from ddecm.perturb import DEFAULT_EPS_GRID, extrapolate_w21
from ddecm.reduction import AnalysisReport, assemble_reduced, lyapunov_l1, sweep_l1_zeros
from ddecm.spectral import bilinear, build_eigendata

import checks
import hopfgen
from hopfgen import HopfItem
from tracing import Tracer

ROOT_SPAN = "cli.item"


@dataclass(frozen=True)
class Workload:
    """One workload; ``why`` is the reason it was chosen, as BENCHMARK.json records it."""

    name: str
    why: str
    n_items: int
    sample: Callable[[int, int], list[HopfItem]]
    argv: Callable[[str, str], list[str]]
    check: Callable[[HopfItem, str], checks.Verdict]
    replay: Callable[[Tracer, HopfItem, str, str], tuple[str, dict]]
    with_bundled: bool = False


def bundled_item(path: str) -> HopfItem:
    """The repository's bundled model as an item: omega = 1, so theta = r, at k = 0."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return HopfItem("bundled", 0, doc["r"], 1.0, doc["A"], doc["B"], doc["r"], doc["C"],
                    doc["sweep"]["param"])


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# --- analyze / audit --------------------------------------------------------


def replay_analyze(tr: Tracer, item: HopfItem, path: str, out: str, oracle: bool, audit: bool):
    """cmd_analyze with analyze_model expanded into its public calls."""
    obs: dict = {}
    with tr.span("modelio.load_model_file"):
        mf = load_model_file(path)
    model, lin = mf.model, mf.model.lin
    grid = (mf.eps_grid or DEFAULT_EPS_GRID) if oracle else None
    with tr.span("chareq.find_critical_frequency"):
        hopf = find_critical_frequency(lin, model.omega_hint, HOPF_TOL)
    root_count = None
    if audit:
        with tr.span("chareq.audit_spectrum"):
            root_count = audit_spectrum(lin, hopf)
        obs["audit_mismatch"] = root_count != checks.expected_root_count(item)
    with tr.span("spectral.build_eigendata"):
        eig = build_eigendata(lin, hopf)
    with tr.span("cmcore.second_order"):
        so = second_order(model, eig)
    with tr.span("cmcore.third_order"):
        third = third_order(model, eig, so)
    with tr.span("cmcore.degeneracy_report"):
        deg = degeneracy_report(model, eig, so)
    with tr.span("spectral.bilinear"):
        pairing = bilinear(eig.Psi1, third.w21, lin)
    result = None
    if grid is not None:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", NoConvergenceWarning)
            with tr.span("perturb.extrapolate_w21"):
                result = extrapolate_w21(model, eig, grid)
        obs["warned"] = any(issubclass(w.category, NoConvergenceWarning) for w in caught)
        closed = abs(result.closed_form)
        obs["rel_gap"] = result.gap_to_closed_form / closed if closed else result.gap_to_closed_form
    with tr.span("reduction.lyapunov_l1"):
        l1 = lyapunov_l1(assemble_reduced(model, eig, so, third))
    rep = AnalysisReport(
        model=model, hopf=hopf, root_count=root_count, e11=eig.e11, e22=eig.e22,
        Psi1_at_0=eig.Psi1_at_0, so=so, third=third, degeneracy=deg,
        psi1_w21_pairing=pairing, oracle=result, l1=l1,
    )
    with tr.span("modelio.report_to_dict"):
        doc = report_to_dict(rep)
    with tr.span("modelio.dump_json"):
        text = dump_json(doc)
    _write(out, text)
    obs["hopf_residual"] = hopf.residual
    obs["degeneracy_residual"] = max(deg.residual_R1, deg.residual_R2, deg.residual_R3,
                                     deg.residual_R4, deg.BR1_minus_R2)
    obs["report_bytes"] = len(text.encode())
    obs["profiles"] = (eig.omega, lin.r, (so.w20, so.w11, so.w02))
    return text, obs


# --- sweep --------------------------------------------------------------------

# the callees of sweep_l1_zeros, traced in place while a sweep replay runs
_SWEEP_CALLEES = {
    "find_critical_frequency": "chareq.find_critical_frequency",
    "build_eigendata": "spectral.build_eigendata",
    "second_order": "cmcore.second_order",
    "assemble_reduced": "reduction.lyapunov_l1",
    "third_order_rhs": "cmcore.third_order",  # g21, called by assemble_reduced
    "lyapunov_l1": "reduction.lyapunov_l1",
}


def replay_sweep(tr: Tracer, item: HopfItem, path: str, out: str):
    """cmd_sweep, with the calls sweep_l1_zeros makes into other modules traced."""
    with tr.span("modelio.load_model_file"):
        mf = load_model_file(path)
    sw = mf.sweep
    with tr.interpose(reduction, _SWEEP_CALLEES), tr.span("reduction.sweep_l1_zeros"):
        res = sweep_l1_zeros(mf.model, sw.param, sw.lo, sw.hi, sw.points, tol=HOPF_TOL, jobs=1)
    lines = [("# roots = " + " ".join(f"{root:.12g}" for root in res.roots)).rstrip()]
    lines.append(f"{res.param},l1")
    lines.extend(f"{x:.17g},{v:.17g}" for x, v in zip(res.grid, res.values))
    text = "\n".join(lines) + "\n"
    _write(out, text)
    return text, {"roots": len(res.roots)}


def check_sweep(item: HopfItem, text: str) -> checks.Verdict:
    lo, hi = hopfgen.SWEEP_RANGE
    fitted = tuple(checks.l1_at(item, item.sweep_param, x) for x in (lo, (lo + hi) / 2, hi))
    return checks.check_sweep(item, text, fitted)


# --- simulate -----------------------------------------------------------------


def replay_simulate(tr: Tracer, item: HopfItem, path: str, out: str):
    """cmd_simulate: dt and horizon default to r/40 and 50 r, the history to 0.01."""
    with tr.span("modelio.load_model_file"):
        mf = load_model_file(path)
    r, sim = mf.model.lin.r, mf.sim
    dt = sim.dt if sim and sim.dt else r / 40.0
    horizon = sim.horizon if sim and sim.horizon else 50.0 * r
    history = sim.history if sim else 0.01
    with tr.span("ddesim.integrate_dde"):
        traj = integrate_dde(mf.model, SimConfig(dt=dt, horizon=horizon, history=history))
    lines = ["t,x"]
    lines.extend(f"{t:.17g},{x:.17g}" for t, x in zip(traj.times, traj.values))
    text = "\n".join(lines) + "\n"
    _write(out, text)
    with tr.span("ddesim.measure_frequency"):
        try:
            measure_frequency(traj, t_min=10.0 * r)
        except CenterManifoldError:
            pass
    return text, {"steps": len(traj.times) - 1}


# --- the workloads --------------------------------------------------------------


WORKLOADS = {
    "analyze": Workload(
        name="analyze",
        why="one deep evaluation per model, oracle on: exppoly, cmcore, perturb and report I/O; "
            "known failures: ~5% of items exceed the 1e-3 oracle gap (counted, not filtered)",
        n_items=120,
        sample=hopfgen.sample,
        argv=lambda model, out: ["analyze", "--model", model, "--out", out],
        check=lambda item, text: checks.check_report(
            item, text, oracle=True, audit=False, bundled=item.name == "bundled"),
        replay=lambda tr, item, path, out: replay_analyze(tr, item, path, out, True, False),
        with_bundled=True,
    ),
    "audit": Workload(
        name="audit",
        why="argument-principle root count, ~98% of each item (chareq, quadrature); known failures: "
            "~23% of items exceed the 100k F-evaluation work limit or miscount roots (counted, not filtered)",
        n_items=96,
        sample=hopfgen.sample,
        argv=lambda model, out: ["analyze", "--model", model, "--out", out, "--no-oracle", "--audit"],
        check=lambda item, text: checks.check_report(item, text, oracle=False, audit=True),
        replay=lambda tr, item, path, out: replay_analyze(tr, item, path, out, False, True),
    ),
    # A sweep along the Hopf curve itself (theta, w or r) would be a fifth
    # workload; the CLI cannot run one yet.
    "sweep": Workload(
        name="sweep",
        why="hundreds of second-order and l1 evaluations on one spectral kit per item (cmcore, "
            "reduction); known: root pairs inside one grid cell are missed; A/B sweeps fail at seed, left out",
        n_items=96,
        sample=lambda seed, n: hopfgen.sample(seed, n, sweep=True),
        argv=lambda model, out: ["sweep", "--model", model, "--out", out],
        check=check_sweep,
        replay=replay_sweep,
    ),
    "simulate": Workload(
        name="simulate",
        why="method-of-steps step rate (ddesim) at k = 0, B < 0 points, the only ones with the rest "
            "of the spectrum stable; bypasses every algebra layer",
        n_items=48,
        sample=lambda seed, n: hopfgen.sample(seed, n, ks=(0,), signs=(-1,), history=hopfgen.SIM_HISTORY),
        argv=lambda model, out: ["simulate", "--model", model, "--out", out],
        check=lambda item, text: checks.check_trajectory(item, text),
        replay=replay_simulate,
    ),
}

# replays of the bundled model that cover the layers a workload does not reach
PROBES = (
    ("probe-analyze", ["analyze", "--audit"],
     lambda tr, item, path, out: replay_analyze(tr, item, path, out, True, True)),
    ("probe-sweep", ["sweep"], replay_sweep),
    ("probe-simulate", ["simulate"], replay_simulate),
)
