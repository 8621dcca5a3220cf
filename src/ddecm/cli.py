"""Command-line interface.

Subcommands: analyze, sweep, perturb-check, simulate, roots. Exit codes:
0 success, 1 for I/O or document validation problems, 2 for mathematical
failures (non-Hopf model, resonance, divergence, ...), each reported with its
error name.
"""

from __future__ import annotations

import argparse
import sys

from .chareq import HOPF_TOL, audit_spectrum, crossing_count, find_critical_frequency
from .ddesim import SimConfig, integrate_dde, measure_frequency
from .errors import CenterManifoldError, ModelFileError
from .modelio import dump_json, load_model_file, report_to_dict
from .perturb import DEFAULT_EPS_GRID, check_eps_grid, extrapolate_w21
from .reduction import analyze_model, sweep_l1_zeros
from .spectral import build_eigendata


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddecm",
        description="Center-manifold reduction of scalar one-delay differential equations at Hopf points",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", required=True, help="path to the JSON model file")
        p.add_argument("--out", required=True, help="path for the output document")
        p.add_argument("--tol", type=float, default=HOPF_TOL,
                       help="Hopf verification tolerance (default %(default)g)")

    p = sub.add_parser("analyze", help="full reduction: coefficients, w21, oracle gap, l1")
    common(p)
    p.add_argument("--eps-grid", help="comma-separated decreasing positive floats for the oracle")
    p.add_argument("--no-oracle", action="store_true", help="skip the perturbation oracle")
    p.add_argument("--audit", action="store_true",
                   help="count characteristic roots with nonnegative real part (closed form)")

    p = sub.add_parser("sweep", help="sweep a Taylor coefficient; l1 over the grid and its zeros")
    common(p)

    p = sub.add_parser("perturb-check", help="perturbation-oracle estimates, extrapolation and gap")
    common(p)
    p.add_argument("--eps-grid", help="comma-separated decreasing positive floats")

    p = sub.add_parser("simulate", help="integrate the delay equation; write a t,x CSV")
    common(p)

    p = sub.add_parser("roots", help="closed-form count of roots with nonnegative real part")
    common(p)
    return parser


def _parse_grid(text: str | None, fallback) -> tuple[float, ...] | None:
    if text is None:
        return fallback
    try:
        return check_eps_grid(text.split(","))
    except ValueError as exc:
        raise ModelFileError(f"--eps-grid {text!r}: {exc}") from None


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_analyze(args: argparse.Namespace) -> int:
    mf = load_model_file(args.model)
    if args.no_oracle:
        grid = None
    else:
        grid = _parse_grid(args.eps_grid, mf.eps_grid or DEFAULT_EPS_GRID)
    rep = analyze_model(mf.model, hopf_tol=args.tol, eps_grid=grid, audit=args.audit)
    _write(args.out, dump_json(report_to_dict(rep)))
    if rep.timing_seconds:
        stages = ", ".join(f"{k} {v * 1e3:.1f} ms" for k, v in rep.timing_seconds.items())
        print(f"analyze: wrote {args.out} ({stages})", file=sys.stderr)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    mf = load_model_file(args.model)
    if mf.sweep is None:
        raise ModelFileError("model file has no sweep block")
    res = sweep_l1_zeros(
        mf.model, mf.sweep.param, mf.sweep.lo, mf.sweep.hi, mf.sweep.points, tol=args.tol,
    )
    lines = [("# roots = " + " ".join(f"{root:.12g}" for root in res.roots)).rstrip()]
    lines.append(f"{res.param},l1")
    lines.extend(f"{x:.17g},{v:.17g}" for x, v in zip(res.grid, res.values))
    _write(args.out, "\n".join(lines) + "\n")
    print(f"sweep: {len(res.roots)} root(s): {[round(r, 6) for r in res.roots]}", file=sys.stderr)
    return 0


def cmd_perturb_check(args: argparse.Namespace) -> int:
    mf = load_model_file(args.model)
    grid = _parse_grid(args.eps_grid, mf.eps_grid or DEFAULT_EPS_GRID)
    hopf = find_critical_frequency(mf.model.lin, mf.model.omega_hint, args.tol)
    eig = build_eigendata(mf.model.lin, hopf)
    res = extrapolate_w21(mf.model, eig, grid)
    doc = {
        "eps_grid": list(res.eps_grid),
        "estimates": [[e.real, e.imag] for e in res.estimates],
        "extrapolated": [res.extrapolated.real, res.extrapolated.imag],
        "closed_form": [res.closed_form.real, res.closed_form.imag],
        "gap": res.gap_to_closed_form,
    }
    _write(args.out, dump_json(doc))
    print(f"perturb-check: gap to closed form = {res.gap_to_closed_form:.3e}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    mf = load_model_file(args.model)
    r = mf.model.lin.r
    sim = mf.sim
    dt = sim.dt if sim and sim.dt else r / 40.0
    horizon = sim.horizon if sim and sim.horizon else 50.0 * r
    history = sim.history if sim else 0.01
    traj = integrate_dde(mf.model, SimConfig(dt=dt, horizon=horizon, history=history))
    lines = ["t,x"]
    lines.extend(map("{:.17g},{:.17g}".format, traj.times.tolist(), traj.values.tolist()))
    _write(args.out, "\n".join(lines) + "\n")
    try:
        freq = measure_frequency(traj, t_min=10.0 * r)
        print(f"simulate: {len(traj.times)} samples, frequency ~ {freq:.6g}", file=sys.stderr)
    except CenterManifoldError:
        print(f"simulate: {len(traj.times)} samples", file=sys.stderr)
    return 0


def cmd_roots(args: argparse.Namespace) -> int:
    mf = load_model_file(args.model)
    hopf = find_critical_frequency(mf.model.lin, mf.model.omega_hint, args.tol)
    count = audit_spectrum(mf.model.lin, hopf)
    k = crossing_count(mf.model.lin, hopf) - 1
    doc = {"count": count, "crossing": k, "expected": 2, "omega": hopf.omega}
    _write(args.out, dump_json(doc))
    print(f"roots: {count} root(s) with nonnegative real part at crossing {k} (expected 2)")
    return 0


_COMMANDS = {
    "analyze": cmd_analyze,
    "sweep": cmd_sweep,
    "perturb-check": cmd_perturb_check,
    "simulate": cmd_simulate,
    "roots": cmd_roots,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ModelFileError, OSError, ValueError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except CenterManifoldError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
