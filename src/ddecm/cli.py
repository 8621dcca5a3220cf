"""Command-line interface.

Subcommands: analyze, sweep, perturb-check, simulate, roots. Exit codes:
0 success, 1 for I/O or document validation problems, 2 for mathematical
failures (non-Hopf model, resonance, divergence, ...), each reported with its
error name. Warnings raised on the way are printed the same way, one
``warning[Name]: message`` line each. A usage error (an unknown option, a
missing ``--model``, ``simulate --tol``) also exits 2, from argparse: in
process, `main` raises ``SystemExit(2)`` for it instead of returning a code.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings

from .chareq import HOPF_TOL, audit_spectrum, find_critical_frequency
from .ddesim import integrate_dde, measure_frequency
from .errors import CenterManifoldError, ModelFileError, NotHopfPointError
from .modelio import dump_json, load_model_file, oracle_to_dict, report_to_dict
from .perturb import DEFAULT_EPS_GRID, check_eps_grid, extrapolate_w21
from .reduction import analyze_model, sweep_l1_zeros
from .spectral import build_eigendata


# One parser per process, built by the first `main` call; parse_args leaves it unchanged,
# on errors too. Only repeated in-process calls gain: the console script calls `main` once.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddecm",
        description="Center-manifold reduction of scalar one-delay differential equations at Hopf points",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", required=True, help="path to the JSON model file")
        p.add_argument("--out", required=True, help="path for the output document")

    p = sub.add_parser("analyze", help="full reduction: coefficients, w21, oracle gap, l1")
    common(p)
    p.add_argument("--eps-grid", help="comma-separated decreasing floats in (0, 1) for the oracle")
    p.add_argument("--no-oracle", action="store_true", help="skip the perturbation oracle")
    p.add_argument("--audit", action="store_true",
                   help="count characteristic roots with nonnegative real part (closed form)")

    p = sub.add_parser("sweep", help="sweep a Taylor coefficient; l1 over the grid and its zeros")
    common(p)

    p = sub.add_parser("perturb-check", help="perturbation-oracle estimates, extrapolation and gap")
    common(p)
    p.add_argument("--eps-grid", help="comma-separated decreasing floats in (0, 1)")

    p = sub.add_parser("simulate", help="integrate the delay equation; write a t,x CSV")
    common(p)

    p = sub.add_parser("roots", help="closed-form count of roots with nonnegative real part")
    common(p)

    for name in ("analyze", "sweep", "perturb-check", "roots"):  # those that verify a Hopf point
        sub.choices[name].add_argument("--tol", type=float, default=HOPF_TOL,
                                       help="Hopf verification tolerance, positive and finite (default %(default)g)")
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
    roots = " ".join(f"{root:.12g}" for root in res.roots)
    lines = [f"# roots = {roots}".rstrip(), f"{res.param},l1"]
    lines.extend(f"{x:.17g},{v:.17g}" for x, v in zip(res.grid, res.values))
    _write(args.out, "\n".join(lines) + "\n")
    print(f"sweep: {len(res.roots)} root(s): {roots}".rstrip(), file=sys.stderr)
    return 0


def cmd_perturb_check(args: argparse.Namespace) -> int:
    mf = load_model_file(args.model)
    grid = _parse_grid(args.eps_grid, mf.eps_grid or DEFAULT_EPS_GRID)
    hopf = find_critical_frequency(mf.model.lin, mf.model.omega_hint, args.tol)
    eig = build_eigendata(mf.model.lin, hopf)
    res = extrapolate_w21(mf.model, eig, grid)
    _write(args.out, dump_json(oracle_to_dict(res)))
    print(f"perturb-check: gap to closed form = {res.gap_to_closed_form:.3e}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    mf = load_model_file(args.model)
    traj = integrate_dde(mf.model, mf.sim)
    n = len(traj.times)
    rows = [0.0] * (2 * n)  # t0, x0, t1, x1, ...: all n rows in one formatting pass
    rows[::2], rows[1::2] = traj.times.tolist(), traj.values.tolist()
    _write(args.out, "t,x\n" + "%.17g,%.17g\n" * n % tuple(rows))
    try:
        freq = measure_frequency(traj, t_min=10.0 * mf.model.lin.r)
        print(f"simulate: {n} samples, frequency ~ {freq:.6g}", file=sys.stderr)
    except CenterManifoldError:
        print(f"simulate: {n} samples", file=sys.stderr)
    return 0


def cmd_roots(args: argparse.Namespace) -> int:
    mf = load_model_file(args.model)
    hopf = find_critical_frequency(mf.model.lin, mf.model.omega_hint, args.tol)
    k = hopf.crossings - 1
    if k < 0:  # on the Hopf curve the critical pair itself is crossing k >= 0
        raise NotHopfPointError(f"no root pair has crossed the imaginary axis: i*{hopf.omega:g} is no root")
    count = audit_spectrum(mf.model.lin, hopf)
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
    exc = None
    # a with block adds no frame: the handler runs at the depth of main's own calls
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = _COMMANDS[args.command](args)
        except (ModelFileError, OSError, ValueError) as err:
            code, exc = 1, err
        except CenterManifoldError as err:
            code, exc = 2, err
    for w in caught:
        print(f"warning[{w.category.__name__}]: {w.message}", file=sys.stderr)
    if exc is not None:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
