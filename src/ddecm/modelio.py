"""Model-file ingestion and report serialization.

Both documents are JSON. Complex numbers are encoded as two-element arrays
[re, im]; Taylor keys as "j,k" strings. Reports are schema-versioned and
serialize deterministically (sorted keys, repr-precision floats, no
timestamps), so identical inputs produce byte-identical files.

The sim block resolves into the ``ddesim.SimConfig`` that `simulate` runs,
with every absent key at its default. Its values are range-checked only by
``ddesim.integrate_dde``, so the other subcommands accept a file whose sim
block no run could use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from .chareq import LinearPart
from .cmcore import ModelSpec
from .ddesim import SimConfig
from .errors import ModelFileError
from .exppoly import ExpPoly
from .perturb import ExtrapolationResult, check_eps_grid
from .reduction import MAX_SWEEP_POINTS, AnalysisReport, check_sweep

REPORT_VERSION = 1
DEFAULT_SIM_HISTORY = 0.01  # constant history of `simulate` when the sim block names none

_MODEL_KEYS = {"A", "B", "r", "C", "omega_hint", "sweep", "perturb", "sim"}
_SWEEP_KEYS = {"param", "min", "max", "points"}
_PERTURB_KEYS = {"eps_grid"}
_SIM_KEYS = {"dt", "horizon", "history"}


@dataclass(frozen=True)
class SweepBlock:
    param: str
    lo: float
    hi: float
    points: int


@dataclass(frozen=True)
class ModelFile:
    model: ModelSpec
    sweep: SweepBlock | None
    eps_grid: tuple[float, ...] | None
    sim: SimConfig  # from the sim block, else dt = r / 40, horizon = 50 r, DEFAULT_SIM_HISTORY


def _reject_unknown(doc: Mapping[str, Any], allowed: set[str], where: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ModelFileError(f"unknown key {key!r} in {where}")


def _float(val: Any, what: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ModelFileError(f"{what} must be a number, got {val!r}")
    try:
        return float(val)
    except OverflowError:  # a JSON integer beyond the float range
        raise ModelFileError(f"{what} is too large for a float") from None


def _number(doc: Mapping[str, Any], key: str, where: str) -> float:
    if key not in doc:
        raise ModelFileError(f"missing key {key!r} in {where}")
    return _float(doc[key], f"key {key!r} in {where}")


def parse_model_document(doc: Any) -> ModelFile:
    if not isinstance(doc, dict):
        raise ModelFileError("model document must be a JSON object")
    _reject_unknown(doc, _MODEL_KEYS, "model document")
    A = _number(doc, "A", "model document")
    B = _number(doc, "B", "model document")
    r = _number(doc, "r", "model document")
    c_raw = doc.get("C", {})
    if not isinstance(c_raw, dict):
        raise ModelFileError("'C' must be an object mapping \"j,k\" to numbers")
    C: dict[tuple[int, int], float] = {}
    for key, val in c_raw.items():
        try:
            j, k = map(int, str(key).split(","))  # exactly two integers
        except ValueError:
            raise ModelFileError(f"C key {key!r} is not of the form \"j,k\"") from None
        if (j, k) in C:
            raise ModelFileError(f"C key {key!r} names C{j},{k} a second time")
        C[(j, k)] = _float(val, f"C[{key!r}]")
    omega_hint = None
    if doc.get("omega_hint") is not None:
        omega_hint = _number(doc, "omega_hint", "model document")
    try:
        model = ModelSpec(LinearPart(A, B, r), C, omega_hint)
    except ValueError as exc:
        raise ModelFileError(str(exc)) from None

    sweep = None
    if "sweep" in doc:
        blk = doc["sweep"]
        if not isinstance(blk, dict):
            raise ModelFileError("'sweep' must be an object")
        _reject_unknown(blk, _SWEEP_KEYS, "sweep block")
        if "param" not in blk or not isinstance(blk["param"], str):
            raise ModelFileError("sweep block needs a string 'param'")
        lo = _number(blk, "min", "sweep block")
        hi = _number(blk, "max", "sweep block")
        points = blk.get("points")
        if isinstance(points, bool) or not isinstance(points, int):
            raise ModelFileError(f"sweep 'points' must be an integer from 2 to {MAX_SWEEP_POINTS}")
        try:
            check_sweep(blk["param"], lo, hi, points)
        except ValueError as exc:
            raise ModelFileError(str(exc)) from None
        sweep = SweepBlock(param=blk["param"], lo=lo, hi=hi, points=points)

    eps_grid = None
    if "perturb" in doc:
        blk = doc["perturb"]
        if not isinstance(blk, dict):
            raise ModelFileError("'perturb' must be an object")
        _reject_unknown(blk, _PERTURB_KEYS, "perturb block")
        grid = blk.get("eps_grid")
        if not isinstance(grid, list):
            raise ModelFileError("perturb 'eps_grid' must be a list of numbers")
        for g in grid:
            if isinstance(g, bool) or not isinstance(g, (int, float)):
                raise ModelFileError(f"eps_grid entries must be numbers, got {g!r}")
        try:
            eps_grid = check_eps_grid(grid)
        except ValueError as exc:
            raise ModelFileError(str(exc)) from None

    blk = doc.get("sim", {})
    if not isinstance(blk, dict):
        raise ModelFileError("'sim' must be an object")
    _reject_unknown(blk, _SIM_KEYS, "sim block")
    sim = SimConfig(
        dt=_number(blk, "dt", "sim block") if "dt" in blk else r / 40.0,
        horizon=_number(blk, "horizon", "sim block") if "horizon" in blk else 50.0 * r,
        history=_number(blk, "history", "sim block") if "history" in blk else DEFAULT_SIM_HISTORY,
    )

    return ModelFile(model=model, sweep=sweep, eps_grid=eps_grid, sim=sim)


def load_model_file(path: str) -> ModelFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"{path}: invalid JSON ({exc})") from None
    return parse_model_document(doc)


# --- serialization helpers -------------------------------------------------


def _c(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _poly(p: ExpPoly) -> dict[str, Any]:
    return {
        "domain": [p.domain[0], p.domain[1]],
        "terms": [
            {"coeff": _c(t.coeff), "rate": _c(t.rate), "degree": t.degree} for t in p.terms
        ],
    }


def model_to_dict(model: ModelSpec) -> dict[str, Any]:
    return {
        "A": model.lin.A,
        "B": model.lin.B,
        "r": model.lin.r,
        "C": {f"{j},{k}": v for (j, k), v in sorted(model.C.items())},
        "omega_hint": model.omega_hint,
    }


def oracle_to_dict(res: ExtrapolationResult) -> dict[str, Any]:
    """The oracle block of a report, also the whole `perturb-check` document."""
    return {
        "eps_grid": list(res.eps_grid),
        "estimates": [_c(e) for e in res.estimates],
        "extrapolated": _c(res.extrapolated),
        "closed_form": _c(res.closed_form),
        "gap": res.gap_to_closed_form,
    }


def report_to_dict(rep: AnalysisReport) -> dict[str, Any]:
    so, third, st, deg = rep.so, rep.third, rep.third.stage, rep.degeneracy
    return {
        "version": REPORT_VERSION,
        "model": model_to_dict(rep.model),
        "hopf": {"omega": rep.hopf.omega, "residual": rep.hopf.residual, "simple": rep.hopf.simple},
        "root_count": rep.root_count,
        "eigen": {"e11": _c(rep.e11), "e22": _c(rep.e22), "Psi1_at_0": _c(rep.Psi1_at_0)},
        "second_order": {
            "f20": _c(so.f20), "f11": _c(so.f11), "f02": _c(so.f02),
            "g20": _c(so.g20), "g11": _c(so.g11), "g02": _c(so.g02),
            "w20_0": _c(so.w20_0), "w20_mr": _c(so.w20_mr),
            "w11_0": _c(so.w11_0), "w11_mr": _c(so.w11_mr),
            "w02_0": _c(so.w02_0), "w02_mr": _c(so.w02_mr),
            "profiles": {"w20": _poly(so.w20), "w11": _poly(so.w11), "w02": _poly(so.w02)},
        },
        "third_order": {
            "f21": _c(so.f21), "g21": _c(st.g21), "g12_bar": _c(st.g12_bar),
            "R1": _c(st.R1), "R2": _c(st.R2), "Delta": _c(st.Delta),
            "degeneracy": {
                "residual_R1": deg.residual_R1,
                "residual_R2": deg.residual_R2,
                "residual_R3": deg.residual_R3,
                "residual_R4": deg.residual_R4,
                "BR1_minus_R2": deg.BR1_minus_R2,
            },
            "degeneracy_residual": deg.BR1_minus_R2,
            "w21_0": _c(third.w21_0), "w21_mr": _c(third.w21_mr),
            "w21_profile": _poly(third.w21),
            "psi1_w21_pairing": _c(rep.psi1_w21_pairing),
        },
        "oracle": None if rep.oracle is None else oracle_to_dict(rep.oracle),
        "l1": rep.l1,
    }


def dump_json(doc: Any) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
