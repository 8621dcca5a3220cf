"""Model-file ingestion and report serialization.

Both documents are JSON. Complex numbers are encoded as two-element arrays
[re, im]; Taylor keys as "j,k" strings. Reports are schema-versioned and
serialize deterministically (sorted keys, repr-precision floats, no
timestamps), so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from .chareq import HopfPoint, LinearPart
from .cmcore import DegeneracyReport, ModelSpec, SecondOrder, ThirdOrder
from .errors import ModelFileError
from .exppoly import ExpMonomial, ExpPoly
from .perturb import ExtrapolationResult, check_eps_grid
from .reduction import AnalysisReport

REPORT_VERSION = 1

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
class SimBlock:
    dt: float | None
    horizon: float | None
    history: float


@dataclass(frozen=True)
class ModelFile:
    model: ModelSpec
    sweep: SweepBlock | None
    eps_grid: tuple[float, ...] | None
    sim: SimBlock | None


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
        parts = str(key).split(",")
        try:
            j, k = int(parts[0]), int(parts[1])
        except (ValueError, IndexError):
            raise ModelFileError(f"C key {key!r} is not of the form \"j,k\"") from None
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
        if isinstance(points, bool) or not isinstance(points, int) or points < 2:
            raise ModelFileError("sweep 'points' must be an integer >= 2")
        if not lo < hi:
            raise ModelFileError(f"sweep range [{lo}, {hi}] is empty")
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

    sim = None
    if "sim" in doc:
        blk = doc["sim"]
        if not isinstance(blk, dict):
            raise ModelFileError("'sim' must be an object")
        _reject_unknown(blk, _SIM_KEYS, "sim block")
        dt = _number(blk, "dt", "sim block") if "dt" in blk else None
        horizon = _number(blk, "horizon", "sim block") if "horizon" in blk else None
        history = _number(blk, "history", "sim block") if "history" in blk else 0.01
        sim = SimBlock(dt=dt, horizon=horizon, history=history)

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


def _uc(v: Any) -> complex:
    return complex(v[0], v[1])


def _poly(p: ExpPoly) -> dict[str, Any]:
    return {
        "domain": [p.domain[0], p.domain[1]],
        "terms": [
            {"coeff": _c(t.coeff), "rate": _c(t.rate), "degree": t.degree} for t in p.terms
        ],
    }


def _upoly(d: Mapping[str, Any]) -> ExpPoly:
    return ExpPoly(
        tuple(ExpMonomial(_uc(t["coeff"]), _uc(t["rate"]), int(t["degree"])) for t in d["terms"]),
        (d["domain"][0], d["domain"][1]),
    )


def model_to_dict(model: ModelSpec) -> dict[str, Any]:
    return {
        "A": model.lin.A,
        "B": model.lin.B,
        "r": model.lin.r,
        "C": {f"{j},{k}": v for (j, k), v in sorted(model.C.items())},
        "omega_hint": model.omega_hint,
    }


def report_to_dict(rep: AnalysisReport) -> dict[str, Any]:
    so, third, deg = rep.so, rep.third, rep.degeneracy
    oracle = None
    if rep.oracle is not None:
        oracle = {
            "eps_grid": list(rep.oracle.eps_grid),
            "estimates": [_c(e) for e in rep.oracle.estimates],
            "extrapolated": _c(rep.oracle.extrapolated),
            "closed_form": _c(rep.oracle.closed_form),
            "gap": rep.oracle.gap_to_closed_form,
        }
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
            "f21": _c(third.f21), "g21": _c(third.g21), "g12_bar": _c(third.g12_bar),
            "R1": _c(third.R1), "R2": _c(third.R2), "Delta": _c(third.Delta),
            "degeneracy": {
                "residual_R1": deg.residual_R1,
                "residual_R2": deg.residual_R2,
                "residual_R3": deg.residual_R3,
                "residual_R4": deg.residual_R4,
                "BR1_minus_R2": deg.BR1_minus_R2,
            },
            "degeneracy_residual": third.degeneracy_residual,
            "w21_0": _c(third.w21_0), "w21_mr": _c(third.w21_mr),
            "w21_profile": _poly(third.w21),
            "psi1_w21_pairing": _c(rep.psi1_w21_pairing),
        },
        "oracle": oracle,
        "l1": rep.l1,
    }


def report_from_dict(doc: Mapping[str, Any]) -> AnalysisReport:
    if doc.get("version") != REPORT_VERSION:
        raise ModelFileError(f"unsupported report version {doc.get('version')!r}")
    m = doc["model"]
    model = ModelSpec(
        LinearPart(m["A"], m["B"], m["r"]),
        {tuple(int(x) for x in key.split(",")): v for key, v in m["C"].items()},
        m.get("omega_hint"),
    )
    h = doc["hopf"]
    so_d = doc["second_order"]
    so = SecondOrder(
        f20=_uc(so_d["f20"]), f11=_uc(so_d["f11"]), f02=_uc(so_d["f02"]),
        g20=_uc(so_d["g20"]), g11=_uc(so_d["g11"]), g02=_uc(so_d["g02"]),
        w20=_upoly(so_d["profiles"]["w20"]),
        w11=_upoly(so_d["profiles"]["w11"]),
        w02=_upoly(so_d["profiles"]["w02"]),
        w20_0=_uc(so_d["w20_0"]), w20_mr=_uc(so_d["w20_mr"]),
        w11_0=_uc(so_d["w11_0"]), w11_mr=_uc(so_d["w11_mr"]),
        w02_0=_uc(so_d["w02_0"]), w02_mr=_uc(so_d["w02_mr"]),
    )
    t_d = doc["third_order"]
    deg_d = t_d["degeneracy"]
    third = ThirdOrder(
        f21=_uc(t_d["f21"]), g21=_uc(t_d["g21"]), g12_bar=_uc(t_d["g12_bar"]),
        R1=_uc(t_d["R1"]), R2=_uc(t_d["R2"]), Delta=_uc(t_d["Delta"]),
        degeneracy_residual=t_d["degeneracy_residual"],
        w21_0=_uc(t_d["w21_0"]), w21_mr=_uc(t_d["w21_mr"]),
        w21=_upoly(t_d["w21_profile"]),
    )
    deg = DegeneracyReport(
        Delta=_uc(t_d["Delta"]),
        residual_R1=deg_d["residual_R1"],
        residual_R2=deg_d["residual_R2"],
        residual_R3=deg_d["residual_R3"],
        residual_R4=deg_d["residual_R4"],
        BR1_minus_R2=deg_d["BR1_minus_R2"],
    )
    oracle = None
    if doc.get("oracle") is not None:
        o = doc["oracle"]
        oracle = ExtrapolationResult(
            eps_grid=tuple(o["eps_grid"]),
            estimates=tuple(_uc(e) for e in o["estimates"]),
            extrapolated=_uc(o["extrapolated"]),
            closed_form=_uc(o["closed_form"]),
            gap_to_closed_form=o["gap"],
        )
    eig = doc["eigen"]
    return AnalysisReport(
        model=model,
        hopf=HopfPoint(h["omega"], h["residual"], h["simple"]),
        root_count=doc.get("root_count"),
        e11=_uc(eig["e11"]),
        e22=_uc(eig["e22"]),
        Psi1_at_0=_uc(eig["Psi1_at_0"]),
        so=so,
        third=third,
        degeneracy=deg,
        psi1_w21_pairing=_uc(t_d["psi1_w21_pairing"]),
        oracle=oracle,
        l1=doc["l1"],
    )


def dump_json(doc: Any) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_report(rep: AnalysisReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(report_to_dict(rep)))
