"""Correctness checks on the CLI's output files.

Each check re-derives what it can from the generator's inputs and from
closed forms, not from the code path under test. A check returns a
``Verdict``; ``kind`` names the failure and ``known`` marks the failure
classes the program shows on hard inputs at the commit that defined this
benchmark (they count as failed items, but do not make a run incorrect).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np
from ddecm import (LinearPart, ModelSpec, assemble_reduced, build_eigendata, find_critical_frequency,
                   lyapunov_l1, second_order)

from hopfgen import SWEEP_POINTS, SWEEP_RANGE, HopfItem

ORACLE_REL_GAP = 1e-3      # largest accepted |oracle - closed form| / |closed form|
ROW_TOL = 1e-9             # relative residual allowed in the two w21 system rows
L1_TOL = 1e-9              # relative agreement of the recomputed l1
OMEGA_TOL = 1e-9           # relative agreement of the located frequency
BUNDLED_L1_TOL = 1e-9      # |l1| at the closed-form zero c = C1 of the bundled model
SWEEP_VALUE_TOL = 1e-8     # grid values against the fitted quadratic, relative to its scale
SWEEP_ROOT_TOL = 1e-7      # reported roots against the quadratic's roots
SIM_FREQ_TOL = 0.01        # simulated frequency against omega, relative
SIM_MIN_CROSSINGS = 5

# The bundled model x' = -x(t - pi/2) + x^2 + c x x(t - pi/2) has l1 = 0 at
# c = C1 (closed form, also pinned by the test suite).
_SQ = math.sqrt(36.0 + 212.0 * math.pi + math.pi**2)
BUNDLED_C1 = (18.0 - 7.0 * math.pi + _SQ) / (2.0 * (3.0 * math.pi - 2.0))


@dataclass(frozen=True)
class Verdict:
    ok: bool
    kind: str = ""
    known: bool = False
    detail: str = ""
    unchecked: bool = False


PASS = Verdict(True)


def _fail(kind: str, detail: str, known: bool = False) -> Verdict:
    return Verdict(False, kind, known, detail)


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def lyapunov_from_g(omega: float, g20: complex, g11: complex, g02: complex, g21: complex) -> float:
    """l1 = Re[(i / 2w)(g20 g11 - 2|g11|^2 - |g02|^2 / 3) + g21 / 2]."""
    return ((1j / (2.0 * omega)) * (g20 * g11 - 2.0 * abs(g11) ** 2 - abs(g02) ** 2 / 3.0) + g21 / 2.0).real


def expected_root_count(item: HopfItem) -> int:
    """Audit-rectangle count: the critical pair plus the 2k + [A + B > 0] unstable roots."""
    return 2 + item.unstable_count


def check_report(item: HopfItem, text: str, oracle: bool, audit: bool, bundled: bool = False) -> Verdict:
    """Check an ``analyze`` report against the item it was generated from."""
    try:
        doc = json.loads(text)
        m, h = doc["model"], doc["hopf"]
        so, th = doc["second_order"], doc["third_order"]
    except (ValueError, KeyError, TypeError) as exc:
        return _fail("malformed_report", repr(exc))
    if (m["A"], m["B"], m["r"]) != (item.A, item.B, item.r):
        return _fail("model_echo", "report model differs from the input file")
    omega = h["omega"]
    if abs(omega - item.omega) > OMEGA_TOL * (1.0 + item.omega):
        return _fail("wrong_frequency", f"omega {omega!r}, expected {item.omega!r}")

    g20, g11, g02, g21 = (_c(so["g20"]), _c(so["g11"]), _c(so["g02"]), _c(th["g21"]))
    l1 = lyapunov_from_g(omega, g20, g11, g02, g21)
    scale = 1.0 + (abs(g20 * g11) + abs(g11) ** 2 + abs(g02) ** 2) / omega + abs(g21)
    if abs(l1 - doc["l1"]) > L1_TOL * scale:
        return _fail("l1_mismatch", f"reported {doc['l1']!r}, recomputed {l1!r}")

    A, B, r = item.A, item.B, item.r
    w0, wmr, R1, R2 = _c(th["w21_0"]), _c(th["w21_mr"]), _c(th["R1"]), _c(th["R2"])
    e = cmath.exp(-1j * omega * r)
    row1 = abs(wmr - (e * w0 + R1))
    if row1 > ROW_TOL * (1.0 + abs(wmr) + abs(w0) + abs(R1)):
        return _fail("w21_row1", f"residual {row1:.3e}")
    a, b = (1j * omega - A) * w0, B * wmr
    row2 = abs(-a + b - R2)
    if row2 > ROW_TOL * (1.0 + abs(a) + abs(b) + abs(R2)):
        return _fail("w21_row2", f"residual {row2:.3e}")

    if bundled:
        if abs(m["C"].get("1,1", 0.0) - BUNDLED_C1) > 1e-9:
            return _fail("bundled_model", "bundled C[1,1] is not the closed-form C1")
        if abs(doc["l1"]) > BUNDLED_L1_TOL:
            return _fail("bundled_l1", f"|l1| = {abs(doc['l1']):.3e} at c = C1")

    if audit:
        if doc["root_count"] != expected_root_count(item):
            return _fail("count_mismatch",
                         f"{doc['root_count']} roots, closed form {expected_root_count(item)}", known=True)
    elif doc["root_count"] is not None:
        return _fail("unexpected_audit", "root_count present without --audit")

    if oracle:
        o = doc["oracle"]
        if o is None:
            return _fail("missing_oracle", "oracle block absent")
        closed, extrap = _c(o["closed_form"]), _c(o["extrapolated"])
        if abs(closed - w0) > 1e-9 * (1.0 + abs(w0)):
            return _fail("oracle_closed_form", "oracle closed form differs from w21(0)")
        rel_gap = abs(extrap - closed) / abs(closed) if closed else abs(extrap)
        if not rel_gap <= ORACLE_REL_GAP:
            return _fail("oracle_gap", f"relative gap {rel_gap:.3e}", known=True)
    elif doc["oracle"] is not None:
        return _fail("unexpected_oracle", "oracle block present with --no-oracle")
    return PASS


def l1_at(item: HopfItem, param: str, value: float) -> float:
    """l1 of the item's model with one Taylor coefficient replaced, via public calls."""
    j, k = (int(p) for p in param[1:].split(","))
    C = item.taylor()
    C[(j, k)] = value
    lin = LinearPart(item.A, item.B, item.r)
    model = ModelSpec(lin, C)
    eig = build_eigendata(lin, find_critical_frequency(lin))
    return lyapunov_l1(assemble_reduced(model, eig, second_order(model, eig)))


def quadratic_roots(c0: float, c1: float, c2: float, lo: float, hi: float) -> list[float]:
    """Real roots of c0 + c1 x + c2 x^2 inside [lo, hi], cancellation-free."""
    scale = abs(c0) + abs(c1) * max(abs(lo), abs(hi)) + abs(c2) * max(lo * lo, hi * hi)
    if abs(c2) * max(lo * lo, hi * hi) <= 1e-13 * scale:
        roots = [] if c1 == 0 else [-c0 / c1]
    else:
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc < 0:
            return []
        q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
        roots = [q / c2] + ([c0 / q] if q != 0 else [])
    return sorted(x for x in roots if lo <= x <= hi)


def check_sweep(item: HopfItem, text: str, fitted: tuple[float, float, float]) -> Verdict:
    """Check a ``sweep`` CSV against the quadratic through l1 at the ends and
    the middle of the sweep range.

    l1 is exactly quadratic in any single Taylor coefficient, so the three
    values in ``fitted`` fix it.
    """
    lines = text.splitlines()
    try:
        head = lines[0]
        if not head.startswith("# roots ="):
            raise ValueError(head)
        reported = [float(x) for x in head[len("# roots ="):].split()]
        if lines[1] != f"{item.sweep_param},l1":
            raise ValueError(lines[1])
        grid = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    except (ValueError, IndexError) as exc:
        return _fail("malformed_sweep", repr(exc))
    lo, hi = SWEEP_RANGE
    mid, half = (lo + hi) / 2, (hi - lo) / 2
    fm, f0, fp = fitted
    # the quadratic in u = x - mid through (-half, fm), (0, f0), (half, fp)
    b0, b1, b2 = f0, (fp - fm) / (2 * half), (fp + fm - 2 * f0) / (2 * half * half)
    c0, c1, c2 = b0 - b1 * mid + b2 * mid * mid, b1 - 2 * b2 * mid, b2
    if grid.shape != (SWEEP_POINTS, 2) or grid[0, 0] != lo or grid[-1, 0] != hi:
        return _fail("sweep_grid", f"grid shape {grid.shape}")
    x, v = grid[:, 0], grid[:, 1]
    q = c0 + c1 * x + c2 * x * x
    scale = 1.0 + np.max(np.abs(q))
    if np.max(np.abs(v - q)) > SWEEP_VALUE_TOL * scale:
        return _fail("sweep_values", f"max deviation {np.max(np.abs(v - q)):.3e} from the quadratic")
    expected = quadratic_roots(c0, c1, c2, lo, hi)
    if _same_roots(reported, expected):
        return PASS
    # two roots inside one grid cell leave no sign change on the grid
    step = (hi - lo) / (SWEEP_POINTS - 1)
    cells = [math.floor((x - lo) / step) for x in expected]
    if len(expected) == 2 and cells[0] == cells[1] and not reported:
        return _fail("sweep_missed_pair", f"roots {expected} share one grid cell", known=True)
    return _fail("sweep_roots", f"reported {reported}, quadratic {expected}")


def _same_roots(reported: list[float], expected: list[float]) -> bool:
    return len(reported) == len(expected) and all(
        abs(a - b) <= SWEEP_ROOT_TOL * (1.0 + abs(b)) for a, b in zip(reported, expected))


def check_trajectory(item: HopfItem, text: str) -> Verdict:
    """Check a ``simulate`` CSV: finite, on its grid, oscillating at omega."""
    try:
        data = np.loadtxt(text.splitlines()[1:], delimiter=",", ndmin=2)
    except ValueError as exc:
        return _fail("malformed_trajectory", repr(exc))
    if data.ndim != 2 or data.shape[1] != 2 or len(data) < 2:
        return _fail("malformed_trajectory", f"table of shape {data.shape}")
    t, x = data[:, 0], data[:, 1]
    if not np.all(np.isfinite(data)):
        return _fail("not_finite", "trajectory has non-finite values")
    if t[0] != 0.0 or t[-1] < 50.0 * item.r * (1 - 1e-12):
        return _fail("sim_grid", f"time grid [{t[0]}, {t[-1]}] does not cover 50 r")
    keep = t >= 10.0 * item.r
    t, x = t[keep], x[keep]
    i = np.nonzero(x[:-1] * x[1:] < 0.0)[0]
    crossings = t[i] - x[i] * (t[i + 1] - t[i]) / (x[i + 1] - x[i])
    if len(crossings) < SIM_MIN_CROSSINGS:
        return Verdict(True, unchecked=True)
    freq = math.pi * (len(crossings) - 1) / (crossings[-1] - crossings[0])
    if abs(freq - item.omega) > SIM_FREQ_TOL * item.omega:
        return _fail("sim_frequency", f"frequency {freq:.6g}, omega {item.omega:.6g}")
    return PASS
