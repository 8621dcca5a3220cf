"""Seeded sampler of exact Hopf points of x' = A x + B x(t-r) + f.

Every workload draws its models here. A point on the closed-form Hopf curve
is A = w cot(theta), B = -w / sin(theta), r = (theta + 2 pi k) / w: the
characteristic equation then has the root pair +-i w at the k-th crossing.
theta in (0, pi) gives B < 0 and theta in (pi, 2 pi) gives B > 0; the number
of characteristic roots with positive real part is 2k + [A + B > 0]
(Hayes 1950), and A + B > 0 exactly when B > 0.

The sample is stratified by (k, sign of B) in equal shares. Inside each
stratum the (log w, theta) square is cut into n x n cells, n cells are taken
on a fixed lattice (one in each row and each column), and the seed jitters
each point inside its cell. Two seeds thus give different points with the
same spread of difficulty, which keeps percentiles steady from seed to seed
even though the cost of an item varies a thousandfold across the family.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

OMEGA_RANGE = (0.03, 30.0)
# Constant history of the simulated items. The CLI's default 0.01 is not small
# over the whole family: where w or |A + B| = w tan(theta / 2) is small, the
# Taylor terms (|C| <= 2) at that amplitude outweigh the linear part, and the
# run drifts in frequency or escapes along the slow real mode. At 1e-4 it
# stays weakly nonlinear and oscillates at w.
SIM_HISTORY = 1e-4
THETA_MARGIN = 0.05  # distance kept from theta = 0 and theta = pi (mod pi)
C_RANGE = 2.0
C_KEYS = ("2,0", "1,1", "0,2", "3,0", "2,1", "1,2", "0,3")
SWEEP_RANGE = (-4.0, 4.0)
SWEEP_POINTS = 200


@dataclass(frozen=True)
class HopfItem:
    """One generated model: its place on the Hopf curve and its file contents."""

    name: str
    k: int
    theta: float
    omega: float
    A: float
    B: float
    r: float
    C: dict
    sweep_param: str | None = None
    history: float | None = None

    @property
    def unstable_count(self) -> int:
        """Closed-form number of roots with Re > 0 (the critical pair excluded)."""
        return 2 * self.k + (1 if self.A + self.B > 0 else 0)

    def taylor(self) -> dict[tuple[int, int], float]:
        """C keyed by (j, k), as ddecm.ModelSpec takes it."""
        return {tuple(int(p) for p in key.split(",")): v for key, v in self.C.items()}

    def document(self) -> dict:
        doc = {"A": self.A, "B": self.B, "r": self.r, "C": dict(self.C)}
        if self.sweep_param is not None:
            lo, hi = SWEEP_RANGE
            doc["sweep"] = {"param": self.sweep_param, "min": lo, "max": hi, "points": SWEEP_POINTS}
        if self.history is not None:
            doc["sim"] = {"history": self.history}
        return doc


def hopf_point(omega: float, theta: float, k: int) -> tuple[float, float, float]:
    """(A, B, r) of the Hopf point with frequency omega, phase theta, crossing k."""
    return omega / math.tan(theta), -omega / math.sin(theta), (theta + 2.0 * math.pi * k) / omega


def _lattice_step(n: int) -> int:
    """The multiplier coprime to n closest to n / golden ratio (a Fibonacci-like lattice)."""
    target = n / ((1.0 + math.sqrt(5.0)) / 2.0)
    return min((a for a in range(1, n + 1) if math.gcd(a, n) == 1), key=lambda a: abs(a - target))


def _cells(rng: random.Random, n: int) -> list[tuple[float, float]]:
    """n points of the unit square: cell i of the first axis is paired with cell
    (a i mod n) of the second, and each point is jittered inside its cell."""
    a = _lattice_step(n)
    return [((i + rng.random()) / n, ((a * i) % n + rng.random()) / n) for i in range(n)]


def sample(seed: int, n: int, ks=(0, 1, 2), signs=(-1, 1), sweep: bool = False,
           history: float | None = None) -> list[HopfItem]:
    """n Hopf points, n / len(ks x signs) per (k, sign of B) stratum, interleaved."""
    strata = [(k, s) for k in ks for s in signs]
    if n % len(strata):
        raise ValueError(f"n = {n} is not a multiple of the {len(strata)} strata")
    per = n // len(strata)
    rng = random.Random(seed)
    lo, hi = math.log(OMEGA_RANGE[0]), math.log(OMEGA_RANGE[1])
    span = math.pi - 2.0 * THETA_MARGIN
    columns = []
    for k, sign in strata:
        col = []
        for uw, ut in _cells(rng, per):
            omega = math.exp(lo + (hi - lo) * uw)
            theta = THETA_MARGIN + span * ut + (math.pi if sign > 0 else 0.0)
            C = {key: rng.uniform(-C_RANGE, C_RANGE) for key in C_KEYS}
            col.append((k, theta, omega, C))
        columns.append(col)
    items = []
    for i in range(per):
        for col in columns:
            k, theta, omega, C = col[i]
            A, B, r = hopf_point(omega, theta, k)
            # swept keys rotate, so every seed sweeps each key equally often
            param = "C" + C_KEYS[len(items) % len(C_KEYS)] if sweep else None
            items.append(HopfItem(f"m{len(items):03d}", k, theta, omega, A, B, r, C, param, history))
    return items


def write_models(items: list[HopfItem], directory: str) -> list[str]:
    """Write one model file per item; returns the paths in item order."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for item in items:
        path = os.path.join(directory, item.name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(item.document(), indent=2, sort_keys=True) + "\n")
        paths.append(path)
    return paths
