"""Property tests over the Hopf family, and of the report format.

The scaling law: t -> t / w and x -> w x map the problem at (w, theta, k;
C2, C3) onto the one at (1, theta, k; C2, w C3), where C2 are the quadratic
and C3 the cubic Taylor coefficients. So w^2 w21 and w l1 do not depend on
w once C3 is scaled with it.

The paper's theorem: at a Hopf point the two rows of the w21 boundary system
are dependent, B R1 = R2, through four identities (see
``cmcore.CubicStage.degeneracy``).

Biorthogonality: the adjoint eigenfunctions Psi1, Psi2 are dual to phi1,
phi2 under the bilinear form, here paired by the ExpPoly route of
``spectral.bilinear``; the kit itself re-pairs nothing.
"""

import cmath
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from ddecm import cli
from ddecm.chareq import find_critical_frequency
from ddecm.modelio import dump_json
from ddecm.reduction import analyze_model
from ddecm.spectral import bilinear, build_eigendata

from conftest import HOPF_FAMILY, eigenfunctions, hopf_curve_model

_TAYLOR_KEYS = ((2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3))

thetas = st.floats(0.3, 2 * math.pi - 0.3)
crossings = st.integers(0, 2)
omegas = st.floats(math.log(0.03), math.log(30.0)).map(math.exp)
taylor = st.fixed_dictionaries({key: st.floats(-2.0, 2.0) for key in _TAYLOR_KEYS})


@settings(derandomize=True, deadline=None, max_examples=200)
@given(theta=thetas, k=crossings, omega=omegas, C=taylor)
def test_scaling_law(theta, k, omega, C):
    rep = analyze_model(hopf_curve_model(omega, theta, k, C), eps_grid=None)
    unit_C = {(j, i): c * omega if j + i == 3 else c for (j, i), c in C.items()}
    ref = analyze_model(hopf_curve_model(1.0, theta, k, unit_C), eps_grid=None)

    for got, want in ((rep.third.w21_0, ref.third.w21_0), (rep.third.w21_mr, ref.third.w21_mr)):
        assert abs(omega**2 * got - want) <= 1e-11 * abs(want)
    scale = abs(ref.l1) + abs(ref.third.stage.g21) + abs(ref.so.g20 * ref.so.g11)
    assert abs(omega * rep.l1 - ref.l1) <= 1e-13 * scale


@settings(derandomize=True, deadline=None, max_examples=200)
@given(theta=thetas, k=crossings, omega=omegas, C=taylor)
def test_rows_dependent(theta, k, omega, C):
    rep = analyze_model(hopf_curve_model(omega, theta, k, C), eps_grid=None)
    stage, deg = rep.third.stage, rep.degeneracy
    B, so = stage.B, stage.so
    assert deg.BR1_minus_R2 <= 1e-10 * (abs(B * stage.R1) + abs(stage.R2))
    scale = abs(B * stage.direct) + abs(stage.g21) + abs(stage.g12_bar) + abs(stage.so.f21)
    assert deg.residual_R1 <= 1e-10 * scale
    enur = cmath.exp(-(2 * stage.so.lam + stage.so.lam.conjugate()) * stage.so.r)
    for res, c, i, w0 in zip(
        (deg.residual_R2, deg.residual_R3, deg.residual_R4), so.forcing_weights,
        (stage.i20, stage.i11, stage.i02), (so.w20_0, so.w11_0, so.w02_0),
    ):
        assert res <= 1e-10 * abs(c) * (abs(B * enur * i) + abs(w0))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(theta=thetas, k=crossings, omega=omegas)
def test_biorthogonality(theta, k, omega):
    lin = hopf_curve_model(omega, theta, k, {}).lin
    eig = build_eigendata(lin, find_critical_frequency(lin, omega))
    ef = eigenfunctions(eig.omega, lin.r)
    for i, Psi in ((1, eig.Psi1), (2, eig.Psi1.conjugate())):
        for j, phi in ((1, ef.phi1), (2, ef.phi2)):
            assert abs(bilinear(Psi, phi, lin) - (1.0 if i == j else 0.0)) <= 1e-13


# --- the report format: json.dumps(indent=2, sort_keys=True) of the document, byte for byte

@pytest.mark.parametrize("n", range(len(HOPF_FAMILY)))
def test_cli_documents_are_json_dumps(tmp_path, monkeypatch, n):
    docs = []

    def dump_and_keep(doc):
        docs.append(doc)
        return dump_json(doc)

    monkeypatch.setattr(cli, "dump_json", dump_and_keep)
    model = HOPF_FAMILY[n]
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "A": model.lin.A, "B": model.lin.B, "r": model.lin.r,
        "C": {f"{j},{k}": v for (j, k), v in model.C.items()},
    }))
    out = tmp_path / "out.json"
    for argv in (["analyze"], ["analyze", "--no-oracle", "--audit"], ["perturb-check"], ["roots"]):
        assert cli.main([argv[0], "--model", str(path), "--out", str(out), *argv[1:]]) == 0
        assert out.read_text() == json.dumps(docs.pop(), indent=2, sort_keys=True) + "\n"
        assert not docs
