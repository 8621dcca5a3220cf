"""Property tests over the Hopf family.

The scaling law: t -> t / w and x -> w x map the problem at (w, theta, k;
C2, C3) onto the one at (1, theta, k; C2, w C3), where C2 are the quadratic
and C3 the cubic Taylor coefficients. So w^2 w21 and w l1 do not depend on
w once C3 is scaled with it.
"""

import math

from hypothesis import given, settings, strategies as st

from ddecm.reduction import analyze_model

from conftest import hopf_curve_model

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
