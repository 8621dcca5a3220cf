"""Critical-eigenspace machinery: the Hale bilinear pairing and the
eigenfunction matrix normalization.

The one-delay Stieltjes kernel collapses the pairing to its reduced closed
form psi(0)*phi(0) + B * int_{-r}^0 psi(z + r) phi(z) dz, which is what is
implemented; no measure object is materialized. The eigenfunctions are
single exponentials, so the spectral kit pairs them as scalars, one
:func:`ddecm.exppoly.moment` each; :func:`bilinear` pairs general
exponential polynomials.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .chareq import HopfPoint, LinearPart
from .errors import DegenerateSystemError, DomainMismatchError, InconsistencyError
from .exppoly import ExpMonomial, ExpPoly, moment

_PAIRING_TOL = 1e-12


@dataclass(frozen=True)
class EigenData:
    """Spectral kit at a Hopf point.

    phi1, phi2 live on [-r, 0]; psi1, psi2 and the normalized Psi1, Psi2 on
    [0, r]; e11, e22 are the diagonal pairing-matrix entries and Psi1_at_0 the
    normalization constant entering every g coefficient.
    """

    omega: float
    phi1: ExpPoly
    phi2: ExpPoly
    psi1: ExpPoly
    psi2: ExpPoly
    e11: complex
    e22: complex
    Psi1: ExpPoly
    Psi2: ExpPoly
    Psi1_at_0: complex


def bilinear(psi: ExpPoly, phi: ExpPoly, lin: LinearPart) -> complex:
    """<psi, phi> = psi(0) phi(0) + B * int_{-r}^0 psi(z + r) phi(z) dz.

    ``psi`` must live on [0, r] and ``phi`` on [-r, 0]; the product is expanded
    in the exponential-polynomial algebra and integrated in closed form.
    """
    r = lin.r
    if abs(psi.domain[0]) > 1e-9 or abs(psi.domain[1] - r) > 1e-9:
        raise DomainMismatchError(f"psi must live on [0, {r}], got {psi.domain}")
    if abs(phi.domain[0] + r) > 1e-9 or abs(phi.domain[1]) > 1e-9:
        raise DomainMismatchError(f"phi must live on [{-r}, 0], got {phi.domain}")
    boundary = psi.eval(0.0) * phi.eval(0.0)
    integral = (psi.shift_argument(r) * phi).integrate(-r, 0.0)
    return boundary + lin.B * integral


def _pairing(psi: ExpMonomial, phi: ExpMonomial, lin: LinearPart) -> complex:
    """:func:`bilinear` of the one-term psi (on [0, r]) and phi (on [-r, 0]),
    both of degree 0, as one scalar moment with bilinear's arithmetic."""
    r = lin.r
    integral = psi.coeff * cmath.exp(psi.rate * r) * phi.coeff * moment(psi.rate + phi.rate, 0, -r, 0.0)
    return psi.coeff * phi.coeff + lin.B * integral


def build_eigendata(lin: LinearPart, hopf: HopfPoint) -> EigenData:
    """Construct eigenfunctions and their biorthogonal normalization.

    e11 and the pairing matrix <Psi_i, phi_j>, validated as delta_ij before
    returning, are scalar pairings of the one-term eigenfunctions, equal to
    :func:`bilinear` bit for bit; e22 is the conjugate of e11.
    """
    w = hopf.omega
    r = lin.r
    phi1 = ExpPoly.monomial(1.0, 1j * w, 0, (-r, 0.0))
    phi2 = phi1.conjugate()
    psi1 = ExpPoly.monomial(1.0, -1j * w, 0, (0.0, r))
    psi2 = psi1.conjugate()
    p1, p2 = phi1.terms[0], phi2.terms[0]

    e11 = _pairing(psi1.terms[0], p1, lin)
    e22 = e11.conjugate()  # the pairing of the conjugate pair
    # closed form 1 - (A - i w) r; drifts from the pairing only by O(r * Hopf residual)
    e11_closed = 1.0 - (lin.A - 1j * w) * r
    if abs(e11 - e11_closed) > 1e-12 + 2.0 * r * hopf.residual:
        raise InconsistencyError(
            f"pairing e11 = {e11} differs from its closed form {e11_closed}"
        )
    if abs(e11 * e22) <= 1e-12:
        raise DegenerateSystemError("pairing matrix is degenerate; cannot normalize")

    Psi1 = psi1.scale(1.0 / e11)
    Psi2 = Psi1.conjugate()
    for i, Psi in ((1, Psi1), (2, Psi2)):
        for j, phi in ((1, p1), (2, p2)):
            expected = 1.0 if i == j else 0.0
            got = _pairing(Psi.terms[0], phi, lin)
            if abs(got - expected) > _PAIRING_TOL + 2.0 * r * hopf.residual:
                raise InconsistencyError(
                    f"biorthogonality failed: <Psi{i}, phi{j}> = {got}, expected {expected}"
                )
    return EigenData(
        omega=w,
        phi1=phi1,
        phi2=phi2,
        psi1=psi1,
        psi2=psi2,
        e11=e11,
        e22=e22,
        Psi1=Psi1,
        Psi2=Psi2,
        Psi1_at_0=Psi1.eval(0.0),
    )
