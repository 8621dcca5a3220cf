"""Critical-eigenspace machinery: the Hale bilinear pairing and the
normalized adjoint eigenfunction.

The one-delay Stieltjes kernel collapses the pairing to its reduced closed
form psi(0)*phi(0) + B * int_{-r}^0 psi(z + r) phi(z) dz, which is what is
implemented; no measure object is materialized. The eigenfunctions are
single exponentials, phi1 = e^{i w s} and psi1 = e^{-i w z}, so
e11 = <psi1, phi1> = 1 + B r e^{-i w r} = F'(i w), the slope that
:func:`ddecm.chareq.verify_hopf` evaluates with the Hopf point; the kit keeps
only Psi1 = psi1 / e11, and :func:`bilinear` pairs general exponential
polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chareq import HopfPoint, LinearPart
from .errors import DegenerateSystemError, DomainMismatchError
from .exppoly import ExpPoly


@dataclass(frozen=True)
class EigenData:
    """Spectral kit at a Hopf point.

    e11, e22 are the diagonal pairing-matrix entries, Psi1 = psi1 / e11 the
    normalized adjoint eigenfunction on [0, r] and Psi1_at_0 its value at 0,
    the normalization constant entering every g coefficient.
    """

    omega: float
    e11: complex
    e22: complex
    Psi1: ExpPoly
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


def build_eigendata(lin: LinearPart, hopf: HopfPoint) -> EigenData:
    """Normalize the adjoint eigenfunction at a verified Hopf point.

    e11 = ``hopf.slope`` = F'(i w), equal to :func:`bilinear` of psi1 and phi1 bit
    for bit; e22 is its conjugate and Psi1 = psi1 / e11. A root that is not
    ``hopf.simple`` (|e11| <= ``SIMPLE_TOL``) is DegenerateSystemError. Nothing is
    re-paired: <Psi1, phi1> = 1 by construction, and <Psi1, phi2> =
    Psi1(0) Im F(i w) / w is bounded by the residual that
    :func:`ddecm.chareq.verify_hopf` checked.
    """
    if not hopf.simple:
        raise DegenerateSystemError("pairing matrix is degenerate; cannot normalize")
    w, e11 = hopf.omega, hopf.slope
    Psi1 = ExpPoly.monomial(1.0, -1j * w, 0, (0.0, lin.r)).scale(1.0 / e11)
    return EigenData(
        omega=w,
        e11=e11,
        e22=e11.conjugate(),  # the pairing of the conjugate pair
        Psi1=Psi1,
        Psi1_at_0=Psi1.eval(0.0),
    )
