"""Exact algebra for exponential polynomials sum_i c_i * s^k_i * exp(l_i * s).

ExpPoly builds the eigenfunctions of ``spectral`` and the w profiles a
report serializes, each on a closed interval. Sums, products, argument
shifts, derivatives and definite integrals stay inside the class and are
computed in closed form; the tests use ExpPoly as their oracle. The cubic
stage and the perturbation oracle skip the algebra and call :func:`moment`,
the one integrator, on scalar (coeff, rate) pairs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable

from .errors import DomainMismatchError

# Degree-1 terms appear through the resonant w21 forcing and degree-2 through
# pairings of two degree-1 factors; 4 leaves headroom.
MAX_DEGREE = 4

# Rates constructed from a shared omega collide exactly; this tolerance only
# absorbs last-ulp noise when rates are assembled through arithmetic.
_RATE_MERGE_TOL = 1e-14

# Interval-membership slack for floating endpoint arithmetic.
_DOMAIN_SLACK = 1e-9


def _require_finite(z: complex, what: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{what} must be finite, got {z!r}")
    return z


@dataclass(frozen=True)
class ExpMonomial:
    """A single term ``coeff * s**degree * exp(rate * s)``."""

    coeff: complex
    rate: complex
    degree: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coeff", _require_finite(self.coeff, "coeff"))
        object.__setattr__(self, "rate", _require_finite(self.rate, "rate"))
        if not isinstance(self.degree, int) or not 0 <= self.degree <= MAX_DEGREE:
            raise ValueError(f"degree must be an integer in [0, {MAX_DEGREE}], got {self.degree}")

    def __call__(self, s: float) -> complex:
        return self.coeff * s**self.degree * cmath.exp(self.rate * s)


class ExpPoly:
    """Exponential polynomial on a closed interval ``[a, b]``.

    Terms with (numerically) identical ``(rate, degree)`` are merged on
    construction; an empty term list is the zero function. Instances are
    immutable values.
    """

    __slots__ = ("terms", "domain")

    def __init__(self, terms: Iterable[ExpMonomial], domain: tuple[float, float]):
        a, b = float(domain[0]), float(domain[1])
        if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
            raise ValueError(f"domain must be a finite interval [a, b] with a < b, got {domain}")
        object.__setattr__(self, "domain", (a, b))
        object.__setattr__(self, "terms", _merge(terms))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ExpPoly is immutable")

    # --- constructors -------------------------------------------------

    @staticmethod
    def zero(domain: tuple[float, float]) -> "ExpPoly":
        return ExpPoly((), domain)

    @staticmethod
    def monomial(coeff: complex, rate: complex, degree: int, domain: tuple[float, float]) -> "ExpPoly":
        return ExpPoly((ExpMonomial(coeff, rate, degree),), domain)

    # --- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def max_coeff(self) -> float:
        return max((abs(t.coeff) for t in self.terms), default=0.0)

    def _check_in_domain(self, s: float) -> None:
        a, b = self.domain
        slack = _DOMAIN_SLACK * (1.0 + abs(a) + abs(b))
        if not (a - slack <= s <= b + slack):
            raise DomainMismatchError(f"argument {s} outside domain [{a}, {b}]")

    def eval(self, s: float) -> complex:
        """Value at ``s``; raises :class:`DomainMismatchError` outside the domain."""
        self._check_in_domain(s)
        return sum((t(s) for t in self.terms), 0j)

    __call__ = eval

    # --- algebra --------------------------------------------------------

    def _require_same_domain(self, other: "ExpPoly") -> None:
        if (
            abs(self.domain[0] - other.domain[0]) > _DOMAIN_SLACK
            or abs(self.domain[1] - other.domain[1]) > _DOMAIN_SLACK
        ):
            raise DomainMismatchError(f"domain mismatch: {self.domain} vs {other.domain}")

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        self._require_same_domain(other)
        return ExpPoly(self.terms + other.terms, self.domain)

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + other.scale(-1.0)

    def scale(self, c: complex) -> "ExpPoly":
        return ExpPoly(tuple(ExpMonomial(t.coeff * c, t.rate, t.degree) for t in self.terms), self.domain)

    def __mul__(self, other):
        if isinstance(other, ExpPoly):
            self._require_same_domain(other)
            prods = []
            for p in self.terms:
                for q in other.terms:
                    prods.append(ExpMonomial(p.coeff * q.coeff, p.rate + q.rate, p.degree + q.degree))
            return ExpPoly(prods, self.domain)
        return self.scale(other)

    __rmul__ = __mul__

    def conjugate(self) -> "ExpPoly":
        """Complex conjugate: conj(p)(s) == conj(p(s)) for real s."""
        return ExpPoly(
            tuple(ExpMonomial(t.coeff.conjugate(), t.rate.conjugate(), t.degree) for t in self.terms),
            self.domain,
        )

    def shift_argument(self, delta: float) -> "ExpPoly":
        """Return ``s -> p(s + delta)`` on the shifted domain ``[a-delta, b-delta]``."""
        out = []
        for t in self.terms:
            pref = t.coeff * cmath.exp(t.rate * delta)
            # (s + delta)^k expanded binomially
            for j in range(t.degree + 1):
                out.append(ExpMonomial(pref * math.comb(t.degree, j) * delta ** (t.degree - j), t.rate, j))
        return ExpPoly(out, (self.domain[0] - delta, self.domain[1] - delta))

    def derivative(self) -> "ExpPoly":
        out = []
        for t in self.terms:
            out.append(ExpMonomial(t.coeff * t.rate, t.rate, t.degree))
            if t.degree > 0:
                out.append(ExpMonomial(t.coeff * t.degree, t.rate, t.degree - 1))
        return ExpPoly(out, self.domain)

    # --- integration ------------------------------------------------------

    def integrate(self, a: float | None = None, b: float | None = None) -> complex:
        """Exact definite integral over ``[a, b]`` (default: the whole domain)."""
        if a is None:
            a = self.domain[0]
        if b is None:
            b = self.domain[1]
        self._check_in_domain(a)
        self._check_in_domain(b)
        return sum((t.coeff * moment(t.rate, t.degree, a, b) for t in self.terms), 0j)

    # --- misc ----------------------------------------------------------

    def __repr__(self) -> str:
        inner = " + ".join(f"({t.coeff:.6g})*s^{t.degree}*e^({t.rate:.6g}s)" for t in self.terms)
        return f"ExpPoly[{self.domain[0]:g},{self.domain[1]:g}]({inner or '0'})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExpPoly)
            and self.domain == other.domain
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.domain, self.terms))


def _merge(terms: Iterable[ExpMonomial]) -> tuple[ExpMonomial, ...]:
    ordered = sorted(
        (t for t in terms if t.coeff != 0),
        key=lambda t: (t.rate.real, t.rate.imag, t.degree),
    )
    merged: list[ExpMonomial] = []
    for t in ordered:
        if (
            merged
            and merged[-1].degree == t.degree
            and abs(merged[-1].rate - t.rate) <= _RATE_MERGE_TOL
        ):
            c = merged[-1].coeff + t.coeff
            last = merged.pop()
            if c != 0:
                merged.append(ExpMonomial(c, last.rate, last.degree))
        else:
            merged.append(t)
    return tuple(merged)


def moment(lam: complex, k: int, a: float, b: float) -> complex:
    """The moment ``int_a^b s^k e^{lam s} ds``.

    Three branches keep full precision: an exact polynomial when the rate is
    (relatively) zero, a power series when |rate|*scale is small (where the
    primitive's values at a and b would cancel catastrophically), and the
    integration-by-parts closed form otherwise.
    """
    if a == b:
        return 0j
    span = abs(b - a)
    if abs(lam) * span <= 1e-12:
        return (b ** (k + 1) - a ** (k + 1)) / (k + 1)
    scale = max(abs(a), abs(b), span)
    if abs(lam) * scale <= 0.5:
        # sum_m lam^m/m! * (b^{k+m+1} - a^{k+m+1})/(k+m+1)
        total = 0j
        lam_pow = 1.0 + 0j
        fact = 1.0
        m = 0
        while True:
            inc = lam_pow / fact * (b ** (k + m + 1) - a ** (k + m + 1)) / (k + m + 1)
            total += inc
            if abs(inc) <= 1e-17 * (1.0 + abs(total)) and m >= 4:
                break
            m += 1
            lam_pow *= lam
            fact *= m
            if m > 60:  # pragma: no cover - series always converges long before
                break
        return total
    # primitive e^{ls} * sum_j p_j s^j, coefficients from the highest degree down
    p = 1.0 / lam
    coeffs = [p]
    for j in range(k - 1, -1, -1):
        p = -(j + 1) * p / lam
        coeffs.append(p)
    poly_b = poly_a = 0j
    for c in coeffs:
        poly_b = poly_b * b + c
        poly_a = poly_a * a + c
    return cmath.exp(lam * b) * poly_b - cmath.exp(lam * a) * poly_a
