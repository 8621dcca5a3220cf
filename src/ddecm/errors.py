"""Exception types shared across the package.

Math-domain failures derive from :class:`CenterManifoldError`; the CLI maps
them to exit code 2. File/validation problems raise :class:`ModelFileError`
or plain ``ValueError`` and map to exit code 1.
"""


class CenterManifoldError(Exception):
    """Base class for mathematical failures of the reduction pipeline."""


class DomainMismatchError(CenterManifoldError):
    """An argument or interval lies outside a function's domain."""


class NoHopfError(CenterManifoldError):
    """Newton iteration failed to locate a Hopf point."""


class InvalidRootError(NoHopfError):
    """Newton converged, but to a non-positive frequency."""


class NotHopfPointError(CenterManifoldError):
    """The characteristic residual at i*omega exceeds the tolerance."""


class RootOnContourError(CenterManifoldError):
    """A characteristic root lies (numerically) on the counting contour."""


class QuadratureError(CenterManifoldError):
    """Adaptive quadrature failed to converge to the requested tolerance."""


class DegenerateSystemError(CenterManifoldError):
    """A normalization or limit denominator is numerically zero."""


class ResonanceError(CenterManifoldError):
    """A second-order solve is singular (1:2 resonance or its perturbed analogue)."""


class ZeroEigenvalueError(CenterManifoldError):
    """The w11 system is singular because 0 is (numerically) an eigenvalue."""


class InconsistentFamilyError(CenterManifoldError):
    """A perturbation family does not satisfy its defining characteristic equation."""


class InconsistencyError(CenterManifoldError):
    """Redundant cross-check failed; indicates an upstream computation bug."""


class DivergenceError(CenterManifoldError):
    """Trajectory blow-up; carries the failure time."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


class TooFewCrossingsError(CenterManifoldError):
    """Not enough zero crossings to estimate a frequency."""


class ModelFileError(ValueError):
    """Model or report document is malformed (I/O-level error, exit code 1)."""


class NoConvergenceWarning(UserWarning):
    """Extrapolation estimates do not approach their limit monotonically."""


class SpectrumAuditWarning(UserWarning):
    """The count of characteristic roots with nonnegative real part differs
    from the expected two (the critical pair alone)."""
