"""Center-manifold reduction of scalar one-delay differential equations at
Hopf points, including the degenerate third-order coefficient w21 via a
regularized limit formula, cross-validated by a perturbation oracle.
"""

from .chareq import (
    HopfPoint,
    LinearPart,
    char_value,
    find_critical_frequency,
    verify_hopf,
)
from .cmcore import (
    CubicStage,
    ModelSpec,
    SecondOrder,
    ThirdOrder,
    cubic_stage,
    degeneracy_report,
    second_order,
    third_order,
    third_order_rhs,
    w21_at_minus_r,
    w21_at_zero,
    w21_profile,
)
from .ddesim import SimConfig, Trajectory, integrate_dde, measure_frequency
from .errors import CenterManifoldError, ModelFileError
from .exppoly import ExpMonomial, ExpPoly
from .perturb import extrapolate_w21, perturbed_stage
from .reduction import (
    AnalysisReport,
    ReducedEquation,
    analyze_model,
    assemble_reduced,
    lyapunov_l1,
    sweep_l1_zeros,
)
from .spectral import EigenData, bilinear, build_eigendata

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "CenterManifoldError",
    "CubicStage",
    "EigenData",
    "ExpMonomial",
    "ExpPoly",
    "HopfPoint",
    "LinearPart",
    "ModelFileError",
    "ModelSpec",
    "ReducedEquation",
    "SecondOrder",
    "SimConfig",
    "ThirdOrder",
    "Trajectory",
    "analyze_model",
    "assemble_reduced",
    "bilinear",
    "build_eigendata",
    "char_value",
    "cubic_stage",
    "degeneracy_report",
    "extrapolate_w21",
    "find_critical_frequency",
    "integrate_dde",
    "lyapunov_l1",
    "measure_frequency",
    "perturbed_stage",
    "second_order",
    "sweep_l1_zeros",
    "third_order",
    "third_order_rhs",
    "verify_hopf",
    "w21_at_minus_r",
    "w21_at_zero",
    "w21_profile",
]
