"""Finite-dimensional laboratory for pseudoinverse and polar-decomposition
perturbation experiments: rank strata and their continuity certification,
group-action witnesses and cross-sections, operator-monotone functional
calculus with certified remainders, and fiber-bundle chart round trips.
"""

from . import codim, generate, matcore, monotone, pinv, polar, strata
from .errors import (
    ConsistencyError,
    ConvergenceError,
    GapTooLargeError,
    ObstructionError,
    OutsideNeighborhoodError,
    PinvLabError,
    PreconditionError,
    StratumError,
)
from .matcore import (
    FROBENIUS_NORM,
    GaugeNorm,
    OP_NORM,
    TRACE_NORM,
    gauge_norm,
)
from .pinv import moore_penrose

__all__ = [
    "codim", "generate", "matcore", "monotone", "pinv", "polar", "strata",
    "ConsistencyError", "ConvergenceError", "GapTooLargeError",
    "ObstructionError", "OutsideNeighborhoodError", "PinvLabError",
    "PreconditionError", "StratumError",
    "FROBENIUS_NORM", "GaugeNorm", "OP_NORM", "TRACE_NORM",
    "gauge_norm", "moore_penrose",
]

__version__ = "0.1.0"
