"""Exception types shared across the package."""


class PinvLabError(Exception):
    """Base class for all package errors."""


class PreconditionError(PinvLabError):
    """An input violates a documented precondition."""


class ConvergenceError(PinvLabError):
    """An iterative scheme (factorization, quadrature) failed to converge.

    Carries the last residual in ``residual`` when available.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ConsistencyError(PinvLabError):
    """Two independent computations of the same quantity disagree.

    Usually signals a singular value or eigenvalue at the rank cutoff of
    ``matcore.svd`` or ``matcore.psd_eigh``.
    """


class GapTooLargeError(PinvLabError):
    """Two projections are at operator distance >= 1; no direct rotation exists.

    Carries that distance in ``gap``.
    """

    def __init__(self, message, gap):
        super().__init__(message)
        self.gap = gap


class StratumError(PinvLabError):
    """An operation requires inputs in the same stratum (equal rank) and they are not."""


class OutsideNeighborhoodError(PinvLabError):
    """A local construction (cross-section, chart) was evaluated outside its domain."""


class ObstructionError(PinvLabError):
    """Rank-decreasing approximation requested; unattainable under small perturbations."""
