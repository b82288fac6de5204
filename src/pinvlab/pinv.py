"""Moore-Penrose inverse, reduced minimum modulus and perturbation bounds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .matcore import GaugeNorm, SvdResult, gauge_norm, same_shape, svd


@dataclass(frozen=True)
class BoundReport:
    hypothesis_met: bool
    bound: float
    actual: float


def moore_penrose(a) -> SvdResult:
    """The pseudoinverse report of A: its SVD, which carries A^+ (``pinv``),
    gamma(A) (= 1/||A^+||; 0 for the zero matrix) and orthonormal bases of
    the range, the corange, the row space and the null space."""
    return svd(a)


def wedin_residual(a, b, g: GaugeNorm) -> float:
    """Gauge norm of the defect in the algebraic identity relating A^+ - B^+
    to A - B through the range and nullspace projectors.

    The identity is exact, so the return value is pure roundoff.  The
    Gram pseudoinverses (A*A)^+ = A^+ A^+* and (BB*)^+ = B^+* B^+ are
    read from the two SVDs: an SVD of a Gram matrix would cut off
    sigma_r^2 as soon as sigma_r falls below the root of the cutoff.
    """
    same_shape(a, b)
    ra, rb = moore_penrose(a), moore_penrose(b)
    a, b = ra.matrix, rb.matrix
    ident = np.eye(a.shape[0], dtype=complex)
    ident_n = np.eye(a.shape[1], dtype=complex)
    ata_p = ra.pinv @ ra.pinv.conj().T
    bbs_p = rb.pinv.conj().T @ rb.pinv
    lhs = ra.pinv - rb.pinv
    rhs = (
        -ra.pinv @ (a - b) @ rb.pinv
        + ata_p @ (a - b).conj().T @ (ident - b @ rb.pinv)
        + (ident_n - ra.pinv @ a) @ (a - b).conj().T @ bbs_p
    )
    return gauge_norm(lhs - rhs, g)


def same_rank_bound(a, b) -> BoundReport:
    """Norm bound for B^+ under an equal-rank perturbation within gamma(A).

    For a fixed shape equal nullity is equal rank, so the same hypothesis
    stated through the index of the pair of null projectors adds nothing.
    """
    same_shape(a, b)
    ra, rb = moore_penrose(a), moore_penrose(b)
    dist = float(np.linalg.norm(ra.matrix - rb.matrix, 2))
    met = ra.rank == rb.rank and dist < ra.gamma     # never for A = 0, as gamma(0) = 0
    bound = ra.pinv_norm / (1.0 - ra.pinv_norm * dist) if dist < ra.gamma else float("inf")
    return BoundReport(met, bound, rb.pinv_norm)


def lipschitz_constant(a) -> float:
    """Local Lipschitz constant of the pseudoinverse map around A.

    Valid on the ball of gauge radius 1/(2 ||A^+||) intersected with the
    equal-nullity stratum:  (||A|| + 1/(2||A^+||))^2 + 8 ||A^+||^2.
    """
    res = moore_penrose(a)
    if res.rank == 0:
        raise PreconditionError("Lipschitz constant undefined for the zero matrix")
    norm_a = float(res.singular_values[0])
    norm_pinv = res.pinv_norm
    return (norm_a + 0.5 / norm_pinv) ** 2 + 8.0 * norm_pinv**2
