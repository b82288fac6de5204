"""Moore-Penrose inverse, reduced minimum modulus and perturbation bounds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .matcore import GaugeNorm, SvdResult, as_matrix, gauge_norm, same_shape, svd


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


def wedin_terms(a, b, x) -> np.ndarray:
    """-A^+ X B^+ + (A*A)^+ X* (I - BB^+) + (I - A^+A) X* (BB*)^+.

    At X = A - B the terms sum to A^+ - B^+ (Wedin's identity); at A = B
    they are the derivative of B -> B^+ along X.  A and B are matrices or
    their SVDs, X of their shape (PreconditionError otherwise).  Each
    factor is read off the two SVDs, (A*A)^+ = A^+ A^+*, (BB*)^+ = B^+* B^+,
    I - BB^+ = U_c U_c* and I - A^+A = V_n V_n*, so no identity is formed
    and no Gram matrix factorized, whose SVD would cut off sigma_r^2.
    """
    same_shape(a, b, x)
    ra, rb, x = svd(a), svd(b), as_matrix(x)
    a_pinv, b_pinv, u_c, v_n = ra.pinv, rb.pinv, rb.corange_basis, ra.null_basis
    return (
        -a_pinv @ x @ b_pinv
        + a_pinv @ a_pinv.conj().T @ x.conj().T @ u_c @ u_c.conj().T
        + v_n @ (v_n.conj().T @ x.conj().T @ b_pinv.conj().T @ b_pinv)
    )


def wedin_residual(a, b, g: GaugeNorm) -> float:
    """Gauge norm of A^+ - B^+ - ``wedin_terms(A, B, A - B)``: pure roundoff,
    as the identity is exact.  A and B are matrices or their SVDs."""
    same_shape(a, b)
    ra, rb = moore_penrose(a), moore_penrose(b)
    return gauge_norm(ra.pinv - rb.pinv - wedin_terms(ra, rb, ra.matrix - rb.matrix), g)


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
