"""Projections, essential codimension and the direct rotation.

In finite dimension every pair of orthogonal projections is Fredholm and
the essential codimension reduces to a rank difference.
``essential_codimension`` nevertheless computes it by its definition,
from subspace intersections (via principal angles), and cross-checks it
against the rank count.  Both bases of a projector come from one eigh,
so the rank tolerance cannot make the two disagree; the check catches a
principal cosine within roundoff of INTERSECTION_COS that is classified
differently in the two cross blocks.  Elsewhere the index is taken as
the rank difference.

``direct_rotation`` is the package's one rotation.  Only the charts and
the positive section of ``polar`` take it, as they must depend
analytically on their point, so a gap at 1 is outside their domain.  The
orbit witnesses may be any group element, so they take no rotation:
each is read off the eigh or SVD its inputs already have.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConsistencyError, GapTooLargeError, PreconditionError
from .matcore import (INTERSECTION_COS, PROJECTOR_REL, PROJECTOR_SPECTRUM,
                      RANK_REL, as_matrix, eigh, svd)


@dataclass(frozen=True)
class Projector:
    """Orthogonal projection matrix.

    Its rank, basis and complement basis come from one eigh, taken on
    first use and kept.
    """

    matrix: np.ndarray

    @staticmethod
    def from_matrix(m) -> "Projector":
        p = as_matrix(m)
        if p.shape[0] != p.shape[1]:
            raise PreconditionError("a projector must be square")
        if np.linalg.norm(p @ p - p) > PROJECTOR_REL * max(1.0, np.linalg.norm(p)):
            raise PreconditionError("matrix is not idempotent")
        if np.linalg.norm(p - p.conj().T) > PROJECTOR_REL:
            raise PreconditionError("matrix is not Hermitian")
        proj = Projector(p)
        _, w = proj._eigh
        if np.any(np.minimum(np.abs(w), np.abs(w - 1.0)) > PROJECTOR_SPECTRUM):
            raise PreconditionError(
                f"eigenvalues are not within {PROJECTOR_SPECTRUM:g} of {{0,1}}")
        return proj

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _eigh(self):
        # eigenvalues of a projector cluster at 0 and 1, so 1/2 separates
        # them at any scale and no rank tolerance is read; a relative SVD
        # cutoff would miscount the rank of a numerically-zero projector
        return eigh(self.matrix)

    def rank(self) -> int:
        return int(np.sum(self._eigh[1] > 0.5))

    def basis(self) -> np.ndarray:
        q, w = self._eigh
        return q[:, w > 0.5]

    def complement_basis(self) -> np.ndarray:
        q, w = self._eigh
        return q[:, w <= 0.5]


def intersection_basis(x, y) -> np.ndarray:
    """Orthonormal basis of span(x) ∩ span(y) for orthonormal column blocks.

    Spanned by the principal vectors whose cosines are at least
    INTERSECTION_COS (1 - 1e-8).
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape[1] == 0 or y.shape[1] == 0:
        return np.zeros((x.shape[0], 0), dtype=complex)
    w, cos, _ = np.linalg.svd(x.conj().T @ y, full_matrices=False)
    return x @ w[:, : int(np.sum(cos >= INTERSECTION_COS))]


def principal_cosines(x, y) -> np.ndarray:
    """Cosines of the principal angles between span(x) and span(y).

    x and y are orthonormal column blocks; the cosines are the singular
    values of x*y, nonincreasing, taken without the vectors.  Empty when
    either block is.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape[1] == 0 or y.shape[1] == 0:
        return np.zeros(0)
    return np.linalg.svd(x.conj().T @ y, compute_uv=False)


def intersection_dim(x, y) -> int:
    """dim(span(x) ∩ span(y)) for orthonormal column blocks x, y: the number
    of principal cosines at least INTERSECTION_COS."""
    return int(np.sum(principal_cosines(x, y) >= INTERSECTION_COS))


def essential_codimension(p: Projector, q: Projector) -> int:
    """Fredholm index of the pair (P, Q): dim(N(Q) ∩ R(P)) - dim(R(Q) ∩ N(P)).

    Computed through principal angles and cross-checked against
    rank(P) - rank(Q); a disagreement raises ConsistencyError.
    """
    if p.dim != q.dim:
        raise PreconditionError("projections must act on the same space")
    by_angles = (intersection_dim(q.complement_basis(), p.basis())
                 - intersection_dim(q.basis(), p.complement_basis()))
    by_rank = p.rank() - q.rank()
    if by_angles != by_rank:
        raise ConsistencyError(
            f"index mismatch: principal angles give {by_angles}, "
            f"rank difference gives {by_rank}"
        )
    return by_rank


def direct_rotation(p: Projector, q: Projector) -> np.ndarray:
    """Canonical unitary U with U P U* = Q, defined when ||P - Q|| < 1.

    U = XY* is the unitary polar factor of W = QP + (I-Q)(I-P) = X S Y*,
    from one SVD.  As WW* = I - (P-Q)^2, the least singular value s of W
    gives the gap ||P - Q|| = (1 - s^2)^{1/2}, which must stay below
    1 - RANK_REL.  The gap is absolute: every principal angle near pi/2
    makes all of W small, so a cutoff relative to ||W|| would not see it.
    """
    if p.dim != q.dim:
        raise PreconditionError("projections must act on the same space")
    pm, qm = p.matrix, q.matrix
    ident = np.eye(p.dim, dtype=complex)
    res = svd(qm @ pm + (ident - qm) @ (ident - pm))
    gap = float(np.sqrt(max(1.0 - res.singular_values[-1] ** 2, 0.0)))
    if gap >= 1.0 - RANK_REL:
        raise GapTooLargeError(
            f"||P - Q|| = {gap:.6f} >= 1; projections are not directly rotatable",
            gap=gap)
    return res.U @ res.Vt
