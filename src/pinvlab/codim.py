"""Projections, essential codimension and the direct rotation.

In finite dimension every pair of orthogonal projections is Fredholm and
the essential codimension reduces to a rank difference.
``essential_codimension`` nevertheless computes it by its definition,
from subspace intersections (via principal angles), and cross-checks it
against the rank count.  ``projector_eig`` checks a projector (its
idempotency by ``matcore.idempotent_checked``) and returns its one eigh,
which gives both bases, so the rank cutoff cannot make the two disagree;
the check catches a principal cosine within roundoff of INTERSECTION_COS
that is classified differently in the two cross blocks.  Elsewhere the
index is taken as the rank difference.

``direct_rotation`` is the package's one rotation, read off the cross
block of two partial isometries, as are the principal angles.  Only the
charts and the positive section of ``polar`` take it, as they must depend
analytically on their point, so a gap at 1 is outside their domain.  The
orbit witnesses may be any group element, so they take no rotation.
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, ConvergenceError, GapTooLargeError, PreconditionError
from .matcore import (FROBENIUS_NORM, INTERSECTION_COS, PROJECTOR_REL,
                      PROJECTOR_SPECTRUM, RANK_REL, PsdEig, as_matrix, eigh,
                      gauge_norm, idempotent_checked, same_shape)


def projector_eig(m) -> PsdEig:
    """The eigh of an orthogonal projection P, as a ``PsdEig``.

    PreconditionError unless P is square, idempotent (``idempotent_checked``),
    Hermitian to ||P - P*||_F <= PROJECTOR_REL and has its spectrum within
    PROJECTOR_SPECTRUM of {0, 1}.  Eigenvalues above 1/2 make the rank and
    the others are set to 0: 1/2 splits the clusters at any scale, where
    ``psd_eigh``'s relative cutoff would miscount a numerically-zero
    projector and its PSD check refuse eigenvalues PROJECTOR_SPECTRUM accepts.
    """
    p = as_matrix(m)
    if p.shape[0] != p.shape[1]:
        raise PreconditionError("a projector must be square")
    idempotent_checked(p)
    if gauge_norm(p - p.conj().T, FROBENIUS_NORM) > PROJECTOR_REL:
        raise PreconditionError("matrix is not Hermitian")
    q, w = eigh(p)
    if np.any(np.minimum(np.abs(w), np.abs(w - 1.0)) > PROJECTOR_SPECTRUM):
        raise PreconditionError(
            f"eigenvalues are not within {PROJECTOR_SPECTRUM:g} of {{0,1}}")
    in_range = w > 0.5
    return PsdEig(q, np.where(in_range, w, 0.0), int(np.count_nonzero(in_range)), p)


def _cross_svd(x, y, vectors=True):
    """Thin SVD of the cross block X*Y of two orthonormal column blocks, or
    of the adjoints of two partial isometries: the principal cosines,
    nonincreasing, and with ``vectors`` the coordinates of the principal
    vectors.  PreconditionError unless X and Y act on one space."""
    if len(x) != len(y):
        raise PreconditionError(f"blocks must act on one space, got {len(x)} and {len(y)} rows")
    try:
        return np.linalg.svd(x.conj().T @ y, full_matrices=False, compute_uv=vectors)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc


def intersection_basis(x, y) -> np.ndarray:
    """Orthonormal basis of span(x) ∩ span(y) for orthonormal column blocks:
    the principal vectors whose cosines are at least INTERSECTION_COS."""
    psi, cos, _ = _cross_svd(x, y)
    return x @ psi[:, : int(np.sum(cos >= INTERSECTION_COS))]


def principal_cosines(x, y) -> np.ndarray:
    """Cosines of the principal angles between span(x) and span(y) for
    orthonormal column blocks, nonincreasing; empty when either is."""
    return _cross_svd(x, y, vectors=False)


def intersection_dim(x, y) -> int:
    """dim(span(x) ∩ span(y)) for orthonormal column blocks x, y: the number
    of principal cosines at least INTERSECTION_COS."""
    return int(np.sum(principal_cosines(x, y) >= INTERSECTION_COS))


def essential_codimension(p: PsdEig, q: PsdEig) -> int:
    """Fredholm index of the pair (P, Q): dim(N(Q) ∩ R(P)) - dim(R(Q) ∩ N(P)).

    P and Q are ``projector_eig``s.  Computed through principal angles and
    cross-checked against rank(P) - rank(Q); a disagreement raises
    ConsistencyError.
    """
    same_shape(p, q)
    by_angles = (intersection_dim(q.null_basis, p.range_basis)
                 - intersection_dim(q.range_basis, p.null_basis))
    by_rank = p.rank - q.rank
    if by_angles != by_rank:
        raise ConsistencyError(
            f"index mismatch: principal angles give {by_angles}, "
            f"rank difference gives {by_rank}"
        )
    return by_rank


def direct_rotation(a, b) -> np.ndarray:
    """Direct rotation U of P = a*a onto Q = b*b (U P U* = Q), for ||P - Q|| < 1.

    a and b act on one space (PreconditionError otherwise) and are partial
    isometries, not checked, of ranks ||a||_F^2 and ||b||_F^2; the adjoint
    of an orthonormal basis is one.
    One SVD of the cross block a b* = Psi C Phi* gives the principal
    vectors x = a*Psi_r, y = b*Phi_r and cosines C = x*y; with w = y - xC,
    U = I + x(C-I)x* - w(I+C)^{-1}w* + wx* - xw* (Davis & Kahan 1970),
    unitary to roundoff as no 1/sin is taken.  The gap
    ||P - Q|| = (1 - c_min^2)^{1/2}, 1 at unequal ranks, must stay below
    1 - RANK_REL; it is absolute, as angles near pi/2 make the whole cross
    block small.  At rank 0, U = I.
    """
    psi, cos, phi = _cross_svd(a.conj().T, b.conj().T)
    r, r_b = (round(np.vdot(m, m).real) for m in (a, b))
    c_min = cos[r - 1] if 0 < r == r_b else float(r == r_b)
    gap = float(np.sqrt(max(1.0 - c_min**2, 0.0)))
    if gap >= 1.0 - RANK_REL:
        raise GapTooLargeError(f"||P - Q|| = {gap:.6f} >= 1; not directly rotatable", gap=gap)
    # row form, r x d each: x* = Psi_r* a, and w* = Phi_r* b - C x* = y* - C x*
    c, x, w = cos[:r, None], psi[:, :r].conj().T @ a, phi[:r] @ b
    del psi, phi    # the full factors are not kept while U is built
    w -= c * x
    # U - I = L* Z with L = [x*; w*] and Z = [(C - I)x* - w*; x* - (I + C)^{-1}w*]
    z = np.concatenate(((c - 1.0) * x - w, x - w / (1.0 + c)))
    u = np.concatenate((x, w)).conj().T @ z
    u.flat[:: len(u) + 1] += 1.0
    return u
