"""Polar decomposition, congruence orbits and fiber-bundle charts.

The polar parts B = V_B |B| split the rank strata of a reference matrix
into a positive cone direction (the modulus) and a partial-isometry
direction (the polar factor), both read off the one SVD of B
(``SvdResult.polar_factor``, ``SvdResult.modulus``); V_B is returned as
its SVD, ``SvdResult.polar_factor_svd``.  This module builds
constructive witnesses for the congruence action on positive matrices
and the unitary action on partial isometries, a positive-cone
cross-section, and the two local chart maps (by modulus, by polar
factor) together with their inverses.

The witnesses may be any group element, so each is read off the eigh or
SVD of its inputs.  The section and the charts must be real analytic,
so each takes codim.direct_rotation of two partial isometries, never of
d x d projectors, and a gap that the rotation refuses is outside its domain:
the modulus chart rotates R(C0) onto R(|B|), the polar-factor chart the
initial space of V0 onto that of V_B.  A chart returns a ChartPoint whose
``back()`` maps it back to B with the rotation the chart took; the chart's
inverse takes the rotation from its inputs, and both undo the chart
through one back-map.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import codim
from .errors import (
    ConsistencyError,
    GapTooLargeError,
    OutsideNeighborhoodError,
    PreconditionError,
    StratumError,
)
from .matcore import (
    IDENTITY_REL,
    UNITARY_REL,
    PsdEig,
    SvdResult,
    as_matrix,
    idempotent_checked,
    psd_eigh,
    same_shape,
    svd,
)


@dataclass(frozen=True, eq=False)
class ChartPoint:
    """A chart's value, the pair (base component, fiber element) it unpacks to.

    ``back()`` returns B again, from the base point and the direct rotation
    that the chart itself took, through the back-map of the chart's inverse.
    """

    component: PsdEig | SvdResult    # |B| as its psd_eigh, or V_B as its SVD
    fiber_elem: np.ndarray
    back: Callable[[], np.ndarray] = field(repr=False)

    def __iter__(self):
        return iter((self.component, self.fiber_elem))


def _initial_rank(v: np.ndarray) -> int:
    """trace(V*V), the rank of V, once V is checked to be a partial isometry:
    V*V is idempotent (``idempotent_checked``), which a V*V that overflows is not."""
    with np.errstate(over="ignore", invalid="ignore"):
        p = v.conj().T @ v
    return round(np.trace(idempotent_checked(p, "V*V")).real)


def _equal_rank_roots(c, d):
    """The psd_eighs of PSD C and of PSD D of C's size and rank.

    Each is a matrix or its psd_eigh.  ``psd_eigh`` zeroes the
    below-cutoff eigenvalues, so the square root does not inflate the
    numerical rank (sqrt of 1e-16 noise is 1e-8).
    """
    eig_c = psd_eigh(c)
    same_shape(eig_c, d)
    eig_d = psd_eigh(d)
    if eig_c.rank != eig_d.rank:
        raise StratumError(f"no congruence across ranks: {eig_c.rank} vs {eig_d.rank}")
    return eig_c, eig_d


def polar_decompose(a) -> SvdResult:
    """A = V_A|A|, read off the one SVD of A: its ``polar_factor`` V_A = A|A|^+,
    a partial isometry sharing the nullspace of A, and its ``modulus`` |A|.

    The paper's name for ``svd``: A is a matrix or its SVD, returned as is.
    """
    return svd(a)


def congruence_witness(c, d) -> np.ndarray:
    """Invertible G with G C G* = D for equal-rank Hermitian PSD C, D.

    From C = Q_C diag(w_C) Q_C* and D = Q_D diag(w_D) Q_D*, whose
    psd_eighs both list the null eigenvalues first,
    G = Q_D diag(g) Q_C* with g = (w_D / w_C)^{1/2} on the range and 1 on
    the null space.  Any invertible G will do, as the action is
    transitive on each rank, so G need not depend analytically on D and
    no rotation is taken.
    """
    ec, ed = _equal_rank_roots(c, d)
    g = np.ones(len(ec.w))
    k = len(g) - ec.rank
    g[k:] = np.sqrt(ed.w[k:] / ec.w[k:])
    return (ed.Q * g) @ ec.Q.conj().T


def positive_section(c, b) -> np.ndarray:
    """Invertible sigma with sigma C sigma* = B, for nearby equal-rank PSD B.

    With P, Q the range projectors of C, B and U = _chart_unitary(C, B)
    their direct rotation, which carries R(C) onto R(B),
    sigma = B^{1/2} U (C^+)^{1/2} + (I-Q) U (I-P) conjugates exactly.  The
    rotation's domain ||P - Q|| < 1 is the section's neighborhood of
    validity (OutsideNeighborhoodError beyond it).  C and B are matrices
    or their psd_eighs.
    """
    ec, eb = _equal_rank_roots(c, b)
    u = _chart_unitary(ec, eb)
    return eb.sqrt() @ u @ ec.pinv_sqrt() + eb.null_proj() @ u @ ec.null_proj()


def isometry_orbit_witness(v0, v):
    """Unitaries (U, W) with U V0 W* = V for equal-rank partial isometries.

    Each argument, a matrix or its SVD, is checked to be a partial
    isometry (PreconditionError otherwise), which gives its rank, the
    trace of its initial projector.  From one SVD of each, V0 = U0 S V0'*
    and V = U1 S V1'* share S, the identity on the rank, so
    (U, W) = (U1 U0*, V1' V0'*): strata.transitivity_witness with
    S2 S1^+ = I.  An SVD passed in is not taken again.
    """
    _, _, r0, r1 = _checked_pair(v0, v)
    if r0 != r1:
        raise StratumError(f"no orbit witness across ranks: {r0} vs {r1}")
    s0, s1 = svd(v0), svd(v)
    return s1.U @ s0.U.conj().T, s1.Vt.conj().T @ s0.Vt


def _checked_pair(v0, v):
    """V0 and V as matrices of one shape, each checked to be a partial
    isometry, and their ranks.  Each is a matrix or its SVD."""
    v0, v = as_matrix(v0), as_matrix(v)
    same_shape(v0, v)
    return v0, v, _initial_rank(v0), _initial_rank(v)


def modulus_map(b, a) -> np.ndarray:
    """B -> |B|, from the one SVD of B, whose rank |B| has by construction:
    the index relative to |A| is that of B relative to A (the tests check it).
    A only fixes the shape; it is not factorized."""
    same_shape(b, a)
    return svd(b).modulus


def polar_factor_map(b, a) -> SvdResult:
    """B -> V_B as its SVD, with the difference identity against V_A checked.

    V_A - V_B = A(|A|^+ - |B|^+) + (A - B)|B|^+ holds exactly; its
    residual is asserted.  |A|^+ = A^+ V_A is read from the SVD of A, and
    likewise for B, whose rank V_B has by construction (the tests check
    that the index relative to V_A is that of B relative to A).
    """
    same_shape(b, a)
    sb, sa = svd(b), svd(a)
    a, b = sa.matrix, sb.matrix
    factor = sb.polar_factor_svd
    va, vb = sa.polar_factor, factor.matrix
    mod_a_pinv = sa.pinv @ va
    mod_b_pinv = sb.pinv @ vb
    lhs = va - vb
    rhs = a @ (mod_a_pinv - mod_b_pinv) + (a - b) @ mod_b_pinv
    scale = max(1.0, float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    if np.linalg.norm(lhs - rhs) > IDENTITY_REL * scale:
        raise ConsistencyError("polar factor difference identity violated")
    return factor


def _base_point(c0, a) -> PsdEig:
    """psd_eigh(C0), once C0 is checked to be n x n for an m x n A, which
    only fixes the shape: it is not factorized."""
    if as_matrix(c0).shape != (as_matrix(a).shape[1],) * 2:
        raise PreconditionError("C0 must be n x n for an m x n matrix A")
    return psd_eigh(c0)


def fiber_membership_alpha(x, c0, a) -> bool:
    """Does X lie in the modulus fiber over C0 within the stratum of C0?

    That is, |X| = C0 and the index of X relative to A is the index k0
    of C0 relative to |A|; c0 and a are as in trivialize_alpha, and A
    only fixes the shape.  X is a matrix or its SVD.
    """
    eig = _base_point(c0, a)
    same_shape(x, a)
    rx = svd(x)
    scale = max(1.0, float(np.linalg.norm(eig.matrix)))
    if np.linalg.norm(rx.modulus - eig.matrix) > IDENTITY_REL * scale:
        return False
    # N(|A|) = N(A), so rank(A) - rank(X) = rank(A) - rank(C0) is rank(X) = rank(C0)
    return rx.rank == eig.rank


def trivialize_alpha(b, c0, a) -> ChartPoint:
    """Chart of the modulus fibration: B -> (|B|, V_B U C0).

    U is the direct rotation of R(C0) onto R(|B|); as V_B*V_B = P_R(|B|)
    and U*P_R(|B|)U = P_R(C0), the second component keeps modulus exactly
    C0.  B is a matrix or its SVD and C0 a matrix or its psd_eigh, so a
    run that serves many B from one base point factorizes C0 once; A only
    fixes the shape.
    R(|B|) is read off the SVD of B (``SvdResult.modulus_eig``), so |B|
    takes no eigh, and |B| is returned as that psd_eigh, in a ChartPoint
    whose ``back()`` undoes the chart with U.  Inverted by
    trivialize_alpha_inverse.
    """
    eig = _base_point(c0, a)
    same_shape(b, a)
    sb = svd(b)
    u = _chart_unitary(eig, sb.modulus_eig)
    fiber_elem = sb.polar_factor @ u @ eig.matrix
    if not fiber_membership_alpha(fiber_elem, eig, a):
        raise ConsistencyError("chart output left the fiber over C0")
    mod = sb.modulus_eig
    return ChartPoint(mod, fiber_elem, lambda: _alpha_back(mod, fiber_elem, eig, u))


def _chart_unitary(c, b) -> np.ndarray:
    """The direct rotation of R(C) onto R(B), for PSD C, B or their psd_eighs."""
    return _rotation(psd_eigh(c).range_basis.conj().T, psd_eigh(b).range_basis.conj().T)


def _rotation(a, b) -> np.ndarray:
    """codim.direct_rotation of a*a onto b*b for partial isometries a, b.

    The charts' unitary, real analytic in b*b while ||a*a - b*b|| < 1.
    A gap that the rotation refuses, as unequal ranks give, is outside
    the chart: OutsideNeighborhoodError, whose cause, a GapTooLargeError,
    carries the gap.
    """
    try:
        u = codim.direct_rotation(a, b)
    except GapTooLargeError as exc:
        raise OutsideNeighborhoodError(f"outside the chart: {exc}") from exc
    if np.linalg.norm(u @ u.conj().T - np.eye(len(u))) > UNITARY_REL * len(u):
        raise ConsistencyError("chart unitary is not unitary")
    return u


def trivialize_alpha_inverse(modulus, fiber_elem, c0) -> np.ndarray:
    """(C, V C0) -> V U* C, undoing trivialize_alpha.

    c0 is as in trivialize_alpha; no A is needed, as only the psd_eigh
    of C0 is read.  The modulus C is a matrix or its psd_eigh, and U is
    taken from C0 and C.  Outside the chart, unequal ranks included, it
    raises OutsideNeighborhoodError.
    """
    eig = psd_eigh(c0)
    same_shape(modulus, eig)
    eig_mod = psd_eigh(modulus)
    fiber_elem = as_matrix(fiber_elem)
    if fiber_elem.shape[1] != len(eig.w):
        raise PreconditionError("the fiber element must have n columns for an n x n C0")
    return _alpha_back(eig_mod, fiber_elem, eig, _chart_unitary(eig, eig_mod))


def _alpha_back(eig_mod, fiber_elem, eig, u) -> np.ndarray:
    """V U* C, with V = (V C0) C0^+ read off the fiber element."""
    return fiber_elem @ eig.pinv() @ u.conj().T @ eig_mod.matrix


def trivialize_v(b, v0) -> ChartPoint:
    """Chart of the polar-factor fibration: B -> (V_B, V0 (W* |B| W)).

    W is the direct rotation of V0*V0 onto V_B*V_B, taken from V0 and the
    row basis of B; it transports |B| to a positive matrix supported on
    the initial space of V0, so the second component sits in the fiber
    over V0.  B and V0 are matrices or their SVDs; V_B is returned as its
    SVD in a ChartPoint whose ``back()`` undoes the chart with W.
    A V0 that is not a partial isometry raises PreconditionError; an
    initial-space gap that the rotation refuses, as unequal ranks give,
    raises OutsideNeighborhoodError.  Inverted by trivialize_v_inverse.
    """
    sb = svd(b)
    factor = sb.polar_factor_svd
    v0_m, vb, _, _ = _checked_pair(v0, factor)
    w = _rotation(v0_m, sb.Vt[: sb.rank])
    fiber_elem = v0_m @ (w.conj().T @ sb.modulus @ w)
    return ChartPoint(factor, fiber_elem, lambda: _v_back(vb, fiber_elem, v0_m, w))


def trivialize_v_inverse(factor, fiber_elem, v0) -> np.ndarray:
    """(V, V0 C) -> V (W C W*), undoing trivialize_v.

    V and V0 are matrices or their SVDs, checked as in trivialize_v, and
    W is taken from V0 and V, so the same gap is outside this chart.
    """
    v0, v, _, _ = _checked_pair(v0, factor)
    same_shape(v0, fiber_elem)
    return _v_back(v, as_matrix(fiber_elem), v0, _rotation(v0, v))


def _v_back(v, fiber_elem, v0, w) -> np.ndarray:
    """V (W C W*), with C = V0* (V0 C) recovered on N(V0)^perp."""
    return v @ w @ (v0.conj().T @ fiber_elem) @ w.conj().T
