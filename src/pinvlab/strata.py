"""Rank strata of a reference matrix, their group action and cross-sections.

A perturbation B of A is classified by the integer index
k = nullity(B) - nullity(A) = rank(A) - rank(B).  The stratum of index k
is the maximal set on which the pseudoinverse map is continuous; this
module provides the classifier, constructive witnesses for the
transitive (G, K) . B = G B K^{-1} action, local cross-sections, stratum
corrections, a six-condition continuity certifier for sequences, and the
pseudoinverse map with its tangent map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import codim
from .errors import (
    ConsistencyError,
    ObstructionError,
    OutsideNeighborhoodError,
    PreconditionError,
    StratumError,
)
from .matcore import (
    BOUNDEDNESS_FACTOR,
    GAP_MARGIN,
    IDENTITY_REL,
    INTERSECTION_COS,
    OP_NORM,
    RESIDUAL_ABS,
    GaugeNorm,
    as_matrix,
    gauge_norm,
    same_shape,
    svd,
)
from .pinv import moore_penrose, wedin_terms


@dataclass(frozen=True)
class IndexRange:
    k_min: int
    k_max: int

    def __contains__(self, k: int) -> bool:
        return isinstance(k, (int, np.integer)) and self.k_min <= k <= self.k_max


@dataclass(frozen=True)
class GroupPair:
    """An element (G, K) of the product group of invertibles."""

    G: np.ndarray
    K: np.ndarray

    def validate(self) -> "GroupPair":
        for name, m in (("G", self.G), ("K", self.K)):
            mm = as_matrix(m)
            if mm.shape[0] != mm.shape[1]:
                raise PreconditionError(f"{name} must be square")
            if svd(mm).rank < len(mm):
                raise PreconditionError(f"{name} is numerically singular")
        return self


def stratum_index(b, a) -> int:
    """Index of B relative to A: rank(A) - rank(B) = nullity(B) - nullity(A).

    B and A are matrices or their SVDs.
    """
    same_shape(b, a)
    return svd(a).rank - svd(b).rank


def index_range(a) -> IndexRange:
    """Admissible indices around A: -min(dim N(A), dim R(A)^perp) .. dim N(A)^perp.

    A is a matrix or its SVD.
    """
    res = svd(a)
    r = res.rank
    n1 = res.Vt.shape[0] - r      # dim N(A)
    n2 = r                        # dim N(A)^perp
    n3 = res.U.shape[0] - r       # dim R(A)^perp
    return IndexRange(-min(n1, n3), n2)


def stratum_representative(a, k: int) -> np.ndarray:
    """A concrete element of the index-k stratum around A.

    k = 0 returns A itself; k < 0 adds a partial isometry from N(A) into
    R(A)^perp; k > 0 compresses A onto a corank-k subspace of N(A)^perp.
    A is a matrix or its SVD.
    """
    res = svd(a)
    a = res.matrix
    r = res.rank
    if k not in index_range(res):
        raise PreconditionError(f"index {k} outside the admissible range")
    if k == 0:
        return a.copy()
    if k < 0:
        right = res.null_basis[:, :-k]              # -k vectors in N(A)
        left = res.corange_basis[:, :-k]            # -k vectors in R(A)^perp
        return a + left @ right.conj().T
    v_keep = res.row_basis[:, : r - k]              # corank-k subspace of N(A)^perp
    return a @ (v_keep @ v_keep.conj().T)


def act(gk: GroupPair, b) -> np.ndarray:
    """Apply (G, K) . B = G B K^{-1}, for m x m G and n x n K; preserves
    the stratum of the m x n B."""
    gk.validate()
    b = as_matrix(b)
    if (len(gk.G), len(gk.K)) != b.shape:
        raise PreconditionError("G must be m x m and K n x n for an m x n B")
    return gk.G @ b @ np.linalg.inv(gk.K)


def transitivity_witness(b1, b2) -> GroupPair:
    """Explicit (G, K) with G B1 K^{-1} = B2 for equal-rank B1, B2.

    From SVDs B1 = U1 S1 V1*, B2 = U2 S2 V2* with common rank r:
    K = V2 V1* and G = (U2 d) U1*, with d = s2/s1 on the leading r
    coordinates and sigma_1(B2)/sigma_1(B1) beyond them (1 at rank 0);
    then G B1 K^{-1} = B2 exactly.  The ratio beyond the rank keeps G
    well conditioned at any scale: for B2 = s B1, G = s U2 U1*.
    """
    m = same_shape(b1, b2)[0]
    r1, r2 = svd(b1), svd(b2)
    if r1.rank != r2.rank:
        raise StratumError(
            f"no witness exists across strata: rank {r1.rank} vs {r2.rank}"
        )
    r = r1.rank
    d = np.full(m, r2.singular_values[0] / r1.singular_values[0] if r else 1.0)
    d[:r] = r2.singular_values[:r] / r1.singular_values[:r]
    g = (r2.U * d) @ r1.U.conj().T
    k = r2.Vt.conj().T @ r1.Vt
    return GroupPair(g, k).validate()


def local_section_sigma(a, b) -> GroupPair:
    """Local cross-section of the action at A, evaluated at nearby B.

    sigma_1 = B A^+ + (I - P_R(B))(I - P_R(A)) and
    sigma_2 = P_N(B) P_N(A) + (I - P_N(B))(I - P_N(A)); both are
    invertible for B close to A in the zero stratum, and
    sigma_1 A sigma_2^{-1} = B.
    """
    same_shape(b, a)
    rb, ra = svd(b), svd(a)
    if stratum_index(rb, ra) != 0:
        raise StratumError("the section is only defined on the zero stratum")
    s1 = rb.matrix @ ra.pinv + _proj_product(rb.corange_basis, ra.corange_basis)
    s2 = _proj_product(rb.null_basis, ra.null_basis) + _proj_product(rb.row_basis, ra.row_basis)
    for name, m in (("first", s1), ("second", s2)):
        if svd(m).rank < len(m):
            raise OutsideNeighborhoodError(
                f"{name} section component singular; B too far from A"
            )
    return GroupPair(s1, s2)


def _proj_product(x, y) -> np.ndarray:
    """P_X P_Y = X (X* Y) Y* for orthonormal column blocks x, y."""
    return x @ (x.conj().T @ y) @ y.conj().T


def approximate_in_stratum(b, a, k_target: int, eps: float) -> np.ndarray:
    """Perturb B by at most eps (any gauge) into the index-k_target stratum.

    Only rank-increasing moves are possible under small perturbations;
    a rank-decreasing request raises ObstructionError.  The construction
    bumps B on an m-dimensional subspace of N(B) by a partial isometry
    into R(B)^perp scaled by eps/m, where m is the required rank jump.
    """
    same_shape(b, a)
    rb, ra = svd(b), svd(a)
    b = rb.matrix
    if k_target not in index_range(ra):
        raise PreconditionError(f"index {k_target} outside the admissible range")
    m_jump = (ra.rank - k_target) - rb.rank
    if m_jump < 0:
        raise ObstructionError(
            "rank can only increase under arbitrarily small perturbations; "
            f"target rank {ra.rank - k_target} < rank(B) = {rb.rank}"
        )
    if m_jump == 0:
        return b.copy()
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    right = rb.null_basis[:, :m_jump]          # inside N(B)
    left = rb.corange_basis[:, :m_jump]        # inside R(B)^perp
    out = b + (eps / m_jump) * (left @ right.conj().T)
    got = stratum_index(out, ra)
    if got != k_target:
        raise ConsistencyError(f"bump landed in stratum {got}, wanted {k_target}")
    return out


def correct_to_stratum_zero(a, b) -> np.ndarray:
    """Low-rank correction C with B + C in the zero stratum of A.

    For k < 0 the correction kills B on a subspace of N(A) ∩ N(B)^perp
    (C = -B P); for k > 0 it re-injects A on a subspace of
    N(B) ∩ N(A)^perp (C = A P).  rank(C) = |k| and the gauge norm of C
    is controlled by the distance from A to B.
    """
    same_shape(b, a)
    sb, sa = svd(b), svd(a)
    a, b = sa.matrix, sb.matrix
    k = stratum_index(sb, sa)
    if k == 0:
        raise PreconditionError("B is already in the zero stratum")
    if k < 0:
        basis = codim.intersection_basis(sa.null_basis, sb.row_basis)
        need = -k
    else:
        basis = codim.intersection_basis(sb.null_basis, sa.row_basis)
        need = k
    if basis.shape[1] < need:
        raise OutsideNeighborhoodError(
            f"intersection dimension {basis.shape[1]} < |k| = {need}; "
            "B is not close enough to A for the correction"
        )
    sub = basis[:, :need]
    # (X sub) sub* rather than X (sub sub*): the product then has rank
    # |k| to roundoff relative to C, not relative to B or A
    c = (-b @ sub if k < 0 else a @ sub) @ sub.conj().T
    if stratum_index(b + c, sa) != 0:
        raise ConsistencyError("correction failed to reach the zero stratum")
    return c


# ---------------------------------------------------------------------------
# Continuity certification for sequences.


@dataclass
class ContinuityRow:
    n: int
    index: int
    pinv_norm: float
    pinv_gap: float
    nullproj_gap_gauge: float
    nullproj_gap_op: float
    intersection_dim: int


@dataclass
class ContinuityReport:
    """Six equivalent continuity conditions evaluated on a tail of a sequence."""

    rows: list = field(default_factory=list)
    n0: int = 0
    verdicts: dict = field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        vals = list(self.verdicts.values())
        return all(v == vals[0] for v in vals)

    @property
    def all_true(self) -> bool:
        return all(self.verdicts.values())


def _null_gaps(cos, delta: int) -> np.ndarray:
    """Singular values of P_N(B_n) - P_N(B), up to zeros, from the cross block.

    cos holds the singular values of X*Y, X = basis of N(B) and Y = basis
    of N(B_n)^perp, nonincreasing; delta = rank(B_n) - rank(B).  The
    difference is P_N(B_n)(I - P_N(B)) - (I - P_N(B_n))P_N(B), two blocks
    with orthogonal ranges and co-ranges, so its singular values are those
    of Y*X together with those of the other cross block
    N(B_n)* N(B)^perp.  By the CS decomposition of the unitary V_B* V_{B_n}
    the two blocks share their values except for exact ones: X*Y holds
    delta more of them.  So the other block's values are cos without its
    delta leading ones, or with -delta ones added.  No threshold is read.
    """
    other = cos[delta:] if delta >= 0 else np.concatenate([np.ones(-delta), cos])
    return np.concatenate([cos, other])


def continuity_report(b, seq, n0: int, g: GaugeNorm) -> ContinuityReport:
    """Evaluate the six equivalent continuity conditions on seq -> B.

    Diagnostic only: never raises on failing conditions.  The report is
    consistent when all six verdicts coincide, which is the content of
    the equivalence theorem the certifier demonstrates.  B is a matrix
    or its SVD.

    Each term B_n costs its SVD, one SVD of the cross block N(B)* N(B_n)^perp
    without vectors, and the gauge norm of B_n^+ - B^+.  (i) is the rank
    difference; (iv) and (v) apply the gauge and the operator norm to the
    singular values of P_N(B_n) - P_N(B), which the CS decomposition reads
    off the cross block (``_null_gaps``); (vi) counts the same block's
    principal cosines at least INTERSECTION_COS.  So (iv)/(v) and (vi)
    read one block SVD, and no d x d projector difference is formed.
    """
    seq = list(seq)
    if not seq:
        raise PreconditionError("sequence must be nonempty")
    if not 0 <= n0 < len(seq):
        raise PreconditionError("n0 must index into the sequence")
    same_shape(b, *seq)
    rb = moore_penrose(b)
    norm_b_pinv = rb.pinv_norm
    norm_b = float(rb.singular_values[0])
    rows = []
    for n, bn in enumerate(seq):
        rn = moore_penrose(bn)
        # the index of B_n from the ranks; (iv)-(vi) from the one SVD of
        # the cross block N(B)* N(B_n)^perp
        cos = codim.principal_cosines(rb.null_basis, rn.row_basis)
        null_gaps = _null_gaps(cos, rn.rank - rb.rank)
        rows.append(ContinuityRow(n, rb.rank - rn.rank, rn.pinv_norm,
                                  gauge_norm(rn.pinv - rb.pinv, g),
                                  g.of_singular_values(null_gaps),
                                  OP_NORM.of_singular_values(null_gaps),
                                  int(np.sum(cos >= INTERSECTION_COS))))
    norm_last = float(rn.singular_values[0])   # rn reports the last term
    tail = rows[n0:]
    last = tail[-1]
    # (iii): under a bounded tail the pseudoinverse gap is dominated by a
    # constant multiple of the input gap; divergent families violate this
    # by orders of magnitude.
    last_input_gap = gauge_norm(rn.matrix - rb.matrix, g)
    iii_threshold = (
        (norm_last * norm_b
         + (BOUNDEDNESS_FACTOR * norm_b_pinv) ** 2 + norm_b_pinv**2)
        * last_input_gap
        + RESIDUAL_ABS
    )
    verdicts = {
        "index_zero": all(r.index == 0 for r in tail),
        "pinv_bounded": max(r.pinv_norm for r in tail)
        <= BOUNDEDNESS_FACTOR * max(norm_b_pinv, RESIDUAL_ABS),
        "pinv_gap_vanishes": last.pinv_gap <= iii_threshold,
        "nullproj_gauge_below_one": all(
            r.nullproj_gap_gauge < 1.0 - GAP_MARGIN for r in tail
        ),
        "nullproj_op_below_one": all(
            r.nullproj_gap_op < 1.0 - GAP_MARGIN for r in tail
        ),
        "trivial_intersection": all(r.intersection_dim == 0 for r in tail),
    }
    return ContinuityReport(rows=rows, n0=n0, verdicts=verdicts)


# ---------------------------------------------------------------------------
# The pseudoinverse as a map between strata, and its tangent map.


def mp_map(b, a) -> np.ndarray:
    """B -> B^+, from the one SVD of B, whose rank B^+ has by construction:
    the index relative to A^+ is that of B relative to A (the tests check it).
    A only fixes the shape; it is not factorized."""
    same_shape(b, a)
    return svd(b).pinv


def tangent_membership(b, z, return_witness: bool = False):
    """Test whether Z is tangent at B, i.e. Z = X B - B Y for some X, Y.

    Equivalent to the vanishing of the corner block
    (I - P_R(B)) Z P_N(B); when a witness is requested the explicit
    (X, Y) = ((I - P_R(B)) Z B^+, -B^+ Z) pair is returned.
    """
    rb, z, ok = _tangent(b, z)
    if not return_witness:
        return ok
    u_c = rb.corange_basis
    x = u_c @ (u_c.conj().T @ z @ rb.pinv)
    y = -rb.pinv @ z
    return ok, (x, y)


def _tangent(b, z):
    """svd(B), Z, and whether the corner block (I - P_R(B)) Z P_N(B) vanishes.

    Read as U_c* Z V_n (bases of R(B)^perp and N(B)), it vanishes at norm
    <= IDENTITY_REL ||Z||_F, with no absolute floor: alike for (sB, sZ), s > 0.
    """
    same_shape(b, z)
    rb, z = svd(b), as_matrix(z)
    corner = rb.corange_basis.conj().T @ z @ rb.null_basis
    return rb, z, float(np.linalg.norm(corner)) <= IDENTITY_REL * float(np.linalg.norm(z))


def mp_tangent(b, v) -> np.ndarray:
    """Derivative of the pseudoinverse map at B in the tangent direction V:
    ``pinv.wedin_terms(B, B, V)``, -B^+ V B^+ + (B*B)^+ V* (I - B B^+) +
    (I - B^+ B) V* (B B*)^+, read off the one SVD of B, which also checks
    that V is tangent (PreconditionError otherwise).
    """
    rb, v, tangent = _tangent(b, v)
    if not tangent:
        raise PreconditionError("V is not tangent at B (corner block nonzero)")
    return wedin_terms(rb, rb, v)
