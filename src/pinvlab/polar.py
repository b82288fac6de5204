"""Polar decomposition, congruence orbits and fiber-bundle charts.

The polar parts B = V_B |B| split the rank strata of a reference matrix
into a positive cone direction (the modulus) and a partial-isometry
direction (the polar factor).  This module builds the decomposition,
constructive witnesses for the congruence action on positive matrices
and the unitary action on partial isometries, a positive-cone
cross-section, the range-aligning unitary, and the two local chart maps
(by modulus, by polar factor) together with their inverses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import codim, strata
from .codim import Projector
from .errors import (
    ConsistencyError,
    OutsideNeighborhoodError,
    PinvLabError,
    PreconditionError,
    StratumError,
)
from .matcore import DEFAULT_TOL, SvdResult, ToleranceConfig, as_matrix, psd_eigh, svd
from .pinv import pinv_matrix


@dataclass(frozen=True)
class PolarParts:
    polar_factor: np.ndarray   # partial isometry with V|A| = A
    modulus: np.ndarray        # (A*A)^{1/2}, Hermitian PSD


@dataclass(frozen=True)
class PartialIsometry:
    matrix: np.ndarray

    @staticmethod
    def from_matrix(m, tol: ToleranceConfig = DEFAULT_TOL) -> "PartialIsometry":
        v = as_matrix(m)
        p = v.conj().T @ v
        if np.linalg.norm(p @ p - p) > 1e-9 * max(1.0, np.linalg.norm(p)):
            raise PreconditionError("V*V is not a projector; not a partial isometry")
        return PartialIsometry(v)


class _Root(NamedTuple):
    sqrt: np.ndarray          # C^{1/2}
    pinv_sqrt: np.ndarray     # (C^{1/2})^+
    range_proj: np.ndarray
    null_proj: np.ndarray


def _equal_rank_roots(c, d, tol: ToleranceConfig):
    """_Root of square PSD C and D of one size and equal rank, one eigh each.

    ``psd_eigh`` zeroes the below-cutoff eigenvalues, so the square root
    does not inflate the numerical rank (sqrt of 1e-16 noise is 1e-8).
    """
    c = as_matrix(c)
    d = as_matrix(d)
    if c.shape != d.shape or c.shape[0] != c.shape[1]:
        raise PreconditionError("PSD matrices must be square of equal size")
    (qc, wc, rank_c), (qd, wd, rank_d) = psd_eigh(c, tol), psd_eigh(d, tol)
    if rank_c != rank_d:
        raise StratumError(f"no congruence across ranks: {rank_c} vs {rank_d}")
    k = len(wc) - rank_c       # eigenvalues ascending: Q[:, k:] spans the range

    def root(q, w):
        q_r, q_n, s = q[:, k:], q[:, :k], np.sqrt(w[k:])
        return _Root((q_r * s) @ q_r.conj().T, (q_r / s) @ q_r.conj().T,
                     q_r @ q_r.conj().T, q_n @ q_n.conj().T)
    return root(qc, wc), root(qd, wd)


def polar_decompose(a, tol: ToleranceConfig = DEFAULT_TOL) -> PolarParts:
    """A = V|A| with V = A|A|^+ a partial isometry sharing the nullspace of A."""
    return _polar_parts(svd(a, tol))


def _polar_parts(res: SvdResult) -> PolarParts:
    """Polar parts of A from its SVD."""
    r = res.rank
    n = res.Vt.shape[0]
    s_full = np.zeros(n)
    s_full[: len(res.singular_values)] = res.singular_values
    v = res.Vt.conj().T
    modulus = (v * s_full) @ v.conj().T
    modulus = 0.5 * (modulus + modulus.conj().T)
    factor = res.U[:, :r] @ res.Vt[:r, :]
    return PolarParts(factor, modulus)


def congruence_witness(c, d, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Invertible G with G C G* = D for equal-rank Hermitian PSD C, D.

    A unitary U carries N(D) onto N(C); with B1 = C^{1/2} and
    B2 = U D^{1/2} U* sharing the range of C, G0 = B2 B1^+ + (I - P)
    solves G0 B1 = B2, and G = U* G0 conjugates C to D.
    """
    rc, rd = _equal_rank_roots(c, d, tol)
    u = codim.conjugating_unitary(Projector(rd.null_proj), Projector(rc.null_proj), tol)
    b2 = u @ rd.sqrt @ u.conj().T
    g0 = b2 @ rc.pinv_sqrt + rc.null_proj
    return u.conj().T @ g0


def positive_section(c, b, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Invertible sigma with sigma C sigma* = B, for nearby equal-rank PSD B.

    Built from the unitary polar factor S~ of S = QP + (I-Q)(I-P), with
    P, Q the range projectors of C, B:  S~ carries R(C) onto R(B), and
    sigma = B^{1/2} S~ (C^+)^{1/2} + (I-Q) S~ (I-P) conjugates exactly.
    The raw S is checked for invertibility, which delimits the section's
    neighborhood of validity.
    """
    rc, rb = _equal_rank_roots(c, b, tol)
    p_null, q_null = rc.null_proj, rb.null_proj
    u, sing, vh = np.linalg.svd(rb.range_proj @ rc.range_proj + q_null @ p_null)
    if sing[-1] <= tol.rank_rel * len(p_null) * max(sing[0], 1.0):
        raise OutsideNeighborhoodError(
            "range projectors too far apart; section undefined here"
        )
    s_unitary = u @ vh
    return rb.sqrt @ s_unitary @ rc.pinv_sqrt + q_null @ s_unitary @ p_null


def _unitary_polar_factor(t) -> np.ndarray:
    """U V* from the SVD T = U S V*: the unitary polar factor of invertible T."""
    u, _, vh = np.linalg.svd(t)
    return u @ vh


def aligning_unitary(t, s_basis, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Unitary U with U P_S U* = P_{T(S)}, built from invertible T.

    Q = T P_S T^{-1}, P = P_{T(S)}, T0 = Q + (I-P)(I-Q), T1 = T0 T;
    U is the unitary polar factor of T1.
    """
    t = as_matrix(t)
    if t.shape[0] != t.shape[1]:
        raise PreconditionError("T must be square")
    sing = np.linalg.svd(t, compute_uv=False)
    if sing[-1] <= tol.rank_rel * t.shape[0] * sing[0]:
        raise PreconditionError("T must be invertible")
    s_basis = np.asarray(s_basis, dtype=complex)
    n = t.shape[0]
    ident = np.eye(n, dtype=complex)
    q = t @ s_basis @ s_basis.conj().T @ np.linalg.inv(t)
    p = Projector.onto(t @ s_basis).matrix
    t0 = q + (ident - p) @ (ident - q)
    t1 = t0 @ t
    u = _unitary_polar_factor(t1)
    if np.linalg.norm(u @ u.conj().T - ident) > 1e-10 * n:
        raise ConsistencyError("aligning construction produced a non-unitary")
    return u


def isometry_orbit_witness(v0, v, tol: ToleranceConfig = DEFAULT_TOL):
    """Unitaries (U, W) with U V0 W* = V for equal-rank partial isometries.

    W conjugates the initial projector V0*V0 to V*V; Z conjugates the
    final projector V0V0* to VV*; then U = V W V0* + Z (I - V0 V0*) is
    unitary and carries V0 to V.
    """
    v0 = v0.matrix if isinstance(v0, PartialIsometry) else as_matrix(v0)
    v = v.matrix if isinstance(v, PartialIsometry) else as_matrix(v)
    if v0.shape != v.shape:
        raise PreconditionError("partial isometries must have the same shape")
    r0 = svd(v0, tol).rank
    r1 = svd(v, tol).rank
    if r0 != r1:
        raise StratumError(f"no orbit witness across ranks: {r0} vs {r1}")
    init0 = Projector(v0.conj().T @ v0)
    init1 = Projector(v.conj().T @ v)
    fin0 = Projector(v0 @ v0.conj().T)
    fin1 = Projector(v @ v.conj().T)
    w = codim.conjugating_unitary(init0, init1, tol)
    z = codim.conjugating_unitary(fin0, fin1, tol)
    m = v0.shape[0]
    u = v @ w @ v0.conj().T + z @ (np.eye(m, dtype=complex) - fin0.matrix)
    return u, w


def modulus_map(b, a, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """B -> |B|, checking that the stratum index relative to |A| is preserved."""
    a = as_matrix(a)
    b = as_matrix(b)
    mod_b = polar_decompose(b, tol).modulus
    mod_a = polar_decompose(a, tol).modulus
    k = strata.stratum_index(b, a, tol).k
    k_mod = strata.stratum_index(mod_b, mod_a, tol).k
    if k != k_mod:
        raise ConsistencyError(
            f"modulus map moved stratum index from {k} to {k_mod}"
        )
    return mod_b


def polar_factor_map(b, a, tol: ToleranceConfig = DEFAULT_TOL) -> PartialIsometry:
    """B -> V_B, with the difference identity against V_A checked.

    V_A - V_B = A(|A|^+ - |B|^+) + (A - B)|B|^+ holds exactly; its
    residual is asserted, as is preservation of the stratum index.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    pa = polar_decompose(a, tol)
    pb = polar_decompose(b, tol)
    mod_a_pinv = pinv_matrix(pa.modulus, tol)
    mod_b_pinv = pinv_matrix(pb.modulus, tol)
    lhs = pa.polar_factor - pb.polar_factor
    rhs = a @ (mod_a_pinv - mod_b_pinv) + (a - b) @ mod_b_pinv
    scale = max(1.0, float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    if np.linalg.norm(lhs - rhs) > 1e-8 * scale:
        raise ConsistencyError("polar factor difference identity violated")
    k = strata.stratum_index(b, a, tol).k
    k_v = strata.stratum_index(pb.polar_factor, pa.polar_factor, tol).k
    if k != k_v:
        raise ConsistencyError(
            f"polar factor map moved stratum index from {k} to {k_v}"
        )
    return PartialIsometry(pb.polar_factor)


def fiber_membership_alpha(x, c0, a, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Does X lie in the modulus fiber over C0 within the stratum of C0?"""
    c0 = as_matrix(c0)
    rx, ra = strata._pinv_pair(x, a, tol)
    mod_x = _polar_parts(rx.svd).modulus
    scale = max(1.0, float(np.linalg.norm(c0)))
    if np.linalg.norm(mod_x - c0) > 1e-8 * scale:
        return False
    k_x, mod_a = strata._index(rx, ra), _polar_parts(ra.svd).modulus
    del rx, ra      # free both full SVDs: the chart's memory peak is in the next call
    return strata.stratum_index(c0, mod_a, tol).k == k_x


def trivialize_alpha(b, c0, a, tol: ToleranceConfig = DEFAULT_TOL):
    """Chart of the modulus fibration: B -> (|B|, V_B U C0).

    U is the range-aligning unitary of the positive section carrying C0
    to |B|, so the second component keeps modulus exactly C0.  Inverted
    by trivialize_alpha_inverse.
    """
    b = as_matrix(b)
    c0 = as_matrix(c0)
    parts = polar_decompose(b, tol)
    try:
        gamma = positive_section(c0, parts.modulus, tol)
        u = aligning_unitary(gamma, svd(c0, tol).range_basis, tol)
    except PinvLabError as exc:
        raise OutsideNeighborhoodError(
            f"modulus chart undefined at this B: {exc}"
        ) from exc
    fiber_elem = parts.polar_factor @ u @ c0
    if not fiber_membership_alpha(fiber_elem, c0, a, tol):
        raise ConsistencyError("chart output left the fiber over C0")
    return parts.modulus, fiber_elem


def trivialize_alpha_inverse(modulus, fiber_elem, c0,
                             tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """(C, V C0) -> V U* C, undoing trivialize_alpha."""
    modulus = as_matrix(modulus)
    c0 = as_matrix(c0)
    fiber_elem = as_matrix(fiber_elem)
    gamma = positive_section(c0, modulus, tol)
    u = aligning_unitary(gamma, svd(c0, tol).range_basis, tol)
    v = fiber_elem @ pinv_matrix(c0, tol)
    return v @ u.conj().T @ modulus


def trivialize_v(b, v0, a, tol: ToleranceConfig = DEFAULT_TOL):
    """Chart of the polar-factor fibration: B -> (V_B, V0 (W* |B| W)).

    W is the initial-projector conjugating unitary of the orbit witness
    from V0 to V_B; it transports |B| to a positive matrix supported on
    the initial space of V0, so the second component sits in the fiber
    over V0.  Inverted by trivialize_v_inverse.
    """
    b = as_matrix(b)
    v0 = v0.matrix if isinstance(v0, PartialIsometry) else as_matrix(v0)
    parts = polar_decompose(b, tol)
    try:
        _, w = isometry_orbit_witness(v0, parts.polar_factor, tol)
    except PinvLabError as exc:
        raise OutsideNeighborhoodError(
            f"polar-factor chart undefined at this B: {exc}"
        ) from exc
    fiber_elem = v0 @ (w.conj().T @ parts.modulus @ w)
    return PartialIsometry(parts.polar_factor), fiber_elem


def trivialize_v_inverse(factor, fiber_elem, v0,
                         tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """(V, V0 C) -> V (W C W*), undoing trivialize_v."""
    v = factor.matrix if isinstance(factor, PartialIsometry) else as_matrix(factor)
    v0 = v0.matrix if isinstance(v0, PartialIsometry) else as_matrix(v0)
    fiber_elem = as_matrix(fiber_elem)
    _, w = isometry_orbit_witness(v0, v, tol)
    core = v0.conj().T @ fiber_elem      # recovers C from V0 C on N(V0)^perp
    return v @ w @ core @ w.conj().T

