import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pinvlab import codim, generate, strata
from pinvlab.errors import (
    ObstructionError,
    PreconditionError,
    StratumError,
)
from pinvlab.matcore import IDENTITY_REL, OP_NORM, GaugeNorm, gauge_norm, svd

seeds = st.integers(min_value=0, max_value=10_000)


@given(seeds, st.integers(min_value=-2, max_value=2))
def test_stratum_index_of_representative(seed, k):
    a = generate.fixed_rank(np.random.default_rng(seed), 6, 6, 3)
    assert k in strata.index_range(a)
    b = strata.stratum_representative(a, k)
    assert strata.stratum_index(b, a) == k


def test_index_range_values(rng):
    a = generate.fixed_rank(rng, 6, 4, 2)
    r = strata.index_range(a)
    # dim N(A) = 2, dim N(A)^perp = 2, dim R(A)^perp = 4
    assert (r.k_min, r.k_max) == (-2, 2)
    assert 0 in r and -2 in r and 2 in r
    assert 3 not in r


@pytest.mark.parametrize("s", np.linspace(1 - 1e-8 - 4e-16, 1 - 1e-8 + 4e-16, 9))
def test_stratum_index_where_a_principal_cosine_straddles_the_threshold(s):
    # N(B) = span(n) meets N(A)^perp = span(e2, e3, e4) at cos = s, within
    # roundoff of INTERSECTION_COS; both have rank 3, so the index is 0
    # whichever side of the threshold roundoff puts the cosine
    n = np.array([np.sqrt(1 - s * s), s, 0.0, 0.0])
    a = np.diag([0.0, 1.0, 1.0, 1.0])
    b = np.eye(4) - np.outer(n, n)
    assert strata.stratum_index(b, a) == 0


def test_stratum_index_shape_mismatch():
    with pytest.raises(PreconditionError):
        strata.stratum_index(np.eye(2), np.eye(3))


def test_representative_outside_range(rng):
    a = generate.fixed_rank(rng, 4, 4, 2)
    # an index is an int: 1.0 and "1" are not in the admissible range
    for k in (5, 1.0, 0.5, "1"):
        with pytest.raises(PreconditionError):
            strata.stratum_representative(a, k)
        with pytest.raises(PreconditionError):
            strata.approximate_in_stratum(a, a, k, 0.1)


def test_representative_zero_is_copy(rng):
    a = generate.fixed_rank(rng, 4, 4, 2)
    b = strata.stratum_representative(a, 0)
    assert np.array_equal(b, a)
    assert b is not a


@given(seeds)
def test_group_action_preserves_stratum(seed):
    rng = np.random.default_rng(seed)
    a = generate.fixed_rank(rng, 5, 5, 3)
    gk = strata.GroupPair(generate.near_identity(rng, 5, 0.1),
                          generate.near_identity(rng, 5, 0.1))
    b = strata.act(gk, a)
    assert strata.stratum_index(b, a) == 0


def test_act_rejects_singular_group_element(rng):
    a = generate.fixed_rank(rng, 4, 4, 2)
    with pytest.raises(PreconditionError):
        strata.act(strata.GroupPair(np.diag([1.0, 1.0, 1.0, 0.0]), np.eye(4)), a)


@given(seeds)
def test_transitivity_witness_exact(seed):
    rng = np.random.default_rng(seed)
    b1 = generate.fixed_rank(rng, 5, 5, 3)
    b2 = generate.fixed_rank(rng, 5, 5, 3)
    gk = strata.transitivity_witness(b1, b2)
    assert np.linalg.norm(strata.act(gk, b1) - b2) < 1e-9


@pytest.mark.parametrize("m, n, r", [(4, 4, 2), (5, 3, 2), (3, 5, 3)])
@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1.0, 1e9, 1e12])
def test_transitivity_witness_at_any_scale(rng, m, n, r, scale):
    # beyond the rank G scales by sigma_1(B2)/sigma_1(B1), as on it, so for
    # B2 = s B1 it is s times a unitary: with 1 there, G was numerically
    # singular at s = 1e-12 and reproduced B2 to only 6e-7 at s = 1e-9
    b1 = generate.fixed_rank(rng, m, n, r)
    b2 = scale * b1
    gk = strata.transitivity_witness(b1, b2)
    assert np.linalg.norm(strata.act(gk, b1) - b2) <= 1e-14 * np.linalg.norm(b2)


def test_transitivity_witness_rank_mismatch(rng):
    b1 = generate.fixed_rank(rng, 5, 5, 3)
    b2 = generate.fixed_rank(rng, 5, 5, 2)
    with pytest.raises(StratumError):
        strata.transitivity_witness(b1, b2)


@given(seeds)
def test_local_section_reproduces_b(seed):
    rng = np.random.default_rng(seed)
    a = generate.fixed_rank(rng, 5, 5, 3)
    b = generate.rank_preserving_perturbation(rng, a, 0.05)
    gk = strata.local_section_sigma(a, b)
    assert np.linalg.norm(strata.act(gk, a) - b) < 1e-8


def test_local_section_rejects_other_stratum(rng):
    a = generate.fixed_rank(rng, 5, 5, 3)
    b = generate.fixed_rank(rng, 5, 5, 2)
    with pytest.raises(StratumError):
        strata.local_section_sigma(a, b)


def test_local_section_near_identity_at_center(rng):
    a = generate.fixed_rank(rng, 5, 5, 3)
    gk = strata.local_section_sigma(a, a)
    assert np.linalg.norm(gk.G - np.eye(5), 2) < 1e-10
    assert np.linalg.norm(gk.K - np.eye(5), 2) < 1e-10


@given(seeds)
def test_approximate_in_stratum_rank_increase(seed):
    rng = np.random.default_rng(seed)
    a = generate.fixed_rank(rng, 5, 5, 3)
    b = strata.stratum_representative(a, 1)          # rank 2
    out = strata.approximate_in_stratum(b, a, 0, 1e-6)
    assert strata.stratum_index(out, a) == 0
    assert np.linalg.norm(out - b, 2) <= 1e-6 * (1 + 1e-9)


def test_approximate_in_stratum_noop_when_already_there(rng):
    a = generate.fixed_rank(rng, 5, 5, 3)
    b = generate.rank_preserving_perturbation(rng, a, 0.01)
    out = strata.approximate_in_stratum(b, a, 0, 1e-6)
    assert np.array_equal(out, b)


def test_approximate_in_stratum_rank_decrease_obstructed(rng):
    a = generate.fixed_rank(rng, 5, 5, 3)
    b = generate.rank_jump_perturbation(a, 0.1)   # rank 4
    with pytest.raises(ObstructionError):
        strata.approximate_in_stratum(b, a, 0, 1e-6)


@given(seeds, st.sampled_from([-1, 1, 2]))
def test_correct_to_stratum_zero(seed, k):
    rng = np.random.default_rng(seed)
    a = generate.fixed_rank(rng, 6, 6, 3)
    if k < 0:
        b = generate.rank_jump_perturbation(a, 0.1)
    else:
        b = generate.rank_preserving_perturbation(
            rng, strata.stratum_representative(a, k), 0.01)
    c = strata.correct_to_stratum_zero(a, b)
    assert np.linalg.matrix_rank(c) == abs(k)
    assert strata.stratum_index(b + c, a) == 0
    dist = gauge_norm(a - b, OP_NORM)
    assert gauge_norm(c, OP_NORM) <= dist * (1 + 1e-9)


def test_correct_to_stratum_zero_rejects_zero_index(rng):
    a = generate.fixed_rank(rng, 4, 4, 2)
    with pytest.raises(PreconditionError):
        strata.correct_to_stratum_zero(a, a)


@given(seeds)
def test_continuity_report_in_stratum(seed):
    rng = np.random.default_rng(seed)
    b = generate.fixed_rank(rng, 5, 5, 3)
    seq = generate.in_stratum_family(rng, b, 8)
    report = strata.continuity_report(b, seq, 2, OP_NORM)
    assert report.consistent
    assert report.all_true


@given(seeds)
def test_continuity_report_jump(seed):
    rng = np.random.default_rng(seed)
    b = generate.fixed_rank(rng, 5, 5, 3)
    seq = generate.jump_family(b, 8)
    report = strata.continuity_report(b, seq, 2, OP_NORM)
    assert report.consistent
    assert not report.all_true
    assert all(not v for v in report.verdicts.values())


def _truncated(x, r):
    """x cut to its r leading singular values: a rank-r matrix near x."""
    u, sv, vt = np.linalg.svd(x)
    return (u[:, :r] * sv[:r]) @ vt[:r]


CS_GAUGES = ("op", "s1", "s2", "kyfan:2")
# (shape, rank(B), rank(B_n)) with delta = rank(B_n) - rank(B) in -2..2,
# B = 0 and full-rank B included: one cross block is then empty
CS_CASES = [(shape, rb, rb + delta)
            for shape in ((5, 3), (3, 5))
            for delta in (-2, -1, 0, 1, 2)
            for rb in range(4) if 0 <= rb + delta <= 3]


@pytest.mark.parametrize("shape, rank_b, rank_n", CS_CASES)
@given(seeds, st.sampled_from([1e-6, 1e-2, 1.0]))
def test_continuity_report_null_gaps_match_the_projector_difference(
        shape, rank_b, rank_n, seed, t):
    # (iv)-(vi) come from the cross block by the CS decomposition; the
    # oracle is the SVD of the d x d difference of the null projectors and
    # the intersection counted from principal vectors.  B_n is B + tG cut
    # to rank(B_n), so small t puts its null space near that of B.
    rng = np.random.default_rng(seed)
    b = generate.fixed_rank(rng, *shape, rank_b)
    bn = _truncated(b + t * generate.ginibre(rng, *shape), rank_n)
    rb, rn = svd(b), svd(bn)
    assert (rb.rank, rn.rank) == (rank_b, rank_n)
    vn, vb = rn.null_basis, rb.null_basis
    gaps = np.linalg.svd(vn @ vn.conj().T - vb @ vb.conj().T, compute_uv=False)
    dim = codim.intersection_dim(rb.null_basis, rn.row_basis)
    assert dim == codim.intersection_basis(rb.null_basis, rn.row_basis).shape[1]
    for spec in CS_GAUGES:
        g = GaugeNorm.parse(spec)
        row = strata.continuity_report(b, [bn], 0, g).rows[0]
        assert abs(row.nullproj_gap_op - gaps[0]) <= 1e-13
        assert abs(row.nullproj_gap_gauge - g.of_singular_values(gaps)) <= 1e-13
        assert row.intersection_dim == dim


def test_continuity_report_validates_args(rng):
    b = generate.fixed_rank(rng, 4, 4, 2)
    with pytest.raises(PreconditionError):
        strata.continuity_report(b, [], 0, OP_NORM)
    with pytest.raises(PreconditionError):
        strata.continuity_report(b, [b], 3, OP_NORM)


@given(seeds)
def test_mp_map_preserves_index(seed):
    rng = np.random.default_rng(seed)
    a = generate.fixed_rank(rng, 5, 5, 3)
    b = generate.rank_preserving_perturbation(rng, a, 0.05)
    bp = strata.mp_map(b, a)
    assert np.linalg.norm(bp - svd(b).pinv) < 1e-12


def test_mp_map_at_the_rank_cutoff():
    # sigma_3(B_t) = 4e-10 t sits at B's cutoff 4e-10, and the least nonzero
    # singular value 1 of B_t^+ at the cutoff 1/t of B_t^+: the rank an SVD
    # of B_t^+ reads differs from rank(B_t) on 28 of these t
    rng = np.random.default_rng(0)
    q1, q2 = generate.unitary(rng, 4), generate.unitary(rng, 4)
    a = np.diag([1.0, 0.7, 0.5, 0.0])
    for t in np.linspace(1 - 2e-6, 1 + 2e-6, 4001):
        b = (q1 * [1.0, 0.7, 4e-10 * t, 0.0]) @ q2.conj().T
        assert np.array_equal(strata.mp_map(b, a), svd(b).pinv)


@given(seeds)
def test_tangent_membership_and_witness(seed):
    rng = np.random.default_rng(seed)
    b = generate.fixed_rank(rng, 5, 4, 2)
    x, y = generate.tangent_pair(rng, 5, 4)
    z = x @ b - b @ y
    ok, (xw, yw) = strata.tangent_membership(b, z, return_witness=True)
    assert ok
    assert np.linalg.norm((xw @ b - b @ yw) - z) < 1e-9


def test_tangent_membership_rejects_corner_directions(rng):
    b = np.diag([1.0, 0.0])
    z = np.array([[0.0, 0.0], [0.0, 1.0]])   # corner block (I-P) Z Q nonzero
    assert not strata.tangent_membership(b, z)
    with pytest.raises(PreconditionError):
        strata.mp_tangent(b, z)


@given(seeds, st.integers(min_value=2, max_value=7), st.integers(min_value=2, max_value=7),
       st.integers(min_value=0, max_value=6))
def test_tangent_membership_is_scale_equivariant(seed, m, n, r):
    # a pure corner block is never tangent and X B - B Y always is, at
    # every scale s of the pair (sB, sZ): no absolute floor decides it
    rng = np.random.default_rng(seed)
    r = min(r, m - 1, n - 1)
    b = generate.fixed_rank(rng, m, n, r)
    u, _, vh = np.linalg.svd(b)
    corner = u[:, r:] @ generate.ginibre(rng, m - r, n - r) @ vh[r:]
    x, y = generate.tangent_pair(rng, m, n)
    tangent = x @ b - b @ y
    for s in (1e-12, 1e-6, 1.0, 1e6, 1e12):
        assert not strata.tangent_membership(s * b, s * corner)
        assert strata.tangent_membership(s * b, s * tangent)


# (m, n, r): square, tall and wide, each at rank 0, an inner rank and full rank
BASIS_CASES = [(m, n, r) for m, n in ((4, 4), (6, 4), (4, 6)) for r in (0, 2, min(m, n))]


@pytest.mark.parametrize("m, n, r", BASIS_CASES)
@given(seeds)
def test_basis_formulas_match_the_projector_formulas(m, n, r, seed):
    # the section, the tangent witness, mp_tangent and the tangent test
    # apply the SVD bases; the oracle is each formula written with d x d
    # projectors P_R = U_r U_r* and P_N = I - V_r V_r*.  The inputs are of
    # unit scale, so a residual below 1e-12 max(1, ||oracle||) is relative.
    rng = np.random.default_rng(seed)
    a = generate.fixed_rank(rng, m, n, r)
    b = generate.rank_preserving_perturbation(rng, a, 0.05)
    ra, rb = svd(a), svd(b)
    i_m, i_n = np.eye(m), np.eye(n)

    def projectors(res):
        u_r, v_r = res.range_basis, res.row_basis
        return u_r @ u_r.conj().T, i_n - v_r @ v_r.conj().T

    (pa_r, pa_n), (pb_r, pb_n) = projectors(ra), projectors(rb)

    def close(got, oracle):
        assert np.linalg.norm(got - oracle) <= 1e-12 * max(1.0, np.linalg.norm(oracle))

    sigma = strata.local_section_sigma(a, b)
    close(sigma.G, b @ ra.pinv + (i_m - pb_r) @ (i_m - pa_r))
    close(sigma.K, pb_n @ pa_n + (i_n - pb_n) @ (i_n - pa_n))
    x, y = generate.tangent_pair(rng, m, n)
    v = x @ b - b @ y
    b_pinv = rb.pinv
    close(strata.mp_tangent(b, v),
          -b_pinv @ v @ b_pinv + b_pinv @ b_pinv.conj().T @ v.conj().T @ (i_m - pb_r)
          + pb_n @ v.conj().T @ b_pinv.conj().T @ b_pinv)
    corner = rb.corange_basis @ generate.ginibre(rng, m - r, n - r) @ rb.null_basis.conj().T
    for z in (v, corner, v + 1e-3 * corner, generate.ginibre(rng, m, n)):
        ok, (xw, _) = strata.tangent_membership(b, z, return_witness=True)
        close(xw, (i_m - pb_r) @ z @ b_pinv)
        oracle = np.linalg.norm((i_m - pb_r) @ z @ pb_n) <= IDENTITY_REL * np.linalg.norm(z)
        assert ok == oracle


def _expm(m, order=24):
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, order):
        term = term @ m / k
        out = out + term
    return out


@given(seeds)
def test_mp_tangent_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    b = generate.fixed_rank(rng, 5, 4, 2)
    x, y = generate.tangent_pair(rng, 5, 4)
    v = x @ b - b @ y
    dt = strata.mp_tangent(b, v)
    h = 1e-5
    plus = svd(_expm(h * x) @ b @ _expm(-h * y)).pinv
    minus = svd(_expm(-h * x) @ b @ _expm(h * y)).pinv
    fd = (plus - minus) / (2 * h)
    assert np.linalg.norm(dt - fd) <= 1e-6 * np.linalg.norm(dt)


@pytest.mark.parametrize("seed", range(4))
def test_mp_tangent_at_small_gamma(seed):
    # sigma = (1, 0.5, 1e-5): sigma_r^2 = 1e-10 sits below the rank cutoff
    # of B*B, so Gram pseudoinverses taken by their own SVDs drop it (74% off)
    rng = np.random.default_rng(seed)
    u, w = generate.unitary(rng, 6), generate.unitary(rng, 6)
    b = (u[:, :3] * np.array([1.0, 0.5, 1e-5])) @ w[:, :3].conj().T
    x, y = generate.ginibre(rng, 6, 6), generate.ginibre(rng, 6, 6)
    h = 1e-8
    plus = np.linalg.pinv((np.eye(6) + h * x) @ b @ (np.eye(6) - h * y), rcond=1e-12)
    minus = np.linalg.pinv((np.eye(6) - h * x) @ b @ (np.eye(6) + h * y), rcond=1e-12)
    fd = (plus - minus) / (2 * h)
    dt = strata.mp_tangent(b, x @ b - b @ y)
    assert np.linalg.norm(dt - fd) <= 1e-2 * np.linalg.norm(fd)
