import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pinvlab import generate, polar, strata
from pinvlab.errors import (
    OutsideNeighborhoodError,
    PreconditionError,
    StratumError,
)
from pinvlab.matcore import psd_eigh, svd

from conftest import near_identity_op

seeds = st.integers(min_value=0, max_value=10_000)


# ---------------------------------------------------------------------------
# polar_decompose


def test_polar_decompose_nilpotent_example():
    a = np.array([[0.0, 2.0], [0.0, 0.0]])
    parts = polar.polar_decompose(a)
    assert np.allclose(parts.polar_factor, [[0.0, 1.0], [0.0, 0.0]], atol=1e-12)
    assert np.allclose(parts.modulus, np.diag([0.0, 2.0]), atol=1e-12)


def test_polar_decompose_rejects_vector():
    with pytest.raises(PreconditionError):
        polar.polar_decompose(np.array([1.0, 2.0]))


@given(seeds, st.integers(min_value=0, max_value=4))
def test_polar_decompose_invariants(seed, r):
    a = generate.fixed_rank(np.random.default_rng(seed), 5, 4, r)
    parts = polar.polar_decompose(a)
    v, mod = parts.polar_factor, parts.modulus
    assert np.linalg.norm(v @ mod - a) < 1e-9
    # modulus is the PSD square root of A*A
    assert np.linalg.norm(mod @ mod - a.conj().T @ a) < 1e-9
    # V is a partial isometry with the same nullspace as A
    vv = v.conj().T @ v
    assert np.linalg.norm(vv @ vv - vv) < 1e-10
    assert np.linalg.norm(vv - mod @ svd(mod).pinv) < 1e-9
    polar.isometry_orbit_witness(v, parts.polar_factor_svd)


@pytest.mark.parametrize("m, n, r", [
    (5, 5, 5), (3, 6, 3), (6, 3, 3), (5, 5, 2), (3, 6, 1), (6, 3, 2), (4, 3, 0)])
def test_modulus_eig_matches_psd_eigh(rng, m, n, r):
    # square, wide, tall, rank-deficient and zero B: the psd_eigh read off
    # svd(B) agrees with the eigh of |B| in rank, eigenvalues (ascending,
    # zeros included) and range projector, to roundoff
    parts = polar.polar_decompose(generate.fixed_rank(rng, m, n, r))
    eig, ref = parts.modulus_eig, psd_eigh(parts.modulus)
    assert eig.rank == ref.rank == r
    assert eig.matrix is parts.modulus
    assert np.all(np.diff(eig.w) >= 0) and np.count_nonzero(eig.w) == r
    assert np.allclose(eig.w, ref.w, rtol=0, atol=1e-12)
    p_eig, p_ref = (e.range_basis @ e.range_basis.conj().T for e in (eig, ref))
    assert np.allclose(p_eig, p_ref, rtol=0, atol=1e-12)
    # its columns are eigenvectors of |B|
    assert np.allclose(parts.modulus @ eig.Q, eig.Q * eig.w, rtol=0, atol=1e-12)


def test_modulus_eig_is_kept_and_passes_through(rng):
    parts = polar.polar_decompose(generate.fixed_rank(rng, 4, 4, 2))
    eig = parts.modulus_eig
    assert parts.modulus_eig is eig
    assert psd_eigh(eig) is eig


@pytest.mark.parametrize("m, n, r", [(5, 5, 5), (3, 6, 3), (6, 3, 2), (4, 3, 0)])
def test_polar_factor_svd_is_an_svd_of_v(rng, m, n, r):
    # read off the SVD of A with no factorization and kept: its matrix is
    # V_A, its pinv V_A*, its modulus the initial projector, its gamma 1,
    # and its rank and cutoff are those an SVD of V_A takes
    parts = polar.polar_decompose(generate.fixed_rank(rng, m, n, r))
    fac = parts.polar_factor_svd
    v = parts.polar_factor
    assert parts.polar_factor_svd is fac and svd(fac) is fac
    assert np.array_equal(fac.matrix, v)
    assert np.allclose(fac.pinv, v.conj().T, rtol=0, atol=1e-12)
    assert np.allclose(fac.modulus, v.conj().T @ v, rtol=0, atol=1e-12)
    ref = svd(v)
    assert fac.rank == ref.rank == r and fac.gamma == (1.0 if r else 0.0)
    assert fac.rank_tolerance == pytest.approx(ref.rank_tolerance, rel=1e-12, abs=0)


def test_modulus_eig_has_the_rank_of_b_where_the_cutoffs_differ():
    # a tall 40 x 4 B with sigma_4 = 2e-9 between the cutoffs of svd(B),
    # RANK_REL max(m, n) sigma_1 = 4e-9, and of psd_eigh(|B|), RANK_REL n
    # sigma_1 = 4e-10: the modulus eig keeps rank(B) = 3, while an eigh of
    # |B| would count 4
    rng = np.random.default_rng(0)
    u = generate.unitary(rng, 40)[:, :4]
    v = generate.unitary(rng, 4)
    b = (u * [1.0, 0.9, 0.8, 2e-9]) @ v.conj().T
    parts = polar.polar_decompose(b)
    assert svd(b).rank == parts.modulus_eig.rank == 3
    assert psd_eigh(parts.modulus).rank == 4
    assert parts.modulus_eig.w[0] == 0.0


def test_partial_isometry_rejects_non_isometry():
    # V*V is 1e308 I at 1e154 and overflows at 1e160 and 1e200: each entry
    # point that checks a partial isometry refuses them without a warning
    b = np.eye(2)
    for v in (np.diag([2.0, 0.0]), 1e154 * b, 1e160 * b, 1e200 * b):
        for refused in (lambda: polar.trivialize_v_inverse(b, b, v),
                        lambda: polar.isometry_orbit_witness(v, b),
                        lambda: polar.trivialize_v(b, v)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(PreconditionError):
                    refused()


# ---------------------------------------------------------------------------
# congruence_witness


@given(seeds, st.integers(min_value=1, max_value=4))
def test_congruence_witness_conjugates(seed, r):
    rng = np.random.default_rng(seed)
    c = generate.psd_fixed_rank(rng, 4, r)
    g0 = near_identity_op(rng, 4, 0.4)
    d = g0 @ c @ g0.conj().T
    g = polar.congruence_witness(c, d)
    assert np.linalg.norm(g @ c @ g.conj().T - d) < 1e-8


@given(seeds, st.integers(min_value=1, max_value=3))
def test_congruence_witness_unrelated_ranges(seed, r):
    # equal rank suffices: the supports need not be close
    rng = np.random.default_rng(seed)
    c = generate.psd_fixed_rank(rng, 4, r)
    d = generate.psd_fixed_rank(rng, 4, r)
    g = polar.congruence_witness(c, d)
    assert np.linalg.norm(g @ c @ g.conj().T - d) < 1e-8
    # G is invertible
    assert np.linalg.svd(g, compute_uv=False)[-1] > 1e-8


def test_congruence_witness_orthogonal_nulls(rng):
    # N(C) and N(D) orthogonal, so no rotation carries one onto the other
    # directly; the witness needs none
    q = generate.unitary(rng, 6)
    c = (q[:, 2:] * np.array([0.5, 1.0, 1.5, 2.0])) @ q[:, 2:].conj().T
    keep = q[:, [0, 1, 4, 5]]
    d = (keep * np.array([2.0, 0.7, 1.2, 0.9])) @ keep.conj().T
    g = polar.congruence_witness(c, d)
    assert np.linalg.norm(g @ c @ g.conj().T - d) < 1e-10
    assert np.linalg.svd(g, compute_uv=False)[-1] > 1e-8


def test_congruence_witness_rejects_rank_mismatch(rng):
    c = generate.psd_fixed_rank(rng, 4, 2)
    d = generate.psd_fixed_rank(rng, 4, 3)
    with pytest.raises(StratumError):
        polar.congruence_witness(c, d)


def test_congruence_witness_rejects_indefinite(rng):
    with pytest.raises(PreconditionError):
        polar.congruence_witness(np.diag([1.0, -1.0]), np.diag([1.0, 1.0]))


# ---------------------------------------------------------------------------
# positive_section


def test_positive_section_identity_at_center(rng):
    c = generate.psd_fixed_rank(rng, 4, 2)
    sigma = polar.positive_section(c, c)
    assert np.linalg.norm(sigma - np.eye(4)) < 1e-9


def test_positive_section_diagonal_example():
    c = np.diag([4.0, 0.0])
    b = np.diag([9.0, 0.0])
    sigma = polar.positive_section(c, b)
    assert np.allclose(sigma, np.diag([1.5, 1.0]), atol=1e-12)


@given(seeds, st.integers(min_value=1, max_value=4))
def test_positive_section_conjugates_exactly(seed, r):
    rng = np.random.default_rng(seed)
    c = generate.psd_fixed_rank(rng, 4, r)
    g0 = generate.near_identity(rng, 4, 0.1)
    b = g0 @ c @ g0.conj().T
    sigma = polar.positive_section(c, b)
    assert np.linalg.norm(sigma @ c @ sigma.conj().T - b) < 1e-8
    assert np.linalg.svd(sigma, compute_uv=False)[-1] > 1e-8


def _nearly_complementary(c):
    """Rank-2 PSD C, B on C^4 whose ranges are within c of complementary."""
    rng = np.random.default_rng(3)
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    x, x_c = u[:, :2], u[:, 2:]
    y = np.linalg.qr(x_c + c * x @ np.array([[1.0, 0.3], [0.2, 1.0]]))[0]
    return x @ np.diag([2.0, 1.0]) @ x.conj().T, y @ np.diag([1.5, 0.7]) @ y.conj().T


@pytest.mark.parametrize("c, b", [
    (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
    _nearly_complementary(1e-12),
    _nearly_complementary(1e-14),
], ids=["orthogonal", "near-1e-12", "near-1e-14"])
def test_positive_section_outside_neighborhood(c, b):
    # orthogonal or nearly orthogonal ranges: the section is undefined even
    # at equal rank, though W = QP + (I-Q)(I-P) may have full svd rank
    with pytest.raises(OutsideNeighborhoodError):
        polar.positive_section(c, b)


# ---------------------------------------------------------------------------
# the modulus chart's unitary


@given(seeds, st.sampled_from([(4, 4, 2), (5, 5, 3), (6, 4, 2), (4, 6, 2),
                               (5, 3, 2), (3, 5, 2)]))
def test_chart_unitary_carries_range_projector(seed, shape):
    # U(|B|) is unitary and U P_R(C0) U* = P_R(|B|), C0 = |A|; both range
    # projectors are taken from SVDs of A and B, not from the chart's eighs
    m, n, r = shape
    rng = np.random.default_rng(seed)
    a = generate.fixed_rank(rng, m, n, r)
    b = generate.rank_preserving_perturbation(rng, a, 0.05)
    u = polar._chart_unitary(polar.polar_decompose(a).modulus, polar.polar_decompose(b).modulus)
    assert np.linalg.norm(u @ u.conj().T - np.eye(n)) < 1e-12
    v_a, v_b = svd(a).row_basis, svd(b).row_basis
    p_c0, p_b = v_a @ v_a.conj().T, v_b @ v_b.conj().T
    assert np.linalg.norm(u @ p_c0 @ u.conj().T - p_b) < 1e-10


# ---------------------------------------------------------------------------
# isometry_orbit_witness


def test_orbit_witness_at_center(rng):
    v0 = generate.partial_isometry(rng, 4, 3, 2)
    u, w = polar.isometry_orbit_witness(v0, v0)
    assert np.linalg.norm(u @ v0 @ w.conj().T - v0) < 1e-9


def test_orbit_witness_orthogonal_supports():
    v0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    v = np.array([[0.0, 0.0], [0.0, 1.0]])
    u, w = polar.isometry_orbit_witness(v0, v)
    assert np.linalg.norm(u @ v0 @ w.conj().T - v) < 1e-10


@given(seeds, st.integers(min_value=1, max_value=3))
def test_orbit_witness_property(seed, r):
    rng = np.random.default_rng(seed)
    v0 = generate.partial_isometry(rng, 5, 4, r)
    v = generate.partial_isometry(rng, 5, 4, r)
    u, w = polar.isometry_orbit_witness(v0, v)
    assert np.linalg.norm(u @ u.conj().T - np.eye(5)) < 1e-9
    assert np.linalg.norm(w @ w.conj().T - np.eye(4)) < 1e-9
    assert np.linalg.norm(u @ v0 @ w.conj().T - v) < 1e-8


@pytest.mark.parametrize("case", ["scaled_identity", "scaled_isometry"])
def test_orbit_witnesses_reject_non_isometries(rng, case):
    # 2I and 0.3 V have the rank of I and V but are no partial isometries;
    # an unchecked witness for them would not conjugate
    if case == "scaled_identity":
        v0, v = 2.0 * np.eye(3), np.eye(3)
    else:
        v = generate.partial_isometry(rng, 5, 4, 2)
        v0 = 0.3 * generate.partial_isometry(rng, 5, 4, 2)
    for bad, good in ((v0, v), (svd(v0), v)):
        with pytest.raises(PreconditionError):
            polar.isometry_orbit_witness(bad, good)
        with pytest.raises(PreconditionError):
            polar.isometry_orbit_witness(good, bad)
        with pytest.raises(PreconditionError):
            polar.trivialize_v_inverse(good, good, bad)
        with pytest.raises(PreconditionError):
            polar.trivialize_v_inverse(bad, good, good)
    with pytest.raises(PreconditionError):
        polar.trivialize_v(v, v0)


def test_orbit_witness_rejects_rank_mismatch(rng):
    v0 = generate.partial_isometry(rng, 4, 4, 1)
    v = generate.partial_isometry(rng, 4, 4, 2)
    with pytest.raises(StratumError):
        polar.isometry_orbit_witness(v0, v)


# ---------------------------------------------------------------------------
# modulus_map / polar_factor_map


def _near_pair(rng):
    a = generate.fixed_rank(rng, 4, 4, 2)
    return generate.rank_preserving_perturbation(rng, a, 0.05), a


def _pair_at_the_6x2_cutoff(rng):
    # sigma_2(B) = 5e-10 lies under B's cutoff 6e-10 (6 x 2) but over the
    # cutoff 2e-10 of the 2 x 2 |B|: index 1, whatever rank an SVD of |B| reads
    u, v = generate.unitary(rng, 6)[:, :2], generate.unitary(rng, 2)
    return (u * [1.0, 5e-10]) @ v, (u * [1.0, 0.5]) @ v


@pytest.mark.parametrize("pair", [_near_pair, _pair_at_the_6x2_cutoff])
@given(seeds)
def test_modulus_and_factor_maps_in_stratum(pair, seed):
    b, a = pair(np.random.default_rng(seed))
    mod = polar.modulus_map(b, a)
    factor = polar.polar_factor_map(b, a)
    parts = polar.polar_decompose(b)
    assert np.array_equal(mod, parts.modulus)
    assert np.array_equal(factor.matrix, parts.polar_factor)


def test_polar_factor_map_scaling_invariance(rng):
    a = generate.fixed_rank(rng, 4, 4, 2)
    v1 = polar.polar_factor_map(2.0 * a, a).matrix
    v2 = polar.polar_decompose(a).polar_factor
    assert np.linalg.norm(v1 - v2) < 1e-10


@given(seeds, st.sampled_from([-1, 0, 1]))
def test_maps_preserve_stratum_index(seed, k):
    rng = np.random.default_rng(seed)
    a = generate.fixed_rank(rng, 5, 5, 3)
    b = strata.stratum_representative(a, k)
    mod_a = polar.polar_decompose(a).modulus
    mod_b = polar.modulus_map(b, a)
    assert strata.stratum_index(mod_b, mod_a) == k
    v_a = polar.polar_decompose(a).polar_factor
    v_b = polar.polar_factor_map(b, a).matrix
    assert strata.stratum_index(v_b, v_a) == k


@given(seeds, st.sampled_from([-1, 0, 1]))
def test_polar_parts_of_pinv(seed, k):
    # B -> B^+ transposes the polar data: V_{B^+} = (V_B)* and
    # |B^+| = (|B*|)^+
    rng = np.random.default_rng(seed)
    a = generate.fixed_rank(rng, 5, 5, 3)
    b = strata.stratum_representative(a, k)
    parts = polar.polar_decompose(b)
    parts_pinv = polar.polar_decompose(svd(b).pinv)
    assert np.linalg.norm(parts_pinv.polar_factor
                          - parts.polar_factor.conj().T) < 1e-9
    mod_adj = polar.polar_decompose(b.conj().T).modulus
    assert np.linalg.norm(parts_pinv.modulus - svd(mod_adj).pinv) < 1e-9


# ---------------------------------------------------------------------------
# fiber membership and trivializations


def _chart_sample(seed, scale=0.05):
    rng = np.random.default_rng(seed)
    a = generate.fixed_rank(rng, 4, 4, 2)
    b = generate.rank_preserving_perturbation(rng, a, scale)
    return a, b


@given(seeds)
def test_fiber_membership_alpha(seed):
    a, b = _chart_sample(seed)
    c0 = polar.polar_decompose(a).modulus
    parts = polar.polar_decompose(b)
    assert polar.fiber_membership_alpha(a, c0, a)
    # |B| != C0, so B is not in the fiber over C0
    assert not polar.fiber_membership_alpha(b, c0, a)
    assert not polar.fiber_membership_alpha(parts.modulus, c0, a)


@given(seeds)
def test_trivialize_alpha_round_trip(seed):
    a, b = _chart_sample(seed)
    c0 = polar.polar_decompose(a).modulus
    mod, fiber_elem = polar.trivialize_alpha(b, c0, a)
    assert np.array_equal(mod.matrix, polar.modulus_map(b, a))
    assert polar.fiber_membership_alpha(fiber_elem, c0, a)
    back = polar.trivialize_alpha_inverse(mod, fiber_elem, c0)
    assert np.linalg.norm(back - b) < 1e-8


@given(seeds)
def test_trivialize_alpha_inverse_takes_the_modulus_eig(seed):
    # the chart returns |B| as the psd_eigh read off svd(B), which undoes
    # the chart as |B| the matrix does, to roundoff
    a, b = _chart_sample(seed)
    c0 = polar.polar_decompose(a).modulus
    parts = polar.polar_decompose(b)
    mod, fiber_elem = polar.trivialize_alpha(parts, c0, a)
    assert mod is parts.modulus_eig
    back = polar.trivialize_alpha_inverse(mod, fiber_elem, c0)
    back_m = polar.trivialize_alpha_inverse(parts.modulus, fiber_elem, c0)
    assert np.linalg.norm(back - b) < 1e-8
    assert np.linalg.norm(back - back_m) < 1e-12


def test_trivialize_alpha_outside_chart():
    a = np.diag([1.0, 0.0])
    c0 = polar.polar_decompose(a).modulus
    # the modulus of B has range orthogonal to R(C0)
    with pytest.raises(OutsideNeighborhoodError):
        polar.trivialize_alpha(np.diag([0.0, 1.0]), c0, a)


@given(seeds)
def test_trivialize_v_round_trip(seed):
    a, b = _chart_sample(seed)
    v0 = polar.polar_decompose(a).polar_factor
    factor, fiber_elem = polar.trivialize_v(b, v0)
    assert np.array_equal(factor.matrix, polar.polar_factor_map(b, a).matrix)
    # the second component has polar factor V0
    fparts = polar.polar_decompose(fiber_elem)
    assert np.linalg.norm(fparts.polar_factor - v0) < 1e-8
    back = polar.trivialize_v_inverse(factor, fiber_elem, v0)
    assert np.linalg.norm(back - b) < 1e-8


def test_trivialize_v_outside_chart(rng):
    a = generate.fixed_rank(rng, 4, 4, 2)
    v0 = polar.polar_decompose(a).polar_factor
    b = generate.fixed_rank(rng, 4, 4, 3)
    with pytest.raises(OutsideNeighborhoodError):
        polar.trivialize_v(b, v0)


def test_trivialize_v_inverse_memory_is_bounded():
    # the rotation is read off the cross block V0 V* in row form, with no
    # n x n initial projector kept: the peak stays under six d x d complex
    # matrices (the d x d W and its SVD peaked at seven)
    d = 64
    rng = generate.rng_from_seed(0)
    a = generate.fixed_rank(rng, d, d, d // 2)
    v0 = polar.polar_decompose(a).polar_factor
    factor, fiber_elem = polar.trivialize_v(
        generate.rank_preserving_perturbation(rng, a, 0.05), v0)
    polar.trivialize_v_inverse(factor, fiber_elem, v0)
    tracemalloc.start()
    try:
        polar.trivialize_v_inverse(factor, fiber_elem, v0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * d * d * 16


# a fixed non-scalar modulus, as a 2 x 2 block
_MODULUS = np.array([[1.25, -0.5 - 0.4j], [-0.5 + 0.4j, 2.75]])


@pytest.mark.parametrize("delta", [1e-4, 2e-5, 1.5e-5, 1.42e-5, 1.41e-5, 1e-5, 1e-6])
def test_trivialize_v_at_the_edge_of_its_domain(delta):
    # V0 = e1e1* + e2e2*; B has the modulus above on the initial space
    # spanned by f_k = sin(delta) e_k + cos(delta) e_{k+2}, k = 1, 2, at
    # principal angles pi/2 - delta from that of V0.  The direct rotation
    # W carries e_k to f_k, so the fiber element is V0 times the modulus,
    # as a block on e1, e2, and the inverse gives B back.  Once the gap
    # (1 - sin^2 delta)^{1/2} nears 1 - RANK_REL, each direction may raise
    # but never return another matrix; at delta = 1e-6 it must raise.
    eye = np.eye(4)
    v0 = eye[:, :2] @ eye[:, :2].T
    f = np.sin(delta) * eye[:, :2] + np.cos(delta) * eye[:, 2:]
    b = eye[:, :2] @ _MODULUS @ f.conj().T
    transported = np.zeros((4, 4), dtype=complex)
    transported[:2, :2] = _MODULUS
    directions = (
        (lambda: polar.trivialize_v(b, v0).fiber_elem, transported),
        (lambda: polar.trivialize_v_inverse(eye[:, :2] @ f.conj().T, transported, v0), b))
    for direction, expected in directions:
        try:
            got = direction()
        except OutsideNeighborhoodError:
            assert delta < 2e-5
        else:
            assert delta > 1e-6
            assert np.linalg.norm(got - expected) < 1e-8


@given(seeds, st.sampled_from([(6, 4, 2), (4, 6, 2), (5, 3, 3), (3, 5, 3)]))
def test_chart_round_trips_rectangular(seed, shape):
    m, n, r = shape
    rng = np.random.default_rng(seed)
    a = generate.fixed_rank(rng, m, n, r)
    b = generate.rank_preserving_perturbation(rng, a, 0.05)
    parts = polar.polar_decompose(a)
    mod, fiber_elem = polar.trivialize_alpha(b, parts.modulus, a)
    assert polar.fiber_membership_alpha(fiber_elem, parts.modulus, a)
    back = polar.trivialize_alpha_inverse(mod, fiber_elem, parts.modulus)
    assert np.linalg.norm(back - b) < 1e-12
    factor, fiber_elem = polar.trivialize_v(b, parts.polar_factor)
    back = polar.trivialize_v_inverse(factor, fiber_elem, parts.polar_factor)
    assert np.linalg.norm(back - b) < 1e-12


def test_modulus_base_reused_matches_matrix_calls(rng):
    # a base point factorized once (psd_eigh of C0, svd of A, the polar
    # parts of each B) gives what the matrix calls give
    a = generate.fixed_rank(rng, 6, 6, 3)
    parts = polar.polar_decompose(a)
    res_a = svd(a)
    parts_a = polar.polar_decompose(res_a)
    c0 = psd_eigh(parts_a.modulus)
    v0 = parts_a.polar_factor_svd
    assert np.linalg.norm(v0.matrix - parts.polar_factor) < 1e-12
    for _ in range(4):
        b = generate.rank_preserving_perturbation(rng, a, 0.05)
        parts_b = polar.polar_decompose(b)
        mod, fib = polar.trivialize_alpha(parts_b, c0, res_a)
        mod_m, fib_m = polar.trivialize_alpha(b, parts.modulus, a)
        assert np.linalg.norm(mod.matrix - mod_m.matrix) < 1e-12
        assert np.linalg.norm(fib - fib_m) < 1e-12
        assert polar.fiber_membership_alpha(fib, c0, res_a)
        back = polar.trivialize_alpha_inverse(mod, fib, c0)
        back_m = polar.trivialize_alpha_inverse(mod_m, fib_m, parts.modulus)
        assert np.linalg.norm(back - back_m) < 1e-12
        factor, fib = polar.trivialize_v(parts_b, v0)
        factor_m, fib_m = polar.trivialize_v(b, parts.polar_factor)
        assert np.linalg.norm(factor.matrix - factor_m.matrix) < 1e-12
        assert np.linalg.norm(fib - fib_m) < 1e-12
        back = polar.trivialize_v_inverse(factor, fib, v0)
        back_m = polar.trivialize_v_inverse(factor_m.matrix, fib_m, parts.polar_factor)
        assert np.linalg.norm(back - back_m) < 1e-12


@pytest.mark.parametrize("d", [8, 32])
def test_inverse_through_the_point_matches_the_recomputed_rotation(d):
    # point.back() undoes the chart with the rotation the chart took; the
    # public inverse takes it again from its inputs.  For the modulus chart
    # both take it from the same range bases, so they agree bit for bit;
    # the polar-factor chart takes it from V0 against B's row basis and its
    # inverse from V0 against V_B, so they agree to roundoff.  Base points
    # given as matrices and as their factorizations
    rng = generate.rng_from_seed(d)
    a = generate.fixed_rank(rng, d, d, d // 2)
    res_a = svd(a)
    parts_a = polar.polar_decompose(res_a)
    bases = ((parts_a.modulus_eig, parts_a.polar_factor),
             (parts_a.modulus, parts_a.polar_factor_svd))
    for _ in range(3):
        b = generate.rank_preserving_perturbation(rng, a, 0.05)
        for c0, v0 in bases:
            point = polar.trivialize_alpha(b, c0, res_a)
            back = point.back()
            assert np.array_equal(back, polar.trivialize_alpha_inverse(*point, c0))
            assert np.linalg.norm(back - b) < 1e-10
            point = polar.trivialize_v(b, v0)
            back = point.back()
            plain = polar.trivialize_v_inverse(*point, v0)
            assert np.linalg.norm(back - plain) <= 1e-12 * np.linalg.norm(b)
            assert np.linalg.norm(back - b) < 1e-10


def test_modulus_base_rejects_misuse(rng):
    # X not of A's shape, and C0 not n x n for an n-column A, each with
    # C0 given as a matrix and as its psd_eigh
    a = generate.fixed_rank(rng, 4, 4, 2)
    b = generate.rank_preserving_perturbation(rng, a, 0.05)
    c0 = polar.polar_decompose(a).modulus
    for base in (c0, psd_eigh(c0)):
        with pytest.raises(PreconditionError):
            polar.fiber_membership_alpha(a[:, :3], base, a)
        with pytest.raises(PreconditionError):
            polar.fiber_membership_alpha(a[:, :3], base, svd(a))
    for small in (c0[:3, :3], psd_eigh(c0[:3, :3])):
        with pytest.raises(PreconditionError):
            polar.trivialize_alpha(b, small, a)
        with pytest.raises(PreconditionError):
            polar.fiber_membership_alpha(a, small, a)
