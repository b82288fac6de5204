import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pinvlab import generate, polar
from pinvlab.codim import (
    direct_rotation,
    essential_codimension,
    intersection_dim,
    projector_eig,
)
from pinvlab.errors import GapTooLargeError, OutsideNeighborhoodError, PreconditionError
from pinvlab.matcore import RANK_REL

from conftest import near_identity_op

seeds = st.integers(min_value=0, max_value=10_000)
ranks = st.integers(min_value=0, max_value=4)


def random_projector(seed, n, r):
    cols = generate.unitary(np.random.default_rng(seed), n)[:, :r]
    return projector_eig(cols @ cols.conj().T)


def test_from_matrix_accepts_projector(rng):
    cols = generate.unitary(rng, 4)[:, :2]
    p = projector_eig(cols @ cols.conj().T)
    assert p.rank == 2
    # the range values are the eigenvalues above 1/2, the others are 0
    assert np.all(np.abs(p.range_values - 1.0) < 1e-12)
    assert np.array_equal(p.w[:2], np.zeros(2))


def test_from_matrix_rejects_non_idempotent():
    with pytest.raises(PreconditionError, match="matrix is not idempotent"):
        projector_eig(np.diag([2.0, 0.0]))


@pytest.mark.parametrize("m", [
    [[1.0, 1.0], [1.0, -1.0]],      # Hermitian: P^2 = 2I overflows unscaled
    [[1.0, 1.0], [0.0, 1.0]],
])
def test_from_matrix_near_overflow_is_not_idempotent(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="not idempotent"):
            projector_eig(1e200 * np.array(m))


def test_from_matrix_idempotency_check_is_scaled_exactly(rng):
    # 2^-e (P^2 - P) against 2^-e PROJECTOR_REL max(1, ||P||) decides as
    # the unscaled check: a projector near the threshold stays accepted,
    # and the zero matrix's scale 1 floor is kept
    cols = generate.unitary(rng, 4)[:, :2]
    p = cols @ cols.conj().T
    assert projector_eig(p + 1e-11 * np.eye(4)).rank == 2
    assert projector_eig(np.zeros((3, 3))).rank == 0
    with pytest.raises(PreconditionError, match="not idempotent"):
        projector_eig((1.0 + 1e-8) * p)


def test_from_matrix_rejects_non_hermitian():
    # idempotent but oblique
    m = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(PreconditionError, match="matrix is not Hermitian"):
        projector_eig(m)


def test_from_matrix_rejects_rectangular():
    with pytest.raises(PreconditionError, match="a projector must be square"):
        projector_eig(np.zeros((2, 3)))


def test_zero_projector_rank():
    # numerically-zero projectors must report rank 0, not pick up noise
    p = projector_eig(np.zeros((4, 4), dtype=complex))
    assert p.rank == 0
    assert p.range_basis.shape == (4, 0)
    assert p.null_basis.shape == (4, 4)


def test_intersection_dim_known_overlap(rng):
    u = generate.unitary(rng, 6)
    x = u[:, :3]
    y = np.hstack([u[:, 1:3], u[:, 4:5]])   # shares a 2-dim subspace with x
    assert intersection_dim(x, y) == 2
    assert intersection_dim(x, u[:, 3:]) == 0
    assert intersection_dim(x, np.zeros((6, 0))) == 0


@given(seeds, ranks, ranks)
def test_essential_codimension_is_rank_difference(seed, rp, rq):
    p = random_projector(seed, 5, rp)
    q = random_projector(seed + 1, 5, rq)
    assert essential_codimension(p, q) == rp - rq


def test_essential_codimension_dimension_mismatch():
    with pytest.raises(PreconditionError):
        essential_codimension(random_projector(0, 4, 2), random_projector(0, 5, 2))


def w_form_rotation(p, q):
    """The oracle: U = XY*, the unitary polar factor of W = QP + (I-Q)(I-P)
    = X S Y* for projector matrices P, Q, and the gap (1 - s_min^2)^{1/2}.

    As WW* = I - (P-Q)^2, this is the direct rotation of P onto Q, taken
    from one SVD of a d x d matrix apart from the cross block."""
    ident = np.eye(len(p), dtype=complex)
    x, s, yh = np.linalg.svd(q @ p + (ident - q) @ (ident - p))
    return x @ yh, float(np.sqrt(max(1.0 - s[-1] ** 2, 0.0)))


def initial_projector(a):
    return a.conj().T @ a


@given(seeds)
def test_direct_rotation_conjugates(seed):
    rng = np.random.default_rng(seed)
    cols = generate.unitary(rng, 5)[:, :2]
    p = cols @ cols.conj().T
    w = near_identity_op(rng, 5, 0.2)
    qcols = np.linalg.qr(w @ cols)[0]
    q = qcols @ qcols.conj().T
    u = direct_rotation(cols.conj().T, qcols.conj().T)
    n = 5
    assert np.linalg.norm(u @ u.conj().T - np.eye(n)) < 1e-9
    assert np.linalg.norm(u @ p @ u.conj().T - q) < 1e-9


def test_direct_rotation_identity_case():
    cols = generate.unitary(np.random.default_rng(3), 4)[:, :2]
    u = direct_rotation(cols.conj().T, cols.conj().T)
    assert np.linalg.norm(u - np.eye(4)) < 1e-10


def _rank_one_pair(c):
    """x* = e1* and y* = (c, (1 - c^2)^{1/2}) in C^2, partial isometries with
    initial projectors P = xx*, Q = yy*: cos theta = c."""
    return (np.array([[1.0, 0.0]], dtype=complex),
            np.array([[c, np.sqrt(1.0 - c * c)]], dtype=complex))


@pytest.mark.parametrize("c", [1e-4, 2e-5])
def test_direct_rotation_is_accurate_near_the_gap(c):
    # the rotation takes no 1/sin and stays unitary to roundoff; an
    # inverse square root of I - (P - Q)^2 amplifies its error by 1/c^2
    a, b = _rank_one_pair(c)
    p, q = initial_projector(a), initial_projector(b)
    u = direct_rotation(a, b)
    assert np.linalg.norm(u @ u.conj().T - np.eye(2)) <= 1e-12
    assert np.linalg.norm(u @ p @ u.conj().T - q) <= 1e-10


@pytest.mark.parametrize("c", [0.0, 1e-6])
def test_direct_rotation_gap_one_fails(c):
    # ||P - Q|| = (1 - c^2)^{1/2} >= 1 - RANK_REL at c = 1e-6; the error
    # carries that gap
    with pytest.raises(GapTooLargeError) as info:
        direct_rotation(*_rank_one_pair(c))
    assert 1.0 - RANK_REL <= info.value.gap <= 1.0
    assert abs(info.value.gap - np.sqrt(1.0 - c * c)) <= 1e-12


dims = st.integers(min_value=1, max_value=6)


@given(seeds, dims, ranks)
def test_direct_rotation_matches_w_form_on_basis_adjoints(seed, n, r):
    r = min(r, n)
    rng = np.random.default_rng(seed)
    x = generate.unitary(rng, n)[:, :r]
    y = np.linalg.qr(near_identity_op(rng, n, 0.5) @ x)[0]
    p, q = x @ x.conj().T, y @ y.conj().T
    u = direct_rotation(x.conj().T, y.conj().T)
    assert np.linalg.norm(u - w_form_rotation(p, q)[0]) <= 1e-10
    assert np.linalg.norm(u @ p @ u.conj().T - q) <= 1e-10


@given(seeds, dims, st.integers(1, 3), ranks)
def test_direct_rotation_matches_w_form_on_partial_isometries(seed, n, extra, r):
    # an (n + e) x n partial isometry V0 against an (n + 2e) x n one, V,
    # and against y*, the adjoint of V's row basis, whose Q is V's
    m, r = n + extra, min(r, n)
    rng = np.random.default_rng(seed)
    v0 = polar.polar_decompose(generate.fixed_rank(rng, m, n, r)).polar_factor
    y = np.linalg.qr(near_identity_op(rng, n, 0.5) @ _row_basis(v0))[0]
    v = generate.unitary(rng, m + extra)[:, :r] @ y.conj().T
    u = direct_rotation(v0, v)
    p, q = initial_projector(v0), initial_projector(v)
    assert np.linalg.norm(u - w_form_rotation(p, q)[0]) <= 1e-10
    assert np.linalg.norm(u @ p @ u.conj().T - q) <= 1e-10
    assert np.linalg.norm(direct_rotation(v0, y.conj().T) - u) <= 1e-10


def _row_basis(v):
    """Orthonormal basis of the initial space of the partial isometry V."""
    _, s, vh = np.linalg.svd(v)
    return vh[: int(np.sum(s > 0.5))].conj().T


def _near_gap_pair(seed, c):
    """Rank-2 partial isometries in C^5 whose principal cosines are c and
    cos 0.7, mixed by random unitaries on both sides."""
    rng = np.random.default_rng(seed)
    e = generate.unitary(rng, 5)
    x = e[:, [0, 2]]
    y = np.column_stack((c * e[:, 0] + np.sqrt(1.0 - c * c) * e[:, 1],
                         np.cos(0.7) * e[:, 2] + np.sin(0.7) * e[:, 3]))
    return (generate.unitary(rng, 2) @ x.conj().T,
            generate.unitary(rng, 3)[:, :2] @ y.conj().T)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("c", [1e-4, 2e-5])
def test_direct_rotation_matches_w_form_near_the_gap(seed, c):
    a, b = _near_gap_pair(seed, c)
    p, q = initial_projector(a), initial_projector(b)
    u = direct_rotation(a, b)
    oracle, gap = w_form_rotation(p, q)
    assert np.linalg.norm(u @ u.conj().T - np.eye(5)) <= 1e-12
    assert np.linalg.norm(u @ p @ u.conj().T - q) <= 1e-10
    assert np.linalg.norm(u - oracle) <= 1e-9
    assert abs(gap - np.sqrt(1.0 - c * c)) <= 1e-12     # c is the least cosine


@pytest.mark.parametrize("seed", range(5))
def test_direct_rotation_refuses_the_gap_as_the_w_form_measures_it(seed):
    # at cosine 1e-8 the gap is 1 to double precision: both forms see it
    a, b = _near_gap_pair(seed, 1e-8)
    with pytest.raises(GapTooLargeError) as info:
        direct_rotation(a, b)
    gap = w_form_rotation(initial_projector(a), initial_projector(b))[1]
    assert abs(info.value.gap - gap) <= 1e-12
    assert info.value.gap >= 1.0 - RANK_REL


@given(seeds, dims, ranks, ranks)
def test_direct_rotation_unequal_ranks_gap_is_one(seed, n, r, s):
    # nested spaces, as close as spaces of unequal ranks come
    r, s = min(r, n), min(s, n)
    if r == s:
        s = (r + 1) % (n + 1)
    x = generate.unitary(np.random.default_rng(seed), n)
    with pytest.raises(GapTooLargeError) as info:
        direct_rotation(x[:, :r].conj().T, x[:, :s].conj().T)
    assert info.value.gap == 1.0


@pytest.mark.parametrize("a, b", [
    (np.zeros((0, 4)), np.zeros((0, 4))),
    (np.zeros((3, 4)), np.zeros((0, 4))),
    (np.zeros((2, 4)), np.zeros((5, 4)))])
def test_direct_rotation_rank_zero_is_identity(a, b):
    assert np.array_equal(direct_rotation(a, b), np.eye(4))


def test_direct_rotation_space_mismatch():
    with pytest.raises(PreconditionError):
        direct_rotation(np.eye(3)[:1], np.eye(4)[:1])


def test_chart_refusal_keeps_the_gap():
    # both charts and their inverses refuse the pair at c = 1e-6, each
    # through the direct rotation, whose error is the cause and still
    # carries the gap
    p, q = (initial_projector(x) for x in _rank_one_pair(1e-6))
    refusals = (lambda: polar.trivialize_alpha(q, p, p),
                lambda: polar.trivialize_alpha_inverse(q, p, p),
                lambda: polar.trivialize_v(q, p),
                lambda: polar.trivialize_v_inverse(q, p, p))
    for refused in refusals:
        with pytest.raises(OutsideNeighborhoodError) as info:
            refused()
        cause = info.value.__cause__
        assert isinstance(cause, GapTooLargeError)
        assert 1.0 - RANK_REL <= cause.gap <= 1.0
