import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pinvlab import generate, polar
from pinvlab.codim import (
    Projector,
    direct_rotation,
    essential_codimension,
    intersection_dim,
)
from pinvlab.errors import GapTooLargeError, OutsideNeighborhoodError, PreconditionError
from pinvlab.matcore import RANK_REL

seeds = st.integers(min_value=0, max_value=10_000)
ranks = st.integers(min_value=0, max_value=4)


def random_projector(seed, n, r):
    cols = generate.unitary(np.random.default_rng(seed), n)[:, :r]
    return Projector(cols @ cols.conj().T)


def test_from_matrix_accepts_projector(rng):
    cols = generate.unitary(rng, 4)[:, :2]
    p = Projector.from_matrix(cols @ cols.conj().T)
    assert p.rank() == 2


def test_from_matrix_rejects_non_idempotent():
    with pytest.raises(PreconditionError):
        Projector.from_matrix(np.diag([2.0, 0.0]))


def test_from_matrix_rejects_non_hermitian():
    m = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(PreconditionError):
        Projector.from_matrix(m)


def test_from_matrix_rejects_rectangular():
    with pytest.raises(PreconditionError):
        Projector.from_matrix(np.zeros((2, 3)))


def test_zero_projector_rank():
    # numerically-zero projectors must report rank 0, not pick up noise
    p = Projector(np.zeros((4, 4), dtype=complex))
    assert p.rank() == 0
    assert p.basis().shape == (4, 0)
    assert p.complement_basis().shape == (4, 4)


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


@given(seeds)
def test_direct_rotation_conjugates(seed):
    rng = np.random.default_rng(seed)
    cols = generate.unitary(rng, 5)[:, :2]
    p = Projector(cols @ cols.conj().T)
    w = generate.near_identity(rng, 5, 0.2)
    qcols = np.linalg.qr(w @ cols)[0]
    q = Projector(qcols @ qcols.conj().T)
    u = direct_rotation(p, q)
    n = 5
    assert np.linalg.norm(u @ u.conj().T - np.eye(n)) < 1e-9
    assert np.linalg.norm(u @ p.matrix @ u.conj().T - q.matrix) < 1e-9


def test_direct_rotation_identity_case():
    p = random_projector(3, 4, 2)
    u = direct_rotation(p, p)
    assert np.linalg.norm(u - np.eye(4)) < 1e-10


def _rank_one_pair(c):
    """P = xx*, Q = yy* in C^2 for x = e1, y = (c, (1 - c^2)^{1/2}): cos theta = c."""
    x = np.array([1.0, 0.0], dtype=complex)
    y = np.array([c, np.sqrt(1.0 - c * c)], dtype=complex)
    return Projector(np.outer(x, x.conj())), Projector(np.outer(y, y.conj()))


@pytest.mark.parametrize("c", [1e-4, 2e-5])
def test_direct_rotation_is_accurate_near_the_gap(c):
    # the polar factor of W from its SVD stays unitary to roundoff; an
    # inverse square root of I - (P - Q)^2 amplifies its error by 1/c^2
    p, q = _rank_one_pair(c)
    u = direct_rotation(p, q)
    assert np.linalg.norm(u @ u.conj().T - np.eye(2)) <= 1e-12
    assert np.linalg.norm(u @ p.matrix @ u.conj().T - q.matrix) <= 1e-10


@pytest.mark.parametrize("c", [0.0, 1e-6])
def test_direct_rotation_gap_one_fails(c):
    # ||P - Q|| = (1 - c^2)^{1/2} >= 1 - RANK_REL at c = 1e-6; the error
    # carries that gap
    with pytest.raises(GapTooLargeError) as info:
        direct_rotation(*_rank_one_pair(c))
    assert 1.0 - RANK_REL <= info.value.gap <= 1.0
    assert abs(info.value.gap - np.sqrt(1.0 - c * c)) <= 1e-12


def test_chart_refusal_keeps_the_gap():
    # both charts and their inverses refuse the pair at c = 1e-6, each
    # through the direct rotation, whose error is the cause and still
    # carries the gap
    p, q = (x.matrix for x in _rank_one_pair(1e-6))
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
