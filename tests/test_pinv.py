import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pinvlab import generate
from pinvlab.errors import PreconditionError
from pinvlab.matcore import FROBENIUS_NORM, OP_NORM, TRACE_NORM, svd
from pinvlab.pinv import (
    lipschitz_constant,
    moore_penrose,
    same_rank_bound,
    wedin_residual,
    wedin_terms,
)

seeds = st.integers(min_value=0, max_value=10_000)


@given(seeds, st.integers(min_value=0, max_value=4))
def test_penrose_axioms(seed, r):
    a = generate.fixed_rank(np.random.default_rng(seed), 5, 4, r)
    x = moore_penrose(a).pinv
    assert np.linalg.norm(a @ x @ a - a) < 1e-9
    assert np.linalg.norm(x @ a @ x - x) < 1e-9
    assert np.linalg.norm(a @ x - (a @ x).conj().T) < 1e-9
    assert np.linalg.norm(x @ a - (x @ a).conj().T) < 1e-9


@given(seeds)
def test_gamma_is_reciprocal_pinv_norm(seed):
    a = generate.fixed_rank(np.random.default_rng(seed), 5, 4, 3)
    res = moore_penrose(a)
    assert res.gamma == pytest.approx(1.0 / np.linalg.norm(res.pinv, 2))
    s = np.linalg.svd(a, compute_uv=False)
    assert res.gamma == pytest.approx(s[2])


def test_zero_matrix():
    res = moore_penrose(np.zeros((3, 2)))
    assert res.rank == 0
    assert res.gamma == 0.0
    assert np.array_equal(res.pinv, np.zeros((2, 3)))
    u_r, v_n = res.range_basis, res.null_basis
    assert np.linalg.norm(u_r @ u_r.conj().T) == 0.0
    assert np.linalg.norm(v_n @ v_n.conj().T - np.eye(2)) == 0.0


@given(seeds)
def test_projectors(seed):
    a = generate.fixed_rank(np.random.default_rng(seed), 5, 4, 2)
    res = moore_penrose(a)
    # the range and null projectors, built from the bases
    u_r, v_n = res.range_basis, res.null_basis
    p, q = u_r @ u_r.conj().T, v_n @ v_n.conj().T
    assert np.linalg.norm(p @ p - p) < 1e-10
    assert np.linalg.norm(q @ q - q) < 1e-10
    assert np.linalg.norm(p @ a - a) < 1e-9
    assert np.linalg.norm(a @ q) < 1e-9


@given(seeds, st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
def test_wedin_identity_random_pairs(seed, ra, rb):
    rng = np.random.default_rng(seed)
    a = generate.fixed_rank(rng, 5, 4, ra)
    b = generate.fixed_rank(rng, 5, 4, rb)
    scale = 1.0
    for m in (a, b):
        res = moore_penrose(m)
        scale += 1.0 / res.gamma if res.rank else 0.0
    for g in (OP_NORM, TRACE_NORM, FROBENIUS_NORM):
        assert wedin_residual(a, b, g) <= 1e-8 * scale


@pytest.mark.parametrize("seed", range(4))
def test_wedin_identity_at_small_gamma(seed):
    # sigma = (1, 0.5, 1e-5): Gram pseudoinverses taken by their own SVDs
    # drop sigma_r^2 = 1e-10 and leave a residual of the size of A^+ - B^+
    rng = np.random.default_rng(seed)
    u, w = generate.unitary(rng, 6), generate.unitary(rng, 6)
    a = (u[:, :3] * np.array([1.0, 0.5, 1e-5])) @ w[:, :3].conj().T
    x, y = generate.ginibre(rng, 6, 6), generate.ginibre(rng, 6, 6)
    b = (np.eye(6) + 1e-3 * x) @ a @ (np.eye(6) - 1e-3 * y)
    gap = np.linalg.norm(moore_penrose(a).pinv - moore_penrose(b).pinv, 2)
    assert wedin_residual(a, b, OP_NORM) <= 1e-5 * gap


def test_wedin_shape_mismatch():
    with pytest.raises(PreconditionError):
        wedin_residual(np.eye(2), np.eye(3), OP_NORM)


@pytest.mark.parametrize("x_shape", [(4, 5), (5, 3), (1, 4)])
def test_wedin_terms_refuses_a_misfit_x(x_shape):
    a = generate.fixed_rank(np.random.default_rng(0), 5, 4, 2)
    with pytest.raises(PreconditionError):
        wedin_terms(svd(a), a, np.ones(x_shape))


def test_same_rank_bound_tight_case():
    report = same_rank_bound(np.eye(2), np.diag([1.0, 0.5]))
    assert report.hypothesis_met
    assert report.actual == pytest.approx(2.0, abs=1e-12)
    assert report.bound == pytest.approx(2.0, abs=1e-12)


@given(seeds)
def test_same_rank_bound_holds(seed):
    rng = np.random.default_rng(seed)
    a = generate.fixed_rank(rng, 5, 5, 3)
    gamma = moore_penrose(a).gamma
    b = generate.rank_preserving_perturbation(rng, a, 0.05 * gamma)
    report = same_rank_bound(a, b)
    if report.hypothesis_met:
        assert report.actual <= report.bound * (1 + 1e-9)


def test_bound_hypothesis_not_met_on_rank_change(rng):
    a = generate.fixed_rank(rng, 4, 4, 2)
    b = generate.fixed_rank(rng, 4, 4, 3)
    assert not same_rank_bound(a, b).hypothesis_met


def test_bound_infinite_outside_radius():
    a = np.diag([1.0, 1.0])
    b = np.diag([5.0, 5.0])
    report = same_rank_bound(a, b)
    assert not report.hypothesis_met
    assert report.bound == np.inf


def test_lipschitz_constant_value():
    # ||A|| = 2, ||A^+|| = 1: (2 + 1/2)^2 + 8 = 14.25
    assert lipschitz_constant(np.diag([2.0, 1.0])) == pytest.approx(14.25)


def test_lipschitz_constant_rejects_zero():
    with pytest.raises(PreconditionError):
        lipschitz_constant(np.zeros((2, 2)))


@given(seeds)
def test_lipschitz_inequality(seed):
    rng = np.random.default_rng(seed)
    a = generate.fixed_rank(rng, 5, 5, 3)
    res = moore_penrose(a)
    radius = 0.5 * res.gamma
    lip = lipschitz_constant(a)
    b1 = generate.rank_preserving_perturbation(rng, a, 0.01 * radius)
    b2 = generate.rank_preserving_perturbation(rng, a, 0.01 * radius)
    for g in (OP_NORM, TRACE_NORM, FROBENIUS_NORM):
        lhs = g.of_singular_values(
            np.linalg.svd(svd(b2).pinv - svd(b1).pinv, compute_uv=False))
        rhs = lip * g.of_singular_values(
            np.linalg.svd(b2 - b1, compute_uv=False))
        assert lhs <= rhs * (1 + 1e-9)
