import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pinvlab import generate, monotone
from pinvlab.errors import (
    OutsideNeighborhoodError,
    PreconditionError,
)
from pinvlab.matcore import OP_NORM, gauge_norm

seeds = st.integers(min_value=0, max_value=10_000)

SQRT = monotone.make_sqrt()


def test_sqrt_scalar_values():
    for lam in (0.0, 0.25, 1.0, 4.0, 100.0):
        assert abs(monotone.scalar_eval(SQRT, lam) - math.sqrt(lam)) <= 1e-8


def test_sqrt_f0_is_zero():
    assert abs(SQRT.f0) <= 1e-8


def test_scalar_eval_rejects_negative():
    with pytest.raises(PreconditionError):
        monotone.scalar_eval(SQRT, -1.0)


def test_atomic_cayley_like():
    # alpha = 1/2 with a unit atom at t = 1 gives lambda/(1+lambda)
    f = monotone.make_atomic(0.5, 0.0, [(1.0, 1.0)])
    for lam in (0.0, 0.5, 1.0, 3.0, 10.0):
        assert monotone.scalar_eval(f, lam) == pytest.approx(lam / (1 + lam))


def test_atomic_identity_and_constant():
    ident = monotone.make_atomic(0.0, 1.0, [])
    const = monotone.make_atomic(2.5, 0.0, [])
    for lam in (0.0, 1.0, 7.0):
        assert monotone.scalar_eval(ident, lam) == pytest.approx(lam)
        assert monotone.scalar_eval(const, lam) == pytest.approx(2.5)


def test_make_atomic_validation():
    with pytest.raises(PreconditionError):
        monotone.make_atomic(0.0, -1.0, [])
    with pytest.raises(PreconditionError):
        monotone.make_atomic(0.0, 0.0, [(-1.0, 1.0)])
    with pytest.raises(PreconditionError):
        monotone.make_atomic(0.0, 0.0, [(1.0, -1.0)])


def test_json_round_trip():
    f = monotone.make_atomic(0.25, 0.5, [(1.0, 2.0), (3.0, 0.5)])
    back = monotone.monotone_from_json(monotone.monotone_to_json(f))
    assert back.alpha == f.alpha and back.beta == f.beta
    assert back.atoms == f.atoms
    g = monotone.monotone_from_json(monotone.monotone_to_json(SQRT))
    assert g.density == "sqrt"
    with pytest.raises(PreconditionError):
        monotone.monotone_from_json({"alpha": 0.0})


def test_measure_mass_sqrt_closed_form():
    # the sqrt density integrates to (2/3pi) b^{3/2} on [0, b)
    assert monotone.measure_mass(SQRT, 0.0, 1.0) == pytest.approx(2 / (3 * math.pi))
    got = monotone.measure_mass(SQRT, 1.0, 4.0)
    assert got == pytest.approx((2 / (3 * math.pi)) * 7.0)


def test_measure_mass_atomic():
    f = monotone.make_atomic(0.0, 0.0, [(1.0, 2.0), (3.0, 0.5)])
    assert monotone.measure_mass(f, 0.5, 2.0) == 2.0
    assert monotone.measure_mass(f, 0.0, 10.0) == 2.5


def test_spectral_diagonal_example():
    out = monotone.matrix_eval_spectral(SQRT, np.diag([4.0, 0.0]))
    assert np.linalg.norm(out - np.diag([2.0, 0.0])) < 1e-8


@given(seeds)
def test_spectral_square_back(seed):
    rng = np.random.default_rng(seed)
    b = generate.ginibre(rng, 4, 4)
    c = b.conj().T @ b
    root = monotone.matrix_eval_spectral(SQRT, c)
    assert np.linalg.norm(root @ root - c) < 1e-7 * (1 + np.linalg.norm(c))


def test_spectral_identity_function(rng):
    ident = monotone.make_atomic(0.0, 1.0, [])
    c = generate.psd_fixed_rank(rng, 4, 3)
    assert np.linalg.norm(monotone.matrix_eval_spectral(ident, c) - c) < 1e-10


def test_spectral_rejects_negative_spectrum(rng):
    with pytest.raises(PreconditionError):
        monotone.matrix_eval_spectral(SQRT, np.diag([1.0, -1.0]))


def test_integral_identity_matrix():
    out = monotone.matrix_eval_integral(SQRT, np.eye(3))
    assert np.linalg.norm(out - np.eye(3)) < 1e-8


def test_integral_diagonal():
    out = monotone.matrix_eval_integral(SQRT, np.diag([4.0, 1.0]))
    assert np.linalg.norm(out - np.diag([2.0, 1.0])) < 1e-7


def test_integral_zero_matrix():
    out = monotone.matrix_eval_integral(SQRT, np.zeros((3, 3)))
    assert np.linalg.norm(out - SQRT.f0 * np.eye(3)) < 1e-10


@given(seeds, st.integers(min_value=1, max_value=4))
def test_oracle_equivalence(seed, r):
    c = generate.psd_fixed_rank(np.random.default_rng(seed), 4, r)
    spec = monotone.matrix_eval_spectral(SQRT, c)
    intg = monotone.matrix_eval_integral(SQRT, c)
    assert np.linalg.norm(spec - intg) <= 1e-7 * (1 + np.linalg.norm(spec))


@given(seeds)
def test_unitary_equivariance(seed):
    rng = np.random.default_rng(seed)
    c = generate.psd_fixed_rank(rng, 4, 3)
    u = generate.unitary(rng, 4)
    lhs = monotone.matrix_eval_spectral(SQRT, u @ c @ u.conj().T)
    rhs = u @ monotone.matrix_eval_spectral(SQRT, c) @ u.conj().T
    assert np.linalg.norm(lhs - rhs) < 1e-9 * (1 + np.linalg.norm(rhs))


@given(seeds)
def test_monotonicity_spot_check(seed):
    rng = np.random.default_rng(seed)
    c = generate.positive_definite(rng, 4)
    d = c + generate.psd_fixed_rank(rng, 4, 2)
    diff = monotone.matrix_eval_spectral(SQRT, d) - monotone.matrix_eval_spectral(SQRT, c)
    assert np.linalg.eigvalsh(diff)[0] >= -1e-8


def test_taylor_first_term_at_identity(rng):
    delta = generate.hermitian(rng, 4, 0.3)
    t1 = monotone.taylor_term(SQRT, np.eye(4), delta, 1)
    assert np.linalg.norm(t1 - delta / 2) <= 1e-8


def test_taylor_zero_delta(rng):
    c = generate.positive_definite(rng, 3)
    for n in (1, 2, 3):
        assert np.linalg.norm(monotone.taylor_term(SQRT, c, np.zeros((3, 3)), n)) < 1e-12


def test_taylor_atomic_scalar_example():
    # single atom at t0 = 1, C = I, Delta = eps I: second term -eps^2/8 I
    f = monotone.make_atomic(0.5, 0.0, [(1.0, 1.0)])
    eps = 0.1
    t2 = monotone.taylor_term(f, np.eye(3), eps * np.eye(3), 2)
    assert np.linalg.norm(t2 - (-(eps**2) / 8) * np.eye(3)) < 1e-12


def _inv_resolvents(t, c):
    """Stacked (t_i I + C)^{-1} by explicit inversion: the matrix-resolvent oracle."""
    return np.linalg.inv(np.multiply.outer(t, np.eye(len(c))) + c)


ATOMIC = monotone.make_atomic(0.25, 0.5, [(0.5, 0.4), (3.0, 1.0)])


@pytest.mark.parametrize("f", [SQRT, ATOMIC])
def test_taylor_term_matches_resolvent_products(rng, f):
    c = generate.positive_definite(rng, 4)
    delta = generate.hermitian(rng, 4, 0.2)
    for n in (1, 2, 3):
        def fn(t):
            r = _inv_resolvents(t, c)
            return np.linalg.matrix_power(r @ delta, n) @ r
        expected = (-1.0) ** (n + 1) * monotone.measure_integral(f, fn)
        if n == 1:
            expected = expected + f.beta * delta
        term = monotone.taylor_term(f, c, delta, n)
        assert np.linalg.norm(term - expected) <= 1e-10 * np.linalg.norm(expected)


def test_riemann_matches_resolvent_products(rng):
    # R_p = Σ m_i (t_i I + C)^{-1} (D - C) (t_i I + D)^{-1}, t_i the right endpoints
    c = generate.positive_definite(rng, 4)
    d = generate.positive_definite(rng, 4)
    p, t_max = 3, 64.0
    report = monotone.riemann_sum(SQRT, c, d, p, t_max)

    def h(t):
        return _inv_resolvents(t, c) @ (d - c) @ _inv_resolvents(t, d)
    width = 2.0**-p
    rights = width * np.arange(1, int(t_max / width) + 1)
    masses = [monotone.measure_mass(SQRT, b - width, min(b, t_max)) for b in rights]
    value = np.einsum("m,mij->ij", masses, h(rights))
    reference = monotone.measure_integral(SQRT, h, t_max=t_max)
    assert np.linalg.norm(report.value - value) <= 1e-10 * np.linalg.norm(value)
    gap = np.linalg.norm(report.reference - reference)
    assert gap <= 1e-10 * np.linalg.norm(reference)


def test_scalar_eval_vectorized():
    lams = np.array([0.0, 0.25, 1.0, 4.0, 100.0])
    vals = monotone.scalar_eval(SQRT, lams)
    assert vals.shape == lams.shape and vals[0] == SQRT.f0
    assert np.all(np.abs(vals - np.sqrt(lams)) <= 1e-8)
    assert isinstance(monotone.scalar_eval(SQRT, 4.0), float)
    with pytest.raises(PreconditionError):
        monotone.scalar_eval(SQRT, np.array([1.0, -1.0]))


def test_taylor_term_validation(rng):
    c = generate.positive_definite(rng, 3)
    delta = generate.hermitian(rng, 3)
    with pytest.raises(PreconditionError):
        monotone.taylor_term(SQRT, c, delta, 0)
    with pytest.raises(PreconditionError):
        monotone.taylor_term(SQRT, np.diag([1.0, 0.0, 1.0]), delta, 1)
    with pytest.raises(PreconditionError):
        monotone.taylor_term(SQRT, c, generate.ginibre(rng, 3, 3), 1)


def test_remainder_bound_values():
    # sqrt at C = I: the n = 1 coefficient is exactly 1/2
    delta = np.diag([0.1, -0.1])
    bound = monotone.taylor_remainder_bound(SQRT, np.eye(2), delta, 1)
    assert bound == pytest.approx(0.05, rel=1e-8)
    f = monotone.make_atomic(0.5, 0.0, [(1.0, 1.0)])
    bound2 = monotone.taylor_remainder_bound(f, np.eye(2), np.diag([0.5, 0.0]), 2)
    assert bound2 == pytest.approx(0.03125)


def test_remainder_bound_zero_delta(rng):
    c = generate.positive_definite(rng, 3)
    for n in (1, 2, 5):
        assert monotone.taylor_remainder_bound(SQRT, c, np.zeros((3, 3)), n) == 0.0


def test_remainder_bound_radius_error():
    with pytest.raises(OutsideNeighborhoodError):
        monotone.taylor_remainder_bound(SQRT, np.eye(2), np.diag([1.5, 0.0]), 1)


@given(seeds)
def test_terms_below_bounds_and_series_tail(seed):
    rng = np.random.default_rng(seed)
    c = generate.positive_definite(rng, 3)
    gamma = float(np.linalg.eigvalsh(c)[0])
    delta = generate.hermitian(rng, 3)
    delta *= 0.3 * gamma / np.linalg.norm(delta, 2)
    dist = float(np.linalg.norm(delta, 2))
    target = monotone.matrix_eval_spectral(SQRT, c + delta)
    partial = monotone.matrix_eval_spectral(SQRT, c)
    tail_coeff = float(monotone.measure_integral(SQRT, lambda t: (t + gamma) ** -2.0))
    q = dist / gamma
    for m in range(1, 7):
        term = monotone.taylor_term(SQRT, c, delta, m)
        bound = monotone.taylor_remainder_bound(SQRT, c, delta, m)
        assert np.linalg.norm(term, 2) <= bound * (1 + 1e-6)
        partial = partial + term
        tail = tail_coeff * q**m * dist / (1 - q)
        assert np.linalg.norm(target - partial, 2) <= tail * (1 + 1e-6)


def test_perturbation_bound_equal_inputs(rng):
    c = generate.positive_definite(rng, 3)
    report = monotone.perturbation_bound(SQRT, c, c)
    assert report.hypothesis_met
    assert report.actual <= 1e-10


def test_perturbation_bound_identity_function(rng):
    ident = monotone.make_atomic(0.0, 1.0, [])
    c = generate.positive_definite(rng, 3)
    d = generate.positive_definite(rng, 3)
    report = monotone.perturbation_bound(ident, c, d)
    assert report.actual == pytest.approx(report.bound)


@given(seeds)
def test_perturbation_bound_holds(seed):
    rng = np.random.default_rng(seed)
    c = generate.positive_definite(rng, 3)
    d = generate.positive_definite(rng, 3)
    for f in (SQRT, monotone.make_atomic(0.5, 0.0, [(1.0, 1.0)])):
        report = monotone.perturbation_bound(f, c, d)
        assert report.actual <= report.bound * (1 + 1e-6)


def test_perturbation_bound_rejects_singular(rng):
    c = generate.psd_fixed_rank(rng, 3, 2)
    d = generate.positive_definite(rng, 3)
    with pytest.raises(PreconditionError):
        monotone.perturbation_bound(SQRT, c, d)


def test_riemann_equal_inputs(rng):
    c = generate.positive_definite(rng, 3)
    report = monotone.riemann_sum(SQRT, c, c, 4, 32.0)
    assert report.gap_gauge == 0.0
    assert np.linalg.norm(report.value) == 0.0


@given(seeds)
def test_riemann_gap_below_bound(seed):
    rng = np.random.default_rng(seed)
    c = generate.positive_definite(rng, 3)
    d = generate.positive_definite(rng, 3)
    for p in (4, 7):
        report = monotone.riemann_sum(SQRT, c, d, p, 64.0)
        assert report.gap_gauge <= report.bound * (1 + 1e-6)
        assert report.eta >= 1.0


def test_riemann_scalar_oracle():
    report = monotone.riemann_sum(
        SQRT, np.array([[1.0]]), np.array([[2.0]]), 6, 64.0)
    width = 2.0**-6
    acc = 0.0
    for m in range(1, int(64.0 / width) + 1):
        a, b = (m - 1) * width, m * width
        mass = (2 / (3 * math.pi)) * (b**1.5 - a**1.5)
        t = m * width
        acc += mass / ((t + 1.0) * (t + 2.0))
    assert abs(report.value[0, 0] - acc) <= 1e-10


def test_riemann_decay_slope(rng):
    c = generate.positive_definite(rng, 3)
    d = generate.positive_definite(rng, 3)
    slope = monotone.riemann_decay_slope(SQRT, c, d, range(4, 11), 64.0)
    assert -1.2 <= slope <= -0.8


def test_riemann_truncation_error(rng):
    c = generate.positive_definite(rng, 2)
    d = 2.0 * c
    with pytest.raises(PreconditionError):
        monotone.riemann_sum(SQRT, c, d, 4, 0.5)


def test_continuity_in_stratum_scalar_families():
    c = np.diag([1.0, 0.0])
    in_seq = [np.diag([1.0 + 1.0 / n, 0.0]) for n in range(1, 9)]
    report = monotone.continuity_in_stratum(SQRT, c, in_seq)
    assert report.indices_zero
    # final member is diag(1 + 1/8, 0): gap sqrt(9/8) - 1
    assert report.final_gap == pytest.approx(math.sqrt(1.125) - 1, rel=1e-8)
    jump_seq = [np.diag([1.0, 1.0 / n]) for n in range(1, 9)]
    report = monotone.continuity_in_stratum(SQRT, c, jump_seq)
    assert not report.indices_zero
    assert report.final_gap == pytest.approx(math.sqrt(1.0 / 8), rel=1e-8)


def test_continuity_in_stratum_constant_sequence(rng):
    c = generate.psd_fixed_rank(rng, 3, 2)
    report = monotone.continuity_in_stratum(SQRT, c, [c, c, c])
    assert report.final_gap <= 1e-10
    assert report.indices_zero
