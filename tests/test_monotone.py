import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pinvlab import generate, monotone
from pinvlab.errors import (
    ConvergenceError,
    OutsideNeighborhoodError,
    PreconditionError,
)
from pinvlab.matcore import (
    OP_NORM, RANK_REL, RIEMANN_MAX_CELLS, RIEMANN_TAIL_REL, GaugeNorm, gauge_norm, psd_eigh,
)

seeds = st.integers(min_value=0, max_value=10_000)

SQRT = monotone.make_sqrt()


def test_sqrt_scalar_values():
    for lam in (0.0, 0.25, 1.0, 4.0, 100.0):
        assert abs(monotone.scalar_eval(SQRT, lam) - math.sqrt(lam)) <= 1e-8


def test_sqrt_f0_is_zero():
    # read off the closed form, not the quadrature (which stored 6.7e-16)
    assert SQRT.f0 == 0.0


def test_scalar_eval_rejects_negative():
    with pytest.raises(PreconditionError):
        monotone.scalar_eval(SQRT, -1.0)


@pytest.mark.parametrize("lam", [math.nan, [1.0, math.nan]])
def test_scalar_eval_rejects_nan(lam):
    # NaN fails the sign check, so it is refused before any quadrature
    # (it ran to the refinement cap and a ConvergenceError)
    with pytest.raises(PreconditionError):
        monotone.scalar_eval(SQRT, lam)


@pytest.mark.parametrize("f", [SQRT, monotone.make_atomic(0.5, 0.0, [(1.0, 1.0)])],
                         ids=["sqrt", "atomic"])
@pytest.mark.parametrize("lam", [math.inf, [1.0, math.inf]])
def test_scalar_eval_refuses_infinity(f, lam):
    # refused before any evaluation, with no warning: the sqrt quadrature
    # ran to its refinement cap and a ConvergenceError, the atoms gave NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="finite and nonnegative"):
            monotone.scalar_eval(f, lam)


def test_sqrt_density_is_admissible_and_monotone():
    # the representation data make_sqrt builds without checking it:
    # ∫ dν/(1+t²) = ∫ √t/(π(1+t²)) dt = 1/√2, and f nondecreasing
    mass = monotone.measure_integral(SQRT, lambda t: 1.0 / (t * t + 1.0))
    assert mass == pytest.approx(1 / math.sqrt(2), rel=1e-12)
    vals = monotone.scalar_eval(monotone.make_sqrt(), np.linspace(0.0, 100.0, 41))
    assert np.all(np.diff(vals) >= 0)


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


@pytest.mark.parametrize("alpha, beta", [("x", 0.0), (None, 0.0), (0.0, "1")])
def test_make_atomic_refuses_alpha_beta_that_are_no_numbers(alpha, beta):
    # a typed refusal, not the TypeError of comparing a string or None
    with pytest.raises(PreconditionError, match="alpha and beta must be real numbers"):
        monotone.make_atomic(alpha, beta, [])


@pytest.mark.parametrize("alpha, beta", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0),
                                         (-math.inf, 0.0), (0.0, math.inf)])
def test_non_finite_alpha_beta_are_refused(alpha, beta):
    # refused before any evaluation, so no numpy warning is raised; the JSON
    # route reads the NaN and Infinity literals, and the sqrt density takes
    # only its own finite alpha and beta
    text = json.dumps({"alpha": alpha, "beta": beta, "atoms": [[1.0, 1.0]]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="need finite alpha and finite beta"):
            monotone.make_atomic(alpha, beta, [(1.0, 1.0)])
        with pytest.raises(PreconditionError, match="need finite alpha and finite beta"):
            monotone.monotone_from_json(json.loads(text))
        with pytest.raises(PreconditionError, match="sqrt density requires"):
            monotone.monotone_from_json({"alpha": alpha, "beta": beta, "density": "sqrt"})


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


@pytest.mark.parametrize("a, b", [(math.nan, 1.0), (0.0, math.nan),
                                  ([0.0, math.nan], [1.0, 2.0])])
def test_measure_mass_rejects_nan(a, b):
    # NaN fails the check 0 <= a <= b: no NaN mass is returned
    for f in (SQRT, monotone.make_atomic(0.0, 0.0, [(1.0, 2.0)])):
        with pytest.raises(PreconditionError):
            monotone.measure_mass(f, a, b)


def test_measure_mass_atomic():
    f = monotone.make_atomic(0.0, 0.0, [(1.0, 2.0), (3.0, 0.5)])
    assert monotone.measure_mass(f, 0.5, 2.0) == 2.0
    assert monotone.measure_mass(f, 0.0, 10.0) == 2.5


def test_measure_mass_vectorized():
    # the Riemann cells of [0, t_max), against the per-cell loop the array
    # form replaced; the sums run in another order, so a tolerance of a
    # few ulps of the total mass
    width, t_max = 2.0**-5, 7.9
    lefts = width * np.arange(int(math.ceil(t_max / width)))
    rights = np.minimum(lefts + width, t_max)
    atoms = [(3.0, 0.5), (1.0, 2.0), (0.5, 0.25), (7.9, 4.0), (0.5, 0.125)]
    f = monotone.make_atomic(0.0, 0.0, atoms)
    loops = {
        SQRT: [(2 / (3 * math.pi)) * (b**1.5 - a**1.5) for a, b in zip(lefts, rights)],
        f: [sum(w for t, w in atoms if a <= t < b) for a, b in zip(lefts, rights)],
    }
    for g, expected in loops.items():
        masses = monotone.measure_mass(g, lefts, rights)
        assert masses.shape == lefts.shape
        atol = 8 * np.finfo(float).eps * monotone.measure_mass(g, 0.0, t_max + 1.0)
        assert np.allclose(masses, expected, rtol=0.0, atol=atol)
    # [a, b) takes an atom at a and not one at b
    assert monotone.measure_mass(f, 0.5, 1.0) == 0.375
    assert monotone.measure_mass(f, 1.0, 7.9) == 2.5
    assert monotone.measure_mass(monotone.make_atomic(1.0, 0.0, []), 0.0, 5.0) == 0.0
    with pytest.raises(PreconditionError):
        monotone.measure_mass(SQRT, np.array([0.0, 2.0]), np.array([1.0, 1.0]))


@pytest.mark.parametrize("lam", [1e-12, 1e-6, 1.0, 1e6, 1e8, 1e12])
def test_sqrt_scalar_relative_accuracy_across_scales(lam):
    assert monotone.scalar_eval(SQRT, lam) == pytest.approx(math.sqrt(lam), rel=1e-8)


@pytest.mark.parametrize("lam", [1e-20, 1e20])
def test_sqrt_scalar_far_out_is_accurate_or_raises(lam):
    try:
        value = monotone.scalar_eval(SQRT, lam)
    except ConvergenceError:
        return
    assert value == pytest.approx(math.sqrt(lam), rel=1e-8)


def test_scalar_eval_rejects_values_below_rounding():
    # lambda/(1+lambda) = 1/2 - (1/(1+lambda) - 1/2): at 1e-20 the rounding
    # of the two halves is 1e-16, four orders above the value
    f = monotone.make_atomic(0.5, 0.0, [(1.0, 1.0)])
    with pytest.raises(ConvergenceError):
        monotone.scalar_eval(f, 1e-20)
    # an array is judged by its largest value, as a matrix norm would be,
    # and lambda = 0 takes the stored f(0)
    vals = monotone.scalar_eval(f, np.array([0.0, 1e-20, 1.0]))
    assert vals[0] == f.f0 and vals[2] == pytest.approx(0.5)


def test_quadrature_of_zero_integrand_is_zero():
    # a zero allowance must still accept two equal levels
    assert monotone.measure_integral(SQRT, lambda t: np.zeros((len(t), 2))).tolist() == [0.0, 0.0]


def test_quadrature_closed_forms_hold_relatively():
    # ∫ (t+γ)^{-(n+1)} sqrt(t)/pi dt = γ^{1/2-n} Γ(3/2) Γ(n-1/2) / (π n!): values
    # down to 1e-40 keep their relative accuracy
    for gamma in (1e-6, 1e-2, 1.0, 30.0, 1e6):
        for n in (1, 3, 6):
            exact = (gamma ** (0.5 - n) * math.gamma(1.5) * math.gamma(n - 0.5)
                     / (math.pi * math.factorial(n)))
            got = float(monotone.measure_integral(SQRT, lambda t: (t + gamma) ** (-(n + 1))))
            assert got == pytest.approx(exact, rel=1e-12)
    # ∫_0^T sqrt(t)/pi dt = (2/3pi) T^{3/2}, by the truncated rule
    for t_max in (1e-4, 1.0, 64.0, 1e6):
        got = float(monotone.measure_integral(SQRT, np.ones_like, t_max=t_max))
        assert got == pytest.approx(monotone.measure_mass(SQRT, 0.0, t_max), rel=1e-12)


def test_quadrature_refuses_a_truncated_integral():
    # the x-integrand of this fn is 1 across the window of t = exp(pi/2 sinh x):
    # every level agrees, and only the end terms show that the integral
    # (which diverges) does not fit in the window
    def flat(t):
        y = 2.0 * np.log(t) / math.pi
        return 2.0 / (t**1.5 * np.sqrt(1.0 + y * y))
    with pytest.raises(ConvergenceError, match="end term"):
        monotone.measure_integral(SQRT, flat)


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


@pytest.mark.parametrize("s", [1e-6, 1.0, 1e6, 1e12])
def test_integral_route_matches_spectral_across_scales(rng, s):
    c = s * generate.positive_definite(rng, 5)
    spec = monotone.matrix_eval_spectral(SQRT, c)
    intg = monotone.matrix_eval_integral(SQRT, c)
    assert np.linalg.norm(intg - spec) <= 1e-9 * np.linalg.norm(spec)


def test_integral_route_memory_is_bounded():
    # fn sees 64 nodes at a time: a (64, d, d) stack, not (nodes, d, d)
    c = generate.positive_definite(np.random.default_rng(0), 32)
    monotone.matrix_eval_integral(SQRT, c)
    tracemalloc.start()
    try:
        monotone.matrix_eval_integral(SQRT, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def _routes_agree(seed, d, r, s):
    c = s * generate.psd_fixed_rank(np.random.default_rng(seed), d, r)
    spec = monotone.matrix_eval_spectral(SQRT, c)
    intg = monotone.matrix_eval_integral(SQRT, c)
    assert np.linalg.norm(intg - spec) <= 1e-9 * np.linalg.norm(spec)


@given(seeds, st.integers(min_value=1, max_value=8), st.data(),
       st.sampled_from([1e-9, 1e-6, 1.0, 1e6, 1e12]))
def test_oracle_equivalence(seed, d, data, s):
    # at every rank: through the tridiagonal form of C, or of C + w_max P_N
    _routes_agree(seed, d, data.draw(st.integers(min_value=0, max_value=d)), s)


@pytest.mark.xfail(strict=True, reason=(
    "only the integral route still evaluates f(λ) = α + βλ − ∫ dν, whose "
    "quadrature error is absolute: at eigenvalues near 1e-12 it is up to "
    "3e-8 from √C, which the spectral route gives in closed form (2.6e-8 "
    "relative here; 24 of 600 random C at s ∈ {1e-9, 1e-12})"))
def test_integral_route_matches_spectral_near_1e_12():
    _routes_agree(0, 1, 1, 1e-12)


@pytest.mark.parametrize("s", [1e-12, 1e-9, 1e-6, 1.0, 1e6, 1e12])
def test_spectral_sqrt_matches_the_eigh_root(s):
    # the closed form √λ on psd_eigh's eigenvalues, against a root built
    # here from numpy's eigh with the same rank cutoff, at every rank
    rng = np.random.default_rng(7)
    for d in range(1, 9):
        for r in range(d + 1):
            c = s * generate.psd_fixed_rank(rng, d, r)
            w, q = np.linalg.eigh(c)
            w = np.where(w > RANK_REL * d * np.max(np.abs(w)), w, 0.0)
            root = (q * np.sqrt(w)) @ q.conj().T
            out = monotone.matrix_eval_spectral(SQRT, c)
            assert np.linalg.norm(out - root) <= 1e-13 * np.linalg.norm(root)


@pytest.mark.parametrize("f", [SQRT, monotone.MonotoneFunction(2.0, 0.5, density="sqrt")],
                         ids=["sqrt", "shifted"])
def test_scalar_eval_matches_the_closed_form(f):
    # the quadrature against α + βλ − (1/√2 − √λ), as an array and one by one
    lam = np.logspace(-10, 10, 201)
    exact = (f.alpha - 1.0 / math.sqrt(2.0)) + f.beta * lam + np.sqrt(lam)
    assert np.all(np.abs(monotone.scalar_eval(f, lam) - exact) <= 1e-10 * exact)
    for x, y in zip(lam[::20], exact[::20]):
        assert monotone.scalar_eval(f, float(x)) == pytest.approx(y, rel=1e-10)


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
    [t1] = monotone.taylor_terms(SQRT, np.eye(4), delta, 1)
    assert np.linalg.norm(t1 - delta / 2) <= 1e-8


@pytest.mark.parametrize("s", [1e-12, 1.0, 1e12])
def test_taylor_delta_check_is_scale_free(rng, s):
    # Delta = s (H + 1e-3 i K) is refused, and s H accepted, at every scale
    c = generate.positive_definite(rng, 4)
    h, k = generate.hermitian(rng, 4), generate.hermitian(rng, 4)
    with pytest.raises(PreconditionError, match="Delta is not Hermitian"):
        monotone.taylor_terms(SQRT, s * c, s * (h + 1e-3j * k), 1)
    assert np.linalg.norm(monotone.taylor_terms(SQRT, s * c, s * h, 1)[0]) > 0


def test_taylor_bounds_refuse_a_non_hermitian_delta(rng, monkeypatch):
    # Delta = 0.01 e1 e2* has no expansion around C: both bounds refuse it
    # before any factorization, and on Hermitian Delta the check moves no bit
    c = generate.positive_definite(rng, 3)
    skew = np.zeros((3, 3))
    skew[0, 1] = 0.01
    delta = generate.hermitian(rng, 3, 0.05)

    def bounds(d):
        return (monotone.taylor_remainder_bound(SQRT, c, d, 2),
                monotone.taylor_tail_bounds(SQRT, c, d, 3))
    checked = bounds(delta)
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", None)
        for call in (lambda: monotone.taylor_remainder_bound(SQRT, c, skew, 2),
                     lambda: monotone.taylor_tail_bounds(SQRT, c, skew, 3)):
            with pytest.raises(PreconditionError, match="Delta is not Hermitian"):
                call()
    monkeypatch.setattr(monotone, "hermitian_checked", lambda h, name: h)
    assert bounds(delta) == checked


def test_taylor_zero_delta(rng):
    c = generate.positive_definite(rng, 3)
    terms = monotone.taylor_terms(SQRT, c, np.zeros((3, 3)), 3)
    assert len(terms) == 3
    for term in terms:
        assert np.linalg.norm(term) < 1e-12


def test_taylor_atomic_scalar_example():
    # single atom at t0 = 1, C = I, Delta = eps I: second term -eps^2/8 I
    f = monotone.make_atomic(0.5, 0.0, [(1.0, 1.0)])
    eps = 0.1
    t2 = monotone.taylor_terms(f, np.eye(3), eps * np.eye(3), 2)[1]
    assert np.linalg.norm(t2 - (-(eps**2) / 8) * np.eye(3)) < 1e-12


def _inv_resolvents(t, c):
    """Stacked (t_i I + C)^{-1} by explicit inversion: the matrix-resolvent oracle."""
    return np.linalg.inv(np.multiply.outer(t, np.eye(len(c))) + c)


ATOMIC = monotone.make_atomic(0.25, 0.5, [(0.5, 0.4), (3.0, 1.0)])


@pytest.mark.parametrize("f", [SQRT, ATOMIC])
def test_taylor_term_matches_resolvent_products(rng, f):
    c = generate.positive_definite(rng, 4)
    delta = generate.hermitian(rng, 4, 0.2)
    terms = monotone.taylor_terms(f, c, delta, 3)
    assert len(terms) == 3
    for n, term in enumerate(terms, start=1):
        def fn(t):
            r = _inv_resolvents(t, c)
            return np.linalg.matrix_power(r @ delta, n) @ r
        expected = (-1.0) ** (n + 1) * monotone.measure_integral(f, fn)
        if n == 1:
            expected = expected + f.beta * delta
        assert np.linalg.norm(term - expected) <= 1e-10 * np.linalg.norm(expected)


def test_riemann_matches_resolvent_products(rng):
    # R_p = Σ m_i (t_i I + C)^{-1} (D - C) (t_i I + D)^{-1}, t_i the right
    # endpoints; at p = 9 the 32768 cells are summed in four blocks, and at
    # p = 2.5 the last cell is cut at t_max
    c = generate.positive_definite(rng, 4)
    d = generate.positive_definite(rng, 4)

    def h(t):
        return _inv_resolvents(t, c) @ (d - c) @ _inv_resolvents(t, d)
    t_max = 64.0
    reference = monotone.measure_integral(SQRT, h, t_max=t_max)
    for p in (True, 2.5, 3, 9):
        report = monotone.riemann_sum(SQRT, c, d, p, t_max)
        width = 2.0**-p
        rights = width * np.arange(1, math.ceil(t_max / width) + 1)
        masses = monotone.measure_mass(SQRT, rights - width, np.minimum(rights, t_max))
        value = np.einsum("m,mij->ij", masses, h(rights))
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
    # the order is an integer >= 1, not a bool: True is not order 1
    for n in (0, -1, 2.5, 1.0, True, "1", None):
        with pytest.raises(PreconditionError, match="term order"):
            monotone.taylor_terms(SQRT, c, delta, n)
    with pytest.raises(PreconditionError):
        monotone.taylor_terms(SQRT, np.diag([1.0, 0.0, 1.0]), delta, 1)
    with pytest.raises(PreconditionError):
        monotone.taylor_terms(SQRT, c, generate.ginibre(rng, 3, 3), 1)


@given(seeds, st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=8),
       st.sampled_from([(0.5, 2.0), (1e-3, 1e3)]), st.booleans())
def test_sqrt_recursion_matches_the_integral_route(seed, d, n, ev_range, factorized):
    # the coefficient recursion against its oracle, the resolvent quadrature
    # of taylor_terms, at every order up to n; C as a matrix or its psd_eigh
    rng = np.random.default_rng(seed)
    c = generate.positive_definite(rng, d, ev_range)
    delta = generate.hermitian(rng, d)
    terms = monotone.sqrt_taylor_terms(psd_eigh(c) if factorized else c, delta, n)
    assert len(terms) == n
    for term, oracle in zip(terms, monotone.taylor_terms(SQRT, c, delta, n)):
        assert np.linalg.norm(term - oracle) <= 1e-12 * np.linalg.norm(oracle)
    first = monotone.sqrt_taylor_terms(np.eye(d), delta, 1)[0]
    assert np.linalg.norm(first - delta / 2) <= 1e-15 * np.linalg.norm(delta)


def test_sqrt_recursion_scalar_series():
    # sqrt(1 + x) = 1 + x/2 - x^2/8 + x^3/16 - 5x^4/128 for C = I, Delta = x I
    x = 0.3
    terms = monotone.sqrt_taylor_terms(np.eye(2), x * np.eye(2), 4)
    coeffs = [1 / 2, -1 / 8, 1 / 16, -5 / 128]
    for order, (term, a) in enumerate(zip(terms, coeffs), start=1):
        assert np.allclose(term, a * x**order * np.eye(2), rtol=1e-15, atol=0)


def test_sqrt_recursion_validation(rng):
    c = generate.positive_definite(rng, 3)
    delta = generate.hermitian(rng, 3)
    for n in (0, -1, 2.5, True, "1", None):
        with pytest.raises(PreconditionError, match="term order"):
            monotone.sqrt_taylor_terms(c, delta, n)
    with pytest.raises(PreconditionError, match="Delta is not Hermitian"):
        monotone.sqrt_taylor_terms(c, generate.ginibre(rng, 3, 3), 1)
    with pytest.raises(PreconditionError, match="positive definite"):
        monotone.sqrt_taylor_terms(np.diag([1.0, 0.0, 1.0]), delta, 1)
    with pytest.raises(PreconditionError):
        monotone.sqrt_taylor_terms(c, generate.hermitian(rng, 4), 1)


def test_remainder_bound_values():
    # sqrt at C = I: the n = 1 coefficient is exactly 1/2
    delta = np.diag([0.1, -0.1])
    bound = monotone.taylor_remainder_bound(SQRT, np.eye(2), delta, 1)
    assert bound == pytest.approx(0.05, rel=1e-8)
    f = monotone.make_atomic(0.5, 0.0, [(1.0, 1.0)])
    bound2 = monotone.taylor_remainder_bound(f, np.eye(2), np.diag([0.5, 0.0]), 2)
    assert bound2 == pytest.approx(0.03125)


@pytest.mark.parametrize("n", [0, -1, 2.5, 1.0, True, "1", None])
def test_remainder_bound_refuses_a_term_order_that_is_no_integer_from_1(n):
    # 2.5 used to bound a term that does not exist, and True was order 1
    with pytest.raises(PreconditionError, match="term order"):
        monotone.taylor_remainder_bound(SQRT, 2 * np.eye(2), 0.1 * np.eye(2), n)


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
    tails = monotone.taylor_tail_bounds(SQRT, c, delta, 6)
    for m, term in enumerate(monotone.taylor_terms(SQRT, c, delta, 6), start=1):
        bound = monotone.taylor_remainder_bound(SQRT, c, delta, m)
        assert np.linalg.norm(term, 2) <= bound * (1 + 1e-6)
        partial = partial + term
        tail = tail_coeff * q**m * dist / (1 - q)
        assert tails[m - 1] == pytest.approx(tail, rel=1e-14)
        assert np.linalg.norm(target - partial, 2) <= tail * (1 + 1e-6)


def test_tail_bounds_values_and_refusals():
    # sqrt at C = I: ∫(t+1)^{-2} dν = 1/2, so the tail after order m is
    # q^m ||Delta|| / (2 (1 - q)) with q = ||Delta||
    delta = np.diag([0.25, -0.1])
    tails = monotone.taylor_tail_bounds(SQRT, np.eye(2), delta, 3)
    assert tails == pytest.approx([0.25**m * 0.25 / 1.5 for m in (1, 2, 3)], rel=1e-8)
    assert monotone.taylor_tail_bounds(SQRT, np.eye(2), np.zeros((2, 2)), 2) == [0.0, 0.0]
    with pytest.raises(OutsideNeighborhoodError):
        monotone.taylor_tail_bounds(SQRT, np.eye(2), np.diag([1.0, 0.0]), 1)
    for m_max in (0, True, 2.0):
        with pytest.raises(PreconditionError, match="term order"):
            monotone.taylor_tail_bounds(SQRT, np.eye(2), delta, m_max)


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


@pytest.mark.parametrize("ps", [[5], [3, 3], []])
def test_riemann_decay_slope_needs_two_depths(rng, ps):
    # one depth gave a slope with numpy's RankWarning, none a raw TypeError
    c = generate.positive_definite(rng, 3)
    d = generate.positive_definite(rng, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="two distinct depths"):
            monotone.riemann_decay_slope(SQRT, c, d, ps, 64.0)


def test_riemann_sum_refuses_too_many_cells(rng):
    # 64 * 2^40 cells could never be allocated: refused before any array is
    c = generate.positive_definite(rng, 2)
    with pytest.raises(PreconditionError):
        monotone.riemann_sum(SQRT, c, 2.0 * c, 40, 64.0)
    for t_max in (float("inf"), float("nan")):
        with pytest.raises(PreconditionError):
            monotone.riemann_sum(SQRT, c, 2.0 * c, 4, t_max)
    # at the cap exactly the sum runs; one cell more is refused
    t_max = RIEMANN_MAX_CELLS * 2.0**-12
    monotone.riemann_sum(SQRT, c, 2.0 * c, 12, t_max)
    with pytest.raises(PreconditionError):
        monotone.riemann_sum(SQRT, c, 2.0 * c, 12, t_max + 2.0**-12)


def test_riemann_sum_refuses_a_nan_depth(rng):
    # NaN fails the sign check of the depth p (math.ceil raised ValueError)
    c = generate.positive_definite(rng, 2)
    with pytest.raises(PreconditionError):
        monotone.riemann_sum(SQRT, c, 2.0 * c, math.nan, 4.0)


def _riemann_peak(dim):
    """tracemalloc peak of a depth-12 riemann_sum over [0, 64) at dimension dim."""
    rng = generate.rng_from_seed(0)
    c = generate.positive_definite(rng, dim)
    d = generate.positive_definite(rng, dim)
    monotone.riemann_sum(SQRT, c, d, 4, 64.0)
    tracemalloc.start()
    try:
        monotone.riemann_sum(SQRT, c, d, 12, 64.0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_riemann_sum_memory_does_not_grow_with_d():
    # 2^18 cells go a block at a time through two (cells, d) resolvent-sample
    # buffers of _RIEMANN_BLOCK_BYTES in all: the buffers of one block, not
    # the samples of all cells, are held at once, whatever d
    assert _riemann_peak(16) - _riemann_peak(4) <= 2 * 2**20


def test_riemann_sum_holds_one_block_of_samples():
    # at d = 16 a block is 2^11 cells; blocks of 2^13 cells at every d
    # peaked at 2.40 MiB here
    assert _riemann_peak(16) < 2**20
    # at d = 4 a block is still 2^13 cells, and the buffers, kept across
    # blocks, do not raise the 922280 B that blocks allocated one by one
    # peaked at (CPython 3.11, numpy 2.4): the bound's per-cell vectors are
    # freed before the samples are formed
    assert monotone._RIEMANN_BLOCK_BYTES // (8 * (4 + 4)) == 2**13
    assert _riemann_peak(4) <= 922280 + 2**16


@pytest.mark.parametrize("dim, p", [(3, 4), (3, 7), (16, 4), (16, 7)])
def test_riemann_sum_does_not_depend_on_the_blocking(monkeypatch, dim, p):
    # blocks of 1 cell, of 7 (the last one partial) and of more than all
    # the cells move value and bound only at roundoff, and the operator-norm
    # gap by no more than the value moves, plus roundoff
    rng = generate.rng_from_seed(dim + p)
    c = generate.positive_definite(rng, dim)
    d = generate.positive_definite(rng, dim)
    default = monotone.riemann_sum(SQRT, c, d, p, 64.0)
    scale = np.linalg.norm(default.value)
    assert 64 * 2**p % 7 != 0
    for cells in (1, 7, 2**20):
        monkeypatch.setattr(monotone, "_RIEMANN_BLOCK_BYTES", cells * 8 * 2 * dim)
        report = monotone.riemann_sum(SQRT, c, d, p, 64.0)
        moved = np.linalg.norm(report.value - default.value)
        assert moved <= 1e-13 * scale
        assert report.bound == pytest.approx(default.bound, rel=1e-13, abs=0.0)
        assert abs(report.gap_gauge - default.gap_gauge) <= moved + 1e-15 * scale


def test_riemann_truncation_error(rng):
    c = generate.positive_definite(rng, 2)
    d = 2.0 * c
    with pytest.raises(PreconditionError):
        monotone.riemann_sum(SQRT, c, d, 4, 0.5)


@pytest.mark.parametrize("f", [SQRT, ATOMIC], ids=["sqrt", "atomic"])
@pytest.mark.parametrize("p", [3, 7])
@pytest.mark.parametrize("gauge", ["op", "s2"])
def test_riemann_bound_is_the_cell_sum_of_the_majorant(rng, f, p, gauge):
    # bound = 2^-p ||D-C||_g Σ_m r̂(t_{m-1}) ν(cell_m), with the majorant
    # r̂(t) = ((t+γ_C)(t+γ_D))^{-1} ((t+γ_C)^{-1} + (t+γ_D)^{-1}) of ||h'||_g
    c = generate.positive_definite(rng, 4)
    d = generate.positive_definite(rng, 4)
    gamma_c, gamma_d = np.linalg.eigvalsh(c)[0], np.linalg.eigvalsh(d)[0]
    dist = np.linalg.norm(d - c, 2 if gauge == "op" else "fro")
    width, t_max = 2.0**-p, 64.0
    lefts = width * np.arange(int(t_max / width))
    masses = monotone.measure_mass(f, lefts, lefts + width)
    r_hat = ((1 / (lefts + gamma_c) + 1 / (lefts + gamma_d))
             / ((lefts + gamma_c) * (lefts + gamma_d)))
    report = monotone.riemann_sum(f, c, d, p, t_max, GaugeNorm.parse(gauge))
    assert report.bound == pytest.approx(width * dist * np.dot(r_hat, masses), rel=1e-12)
    assert report.gap_gauge <= report.bound * (1 + 1e-6)


@pytest.mark.parametrize("f", [SQRT, ATOMIC], ids=["sqrt", "atomic"])
def test_riemann_tail_verdicts_follow_the_tail(rng, f):
    # refused exactly where ||D-C|| ∫_{t_max}^inf dν/((t+γ_C)(t+γ_D)),
    # taken here as the half-line integral less the truncated one, exceeds
    # RIEMANN_TAIL_REL ||D-C||
    c = generate.positive_definite(rng, 3)
    d = generate.positive_definite(rng, 3)
    gamma_c, gamma_d = np.linalg.eigvalsh(c)[0], np.linalg.eigvalsh(d)[0]
    dist = np.linalg.norm(d - c, 2)

    def q(t):
        return dist / ((t + gamma_c) * (t + gamma_d))
    verdicts = []
    for t_max in 2.0 ** np.arange(-4.0, 12.0):
        tail = monotone.measure_integral(f, q) - monotone.measure_integral(f, q, t_max)
        refused = tail > RIEMANN_TAIL_REL * dist
        try:
            monotone.riemann_sum(f, c, d, 0, t_max)
        except PreconditionError as exc:
            assert refused and "truncation tail" in str(exc)
        else:
            assert not refused
        verdicts.append(refused)
    assert verdicts[0] and not verdicts[-1]


@pytest.mark.parametrize("p", [1020, 1075, 2000, math.inf])
def test_riemann_refuses_depths_past_a_double(monkeypatch, p):
    # t_max / 2^-p = 2^1026 overflows to inf at p = 1020 (math.ceil raised
    # OverflowError), and from p = 1075 on 2^-p is 0 (ZeroDivisionError)
    def no_eigh(*args, **kwargs):
        raise AssertionError("factorized before the depth was checked")
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    c, d = np.diag([1.0, 2.0]), np.diag([1.1, 2.2])
    with pytest.raises(PreconditionError, match="cells"):
        monotone.riemann_sum(SQRT, c, d, p, 64.0)
    with pytest.raises(PreconditionError, match="cells"):
        monotone.riemann_decay_slope(SQRT, c, d, [3, p], 64.0)


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
