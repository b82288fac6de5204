"""Pinned dense-factorization counts of calls that factorize each matrix once.

A counter wraps ``numpy.linalg.svd``, ``eigh``, ``inv`` and ``solve``;
``inv`` and ``solve`` count once per stacked matrix.  ``norm`` of order
2, -2 or 'nuc' and ``matrix_rank`` count as one SVD each, because numpy
runs one inside them.  A change that factorizes a matrix again,
re-derives a subspace basis its SVD or eigh already holds, or inverts a
resolvent the eigenbasis makes diagonal, moves these counts.
"""

import io
from collections import Counter
from contextlib import redirect_stdout

import numpy as np
import pytest

from pinvlab import cli, codim, generate, matcore, monotone, pinv, polar, strata
from pinvlab.errors import PreconditionError
from pinvlab.matcore import (
    OP_NORM, PsdEig, SvdResult, as_matrix, psd_eigh, save_matrix, svd,
)

D = 16


@pytest.fixture
def count(monkeypatch):
    counts = Counter()

    def wrap(name, kind, weight=lambda *args, **kwargs: 1):
        orig = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            n = weight(*args, **kwargs)
            if n:
                counts[kind] += n
            return orig(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)

    def stacked(x, *args, **kwargs):
        return int(np.prod(np.shape(x)[:-2], dtype=int))

    for name in ("svd", "eigh"):
        wrap(name, name)
    for name in ("inv", "solve"):
        wrap(name, name, stacked)
    wrap("matrix_rank", "svd")
    wrap("norm", "svd", lambda x, ord=None, *args, **kwargs: int(ord in (2, -2, "nuc")))

    def run(call):
        counts.clear()
        call()
        return dict(counts)
    return run


@pytest.fixture
def inputs():
    rng = generate.rng_from_seed(0)
    a = generate.fixed_rank(rng, D, D, D // 2)
    b = generate.rank_preserving_perturbation(rng, a, 0.05)
    seq = generate.in_stratum_family(rng, a, 8)
    return a, b, seq


@pytest.fixture
def positive():
    rng = generate.rng_from_seed(0)
    c = generate.positive_definite(rng, D)
    d = c + 0.1 * generate.hermitian(rng, D) / D
    delta = generate.hermitian(rng, D, 0.05)
    return c, d, delta


@pytest.fixture
def semidefinite():
    rng = generate.rng_from_seed(0)
    c = generate.psd_fixed_rank(rng, D, D // 2)
    g = generate.near_identity(rng, D)
    return c, g @ c @ g.conj().T


def test_counter_sees_hidden_svds(count):
    x = np.eye(3)
    assert count(lambda: (np.linalg.norm(x, 2), np.linalg.norm(x),
                          np.linalg.matrix_rank(x))) == {"svd": 2}


def test_in_stratum_family_counts(count, inputs):
    a, _, _ = inputs
    rng = generate.rng_from_seed(1)
    # two near_identity factors per term, each scaled by its Frobenius
    # norm, which takes no factorization
    assert count(lambda: generate.in_stratum_family(rng, a, 8)) == {}


def test_stratum_index_counts(count, inputs):
    a, b, _ = inputs
    # one SVD of each matrix, whose ranks give the index; no eigh
    assert count(lambda: strata.stratum_index(b, a)) == {"svd": 2}


def test_continuity_report_counts(count, inputs):
    a, _, seq = inputs
    # B once; per term its SVD, the one SVD of the cross block
    # N(B)* N(B_n)^perp, values only, and the pseudoinverse gap; the last
    # input gap.  The null-projector gaps are read off the cross block's
    # values by the CS decomposition, with the intersection
    report = count(lambda: strata.continuity_report(a, seq, n0=2, g=OP_NORM))
    assert report == {"svd": 1 + 8 * 3 + 1}


def test_trivialize_alpha_round_trip_counts(count, inputs):
    a, b, _ = inputs
    c0 = polar.polar_decompose(a).modulus

    def round_trip():
        mod, fib = polar.trivialize_alpha(b, c0, a)
        polar.trivialize_alpha_inverse(mod, fib, c0)
    # each chart factorizes C0 once (its eigh gives the range basis, the
    # rank and C0^+); A only fixes the shape, as fiber membership compares
    # rank(X) with rank(C0).  Each chart unitary is the direct rotation of
    # R(C0) onto R(|B|), one SVD of the cross block of the range bases.
    # Forward also takes the SVD of B, which gives R(|B|), and fiber
    # membership the SVD of X; forward returns |B| as its psd_eigh, so the
    # inverse takes no eigh of |B|, but it takes the rotation again
    assert count(round_trip) == {"svd": 4, "eigh": 2}


def test_trivialize_alpha_round_trip_on_warm_base_counts(count, inputs):
    a, b, _ = inputs
    res_a = svd(a)
    c0 = psd_eigh(polar.polar_decompose(res_a).modulus)

    def round_trip():
        mod, fib = polar.trivialize_alpha(b, c0, res_a)
        polar.trivialize_alpha_inverse(mod, fib, c0)
    # per chart the SVD of the range bases' cross block for the direct
    # rotation of R(C0) onto R(|B|): the unpacked point hands on |B| as its
    # psd_eigh, and the inverse takes the rotation again; forward also the
    # SVD of B, which gives R(|B|), and fiber membership the SVD of X,
    # whose rank gives its index
    assert count(round_trip) == {"svd": 4}


def test_trivialize_alpha_round_trip_through_the_point_counts(count, inputs):
    a, b, _ = inputs
    res_a = svd(a)
    c0 = psd_eigh(polar.polar_decompose(res_a).modulus)

    # the SVD of B, the cross block's for the rotation and fiber
    # membership's of X, all forward: back() undoes the chart with the
    # rotation the chart took, and takes no SVD
    assert count(lambda: polar.trivialize_alpha(b, c0, res_a).back()) == {"svd": 3}


def test_trivialize_v_round_trip_counts(count, inputs):
    a, b, _ = inputs
    v0 = polar.polar_decompose(a).polar_factor

    def round_trip():
        factor, fib = polar.trivialize_v(b, v0)
        polar.trivialize_v_inverse(factor, fib, v0)
    # the SVD of B and one direct rotation, of the initial projectors, per
    # chart; ranks are traces of V*V, so a matrix V0 costs no SVD, and the
    # rotation is one SVD of the cross block, V0 against B's row basis
    # forward and V0 V* inverse, which also gives its gap
    assert count(round_trip) == {"svd": 3}


def test_trivialize_v_round_trip_through_the_point_counts(count, inputs):
    a, b, _ = inputs
    v0 = polar.polar_decompose(a).polar_factor
    # the SVD of B and the forward cross block's for W, with which back()
    # undoes the chart: no SVD of the m x m cross block V0 V*, which the
    # inverse takes
    assert count(lambda: polar.trivialize_v(b, v0).back()) == {"svd": 2}


def test_trivialize_v_counts(count, inputs):
    a, b, _ = inputs
    v0 = polar.polar_decompose(a).polar_factor
    # the SVD of B and the one SVD of the cross block of V0 and B's row
    # basis for the rotation
    assert count(lambda: polar.trivialize_v(b, v0)) == {"svd": 2}


def test_isometry_orbit_witness_counts(count, inputs):
    a, b, _ = inputs
    v0 = polar.polar_decompose(a).polar_factor
    v = polar.polar_decompose(b).polar_factor
    # one SVD of each partial isometry, whose unitary factors give U and
    # W; no further SVD for the ranks
    assert count(lambda: polar.isometry_orbit_witness(v0, v)) == {"svd": 2}


def test_mp_tangent_counts(count, inputs):
    _, b, _ = inputs
    rng = generate.rng_from_seed(1)
    x, y = generate.ginibre(rng, D, D), generate.ginibre(rng, D, D)
    # one SVD of B gives B^+, both Gram pseudoinverses and the tangent check
    assert count(lambda: strata.mp_tangent(b, x @ b - b @ y)) == {"svd": 1}


def test_wedin_residual_counts(count, inputs):
    a, b, _ = inputs
    # one SVD of A and of B, the gauge norm of the defect
    assert count(lambda: pinv.wedin_residual(a, b, OP_NORM)) == {"svd": 3}


def test_wedin_terms_on_two_svds_counts(count, inputs):
    a, b, _ = inputs
    ra, rb = svd(a), svd(b)
    # the pseudoinverses and the complement bases are read off the two SVDs
    assert count(lambda: pinv.wedin_terms(ra, rb, a - b)) == {}


def test_mp_map_counts(count, inputs):
    a, b, _ = inputs
    # one SVD of B; rank(B^+) = rank(B) by construction, so no SVD of B^+
    # or A^+, and A only fixes the shape
    assert count(lambda: strata.mp_map(b, a)) == {"svd": 1}


def test_modulus_map_counts(count, inputs):
    a, b, _ = inputs
    # one SVD of B; |B| is read from it, whose rank it has, so no SVD of
    # either modulus, and A only fixes the shape
    assert count(lambda: polar.modulus_map(b, a)) == {"svd": 1}


def test_polar_factor_map_counts(count, inputs):
    a, b, _ = inputs
    # as modulus_map, with |A|^+ = A^+ V_A read from the same SVD; no SVD
    # of V_B or V_A
    assert count(lambda: polar.polar_factor_map(b, a)) == {"svd": 2}


def _cli(*argv):
    with redirect_stdout(io.StringIO()):
        assert cli.main([str(x) for x in argv]) == 0


def test_cmd_polar_counts(count, inputs, tmp_path):
    a, _, _ = inputs
    path = tmp_path / "a.json"
    save_matrix(a, path)
    # one SVD of A gives both polar parts and the modulus rank, rank(A)
    assert count(lambda: _cli("polar", "--input", path)) == {"svd": 1}


def test_cmd_codim_counts(count, tmp_path):
    # projector_eig takes one eigh of each projector, which gives its rank
    # and both bases; the index by principal angles takes one values-only
    # SVD of each of its two cross blocks, N(Q)*R(P) and R(Q)*N(P)
    rng = generate.rng_from_seed(0)
    paths = []
    for name, r in (("p", 3), ("q", 3)):
        cols = generate.unitary(rng, D)[:, :r]
        paths.append(tmp_path / f"{name}.json")
        save_matrix(cols @ cols.conj().T, paths[-1])
    assert count(lambda: _cli("codim", "--p", paths[0], "--q", paths[1])) == {"eigh": 2, "svd": 2}


def test_cmd_stratify_counts(count, inputs, tmp_path):
    a, b, _ = inputs
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    save_matrix(a, paths[0])
    save_matrix(b, paths[1])
    # one SVD of each matrix: A's gives its rank for the index and the
    # range of indices
    assert count(lambda: _cli("stratify", "--a", paths[0], "--b", paths[1])) == {"svd": 2}


def test_cmd_fiber_counts(count):
    # both base points come from one SVD of A per run, which also gives
    # C0 = |A| as a psd_eigh, and both charts share one polar decomposition
    # of each B, whose SVD gives |B| as a psd_eigh to both modulus charts;
    # every chart unitary is a direct rotation, one SVD of a cross block
    # that also gives its gap, taken forward and handed to the inverse
    # with the chart point: 1 + 4 * 4, the SVD of A and per trial the SVD
    # of B, fiber membership's of X and two cross blocks; near_identity
    # scales by the Frobenius norm, which takes none
    assert count(lambda: _cli("fiber", "--dim", D, "--trials", 4)) == {"svd": 17}


def test_cmd_continuity_counts(count):
    # an in-stratum family: the generator takes no SVD, so only the report
    # (B once, three SVDs per term, the last input gap); a jump family:
    # one SVD of B serves all eight jumps and the report
    in_stratum = 1 + 8 * 3 + 1
    jump = 1 + 8 * 3 + 1
    assert count(lambda: _cli("continuity", "--dim", D, "--trials", 2)) == {
        "svd": in_stratum + jump}


def test_cmd_continuity_s2_counts(count):
    # as above, with the Schatten-2 pseudoinverse and input gaps read from
    # the entries: per term only its SVD and the cross block's remain
    in_stratum = 1 + 8 * 2
    jump = 1 + 8 * 2
    assert count(lambda: _cli("continuity", "--dim", D, "--trials", 2,
                              "--gauge", "s2")) == {"svd": in_stratum + jump}


def test_cmd_taylor_counts(count):
    # one eigh of C serves gamma, the radius check, f(C) and the six terms,
    # one more gives f(C + Delta); the SVDs are the gauge norms of Delta
    # before and after its scaling and of the six remainders
    assert count(lambda: _cli("taylor", "--dim", D)) == {"eigh": 2, "svd": 8}


def test_cmd_taylor_atomic_counts(count, tmp_path):
    # as above: the atomic terms by taylor_terms, all from the one eigh of C
    path = tmp_path / "f.json"
    path.write_text('{"alpha": 0.5, "beta": 0.1, "atoms": [[1.0, 1.0]]}')
    assert count(lambda: _cli("taylor", "--dim", D, "--function", f"atomic:{path}")) == {
        "eigh": 2, "svd": 8}


def test_cmd_census_counts(count):
    # A once; per sample its SVD and its gauge distance, the generator none;
    # the index is a rank difference
    assert count(lambda: _cli("census", "--dim", D, "--trials", 4)) == {
        "svd": 1 + 4 * 2}


def test_cmd_census_s2_counts(count):
    # as above, with the Schatten-2 gauge distance read from the entries
    # of B - A, which takes no SVD
    assert count(lambda: _cli("census", "--dim", D, "--trials", 4,
                              "--gauge", "s2")) == {"svd": 1 + 4 * 1}


def test_stacked_inverses_count_per_matrix(count):
    x = np.stack([np.eye(3)] * 4)
    assert count(lambda: (np.linalg.inv(x), np.linalg.solve(x, x))) == {
        "inv": 4, "solve": 4}


def test_matrix_eval_integral_counts(count):
    c = generate.positive_definite(generate.rng_from_seed(0), 8)
    f = monotone.make_sqrt()
    # one eigh for the rank check; the Householder reduction to tridiagonal
    # form calls no numpy.linalg factorization, and each node's shifted
    # solve is an LDL* of that tridiagonal
    assert count(lambda: monotone.matrix_eval_integral(f, c)) == {"eigh": 1}


def test_matrix_eval_integral_node_count(quadratures):
    c = generate.positive_definite(generate.rng_from_seed(0), 8)
    f = monotone.make_sqrt()
    # one quadrature: the first level's 33 nodes and the 32 midpoints of the
    # one halving that converges: the rule compares Frobenius norms, which
    # T's basis keeps
    assert quadratures(lambda: monotone.matrix_eval_integral(f, c)) == (1, 65)


def test_matrix_eval_integral_singular_counts(count, semidefinite):
    c, _ = semidefinite
    f = monotone.make_sqrt()
    # one eigh gives the rank and the null projector; C is integrated
    # whole with its null block set to w_max I, through its tridiagonal
    # form
    assert count(lambda: monotone.matrix_eval_integral(f, c)) == {"eigh": 1}


def test_riemann_sum_counts(count, positive):
    c, d, _ = positive
    # one eigh of C and of D; the gauge norms of D - C and of the gap.
    # The kernel 1/((t+λ_i)(t+μ_j)) needs no inverse or solve.
    report = count(lambda: monotone.riemann_sum(monotone.make_sqrt(), c, d, 7, 64.0))
    assert report == {"eigh": 2, "svd": 2}


@pytest.mark.parametrize("ps", [range(4, 6), range(4, 9)])
def test_riemann_decay_slope_counts(count, positive, ps):
    c, d, _ = positive
    f = monotone.make_sqrt()
    out = {}
    # one eigh of C and of D for every depth, and a riemann_sum's two gauge
    # norms per depth; the slope is the one the per-depth sums on the
    # matrices give, bit for bit
    report = count(lambda: out.setdefault(
        "slope", monotone.riemann_decay_slope(f, c, d, ps, 64.0)))
    assert report == {"eigh": 2, "svd": 2 * len(ps)}
    gaps = [monotone.riemann_sum(f, c, d, p, 64.0).gap_gauge for p in ps]
    assert out["slope"] == float(np.polyfit(list(ps), np.log2(gaps), 1)[0])


@pytest.fixture
def quadratures(monkeypatch):
    """run(call) -> (measure_integral calls, integrand nodes) of the call."""
    nodes = []
    integral = monotone.measure_integral

    def counted(f, fn, t_max=None):
        nodes.append(0)

        def fn_counted(t):
            nodes[-1] += len(t)
            return fn(t)
        return integral(f, fn_counted, t_max)
    monkeypatch.setattr(monotone, "measure_integral", counted)

    def run(call):
        nodes.clear()
        call()
        return len(nodes), sum(nodes)
    return run


def test_riemann_sum_node_count(quadratures, positive):
    c, d, _ = positive
    # the reference kernel K(t) on [0, t_max) and K_00 on the half-line,
    # whose difference with the reference's entry is the truncation tail;
    # the bound sums its majorant over the cells and takes no quadrature
    sqrt = monotone.make_sqrt()
    assert quadratures(lambda: monotone.riemann_sum(sqrt, c, d, 7, 64.0)) == (2, 322)
    atomic = monotone.make_atomic(0.25, 0.5, [(0.5, 0.4), (3.0, 1.0)])
    assert quadratures(lambda: monotone.riemann_sum(atomic, c, d, 7, 64.0))[0] == 2


@pytest.mark.parametrize("ps", [range(4, 6), range(4, 9)])
def test_riemann_decay_slope_node_count(quadratures, positive, ps):
    c, d, _ = positive
    f = monotone.make_sqrt()
    # a riemann_sum's two per depth
    calls, _ = quadratures(lambda: monotone.riemann_decay_slope(f, c, d, ps, 64.0))
    assert calls == 2 * len(ps)


# name -> (call on the positive fixture and f = sqrt, measure_integral calls)
QUADRATURES = {
    "matrix_eval_integral": (lambda f, c, d, delta: monotone.matrix_eval_integral(f, c), 1),
    "scalar_eval": (lambda f, c, d, delta: monotone.scalar_eval(f, [0.5, 2.7]), 1),
    # one per order
    "taylor_terms": (lambda f, c, d, delta: monotone.taylor_terms(f, c, delta, 3), 3),
    "taylor_remainder_bound": (
        lambda f, c, d, delta: monotone.taylor_remainder_bound(f, c, delta, 3), 1),
    "taylor_tail_bounds": (
        lambda f, c, d, delta: monotone.taylor_tail_bounds(f, c, delta, 6), 1),
    "perturbation_bound": (lambda f, c, d, delta: monotone.perturbation_bound(f, c, d), 1),
    # the closed form and the coefficient recursion of sqrt take none
    "matrix_eval_spectral": (lambda f, c, d, delta: monotone.matrix_eval_spectral(f, c), 0),
    "sqrt_taylor_terms": (lambda f, c, d, delta: monotone.sqrt_taylor_terms(c, delta, 6), 0),
    "continuity_in_stratum": (lambda f, c, d, delta: monotone.continuity_in_stratum(
        f, c, [c + (d - c) / 2**k for k in range(4)]), 0),
}


@pytest.mark.parametrize("name", sorted(QUADRATURES))
def test_monotone_quadrature_calls(quadratures, positive, name):
    call, calls = QUADRATURES[name]
    f = monotone.make_sqrt()
    assert quadratures(lambda: call(f, *positive))[0] == calls


def test_taylor_term_counts(count, positive):
    c, _, delta = positive
    f = monotone.make_sqrt()
    # every term up to order 6 from one eigh of C, and none from its psd_eigh
    assert count(lambda: monotone.taylor_terms(f, c, delta, 6)) == {"eigh": 1}
    eig = psd_eigh(c)
    assert count(lambda: monotone.taylor_terms(f, eig, delta, 6)) == {}


def test_inputs_are_checked_once(monkeypatch, positive):
    c, _, delta = positive
    hermitian, matrix = Counter(), Counter()
    hermitian_checked, as_matrix = matcore.hermitian_checked, matcore.as_matrix

    def counted_hermitian(h, name="matrix"):
        hermitian[name] += 1
        return hermitian_checked(h, name)

    def counted_matrix(a):
        matrix["as_matrix"] += 1
        return as_matrix(a)
    for module in (matcore, monotone):
        monkeypatch.setattr(module, "hermitian_checked", counted_hermitian)
    monkeypatch.setattr(matcore, "as_matrix", counted_matrix)
    # a raw matrix is validated and checked Hermitian once by psd_eigh
    eig = psd_eigh(c)
    assert (hermitian, matrix) == ({"matrix": 1}, {"as_matrix": 1})
    # Delta is checked once for every order, C not at all once factorized
    hermitian.clear()
    monotone.taylor_terms(monotone.make_sqrt(), eig, delta, 6)
    assert hermitian == {"Delta": 1}


def test_sqrt_taylor_terms_counts(count, positive):
    c, _, delta = positive
    # every term up to order 6 from one eigh of C, and none from its psd_eigh
    assert count(lambda: monotone.sqrt_taylor_terms(c, delta, 6)) == {"eigh": 1}
    eig = psd_eigh(c)
    assert count(lambda: monotone.sqrt_taylor_terms(eig, delta, 6)) == {}


def test_continuity_in_stratum_counts(count, positive):
    c, d, _ = positive
    seq = [c + (d - c) / 2**k for k in range(4)]
    f = monotone.make_sqrt()
    # one eigh of C and of each term gives its f and its rank, whose
    # difference is the term's index; per term the gauge norms of the
    # input and value gaps
    report = count(lambda: monotone.continuity_in_stratum(f, c, seq))
    assert report == {"eigh": 1 + 4, "svd": 4 * 2}

    def empty():
        with pytest.raises(PreconditionError, match="nonempty"):
            monotone.continuity_in_stratum(f, c, iter([]))
    # an empty sequence is refused before C is factorized or f(C) evaluated
    assert count(empty) == {}


def test_sqrt_spectral_route_counts(count, monkeypatch, positive, semidefinite):
    c, d, _ = positive
    seq = [c + (d - c) / 2**k for k in range(4)]

    def no_quadrature(fn, t_max=None):
        raise AssertionError("the sqrt density's quadrature was called")
    monkeypatch.setattr(monotone, "_sqrt_integral", no_quadrature)
    f = monotone.make_sqrt()
    # f(0) and the spectral f(C) read the closed form of the sqrt density:
    # one eigh per matrix and no quadrature node
    assert count(lambda: f.f0) == {}
    assert count(lambda: monotone.matrix_eval_spectral(f, c)) == {"eigh": 1}
    assert count(lambda: monotone.matrix_eval_spectral(f, semidefinite[0])) == {"eigh": 1}
    assert count(lambda: monotone.continuity_in_stratum(f, c, seq)) == {
        "eigh": 1 + 4, "svd": 4 * 2}


def test_perturbation_bound_counts(count, positive):
    c, d, _ = positive
    f = monotone.make_sqrt()
    # the eighs that check C and D are positive definite also give f(C), f(D)
    assert count(lambda: monotone.perturbation_bound(f, c, d)) == {"eigh": 2, "svd": 2}


def test_congruence_witness_counts(count, semidefinite):
    c, d = semidefinite
    # one eigh of C and of D, whose bases G is read off
    assert count(lambda: polar.congruence_witness(c, d)) == {"eigh": 2}


def test_congruence_witness_orthogonal_nulls_counts(count):
    # N(C) and N(D) orthogonal, at gap 1: G is still read off the one
    # eigh of C and of D
    q = generate.unitary(generate.rng_from_seed(0), 8)
    c = (q[:, 2:] * np.linspace(0.5, 2.0, 6)) @ q[:, 2:].conj().T
    keep = q[:, [0, 1, 4, 5, 6, 7]]
    d = (keep * np.linspace(2.0, 0.5, 6)) @ keep.conj().T
    assert count(lambda: polar.congruence_witness(c, d)) == {"eigh": 2}


def test_positive_section_counts(count, semidefinite):
    c, b = semidefinite
    # one eigh of C and of B, one SVD of the cross block of their range
    # bases for the direct rotation of R(C) onto R(B) and its gap
    assert count(lambda: polar.positive_section(c, b)) == {"eigh": 2, "svd": 1}


# ---------------------------------------------------------------------------
# One entry per theorem: a factorization passed for a matrix is used as is.

FACTORIZERS = {"svd": svd, "eigh": psd_eigh}


@pytest.fixture
def operands(inputs, positive, semidefinite):
    a, b, _ = inputs
    c, _, delta = positive
    c_psd, b_psd = semidefinite
    c0 = polar.polar_decompose(a).modulus
    _, fib = polar.trivialize_alpha(b, c0, a)
    x, y = generate.tangent_pair(generate.rng_from_seed(1), D, D)
    return dict(a=a, b=b, c=c, delta=delta, c_psd=c_psd, b_psd=b_psd, c0=c0,
                mod=polar.modulus_map(b, a), fib=fib, v0=polar.polar_decompose(a).polar_factor,
                v=polar.polar_decompose(b).polar_factor,
                tan=x @ b - b @ y, f=monotone.make_sqrt())


# name -> (function, its arguments from the operands, the factorization
# to pass at each position)
PASS_THROUGH = {
    "stratum_index": (strata.stratum_index, lambda o: (o["b"], o["a"]),
                      {0: "svd", 1: "svd"}),
    "index_range": (strata.index_range, lambda o: (o["a"],), {0: "svd"}),
    "stratum_representative-1": (strata.stratum_representative,
                                 lambda o: (o["a"], -1), {0: "svd"}),
    "stratum_representative+2": (strata.stratum_representative,
                                 lambda o: (o["a"], 2), {0: "svd"}),
    "polar_decompose-svd": (polar.polar_decompose, lambda o: (o["b"],), {0: "svd"}),
    "positive_section": (polar.positive_section, lambda o: (o["c_psd"], o["b_psd"]),
                         {0: "eigh", 1: "eigh"}),
    "matrix_eval_spectral": (monotone.matrix_eval_spectral, lambda o: (o["f"], o["c"]),
                             {1: "eigh"}),
    "taylor_terms": (monotone.taylor_terms, lambda o: (o["f"], o["c"], o["delta"], 2),
                     {1: "eigh"}),
    "taylor_remainder_bound": (monotone.taylor_remainder_bound,
                               lambda o: (o["f"], o["c"], o["delta"], 2), {1: "eigh"}),
    "taylor_tail_bounds": (monotone.taylor_tail_bounds,
                           lambda o: (o["f"], o["c"], o["delta"], 3), {1: "eigh"}),
    "sqrt_taylor_terms": (monotone.sqrt_taylor_terms,
                          lambda o: (o["c"], o["delta"], 3), {0: "eigh"}),
    "trivialize_alpha_inverse": (polar.trivialize_alpha_inverse,
                                 lambda o: (o["mod"], o["fib"], o["c0"]),
                                 {0: "eigh", 2: "eigh"}),
    "trivialize_v": (polar.trivialize_v, lambda o: (o["b"], o["v0"]), {0: "svd"}),
    "isometry_orbit_witness": (polar.isometry_orbit_witness, lambda o: (o["v0"], o["v"]),
                               {0: "svd", 1: "svd"}),
    "wedin_residual": (pinv.wedin_residual, lambda o: (o["a"], o["b"], OP_NORM),
                       {0: "svd", 1: "svd"}),
    "wedin_terms": (pinv.wedin_terms, lambda o: (o["a"], o["b"], o["a"] - o["b"]),
                    {0: "svd", 1: "svd"}),
    "same_rank_bound": (pinv.same_rank_bound, lambda o: (o["a"], o["b"]),
                        {0: "svd", 1: "svd"}),
    "transitivity_witness": (strata.transitivity_witness, lambda o: (o["a"], o["b"]),
                             {0: "svd", 1: "svd"}),
    "local_section_sigma": (strata.local_section_sigma, lambda o: (o["a"], o["b"]),
                            {0: "svd", 1: "svd"}),
    "tangent_membership": (strata.tangent_membership, lambda o: (o["b"], o["tan"], True),
                           {0: "svd"}),
    "mp_tangent": (strata.mp_tangent, lambda o: (o["b"], o["tan"]), {0: "svd"}),
    "polar_factor_map": (polar.polar_factor_map, lambda o: (o["b"], o["a"]),
                         {0: "svd", 1: "svd"}),
    # A only fixes the shape of B^+, |B| and the modulus chart, so it is
    # not factorized
    "mp_map": (strata.mp_map, lambda o: (o["b"], o["a"]), {0: "svd"}),
    "modulus_map": (polar.modulus_map, lambda o: (o["b"], o["a"]), {0: "svd"}),
    "trivialize_alpha": (polar.trivialize_alpha, lambda o: (o["b"], o["c0"], o["a"]),
                         {0: "svd", 1: "eigh"}),
    "fiber_membership_alpha": (polar.fiber_membership_alpha,
                               lambda o: (o["fib"], o["c0"], o["a"]),
                               {0: "svd", 1: "eigh"}),
}


def _bits(x):
    """x as comparable bytes, through tuples and the package's result types."""
    if isinstance(x, (tuple, list, polar.ChartPoint)):
        return tuple(_bits(y) for y in x)
    if isinstance(x, strata.GroupPair):
        return _bits((x.G, x.K))
    if isinstance(x, PsdEig):
        return _bits((x.Q, x.w, x.matrix))
    if isinstance(x, SvdResult):
        return _bits((x.U, x.singular_values, x.Vt, x.rank, x.matrix))
    if isinstance(x, np.ndarray):
        return x.shape, x.dtype.str, x.tobytes()
    return x


@pytest.mark.parametrize("name", sorted(PASS_THROUGH))
def test_factorized_argument_passes_through(count, operands, name):
    # the factorized argument gives a bit-identical result and saves
    # exactly its own factorization: none is taken of it again
    fn, build, factorized = PASS_THROUGH[name]
    args = build(operands)
    fact_args = list(args)
    saved = Counter()
    for pos, kind in factorized.items():
        fact_args[pos] = FACTORIZERS[kind](args[pos])
        saved[kind] += 1
    out = {}
    plain = count(lambda: out.setdefault("plain", fn(*args)))
    fact = count(lambda: out.setdefault("fact", fn(*fact_args)))
    assert _bits(out["fact"]) == _bits(out["plain"])
    assert Counter(fact) + saved == Counter(plain)


def test_factorizations_pass_through_unchanged(inputs):
    a, _, _ = inputs
    res = svd(a)
    eig = psd_eigh(res.modulus)
    assert svd(res) is res and psd_eigh(eig) is eig
    assert polar.polar_decompose(res) is res
    # each carries the validated input, which as_matrix returns uncopied
    assert res.matrix is a and eig.matrix is res.modulus
    assert as_matrix(res) is res.matrix and as_matrix(eig) is eig.matrix


@pytest.mark.parametrize("module, name", [
    (strata, "index_from_svds"), (strata, "index_range_from_svd"),
    (strata, "representative_from_svd"), (polar, "_polar_parts"),
    (polar, "_section"), (polar, "ModulusBase"), (polar, "_base"),
    (monotone, "_spectral"), (monotone, "_pd_eigs"), (strata, "_index_overlap"),
    (codim, "subspace_index"), (codim, "_subspace_index"),
    (codim, "conjugating_unitary"), (codim, "basis_matching_unitary"),
    (codim, "Projector"), (matcore, "ISOMETRY_REL"), (pinv, "pinv_matrix"),
    (polar, "PolarParts"), (polar, "_polar_factor"), (polar, "_carried"),
    (strata, "_svd_pair"), (polar, "PartialIsometry"), (matcore, "Tridiagonal"),
    (monotone, "_check_monotone"), (matcore, "MONOTONE_SLACK"),
    (strata, "_svd_same_shape"), (matcore, "_read_json"),
    (matcore.SvdResult, "range_proj"), (matcore.SvdResult, "null_proj")])
def test_twin_entry_points_are_gone(module, name):
    assert not hasattr(module, name)
