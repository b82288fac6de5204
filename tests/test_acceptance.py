"""End-to-end acceptance checks, one per headline guarantee.

Each test prints a single [PASS]/[FAIL] line naming its criterion and then
asserts, so a plain ``pytest -v -s tests/test_acceptance.py`` doubles as a
scoreboard.  Everything is seeded and deterministic.
"""

import math

import numpy as np

from pinvlab import generate, monotone, polar, strata
from pinvlab.matcore import FROBENIUS_NORM, OP_NORM, TRACE_NORM, gauge_norm, svd
from pinvlab.pinv import (
    lipschitz_constant,
    moore_penrose,
    same_rank_bound,
    wedin_residual,
)

from conftest import near_identity_op

GAUGES = (TRACE_NORM, FROBENIUS_NORM, OP_NORM)


def _verdict(num: int, name: str, ok: bool) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}")
    return ok


def test_criterion_01_difference_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        d = int(rng.integers(2, 9))
        a = generate.fixed_rank(rng, d, d, int(rng.integers(0, d + 1)))
        b = generate.fixed_rank(rng, d, d, int(rng.integers(0, d + 1)))
        scale = 1.0
        for m in (a, b):
            res = moore_penrose(m)
            scale += 1.0 / res.gamma if res.rank else 0.0
        for g in GAUGES:
            worst = max(worst, wedin_residual(a, b, g) / (1e-8 * scale))
    assert _verdict(1, "pseudoinverse difference identity on 500 pairs",
                    worst <= 1.0)


def test_criterion_02_equal_rank_norm_bound():
    rng = np.random.default_rng(202)
    checked = 0
    ok = True
    while checked < 200:
        d = int(rng.integers(2, 7))
        a = generate.fixed_rank(rng, d, d, int(rng.integers(1, d + 1)))
        gamma = moore_penrose(a).gamma
        b = generate.rank_preserving_perturbation(rng, a, 0.05 * gamma)
        report = same_rank_bound(a, b)
        if not report.hypothesis_met:
            continue
        checked += 1
        ok = ok and report.actual <= report.bound * (1 + 1e-9)
    tight = same_rank_bound(np.eye(2), np.diag([1.0, 0.5]))
    ok = ok and abs(tight.actual - 2.0) <= 1e-12
    ok = ok and abs(tight.bound - 2.0) <= 1e-12
    assert _verdict(2, "equal-rank pseudoinverse norm bound, tight at "
                       "diag(1, 0.5)", ok)


def test_criterion_03_continuity_equivalence():
    rng = np.random.default_rng(303)
    consistent = 0
    for family in range(50):
        b = generate.fixed_rank(rng, 5, 5, 3)
        if family % 2 == 0:
            seq = generate.in_stratum_family(rng, b, 8)
        else:
            seq = generate.jump_family(b, 8)
        if strata.continuity_report(b, seq, 2, OP_NORM).consistent:
            consistent += 1
    assert _verdict(3, "six continuity conditions agree on 50 families",
                    consistent == 50)


def test_criterion_04_lipschitz_on_stratum():
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(200):
        d = int(rng.integers(2, 7))
        a = generate.fixed_rank(rng, d, d, int(rng.integers(1, d + 1)))
        radius = 0.5 * moore_penrose(a).gamma
        lip = lipschitz_constant(a)
        b1 = generate.rank_preserving_perturbation(rng, a, 0.01 * radius)
        b2 = generate.rank_preserving_perturbation(rng, a, 0.01 * radius)
        diff_pinv = svd(b2).pinv - svd(b1).pinv
        diff = b2 - b1
        for g in GAUGES:
            lhs = gauge_norm(diff_pinv, g)
            rhs = lip * gauge_norm(diff, g)
            ok = ok and lhs <= rhs * (1 + 1e-9)
    assert _verdict(4, "pseudoinverse Lipschitz bound in three gauges, "
                       "200 pairs", ok)


def test_criterion_05_cross_sections():
    rng = np.random.default_rng(505)
    worst_group = 0.0
    done = 0
    while done < 100:
        a = generate.fixed_rank(rng, 5, 5, 3)
        gamma = moore_penrose(a).gamma
        b = generate.rank_preserving_perturbation(rng, a, 0.05 * gamma)
        if gauge_norm(b - a, OP_NORM) >= gamma / 4:
            continue
        gk = strata.local_section_sigma(a, b)
        worst_group = max(worst_group,
                          np.linalg.norm(strata.act(gk, a) - b))
        done += 1
    worst_pos = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 6))
        c = generate.psd_fixed_rank(rng, d, int(rng.integers(1, d + 1)))
        g0 = generate.near_identity(rng, d, 0.1)
        b = g0 @ c @ g0.conj().T
        sigma = polar.positive_section(c, b)
        worst_pos = max(worst_pos,
                        np.linalg.norm(sigma @ c @ sigma.conj().T - b))
    assert _verdict(5, "group and positive-cone cross-sections reproduce B",
                    worst_group <= 1e-8 and worst_pos <= 1e-8)


def _expm(m, order=24):
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, order):
        term = term @ m / k
        out = out + term
    return out


def test_criterion_06_tangent_map_vs_finite_differences():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(3, 9))
        b = generate.fixed_rank(rng, d, d, int(rng.integers(1, d)))
        x, y = generate.tangent_pair(rng, d, d)
        v = x @ b - b @ y
        dt = strata.mp_tangent(b, v)
        h = 1e-5
        plus = svd(_expm(h * x) @ b @ _expm(-h * y)).pinv
        minus = svd(_expm(-h * x) @ b @ _expm(h * y)).pinv
        fd = (plus - minus) / (2 * h)
        worst = max(worst,
                    np.linalg.norm(dt - fd) / max(np.linalg.norm(dt), 1e-30))
    assert _verdict(6, "pseudoinverse tangent map matches finite differences",
                    worst <= 1e-6)


def test_criterion_07_functional_calculus_oracles():
    rng = np.random.default_rng(707)
    functions = [
        monotone.make_sqrt(),
        monotone.make_atomic(alpha=0.2, beta=0.5, atoms=[(1.0, 1.0)]),
        monotone.make_atomic(alpha=0.0, beta=0.0,
                             atoms=[(0.5, 2.0), (3.0, 1.0)]),
    ]
    ok = True
    for i in range(100):
        d = int(rng.integers(2, 6))
        c = generate.psd_fixed_rank(rng, d, int(rng.integers(1, d + 1)))
        f = functions[i % len(functions)]
        spec = monotone.matrix_eval_spectral(f, c)
        intg = monotone.matrix_eval_integral(f, c)
        gap = np.linalg.norm(spec - intg)
        ok = ok and gap <= 1e-7 * (1 + np.linalg.norm(spec))
    sqrt = functions[0]
    for lam in (0.0, 0.25, 1.0, 4.0, 100.0):
        ok = ok and abs(monotone.scalar_eval(sqrt, lam)
                        - math.sqrt(lam)) <= 1e-8
    assert _verdict(7, "integral representation agrees with spectral oracle",
                    ok)


def test_criterion_08_taylor_remainders():
    rng = np.random.default_rng(808)
    # geometric decay ratio: a single small atom makes the remainder
    # sequence exactly geometric with ratio ||Delta||/(gamma + t0)
    gamma = 1.0
    t0 = 0.01 * gamma
    f = monotone.make_atomic(alpha=0.0, beta=0.0, atoms=[(t0, 1.0)])
    d = 3
    c = gamma * np.eye(d, dtype=complex)
    delta = generate.hermitian(rng, d)
    delta *= 0.3 * gamma / np.linalg.norm(delta, 2)
    q = np.linalg.norm(delta, 2) / gamma
    target = monotone.matrix_eval_spectral(f, c + delta)
    partial = monotone.matrix_eval_spectral(f, c)
    remainders = []
    for term in monotone.taylor_terms(f, c, delta, 6):
        partial = partial + term
        remainders.append(np.linalg.norm(target - partial, 2))
    ratios = [remainders[i + 1] / remainders[i] for i in range(5)]
    ok = all(abs(r - q) <= 0.15 * q for r in ratios)
    # term bounds for the square root around random positive definite C,
    # and its two routes to every term: the coefficient recursion and the
    # resolvent quadrature
    sqrt = monotone.make_sqrt()
    for _ in range(10):
        d = int(rng.integers(2, 5))
        c = generate.positive_definite(rng, d)
        gamma_c = float(np.linalg.eigvalsh(c)[0])
        delta = generate.hermitian(rng, d)
        for g in GAUGES:
            dn = delta * (0.3 * gamma_c / gauge_norm(delta, g))
            recursion = monotone.sqrt_taylor_terms(c, dn, 6)
            integrals = monotone.taylor_terms(sqrt, c, dn, 6)
            for n, integral in enumerate(integrals, start=1):
                term = gauge_norm(integral, g)
                bound = monotone.taylor_remainder_bound(sqrt, c, dn, n, g)
                ok = ok and term <= bound * (1 + 1e-6)
                ok = ok and gauge_norm(recursion[n - 1] - integral, g) <= 1e-12 * term
    # first term at C = I for the square root is Delta/2
    d = 4
    delta = generate.hermitian(rng, d)
    delta *= 0.2 / np.linalg.norm(delta, 2)
    [first] = monotone.taylor_terms(sqrt, np.eye(d), delta, 1)
    ok = ok and np.linalg.norm(first - delta / 2) <= 1e-8
    assert _verdict(8, "Taylor remainders decay geometrically within "
                       "certified bounds", ok)


def _scalar_dyadic_oracle(c: float, d: float, p: int, t_max: float) -> float:
    """Dyadic Riemann sum of ∫ h dν for 1x1 inputs, written independently."""
    width = 2.0 ** -p
    cells = int(round(t_max / width))
    total = 0.0
    for m in range(1, cells + 1):
        left, right = (m - 1) * width, m * width
        mass = (2.0 / (3.0 * math.pi)) * (right ** 1.5 - left ** 1.5)
        total += mass * (d - c) / ((right + c) * (right + d))
    return total


def test_criterion_09_riemann_sum_decay():
    rng = np.random.default_rng(909)
    sqrt = monotone.make_sqrt()
    ok = True
    ps = range(4, 11)
    for _ in range(10):
        c = generate.positive_definite(rng, 3)
        g0 = near_identity_op(rng, 3, 0.2)
        d = g0 @ c @ g0.conj().T
        slope = monotone.riemann_decay_slope(sqrt, c, d, ps, 64.0)
        ok = ok and -1.2 <= slope <= -0.8
    for _ in range(10):
        cv = float(rng.uniform(0.5, 2.0))
        dv = float(rng.uniform(0.5, 2.0))
        p = int(rng.integers(4, 9))
        report = monotone.riemann_sum(sqrt, [[cv]], [[dv]], p, 64.0)
        oracle = _scalar_dyadic_oracle(cv, dv, p, 64.0)
        ok = ok and abs(report.value[0, 0].real - oracle) <= 1e-10
    assert _verdict(9, "dyadic Riemann sums halve their gap per refinement",
                    ok)


def test_criterion_10_orbit_witnesses():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 6))
        c = generate.psd_fixed_rank(rng, d, int(rng.integers(1, d + 1)))
        g0 = near_identity_op(rng, d, 0.4)
        target = g0 @ c @ g0.conj().T
        g = polar.congruence_witness(c, target)
        worst = max(worst, np.linalg.norm(g @ c @ g.conj().T - target))
    for _ in range(100):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        r = int(rng.integers(1, min(m, n) + 1))
        v0 = generate.partial_isometry(rng, m, n, r)
        v = generate.partial_isometry(rng, m, n, r)
        u, w = polar.isometry_orbit_witness(v0, v)
        worst = max(worst, np.linalg.norm(u @ v0 @ w.conj().T - v))
    assert _verdict(10, "congruence and isometry orbit witnesses, 100 each",
                    worst <= 1e-8)


def test_criterion_11_trivializations():
    rng = np.random.default_rng(1111)
    worst = 0.0
    exact = True
    done = 0
    while done < 100:
        d = int(rng.integers(3, 6))
        a = generate.fixed_rank(rng, d, d, int(rng.integers(1, d)))
        parts = polar.polar_decompose(a)
        c0, v0 = parts.modulus, parts.polar_factor
        b = generate.rank_preserving_perturbation(rng, a, 0.05)
        mod, fib = polar.trivialize_alpha(b, c0, a)
        back = polar.trivialize_alpha_inverse(mod, fib, c0)
        worst = max(worst, np.linalg.norm(back - b))
        exact = exact and np.array_equal(mod.matrix, polar.modulus_map(b, a))
        fac, fib = polar.trivialize_v(b, v0)
        back = polar.trivialize_v_inverse(fac, fib, v0)
        worst = max(worst, np.linalg.norm(back - b))
        exact = exact and np.array_equal(
            fac.matrix, polar.polar_factor_map(b, a).matrix)
        done += 1
    assert _verdict(11, "both fiber charts round-trip with exact first "
                        "components", worst <= 1e-7 and exact)


def test_criterion_12_index_bookkeeping():
    rng = np.random.default_rng(1212)
    violations = 0
    for trial in range(100):
        d = int(rng.integers(3, 7))
        r = int(rng.integers(1, d))
        a = generate.fixed_rank(rng, d, d, r)
        k_target = [-1, 0, 1][trial % 3]
        if k_target not in strata.index_range(a):
            continue
        b = generate.rank_preserving_perturbation(
            rng, strata.stratum_representative(a, k_target), 0.02)
        k = strata.stratum_index(b, a)
        pa, pb = polar.polar_decompose(a), polar.polar_decompose(b)
        checks = (
            strata.stratum_index(svd(b).pinv, svd(a).pinv),
            strata.stratum_index(pb.modulus, pa.modulus),
            strata.stratum_index(pb.polar_factor, pa.polar_factor),
        )
        if any(c != k for c in checks):
            violations += 1
    assert _verdict(12, "stratum index preserved by pinv, modulus and "
                        "polar factor", violations == 0)
