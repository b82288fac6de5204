"""Checks of pinvlab outputs that do not trust pinvlab.

Each check recomputes its reference with numpy or scipy, or tests a
property the method must have; none compares against stored program
output.  A check raises CheckFailed naming what disagreed.  Ranks are
counted here with numpy's SVD and a cutoff of RANK_RTOL * sigma_1, far
from the program's own cutoff: the inputs the benchmark builds have
singular values either 0 or in [0.5, 2], so both cutoffs agree.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
import scipy.integrate
import scipy.linalg

RANK_RTOL = 1e-8
ROUNDOFF = 1e-9          # relative size of an exact identity's residual
QUADRATURE = 1e-7        # relative agreement of two quadrature-based routes
VERDICTS = ("index_zero", "pinv_bounded", "pinv_gap_vanishes",
            "nullproj_gauge_below_one", "nullproj_op_below_one",
            "trivial_intersection")


class CheckFailed(Exception):
    """A program output disagrees with its independent reference."""


def expect(cond, message: str):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# References computed apart from pinvlab.


def rank(x) -> int:
    s = np.linalg.svd(np.asarray(x), compute_uv=False)
    return int(np.sum(s > RANK_RTOL * s[0])) if s.size and s[0] > 0 else 0


def gauge(x, spec: str) -> float:
    """The gauge norms the benchmark uses: op, s2 and kyfan:<k>."""
    s = np.linalg.svd(np.asarray(x), compute_uv=False)
    if spec == "op":
        return float(s[0])
    if spec == "s2":
        return float(np.sqrt(np.sum(s * s)))
    if spec.startswith("kyfan:"):
        return float(np.sum(s[: int(spec[6:])]))
    raise ValueError(f"unknown gauge {spec!r}")


def pinv(x) -> np.ndarray:
    return np.linalg.pinv(np.asarray(x), rcond=RANK_RTOL)


def psd_sqrt(c) -> np.ndarray:
    c = np.asarray(c)
    w, q = np.linalg.eigh(0.5 * (c + c.conj().T))
    w = np.where(w > 1e-12 * max(float(np.max(np.abs(w))), 1e-300), w, 0.0)
    return (q * np.sqrt(w)) @ q.conj().T


def null_complement_projector(a) -> np.ndarray:
    """Projector onto N(A)^perp, from numpy's SVD."""
    _, s, vh = np.linalg.svd(np.asarray(a))
    r = int(np.sum(s > RANK_RTOL * s[0]))
    v = vh[:r].conj().T
    return v @ v.conj().T


def close(x, ref, rtol: float, what: str):
    x, ref = np.asarray(x), np.asarray(ref)
    expect(x.shape == ref.shape, f"{what}: shape {x.shape} != {ref.shape}")
    err = float(np.linalg.norm(x - ref))
    scale = max(1.0, float(np.linalg.norm(ref)))
    expect(err <= rtol * scale, f"{what}: residual {err:.3e} > {rtol:.0e} * {scale:.3g}")


def near(x: float, ref: float, rtol: float, what: str):
    expect(abs(x - ref) <= rtol * max(1.0, abs(ref)),
           f"{what}: {x!r} differs from {ref!r}")


def matrix_from_file_json(obj) -> np.ndarray:
    """Read the {"rows", "cols", "data": [[re, im], ...]} matrix schema."""
    data = np.asarray(obj["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(int(obj["rows"]), int(obj["cols"]))


def rows(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def cli_ok(result):
    expect(result.rc == 0, f"exit code {result.rc}: {result.err.strip()[:200]}")


# ---------------------------------------------------------------------------
# strata-sweep


def continuity(result, trials: int, terms: int = 8):
    """In-stratum families get six true verdicts, jump families six false."""
    cli_ok(result)
    table = rows(result.out)
    summaries = [r for r in table if r["record"] == "summary"]
    expect(len(summaries) == trials, f"{len(summaries)} summaries for {trials} families")
    expect(sum(r["record"] == "data" for r in table) == trials * terms,
           "wrong number of data rows")
    for r in summaries:
        verdicts = dict(kv.split("=") for kv in r["verdicts"].split(";"))
        expect(sorted(verdicts) == sorted(VERDICTS), f"verdict keys {sorted(verdicts)}")
        want = "1" if r["kind"] == "in_stratum" else "0"
        expect(r["kind"] == ("in_stratum" if int(r["family"]) % 2 == 0 else "jump"),
               f"family {r['family']} has kind {r['kind']}")
        expect(all(v == want for v in verdicts.values()),
               f"family {r['family']} ({r['kind']}): verdicts {r['verdicts']}")
        expect(r["consistent"] == "1", f"family {r['family']} inconsistent")


def census(result, a, bs, spec: str):
    """Index, ||B^+|| = 1/sigma_r(B) and the gauge distance, per trial."""
    cli_ok(result)
    table = rows(result.out)
    expect(len(table) == len(bs), f"{len(table)} census rows for {len(bs)} samples")
    rank_a = rank(a)
    for row, b in zip(table, bs):
        s = np.linalg.svd(b, compute_uv=False)
        r = rank(b)
        expect(int(row["k"]) == rank_a - r, f"trial {row['trial']}: k {row['k']} "
               f"!= rank(A) - rank(B) = {rank_a - r}")
        near(float(row["pinv_norm"]), 1.0 / s[r - 1] if r else 0.0, ROUNDOFF,
             f"trial {row['trial']} pinv_norm")
        near(float(row["dist_gauge"]), gauge(b - a, spec), ROUNDOFF,
             f"trial {row['trial']} dist_gauge")


def stratify(result, a, b):
    cli_ok(result)
    rep = json.loads(result.out)
    ra, rb = rank(a), rank(b)
    m, n = a.shape
    expect(rep["index"] == ra - rb, f"index {rep['index']} != {ra} - {rb}")
    expect(rep["k_min"] == -min(n - ra, m - ra), f"k_min {rep['k_min']}")
    expect(rep["k_max"] == ra, f"k_max {rep['k_max']} != rank(A) {ra}")


def penrose(a, x, what: str):
    """The four Penrose equations, at roundoff."""
    scale = max(1.0, float(np.linalg.norm(a)) * float(np.linalg.norm(x)))
    for name, res in (("AXA=A", a @ x @ a - a), ("XAX=X", x @ a @ x - x),
                      ("AX Hermitian", a @ x - (a @ x).conj().T),
                      ("XA Hermitian", x @ a - (x @ a).conj().T)):
        err = float(np.linalg.norm(res))
        expect(err <= ROUNDOFF * scale, f"{what}: {name} residual {err:.3e}")


def pinv_cli(result, a):
    cli_ok(result)
    rep = json.loads(result.out)
    x = matrix_from_file_json(result.payload)
    close(x, pinv(a), ROUNDOFF, "pinv vs numpy.linalg.pinv")
    penrose(a, x, "pinv output")
    s = np.linalg.svd(a, compute_uv=False)
    r = rank(a)
    expect(rep["rank"] == r, f"rank {rep['rank']} != {r}")
    near(rep["gamma"], float(s[r - 1]), ROUNDOFF, "gamma")
    for key in ("residual_axa", "residual_xax", "residual_ax_hermitian",
                "residual_xa_hermitian"):
        expect(rep[key] <= ROUNDOFF * max(1.0, float(np.linalg.norm(a))),
               f"{key} = {rep[key]:.3e}")


def codim_cli(result, p, q):
    cli_ok(result)
    rep = json.loads(result.out)
    tp, tq = round(float(np.trace(p).real)), round(float(np.trace(q).real))
    expect(rep["index"] == tp - tq, f"index {rep['index']} != tr P - tr Q = {tp - tq}")
    expect((rep["rank_p"], rep["rank_q"]) == (tp, tq), "projector ranks")


def wedin(value: float, a, b):
    scale = (1.0 + float(np.linalg.norm(a)) + float(np.linalg.norm(b))) * (
        1.0 + float(np.linalg.norm(pinv(a))) * float(np.linalg.norm(pinv(b))))
    expect(0.0 <= value <= ROUNDOFF * scale, f"wedin residual {value:.3e}")


def mp_map(x, b):
    close(x, pinv(b), ROUNDOFF, "mp_map vs numpy.linalg.pinv")


def mp_tangent(t, b, xdir, ydir, h: float = 1e-5):
    """Central differences of numpy's pinv along (I + hX) B (I - hY)."""
    ident_m, ident_n = np.eye(b.shape[0]), np.eye(b.shape[1])
    plus = (ident_m + h * xdir) @ b @ (ident_n - h * ydir)
    minus = (ident_m - h * xdir) @ b @ (ident_n + h * ydir)
    fd = (pinv(plus) - pinv(minus)) / (2.0 * h)
    close(t, fd, 1e-6, "mp_tangent vs finite differences")


def section(pair, a, b):
    """sigma_1 A sigma_2^{-1} = B, landing in the stratum of A."""
    image = pair.G @ a @ np.linalg.inv(pair.K)
    close(image, b, ROUNDOFF, "section sigma_1 A sigma_2^-1 vs B")
    expect(rank(image) == rank(a), "section left the zero stratum")


def correction(c, a, b):
    """C = A P (k > 0) or C = -B P (k < 0), P an orthogonal projector of rank
    |k| onto a subspace of N(B) (k > 0) or N(A) (k < 0), and B + C in the
    zero stratum of A."""
    k = rank(a) - rank(b)
    expect(k != 0, "B already in the zero stratum")
    base, other = (a, b) if k > 0 else (-b, a)
    proj = pinv(base) @ c
    close(base @ proj, c, ROUNDOFF, "C vs the documented A P / -B P form")
    close(proj @ proj, proj, ROUNDOFF, "P idempotent")
    close(proj, proj.conj().T, ROUNDOFF, "P Hermitian")
    expect(rank(proj) == abs(k), f"rank(P) = {rank(proj)} != |k| = {abs(k)}")
    close(other @ proj, np.zeros_like(c), ROUNDOFF, "P projects into the null space")
    expect(rank(b + c) == rank(a), f"B + C has rank {rank(b + c)}, A has {rank(a)}")


def approximation(out, a, b, k_target: int, eps: float):
    expect(rank(out) == rank(a) - k_target,
           f"approximant rank {rank(out)} != {rank(a) - k_target}")
    dist = float(np.linalg.norm(out - b, 2))
    expect(dist <= eps * (1 + 1e-9), f"approximant moved {dist:.3e} > eps {eps:.3e}")


def lipschitz(value: float, a):
    s = np.linalg.svd(a, compute_uv=False)
    gamma = float(s[rank(a) - 1])
    near(value, (float(s[0]) + 0.5 * gamma) ** 2 + 8.0 / gamma**2, ROUNDOFF,
         "Lipschitz constant")


# ---------------------------------------------------------------------------
# monotone-calculus


def taylor(result, mmax: int = 6):
    cli_ok(result)
    table = rows(result.out)
    expect([int(r["m"]) for r in table] == list(range(1, mmax + 1)), "Taylor orders")
    for r in table:
        expect(float(r["remainder_gauge"]) <= float(r["bound_gauge"]),
               f"m={r['m']}: remainder {r['remainder_gauge']} > bound {r['bound_gauge']}")
        expect(float(r["ratio"]) <= 1.0, f"m={r['m']}: ratio {r['ratio']} > 1")


def sqrt_value(s, c):
    """f = sqrt: f(C) f(C) = C and f(C) matches an eigh-based square root."""
    scale = max(1.0, float(np.linalg.norm(c)))
    err = float(np.linalg.norm(s @ s - c))
    expect(err <= QUADRATURE * scale, f"f(C)^2 - C residual {err:.3e}")
    close(s, psd_sqrt(c), QUADRATURE, "f(C) vs eigh square root")


def routes_agree(spectral, integral):
    close(integral, spectral, QUADRATURE, "integral vs spectral route")


def perturbation(report, c, d):
    expect(report.actual <= report.bound,
           f"actual {report.actual:.6g} > bound {report.bound:.6g}")
    ref = gauge(psd_sqrt(d) - psd_sqrt(c), "op")
    expect(abs(report.actual - ref) <= 1e-8 * ref,
           f"perturbation actual {report.actual!r} vs eigh square roots {ref!r}")


def sqrt_tail(c, d, t_max: float) -> float:
    """∫_{t_max}^∞ q dν for the sqrt density, q = ||D-C|| / ((t+γ_C)(t+γ_D))."""
    gc = float(np.linalg.eigvalsh(c)[0])
    gd = float(np.linalg.eigvalsh(d)[0])
    dist = gauge(d - c, "op")
    val, _ = scipy.integrate.quad(
        lambda t: dist / ((t + gc) * (t + gd)) * math.sqrt(t) / math.pi,
        t_max, math.inf, epsabs=0.0, epsrel=1e-10)
    return val


def riemann(report, c, d, t_max: float):
    expect(report.gap_gauge <= report.bound * (1 + 1e-6),
           f"gap {report.gap_gauge:.6g} > bound {report.bound:.6g}")
    err = gauge(report.value - (psd_sqrt(d) - psd_sqrt(c)), "op")
    allowance = report.bound * (1 + 1e-6) + sqrt_tail(c, d, t_max)
    expect(err <= allowance,
           f"||R_p - (sqrt D - sqrt C)|| = {err:.6g} > bound + tail = {allowance:.6g}")


def stratum_continuity(report, c, seq):
    expect(len(report.rows) == len(seq), "one row per sequence term")
    fc = psd_sqrt(c)
    for row, dn in zip(report.rows, seq):
        expect(row.index == rank(c) - rank(dn) == 0, f"term {row.n}: index {row.index}")
        near(row.input_gap, gauge(dn - c, "op"), ROUNDOFF, f"term {row.n} input gap")
        near(row.value_gap, gauge(psd_sqrt(dn) - fc, "op"), QUADRATURE,
             f"term {row.n} value gap")


# ---------------------------------------------------------------------------
# polar-charts


def fiber(result, trials: int):
    cli_ok(result)
    rep = json.loads(result.out)
    expect(rep["trials"] == trials, "fiber trial count")
    expect(rep["outside_chart"] == 0, f"{rep['outside_chart']} trials outside the chart")
    for key in ("alpha_max_residual", "v_max_residual"):
        expect(rep[key] <= 1e-7, f"{key} = {rep[key]:.3e} > 1e-7")


def modulus(mod, a):
    close(mod, scipy.linalg.polar(a, side="right")[1], ROUNDOFF,
          "modulus vs scipy.linalg.polar")


def polar_factor(v, a):
    """V|A| = A and V*V projects onto N(A)^perp."""
    mod = scipy.linalg.polar(a, side="right")[1]
    close(v @ mod, a, ROUNDOFF, "V|A| vs A")
    close(v.conj().T @ v, null_complement_projector(a), ROUNDOFF,
          "V*V vs projector onto N(A)^perp")


def polar_cli(result, a):
    cli_ok(result)
    rep = json.loads(result.out)
    v = matrix_from_file_json(result.payload["polar_factor"])
    mod = matrix_from_file_json(result.payload["modulus"])
    modulus(mod, a)
    polar_factor(v, a)
    expect(rep["modulus_rank"] == rank(a), f"modulus_rank {rep['modulus_rank']}")
    for key in ("factorization_residual", "initial_projector_residual"):
        expect(rep[key] <= ROUNDOFF * max(1.0, float(np.linalg.norm(a))),
               f"{key} = {rep[key]:.3e}")


def congruence(g, c, d):
    close(g @ c @ g.conj().T, d, 1e-8, "G C G* vs D")


def positive_section(sigma, c, b):
    close(sigma @ c @ sigma.conj().T, b, 1e-8, "sigma C sigma* vs B")


def orbit(u, w, v0, v):
    close(u @ v0 @ w.conj().T, v, ROUNDOFF, "U V0 W* vs V")
    close(u.conj().T @ u, np.eye(u.shape[1]), ROUNDOFF, "U unitary")
    close(w.conj().T @ w, np.eye(w.shape[1]), ROUNDOFF, "W unitary")
