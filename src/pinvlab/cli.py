"""Command-line experiment harness.

Subcommands cover the package's reproducible demonstrations: pseudoinverse
reports, projection indices, stratum classification, continuity
certification of sequence families, Taylor remainder decay, stratum
census under random perturbation, fiber-chart round trips and polar
decomposition.  Every experiment is deterministic in its seed; CSV is
emitted with 17 significant digits so doubles round-trip exactly.

Exit codes: 0 success, 2 usage or malformed input, 3 hypothesis
violation, 4 internal inconsistency.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import codim, generate, monotone, pinv, polar, strata
from .errors import (
    ConsistencyError,
    OutsideNeighborhoodError,
    PinvLabError,
    PreconditionError,
)
from .matcore import (
    ROUND_TRIP_ABS,
    TAYLOR_RATIO_SLACK,
    TAYLOR_ROUNDOFF_REL,
    GaugeNorm,
    gauge_norm,
    load_matrix,
    matrix_to_json,
    psd_eigh,
    read_json,
    save_matrix,
    svd,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3
EXIT_INCONSISTENT = 4


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _emit(text: str, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(obj: dict, args) -> None:
    if args.json:
        _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = [f"{key}: {val}" for key, val in sorted(obj.items())]
        _emit("\n".join(lines) + "\n", args.out)


def _finite(residuals) -> dict:
    """Each residual, a callable giving a norm, evaluated with overflow
    ignored; inf or NaN, as inputs near the overflow threshold give,
    certifies nothing and raises PreconditionError."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = {key: float(norm()) for key, norm in residuals.items()}
    bad = [key for key, val in values.items() if not math.isfinite(val)]
    if bad:
        raise PreconditionError(f"input too large: {', '.join(bad)} is not finite")
    return values


def cmd_pinv(args) -> int:
    a = load_matrix(args.input)
    res = pinv.moore_penrose(a)
    x = res.pinv
    report = {"gamma": res.gamma, "rank": res.rank, **_finite({
        "residual_axa": lambda: np.linalg.norm(a @ x @ a - a),
        "residual_xax": lambda: np.linalg.norm(x @ a @ x - x),
        "residual_ax_hermitian": lambda: np.linalg.norm(a @ x - (a @ x).conj().T),
        "residual_xa_hermitian": lambda: np.linalg.norm(x @ a - (x @ a).conj().T),
    })}
    if args.matrix_out:
        save_matrix(x, args.matrix_out)
    _report(report, args)
    return EXIT_OK


def cmd_codim(args) -> int:
    p = codim.projector_eig(load_matrix(args.p))
    q = codim.projector_eig(load_matrix(args.q))
    index = codim.essential_codimension(p, q)
    _report({"index": index, "rank_p": p.rank, "rank_q": q.rank}, args)
    return EXIT_OK


def cmd_stratify(args) -> int:
    # one SVD of A gives its rank for the index and the range of indices
    a = svd(load_matrix(args.a))
    b = load_matrix(args.b)
    k = strata.stratum_index(b, a)
    rng_ = strata.index_range(a)
    _report({"index": k, "k_min": rng_.k_min, "k_max": rng_.k_max}, args)
    return EXIT_OK


def cmd_polar(args) -> int:
    # one SVD of A gives V_A, |A| and rank(|A|) = rank(A)
    res = polar.polar_decompose(load_matrix(args.input))
    v, mod = res.polar_factor, res.modulus
    vtv = v.conj().T @ v
    report = {"modulus_rank": res.rank, **_finite({
        "factorization_residual": lambda: np.linalg.norm(v @ mod - res.matrix),
        "initial_projector_residual": lambda: np.linalg.norm(vtv @ vtv - vtv),
    })}
    if args.matrix_out:
        payload = {"polar_factor": matrix_to_json(v), "modulus": matrix_to_json(mod)}
        with open(args.matrix_out, "w") as fh:
            fh.write(json.dumps(payload))
    _report(report, args)
    return EXIT_OK


def cmd_continuity(args) -> int:
    rng = generate.rng_from_seed(args.seed)
    g = GaugeNorm.parse(args.gauge)
    d = args.dim
    r = max(1, d // 2)
    lines = [
        "family,kind,record,n,index,pinv_norm,pinv_gap,"
        "nullproj_gap_gauge,nullproj_gap_op,intersection_dim,verdicts,consistent"
    ]
    all_consistent = True
    for family in range(args.trials):
        kind = "in_stratum" if family % 2 == 0 else "jump"
        b = generate.fixed_rank(rng, d, d, r)
        if kind == "in_stratum":
            seq = generate.in_stratum_family(rng, b, 8)
        else:
            b = svd(b)      # serves every jump and the report
            seq = generate.jump_family(b, 8)
        report = strata.continuity_report(b, seq, n0=2, g=g)
        for row in report.rows:
            lines.append(
                f"{family},{kind},data,{row.n},{row.index},"
                f"{_fmt(row.pinv_norm)},{_fmt(row.pinv_gap)},"
                f"{_fmt(row.nullproj_gap_gauge)},{_fmt(row.nullproj_gap_op)},"
                f"{row.intersection_dim},,"
            )
        verdicts = ";".join(
            f"{key}={int(val)}" for key, val in sorted(report.verdicts.items()))
        lines.append(
            f"{family},{kind},summary,,,,,,,,{verdicts},{int(report.consistent)}"
        )
        all_consistent = all_consistent and report.consistent
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all_consistent else EXIT_INCONSISTENT


def _load_function(name: str) -> monotone.MonotoneFunction:
    if name == "sqrt":
        return monotone.make_sqrt()
    if name.startswith("atomic:"):
        return monotone.monotone_from_json(read_json(name[len("atomic:"):]))
    raise PreconditionError(f"unknown function {name!r}")


def cmd_taylor(args) -> int:
    rng = generate.rng_from_seed(args.seed)
    g = GaugeNorm.parse(args.gauge)
    f = _load_function(args.function)
    d = args.dim
    c = generate.positive_definite(rng, d)
    eig = psd_eigh(c)       # serves the radius, f(C) and every Taylor term
    gamma = float(eig.w[0])
    delta = generate.hermitian(rng, d)
    delta *= args.delta_scale * gamma / gauge_norm(delta, g)
    # raises at or beyond the series radius, where the bounds are undefined
    bounds = monotone.taylor_tail_bounds(f, eig, delta, args.mmax, g)
    fc = monotone.matrix_eval_spectral(f, eig)
    target = monotone.matrix_eval_spectral(f, c + delta)
    if f.density == "sqrt":
        terms = monotone.sqrt_taylor_terms(eig, delta, args.mmax)
    else:
        terms = monotone.taylor_terms(f, eig, delta, args.mmax)
    partial = fc.copy()
    # a remainder at the roundoff of the two evaluations passes at any
    # ratio; against a zero bound the ratio is reported as inf
    floor = TAYLOR_ROUNDOFF_REL * float(np.linalg.norm(target))
    lines = ["m,remainder_gauge,bound_gauge,ratio"]
    ok = True
    for m, (term, bound) in enumerate(zip(terms, bounds), start=1):
        partial = partial + term
        remainder = gauge_norm(target - partial, g)
        if bound > 0:
            ratio = remainder / bound
        else:
            ratio = math.inf if remainder > 0 else 0.0
        ok = ok and (ratio <= 1.0 + TAYLOR_RATIO_SLACK or remainder <= floor)
        lines.append(f"{m},{_fmt(remainder)},{_fmt(bound)},{_fmt(ratio)}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if ok else EXIT_INCONSISTENT


def cmd_census(args) -> int:
    rng = generate.rng_from_seed(args.seed)
    g = GaugeNorm.parse(args.gauge)
    d = args.dim
    a = generate.fixed_rank(rng, d, d, max(1, d - 1))
    res_a = svd(a)      # serves the index range, every representative and index
    admissible = strata.index_range(res_a)
    ks = list(range(admissible.k_min, admissible.k_max + 1))
    lines = ["trial,k,pinv_norm,dist_gauge"]
    for trial in range(args.trials):
        k_target = ks[trial % len(ks)]
        rep = strata.stratum_representative(res_a, k_target)
        b = generate.rank_preserving_perturbation(rng, rep, 0.02)
        rb = pinv.moore_penrose(b)
        k = strata.stratum_index(rb, res_a)
        if k != k_target:
            raise ConsistencyError(
                f"census sample landed in stratum {k}, wanted {k_target}")
        lines.append(
            f"{trial},{k},{_fmt(rb.pinv_norm)},{_fmt(gauge_norm(b - a, g))}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _fiber_trial(b, c0, res_a, v0, alpha_res, v_res) -> None:
    """Both charts' round trips at B, each appending ||point.back() - B||_F
    to its list; a trial's matrices are freed when it returns, not kept
    into the next."""
    res_b = polar.polar_decompose(b)    # serves both charts
    alpha_res.append(float(np.linalg.norm(
        polar.trivialize_alpha(res_b, c0, res_a).back() - b)))
    v_res.append(float(np.linalg.norm(polar.trivialize_v(res_b, v0).back() - b)))


def cmd_fiber(args) -> int:
    rng = generate.rng_from_seed(args.seed)
    d = args.dim
    r = max(1, d // 2)
    a = generate.fixed_rank(rng, d, d, r)
    # both charts' base points, from one SVD of A, factorized once per run
    res_a = svd(a)
    c0 = res_a.modulus_eig
    v0 = res_a.polar_factor
    alpha_res, v_res = [], []
    outside = 0
    for _ in range(args.trials):
        b = generate.rank_preserving_perturbation(rng, a, 0.05)
        try:
            _fiber_trial(b, c0, res_a, v0, alpha_res, v_res)
        except OutsideNeighborhoodError:
            outside += 1
    report = {
        "trials": args.trials,
        "outside_chart": outside,
        "alpha_max_residual": max(alpha_res) if alpha_res else 0.0,
        "v_max_residual": max(v_res) if v_res else 0.0,
    }
    _report(report, args)
    worst = max(report["alpha_max_residual"], report["v_max_residual"])
    return EXIT_OK if worst <= ROUND_TRIP_ABS else EXIT_INCONSISTENT


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later
    one: parsing reads the tree and keeps no state between calls.  It holds
    no handler: ``main`` looks up ``cmd_<command>`` in this module when it
    dispatches, so a handler replaced after the first call (a wrapper or a
    test double) is the one that runs."""
    parser = argparse.ArgumentParser(
        prog="pinvlab",
        description="Pseudoinverse and polar-decomposition experiment harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--seed": dict(type=int, default=0),
        "--dim": dict(type=int, default=4),
        "--trials": dict(type=int, default=20),
        "--gauge": dict(default="op", help="op | s1 | s2 | sp:<p> | kyfan:<k>"),
        "--json": dict(action="store_true"),
    }

    def options(sp, *flags):
        """--out, and those of the shared options the subcommand reads."""
        sp.add_argument("--out", default=None)
        for flag in flags:
            sp.add_argument(flag, **shared[flag])

    sp = sub.add_parser("pinv", help="pseudoinverse of a matrix file")
    sp.add_argument("--input", required=True)
    sp.add_argument("--matrix-out", default=None)
    options(sp, "--json")

    sp = sub.add_parser("codim", help="index of a pair of projector files")
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    options(sp, "--json")

    sp = sub.add_parser("stratify", help="stratum index of B relative to A")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    options(sp, "--json")

    sp = sub.add_parser("polar", help="polar decomposition of a matrix file")
    sp.add_argument("--input", required=True)
    sp.add_argument("--matrix-out", default=None)
    options(sp, "--json")

    sp = sub.add_parser("continuity",
                        help="six-condition certification of random families")
    options(sp, "--seed", "--dim", "--trials", "--gauge")

    sp = sub.add_parser("taylor", help="Taylor remainder decay experiment")
    sp.add_argument("--function", default="sqrt",
                    help="sqrt | atomic:<json-file>")
    sp.add_argument("--mmax", type=int, default=6)
    sp.add_argument("--delta-scale", type=float, default=0.3)
    options(sp, "--seed", "--dim", "--gauge")

    sp = sub.add_parser("census", help="stratum histogram of perturbations")
    options(sp, "--seed", "--dim", "--trials", "--gauge")

    sp = sub.add_parser("fiber", help="chart round-trip experiment")
    options(sp, "--seed", "--dim", "--trials", "--json")
    return parser


def _validate(args) -> None:
    if getattr(args, "dim", 1) < 1 or getattr(args, "dim", 1) > 64:
        raise PreconditionError("--dim must be between 1 and 64")
    if getattr(args, "trials", 1) < 1:
        raise PreconditionError("--trials must be at least 1")
    if not 1 <= getattr(args, "mmax", 1) <= 64:
        raise PreconditionError("--mmax must be between 1 and 64")
    GaugeNorm.parse(getattr(args, "gauge", "op"))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        _validate(args)
        return globals()[f"cmd_{args.command}"](args)
    except (PreconditionError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OutsideNeighborhoodError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except PinvLabError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
