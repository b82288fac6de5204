"""The three workloads: what one certified round calls, and how it is checked.

A round is a fixed list of operations made at one round seed.  An
operation is one call into pinvlab together with its check; CLI
subcommands run in-process through ``pinvlab.cli.main`` with stdout and
stderr captured in memory.  Inputs the benchmark builds itself come from
numpy generators seeded by the round seed; matrix files read by the
file subcommands are written once at set-up into the run's temporary
directory and used in turn.
"""

from __future__ import annotations

import io
import itertools
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from typing import Callable, NamedTuple

import numpy as np

from pinvlab import cli, generate, monotone, pinv, polar, strata
from pinvlab.matcore import GaugeNorm

import checks

GAUGES = ("op", "s2", "kyfan:2")
POOL = 4                 # matrix-file sets written at set-up, used in turn
DIMS = (8, 32, 64)
LIB_DIM = 32


class Op(NamedTuple):
    name: str
    call: Callable
    check: Callable      # check(output) raises checks.CheckFailed


def round_seed(seed: int, i: int) -> int:
    return seed * 100_003 + i


class CliResult(NamedTuple):
    rc: int
    out: str
    err: str
    payload: object = None   # the --matrix-out file, read back as JSON


def run_cli(*argv, matrix_out=None):
    """pinvlab.cli.main in-process; reports are captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    argv = [str(a) for a in argv]
    if matrix_out:
        argv += ["--matrix-out", matrix_out]
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    payload = read_json(matrix_out) if matrix_out and rc == 0 else None
    return CliResult(rc, out.getvalue(), err.getvalue(), payload)


# ---------------------------------------------------------------------------
# Inputs built apart from pinvlab's generators.


def unitary(rng, n):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def fixed_rank(rng, m, n, r):
    """(A, U, V, s) with A = U[:, :r] diag(s) V[:, :r]*, s in [0.5, 2]."""
    u, v = unitary(rng, m), unitary(rng, n)
    s = np.sort(rng.uniform(0.5, 2.0, r))[::-1]
    return (u[:, :r] * s) @ v[:, :r].conj().T, u, v, s


def psd(rng, n, r):
    return psd_on(rng, unitary(rng, n)[:, :r])


def psd_on(rng, basis):
    """Hermitian PSD matrix with range span(basis), eigenvalues in [0.5, 2]."""
    return (basis * rng.uniform(0.5, 2.0, basis.shape[1])) @ basis.conj().T


def small(rng, n, scale):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * g / np.linalg.norm(g, 2)


def near(rng, x, scale):
    """(I + X) x (I + Y) with ||X|| = ||Y|| = scale: same rank, nearby."""
    m, n = x.shape
    return (np.eye(m) + small(rng, m, scale)) @ x @ (np.eye(n) + small(rng, n, scale))


def near_psd(rng, c, scale):
    x = np.eye(c.shape[0]) + small(rng, c.shape[0], scale)
    h = x @ c @ x.conj().T
    return 0.5 * (h + h.conj().T)


def projector(rng, n, r):
    q = unitary(rng, n)[:, :r]
    return q @ q.conj().T


def write_matrix(path, x):
    x = np.asarray(x, dtype=complex)
    with open(path, "w") as fh:
        json.dump({"rows": x.shape[0], "cols": x.shape[1],
                   "data": [[z.real, z.imag] for z in x.reshape(-1).tolist()]}, fh)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------


class Workload:
    """Base: set-up writes the file pool; round(i) lists the operations."""

    name = ""

    def __init__(self, seed: int, tmp: str):
        self.seed, self.tmp = seed, tmp
        self.rng = np.random.default_rng([seed, 1])
        self.serial = itertools.count()
        self.pool = [self.write_pool(j) for j in range(POOL)]

    def path(self, name):
        """A path in the run's temporary directory; output names are never reused."""
        return os.path.join(self.tmp, name)

    def write_pool(self, j):
        return {}

    def round(self, i: int) -> list:
        raise NotImplementedError


class StrataSweep(Workload):
    name = "strata-sweep"

    def write_pool(self, j):
        rng, d, r = self.rng, LIB_DIM, LIB_DIM // 2
        a = fixed_rank(rng, d, d, r)[0]
        dk = j % 3 - 1                   # B in the strata +1, 0 and -1 of A
        b = near(rng, _rank_moved(a, dk) if dk else a, 0.02)
        p = projector(rng, d, r)
        q = _projector_moved(rng, p, r + dk)
        files = {}
        for key, x in (("a", a), ("b", b), ("p", p), ("q", q)):
            files[key] = self.path(f"pool{j}-{key}.json")
            write_matrix(files[key], x)
        return {"a": a, "b": b, "p": p, "q": q, "files": files}

    def round(self, i):
        s = round_seed(self.seed, i)
        g = GAUGES[i % len(GAUGES)]
        rng = np.random.default_rng(s)
        ops = []
        for d in DIMS:
            ops.append(Op(f"continuity-d{d}",
                          lambda d=d: run_cli("continuity", "--seed", s, "--dim", d,
                                              "--trials", 2, "--gauge", g),
                          lambda out: checks.continuity(out, trials=2)))
            ops.append(Op(f"census-d{d}",
                          lambda d=d: run_cli("census", "--seed", s, "--dim", d,
                                              "--trials", 4, "--gauge", g),
                          lambda out, d=d: checks.census(out, *replay_census(s, d, 4), g)))
        pool = self.pool[i % POOL]
        f = pool["files"]
        out_path = self.path(f"pinv-out-{next(self.serial)}.json")
        ops += [
            Op("cli-pinv",
               lambda: run_cli("pinv", "--input", f["a"], "--json", matrix_out=out_path),
               lambda out: checks.pinv_cli(out, pool["a"])),
            Op("cli-codim", lambda: run_cli("codim", "--p", f["p"], "--q", f["q"], "--json"),
               lambda out: checks.codim_cli(out, pool["p"], pool["q"])),
            Op("cli-stratify",
               lambda: run_cli("stratify", "--a", f["a"], "--b", f["b"], "--json"),
               lambda out: checks.stratify(out, pool["a"], pool["b"])),
        ]

        d, r = LIB_DIM, LIB_DIM // 2
        a, u, v, sv = fixed_rank(rng, d, d, r)
        b0 = near(rng, a, 0.05)
        b_up = near(rng, a + 0.3 * np.outer(u[:, r], v[:, r].conj()), 0.01)
        b_down = near(rng, a - sv[-1] * np.outer(u[:, r - 1], v[:, r - 1].conj()), 0.01)
        xdir = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        ydir = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        tangent = xdir @ b0 - b0 @ ydir
        eps = 1e-3
        ops += [
            Op("local_section_sigma", lambda: strata.local_section_sigma(a, b0),
               lambda out: checks.section(out, a, b0)),
            Op("correct_to_stratum_zero-up", lambda: strata.correct_to_stratum_zero(a, b_up),
               lambda out: checks.correction(out, a, b_up)),
            Op("correct_to_stratum_zero-down",
               lambda: strata.correct_to_stratum_zero(a, b_down),
               lambda out: checks.correction(out, a, b_down)),
            Op("approximate_in_stratum",
               lambda: strata.approximate_in_stratum(b_down, a, 0, eps),
               lambda out: checks.approximation(out, a, b_down, 0, eps)),
            Op("mp_map", lambda: strata.mp_map(b0, a), lambda out: checks.mp_map(out, b0)),
            Op("mp_tangent", lambda: strata.mp_tangent(b0, tangent),
               lambda out: checks.mp_tangent(out, b0, xdir, ydir)),
            Op("wedin_residual", lambda: pinv.wedin_residual(a, b0, GaugeNorm.parse(g)),
               lambda out: checks.wedin(out, a, b0)),
            Op("lipschitz_constant", lambda: pinv.lipschitz_constant(a),
               lambda out: checks.lipschitz(out, a)),
        ]
        return ops


def _rank_moved(a, dk):
    """A matrix near A whose rank differs by dk (+1 or -1)."""
    u, s, vh = np.linalg.svd(a)
    r = int(np.sum(s > checks.RANK_RTOL * s[0]))
    if dk > 0:
        return a + 0.3 * np.outer(u[:, r], vh[r])
    return a - s[r - 1] * np.outer(u[:, r - 1], vh[r - 1])


def _projector_moved(rng, p, rank_q):
    """Projector of rank rank_q near P (a slight rotation of a nearby subspace)."""
    w, q = np.linalg.eigh(p)
    basis, comp = q[:, w > 0.5], q[:, w <= 0.5]
    r = basis.shape[1]
    cols = basis[:, :rank_q] if rank_q <= r else np.hstack([basis, comp[:, : rank_q - r]])
    # a unitary within about 0.02 of the identity keeps every principal
    # angle between the two subspaces either near 0 or near pi/2
    q_near, r_near = np.linalg.qr(np.eye(p.shape[0]) + small(rng, p.shape[0], 0.02))
    near_id = q_near * (np.diag(r_near) / np.abs(np.diag(r_near)))
    cols = near_id @ cols
    return cols @ cols.conj().T


def replay_census(seed, d, trials):
    """Rebuild the census samples from pinvlab's seeded generators."""
    rng = generate.rng_from_seed(seed)
    a = generate.fixed_rank(rng, d, d, max(1, d - 1))
    r = checks.rank(a)
    ks = list(range(-(d - r), r + 1))
    bs = []
    for trial in range(trials):
        rep = strata.stratum_representative(a, ks[trial % len(ks)])
        bs.append(generate.rank_preserving_perturbation(rng, rep, 0.02))
    return a, bs


class MonotoneCalculus(Workload):
    name = "monotone-calculus"
    RIEMANN_P, T_MAX = 7, 64.0
    ATOMS = {"alpha": 0.25, "beta": 0.5, "atoms": [[0.5, 0.4], [3.0, 1.0], [20.0, 2.5]]}

    def __init__(self, seed, tmp):
        self.f = monotone.make_sqrt()
        super().__init__(seed, tmp)
        self.atoms_path = self.path("atoms.json")
        with open(self.atoms_path, "w") as fh:
            json.dump(self.ATOMS, fh)

    def round(self, i):
        s = round_seed(self.seed, i)
        rng = np.random.default_rng(s)
        f = self.f
        ops = [
            Op("taylor-sqrt", lambda: run_cli("taylor", "--seed", s, "--dim", 16,
                                              "--function", "sqrt"), checks.taylor),
            Op("taylor-atomic", lambda: run_cli("taylor", "--seed", s, "--dim", 16,
                                                "--function", "atomic:" + self.atoms_path),
               checks.taylor),
        ]
        spectral = {}
        for d, c in ((8, psd(rng, 8, 6)), (32, psd(rng, 32, 32))):
            def spectral_call(c=c, d=d):
                spectral[d] = monotone.matrix_eval_spectral(f, c)
                return spectral[d]

            def integral_check(out, c=c, d=d):
                checks.sqrt_value(out, c)
                checks.expect(d in spectral, "spectral route failed")
                checks.routes_agree(spectral[d], out)

            ops += [
                Op(f"matrix_eval_spectral-d{d}", spectral_call,
                   lambda out, c=c: checks.sqrt_value(out, c)),
                Op(f"matrix_eval_integral-d{d}",
                   lambda c=c: monotone.matrix_eval_integral(f, c), integral_check),
            ]
        c16 = psd(rng, 16, 16)
        d16 = near_psd(rng, c16, 0.1)
        cs = psd(rng, 8, 6)
        seq = [near_psd(rng, cs, 0.2 * 0.5**k) for k in range(6)]
        p, t_max = self.RIEMANN_P, self.T_MAX
        ops += [
            Op("perturbation_bound", lambda: monotone.perturbation_bound(f, c16, d16),
               lambda out: checks.perturbation(out, c16, d16)),
            Op("riemann_sum", lambda: monotone.riemann_sum(f, c16, d16, p, t_max),
               lambda out: checks.riemann(out, c16, d16, t_max)),
            Op("continuity_in_stratum", lambda: monotone.continuity_in_stratum(f, cs, seq),
               lambda out: checks.stratum_continuity(out, cs, seq)),
        ]
        return ops


class PolarCharts(Workload):
    name = "polar-charts"

    def write_pool(self, j):
        a = fixed_rank(self.rng, LIB_DIM, LIB_DIM, 3 * LIB_DIM // 4)[0]
        path = self.path(f"pool{j}-polar.json")
        write_matrix(path, a)
        return {"a": a, "path": path}

    def round(self, i):
        s = round_seed(self.seed, i)
        rng = np.random.default_rng(s)
        ops = [Op(f"fiber-d{d}",
                  lambda d=d: run_cli("fiber", "--seed", s, "--dim", d, "--trials", 4,
                                      "--json"),
                  lambda out: checks.fiber(out, trials=4)) for d in DIMS]
        pool = self.pool[i % POOL]
        out_path = self.path(f"polar-out-{next(self.serial)}.json")
        ops.append(Op("cli-polar",
                      lambda: run_cli("polar", "--input", pool["path"], "--json",
                                      matrix_out=out_path),
                      lambda out: checks.polar_cli(out, pool["a"])))

        d = LIB_DIM
        c = psd(rng, d, 3 * d // 4)
        c_near = near_psd(rng, c, 0.05)
        v0 = _partial_isometry(fixed_rank(rng, d, d, d // 2)[0])
        v = _partial_isometry(near(rng, v0, 0.05))
        a = fixed_rank(rng, d, d, d // 2)[0]
        b = near(rng, a, 0.05)
        q8 = unitary(rng, 8)
        c8 = psd_on(rng, q8[:, 2:])                         # N(C) = span q8[:, :2]
        d8 = psd_on(rng, q8[:, [0, 1, 4, 5, 6, 7]])         # N(D) = span q8[:, 2:4]
        ops += [
            Op("congruence_witness", lambda: polar.congruence_witness(c, c_near),
               lambda out: checks.congruence(out, c, c_near)),
            Op("positive_section", lambda: polar.positive_section(c, c_near),
               lambda out: checks.positive_section(out, c, c_near)),
            Op("isometry_orbit_witness", lambda: polar.isometry_orbit_witness(v0, v),
               lambda out: checks.orbit(out[0], out[1], v0, v)),
            Op("modulus_map", lambda: polar.modulus_map(b, a),
               lambda out: checks.modulus(out, b)),
            Op("polar_factor_map", lambda: polar.polar_factor_map(b, a).matrix,
               lambda out: checks.polar_factor(out, b)),
            Op("congruence_witness-orthogonal-nulls",
               lambda: polar.congruence_witness(c8, d8),
               lambda out: checks.congruence(out, c8, d8)),
        ]
        return ops


def _partial_isometry(x):
    u, s, vh = np.linalg.svd(x)
    r = int(np.sum(s > checks.RANK_RTOL * s[0]))
    return u[:, :r] @ vh[:r]


WORKLOADS = {w.name: w for w in (StrataSweep, MonotoneCalculus, PolarCharts)}
