#!/usr/bin/env python3
"""Digest the pinvlab CLI's output over a fixed run matrix.

    python3 tools/cli_digest.py <src-dir> > digest.txt

Imports ``pinvlab`` from ``<src-dir>`` and runs the CLI in-process, at
seeds 0-4, over: ``continuity`` and ``census`` at d = 8, 32, 64 with the
gauges op, s2 and kyfan:2; ``taylor`` of sqrt at d = 4, 16 and of an
atomic function at d = 16; ``fiber --json`` at d = 4, 8, 16, 32, 64; and
``pinv``, ``polar``, ``stratify`` and ``codim`` on matrix files drawn
here with numpy, ``pinv`` and ``polar`` with ``--matrix-out`` on a
square, a tall and a wide input.  ``codim`` also runs once on each of
the inputs in ``CODIM_EDGES``, which it refuses but for the zero matrix,
read as a projector of rank 0, ``stratify`` on each pair of
``STRATIFY_EDGES``, whose shapes differ, and ``taylor`` at seed 0 and
d = 4 on each function file of ``BAD_ATOMS``, whose alpha or beta is not
finite, and with ``--mmax`` 64, the largest order it takes, and 65,
which it refuses.  Each run prints one line: the argv, the exit code and
the first 16 hex digits of the sha256 of its stdout, of its stderr and,
where it writes one, of its matrix file.  The input files are the same
for every tree, so two trees give the same output exactly when ``diff``
of their digests is empty.
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.dont_write_bytecode = True

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

SEEDS = range(5)
GAUGES = ("op", "s2", "kyfan:2")
ATOMS = {"alpha": 0.25, "beta": 0.5, "atoms": [[0.5, 0.4], [3.0, 1.0], [20.0, 2.5]]}
# taylor's non-finite representation data, written as the NaN and Infinity
# literals that Python's json reads
BAD_ATOMS = {"nan-alpha": {**ATOMS, "alpha": float("nan")},
             "inf-beta": {**ATOMS, "beta": float("inf")}}
MATRIX_OUT = "matrix-out.json"
# codim's edge inputs: rectangular, not idempotent, idempotent but not
# Hermitian, two whose P^2 overflows unscaled, and the zero projector
CODIM_EDGES = {
    "rect": np.ones((2, 3)),
    "diag20": np.diag([2.0, 0.0]),
    "oblique": np.array([[1.0, 1.0], [0.0, 0.0]]),
    "huge-upper": 1e200 * np.array([[1.0, 1.0], [0.0, 1.0]]),
    "huge-sym": 1e200 * np.array([[1.0, 1.0], [1.0, -1.0]]),
    "zero4": np.zeros((4, 4)),
}
# stratify's mismatched operands: a 4x4 A against a 3x3 and a 4x5 B
STRATIFY_EDGES = {
    "a4": np.diag([3.0, 2.0, 1.0, 0.0]),
    "b3": np.eye(3),
    "b45": np.ones((4, 5)),
}


def write_matrix(path, x):
    flat = np.asarray(x, dtype=complex).reshape(-1)
    with open(path, "w") as fh:
        json.dump({"rows": x.shape[0], "cols": x.shape[1],
                   "data": [[z.real, z.imag] for z in flat]}, fh)


def fixed_rank(rng, m, n, r):
    x = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
    y = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
    return x @ y


def projector(rng, n, r):
    q, _ = np.linalg.qr(rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r)))
    return q @ q.conj().T


def input_files(tmp, seed):
    """Matrix files for the file-reading subcommands; names relative to tmp."""
    rng = np.random.default_rng(1000 + seed)
    d = 6
    a = fixed_rank(rng, d, d, 4)
    files = {
        "a": a,
        "b": a + 0.05 * fixed_rank(rng, d, d, 1 + seed % 3),
        "p": projector(rng, d, 3),
        "q": projector(rng, d, 2 + seed % 3),
        "rect": fixed_rank(rng, d + 2, d, 3),
        # drawn last, so the files above stay as they were; wide, so |A| is
        # built from singular values zero-padded to n
        "wide": fixed_rank(rng, d, d + 2, 3),
    }
    for name, x in files.items():
        write_matrix(tmp / f"{name}{seed}.json", x)


def runs():
    for seed in SEEDS:
        for cmd in ("continuity", "census"):
            for d in (8, 32, 64):
                for g in GAUGES:
                    yield [cmd, "--seed", seed, "--dim", d, "--gauge", g]
        for d in (4, 16):
            yield ["taylor", "--seed", seed, "--dim", d, "--function", "sqrt"]
        yield ["taylor", "--seed", seed, "--dim", 16, "--function", "atomic:atoms.json"]
        for d in (4, 8, 16, 32, 64):
            yield ["fiber", "--seed", seed, "--dim", d, "--json"]
        for name in ("a", "rect", "wide"):
            for cmd in ("pinv", "polar"):
                yield [cmd, "--input", f"{name}{seed}.json", "--json",
                       "--matrix-out", MATRIX_OUT]
        yield ["stratify", "--a", f"a{seed}.json", "--b", f"b{seed}.json", "--json"]
        yield ["codim", "--p", f"p{seed}.json", "--q", f"q{seed}.json", "--json"]
    for name in CODIM_EDGES:
        yield ["codim", "--p", f"codim-{name}.json", "--q", f"codim-{name}.json", "--json"]
    for name in ("b3", "b45"):
        yield ["stratify", "--a", "stratify-a4.json", "--b", f"stratify-{name}.json", "--json"]
    for name in BAD_ATOMS:
        yield ["taylor", "--seed", 0, "--dim", 4, "--function", f"atomic:atoms-{name}.json"]
    for mmax in (64, 65):
        yield ["taylor", "--seed", 0, "--dim", 4, "--mmax", mmax]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def matrix_file_digest(args) -> list:
    """["file=<sha>"] for a run that writes --matrix-out, which is then removed."""
    if MATRIX_OUT not in args:
        return []
    path = Path(MATRIX_OUT)
    text = path.read_text() if path.exists() else ""
    path.unlink(missing_ok=True)
    return [f"file={sha(text)}"]


def main(argv):
    if len(argv) != 1:
        print("usage: python3 tools/cli_digest.py <src-dir>", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[0]).resolve()))
    from pinvlab import cli

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for seed in SEEDS:
            input_files(tmp, seed)
        for prefix, edges in (("codim", CODIM_EDGES), ("stratify", STRATIFY_EDGES)):
            for name, x in edges.items():
                write_matrix(tmp / f"{prefix}-{name}.json", x)
        (tmp / "atoms.json").write_text(json.dumps(ATOMS))
        for name, atoms in BAD_ATOMS.items():
            (tmp / f"atoms-{name}.json").write_text(json.dumps(atoms))
        cwd = os.getcwd()
        os.chdir(tmp)       # file arguments are relative, so no path shows in output
        try:
            for run in runs():
                args = [str(x) for x in run]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(args)
                print(" ".join(args), f"exit={code}",
                      f"stdout={sha(out.getvalue())}", f"stderr={sha(err.getvalue())}",
                      *matrix_file_digest(args), flush=True)
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
