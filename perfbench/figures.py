#!/usr/bin/env python3
"""Factorization counts and memory peaks quoted in perfbench/README.md.

    python3 perfbench/figures.py

Counts the dense factorizations of single pinvlab calls at d = 64 with
the benchmark's outside counter, split by linalg entry point so that
the SVDs numpy runs inside ``norm(., 2)`` show apart; shows that two
passes of one round give identical counts on every workload; and
measures the tracemalloc peak of ``riemann_sum`` at p = 8, d = 16.
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.dont_write_bytecode = True

import shutil  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from pinvlab import generate, monotone, polar, strata  # noqa: E402
from pinvlab.matcore import GaugeNorm  # noqa: E402

import probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def counted(call):
    tracer = probe.Tracer()
    tracer.install()
    try:
        with tracer.round(0):
            call()
    finally:
        tracer.uninstall()
    return tracer


def describe(tracer):
    by_kind = Counter()
    hidden = Counter()
    for (entry, kind), n in tracer.entries.items():
        by_kind[kind] += n
        if entry.endswith((".norm", ".matrix_rank", ".cond")):
            hidden[kind] += n
    parts = [f"{n} {kind}" for kind, n in sorted(by_kind.items())]
    extra = ", ".join(f"{n} {kind}" for kind, n in sorted(hidden.items()))
    return " + ".join(parts) + (f"  (of which inside norm/matrix_rank/cond: {extra})"
                                if extra else "")


def main():
    d = 64
    rng = generate.rng_from_seed(0)
    a = generate.fixed_rank(rng, d, d, d // 2)
    b = generate.rank_preserving_perturbation(rng, a, 0.05)
    seq = generate.in_stratum_family(rng, a, 8)
    parts = polar.polar_decompose(a)

    def chart_round_trip():
        mod, fib = polar.trivialize_alpha(b, parts.modulus, a)
        polar.trivialize_alpha_inverse(mod, fib, parts.modulus)

    print(f"factorizations per call at d = {d}:")
    for name, call in (
            ("strata.stratum_index", lambda: strata.stratum_index(b, a)),
            ("strata.continuity_report, 8 terms",
             lambda: strata.continuity_report(a, seq, n0=2, g=GaugeNorm.operator())),
            ("polar.trivialize_alpha round trip", chart_round_trip)):
        print(f"  {name}: {describe(counted(call))}")

    print("two passes of round 1 at seed 0:")
    (HERE.parent / ".perfbench").mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="figures-", dir=HERE.parent / ".perfbench")
    try:
        for wname, cls in WORKLOADS.items():
            workload = cls(0, tmp)
            totals = []
            for _ in range(2):
                ops = workload.round(1)
                tracer = counted(lambda: [op.call() for op in ops])
                totals.append(tracer.total_factorizations())
            print(f"  {wname}: {totals[0]} and {totals[1]} factorizations"
                  f" -> {'identical' if totals[0] == totals[1] else 'DIFFERENT'}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    f = monotone.make_sqrt()
    rng = generate.rng_from_seed(0)
    c = generate.positive_definite(rng, 16)
    dd = generate.positive_definite(rng, 16)
    for p in (7, 8):
        tracemalloc.start()
        try:
            monotone.riemann_sum(f, c, dd, p, 64.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(f"riemann_sum p = {p}, t_max = 64, d = 16: tracemalloc peak "
              f"{peak / 2**20:.1f} MiB")


if __name__ == "__main__":
    main()
