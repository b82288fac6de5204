#!/usr/bin/env python3
"""Planted-fault self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Runs round 0 of every workload once, shows that each check accepts the
program's genuine output, then feeds it a deliberately wrong copy of
that output and shows that the check rejects it.  Exits 1 if any
genuine output is rejected or any planted fault is accepted.
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.dont_write_bytecode = True

import copy  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
from pinvlab.strata import GroupPair  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def off_by(x, rel=1e-6):
    return x * (1 + rel)


def with_table(result, edit):
    """Rewrite one CSV/JSON report through edit(lines) -> lines."""
    lines = result.out.splitlines()
    return result._replace(out="\n".join(edit(lines)) + "\n")


def flip_first_verdict(lines):
    i = next(k for k, line in enumerate(lines) if ",summary," in line)
    lines[i] = lines[i].replace("index_zero=1", "index_zero=0", 1) \
        if "index_zero=1" in lines[i] else lines[i].replace("index_zero=0", "index_zero=1", 1)
    return lines


def scale_csv_field(field, rel):
    def edit(lines):
        header = lines[0].split(",")
        cells = lines[1].split(",")
        col = header.index(field)
        cells[col] = repr(float(cells[col]) * (1 + rel))
        lines[1] = ",".join(cells)
        return lines
    return edit


def json_field(key, change):
    def edit(lines):
        rep = json.loads("\n".join(lines))
        rep[key] = change(rep[key])
        return json.dumps(rep).splitlines()
    return edit


def pinv_one_singular_value_off(result):
    x = checks.matrix_from_file_json(result.payload)
    u, s, vh = np.linalg.svd(x)
    s[0] *= 1 + 1e-6
    bad = (u * s) @ vh
    payload = {"rows": bad.shape[0], "cols": bad.shape[1],
               "data": [[z.real, z.imag] for z in bad.reshape(-1).tolist()]}
    return result._replace(payload=payload)


def modulus_shifted(result):
    payload = copy.deepcopy(result.payload)
    mod = payload["modulus"]
    n = mod["cols"]
    for i in range(n):
        mod["data"][i * n + i][0] += 1e-6
    return result._replace(payload=payload)


def taylor_ratio_above_one(lines):
    cells = lines[-1].split(",")
    cells[1] = repr(float(cells[2]) * 1.01)       # remainder = 1.01 * bound
    cells[3] = repr(1.01)
    lines[-1] = ",".join(cells)
    return lines


def drop_smallest_singular_value(x):
    u, s, vh = np.linalg.svd(x)
    s[checks.rank(x) - 1] = 0.0
    return (u * s) @ vh


def riemann_off(report):
    bad = copy.copy(report)
    n = report.value.shape[0]
    bad.value = report.value + 2.0 * (report.bound + 0.1) * np.eye(n)
    return bad


def stratum_gap_off(report):
    bad = copy.deepcopy(report)
    bad.rows[-1].value_gap += 1e-6
    return bad


# The planted fault for each operation, keyed by the operation's name
# without its "-d<dim>" suffix.
PLANTS = {
    "continuity": ("a flipped continuity verdict", lambda r: with_table(r, flip_first_verdict)),
    "census": ("pinv_norm off by 1e-6",
               lambda r: with_table(r, scale_csv_field("pinv_norm", 1e-6))),
    "cli-pinv": ("one singular value of the pseudoinverse off by 1e-6",
                 pinv_one_singular_value_off),
    "cli-codim": ("index off by one",
                  lambda r: with_table(r, json_field("index", lambda v: v + 1))),
    "cli-stratify": ("k_max off by one",
                     lambda r: with_table(r, json_field("k_max", lambda v: v - 1))),
    "local_section_sigma": ("sigma_1 off by 1e-6",
                            lambda p: GroupPair(off_by(p.G), p.K)),
    "correct_to_stratum_zero-up": ("half the correction", lambda c: 0.5 * c),
    "correct_to_stratum_zero-down": ("half the correction", lambda c: 0.5 * c),
    "approximate_in_stratum": ("an approximant one rank short", drop_smallest_singular_value),
    "mp_map": ("B^+ off by 1e-6", off_by),
    "mp_tangent": ("derivative off by 1e-4", lambda t: off_by(t, 1e-4)),
    "wedin_residual": ("residual of 1e-6", lambda v: v + 1e-6),
    "lipschitz_constant": ("constant off by 1e-6", off_by),
    "taylor-sqrt": ("remainder above its bound", lambda r: with_table(r, taylor_ratio_above_one)),
    "taylor-atomic": ("remainder above its bound",
                      lambda r: with_table(r, taylor_ratio_above_one)),
    "matrix_eval_spectral": ("f(C) shifted by 1e-6 I", lambda s: s + 1e-6 * np.eye(len(s))),
    "matrix_eval_integral": ("f(C) shifted by 1e-6 I", lambda s: s + 1e-6 * np.eye(len(s))),
    "perturbation_bound": ("actual off by 1e-6",
                           lambda r: dataclasses.replace(r, actual=off_by(r.actual))),
    "riemann_sum": ("value off by more than bound + tail", riemann_off),
    "continuity_in_stratum": ("a value gap off by 1e-6", stratum_gap_off),
    "fiber": ("a chart round trip off by 1e-6",
              lambda r: with_table(r, json_field("alpha_max_residual", lambda v: 1e-6))),
    "cli-polar": ("modulus shifted by 1e-6 I", modulus_shifted),
    "congruence_witness": ("G off by 1e-6", off_by),
    "positive_section": ("sigma off by 1e-6", off_by),
    "isometry_orbit_witness": ("U off by a phase of 1e-6",
                               lambda uw: (uw[0] * np.exp(1e-6j), uw[1])),
    "modulus_map": ("modulus shifted by 1e-6 I", lambda m: m + 1e-6 * np.eye(len(m))),
    "polar_factor_map": ("V off by 1e-6", off_by),
    "congruence_witness-orthogonal-nulls": ("G off by 1e-6", off_by),
}


def plant_for(op_name):
    return PLANTS[re.sub(r"-d\d+$", "", op_name)]


def main():
    (HERE.parent / ".perfbench").mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=HERE.parent / ".perfbench")
    bad = 0
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(0, tmp)
            ops = workload.round(0)
            for op in ops:
                what, plant = plant_for(op.name)
                out = op.call()
                try:
                    op.check(out)
                except checks.CheckFailed as exc:
                    bad += 1
                    print(f"FAIL {name} {op.name}: genuine output rejected: {exc}")
                    continue
                wrong = plant(out)
                try:
                    op.check(wrong)
                except checks.CheckFailed as exc:
                    print(f"ok   {name} {op.name}: rejects {what} ({exc})")
                else:
                    bad += 1
                    print(f"FAIL {name} {op.name}: accepted {what}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{'all planted faults rejected' if not bad else f'{bad} failures'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
