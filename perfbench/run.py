#!/usr/bin/env python3
"""Certified-round benchmark of pinvlab.

    python3 perfbench/run.py --workload strata-sweep --seed 1 --seconds 30 --trace 0

Runs one workload (or ``all`` of them, in one process) as a closed loop:
one caller runs certified rounds back to back and every operation's
output is checked.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics, writing the spans of the first traced rounds to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Run from anywhere; the pinvlab under test
is the ``src/`` next to this directory.
"""

import os
import sys
import time

# BLAS is pinned to one thread before numpy can load: on a 2-core
# machine two OpenBLAS threads made d = 64 rounds slower and noisier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5               # set-ups per run; setup_s is their median
COUNT_ROUNDS = (1, 2, 3)  # one round per gauge
KEEP_SPAN_ROUNDS = 2
MAX_LOGGED = 10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


class Tally:
    """Attempted and failed operations; a failed check also marks the run incorrect."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        self.logged = 0

    def fail(self, round_id, op, message, wrong_output):
        self.failed += 1
        if wrong_output:
            self.correct = False
        if self.logged < MAX_LOGGED:
            self.logged += 1
            print(f"[round {round_id}] {op}: {message}", file=sys.stderr)


def run_round(workload, i, tally, tracer=None):
    """Run and check every operation of round i; returns the round's seconds."""
    import checks

    t0 = time.perf_counter()
    for op in workload.round(i):
        tally.attempted += 1
        with tracer.op(op.name) if tracer else nullcontext():
            try:
                out = op.call()
            except Exception:
                tally.fail(i, op.name, traceback.format_exc(limit=3), False)
                continue
            with tracer.suspended() if tracer else nullcontext():
                try:
                    op.check(out)
                except checks.CheckFailed as exc:
                    tally.fail(i, op.name, exc, True)
                except Exception:
                    tally.fail(i, op.name, "check could not read the output: "
                               + traceback.format_exc(limit=3), True)
    return time.perf_counter() - t0


def traced_round(workload, i, tally, tracer):
    tracer.install()
    try:
        with tracer.round(i):
            return run_round(workload, i, tally, tracer)
    finally:
        tracer.uninstall()


def set_up(cls, seed, tmp_root, tally):
    """Fresh inputs, files and caches, plus one warm-up round."""
    from pinvlab import monotone

    t0 = time.perf_counter()
    leggauss = getattr(monotone, "_leggauss", None)
    if hasattr(leggauss, "cache_clear"):
        leggauss.cache_clear()       # make_sqrt's first-use cost is set-up cost
    workload = cls(seed, tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    run_round(workload, 0, tally)
    return workload, time.perf_counter() - t0


def timed_loop(seconds, step):
    """Call step(i) for i = 1, 2, ... until `seconds` have passed."""
    start = time.perf_counter()
    i = 1
    while True:
        step(i)
        i += 1
        if time.perf_counter() - start >= seconds:
            return time.perf_counter() - start


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(workload, args, tally, setup_s):
    import probe

    times = []
    elapsed = timed_loop(args.seconds,
                         lambda i: times.append(run_round(workload, i, tally)))

    counted = [probe.Tracer() for _ in COUNT_ROUNDS]
    for i, tracer in zip(COUNT_ROUNDS, counted):
        traced_round(workload, i, tally, tracer)
    again = probe.Tracer()
    traced_round(workload, COUNT_ROUNDS[0], tally, again)
    if again.entries != counted[0].entries:       # the count must repeat exactly
        tally.correct = False
        print(f"factorization counts differ between two passes of round "
              f"{COUNT_ROUNDS[0]}: {counted[0].entries} vs {again.entries}", file=sys.stderr)

    peaks = []
    for i in COUNT_ROUNDS:
        tracemalloc.start()
        try:
            run_round(workload, i, tally)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    print(f"{len(times)} timed rounds in {elapsed:.2f} s", file=sys.stderr)
    return {
        "setup_s": (setup_s, "s"),
        "rounds_per_s": (len(times) / elapsed, "1/s"),
        "round_ms_p50": (1e3 * statistics.median(times), "ms"),
        "round_ms_p90": (1e3 * p90(times), "ms"),
        "factorizations_per_round": (
            sum(t.total_factorizations() for t in counted) / len(COUNT_ROUNDS), "count"),
        "peak_mib": (statistics.median(peaks) / 2**20, "MiB"),
    }


def per_layer(workload, args, tally, out_dir):
    import probe

    tracer = probe.Tracer(keep_rounds=KEEP_SPAN_ROUNDS)
    plain, traced = [], []

    def step(i):
        # odd rounds untraced, even rounds traced: the two sets of round
        # times are paired in time, so their difference is the overhead
        if i % 2:
            plain.append(run_round(workload, i, tally))
        else:
            traced.append(traced_round(workload, i, tally, tracer))

    timed_loop(args.seconds, step)
    if not traced:
        step(2)

    memory = probe.Tracer(track_memory=True)
    tracemalloc.start()
    try:
        traced_round(workload, COUNT_ROUNDS[0], tally, memory)
    finally:
        tracemalloc.stop()

    round_ms = 1e3 * tracer.round_seconds / tracer.rounds
    self_sum_ms = 1e3 * sum(tracer.layer_self.values()) / tracer.rounds
    if abs(self_sum_ms - round_ms) > 1e-6 * round_ms:
        tally.correct = False
        print(f"layer self times {self_sum_ms} ms != round {round_ms} ms", file=sys.stderr)
    metrics = tracer.layer_metrics()
    metrics.update({
        "monotone.peak_mib": (memory.monotone_peak / 2**20, "MiB"),
        "trace.round_ms": (round_ms, "ms"),
        "trace.self_sum_ms": (self_sum_ms, "ms"),
        "trace.round_ms_p50": (1e3 * statistics.median(traced), "ms"),
        "trace.untraced_round_ms_p50": (1e3 * statistics.median(plain), "ms"),
        "trace.overhead_ms": (1e3 * (statistics.median(traced) - statistics.median(plain)),
                              "ms"),
    })
    write_spans(tracer, out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl")
    return metrics


def write_spans(tracer, path):
    t0 = tracer.spans[0][2] if tracer.spans else 0.0
    with open(path, "w") as fh:
        for name, layer, start, end, parent, round_id in tracer.spans:
            fh.write(json.dumps({"name": name, "layer": layer,
                                 "start_ms": 1e3 * (start - t0), "end_ms": 1e3 * (end - t0),
                                 "parent": parent, "round": round_id}) + "\n")


def run_workload(cls, args, import_s, out_dir):
    tally = Tally()
    tmp_root = Path(tempfile.mkdtemp(prefix="tmp-", dir=out_dir))
    try:
        setups = [set_up(cls, args.seed, tmp_root, tally) for _ in range(SETUPS)]
        workload = setups[-1][0]
        setup_s = import_s + statistics.median(s for _, s in setups)
        # the heap built so far (numpy, scipy, the harness) is the
        # benchmark's: keep full collections from rescanning it each round
        gc.collect()
        gc.freeze()
        if args.trace:
            metrics = per_layer(workload, args, tally, out_dir)
        else:
            metrics = end_to_end(workload, args, tally, setup_s)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    return tally, metrics


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "pinvlab" / "__init__.py").is_file():
        print(f"error: no pinvlab sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    t0 = time.perf_counter()
    import pinvlab
    import_s = time.perf_counter() - t0
    if Path(pinvlab.__file__).resolve().parent != (src / "pinvlab").resolve():
        print(f"error: imported pinvlab from {pinvlab.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: workload must be one of {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        tally, metrics = run_workload(WORKLOADS[name], args, import_s, out_dir)
        print(f"# {name}: attempted {tally.attempted}, failed {tally.failed}, "
              f"correct {tally.correct}")
        for key, (value, unit) in sorted(metrics.items()):
            print(f"{name} {key} = {value:.6g} {unit}")
            label = key if len(names) == 1 else f"{name}.{key}"
            result["metrics"][label] = {"value": value, "unit": unit}
        result["correct"] = result["correct"] and tally.correct
        result["attempted"] += tally.attempted
        result["failed"] += tally.failed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
