"""Outside instrumentation of pinvlab: factorization counts and layer spans.

Nothing here edits pinvlab.  ``Tracer.install`` replaces every public
pinvlab function and method, in every module namespace that binds it,
by a wrapper that records a span; it also wraps the dense-factorization
entry points of ``numpy.linalg`` and ``scipy.linalg``.  ``uninstall``
puts every original back, so untraced passes run the program untouched.

Spans are recorded only inside a round (``Tracer.round``) and only while
the tracer is not suspended; the benchmark suspends it around its own
checks, so a check that replays a pinvlab generator counts nothing.
A linalg call is counted when its caller is a pinvlab function: it is
attributed to the layer of the innermost enclosing pinvlab span.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
import tracemalloc
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np
import numpy.linalg
import scipy.linalg

PINVLAB_MODULES = ("matcore", "pinv", "codim", "strata", "monotone", "polar",
                   "generate", "cli")

# Named groups whose inclusive time is summed over their outermost spans.
GROUPS = {
    "matcore.matrix_to_json": "matcore.json", "matcore.matrix_from_json": "matcore.json",
    "matcore.save_matrix": "matcore.json", "matcore.load_matrix": "matcore.json",
    "strata.stratum_index": "strata.stratum_index",
    "strata.continuity_report": "strata.continuity_report",
    "monotone.matrix_eval_spectral": "monotone.matrix_eval_spectral",
    "monotone.matrix_eval_integral": "monotone.matrix_eval_integral",
    "monotone.taylor_term": "monotone.taylor_term",
    "monotone.riemann_sum": "monotone.riemann_sum",
    "polar.trivialize_alpha": "polar.chart", "polar.trivialize_alpha_inverse": "polar.chart",
    "polar.trivialize_v": "polar.chart", "polar.trivialize_v_inverse": "polar.chart",
    "polar.congruence_witness": "polar.witness", "polar.positive_section": "polar.witness",
    "polar.isometry_orbit_witness": "polar.witness", "polar.aligning_unitary": "polar.witness",
}
CHART_MAPS = ("polar.trivialize_alpha", "polar.trivialize_v")


def _group(name, layer):
    return "generate" if layer == "generate" else GROUPS.get(name)


# ---------------------------------------------------------------------------
# What each linalg entry point factorizes, and how many matrices.


def _stack(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-2])) if len(shape) >= 2 else 0


def _fixed(kind):
    return lambda args, kwargs: (kind, _stack(args[0]) if args else 0)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _norm(args, kwargs):
    # the SVD numpy runs inside norm(., 2 | -2 | 'nuc') counts as one SVD
    ord_ = _arg(args, kwargs, 1, "ord")
    if ord_ not in (2, -2, "nuc"):
        return None, 0
    shape = np.shape(args[0])
    axis = _arg(args, kwargs, 2, "axis")
    if axis is None:
        return ("svd", 1) if len(shape) == 2 else (None, 0)
    if isinstance(axis, tuple) and len(axis) == 2:
        return "svd", int(np.prod(shape)) // (shape[axis[0]] * shape[axis[1]])
    return None, 0


def _matrix_norm(args, kwargs):
    if kwargs.get("ord", "fro") not in (2, -2, "nuc"):
        return None, 0
    return "svd", _stack(args[0])


def _cond(args, kwargs):
    p = _arg(args, kwargs, 1, "p")
    return ("svd" if p in (None, 2, -2) else "inv"), _stack(args[0])


def _pinv(args, kwargs):
    return ("eigh" if kwargs.get("hermitian") else "svd"), _stack(args[0])


LINALG = {
    numpy.linalg: {
        "svd": _fixed("svd"), "svdvals": _fixed("svd"), "pinv": _pinv,
        "lstsq": _fixed("svd"), "matrix_rank": _fixed("svd"), "norm": _norm,
        "matrix_norm": _matrix_norm, "cond": _cond,
        "eigh": _fixed("eigh"), "eigvalsh": _fixed("eigh"),
        "eig": _fixed("eig"), "eigvals": _fixed("eig"),
        "qr": _fixed("qr"), "inv": _fixed("inv"), "solve": _fixed("solve"),
        "det": _fixed("lu"), "slogdet": _fixed("lu"), "cholesky": _fixed("cholesky"),
    },
    scipy.linalg: {
        "svd": _fixed("svd"), "svdvals": _fixed("svd"), "pinv": _fixed("svd"),
        "lstsq": _fixed("svd"), "polar": _fixed("svd"), "orth": _fixed("svd"),
        "null_space": _fixed("svd"), "norm": _norm,
        "eigh": _fixed("eigh"), "eigvalsh": _fixed("eigh"), "pinvh": _fixed("eigh"),
        "eig": _fixed("eig"), "eigvals": _fixed("eig"), "schur": _fixed("eig"),
        "sqrtm": _fixed("eig"), "logm": _fixed("eig"), "funm": _fixed("eig"),
        "qr": _fixed("qr"), "rq": _fixed("qr"), "inv": _fixed("inv"),
        "solve": _fixed("solve"), "lu": _fixed("lu"), "lu_factor": _fixed("lu"),
        "det": _fixed("lu"), "cholesky": _fixed("cholesky"),
        "cho_factor": _fixed("cholesky"),
    },
}
LINALG_KINDS = ("svd", "eigh", "qr", "inv", "solve")


class _Frame:
    __slots__ = ("name", "layer", "start", "child", "index", "group")

    def __init__(self, name, layer, start, index, group):
        self.name, self.layer, self.start = name, layer, start
        self.child, self.index, self.group = 0.0, index, group


class Tracer:
    """Records spans, per-name call counts and factorization counts.

    Aggregates are updated when a span closes, so memory does not grow
    with the run; spans themselves are kept for the first
    ``keep_rounds`` rounds only, for writing out at the end.
    With ``track_memory`` the tracemalloc peak of each outermost
    monotone span is recorded (tracemalloc must be running).
    """

    def __init__(self, keep_rounds: int = 0, track_memory: bool = False):
        self.keep_rounds = keep_rounds
        self.track_memory = track_memory
        self.rounds = 0
        self.round_seconds = 0.0
        self.calls = Counter()
        self.raised = Counter()
        self.extra = Counter()           # quadrature nodes, Riemann cells
        self.layer_self = defaultdict(float)
        self.group_seconds = defaultdict(float)
        self.group_depth = Counter()
        self.factorizations = Counter()  # by attributed layer
        self.linalg = Counter()          # by factorization kind
        self.entries = Counter()         # by (linalg entry point, kind)
        self.monotone_peak = 0
        self.spans = []
        self.n_spans = 0
        self._stack = []
        self._suspended = 0
        self._round_id = -1
        self._mem_base = 0
        self._saved = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name, layer):
        group = _group(name, layer)
        if group is not None:
            self.group_depth[group] += 1
            if self.group_depth[group] > 1:
                group = None        # only outermost spans of a group are summed
            elif group == "generate":
                self.extra["generate_entries"] += 1
        if (self.track_memory and layer == "monotone"
                and self._stack[-1].layer != "monotone"):
            tracemalloc.reset_peak()
            self._mem_base = tracemalloc.get_traced_memory()[0]
        index = None
        if self.rounds < self.keep_rounds:
            index = len(self.spans)
            parent = self._stack[-1].index if self._stack else None
            self.spans.append([name, layer, 0.0, 0.0, parent, self._round_id])
        self.calls[name] += 1
        self.n_spans += 1
        self._stack.append(_Frame(name, layer, time.perf_counter(), index, group))

    def _exit(self):
        end = time.perf_counter()
        frame = self._stack.pop()
        dur = end - frame.start
        self.layer_self[frame.layer] += dur - frame.child
        if self._stack:
            self._stack[-1].child += dur
        group = _group(frame.name, frame.layer)
        if group is not None:
            self.group_depth[group] -= 1
            if frame.group is not None:
                self.group_seconds[group] += dur
        if (self.track_memory and frame.layer == "monotone"
                and self._stack[-1].layer != "monotone"):
            peak = tracemalloc.get_traced_memory()[1] - self._mem_base
            self.monotone_peak = max(self.monotone_peak, peak)
        if frame.index is not None:
            self.spans[frame.index][2:4] = [frame.start, end]
        return dur

    @contextmanager
    def round(self, round_id: int):
        """Root span of one round; the benchmark's own work is layer 'bench'."""
        self._round_id = round_id
        self._enter("round", "bench")
        try:
            yield
        finally:
            self.round_seconds += self._exit()
            self.rounds += 1
            self._round_id = -1

    @contextmanager
    def op(self, name: str):
        self._enter("op:" + name, "bench")
        try:
            yield
        finally:
            self._exit()

    @contextmanager
    def suspended(self):
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    def _active(self) -> bool:
        return bool(self._stack) and not self._suspended

    # -- wrappers ----------------------------------------------------------

    def _wrap_function(self, fn, name, layer):
        tracer = self
        hook = _HOOKS.get(name)
        if hook is not None:
            hook = hook(inspect.signature(fn))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._active():
                return fn(*args, **kwargs)
            if hook is not None:
                args, kwargs = hook(tracer, args, kwargs)
            tracer._enter(name, layer)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer.raised[name, type(exc).__name__] += 1
                raise
            finally:
                tracer._exit()
        return wrapper

    def _wrap_linalg(self, fn, name, kind_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._active():
                return fn(*args, **kwargs)
            caller = tracer._stack[-1].layer
            if caller in ("bench", "linalg"):
                # the benchmark's own calls, and calls nested in another
                # linalg entry point, are neither counted nor spanned
                return fn(*args, **kwargs)
            kind, n = kind_of(args, kwargs)
            if kind is not None and n:
                tracer.linalg[kind] += n
                tracer.entries[name, kind] += n
                tracer.factorizations[caller] += n
            tracer._enter(name, "linalg")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()
        return wrapper

    def install(self):
        """Wrap pinvlab and the linalg entry points; idempotent per tracer."""
        if self._saved:
            return
        import pinvlab

        modules = [getattr(pinvlab, m) for m in PINVLAB_MODULES] + [pinvlab]
        wrapped = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__.startswith("pinvlab.")):
                    if id(obj) not in wrapped:
                        layer = obj.__module__.rsplit(".", 1)[1]
                        wrapped[id(obj)] = self._wrap_function(
                            obj, f"{layer}.{obj.__name__}", layer)
                    self._replace(mod, attr, obj, wrapped[id(obj)])
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj)
        for mod, table in LINALG.items():
            prefix = mod.__name__.replace("numpy", "np").replace("scipy.linalg", "sp")
            for attr, kind_of in table.items():
                orig = getattr(mod, attr, None)
                if orig is not None:
                    self._replace(mod, attr, orig, self._wrap_linalg(
                        orig, f"{prefix}.{attr}", kind_of))

    def _wrap_class(self, cls):
        layer = cls.__module__.rsplit(".", 1)[1]
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap_function(raw.__func__, name, layer))
            elif isinstance(raw, types.FunctionType):
                new = self._wrap_function(raw, name, layer)
            else:
                continue
            self._replace(cls, attr, raw, new)

    def _replace(self, owner, attr, orig, new):
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []

    # -- results -----------------------------------------------------------

    def total_factorizations(self) -> int:
        return sum(self.factorizations.values())

    def layer_metrics(self) -> dict:
        """Per-round layer metrics, as name -> (value, unit)."""
        r = max(self.rounds, 1)
        c, ms = self.calls, 1e3 / r

        def calls(*names):
            return sum(c[n] for n in names) / r

        attempts = calls(*CHART_MAPS) * r
        outside = sum(v for (n, e), v in self.raised.items()
                      if n in CHART_MAPS and e == "OutsideNeighborhoodError")
        out = {}
        for layer in ("cli", "matcore", "pinv", "codim", "strata", "monotone",
                      "polar", "generate", "bench"):
            out[f"{layer}.self_ms"] = (self.layer_self[layer] * ms, "ms")
        for layer in ("cli", "matcore", "pinv", "codim", "strata", "monotone",
                      "polar", "generate"):
            out[f"{layer}.factorizations"] = (self.factorizations[layer] / r, "count")
        for kind in LINALG_KINDS:
            out[f"linalg.{kind}"] = (self.linalg[kind] / r, "count")
        out["linalg.other"] = (sum(v for k, v in self.linalg.items()
                                   if k not in LINALG_KINDS) / r, "count")
        out["linalg.ms"] = (self.layer_self["linalg"] * ms, "ms")
        for group in sorted(set(GROUPS.values())) + ["generate"]:
            key = "matcore.json_ms" if group == "matcore.json" else f"{group}.ms"
            out[key] = (self.group_seconds[group] * ms, "ms")
        out.update({
            "cli.calls": (calls("cli.main"), "count"),
            "matcore.svd.calls": (calls("matcore.svd"), "count"),
            "matcore.eigh.calls": (calls("matcore.eigh"), "count"),
            "matcore.gauge_norm.calls": (calls("matcore.gauge_norm"), "count"),
            "pinv.moore_penrose.calls": (calls("pinv.moore_penrose"), "count"),
            "codim.projector_eigh.calls": (calls(
                "codim.Projector.rank", "codim.Projector.basis",
                "codim.Projector.complement_basis"), "count"),
            "codim.essential_codimension.calls": (
                calls("codim.essential_codimension"), "count"),
            "codim.conjugating_unitary.calls": (
                calls("codim.conjugating_unitary"), "count"),
            "codim.rotation_fallbacks": (calls("codim.basis_matching_unitary"), "count"),
            "strata.stratum_index.calls": (calls("strata.stratum_index"), "count"),
            "monotone.quadrature_calls": (calls("monotone.measure_integral"), "count"),
            "monotone.quadrature_nodes": (self.extra["nodes"] / r, "count"),
            "monotone.scalar_eval.calls": (calls("monotone.scalar_eval"), "count"),
            "monotone.riemann_cells": (self.extra["riemann_cells"] / r, "count"),
            "polar.polar_decompose.calls": (calls("polar.polar_decompose"), "count"),
            "polar.chart_in_domain": (
                (attempts - outside) / attempts if attempts else 1.0, "ratio"),
            "generate.calls": (self.extra["generate_entries"] / r, "count"),
            "trace.spans": (self.n_spans / r, "count"),
        })
        return out


# ---------------------------------------------------------------------------
# Argument hooks for the counters that need a call's arguments.


def _count_nodes(sig):
    def hook(tracer, args, kwargs):
        bound = sig.bind(*args, **kwargs)
        fn = bound.arguments["fn"]

        def counted(t):
            tracer.extra["nodes"] += int(np.size(t))
            return fn(t)
        bound.arguments["fn"] = counted
        return bound.args, bound.kwargs
    return hook


def _count_cells(sig):
    def hook(tracer, args, kwargs):
        bound = sig.bind(*args, **kwargs)
        p, t_max = bound.arguments["p"], bound.arguments["t_max"]
        if p >= 0 and t_max > 0:
            tracer.extra["riemann_cells"] += math.ceil(t_max * 2.0**p)
        return args, kwargs
    return hook


_HOOKS = {
    "monotone.measure_integral": _count_nodes,
    "monotone.riemann_sum": _count_cells,
}
