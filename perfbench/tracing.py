"""Span tracing of rwcut's layers, installed from outside the library.

Each wrapper replaces the attribute its callers actually look up: a function
that other rwcut modules import by name is replaced in every rwcut namespace
that holds it, and a method is replaced on its class.  Calls made while no
benchmark operation is open pass straight through, so set-up and correctness
checks are never traced.

A span records (operation id, name, layer, start, end, parent).  Self time is
a span's duration minus the time its children cover.  Per-vertex and
per-matvec calls (``HOT``) get a count and a summed time instead of a span;
that time is charged to their layer and subtracted from the caller's self
time, so the layers' self times always add up to the operation's duration.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("graph", "walks", "threshold", "localcut", "spectral", "solver",
          "bench", "cli")
HARNESS = "op"  # layer of the benchmark's own root span per operation

# (module, attribute) of every public entry point that gets a span.
SPANS = (
    ("graph", "load_graph"),
    ("graph", "WeightedGraph.from_edges"),
    ("graph", "WeightedGraph.induced"),
    ("graph", "cut_value"),
    ("graph", "write_partition"),
    ("graph", "read_partition"),
    ("walks", "WalkAccumulator.extend_to"),
    ("walks", "run_walks"),
    ("walks", "exact_walk_distribution"),
    ("threshold", "find_threshold"),
    ("threshold", "threshold_classify"),
    ("localcut", "cut_or_bound"),
    ("spectral", "trevisan_baseline"),
    ("spectral", "sweep_cut_best"),
    ("solver", "simple_solve"),
    ("solver", "balance_solve"),
    ("solver", "best_tradeoff"),
    ("solver", "tradeoff_objective"),
    ("bench", "gen_planted"),
    ("bench", "greedy_cut"),
    ("bench", "brute_force_maxcut"),
    ("cli", "main"),
)

# Calls too frequent for one span each.
HOT = (
    ("graph", "Tripartition.classify"),
    ("spectral", "LaplacianOperator.apply"),
    ("solver", "h_fn"),
)

_OP, _NAME, _LAYER, _T0, _T1, _PARENT, _CHILD = range(7)


def _cfg_arg(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["cfg"]


def _params_arg(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["params"]


class Tracer:
    """Collects spans, hot-call totals and counters for benchmark operations."""

    def __init__(self):
        self.spans: list[list] = []
        self.hot: dict[tuple[int, str], list] = defaultdict(lambda: [0, 0.0])
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.last_probe_walks = None  # (graph, start, cfg) of a per-length run_walks
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}
        self._hooks = {
            "load_graph": (None, self._after_load),
            "WalkAccumulator.extend_to": (
                lambda a, k: a[0].steps_sampled, self._after_extend),
            "run_walks": (None, self._after_run_walks),
            "find_threshold": (None, self._after_find),
            "cut_or_bound": (None, self._after_probe),
            "h_fn": (lambda a, k: self._h_fn_misses(), self._after_h_fn),
        }

    # -- counters filled in by hooks -----------------------------------------

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[(self.spans[self._stack[0]][_OP], key)] += value

    def _after_load(self, args, kwargs, result, _pre, _dur):
        self.count("graph.load_edges", result.nbr.size // 2)

    def _after_extend(self, args, kwargs, _result, before, _dur):
        self.count("walks.final_steps", args[0].steps_sampled - before)

    def _after_run_walks(self, args, kwargs, _result, _pre, dur):
        cfg = _cfg_arg(args, kwargs)
        if cfg.record_per_length:
            self.count("walks.per_length_steps", cfg.walks * cfg.length)
            self.count("walks.per_length_s", dur)
            self.last_probe_walks = (args[0], args[1], cfg)

    def _after_find(self, args, kwargs, result, _pre, _dur):
        self.count("threshold.find_success", float(result.success))
        self.count("threshold.rounds", result.rounds)
        self.count("threshold.useful_steps",
                   result.walks * _params_arg(args, kwargs).ell)
        self.count("threshold.steps", result.steps)

    def _after_probe(self, args, kwargs, result, _pre, _dur):
        self.count("localcut.cuts", float(hasattr(result, "conductance")))

    def _h_fn_misses(self) -> int:
        return self._originals["h_fn"].cache_info().misses

    def _after_h_fn(self, args, kwargs, _result, before, _dur):
        self.count("solver.h_fn_misses", self._h_fn_misses() - before)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, hot: bool):
        pre, post = self._hooks.get(name, (None, None))
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            before = pre(args, kwargs) if pre else None
            if hot:
                t0 = clock()
                result = fn(*args, **kwargs)
                dur = clock() - t0
                spans[stack[-1]][_CHILD] += dur
                h = self.hot[(spans[stack[0]][_OP], name)]
                h[0] += 1
                h[1] += dur
            else:
                rec = [spans[stack[0]][_OP], name, layer, clock(), 0.0,
                       stack[-1], 0.0]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[_T1] = clock()
                    stack.pop()
                    spans[rec[_PARENT]][_CHILD] += rec[_T1] - rec[_T0]
                dur = rec[_T1] - rec[_T0]
            if post:
                post(args, kwargs, result, before, dur)
            return result

        return wrapper

    @staticmethod
    def _owner(module: str, attr: str):
        mod = sys.modules["rwcut." + module]
        if "." in attr:
            cls_name, name = attr.split(".")
            return getattr(mod, cls_name), name
        return mod, attr

    def install(self) -> None:
        """Replace every traced attribute; undo with restore()."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        namespaces = [m for key, m in sys.modules.items()
                      if key == "rwcut" or key.startswith("rwcut.")]
        for hot, targets in ((False, SPANS), (True, HOT)):
            for module, attr in targets:
                owner, name = self._owner(module, attr)
                if isinstance(owner, type):
                    orig = owner.__dict__[name]
                    self._originals[attr] = orig
                    if isinstance(orig, classmethod):
                        new = classmethod(self._wrap(orig.__func__, attr, module, hot))
                    else:
                        new = self._wrap(orig, attr, module, hot)
                    self._saved.append((owner, name, orig))
                    setattr(owner, name, new)
                    continue
                orig = getattr(owner, name)
                self._originals[attr] = orig
                new = self._wrap(orig, attr, module, hot)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is orig:
                            self._saved.append((ns, key, orig))
                            setattr(ns, key, new)

    def restore(self) -> None:
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved.clear()
        self._originals.clear()

    def saved(self) -> list[tuple[object, str, object]]:
        return list(self._saved)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    @contextmanager
    def op(self, kind: str):
        """Root span of one benchmark operation; all its spans share its id."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        idx = len(self.spans)
        rec = [idx, "op:" + kind, HARNESS, time.perf_counter(), 0.0, -1, 0.0]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[_T1] = time.perf_counter()
            self._stack.pop()

    # -- analysis -------------------------------------------------------------

    def operations(self) -> list[dict]:
        """Per-operation totals: duration, layer self times, per-name times."""
        ops: dict[int, dict] = {}
        for rec in self.spans:
            op_id, name, layer, t0, t1, parent, child = rec
            dur = t1 - t0
            if parent < 0:
                ops[op_id] = {"kind": name[3:], "dur": dur, "layers": defaultdict(float),
                              "names": defaultdict(lambda: [0, 0.0, 0.0]),
                              "hot": {}, "counters": {}}
            op = ops[op_id]
            op["layers"][layer] += dur - child
            entry = op["names"][name]
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child
        for (op_id, name), (calls, secs) in self.hot.items():
            op = ops[op_id]
            op["layers"][name_layer(name)] += secs
            op["hot"][name] = (calls, secs)
        for (op_id, key), value in self.counters.items():
            ops[op_id]["counters"][key] = value
        return list(ops.values())

    def span_records(self) -> list[list]:
        """Spans as [op id, name, layer, start, end, parent] with times in
        seconds since the first span."""
        base = self.spans[0][_T0] if self.spans else 0.0
        return [[r[_OP], r[_NAME], r[_LAYER], r[_T0] - base, r[_T1] - base,
                 r[_PARENT]] for r in self.spans]


def name_layer(name: str) -> str:
    for module, attr in SPANS + HOT:
        if attr == name:
            return module
    return HARNESS
