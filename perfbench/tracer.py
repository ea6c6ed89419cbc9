"""Boundary tracer: spans at every call that crosses from one orbitlab layer
into another, recorded from the benchmark's side without editing the program.

Each layer is one module of the package.  `Tracer.install` wraps the public
module-level functions of every layer module, plus the value-type and kernel
methods listed in `METHODS`, and rebinds each wrapped function in *every*
orbitlab module that imported it by name (`from .seminorms import minkowski`
binds a second reference that patching `seminorms` alone would miss).

A call from inside the same layer opens no new span, so a span's self time is
the time its layer spent between entering and leaving, minus the time covered
by the spans of other layers it called.  Rational bit sizes and argument
shapes are read from arguments and returned values after the span has closed;
that bookkeeping is charged to no layer.  The tracer keeps its spans in memory
and is meant for one thread.
"""

from __future__ import annotations

import inspect
import json
import re
import sys
import time
from collections import defaultdict
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

LAYERS = ("linalg", "simplex", "vectors", "seminorms", "operators", "triangular",
          "transport", "density", "hypercyclic", "scenarios", "serialize", "reports")

# Methods traced besides the public module-level functions: (module, class, names).
METHODS = (
    ("vectors", "_FiniteMap", ("__add__", "__sub__", "__neg__", "scale")),
    ("vectors", "CoordFunctional", ("pair", "__call__")),
    ("operators", "FiniteRankOperator", ("apply", "compose", "matrix_on")),
    ("linalg", "RowReducer", ("residual", "try_add")),
    ("transport", "TransportState", ("budget_used",)),
)

# Metric group of a traced callable; unlisted ones fall back to their layer.
GROUPS = {
    "linalg.solve": "linalg.solve", "linalg.solve_any": "linalg.solve",
    "linalg.nullspace": "linalg.nullspace", "linalg.rank": "linalg.nullspace",
    "linalg.rref": "linalg.nullspace",
    "linalg.invert_matrix": "linalg.invert_matrix",
    "linalg.determinant": "linalg.determinant",
    "linalg.mat_mul": "linalg.mat_mul", "linalg.mat_vec": "linalg.mat_mul",
    "linalg.RowReducer.residual": "linalg.rowreducer",
    "linalg.RowReducer.try_add": "linalg.rowreducer",
    "vectors.CoordFunctional.pair": "vectors.pair",
    "vectors.CoordFunctional.__call__": "vectors.pair",
    "vectors._FiniteMap.__add__": "vectors.arith",
    "vectors._FiniteMap.__sub__": "vectors.arith",
    "vectors._FiniteMap.__neg__": "vectors.arith",
    "vectors._FiniteMap.scale": "vectors.arith",
    "seminorms.minkowski": "seminorms.minkowski",
    "seminorms.separating_functional": "seminorms.separating",
    "operators.invert": "operators.invert",
    "operators.FiniteRankOperator.apply": "operators.apply",
    "operators.FiniteRankOperator.matrix_on": "operators.matrix_on",
    "transport.run_transport": "transport.run",
    "transport.verify_transport": "transport.verify",
    "hypercyclic.build_shift_operator": "hypercyclic.build_shift",
    "hypercyclic.range_kernel_premise_check": "hypercyclic.premise",
    "hypercyclic.transitivity_witness": "hypercyclic.witness",
    "hypercyclic.refute_orbit": "hypercyclic.refute",
    "hypercyclic.build_nonorbit_set": "hypercyclic.refute",
    "reports.emit_report": "reports.emit",
}

RATIONAL = re.compile(r"-?(\d+)(?:/(\d+))?")

# Transport steps: their minkowski calls are the pool scans behind scan_yield.
STEP_FUNCTIONS = ("transport.step_forward", "transport.step_backward")


def rational_bits(value) -> int:
    """Bits of p/q as stored: |p| and q in binary; ints count as p/1."""
    if isinstance(value, Fraction):
        return abs(value.numerator).bit_length() + value.denominator.bit_length()
    if isinstance(value, int) and not isinstance(value, bool):
        return abs(value).bit_length() + 1
    return 0


def max_bits(value, depth: int = 3) -> int:
    """Largest rational bit size inside nested lists/tuples of scalars."""
    if isinstance(value, (list, tuple)):
        if depth == 0:
            return 0
        return max((max_bits(v, depth - 1) for v in value), default=0)
    return rational_bits(value)


def report_bits(blob: bytes) -> int:
    """Largest rational bit size written in an emitted JSON report.

    Rationals appear as numbers and inside strings ("3/2", "1:3/2 4:-1");
    the hex scenario hash is skipped."""
    best = 0

    def walk(value):
        nonlocal best
        if isinstance(value, dict):
            for key, item in value.items():
                if key != "scenario_hash":
                    walk(item)
        elif isinstance(value, list):
            for item in value:
                walk(item)
        elif isinstance(value, str):
            for num, den in RATIONAL.findall(value):
                best = max(best, rational_bits(Fraction(int(num), int(den or 1))))
        else:
            best = max(best, rational_bits(value))

    walk(json.loads(blob))
    return best


def _matrix_dim(args) -> int:
    a = args[0] if args else None
    if isinstance(a, list) and a and isinstance(a[0], list):
        return max(len(a), len(a[0]))
    return 0


class Tracer:
    """Spans and per-group counters for one traced pass (single thread)."""

    def __init__(self):
        self.spans: List[Tuple] = []
        self._stack: List[list] = []
        self._next_id = 1
        self.trace_id = ""
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self._in_step = 0
        self._patched: List[Tuple[object, str, object]] = []
        self._after: Dict[str, Callable] = {
            "simplex.solve_lp": self._after_lp,
            "operators.invert": self._after_invert,
            "triangular.interleave_triangularize": self._after_triangularize,
        }

    # --- installation -------------------------------------------------------

    def install(self, package) -> "Tracer":
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")}
        for layer in LAYERS:
            mod = modules[f"{package.__name__}.{layer}"]
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(fn, layer, f"{layer}.{name}")
                for other in modules.values():
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            self._patch(other, attr, wrapped)
        for layer, cls_name, names in METHODS:
            cls = getattr(modules[f"{package.__name__}.{layer}"], cls_name)
            for name in names:
                fn = cls.__dict__[name]
                self._patch(cls, name, self._wrap(fn, layer, f"{layer}.{cls_name}.{name}"))
        return self

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, wrapped):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    # --- spans ----------------------------------------------------------------

    def _wrap(self, fn, layer: str, qualname: str):
        group = GROUPS.get(qualname, layer)
        after = self._after.get(qualname) or (self._after_linalg if layer == "linalg" else None)
        is_step = qualname in STEP_FUNCTIONS
        is_minkowski = qualname == "seminorms.minkowski"
        stack = self._stack

        def traced(*args, **kwargs):
            if is_step:
                self._in_step += 1
            elif is_minkowski and self._in_step:
                self.counts["transport.scan_minkowski"] += 1
            try:
                if stack and stack[-1][1] == layer:
                    result = fn(*args, **kwargs)
                else:
                    result = self._span(fn, args, kwargs, layer, group, after)
            finally:
                if is_step:
                    self._in_step -= 1
            if is_step:
                self.counts["transport.steps"] += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def _span(self, fn, args, kwargs, layer, group, after):
        clock = time.perf_counter
        entered = clock()
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, layer, 0.0]  # id, layer, time covered by child spans
        stack.append(frame)
        start = clock()
        end = None
        try:
            result = fn(*args, **kwargs)
            end = clock()
            if after is not None:
                after(args, result)
        finally:
            if end is None:
                end = clock()
            stack.pop()
            self.self_s[group] += (end - start) - frame[2]
            self.calls[group] += 1
            self.spans.append((self.trace_id, span_id, parent[0] if parent else 0,
                               group, start, end))
            if parent is not None:
                parent[2] += clock() - entered
        return result

    # --- counters read from arguments and returned values -------------------

    def _bump(self, key: str, value: int):
        if value > self.maxima[key]:
            self.maxima[key] = value

    def _after_linalg(self, args, result):
        self._bump("linalg.max_dim", _matrix_dim(args))
        self._bump("linalg.max_bits", max_bits(result))

    def _after_lp(self, args, result):
        c, a = args[0], args[1]
        self._bump("simplex.max_cells", len(a) * len(c))

    def _after_invert(self, args, result):
        self._bump("operators.invert.max_k", len(args[0].terms))

    def _after_triangularize(self, args, result):
        self._bump("triangular.coeff_bits", max_bits(result.coeffs))
        self._bump("triangular.minor_bits", max_bits(result.minors))

    # --- output ----------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(v for k, v in self.calls.items() if k.split(".")[0] == layer)

    def write_spans(self, path) -> None:
        """One JSON object per span: trace id (scenario), span and parent ids,
        metric group, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as handle:
            for trace_id, span_id, parent_id, group, start, end in self.spans:
                handle.write(json.dumps({"trace": trace_id, "span": span_id,
                                         "parent": parent_id, "name": group,
                                         "start": start, "end": end}) + "\n")

