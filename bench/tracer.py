"""Spans and counters recorded around the package's public entry points.

The tracer wraps names in the modules that call them (for example
``cyclomap.search.BranchMap``), so nothing inside the package changes.
Each call records one span (layer, start, end, parent) in flat arrays; the
arrays stay in memory until the caller aggregates them or writes them out.
A layer's self time is the sum over its spans of the span's duration minus
the durations of its direct child spans.
"""

from __future__ import annotations

import importlib
import time
from array import array

TRACE_MARK = "BENCH-TRACE "  # prefixes the trace record a traced CLI child writes

# (layer, module, attribute path, counter).  Only the binding a caller looks
# up at call time is wrapped, so a layer is never entered twice for one call.
_FAMILIES = ("cbu", "cb0", "ctab", "cta", "ctkuv", "b1", "b2", "b3", "t4", "t5")
LAYER_HOOKS = (
    ("gf.make_field", "cyclomap.search", "field_from_id", "field"),
    ("gf.make_field", "cyclomap.cli", "field_from_id", "field"),
    ("gf.make_field", "cyclomap.cli", "make_field", "field"),
    ("gf.make_field", "cyclomap.unitary", "make_field", "field"),
    ("cyclotomic.branchmap", "cyclomap.search", "BranchMap", None),
    ("mto1.oracle", "cyclomap.search", "branch_map_valid_ms", "points"),
    ("mto1.oracle", "cyclomap.cli", "classify_branch_map", "points"),
    ("mto1.oracle", "cyclomap.cli", "classify_polynomial", "points"),
    ("mto1.oracle", "cyclomap.cli", "classify_wrapped", "points"),
    ("mto1.oracle", "cyclomap.unitary", "classify_wrapped", "points"),
    ("mto1.criterion", "cyclomap.search", "criterion_l2", "verdict"),
    ("mto1.criterion", "cyclomap.search", "criterion_l3", "verdict"),
    ("mto1.criterion", "cyclomap.search", "criterion_2to1_any_l", "verdict"),
    ("mto1.criterion", "cyclomap.search", "criterion_equal_d", "verdict"),
    ("mto1.exceptional", "cyclomap.mto1", "Mto1Report.exceptional_of", None),
    ("unitary.reduce", "cyclomap.unitary", "reduce_to_unit", None),
    ("unitary.criterion", "cyclomap.unitary", "criterion_wrapped", None),
    *(("unitary.family", "cyclomap.unitary", f"family_{f}", None) for f in _FAMILIES),
    ("search.driver", "cyclomap.search", "differential_verify", "cases"),
    ("notation.parse", "cyclomap.cli", "parse_polynomial", None),
    ("notation.parse", "cyclomap.cli", "parse_branches", None),
    ("notation.parse", "cyclomap.cli", "parse_element", None),
    ("cli", "cyclomap.cli", "run", None),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in LAYER_HOOKS))


def _field_key(args, kwargs) -> str:
    """Field id of a make_field(p, n) or field_from_id(id) call."""
    first = args[0] if args else kwargs.get("field_id", kwargs.get("p"))
    if isinstance(first, str):
        return first.strip()
    n = args[1] if len(args) > 1 else kwargs.get("n", 1)
    return str(first) if n == 1 else f"{first}^{n}"


def _points(fn_name, args, kwargs) -> int:
    """Domain points the oracle call enumerates, from its arguments alone."""
    target = args[0]
    if fn_name == "classify_polynomial":
        domain = args[1] if len(args) > 1 else kwargs.get("domain", "fqstar")
        q = target.field.q
        if domain == "fq":
            return q
        if domain == "fqstar":
            return q - 1
        return len(tuple(domain))
    if fn_name == "classify_wrapped":
        return target.field.q - 1
    include_zero = args[1] if len(args) > 1 else kwargs.get("include_zero", False)
    return target.decomp.ctx.order + (1 if include_zero else 0)


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.names = list(LAYERS)
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self.counters = {}
        self.fields = []
        self._installed = []
        self._wrappers = None

    def clear(self):
        """Drop all spans and counts; the wrappers keep writing to the same
        containers, so they are emptied in place."""
        for spans in (self.span_layer, self.span_parent, self.span_start,
                      self.span_end):
            del spans[:]
        self._stack.clear()
        self.counters.clear()
        self.fields.clear()

    def _count(self, key: str, amount: int = 1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, layer: str, fn_name: str, fn, counter):
        layer_id = self._name_id[layer]
        clock = time.perf_counter
        stack = self._stack
        layers, parents = self.span_layer, self.span_parent
        starts, ends = self.span_start, self.span_end
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            layers.append(layer_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                ends[idx] = clock()
                stack.pop()
                if counter == "verdict" and _is_hypothesis_error(exc):
                    tracer._count("mto1.criterion.skipped")
                raise
            ends[idx] = clock()
            stack.pop()
            if counter == "verdict":
                if result.applicable:
                    tracer._count("mto1.criterion.applicable")
            elif counter == "points":
                tracer._count("mto1.oracle.points", _points(fn_name, args, kwargs))
            elif counter == "cases":
                tracer._count("search.cases", result.total_cases)
            elif counter == "field":
                tracer.fields.append(_field_key(args, kwargs))
            return result

        return traced

    def install(self):
        """Replace every hooked binding with its traced wrapper."""
        if self._wrappers is None:
            self._wrappers = []
            for layer, module_name, path, counter in LAYER_HOOKS:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, attr, original, counter)
                self._wrappers.append((owner, attr, original, wrapper))
        for owner, attr, _, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)
        self._installed = self._wrappers

    def uninstall(self):
        for owner, attr, original, _ in self._installed:
            setattr(owner, attr, original)
        self._installed = []

    def aggregate(self) -> dict:
        """Per-layer calls and self seconds, plus the counters."""
        n = len(self.span_start)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            name = self.names[self.span_layer[i]]
            calls[name] += 1
            self_s[name] += ends[i] - starts[i] - child[i]
        return {
            "calls": calls,
            "self_s": self_s,
            "counters": dict(self.counters),
            "fields": list(self.fields),
            "spans": n,
        }

    def span_rows(self, lo: int = 0, hi: int | None = None):
        """(layer, start, end, parent) for spans lo..hi-1; parent counts from lo."""
        hi = len(self.span_start) if hi is None else hi
        for i in range(lo, hi):
            parent = self.span_parent[i]
            yield (
                self.names[self.span_layer[i]],
                self.span_start[i],
                self.span_end[i],
                parent - lo if parent >= 0 else -1,
            )


def _is_hypothesis_error(exc: Exception) -> bool:
    from cyclomap.errors import HypothesisError

    return isinstance(exc, HypothesisError)


def merge_aggregates(parts) -> dict:
    """Sum the aggregates of several traced operations into one."""
    total = {"calls": {}, "self_s": {}, "counters": {}, "fields": [], "spans": 0}
    for part in parts:
        for key in ("calls", "self_s", "counters"):
            for name, value in part[key].items():
                total[key][name] = total[key].get(name, 0) + value
        total["fields"].extend(part["fields"])
        total["spans"] += part["spans"]
    return total
