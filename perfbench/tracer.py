"""Spans, call counts, graph sizes and memory peaks for the traced run.

All measurement happens at boundaries in the benchmark's own files.  The
workloads open spans around their calls into stlmask, and a tracer's ``op()``
swaps a few stlmask module attributes for wrappers while a traced op runs:
the engine entry points and ``tape.backward`` open spans, the tape
primitives count calls.  stlmask itself is not modified; the originals are
restored when the op ends.  Every stlmask module calls these functions
through the module attribute (``tape.take_last``, ``masking.trace_var``) or
as a global of the module that defines them, so the wrappers see every call.

Four tracers share one interface (``op``, ``span``, ``spec``):

* ``NullTracer`` does nothing; untraced ops use it.
* ``Tracer`` records spans and primitive counts in memory.
* ``Census`` counts graph nodes; ``MemoryTracer`` takes tracemalloc peaks.
  Both run one extra op after the timed phase, because walking graphs and
  tracing allocations would distort the timings.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from collections import Counter, defaultdict

from stlmask import masking, recurrent, tape

_NULL = contextlib.nullcontext()

#: (module, attribute, span name) of the layer entry points timed by wrappers.
LAYER_CALLS = (
    (masking, "trace_var", "masking.fwd"),
    (recurrent, "trace_var_recurrent", "recurrent.fwd"),
    (tape, "backward", "tape.backward"),
)

#: tape primitive -> counter name; take_last is also timed.
PRIMITIVES = {
    "take_last": "take_last",
    "hard_max": "hard_max",
    "smooth_max": "smooth_max",
    "pair_smooth_max": "pair_smooth",
    "pair_smooth_min": "pair_smooth",
}


class NullTracer:
    """Hooks of an untraced op: all no-ops."""

    def op(self, op_id):
        return _NULL

    def span(self, name):
        return _NULL

    def spec(self, tag):
        return _NULL


@contextlib.contextmanager
def _patched(pairs):
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in pairs]
    try:
        for mod, attr, wrapper in pairs:
            setattr(mod, attr, wrapper)
        yield
    finally:
        for mod, attr, original in saved:
            setattr(mod, attr, original)


class Tracer(NullTracer):
    """Spans and primitive counters, kept in memory until the run ends.

    A span is ``[name, tag, start, end, parent, op]`` where ``parent`` is the
    index of the enclosing span (``None`` at the top of an op) and ``tag``
    names the spec whose work it belongs to.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.calls: dict[int, Counter] = defaultdict(Counter)
        self.prim_s: dict[int, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._tag = None
        self._op = None

    @contextlib.contextmanager
    def op(self, op_id):
        self._op = op_id
        wrappers = [(m, a, self._layer(getattr(m, a), n)) for m, a, n in LAYER_CALLS]
        wrappers += [(tape, a, self._primitive(getattr(tape, a), n)) for a, n in PRIMITIVES.items()]
        try:
            with _patched(wrappers):
                yield
        finally:
            self._op = None

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [name, self._tag, time.perf_counter(), None, parent, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def spec(self, tag):
        prev, self._tag = self._tag, tag
        try:
            yield
        finally:
            self._tag = prev

    def _layer(self, fn, name):
        def wrapper(*args, **kwargs):
            # recursion and call-site spans of the same layer stay one span
            if self._stack and self.spans[self._stack[-1]][0] == name:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _primitive(self, fn, name):
        timed = name == "take_last"

        def wrapper(*args, **kwargs):
            self.calls[self._op][name] += 1
            if not timed:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.prim_s[self._op][name] += time.perf_counter() - start
        return wrapper

    def op_summary(self, op_id, latency_s: float) -> dict:
        """Per-op sums: seconds by span name and by (name, tag), self time, coverage."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[5] == op_id]
        child_s = Counter()
        for _, s in spans:
            if s[4] is not None:
                child_s[s[4]] += s[3] - s[2]
        by_name, by_tag, self_s = Counter(), Counter(), Counter()
        top = 0.0
        for i, s in spans:
            dur = s[3] - s[2]
            by_name[s[0]] += dur
            by_tag[(s[0], s[1])] += dur
            # single-threaded: children never overlap, so their sum is their coverage
            self_s[s[0]] += dur - child_s[i]
            if s[4] is None:
                top += dur
        return {"by_name": by_name, "by_tag": by_tag, "self_s": self_s,
                "calls": self.calls[op_id], "prim_s": self.prim_s[op_id],
                "coverage": top / latency_s}


def _walk(root, seen: set) -> int:
    """Graph nodes reachable from ``root`` that are not in ``seen`` yet."""
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += 1
        stack.extend(node._parents)
    return count


class Census(NullTracer):
    """Distinct tape nodes built per spec, walked from the graph outputs.

    Outputs passed to ``tape.backward`` and outermost engine results are kept
    alive until the spec ends, so node ids stay unique while they are walked.
    Backward roots are walked first; ``backward_nodes``/``backward_calls``
    gives the nodes of one descent step.
    """

    def __init__(self):
        self.nodes = Counter()
        self.backward_nodes = Counter()
        self.backward_calls = Counter()
        self._fwd_roots: list = []
        self._bwd_roots: list = []
        self._depth = 0

    def op(self, op_id):
        wrappers = [(m, a, self._layer(getattr(m, a), n)) for m, a, n in LAYER_CALLS]
        return _patched(wrappers)

    @contextlib.contextmanager
    def spec(self, tag):
        try:
            yield
        finally:
            seen: set = set()
            for root in self._bwd_roots:
                self.backward_nodes[tag] += _walk(root, seen)
            self.backward_calls[tag] += len(self._bwd_roots)
            self.nodes[tag] += self.backward_nodes[tag]
            for root in self._fwd_roots:
                self.nodes[tag] += _walk(root, seen)
            self._fwd_roots, self._bwd_roots = [], []

    def _layer(self, fn, name):
        def wrapper(*args, **kwargs):
            if name == "tape.backward":
                self._bwd_roots.append(args[0])
                return fn(*args, **kwargs)
            self._depth += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                self._depth -= 1
            if self._depth == 0:
                self._fwd_roots.append(out)
            return out
        return wrapper


class MemoryTracer(NullTracer):
    """tracemalloc peak of each spec's share of one op, in bytes."""

    def __init__(self):
        self.peak = {}

    @contextlib.contextmanager
    def op(self, op_id):
        tracemalloc.start()
        try:
            yield
        finally:
            tracemalloc.stop()

    @contextlib.contextmanager
    def spec(self, tag):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            yield
        finally:
            self.peak[tag] = tracemalloc.get_traced_memory()[1] - base
