"""Span tracer that measures bottiter's layers from outside the library.

`Tracer.install` replaces each layer's public functions, at every module
attribute a caller looks them up by (`bottiter.verifier.check_prop33`,
`bottiter.morse.bott_index_sequence`, `bottiter.kernel.index_sequence`,
...), with a wrapper that records one span per call: name, start, end,
parent span and the id of the top-level operation it belongs to.  Spans
live in flat arrays in memory and are written out once, by `write`.

A span's self time is its busy time minus the busy time of its child
spans.  Calls nest strictly (one thread), so each wrapper adds its own
duration to its parent's child total as it returns, and the per-layer
self times are kept as running sums.  The signature enumeration is a
generator that yields 433,744 items at n = 8, so it gets one span per
call whose busy time is the sum of the time spent inside `next()`.

Nothing under `src/` is modified; `uninstall` puts every original back.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# Layer of each wrapped function, keyed by its defining module and name.
LAYER_OF = {
    ("bottiter.verifier", "verify_theorem"): "verifier.bookkeeping",
    ("bottiter.verifier", "enumerate_signatures"): "verifier.enumerate",
    ("bottiter.verifier", "phase_instantiate"): "verifier.instantiate",
    ("bottiter.verifier", "check_prop33"): "verifier.prop33",
    ("bottiter.verifier", "single_geodesic_pipeline"): "verifier.pipeline",
    ("bottiter.kernel", "index_at"): "kernel",
    ("bottiter.kernel", "index_sequence"): "kernel",
    ("bottiter.iteration", "bott_index"): "iteration",
    ("bottiter.iteration", "bott_index_sequence"): "iteration",
    ("bottiter.iteration", "iterate_index"): "iteration",
    ("bottiter.iteration", "jump_search"): "iteration",
    ("bottiter.iteration", "gap_decomposition"): "iteration",
    ("bottiter.morse", "aggregate_w"): "morse",
    ("bottiter.morse", "critical_group_dim"): "morse",
    ("bottiter.morse", "iterate_cutoff"): "morse",
    ("bottiter.morse", "morse_q_recursion"): "morse",
    ("bottiter.homology", "betti_number"): "homology",
    ("bottiter.homology", "betti_table"): "homology",
    ("bottiter.homology", "poincare_coefficients"): "homology",
    ("bottiter.profile", "average_index"): "profile",
    ("bottiter.profile", "gamma_invariant"): "profile",
    ("bottiter.profile", "profile_from_document"): "profile",
    ("bottiter.profile", "validate_profile"): "profile",
    ("bottiter.cli", "main"): "cli",
}

LAYERS = sorted(set(LAYER_OF.values()))

# Calls whose arguments and results the per-layer counters read afterwards.
_LOGGED = (
    "bottiter.kernel.index_at",
    "bottiter.kernel.index_sequence",
    "bottiter.verifier.phase_instantiate",
)


class Tracer:
    """Records spans for the wrapped bottiter functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_busy = array("q")
        self.self_ns = {layer: 0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}
        self.log = {name: [] for name in _LOGGED}
        self.signatures = 0
        self.useful_signatures = 0
        self.compiled_calls = 0
        self.op = -1
        # Frames of the open spans: [span id, busy ns of its children].
        self._stack: list[list[int]] = [[-1, 0]]
        self._patched: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every function in LAYER_OF under every name it is bound to."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            module
            for name, module in sys.modules.items()
            if module is not None and (name == "bottiter" or name.startswith("bottiter."))
        ]
        wrappers = {}
        for (mod_name, attr), layer in LAYER_OF.items():
            original = getattr(sys.modules[mod_name], attr)
            wrap = self._wrap_generator if layer == "verifier.enumerate" else self._wrap
            wrappers[id(original)] = wrap(original, f"{mod_name}.{attr}", layer)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        kernel = sys.modules["bottiter.kernel"]
        if kernel._fastkernel is not None:
            self._patch(kernel, "_fastkernel", _CountingModule(kernel._fastkernel, self))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _patch(self, module, attr: str, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans -----------------------------------------------------------

    def begin_op(self) -> None:
        """Start a new top-level operation; later spans carry its id."""
        self.op += 1

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, name_id: int) -> int:
        sid = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0])
        self.span_op.append(self.op)
        self.span_start.append(0)
        self.span_end.append(0)
        self.span_busy.append(0)
        return sid

    def _wrap(self, fn, name: str, layer: str):
        name_id = self._name_id(name)
        clock = time.perf_counter_ns
        stack = self._stack
        self_ns, calls = self.self_ns, self.calls
        log = self.log.get(name)
        open_span = self._open
        span_start, span_end, span_busy = self.span_start, self.span_end, self.span_busy

        # Bookkeeping outside [start, end] is charged to the caller's span.
        def traced(*args, **kwargs):
            sid = open_span(name_id)
            frame = [sid, 0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                busy = end - start
                span_start[sid] = start
                span_end[sid] = end
                span_busy[sid] = busy
                self_ns[layer] += busy - frame[1]
                calls[layer] += 1
                stack[-1][1] += busy
                if log is not None:
                    log.append((args, result))

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, name: str, layer: str):
        name_id = self._name_id(name)
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            parent = tracer._stack[-1]
            sid = tracer._open(name_id)
            tracer.span_start[sid] = clock()
            busy = 0
            try:
                while True:
                    start = clock()
                    try:
                        item = next(items)
                    except StopIteration:
                        spent = clock() - start
                        busy += spent
                        parent[1] += spent
                        return
                    spent = clock() - start
                    busy += spent
                    parent[1] += spent
                    tracer.signatures += 1
                    if item.arc_values[0] == item.n - 1 and item.arc_values[-1] != 0:
                        tracer.useful_signatures += 1
                    yield item
            finally:
                tracer.span_end[sid] = clock()
                tracer.span_busy[sid] = busy
                tracer.self_ns[layer] += busy
                tracer.calls[layer] += 1

        traced.__wrapped__ = fn
        return traced

    # -- results ---------------------------------------------------------

    def kernel_counts(self) -> dict:
        """Calls, terms (index values produced) and distinct (profile, m) pairs."""
        at_calls = self.log["bottiter.kernel.index_at"]
        seq_calls = self.log["bottiter.kernel.index_sequence"]
        covered: dict[tuple, int] = {}
        for (arcs, phases, m_max), _ in seq_calls:
            key = (tuple(arcs), tuple(phases))
            covered[key] = max(covered.get(key, 0), m_max)
        singles = {
            (tuple(arcs), tuple(phases), m)
            for (arcs, phases, m), _ in at_calls
        }
        distinct = sum(covered.values()) + sum(
            1 for arcs, phases, m in singles if m > covered.get((arcs, phases), 0)
        )
        terms = len(at_calls) + sum(m_max for (_, _, m_max), _ in seq_calls)
        return {"calls": len(at_calls) + len(seq_calls), "terms": terms, "distinct": distinct}

    def infeasible_count(self) -> int:
        return sum(
            1 for _, result in self.log["bottiter.verifier.phase_instantiate"]
            if type(result).__name__ == "PhaseInfeasible"
        )

    def write(self, stem: Path) -> None:
        """Write the spans to <stem>.json, a header, and <stem>.bin, the
        columns one after another in native byte order."""
        columns = {
            "name": self.span_name,
            "parent": self.span_parent,
            "op": self.span_op,
            "start_ns": self.span_start,
            "end_ns": self.span_end,
            "busy_ns": self.span_busy,
        }
        header = {
            "count": len(self.span_start),
            "names": self.names,
            "columns": [[key, col.typecode, col.itemsize] for key, col in columns.items()],
            "byteorder": sys.byteorder,
            "note": "busy_ns is end_ns - start_ns except for generator spans, "
            "where it is the time spent inside next()",
        }
        stem.with_name(stem.name + ".json").write_text(json.dumps(header, indent=1) + "\n")
        with open(stem.with_name(stem.name + ".bin"), "wb") as handle:
            for col in columns.values():
                col.tofile(handle)


class _CountingModule:
    """Stands in for `bottiter._fastkernel` and counts the calls sent to it."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._tracer = tracer

    def __getattr__(self, attr):
        target = getattr(self._module, attr)

        def counted(*args, **kwargs):
            self._tracer.compiled_calls += 1
            return target(*args, **kwargs)

        return counted
