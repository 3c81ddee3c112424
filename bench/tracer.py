"""Outside-in layer tracer for isslab.

The tracer wraps public isslab functions where they are bound as module
attributes (the defining module and every isslab module that imported the
name), so calls between layers pass through a wrapper that records a span:
name, start, end, parent span and an optional attribute that measures the
work of the call (grid points, Simpson nodes, records, draw key).  Spans stay
in memory; ``write_spans`` dumps them once the run is over.  ``installed()``
restores every patched attribute on exit and checks that no wrapper is left.

Nothing under ``src/`` is edited: the spans sit at the boundaries the
benchmark can reach from outside, around calls into each layer.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _size(i, name):
    return lambda args, kwargs, result: len(_arg(args, kwargs, i, name))


def _draw_key(kind, budget_at, index_at):
    # a draw's output depends on its budget and index; the key names it
    return lambda args, kwargs, result: (kind, _arg(args, kwargs, *budget_at),
                                         _arg(args, kwargs, *index_at))


CHECKS = ("identity", "cocycle", "iss", "uls", "ulim", "brs", "cep",
          "dissipation", "norm_to_integral", "integral_to_integral")
CHECK_SPANS = {f"checkers.{c}" for c in CHECKS}
INTEGRAL_SPANS = {"checkers.norm_to_integral", "checkers.integral_to_integral"}

# (defining module, attribute, span name, attribute probe or None)
TARGETS = (
    ("isslab.harness", "parse_scenario", "harness.parse", None),
    ("isslab.harness", "run_scenario", "harness.run_scenario", None),
    ("isslab.harness", "emit_csv", "harness.emit", None),
    *(("isslab.checkers", f"check_{c}", f"checkers.{c}", None) for c in CHECKS),
    ("isslab.checkers", "draw_state", "checkers.draw",
     _draw_key("state", (1, "budget"), (2, "i"))),
    ("isslab.checkers", "draw_input", "checkers.draw",
     _draw_key("input", (0, "budget"), (1, "j"))),
    ("isslab.checkers", "simpson", "checkers.simpson", _size(0, "y")),
    ("isslab.system", "sample_trajectory", "system.sample_trajectory",
     lambda args, kwargs, result: result.times.size),
    ("isslab.system", "mild_solution", "system.mild_solution", None),
    ("isslab.system", "build_time_grid", "system.build_time_grid",
     lambda args, kwargs, result: result.size),
    ("isslab.system", "kappa_bounds", "system.kappa_bounds", None),
    ("isslab.system", "write_trajectory_csv", "system.write_trajectory_csv", None),
    ("isslab.comparison", "evaluate", "comparison.evaluate", None),
    ("isslab.lyapunov", "dini_estimate", "lyapunov.dini_estimate", None),
    ("isslab.lyapunov", "dissipation_constants", "lyapunov.dissipation_constants", None),
    ("isslab.report", "conclude", "report.conclude", _size(1, "records")),
)


class Tracer:
    """Records one list of spans per repetition while installed."""

    def __init__(self):
        self.reps: list[list[tuple]] = []
        self._stack: list[int] = []
        self._next_id = 1

    def new_rep(self) -> None:
        self.reps.append([])

    def _wrap(self, name, fn, probe):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else 0
            sid = self._next_id
            self._next_id += 1
            self._stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
            attr = probe(args, kwargs, result) if probe is not None else None
            self.reps[-1].append((sid, parent, name, start, end, attr))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every binding of each target inside isslab; always restore."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "isslab" or n.startswith("isslab.")]
        patched = []
        wrappers = set()
        try:
            for mod_name, attr, span, probe in TARGETS:
                original = getattr(importlib.import_module(mod_name), attr)
                wrapper = self._wrap(span, original, probe)
                wrappers.add(wrapper)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, key, wrapper)
                            patched.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(patched):
                setattr(mod, key, original)
            left = [f"{mod.__name__}.{key}" for mod in modules
                    for key, val in vars(mod).items()
                    if any(val is w for w in wrappers)]
            if left:
                raise RuntimeError(f"tracer left wrappers behind: {left}")


def write_spans(tracer: Tracer, path) -> None:
    """One CSV row per span; times in seconds from the first span."""
    t0 = min((s[3] for rep in tracer.reps for s in rep), default=0.0)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(("rep", "id", "parent", "name", "start", "end", "attr"))
        for r, rep in enumerate(tracer.reps):
            for sid, parent, name, start, end, attr in rep:
                if isinstance(attr, tuple):   # draw key: kind and index
                    attr = f"{attr[0]}:{attr[-1]}"
                out.writerow((r, sid, parent, name, f"{start - t0:.9f}",
                              f"{end - t0:.9f}", "" if attr is None else attr))


def layer_metrics(spans: list[tuple], n_modes: int) -> dict[str, float]:
    """Per-layer metrics of one repetition's spans.

    Every traced span name gives ``<name>_s`` (inclusive seconds; no target
    calls another of the same name) and ``<name>.calls``; the rest are
    derived from span attributes and the span tree.
    """
    by_id = {s[0]: s for s in spans}
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    child_s: dict[int, float] = defaultdict(float)
    for sid, parent, name, start, end, attr in spans:
        seconds[name] += end - start
        calls[name] += 1
        child_s[parent] += end - start

    def check_of(span) -> str | None:
        while span is not None and span[2] not in CHECK_SPANS:
            span = by_id.get(span[1])
        return None if span is None else span[2]

    def attrs(name):
        return [s[5] for s in spans if s[2] == name]

    traj = [s for s in spans if s[2] == "system.sample_trajectory"]
    integrated = sum(s[5] for s in traj if check_of(s) in INTEGRAL_SPANS)
    simpson_nodes = sum(attrs("checkers.simpson"))
    draws = attrs("checkers.draw")
    flow_entries = sum(s[5] for s in traj) * n_modes
    names = [t[2] for t in TARGETS]
    out = {f"{n}_s": seconds[n] for n in names}
    out.update({f"{n}.calls": calls[n] for n in names})
    out.update({
        "checkers.self_s": sum(s[4] - s[3] - child_s[s[0]] for s in spans
                               if s[2] in CHECK_SPANS),
        "checkers.simpson.nodes": simpson_nodes,
        "checkers.quad_waste": simpson_nodes / integrated if integrated else 0.0,
        "checkers.draw.redundancy": len(draws) / len(set(draws)) if draws else 0.0,
        "system.flow_entries": flow_entries,
        "system.flow_entries_per_s": (flow_entries / seconds["system.sample_trajectory"]
                                      if flow_entries else 0.0),
        "system.grid_points": sum(attrs("system.build_time_grid")),
        "report.margin_records": sum(attrs("report.conclude")),
    })
    return out
