"""Layer spans for the traced run, recorded from outside ptl.

The layers are ptl's modules. A span is opened around every call that
crosses from one module into another: the names a module imports from
another layer (``ptl.parser.desugar``, ``ptl.checker.evaluate``,
``ptl.adequacy.eval_q`` and the rest, found by scanning each module's
namespace), ``Frame.successors``, and the benchmark's own calls into ptl.
A module's calls into itself are left alone, so recursion inside a layer
never opens a span; the one deliberate exception is
``ptl.adequacy.enumerate_events``, timed as a sub-span of the adequacy
layer. Installing the wrappers replaces attributes; ``restore`` puts the
originals back, so untraced passes run the unmodified code.

Spans are kept in memory as ``(id, parent, query, name, start_ns,
end_ns)`` and written out once at the end. A layer's self time is the
duration of its spans minus the duration of their direct children.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import time
from pathlib import Path

# Public entry points per layer (module ptl.<layer>). A span opens when
# one of these is called from another module or from the benchmark.
ENTRY = {
    "parser": ("parse", "parse_formula", "parse_formula_file", "parse_model",
               "parse_type", "parse_rational", "tokenize"),
    "syntax": ("desugar", "alpha_eq"),
    "typecheck": ("infer_type", "check_type"),
    "model": ("validate_model", "successors", "serialize_model"),
    "evaluator": ("evaluate", "truth", "eval_q", "eval_q_trace", "eval_arith",
                  "apply_value", "describe", "_ground_action"),
    "checker": ("satisfies", "globally_satisfies", "entails", "check_independent",
                "check_shortcut"),
    "adequacy": ("check_adequacy", "parse_space", "translate_space", "validate_space"),
}
MODULES = tuple(ENTRY) + ("cli", "printer", "values", "errors")

COUNTS = ("parser.bytes", "syntax.nodes", "model.edges", "model.successors_calls",
          "evaluator.calls", "checker.states_checked", "checker.witnesses", "adequacy.events")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.query = -1
        self.counts = dict.fromkeys(COUNTS, 0)
        self.desugared: list = []
        self._patched: list[tuple[object, str, object]] = []
        self.api: dict[str, object] = {}
        self.expr_type: type = object

    # ---------- spans ----------

    def span(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, self.query, name, start, end)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def begin_query(self, index: int):
        """Open the root span of one query; returns its closer."""
        self.query = index
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append(sid)
        start = time.perf_counter_ns()

        def close():
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans[sid] = (sid, -1, index, "bench.query", start, end)

        return close

    def reset(self) -> None:
        self.spans.clear()
        del self.stack[1:]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.desugared.clear()

    # ---------- installing wrappers ----------

    def _after(self, layer: str, name: str):
        """Hook that records a count from a finished entry-point call."""
        if layer == "parser":  # every parser entry point takes the text first
            def after(args, result):
                self.counts["parser.bytes"] += len(args[0].encode())
        elif (layer, name) == ("syntax", "desugar"):
            def after(args, result):
                self.desugared.append(result)
        elif (layer, name) == ("adequacy", "check_adequacy"):
            def after(args, result):
                self.counts["adequacy.events"] += result.details.get("events_checked", 0)
        elif (layer, name) == ("checker", "check_independent"):
            def after(args, result):
                if result.witness:
                    self.counts["checker.witnesses"] += 1
                    visited = args[0].states.index(result.witness["from_state"]) + 1
                else:
                    visited = result.details.get("states_checked", 0)
                self.counts["checker.states_checked"] += visited
        else:
            return None
        return after

    def install(self) -> None:
        """Wrap every cross-module reference to an entry point, plus
        Frame.successors and enumerate_events, and build ``api``: the
        wrapped entry points for the benchmark's own calls."""
        mods = {m: importlib.import_module(f"ptl.{m}") for m in MODULES}
        checker, model, adequacy = mods["checker"], mods["model"], mods["adequacy"]
        self.expr_type = mods["syntax"].Expr
        originals = {(layer, name): getattr(mods[layer], name)
                     for layer, names in ENTRY.items() for name in names}

        # globally_satisfies and entails call satisfies once per state, so
        # the checker's own calls are counted too (counted, not spanned)
        satisfies = originals["checker", "satisfies"]

        def counted_satisfies(*args, **kwargs):
            report = satisfies(*args, **kwargs)
            self.counts["checker.states_checked"] += 1
            if report.witness is not None:
                self.counts["checker.witnesses"] += 1
            return report

        self._patch(checker, "satisfies", counted_satisfies)

        wrapped = {}
        for (layer, name), fn in originals.items():
            inner = counted_satisfies if fn is satisfies else fn
            wrapped[id(fn)] = (fn, self.span(f"{layer}.{name}", inner, self._after(layer, name)))
            self.api[name] = wrapped[id(fn)][1]
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit and hit[0] is value and value.__module__ != mod.__name__:
                    self._patch(mod, attr, hit[1])

        self._patch(adequacy, "enumerate_events",
                    self.span("adequacy.enumerate_events", adequacy.enumerate_events))

        def edges(args, result):
            self.counts["model.edges"] += len(result)

        self._patch(model.Frame, "successors",
                    self.span("model.Frame.successors", model.Frame.successors, edges))

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self.api.clear()

    # ---------- summaries ----------

    def summary(self) -> dict[str, float]:
        """Per-layer self times (ms) and counts for the spans recorded
        since the last reset."""
        child = [0] * len(self.spans)
        for sid, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        for sid, parent, _, name, start, end in self.spans:
            own = end - start - child[sid]
            layer = name.split(".", 1)[0]
            self_ns[layer] = self_ns.get(layer, 0) + own
            self_ns[name] = self_ns.get(name, 0) + own
            calls[layer] = calls.get(layer, 0) + 1
            calls[name] = calls.get(name, 0) + 1

        def ms(key: str) -> float:
            return self_ns.get(key, 0) / 1e6

        out = dict(self.counts)
        out["syntax.nodes"] = sum(count_nodes(e, self.expr_type) for e in self.desugared)
        out["model.successors_calls"] = calls.get("model.Frame.successors", 0)
        out["evaluator.calls"] = calls.get("evaluator", 0)
        out.update({
            "parser.ms": ms("parser"),
            "syntax.desugar_ms": ms("syntax.desugar"),
            "typecheck.ms": ms("typecheck"),
            "model.validate_ms": ms("model.validate_model"),
            "model.successors_ms": ms("model.Frame.successors") + ms("model.successors"),
            "evaluator.self_ms": ms("evaluator"),
            "checker.self_ms": ms("checker"),
            "adequacy.enumerate_ms": ms("adequacy.enumerate_events"),
            "adequacy.self_ms": ms("adequacy"),
        })
        return out

    def write(self, path: Path) -> None:
        """Spans as JSON lines: a header naming the fields, then one array
        per span, times in ns from the first span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = min((s[4] for s in self.spans), default=0)
        with path.open("w") as out:
            out.write(json.dumps({"fields": ["id", "parent", "query", "name",
                                             "start_ns", "end_ns"]}) + "\n")
            for sid, parent, query, name, start, end in self.spans:
                out.write(json.dumps([sid, parent, query, name, start - base, end - base]) + "\n")


def count_nodes(expr, expr_type: type) -> int:
    """Nodes of a ptl expression tree: the ``expr_type`` instances reachable
    through fields and tuples of fields."""
    total, todo = 0, [expr]
    while todo:
        e = todo.pop()
        if isinstance(e, tuple):
            todo.extend(e)
        elif isinstance(e, expr_type):
            total += 1
            todo.extend(getattr(e, f.name) for f in dataclasses.fields(e))
    return total
