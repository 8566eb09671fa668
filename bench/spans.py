"""Span tracing around the public functions of each signedchrom layer.

A Tracer replaces each traced function with a wrapper that records one span
(name, start, end, parent span, request id, counters) in memory.  A function
is replaced in its defining module, in every signedchrom module that
imported it by name (`verify` does `from .chromatic import chromatic_pair`)
and in module-level dispatch tables (`cli._CONJECTURES` holds the verifier
functions in tuples), so calls through any of these names are seen.  `BiPoly.__rmul__` is patched apart
from `__mul__`, because the class bound it to the original function when it
was created.  A call nested directly inside a span of the same name (one
pair function calling the other) is not recorded again.

`summarize` turns the spans of one or more processes into per-layer metrics;
a span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (span name, module, function)
FUNCTIONS = (
    ("cli.main", "signedchrom.cli", "main"),
    ("verify.reproduce_tables", "signedchrom.verify", "reproduce_tables"),
    ("verify.cochromatic_complete", "signedchrom.verify", "verify_conj_cochromatic_complete"),
    ("verify.threshold", "signedchrom.verify", "verify_conj_threshold"),
    ("verify.bivariate_complete", "signedchrom.verify", "verify_conj_complete_bivariate"),
    ("verify.search_cochromatic", "signedchrom.verify", "search_cochromatic"),
    ("verify.certificate", "signedchrom.verify", "non_switching_isomorphism_certificate"),
    ("chromatic.pair", "signedchrom.chromatic", "chromatic_pair"),
    ("chromatic.pair", "signedchrom.chromatic", "bivariate_pair"),
    ("chromatic.complete_pair", "signedchrom.chromatic", "complete_chromatic_pair"),
    ("chromatic.complete_pair", "signedchrom.chromatic", "complete_bivariate_pair"),
    ("chromatic.threshold_step", "signedchrom.chromatic", "threshold_step"),
    ("chromatic.threshold_step", "signedchrom.chromatic", "threshold_even_step"),
    ("equivalence.enumerate_classes", "signedchrom.equivalence", "enumerate_classes"),
    ("equivalence.automorphisms", "signedchrom.equivalence", "automorphisms"),
    ("equivalence.find_isomorphism", "signedchrom.equivalence", "find_isomorphism"),
    ("graphs.switch", "signedchrom.graphs", "switch"),
    ("graphs.parse_graph", "signedchrom.graphs", "parse_graph"),
)

# (span name, attribute of signedchrom.poly.BiPoly)
METHODS = (
    ("poly.mul", "__mul__"),
    ("poly.mul", "__rmul__"),
    ("poly.shifted", "shifted"),
)

def _terms(value) -> int:
    terms = getattr(value, "_terms", None)
    if terms is not None:
        return len(terms)
    return 1 if isinstance(value, int) and value else 0


class Tracer:
    """Records spans in memory while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, request_id, counts]
        self.request_id = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request_id, None]
            stack.append(len(spans))
            spans.append(record)
            state = before(record, args) if before else None
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after:
                after(record, args, state, result)
            return result

        return traced

    def _hooks(self, name):
        if name == "chromatic.pair":
            tally = sys.modules["signedchrom.chromatic"]._subset_tally

            def before(record, args):
                return tally.cache_info()

            def after(record, args, state, result):
                info = tally.cache_info()
                misses = info.misses - state.misses
                record[5] = {
                    "cache_hits": info.hits - state.hits,
                    "subsets": (1 << args[0].m) if misses else 0,
                }

            return before, after
        if name == "equivalence.enumerate_classes":

            def after(record, args, state, result):
                record[5] = {
                    "signatures": 1 << result.underlying.m,
                    "classes": result.class_count,
                }

            return None, after
        if name == "poly.mul":

            def before(record, args):
                record[5] = {"term_products": _terms(args[0]) * _terms(args[1])}

            return before, None
        return None, None

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_in_table(self, table: dict, original, new) -> None:
        for key, value in list(table.items()):
            if isinstance(value, tuple) and any(v is original for v in value):
                self._undo.append((table, key, value))
                table[key] = tuple(new if v is original else v for v in value)

    def install(self) -> None:
        import signedchrom.cli  # noqa: F401  (loads every layer module)

        modules = [
            m for key, m in sys.modules.items()
            if key == "signedchrom" or key.startswith("signedchrom.")
        ]
        for name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            traced = self._wrap(name, original, *self._hooks(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, traced)
                    elif isinstance(value, dict):
                        self._replace_in_table(value, original, traced)
        bipoly = sys.modules["signedchrom.poly"].BiPoly
        for name, attr in METHODS:
            self._replace(bipoly, attr, self._wrap(name, vars(bipoly)[attr], *self._hooks(name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def summarize(span_lists: list[list[list]], metrics: list[str]) -> dict[str, float]:
    """The named per-layer metrics over the spans of one or more processes.

    A metric is a span name and a field: `calls`, `s` (inclusive time),
    `self_s` (`verify.self_s` sums every verify span) or a counter the span
    recorded.  Also returns "spans.root_s", the summed duration of spans without a
    parent, which equals the summed self time of all spans.
    """
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    root_s = 0.0
    for spans in span_lists:
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, _, counts) in enumerate(spans):
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + duration
            self_s[name] = self_s.get(name, 0.0) + duration - child[i]
            if parent < 0:
                root_s += duration
            for key, value in (counts or {}).items():
                counters[f"{name}.{key}"] = counters.get(f"{name}.{key}", 0) + value
    out: dict[str, float] = {}
    for metric in metrics:
        name, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls.get(name, 0)
        elif field == "s":
            out[metric] = total.get(name, 0.0)
        elif metric == "verify.self_s":
            out[metric] = sum(v for k, v in self_s.items() if k.startswith("verify."))
        elif field == "self_s":
            out[metric] = self_s.get(name, 0.0)
        else:
            out[metric] = counters.get(metric, 0)
    out["spans.root_s"] = root_s
    return out
