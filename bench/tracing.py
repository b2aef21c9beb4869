"""Spans and counters taken at docidlm's layer boundaries from outside it.

The tracer replaces a few public names for the duration of a traced call
and puts them back afterwards; the program itself is not edited. A span
records (name, start, end, parent, query id, size), where size is the mask
size for mask spans and the context length for scorer spans. Spans stay in
memory and are written out once, at the end of a run.

A hooked name that no longer exists is reported as "not measured" instead
of failing the run, so the benchmark keeps working across refactors that
rename or delete a layer.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

QUERY = "query"
SCORER = "lm.next_logprobs"
MASK = "constraints.allowed_mask"
CONTINUATIONS = "trie.allowed_continuations"

# (span name, module, attribute, size of the result or None). The decoder
# looks ``allowed_mask`` up in its own namespace and the constraints module
# does the same for ``allowed_continuations``, so those are the names to
# replace.
SPAN_HOOKS = (
    (MASK, "docidlm.decoder", "allowed_mask", len),
    (CONTINUATIONS, "docidlm.constraints", "allowed_continuations", None),
)
COST_HOOK = ("docidlm.decoder", "DecodeCost")


@dataclass
class Tracer:
    """In-memory span log plus the ``DecodeCost`` objects made while installed."""

    spans: list[list] = field(default_factory=list)
    costs: list = field(default_factory=list)
    missing: dict[str, str] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _query: str = ""

    def open(self, name: str, size: int = 0) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._query, size])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def query(self, query_id: str):
        self._query = query_id
        index = self.open(QUERY)
        try:
            yield
        finally:
            self.close(index)
            self._query = ""

    def _span_wrapper(self, name: str, size_of, fn):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if size_of is not None:
                self.spans[index][5] = size_of(result)
            return result
        return traced

    def _cost_wrapper(self, cls):
        def recorded(*args, **kwargs):
            cost = cls(*args, **kwargs)
            self.costs.append(cost)
            return cost
        return recorded

    @contextmanager
    def installed(self):
        """Replace the hooked names while the block runs, then restore them."""
        wrappers = [(name, module, attr, partial(self._span_wrapper, name, size))
                    for name, module, attr, size in SPAN_HOOKS]
        wrappers.append(("decoder.cost", *COST_HOOK, self._cost_wrapper))
        saved = []
        try:
            for name, module_name, attr, wrap in wrappers:
                try:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    self.missing[name] = f"{module_name}.{attr} no longer exists"
                    continue
                setattr(module, attr, wrap(original))
                saved.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, query, size in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "query": query, "size": size}) + "\n")


class ScorerProxy:
    """``LmScorer`` that records a span around every ``next_logprobs`` call."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.vocab = inner.vocab

    def next_logprobs(self, context):
        index = self._tracer.open(SCORER, len(context))
        try:
            return self._inner.next_logprobs(context)
        finally:
            self._tracer.close(index)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@dataclass
class LayerTotals:
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    size: int = 0


def layer_totals(spans: list[list]) -> dict[str, LayerTotals]:
    """Per span name: count, summed duration, summed self time, summed size.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread never overlap, so this is exact.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    totals: dict[str, LayerTotals] = {}
    for i, (name, start, end, _, _, size) in enumerate(spans):
        entry = totals.setdefault(name, LayerTotals())
        entry.count += 1
        entry.total_s += end - start
        entry.self_s += end - start - child_s[i]
        entry.size += size
    return totals
