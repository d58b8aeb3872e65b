"""Span and counter tracing of lnplan's layers, installed from outside the package.

`Tracer.install()` replaces each layer's public functions at the module
attribute their caller looks up (for example `successors.build_graph`, which
`SuccessorGenerator.candidates` calls, or `model.State.key`) with a wrapper
that records a span or bumps a counter; `restore()` puts every original back.
Nothing in lnplan is edited, and code outside an install/restore pair runs
unmodified.

A span is `[name, start, end, parent]` with `parent` the index of the
enclosing span (-1 for a root). Spans are kept in memory. The process is
single-threaded, so a span's children run one after another inside it, and
its self time is its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable, Iterable, Optional

from lnplan import assignments, consistency, model, search, successors

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # --- recording ---

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, _clock(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = _clock()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run `fn` inside a span named `name`."""
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    # --- wrappers ---

    def _timed(self, name: str, fn: Callable,
               on_result: Optional[Callable] = None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            record = spans[index]
            record[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = _clock()
                stack.pop()
            counts[name + ".calls"] += 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _timed_iter(self, name: str, fn: Callable) -> Callable:
        """Wrap a generator function so that each next() is one span."""
        tracer = self

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                index = tracer.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                tracer.counts[name + ".emitted"] += 1
                yield item

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        counts = self.counts

        def on_store(store):
            counts["successors.ground_store"] += store.total

        def on_report(result):
            _, report = result
            counts["successors.candidates"] += report.candidates
            counts["successors.applicable"] += report.applicable

        def on_graph(graph):
            counts["consistency.vertices_alive"] += sum(m.bit_count() for m in graph.alive)
            counts["consistency.edges"] += graph.edge_count()

        def on_table(table):
            counts["assignments.entries"] += len(table.table)

        p, t, c = self._patch, self._timed, self._counted
        p(successors, "ground_all", t("successors.ground", successors.ground_all, on_store))
        gen = successors.SuccessorGenerator
        p(gen, "context", t("successors.context", gen.context))
        p(gen, "applicable", t("successors.applicable", gen.applicable, on_report))
        p(successors, "build_graph",
          t("consistency.build_graph", successors.build_graph, on_graph))
        p(successors, "iter_cliques", self._timed_iter("cliques.enum", successors.iter_cliques))
        p(successors, "is_applicable",
          t("model.is_applicable.filter", successors.is_applicable))
        p(consistency, "relaxed_unsat",
          t("consistency.relaxed_unsat", consistency.relaxed_unsat))
        p(consistency, "arith", c("intervals.arith", consistency.arith))
        p(consistency, "compare", c("intervals.compare", consistency.compare))
        index = consistency.AtomIndex
        p(index, "match_exists", c("consistency.match_exists", index.match_exists))
        p(assignments, "build_assignment_set",
          t("assignments.build", assignments.build_assignment_set, on_table))
        p(search, "apply", t("model.apply", search.apply))
        p(model, "is_applicable", t("model.is_applicable.recheck", model.is_applicable))
        p(model, "apply_effects", t("model.apply_effects", model.apply_effects))
        p(model.State, "key", t("model.state_key", model.State.key))
        p(search, "goal_satisfied", t("model.goal", search.goal_satisfied))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(spans: list[list]) -> tuple[dict, dict]:
    """Total duration per span name, and self time per layer.

    The layer is the span name's first dotted component.
    """
    total: dict[str, float] = defaultdict(float)
    layer: dict[str, float] = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        name = span[0]
        total[name] += span[2] - span[1]
        layer[name.split(".", 1)[0]] += self_s
    return dict(total), dict(layer)


def nested(spans: Iterable[list]) -> bool:
    """Every child span lies within its parent's interval."""
    spans = list(spans)
    return all(
        parent < 0 or (spans[parent][1] <= start and end <= spans[parent][2])
        for _, start, end, parent in spans
    )
