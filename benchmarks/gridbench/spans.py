"""Benchmark-side spans: one per call gridbench makes into a layer.

The program under test is not instrumented here; a span wraps each call
*from the benchmark's own files* into a layer's public function.  Spans
stay in memory and are written once when the traced round ends.

A span is ``{id, name, start_ns, end_ns, parent, workload, round}``.
``name`` is ``<layer>.<call>`` (``pool.run_until_done``,
``service.client.POST``), so the layer is everything before the last
dot.  Self time is a span's duration minus the part of it its children
cover; concurrent children (two client connections) are merged before
subtracting, so overlap is not counted twice.
"""

from __future__ import annotations

import contextlib
from time import perf_counter_ns

__all__ = ["SpanRecorder", "layer_of", "self_time_by_layer", "self_times"]

_NULL = contextlib.nullcontext(-1)


class SpanRecorder:
    """Collects spans for one round of one workload.

    Disabled (the untraced rounds), every method is a no-op that returns
    immediately, so the end-to-end numbers carry no tracing cost.
    """

    def __init__(self, workload: str, round_id: int, enabled: bool):
        self.workload = workload
        self.round_id = round_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def start(self, name: str, parent: int | None = None) -> int:
        """Open a span; *parent* defaults to the innermost ``span()`` block."""
        if not self.enabled:
            return -1
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append({
            "id": len(self.spans),
            "name": name,
            "start_ns": perf_counter_ns(),
            "end_ns": None,
            "parent": parent,
            "workload": self.workload,
            "round": self.round_id,
        })
        return len(self.spans) - 1

    def end(self, span_id: int) -> None:
        if span_id >= 0:
            self.spans[span_id]["end_ns"] = perf_counter_ns()

    def span(self, name: str):
        """Context manager: a span that parents everything opened inside it."""
        return _Block(self, name) if self.enabled else _NULL


class _Block:
    __slots__ = ("_id", "_name", "_rec")

    def __init__(self, rec: SpanRecorder, name: str):
        self._rec = rec
        self._name = name

    def __enter__(self) -> int:
        self._id = self._rec.start(self._name)
        self._rec._stack.append(self._id)
        return self._id

    def __exit__(self, *exc) -> None:
        self._rec._stack.pop()
        self._rec.end(self._id)


def layer_of(name: str) -> str:
    """``service.client.POST`` -> ``service.client``; a bare name is its own layer."""
    return name.rsplit(".", 1)[0] if "." in name else name


def _covered(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of the union of *intervals*, clipped to [start, end]."""
    total = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> self time in nanoseconds (closed spans only)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span["parent"] is not None and span["end_ns"] is not None:
            children.setdefault(span["parent"], []).append((span["start_ns"], span["end_ns"]))
    return {
        span["id"]: (span["end_ns"] - span["start_ns"])
        - _covered(span["start_ns"], span["end_ns"], children.get(span["id"], []))
        for span in spans
        if span["end_ns"] is not None
    }


def _descendants(spans: list[dict], root: int) -> set[int]:
    """*root* and every span below it (spans are listed parents first)."""
    inside = {root}
    for span in spans:
        if span["parent"] in inside:
            inside.add(span["id"])
    return inside


def self_time_by_layer(spans: list[dict], under: int | None = None) -> dict[str, float]:
    """Layer -> total self seconds, heaviest first.

    With *under*, only that span and its descendants count (the timed
    section, say, without set-up and checks).
    """
    own = self_times(spans)
    keep = None if under is None else _descendants(spans, under)
    layers: dict[str, float] = {}
    for span in spans:
        if span["id"] in own and (keep is None or span["id"] in keep):
            layer = layer_of(span["name"])
            layers[layer] = layers.get(layer, 0.0) + own[span["id"]] / 1e9
    return dict(sorted(layers.items(), key=lambda kv: (-kv[1], kv[0])))
