"""Benchmark-side tracing and the layer table built from it.

:class:`Recorder` keeps one span per public call the benchmark makes
into the program: name, start, end, parent, and the id of the op it
belongs to (the op's root span).  Spans stay in memory until the run
ends.  :func:`layer_metrics` turns them into per-layer numbers, and
:func:`format_table` prints the same numbers as rows of busy time,
self time, count and unattributed time, each naming the end-to-end
metric the layer should move.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from common import Tally, median

#: Largest share of an op's traced time its direct child spans may
#: leave uncovered.
COVERAGE = 0.05


class Recorder:
    """In-memory span recorder; one root span per op."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._next_id = 0

    def _new(self, name: str, parent: dict | None, kind: str | None,
             start: float, end: float | None, counts: dict) -> dict:
        self._next_id += 1
        span = {
            "id": self._next_id,
            "op": parent["op"] if parent else self._next_id,
            "parent": parent["id"] if parent else None,
            "name": name,
            "kind": parent["kind"] if parent else kind,
            "start": start,
            "end": end,
            "counts": dict(counts),
        }
        self.spans.append(span)
        return span

    def _open(self, name: str, kind: str | None, counts: dict) -> dict:
        parent = self._stack[-1] if self._stack else None
        return self._new(name, parent, kind, time.perf_counter(), None,
                         counts)

    @contextmanager
    def op(self, name: str, kind: str | None = None, **counts: float):
        """Root span of one op; every span opened inside joins it."""
        if self._stack:
            raise RuntimeError("ops do not nest")
        with self._scope(self._open(name, kind, counts)) as span:
            yield span

    @contextmanager
    def span(self, name: str, **counts: float):
        """A span around one call, under the innermost open span."""
        with self._scope(self._open(name, None, counts)) as span:
            yield span

    @contextmanager
    def _scope(self, span: dict):
        self._stack.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def graft(self, name: str, start: float, end: float,
              parent: dict, **counts: float) -> dict:
        """Attach a span measured elsewhere (same clock) under ``parent``."""
        return self._new(name, parent, None, start, end, counts)


class NullRecorder:
    """Recorder stand-in for untraced runs: records nothing."""

    spans: list[dict] = []

    @contextmanager
    def op(self, name: str, kind: str | None = None, **counts: float):
        yield {"counts": {}}

    @contextmanager
    def span(self, name: str, **counts: float):
        yield {"counts": {}}


@dataclass(frozen=True)
class Row:
    """One per-layer metric read off the spans of each op.

    ``stat`` is ``"busy"`` (summed span durations), ``"self"`` (busy
    minus the time child spans cover), ``"unattributed"`` (an op's
    duration minus its direct child spans; ``span`` is ignored) or the
    name of a count recorded on the span.
    """

    metric: str
    layer: str
    span: str
    stat: str
    unit: str
    moves: str


@dataclass
class _OpView:
    root: dict
    by_name: dict[str, list[dict]] = field(default_factory=dict)
    children: dict[int, list[dict]] = field(default_factory=dict)


def _ops(spans: list[dict]) -> list[_OpView]:
    views: dict[int, _OpView] = {}
    for span in spans:
        if span["parent"] is None:
            views[span["id"]] = _OpView(span)
    for span in spans:
        view = views[span["op"]]
        view.by_name.setdefault(span["name"], []).append(span)
        if span["parent"] is not None:
            view.children.setdefault(span["parent"], []).append(span)
    return list(views.values())


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _value(view: _OpView, row: Row) -> float:
    if row.stat == "unattributed":
        covered = sum(
            _duration(child)
            for child in view.children.get(view.root["id"], [])
        )
        value = _duration(view.root) - covered
    else:
        value = 0.0
        for span in view.by_name.get(row.span, []):
            if row.stat == "busy":
                value += _duration(span)
            elif row.stat == "self":
                value += _duration(span) - sum(
                    _duration(child)
                    for child in view.children.get(span["id"], [])
                )
            else:
                value += float(span["counts"].get(row.stat, 0.0))
    return value * 1000.0 if row.unit == "ms" else value


def check_coverage(spans: list[dict], tally: Tally) -> None:
    """Each op's benchmark spans cover all but COVERAGE of its time."""
    for view in _ops(spans):
        total = _duration(view.root)
        covered = sum(_duration(child)
                      for child in view.children.get(view.root["id"], []))
        share = (total - covered) / total if total > 0 else 1.0
        tally.check(share <= COVERAGE,
                    f"{view.root['name']} op {view.root['id']}: "
                    f"{share:.1%} of its time is in no span")


def layer_metrics(spans: list[dict], rows: list[Row],
                  kinds: tuple[str | None, ...] = (None,)) -> dict:
    """Per-layer metrics: each row's median over the ops of each kind.

    With ``kinds`` other than ``(None,)`` every metric is reported once
    per kind, suffixed ``.<kind>``; a kind with no ops reports 0.
    """
    views = _ops(spans)
    out: dict[str, dict] = {}
    for kind in kinds:
        chosen = [v for v in views if kind is None or v.root["kind"] == kind]
        for row in rows:
            name = row.metric if kind is None else f"{row.metric}.{kind}"
            values = [_value(view, row) for view in chosen]
            out[name] = {
                "value": median(values) if values else 0.0,
                "unit": row.unit,
            }
    return out


def format_table(spans: list[dict], rows: list[Row],
                 kinds: tuple[str | None, ...] = (None,)) -> str:
    """The layer table: one line per row, medians over the ops of a kind.

    Busy rows also show the layer's self time (busy minus the time its
    child spans cover).
    """
    views = _ops(spans)
    lines = [f"{'metric':<28}{'layer':<20}{'value':>12} {'unit':<6}"
             f"{'self_s':>10}  moves"]
    for kind in kinds:
        chosen = [v for v in views if kind is None or v.root["kind"] == kind]
        lines.append(f"-- {len(chosen)} {kind or ''} ops --")
        if not chosen:
            continue
        for row in rows:
            value = median([_value(v, row) for v in chosen])
            own = ""
            if row.stat == "busy":
                self_row = Row("", "", row.span, "self", "s", "")
                own = f"{median([_value(v, self_row) for v in chosen]):.4f}"
            lines.append(f"{row.metric:<28}{row.layer:<20}{value:>12.6g} "
                         f"{row.unit:<6}{own:>10}  {row.moves}")
    return "\n".join(lines)
