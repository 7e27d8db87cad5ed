"""Span trees for the MASS pipeline, stitched by trace context.

The paper's Fig. 2 pipeline is multi-stage (Crawler → Storage →
Analyzer → Scoring → UI) and its solver is iterative; a flat timer
cannot say *where* an analysis spent its time.  A :class:`Tracer`
records nested :class:`Span` trees::

    tracer = Tracer()
    with tracer.span("analyze"):
        with tracer.span("solver") as span:
            span.event(iteration=1, residual=0.25)

and exports them as JSON (the CLI's ``--trace-out``).  Spans carry
point-in-time *events* — the solver logs one per iteration with the
residual, which is the convergence trajectory of Eqs. 1–4.

Clocks: durations come from ``time.perf_counter()`` (monotonic, immune
to NTP steps); each span additionally records a ``wall_start``
(``time.time()``) purely for rendering, so a wall-clock step mid-span
can skew the displayed timestamp but never a duration.

The span *stack* lives on a per-tracer :mod:`contextvars` variable, so
concurrent threads (HTTP handler threads, the snapshot refresher) each
nest their own spans without seeing each other's — the finished trees
all land in ``roots`` (append is lock-protected).  When a
:class:`~repro.obs.context.TraceContext` is active, every opened span
is stamped with its ``trace_id`` and parented under the innermost open
span (or the context's remote ``span_id`` at the top of a thread), and
the active context is narrowed to the new span for the span's
duration — serializing ``current_trace()`` anywhere below therefore
names the true causal parent.  Spans completed in *other processes*
re-enter the tree via :meth:`Tracer.adopt`.

A tracer constructed with ``enabled=False`` yields a shared no-op
span, so instrumented code pays one context-manager entry and nothing
else.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator

from repro.obs.context import _CURRENT, current_trace, new_span_id

__all__ = ["Span", "Tracer", "NULL_SPAN"]


class Span:
    """One timed pipeline stage, with child spans and point events."""

    __slots__ = (
        "name", "start", "end", "children", "events",
        "trace_id", "span_id", "parent_id", "wall_start",
    )

    def __init__(
        self,
        name: str,
        start: float,
        *,
        trace_id: str | None = None,
        span_id: str | None = None,
        parent_id: str | None = None,
        wall_start: float | None = None,
    ) -> None:
        self.name = name
        self.start = start  # perf_counter domain: durations only
        self.end: float | None = None
        self.children: list[Span] = []
        self.events: list[dict[str, object]] = []
        self.trace_id = trace_id
        self.span_id = span_id if span_id is not None else new_span_id()
        self.parent_id = parent_id
        # Wall-clock birth timestamp, for rendering only — a wall-clock
        # step (NTP) mid-span skews this, never the duration.
        self.wall_start = wall_start if wall_start is not None else time.time()

    def event(self, **fields: object) -> None:
        """Record a point-in-time event (e.g. one solver iteration)."""
        self.events.append(dict(fields))

    @property
    def duration(self) -> float:
        """Elapsed seconds (up to now if the span is still open)."""
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    def find(self, name: str) -> "Span | None":
        """First descendant span called ``name`` (depth-first), or None."""
        for child in self.children:
            if child.name == name:
                return child
            found = child.find(name)
            if found is not None:
                return found
        return None

    def as_dict(self, origin: float | None = None) -> dict[str, object]:
        """JSON-able tree rooted at this span.

        ``origin`` anchors ``start_ms`` offsets; the root uses its own
        start so the tree is self-contained.
        """
        base = self.start if origin is None else origin
        node: dict[str, object] = {
            "name": self.name,
            "start_ms": round((self.start - base) * 1000.0, 3),
            "duration_ms": round(self.duration * 1000.0, 3),
            "wall_start": self.wall_start,
            "span_id": self.span_id,
        }
        if self.trace_id is not None:
            node["trace_id"] = self.trace_id
        if self.parent_id is not None:
            node["parent_id"] = self.parent_id
        if self.events:
            node["events"] = self.events
        if self.children:
            node["children"] = [
                child.as_dict(origin=base) for child in self.children
            ]
        return node


class _NullSpan:
    """No-op span returned by a disabled tracer."""

    __slots__ = ()

    def event(self, **fields: object) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Collect span trees for one run of the pipeline.

    ``on_close`` (when set) is called with every span as it closes —
    the flight recorder hooks in here.  Adopted spans fire it too.

    ``max_roots`` (when set) bounds ``roots`` for a long-lived process:
    each new root first drops the oldest *closed* trees beyond the
    bound.  Open trees are never dropped, so while more than
    ``max_roots`` are open at once the list is longer.  The default
    keeps every tree.
    """

    def __init__(
        self,
        enabled: bool = True,
        on_close: Callable[[Span], None] | None = None,
        max_roots: int | None = None,
    ) -> None:
        self.enabled = enabled
        self.on_close = on_close
        self.max_roots = max_roots
        self.roots: list[Span] = []
        self._roots_lock = threading.Lock()
        # Per-tracer, per-thread/task open-span stack.  New threads
        # start with the default (empty) tuple, which is exactly the
        # isolation we want: concurrent requests never co-nest.
        self._stack: ContextVar[tuple[Span, ...]] = ContextVar(
            "repro-span-stack", default=()
        )

    @contextmanager
    def span(self, name: str) -> Iterator[Span | _NullSpan]:
        """Open a child of the current span (or a new root)."""
        if not self.enabled:
            yield NULL_SPAN
            return
        ctx = current_trace()
        stack = self._stack.get()
        if stack:
            parent_id = stack[-1].span_id
        else:
            parent_id = ctx.span_id if ctx is not None else None
        span = Span(
            name,
            time.perf_counter(),
            trace_id=ctx.trace_id if ctx is not None else None,
            parent_id=parent_id,
        )
        if stack:
            stack[-1].children.append(span)
        else:
            self._add_root(span)
        stack_token = self._stack.set(stack + (span,))
        # Narrow the active context to this span so anything below that
        # serializes the context (queues, forked workers) names this
        # span as its parent.
        ctx_token = (
            _CURRENT.set(ctx.child(span.span_id)) if ctx is not None else None
        )
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            if ctx_token is not None:
                _CURRENT.reset(ctx_token)
            self._stack.reset(stack_token)
            if self.on_close is not None:
                self.on_close(span)

    def adopt(
        self,
        name: str,
        *,
        duration: float = 0.0,
        wall_start: float | None = None,
        trace_id: str | None = None,
        parent_id: str | None = None,
        span_id: str | None = None,
        **fields: object,
    ) -> Span | _NullSpan:
        """Graft a span that completed elsewhere (another process).

        The span is attached under the innermost open span (or as a new
        root), closed immediately with the reported ``duration``, and
        stamped with the *remote* trace/span/parent ids — this is how
        a forked serving worker's ``replica-attach`` span re-enters the
        tree of the request that paid for the refresh.  ``start`` is back-dated from now by
        ``duration``, so offsets are approximate; durations are exact.
        """
        if not self.enabled:
            return NULL_SPAN
        now = time.perf_counter()
        if trace_id is None:
            ctx = current_trace()
            trace_id = ctx.trace_id if ctx is not None else None
        stack = self._stack.get()
        if parent_id is None and stack:
            parent_id = stack[-1].span_id
        span = Span(
            name,
            now - max(0.0, duration),
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
            wall_start=wall_start,
        )
        span.end = now
        if fields:
            span.event(**fields)
        if stack:
            stack[-1].children.append(span)
        else:
            self._add_root(span)
        if self.on_close is not None:
            self.on_close(span)
        return span

    def _add_root(self, span: Span) -> None:
        """Append a root, first dropping closed trees beyond ``max_roots``."""
        with self._roots_lock:
            roots = self.roots
            if self.max_roots is not None:
                excess = len(roots) + 1 - self.max_roots
                index = 0
                while excess > 0 and index < len(roots):
                    if roots[index].end is None:
                        index += 1
                    else:
                        del roots[index]
                        excess -= 1
            roots.append(span)

    @property
    def current(self) -> Span | None:
        """The innermost open span of this thread/task, if any."""
        stack = self._stack.get()
        return stack[-1] if stack else None

    def find(self, name: str) -> Span | None:
        """First span called ``name`` across all recorded trees."""
        with self._roots_lock:
            roots = list(self.roots)
        for root in roots:
            if root.name == name:
                return root
            found = root.find(name)
            if found is not None:
                return found
        return None

    def clear(self) -> None:
        """Drop all recorded (closed) trees."""
        with self._roots_lock:
            self.roots = [root for root in self.roots if root.end is None]

    def as_dict(self) -> dict[str, object]:
        """JSON-able export of every recorded tree."""
        with self._roots_lock:
            roots = list(self.roots)
        return {"spans": [root.as_dict() for root in roots]}

    def render_json(self, indent: int = 2) -> str:
        """The trace as a JSON document."""
        return json.dumps(self.as_dict(), indent=indent)
