"""Request-scoped trace context for cross-tier correlation.

PR 1's spans and metrics are per-component islands: the HTTP handler,
the snapshot refresher, the incremental solver, and the pre-fork
serving workers each record telemetry, but nothing ties one request's
slice of each together.  A :class:`TraceContext` is that tie — a
``trace_id`` minted once at the edge (``serve/http.py`` per request,
or any caller of :func:`new_trace`) plus the id of the innermost open
span, carried implicitly through the call tree on a
:mod:`contextvars` variable.

Propagation rules:

- **Same thread**: :func:`use_trace` / :func:`activate` set the
  context; everything downstream reads it with :func:`current_trace`.
  The :class:`~repro.obs.tracing.Tracer` narrows ``span_id`` to the
  innermost open span automatically, so a component that serializes
  the context always names its true causal parent.
- **Across threads**: a new thread starts with *no* context (Python
  threads do not inherit contextvars).  Hand-off is explicit — capture
  ``current_trace()`` where the work is enqueued (e.g.
  ``SnapshotStore.submit``) and re-activate it where the work runs.
- **Across processes**: serialize with :meth:`TraceContext.to_dict`,
  rebuild with :meth:`TraceContext.from_dict` (``serve/shm.py`` ships
  the dict in each published snapshot envelope, so a forked worker's
  attach span joins the refresh's trace).
- **Across the wire**: the HTTP layer accepts and echoes the id via
  the ``X-Repro-Trace-Id`` header; :meth:`TraceContext.from_header`
  validates an inbound value and mints a fresh trace otherwise.

Baggage is a small immutable mapping of request annotations (route,
client label, …) that rides along without any component having to
declare parameters for it.
"""

from __future__ import annotations

import logging
import os
from contextlib import contextmanager
from contextvars import ContextVar, Token
from dataclasses import dataclass, replace
from typing import Iterator, Mapping

__all__ = [
    "TraceContext",
    "TraceContextFilter",
    "activate",
    "current_trace",
    "deactivate",
    "new_span_id",
    "new_trace",
    "use_trace",
]

#: Hex characters accepted in an inbound trace id (lowercase canonical).
_HEX = frozenset("0123456789abcdef")

#: Inbound trace ids outside [8, 64] hex chars are rejected (minted anew).
_MIN_ID_LEN = 8
_MAX_ID_LEN = 64


def _random_hex(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


def new_span_id() -> str:
    """A fresh 64-bit span id (16 hex chars)."""
    return _random_hex(8)


@dataclass(frozen=True, slots=True)
class TraceContext:
    """One request's identity: trace id, parent span id, baggage.

    Immutable — "mutations" (:meth:`child`, :meth:`with_baggage`)
    return new instances, so a context captured at a queue boundary is
    safe from later edits.
    """

    trace_id: str
    span_id: str
    baggage: tuple[tuple[str, str], ...] = ()

    @classmethod
    def new(
        cls,
        trace_id: str | None = None,
        baggage: Mapping[str, str] | None = None,
    ) -> "TraceContext":
        """Mint a context (fresh 128-bit trace id unless one is given)."""
        return cls(
            trace_id=trace_id if trace_id else _random_hex(16),
            span_id=new_span_id(),
            baggage=tuple(sorted((baggage or {}).items())),
        )

    @classmethod
    def from_header(cls, value: str | None) -> "TraceContext":
        """Adopt an inbound ``X-Repro-Trace-Id`` value, or mint fresh.

        Accepts lowercase-hex ids of 8–64 chars (case-folded); anything
        else — missing, empty, non-hex, oversized — gets a new trace
        rather than an error, so a malformed client header can never
        fail a request.
        """
        if value:
            candidate = value.strip().lower()
            if (
                _MIN_ID_LEN <= len(candidate) <= _MAX_ID_LEN
                and set(candidate) <= _HEX
            ):
                return cls.new(trace_id=candidate)
        return cls.new()

    def child(self, span_id: str) -> "TraceContext":
        """The same trace with ``span_id`` as the new causal parent."""
        return replace(self, span_id=span_id)

    def with_baggage(self, **items: str) -> "TraceContext":
        """A copy carrying additional baggage entries."""
        merged = dict(self.baggage)
        merged.update({key: str(value) for key, value in items.items()})
        return replace(self, baggage=tuple(sorted(merged.items())))

    def baggage_dict(self) -> dict[str, str]:
        """The baggage as a plain dict copy."""
        return dict(self.baggage)

    def to_dict(self) -> dict[str, object]:
        """JSON/pickle-able form for queue and process boundaries."""
        payload: dict[str, object] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
        }
        if self.baggage:
            payload["baggage"] = dict(self.baggage)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "TraceContext":
        """Rebuild a context serialized with :meth:`to_dict`."""
        baggage = payload.get("baggage") or {}
        return cls(
            trace_id=str(payload["trace_id"]),
            span_id=str(payload.get("span_id") or new_span_id()),
            baggage=tuple(
                sorted((str(k), str(v)) for k, v in dict(baggage).items())
            ),
        )


_CURRENT: ContextVar[TraceContext | None] = ContextVar(
    "repro-trace-context", default=None
)


def new_trace(baggage: Mapping[str, str] | None = None) -> TraceContext:
    """Mint a fresh trace context (not yet activated)."""
    return TraceContext.new(baggage=baggage)


def current_trace() -> TraceContext | None:
    """The active trace context of this thread/task, if any."""
    return _CURRENT.get()


def activate(ctx: TraceContext | None) -> Token:
    """Set the active context; pair with :func:`deactivate`."""
    return _CURRENT.set(ctx)


def deactivate(token: Token) -> None:
    """Restore the context that was active before :func:`activate`."""
    _CURRENT.reset(token)


@contextmanager
def use_trace(ctx: TraceContext | None) -> Iterator[TraceContext | None]:
    """Scope ``ctx`` as the active trace for the ``with`` body.

    ``use_trace(None)`` is an explicit "no trace" scope (useful to
    fence background work off from an unrelated ambient context).
    """
    token = _CURRENT.set(ctx)
    try:
        yield ctx
    finally:
        _CURRENT.reset(token)


class TraceContextFilter(logging.Filter):
    """Stamp log records with the active ``trace_id``.

    Attached by :func:`repro.obs.configure_logging` (and the flight
    recorder's log capture) so every log line emitted under an active
    trace is correlatable with the spans of the same request.  Records
    that already carry a ``trace_id`` (e.g. via ``extra=``) win.
    """

    def filter(self, record: logging.LogRecord) -> bool:
        if not hasattr(record, "trace_id"):
            ctx = _CURRENT.get()
            record.trace_id = ctx.trace_id if ctx is not None else None
        return True
