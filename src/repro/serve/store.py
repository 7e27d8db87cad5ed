"""Snapshot lifecycle: atomic swaps and background refresh.

A deployed MASS keeps crawling while it serves queries.  The
:class:`SnapshotStore` owns that tension: readers grab the current
:class:`~repro.serve.snapshot.InfluenceSnapshot` through the
``.snapshot`` property — one attribute read, never a lock held across
an analysis — while a background refresher drains queued
:class:`~repro.core.incremental.CorpusDelta` batches through an
:class:`~repro.core.incremental.IncrementalAnalyzer` (warm sparse
re-solves off the previous fixed point), compiles a *new* snapshot off
to the side, and swaps it in with a single reference assignment.
Copy-on-write end to end: no reader ever observes a half-updated
analysis, and a reader that grabbed the old snapshot keeps a fully
consistent (merely older) view.

Staleness is bounded, not zero: after a delta is submitted the
refresher may wait up to ``max_staleness`` seconds to coalesce more
deltas into one re-solve (re-solving per comment would waste the warm
start), but no longer.  ``refresh_now()`` forces a synchronous drain —
tests and the CLI use it for determinism.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Mapping, Sequence
from pathlib import Path

from repro.core.incremental import CorpusDelta, IncrementalAnalyzer
from repro.core.parameters import MassParameters
from repro.core.report import InfluenceReport
from repro.data.corpus import BlogCorpus
from repro.errors import CorpusError, ReproError
from repro.nlp.naive_bayes import NaiveBayesClassifier
from repro.obs import (
    NULL_INSTRUMENTATION,
    Instrumentation,
    TraceContext,
    current_trace,
    get_logger,
    use_trace,
)
from repro.serve.snapshot import InfluenceSnapshot

__all__ = ["SnapshotStore"]

_LOG = get_logger("serve.store")


class SnapshotStore:
    """Serve-side owner of the current snapshot and its refresh loop.

    Parameters
    ----------
    corpus:
        The initial corpus; analyzed once (cold) at construction.
    params:
        Model parameters for every (re)analysis.
    domain_seed_words / classifier:
        The domain model, exactly as :class:`~repro.core.model.MassModel`
        resolves it; defaults to the built-in ten-domain seed
        vocabularies.
    max_staleness:
        Upper bound, in seconds, on how long a submitted delta may wait
        before the refresher folds it into a served snapshot.
    durable_dir:
        Optional path enabling durable mode: deltas are write-ahead
        logged and periodically checkpointed through an
        :class:`~repro.ingest.IngestPipeline` rooted there, and a
        store constructed over a directory holding prior state
        *recovers it* — ``corpus`` is only the bootstrap for an empty
        directory.  ``ingest_config`` tunes the durability policy.
    instrumentation:
        Observability sinks: swap counters, refresh latency, queue
        depth.

    Use as a context manager (or call :meth:`start` / :meth:`close`) to
    run the background refresher; without it, :meth:`refresh_now` still
    works synchronously.
    """

    def __init__(
        self,
        corpus: BlogCorpus,
        params: MassParameters | None = None,
        domain_seed_words: Mapping[str, Sequence[str]] | None = None,
        classifier: NaiveBayesClassifier | None = None,
        *,
        max_staleness: float = 0.5,
        durable_dir: str | Path | None = None,
        ingest_config=None,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        if max_staleness < 0:
            raise ReproError(
                f"max_staleness must be >= 0, got {max_staleness}"
            )
        self._instr = instrumentation or NULL_INSTRUMENTATION
        self._max_staleness = float(max_staleness)
        if classifier is None:
            from repro.synth.vocabulary import DOMAIN_VOCABULARIES

            classifier = NaiveBayesClassifier.from_seed_vocabulary(
                dict(domain_seed_words)
                if domain_seed_words is not None
                else DOMAIN_VOCABULARIES
            )
        elif domain_seed_words is not None:
            raise ReproError(
                "pass either classifier= or domain_seed_words=, not both"
            )
        self._analyzer = IncrementalAnalyzer(
            classifier,
            params=params or MassParameters(),
            instrumentation=self._instr,
        )
        metrics = self._instr.metrics
        self._swap_counter = metrics.counter(
            "repro_serve_snapshot_swaps_total", "Snapshot swaps served"
        )
        self._delta_counter = metrics.counter(
            "repro_serve_deltas_applied_total", "Corpus deltas folded in"
        )
        self._queue_gauge = metrics.gauge(
            "repro_serve_queue_depth", "Deltas waiting for the refresher"
        )
        self._refresh_seconds = metrics.histogram(
            "repro_serve_refresh_seconds",
            "Delta drain + re-solve + snapshot compile latency",
        )
        self._staleness_gauge = metrics.gauge(
            "repro_serve_staleness_seconds",
            "Age of the oldest delta not yet folded into a snapshot",
        )
        self._compile_counter = metrics.counter(
            "repro_snapshot_compile_total",
            "Snapshots compiled by refreshes that applied deltas",
        )
        self._compile_seconds = metrics.histogram(
            "repro_snapshot_compile_seconds",
            "InfluenceSnapshot.compile latency (initial fit and refreshes)",
        )
        self._pipeline = None
        if durable_dir is not None:
            from repro.ingest import IngestPipeline

            self._pipeline = IngestPipeline(
                durable_dir,
                self._analyzer,
                config=ingest_config,
                instrumentation=self._instr,
            )
            with self._instr.tracer.span("serve-initial-fit"):
                self._pipeline.open(corpus)
                self._snapshot = self._compile()
        elif ingest_config is not None:
            raise ReproError("ingest_config requires durable_dir")
        else:
            with self._instr.tracer.span("serve-initial-fit"):
                self._analyzer.fit(corpus)
                self._snapshot = self._compile()

        # Each entry pairs a delta with the trace context active where
        # it was submitted (threads do not inherit contextvars, so the
        # hand-off across the queue must be explicit).
        self._queue: deque[tuple[CorpusDelta, TraceContext | None]] = deque()
        # Swap listeners: called with each freshly published snapshot
        # (the multi-process tier republishes it into shared memory).
        self._swap_listeners: list = []
        self._queue_lock = threading.Lock()
        self._first_pending: float | None = None
        self._pending = threading.Event()
        self._refresh_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        _LOG.info(
            "snapshot store ready: epoch %s, %d bloggers",
            self._snapshot.epoch[:12], self._snapshot.num_bloggers,
        )

    def _compile(self) -> InfluenceSnapshot:
        """Compile the analyzer's report, timed into the compile histogram.

        A histogram, not a span: the snapshot build is the
        ``serve-refresh`` span's self time, which a child span would
        take over.
        """
        with self._compile_seconds.time():
            return InfluenceSnapshot.compile(self._analyzer.report)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    @property
    def snapshot(self) -> InfluenceSnapshot:
        """The currently served snapshot (a plain reference read)."""
        return self._snapshot

    @property
    def report(self) -> InfluenceReport:
        """The analyzer's current report (the batch-equivalence anchor)."""
        return self._analyzer.report

    @property
    def params(self) -> MassParameters:
        """The parameters every (re)analysis runs with."""
        return self._analyzer.params

    @property
    def max_staleness(self) -> float:
        """The configured staleness bound in seconds."""
        return self._max_staleness

    @property
    def pending_deltas(self) -> int:
        """Deltas submitted but not yet folded into a snapshot."""
        with self._queue_lock:
            return len(self._queue)

    @property
    def staleness_seconds(self) -> float:
        """Age of the oldest pending delta (0.0 with an empty queue).

        This is the quantity the ``snapshot_staleness`` SLO bounds
        against ``max_staleness``: how long the served snapshot has
        been missing submitted data.
        """
        with self._queue_lock:
            first = self._first_pending
        age = 0.0 if first is None else max(0.0, time.monotonic() - first)
        self._staleness_gauge.set(age)
        return age

    def ensure_fresh(self) -> InfluenceSnapshot:
        """Read-path staleness enforcement: refresh if over budget.

        Called by the query engine before answering.  When the oldest
        pending delta has waited at least ``max_staleness`` seconds
        (with ``max_staleness=0``: when *anything* is pending), the
        refresh happens synchronously on the caller's thread — under
        the caller's trace context, so a request that pays for a
        refresh owns its spans.  Otherwise the background refresher's
        schedule stands.
        """
        with self._queue_lock:
            first = self._first_pending
        if first is None:
            return self._snapshot
        if time.monotonic() - first >= self._max_staleness:
            return self.refresh_now()
        return self._snapshot

    @property
    def pipeline(self):
        """The durable ingestion pipeline (``None`` outside durable mode)."""
        return self._pipeline

    def add_swap_listener(self, listener) -> None:
        """Register ``listener(snapshot)`` to run after every swap.

        Called synchronously inside :meth:`refresh_now`, *after* the
        reference swap, still under the refresh trace — this is how the
        serving cluster learns a new epoch exists and republishes it
        into the shared-memory arena.  A listener that raises is logged
        and skipped; it can never wedge the refresh loop.
        """
        self._swap_listeners.append(listener)

    def _notify_swap(self, snapshot: InfluenceSnapshot) -> None:
        for listener in list(self._swap_listeners):
            try:
                listener(snapshot)
            except Exception:  # noqa: BLE001 - listeners are best effort
                _LOG.exception("snapshot swap listener failed")

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def submit(self, delta: CorpusDelta) -> None:
        """Queue a delta for the refresher; returns immediately.

        Empty deltas are dropped.  The refresher folds everything
        queued into one warm re-solve within ``max_staleness`` seconds
        (when running); call :meth:`refresh_now` to force it.
        """
        if delta.is_empty():
            return
        ctx = current_trace()  # captured here, re-activated at refresh
        with self._queue_lock:
            self._queue.append((delta, ctx))
            if self._first_pending is None:
                self._first_pending = time.monotonic()
            depth = len(self._queue)
        self._queue_gauge.set(depth)
        self._pending.set()

    def refresh_now(self) -> InfluenceSnapshot:
        """Drain the queue synchronously and swap in a fresh snapshot.

        Serialized against the background refresher; readers are never
        blocked — they keep the old snapshot until the single-reference
        swap at the end.  With nothing queued this is a no-op returning
        the current snapshot.  A delta the corpus rejects is logged and
        skipped without reaching the WAL; the rest of its batch is still
        applied, and a batch with nothing left to apply compiles nothing.
        """
        with self._refresh_lock:
            with self._queue_lock:
                pending = list(self._queue)
                self._queue.clear()
                self._first_pending = None
                self._pending.clear()
            self._queue_gauge.set(0)
            self._staleness_gauge.set(0.0)
            if not pending:
                return self._snapshot
            deltas = [delta for delta, _ in pending]
            # Trace attribution: a caller already inside a trace (the
            # ensure_fresh read path) keeps it — the request that pays
            # for the refresh owns the spans.  The background refresher
            # has no ambient trace, so it adopts the context captured
            # at the first traced submit.
            ctx = current_trace()
            if ctx is None:
                ctx = next(
                    (c for _, c in pending if c is not None), None
                )
            with use_trace(ctx):
                with self._refresh_seconds.time(), \
                        self._instr.tracer.span("serve-refresh"):
                    # One merged batch per refresh: one warm re-solve,
                    # and in durable mode one WAL record per swap — the
                    # granularity recovery replays at.
                    apply = (self._analyzer.apply if self._pipeline is None
                             else self._pipeline.apply)
                    try:
                        apply(CorpusDelta.merge(*deltas))
                        applied = len(deltas)
                    except CorpusError:
                        # The merge and the validation both raise before
                        # any mutation or WAL append, so retrying one
                        # delta at a time costs a rejected delta only
                        # itself, never the deltas batched with it.
                        applied = 0
                        for delta in deltas:
                            try:
                                apply(delta)
                                applied += 1
                            except CorpusError as exc:
                                _LOG.warning(
                                    "delta rejected and skipped: %s", exc
                                )
                    if not applied:
                        return self._snapshot
                    self._delta_counter.inc(applied)
                    fresh = self._compile()
                    self._compile_counter.inc()
                    self._snapshot = fresh  # atomic copy-on-write swap
                self._notify_swap(fresh)
                self._swap_counter.inc()
                self._instr.recorder.note(
                    "snapshot-swap",
                    epoch=fresh.epoch[:12],
                    deltas=applied,
                    bloggers=fresh.num_bloggers,
                )
                _LOG.info(
                    "snapshot refreshed: %d deltas, epoch %s, %d bloggers",
                    applied, fresh.epoch[:12], fresh.num_bloggers,
                )
            return fresh

    # ------------------------------------------------------------------
    # Refresher lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SnapshotStore":
        """Start the background refresher (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="mass-snapshot-refresher", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop the refresher, drain the queue, seal durable state."""
        self._stop.set()
        self._pending.set()  # wake the loop so it can exit promptly
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.refresh_now()
        if self._pipeline is not None:
            self._pipeline.close()

    def __enter__(self) -> "SnapshotStore":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _run(self) -> None:
        while not self._stop.is_set():
            if not self._pending.wait(timeout=0.1):
                continue
            if self._stop.is_set():
                return
            # Coalesce: give later deltas up to the staleness bound
            # (measured from the first queued delta) to pile on.
            while True:
                with self._queue_lock:
                    first = self._first_pending
                if first is None:
                    break
                remaining = self._max_staleness - (time.monotonic() - first)
                if remaining <= 0:
                    break
                if self._stop.wait(timeout=min(remaining, 0.05)):
                    return
            self.refresh_now()
