"""The durable ingestion pipeline: WAL → apply → checkpoint.

:class:`IngestPipeline` ties the pieces together around an
:class:`~repro.core.incremental.IncrementalAnalyzer`:

1. **Persist before apply**: each batch handed to :meth:`apply` is
   validated against the live corpus (a poison delta is rejected
   *before* it can be written and replayed forever), appended to the
   write-ahead log as one record, then applied through the analyzer's
   warm-started re-solve.  The pipeline keeps no queue of its own:
   deltas wait and coalesce in
   :class:`~repro.serve.store.SnapshotStore`, whose refresh hands each
   merged batch to :meth:`apply`, or a caller such as ``repro ingest``
   applies them directly.
2. **Checkpoint** every ``checkpoint_interval`` applied batches: the
   corpus and bit-exact report are written atomically, the WAL is
   rotated, and segments fully covered by the checkpoint are deleted.

:meth:`open` is the recovery path: load the newest checkpoint (if any),
adopt its state without solving, replay the WAL tail with strict
sequence contiguity — each record folded in exactly once.  The tail is
*coalesced* into one merged delta and applied with a single dirty-row
warm re-solve (replaying N records as N solves made recovery slower
than a cold fit); the recovered analysis therefore lands on the same
corpus and the same fixed point as an uninterrupted run, as a
tolerance-bounded iterate — state-equivalent (scores within solver
tolerance), not necessarily byte-identical when more than one record
replays.

Both the live :meth:`apply` path and the recovery replay fold ride the
analyzer's warm path: a dirty-row re-assembly, a full Jacobi solve
warm-started from the previous fixed point, and fresh domain vectors
and rankings — see the "warm path cost model" section in
``docs/ingest.md``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path

from repro.core.incremental import CorpusDelta, IncrementalAnalyzer
from repro.core.report import InfluenceReport
from repro.data.corpus import BlogCorpus
from repro.data.entities import Link
from repro.errors import CorpusError, IngestError, WalCorruptionError
from repro.ingest.checkpoint import Checkpoint, CheckpointManager
from repro.ingest.retention import RetentionPolicy
from repro.ingest.wal import WriteAheadLog
from repro.obs import NULL_INSTRUMENTATION, Instrumentation, get_logger

__all__ = ["IngestConfig", "IngestPipeline"]

_LOG = get_logger("ingest.pipeline")


@dataclass(frozen=True, slots=True)
class IngestConfig:
    """Durability policy for one pipeline.

    ``checkpoint_interval`` counts *applied batches* (WAL records)
    between checkpoints; ``0`` disables periodic checkpoints (explicit
    :meth:`IngestPipeline.checkpoint` and the close-time checkpoint
    still run).  ``fsync`` is the WAL's durability policy
    (:class:`~repro.ingest.wal.WriteAheadLog`, which keeps its own
    batch cadence).  ``retention`` is the checkpoint-history prune rule
    as a compact
    :meth:`RetentionPolicy.parse <repro.ingest.retention.RetentionPolicy.parse>`
    spec (``"last:1"`` — the pre-timeline single-checkpoint behavior —
    by default; ``"last:N"`` / ``"all"`` / ``"horizon:SECONDS"`` retain
    the history the timeline subsystem serves from).
    """

    checkpoint_interval: int = 16
    fsync: str = "batch"
    retention: str = "last:1"

    def __post_init__(self) -> None:
        RetentionPolicy.parse(self.retention)  # reject bad specs early
        if self.checkpoint_interval < 0:
            raise IngestError(
                f"checkpoint_interval must be >= 0, "
                f"got {self.checkpoint_interval}"
            )


class IngestPipeline:
    """Durable, exactly-once delta ingestion for a live analysis.

    Layout under ``directory``: ``wal/`` (segments) and
    ``checkpoints/`` (atomic checkpoint dirs + ``CURRENT`` pointer).
    The pipeline owns the analyzer's lifecycle from :meth:`open`
    onward; mixing direct ``analyzer.apply`` calls with pipeline use
    would desynchronize the WAL from the state and is on the caller.

    Use as a context manager, or pair :meth:`open` with :meth:`close`.
    """

    def __init__(
        self,
        directory: str | Path,
        analyzer: IncrementalAnalyzer,
        config: IngestConfig | None = None,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self._dir = Path(directory)
        self._analyzer = analyzer
        self._config = config or IngestConfig()
        self._instr = instrumentation or NULL_INSTRUMENTATION
        self._wal = WriteAheadLog(
            self._dir / "wal", fsync=self._config.fsync,
            instrumentation=self._instr,
        )
        self._ckpts = CheckpointManager(
            self._dir / "checkpoints", instrumentation=self._instr,
            retention=RetentionPolicy.parse(self._config.retention),
        )

        metrics = self._instr.metrics
        self._batch_counter = metrics.counter(
            "repro_ingest_batches_total", "Batches durably applied"
        )
        self._entity_counter = metrics.counter(
            "repro_ingest_entities_total", "Entities durably applied"
        )
        self._replayed_counter = metrics.counter(
            "repro_ingest_replayed_total", "WAL records replayed on recovery"
        )
        self._applied_gauge = metrics.gauge(
            "repro_ingest_applied_seq", "Sequence number of the last applied batch"
        )
        self._recovery_seconds = metrics.histogram(
            "repro_ingest_recovery_seconds",
            "open(): checkpoint load + WAL tail replay latency",
        )
        self._replay_lag_gauge = metrics.gauge(
            "repro_ingest_replay_lag",
            "Durable WAL records not yet folded into the analysis",
        )

        # Serializes every state transition that a checkpoint must see
        # atomically (apply's WAL append + solve, checkpoint's write +
        # WAL rotation) against the background recovery checkpoint.
        # Reentrant because apply() checkpoints from inside itself.
        self._state_lock = threading.RLock()
        self._recovery_ckpt: threading.Thread | None = None
        self._recovery_ckpt_error: Exception | None = None
        self._opened = False
        self._applied = 0
        self._ckpt_seq: int | None = None
        # The checkpoint open() restored from: the analyzer reads its
        # memory-mapped corpus until the first apply copies it.
        self._restored: Checkpoint | None = None

    # ------------------------------------------------------------------
    @property
    def directory(self) -> Path:
        """The durable root (``wal/`` + ``checkpoints/``)."""
        return self._dir

    @property
    def analyzer(self) -> IncrementalAnalyzer:
        """The live analyzer the pipeline feeds."""
        return self._analyzer

    @property
    def config(self) -> IngestConfig:
        """The durability policy."""
        return self._config

    @property
    def wal(self) -> WriteAheadLog:
        """The underlying write-ahead log."""
        return self._wal

    @property
    def checkpoints(self) -> CheckpointManager:
        """The underlying checkpoint store."""
        return self._ckpts

    @property
    def applied_seq(self) -> int:
        """Sequence number of the last batch folded into the analysis."""
        return self._applied

    @property
    def replay_lag(self) -> int:
        """Durable WAL records not yet folded into the live analysis.

        Zero in steady state — :meth:`apply` folds each record the
        moment it is logged, and :meth:`open` ends with the tail
        replayed.  Non-zero only between a WAL append and the apply it
        fronts (or in a process that crashed mid-apply), which is why
        the serving tier watches it as an SLO probe.
        """
        lag = max(0, self._wal.last_seq - self._applied)
        self._replay_lag_gauge.set(lag)
        return lag

    @property
    def report(self) -> InfluenceReport:
        """The analyzer's current report."""
        return self._analyzer.report

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def open(self, base_corpus: BlogCorpus | None = None) -> InfluenceReport:
        """Recover (or bootstrap) the analysis; idempotent per process.

        With a checkpoint on disk its state is adopted without solving
        and the WAL tail is replayed — each record exactly once, in
        strictly contiguous sequence order, coalesced into one merged
        batch (one warm solve) when the tail has two or more records.
        Without a checkpoint, ``base_corpus`` is fitted cold and the
        *entire* WAL replays.  When anything was replayed (or no
        checkpoint existed) a fresh checkpoint is scheduled on a
        background thread so the next recovery starts warm — the write
        is off ``open()``'s critical path, recovery returns as soon as
        the state is live (:meth:`wait_recovery_checkpoint` joins it).
        A replayed recovery leaves an incident dump in the flight
        recorder (``/debug/events?dumps=1``).
        """
        if self._opened:
            return self._analyzer.report
        with self._recovery_seconds.time(), \
                self._instr.tracer.span("ingest-recover"):
            with self._instr.tracer.span("checkpoint-load"):
                checkpoint = self._ckpts.load(self._analyzer.params)
                if checkpoint is not None:
                    self._analyzer.restore(
                        checkpoint.corpus, checkpoint.report
                    )
                    self._restored = checkpoint
            if checkpoint is not None:
                self._applied = checkpoint.seq
                self._ckpt_seq = checkpoint.seq
            elif base_corpus is not None:
                self._analyzer.fit(base_corpus)
                self._applied = 0
            else:
                raise IngestError(
                    f"nothing to recover in {self._dir}: no checkpoint "
                    "found and no base corpus given"
                )
            tail: list[CorpusDelta] = []
            with self._instr.tracer.span("ingest-replay") as replay_span:
                expected = self._applied
                for seq, delta in self._wal.replay(after_seq=self._applied):
                    if seq != expected + 1:
                        raise WalCorruptionError(
                            f"recovery expected seq {expected + 1}, "
                            f"wal yielded {seq}: a segment is missing"
                        )
                    tail.append(delta)
                    expected = seq
                coalesced = self._replay_tail(tail)
                self._release_restored()
                self._applied = expected
                replay_span.event(records=len(tail), coalesced=coalesced)
            replayed = len(tail)
            self._replayed_counter.inc(replayed)
            self._applied_gauge.set(self._applied)
            self._replay_lag_gauge.set(0)
        self._opened = True
        if replayed or checkpoint is None:
            self._recovery_ckpt = threading.Thread(
                target=self._recovery_checkpoint,
                name="mass-ingest-recovery-ckpt",
                daemon=True,
            )
            self._recovery_ckpt.start()
        if replayed:
            self._instr.recorder.dump(
                "ingest-recovery",
                extra={
                    "directory": str(self._dir),
                    "replayed": replayed,
                    "applied_seq": self._applied,
                    "from_checkpoint": checkpoint is not None,
                },
            )
        _LOG.info(
            "pipeline open: %s, seq %d (%s checkpoint, %d replayed)",
            self._dir, self._applied,
            "from" if checkpoint is not None else "no", replayed,
        )
        return self._analyzer.report

    def _recovery_checkpoint(self) -> None:
        """The deferred post-recovery checkpoint (background thread).

        Skips itself when an interval checkpoint already sealed the
        current seq in the meantime — the freshness it exists to
        provide is already on disk.  A failure is remembered (surfaced
        by :meth:`wait_recovery_checkpoint`) but does not crash the
        pipeline: the state is still durable through the WAL, recovery
        just starts colder.
        """
        try:
            with self._state_lock, \
                    self._instr.tracer.span("ingest-recovery-checkpoint"):
                if self._ckpt_seq != self._applied:
                    self.checkpoint()
        except Exception as exc:  # noqa: BLE001 - recorded, not fatal
            self._recovery_ckpt_error = exc
            _LOG.warning("background recovery checkpoint failed: %s", exc)

    def wait_recovery_checkpoint(self, timeout: float | None = None) -> None:
        """Join the background post-recovery checkpoint, if one runs.

        Deterministic rendezvous for callers (and tests) that need the
        fresh checkpoint on disk before proceeding.  Re-raises the
        background failure, if any.
        """
        thread = self._recovery_ckpt
        if thread is not None:
            thread.join(timeout)
        if self._recovery_ckpt_error is not None:
            raise IngestError(
                "post-recovery checkpoint failed"
            ) from self._recovery_ckpt_error

    def _release_restored(self) -> None:
        """Close the restored checkpoint once the analyzer stops reading it.

        The analyzer's first apply after a restore makes its own copy
        of the corpus; from then on the checkpoint's file and mapping
        only pin memory.
        """
        restored = self._restored
        if restored is not None \
                and self._analyzer.report.corpus is not restored.corpus:
            restored.close()
            self._restored = None

    def _replay_tail(self, tail: list[CorpusDelta]) -> bool:
        """Fold the contiguous WAL tail into the analyzer.

        Tails of two or more records are coalesced into one merged
        delta so recovery pays a single dirty-row warm solve instead of
        one per record.  A single-record tail applies as-is, which
        keeps one-record recovery byte-identical to the live apply.
        Returns whether the coalesced path ran; a merge the delta
        algebra rejects (e.g. an entity added then superseded in a way
        ``merge`` cannot express) falls back to record-at-a-time
        replay, trading speed for fidelity.
        """
        if not tail:
            return False
        if len(tail) == 1:
            self._analyzer.apply(tail[0])
            return False
        try:
            merged = CorpusDelta.merge(*tail)
        except CorpusError:
            _LOG.warning(
                "wal tail of %d records would not coalesce; "
                "replaying record-at-a-time", len(tail),
            )
            for delta in tail:
                self._analyzer.apply(delta)
            return False
        self._analyzer.apply(merged)
        return True

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def apply(self, delta: CorpusDelta) -> InfluenceReport:
        """Durably apply one batch: validate → WAL append → warm re-solve.

        The validate-first order is the poison-delta guard: a delta the
        analyzer would reject never reaches the log, so replay can
        never get stuck on it.  Exactly-once follows from the sequence
        discipline — this batch is WAL record ``applied_seq + 1`` and
        recovery skips records at or below the checkpoint.
        """
        if not self._opened:
            raise IngestError("call open() before apply()")
        if delta.is_empty():
            return self._analyzer.report
        with self._state_lock:
            self._analyzer.validate_delta(delta)
            seq = self._wal.append(delta)
            if seq != self._applied + 1:
                raise IngestError(
                    f"wal assigned seq {seq} but pipeline expected "
                    f"{self._applied + 1}; log and state are desynchronized"
                )
            report = self._analyzer.apply(delta)
            self._release_restored()
            self._applied = seq
            self._batch_counter.inc()
            self._entity_counter.inc(delta.size())
            self._applied_gauge.set(seq)
            interval = self._config.checkpoint_interval
            if interval and seq - (self._ckpt_seq or 0) >= interval:
                self.checkpoint()
        return report

    def ingest_crawl(self, service, seeds, crawl_config=None) -> InfluenceReport:
        """Crawl a blog service and durably ingest whatever is new.

        Streams the crawl wave-by-wave
        (:meth:`~repro.crawler.crawler.BlogCrawler.stream`): each BFS
        wave is filtered against the live corpus (a re-crawl is a
        partial view, not a superset — entities already live are
        skipped and link weights are emitted as growth differences)
        and applied as its own durable delta.  Crawl memory stays
        bounded by one wave plus pending cross-wave references instead
        of a whole second corpus, and a crash mid-crawl durably keeps
        every completed wave.
        """
        from repro.crawler.crawler import BlogCrawler

        crawler = BlogCrawler(
            service, config=crawl_config, instrumentation=self._instr
        )
        # Pre-crawl link weights: growth is measured against the corpus
        # as it stood when the crawl began, not as the waves land.
        live_weights: dict[tuple[str, str], float] = {}
        for link in self._analyzer.report.corpus.links:
            key = (link.source_id, link.target_id)
            live_weights[key] = live_weights.get(key, 0.0) + link.weight
        crawl_totals: dict[tuple[str, str], float] = {}
        emitted: dict[tuple[str, str], float] = {}

        stream = crawler.stream(list(seeds))
        applied = 0
        for wave in stream:
            delta = self._filter_wave(
                wave.delta, live_weights, crawl_totals, emitted
            )
            if delta.is_empty():
                continue
            self.apply(delta)
            applied += delta.size()
        if applied == 0:
            _LOG.info("crawl found nothing new (%d spaces fetched)",
                      len(stream.fetched))
        else:
            _LOG.info(
                "crawl ingested %d new entities across %d spaces "
                "in %d waves",
                applied, len(stream.fetched), stream.waves,
            )
        return self._analyzer.report

    def _filter_wave(
        self,
        delta: CorpusDelta,
        live_weights: dict[tuple[str, str], float],
        crawl_totals: dict[tuple[str, str], float],
        emitted: dict[tuple[str, str], float],
    ) -> CorpusDelta:
        """Reduce a crawl wave to what the live corpus does not have.

        Links re-crawled from live bloggers arrive with their *full*
        weight; what must be applied is only the growth over the
        pre-crawl weight, tracked cumulatively per (source, target)
        pair because parallel links for one pair may span waves.
        """
        corpus = self._analyzer.report.corpus
        bloggers = tuple(
            b for b in delta.bloggers if b.blogger_id not in corpus.bloggers
        )
        posts = tuple(
            p for p in delta.posts if p.post_id not in corpus.posts
        )
        comments = tuple(
            c for c in delta.comments if c.comment_id not in corpus.comments
        )
        links = []
        for link in delta.links:
            key = (link.source_id, link.target_id)
            crawl_totals[key] = crawl_totals.get(key, 0.0) + link.weight
            target = crawl_totals[key] - live_weights.get(key, 0.0)
            growth = target - emitted.get(key, 0.0)
            if growth > 0:
                emitted[key] = target
                links.append(Link(link.source_id, link.target_id, growth))
        return CorpusDelta(
            bloggers=bloggers, posts=posts, comments=comments,
            links=tuple(links),
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self) -> Path:
        """Write a checkpoint at the current seq; rotate + truncate WAL."""
        with self._state_lock:
            # raises before the first fit/restore
            report = self._analyzer.report
            path = self._ckpts.write(report.corpus, report, self._applied)
            self._ckpt_seq = self._applied
            self._wal.rotate()
            self._wal.truncate_upto(self._applied)
            return path

    def close(self) -> None:
        """Checkpoint if behind, release the WAL and the restored
        checkpoint (safe to call twice)."""
        # The deferred recovery checkpoint must not race the WAL close.
        if self._recovery_ckpt is not None:
            self._recovery_ckpt.join(timeout=10.0)
            self._recovery_ckpt = None
        if self._opened and self._ckpt_seq != self._applied:
            self.checkpoint()
        self._wal.close()
        if self._restored is not None:
            self._restored.close()
            self._restored = None

    def __enter__(self) -> "IngestPipeline":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def diagnostics(self) -> dict:
        """Durability health: seq audit across checkpoint, WAL, state.

        ``seq_audit`` re-walks the WAL tail beyond the checkpoint and
        asserts what exactly-once requires: contiguous sequence
        numbers, nothing applied twice (``applied_seq`` never exceeds
        the last durable record), and nothing lost (every record above
        the checkpoint is at or below ``applied_seq`` or still
        replayable).
        """
        ckpt_seq = self._ckpts.latest_seq()
        tail_records = 0
        contiguous = True
        expected = (ckpt_seq or 0) + 1
        try:
            for seq, _delta in self._wal.replay(after_seq=ckpt_seq or 0):
                if seq != expected:
                    contiguous = False
                    break
                expected = seq + 1
                tail_records += 1
        except WalCorruptionError:
            contiguous = False
        wal_last = self._wal.last_seq
        return {
            "opened": self._opened,
            "applied_seq": self._applied,
            "replay_lag": max(0, wal_last - self._applied),
            "checkpoint_seq": ckpt_seq,
            "wal_last_seq": wal_last,
            "wal_segments": [p.name for p in self._wal.segments()],
            "seq_audit": {
                "contiguous": contiguous,
                "records_after_checkpoint": tail_records,
                "no_double_apply": self._applied <= wal_last,
                "no_loss": self._applied >= wal_last - tail_records,
            },
        }
