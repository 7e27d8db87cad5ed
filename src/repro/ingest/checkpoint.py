"""Atomic checkpoints of the live analysis state.

A checkpoint freezes everything the ingestion pipeline needs to resume
without recomputation (format version 3):

- the grown corpus, as a columnar ``corpus.mcol`` file — loaded back
  memory-mapped, so recovery pays no XML parse and no per-entity
  object cost;
- the bit-exact influence report as ``report.mcol``
  (:func:`repro.core.report_io.save_report_columns`): the score
  vectors and the post × domain membership matrix as ``f64`` columns
  in the corpus's row order, each read back with one copy, so the
  restored warm-start vector is byte-identical to the live one;
- ``meta.json`` with the last-applied WAL sequence number and the
  parameter fingerprint the analysis ran under.

Older checkpoints stay readable: version 2 pairs ``corpus.mcol`` with
an XML ``report.xml``, version 1 an XML ``corpus/`` directory with
``report.xml`` (:func:`repro.core.report_io.load_report`).

Atomicity is the rename trick, twice: the checkpoint is built in a
``.tmp-*`` directory and renamed into place, then the ``CURRENT``
pointer file is rewritten via ``os.replace``.  A crash at any point
leaves either the old checkpoint current or the new one — never a
half-written one.  Leftover ``.tmp-*`` directories from crashed writes
are swept on the next write.

How much *history* survives each write is the
:class:`~repro.ingest.retention.RetentionPolicy` (default: keep only
the newest, the original behavior; keep-last-N / keep-all / horizon
retain the chain the timeline subsystem queries).  With retention in
play ``CURRENT`` is a **hint, not an authority**: resolution always
prefers the newest complete checkpoint by sequence number.  A lagging
``CURRENT`` (crash between the rename and the repoint) would otherwise
resurrect an older retained checkpoint whose covering WAL records may
already be truncated — replaying from it would silently lose applied
batches.  A complete-but-unpointed newer checkpoint is always safe to
adopt: the WAL is only truncated after a write fully completes.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from repro.core.parameters import MassParameters
from repro.core.report import InfluenceReport
from repro.core.report_io import (
    load_report,
    load_report_columns,
    save_report_columns,
)
from repro.data.corpus import BlogCorpus
from repro.data.xml_store import load_corpus
from repro.errors import (
    CheckpointError,
    StoreFormatError,
    TimelineError,
    XmlFormatError,
)
from repro.ingest.retention import RetentionPolicy
from repro.store import ColumnarCorpus, write_corpus
from repro.obs import NULL_INSTRUMENTATION, Instrumentation, get_logger

__all__ = [
    "Checkpoint",
    "CheckpointManager",
    "CHECKPOINT_FORMAT_VERSION",
    "HistoryEntry",
]

_LOG = get_logger("ingest.checkpoint")

CHECKPOINT_FORMAT_VERSION = 3

# Format versions this build can still *read*.  Version 1 stored the
# corpus as an XML directory, version 2 stores it columnar; both keep
# the report as XML.  Version 3 stores the report columnar too.
_READABLE_VERSIONS = (1, 2, 3)

_CURRENT = "CURRENT"
_PREFIX = "ckpt-"
_TMP_PREFIX = ".tmp-"


@dataclass(frozen=True, slots=True)
class Checkpoint:
    """One loaded checkpoint: state plus provenance."""

    seq: int
    corpus: BlogCorpus
    report: InfluenceReport
    path: Path
    meta: dict

    def close(self) -> None:
        """Release the memory-mapped ``corpus.mcol`` (safe to call twice).

        Call it once nothing reads :attr:`corpus` any more; a version-1
        checkpoint's XML-loaded corpus holds no file.
        """
        if isinstance(self.corpus, ColumnarCorpus):
            self.corpus.close()


class HistoryEntry(NamedTuple):
    """One complete checkpoint on the time axis (a manifest row)."""

    name: str
    seq: int
    wall_time: float
    path: Path

    def as_dict(self) -> dict[str, object]:
        """JSON-able view (the HTTP history listing)."""
        return {
            "name": self.name,
            "seq": self.seq,
            "wall_time": self.wall_time,
        }


class CheckpointManager:
    """Write, locate, load, and prune checkpoints in one directory."""

    def __init__(
        self,
        directory: str | Path,
        instrumentation: Instrumentation | None = None,
        retention: RetentionPolicy | None = None,
    ) -> None:
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._instr = instrumentation or NULL_INSTRUMENTATION
        self._retention = retention or RetentionPolicy.keep_last(1)
        metrics = self._instr.metrics
        self._checkpoint_counter = metrics.counter(
            "repro_ingest_checkpoints_total", "Checkpoints written"
        )
        self._checkpoint_seconds = metrics.histogram(
            "repro_ingest_checkpoint_seconds", "Checkpoint write latency"
        )

    # ------------------------------------------------------------------
    @property
    def directory(self) -> Path:
        """Where the checkpoints live."""
        return self._dir

    @property
    def retention(self) -> RetentionPolicy:
        """The prune rule applied after every write."""
        return self._retention

    def _complete_dirs(self) -> list[Path]:
        """Finished checkpoint directories (meta.json present), ordered."""
        return sorted(
            path for path in self._dir.glob(f"{_PREFIX}*")
            if path.is_dir() and (path / "meta.json").is_file()
        )

    def latest_seq(self) -> int | None:
        """Sequence number of the newest complete checkpoint, if any."""
        dirs = self._complete_dirs()
        if not dirs:
            return None
        return self._seq_of(dirs[-1])

    @staticmethod
    def _seq_of(path: Path) -> int:
        try:
            return int(path.name[len(_PREFIX):])
        except ValueError:
            raise CheckpointError(
                f"unrecognized checkpoint directory {path.name!r}"
            ) from None

    # ------------------------------------------------------------------
    def write(
        self, corpus: BlogCorpus, report: InfluenceReport, seq: int
    ) -> Path:
        """Atomically persist the state as the current checkpoint.

        Idempotent per sequence number: if a complete checkpoint for
        ``seq`` already exists it is re-pointed, not rewritten.
        """
        final = self._dir / f"{_PREFIX}{seq:08d}"
        with self._checkpoint_seconds.time(), \
                self._instr.tracer.span("ingest-checkpoint"):
            self._sweep_tmp()
            if not (final / "meta.json").is_file():
                tmp = self._dir / f"{_TMP_PREFIX}{final.name}-{os.getpid()}"
                if tmp.exists():
                    shutil.rmtree(tmp)
                tmp.mkdir(parents=True)
                tracer = self._instr.tracer
                with tracer.span("checkpoint-corpus"):
                    write_corpus(corpus, tmp / "corpus.mcol")
                with tracer.span("checkpoint-report"):
                    save_report_columns(report, tmp / "report.mcol")
                meta = {
                    "format_version": CHECKPOINT_FORMAT_VERSION,
                    "seq": seq,
                    "params_fingerprint": report.params.fingerprint(),
                    "bloggers": len(corpus.bloggers),
                    "posts": len(corpus.posts),
                    "wall_time": time.time(),
                }
                (tmp / "meta.json").write_text(
                    json.dumps(meta, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8",
                )
                if final.exists():  # incomplete leftover of the same seq
                    shutil.rmtree(final)
                os.replace(tmp, final)
            self._point_current(final.name)
            self._prune(keep=final.name)
        self._checkpoint_counter.inc()
        _LOG.info("checkpoint %s written at seq %d", final.name, seq)
        return final

    def _point_current(self, name: str) -> None:
        pointer = self._dir / f"{_CURRENT}.tmp"
        with pointer.open("w", encoding="utf-8") as handle:
            handle.write(name + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(pointer, self._dir / _CURRENT)

    def _sweep_tmp(self) -> None:
        for leftover in self._dir.glob(f"{_TMP_PREFIX}*"):
            _LOG.warning("removing crashed checkpoint attempt %s",
                         leftover.name)
            shutil.rmtree(leftover, ignore_errors=True)

    def _prune(self, keep: str) -> None:
        """Apply the retention policy; ``keep`` is unconditionally safe.

        Incomplete ``ckpt-*`` directories (no ``meta.json`` — crashed
        renames) are always deleted; complete ones survive according to
        the policy.  ``keep`` — the checkpoint just written — survives
        regardless, so a pathological clock can never prune the state
        recovery needs.
        """
        survivors = self._retention.survivors([
            (name, seq, wall) for name, seq, wall, _path in self.manifest()
        ])
        survivors.add(keep)
        for old in self._dir.glob(f"{_PREFIX}*"):
            if old.is_dir() and old.name not in survivors:
                shutil.rmtree(old, ignore_errors=True)

    def manifest(self) -> list[HistoryEntry]:
        """Every complete checkpoint as ``(name, seq, wall_time, path)``.

        Ordered oldest to newest by sequence number.  ``wall_time`` is
        the write-time clock recorded in ``meta.json`` (``0.0`` for
        checkpoints written before it was recorded) — the timeline's
        time axis is exactly this listing.
        """
        entries: list[HistoryEntry] = []
        for path in self._complete_dirs():
            seq = self._seq_of(path)
            try:
                meta = json.loads(
                    (path / "meta.json").read_text(encoding="utf-8")
                )
                wall = float(meta.get("wall_time", 0.0))
            except (OSError, json.JSONDecodeError, TypeError, ValueError):
                wall = 0.0
            entries.append(HistoryEntry(path.name, seq, wall, path))
        return entries

    def resolve(
        self,
        timestamp: float | None = None,
        seq: int | None = None,
    ) -> HistoryEntry:
        """The newest retained checkpoint at or before a point in time.

        Exactly one of ``timestamp`` (wall time) and ``seq`` may be
        given; neither means "now" (the newest checkpoint).  "Newest at
        or before" answers *what did the analysis know at time t*, the
        same convention as MVCC reads.  A point older than everything
        retained raises :class:`TimelineError` rather than clamping:
        the history genuinely does not reach back that far.  The
        listing is re-read from disk on every call, so any process that
        sees the directory resolves against the chain the writer keeps.
        """
        if timestamp is not None and seq is not None:
            raise TimelineError(
                "resolve() takes a timestamp or a seq, not both"
            )
        entries = self.manifest()
        if not entries:
            raise TimelineError(
                f"no checkpoint history retained in {self._dir}"
                " (is the pipeline running with retention enabled?)"
            )
        if timestamp is None and seq is None:
            return entries[-1]
        if seq is not None:
            eligible = [entry for entry in entries if entry.seq <= seq]
            if not eligible:
                raise TimelineError(
                    f"seq {seq} predates the retained history "
                    f"(oldest retained seq is {entries[0].seq})"
                )
            return eligible[-1]
        eligible = [
            entry for entry in entries if entry.wall_time <= timestamp
        ]
        if not eligible:
            raise TimelineError(
                f"timestamp {timestamp} predates the retained history "
                f"(oldest retained wall time is {entries[0].wall_time})"
            )
        return eligible[-1]

    # ------------------------------------------------------------------
    def load(self, params: MassParameters | None = None) -> Checkpoint | None:
        """Load the newest complete checkpoint; ``None`` when none exist.

        ``CURRENT`` is consulted only as a hint (see the module
        docstring): under retention a lagging pointer must never win
        over a newer complete checkpoint, so resolution is
        newest-by-seq.  With ``params`` given, a fingerprint mismatch
        raises :class:`CheckpointError` — recovering someone else's
        analysis into a differently parameterized pipeline would
        silently change every score.
        """
        target = self._resolve_current()
        if target is None:
            return None
        return self.load_at(target, params)

    def load_at(
        self, target: str | Path, params: MassParameters | None = None
    ) -> Checkpoint:
        """Load one specific retained checkpoint (by name or path).

        The time-travel read path: the timeline materializes whichever
        retained checkpoint :meth:`resolve` picked, not just the
        newest.  Same fingerprint discipline as :meth:`load`.
        """
        target = Path(target)
        if not target.is_absolute() and target.parent == Path("."):
            target = self._dir / target
        meta_path = target / "meta.json"
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"checkpoint {target.name!r} has unreadable metadata: {exc}"
            ) from exc
        version = meta.get("format_version")
        if version not in _READABLE_VERSIONS:
            raise CheckpointError(
                f"checkpoint {target.name!r} has format version "
                f"{version!r}; this build reads "
                f"{', '.join(map(str, _READABLE_VERSIONS))}"
            )
        seq = meta.get("seq")
        if not isinstance(seq, int) or seq < 0:
            raise CheckpointError(
                f"checkpoint {target.name!r} has invalid seq {seq!r}"
            )
        if params is not None:
            fingerprint = params.fingerprint()
            if meta.get("params_fingerprint") != fingerprint:
                raise CheckpointError(
                    f"checkpoint {target.name!r} was written under "
                    f"fingerprint {meta.get('params_fingerprint')!r}, "
                    f"but this pipeline runs {fingerprint!r}"
                )
        try:
            if version == 1:
                corpus = load_corpus(target / "corpus")
            else:
                corpus = ColumnarCorpus.open(target / "corpus.mcol")
            if version == 3:
                report = load_report_columns(target / "report.mcol", corpus)
            else:
                report = load_report(target / "report.xml", corpus)
        except (XmlFormatError, StoreFormatError, OSError) as exc:
            raise CheckpointError(
                f"checkpoint {target.name!r} is unreadable: {exc}"
            ) from exc
        _LOG.info("loaded checkpoint %s (seq %d, %d bloggers)",
                  target.name, seq, len(corpus.bloggers))
        return Checkpoint(
            seq=seq, corpus=corpus, report=report, path=target, meta=meta
        )

    def _resolve_current(self) -> Path | None:
        """The newest complete checkpoint; ``CURRENT`` is only a hint.

        Trusting a lagging pointer is unsafe under retention: the WAL
        records covering an older retained checkpoint may already be
        truncated, so replaying from it would lose applied batches.
        The newest complete checkpoint is always a valid recovery
        point (truncation only runs after a write fully completes), so
        it wins; a disagreeing or dangling ``CURRENT`` is logged.
        """
        dirs = self._complete_dirs()
        newest = dirs[-1] if dirs else None
        pointer = self._dir / _CURRENT
        if pointer.is_file():
            name = pointer.read_text(encoding="utf-8").strip()
            target = self._dir / name
            pointed_ok = (
                name.startswith(_PREFIX)
                and (target / "meta.json").is_file()
            )
            if newest is None or not pointed_ok:
                _LOG.warning(
                    "CURRENT points at %r which is missing or incomplete; "
                    "falling back to newest complete checkpoint", name,
                )
            elif target != newest:
                _LOG.warning(
                    "CURRENT lags at %r; recovering from newer complete "
                    "checkpoint %s", name, newest.name,
                )
        return newest
