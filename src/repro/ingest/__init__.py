"""Durable ingestion: write-ahead delta log, checkpoints, recovery.

The serving layer's :class:`~repro.serve.store.SnapshotStore` keeps its
analysis in memory; a process crash loses every delta applied since
startup.  This package adds the durability spine:

- :mod:`repro.ingest.wal` — an append-only, checksummed, segmented log
  of :class:`~repro.core.incremental.CorpusDelta` batches;
- :mod:`repro.ingest.checkpoint` — atomic snapshots of the corpus and
  bit-exact influence report, written with the rename trick;
- :mod:`repro.ingest.pipeline` — the :class:`IngestPipeline` gluing
  them to an :class:`~repro.core.incremental.IncrementalAnalyzer`:
  one WAL record per applied batch and exactly-once recovery (deltas
  queue and coalesce in the ``SnapshotStore`` that feeds it, not here);
- :mod:`repro.ingest.retention` — the :class:`RetentionPolicy` deciding
  how much checkpoint *history* survives each prune (the timeline
  subsystem's raw material).

Recovery is byte-identical: a pipeline killed at any point and
reopened produces the same corpus, the same report, and the same
snapshot content epoch as a process that never crashed.
"""

from repro.ingest.checkpoint import Checkpoint, CheckpointManager
from repro.ingest.pipeline import IngestConfig, IngestPipeline
from repro.ingest.retention import RetentionPolicy
from repro.ingest.wal import WriteAheadLog, decode_record, encode_record

__all__ = [
    "Checkpoint",
    "CheckpointManager",
    "IngestConfig",
    "IngestPipeline",
    "RetentionPolicy",
    "WriteAheadLog",
    "decode_record",
    "encode_record",
]
