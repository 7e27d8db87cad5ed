"""The timeline serving plane: as-of and trend queries over history.

:class:`TimelineService` is what the HTTP endpoints (``GET /asof``,
``GET /trend``) call into.  It resolves every point on the time axis
with :meth:`CheckpointManager.resolve
<repro.ingest.checkpoint.CheckpointManager.resolve>` and owns two
bounded caches:

- **materialized snapshots** — ``as_of`` resolves a timestamp to one
  retained checkpoint and compiles its report into an
  :class:`~repro.serve.snapshot.InfluenceSnapshot`; the compile is
  cached per checkpoint (LRU), so repeat time-travel reads cost a
  dict lookup, and even the cold path is a checkpoint *load* (mmap
  open + report parse), never a re-solve;
- **trajectories** — ``trend`` slices the checkpoint's corpus into
  sliding windows and solves each through the compiled backend
  (:func:`repro.core.temporal.trajectory`) under the parameters the
  checkpoint was analyzed with; the resulting series is cached per
  ``(checkpoint, window, step)``.

Everything is derived from the durable checkpoint directory on local
disk, which makes the service naturally **fork-safe**: each pre-fork
serving worker builds its own instance over the same directory and
answers identically to the single-process server — no shared-memory
replication protocol needed for the time axis.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path

from repro.core.parameters import MassParameters
from repro.core.temporal import InfluenceTrajectory, trajectory
from repro.errors import QueryError, TimelineError
from repro.ingest.checkpoint import CheckpointManager, HistoryEntry
from repro.obs import LATENCY_BUCKETS, NULL_INSTRUMENTATION, Instrumentation
from repro.serve.snapshot import InfluenceSnapshot

__all__ = ["TimelineService"]

#: LRU bounds for materialized snapshots and computed trajectories.
_SNAPSHOT_CACHE_SIZE = 4
_TRAJECTORY_CACHE_SIZE = 8


class TimelineService:
    """Answer time-travel and trend queries from retained checkpoints.

    Parameters
    ----------
    durable_dir:
        The ingest pipeline's durable root (the directory holding
        ``wal/`` and ``checkpoints/``), or a checkpoint directory
        itself.  It must exist: a missing one raises
        :class:`~repro.errors.TimelineError`, and nothing is created.
    params:
        When given, enforced as the fingerprint of every checkpoint
        loaded: time travel must not silently materialize an analysis
        run under different parameters.  Trend trajectories always
        solve under the loaded checkpoint's own parameters.
    """

    def __init__(
        self,
        durable_dir: str | Path,
        params: MassParameters | None = None,
        *,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        root = Path(durable_dir)
        if root.name != "checkpoints":
            root = root / "checkpoints"
        # A read-only query creates nothing: a mistyped path fails here
        # instead of answering an empty time axis from a new directory.
        if not root.is_dir():
            raise TimelineError(
                f"no checkpoint history at {durable_dir}: {root} is not "
                f"a directory"
            )
        self._params = params
        self._ckpts = CheckpointManager(root)
        self._instr = instrumentation or NULL_INSTRUMENTATION
        self._snapshots: OrderedDict[str, InfluenceSnapshot] = OrderedDict()
        self._trajectories: OrderedDict[tuple, InfluenceTrajectory] = (
            OrderedDict()
        )
        self._lock = threading.Lock()

        metrics = self._instr.metrics
        self._asof_counter = metrics.counter(
            "repro_timeline_asof_total", "As-of queries answered"
        )
        self._trend_counter = metrics.counter(
            "repro_timeline_trend_total", "Trend queries answered"
        )
        self._snapshot_hits = metrics.counter(
            "repro_timeline_snapshot_cache_hits_total",
            "As-of snapshot cache hits",
        )
        self._snapshot_misses = metrics.counter(
            "repro_timeline_snapshot_cache_misses_total",
            "As-of snapshot materializations (cache misses)",
        )
        self._retained_gauge = metrics.gauge(
            "repro_timeline_retained_checkpoints",
            "Checkpoints currently retained on the time axis",
        )
        self._asof_seconds = metrics.histogram(
            "repro_timeline_asof_seconds", "As-of query latency",
            buckets=LATENCY_BUCKETS,
        )
        self._trend_seconds = metrics.histogram(
            "repro_timeline_trend_seconds", "Trend query latency",
        )

    # ------------------------------------------------------------------
    def history_listing(self) -> dict[str, object]:
        """The retained time axis as a JSON-able payload."""
        entries = self._ckpts.manifest()
        self._retained_gauge.set(len(entries))
        return {
            "retained": len(entries),
            "entries": [entry.as_dict() for entry in entries],
        }

    # ------------------------------------------------------------------
    def snapshot_at(
        self,
        timestamp: float | None = None,
        seq: int | None = None,
    ) -> tuple[InfluenceSnapshot, HistoryEntry]:
        """The materialized snapshot at a point on the time axis.

        Cache key is the resolved checkpoint *name*: two timestamps
        resolving to the same retained checkpoint share one
        materialization.
        """
        entry = self._ckpts.resolve(timestamp=timestamp, seq=seq)
        with self._lock:
            cached = self._snapshots.get(entry.name)
            if cached is not None:
                self._snapshots.move_to_end(entry.name)
        if cached is not None:
            self._snapshot_hits.inc()
            return cached, entry
        self._snapshot_misses.inc()
        checkpoint = self._ckpts.load_at(entry.path, self._params)
        try:
            snapshot = InfluenceSnapshot.compile(checkpoint.report)
        finally:
            checkpoint.close()
        with self._lock:
            self._snapshots[entry.name] = snapshot
            self._snapshots.move_to_end(entry.name)
            while len(self._snapshots) > _SNAPSHOT_CACHE_SIZE:
                self._snapshots.popitem(last=False)
        return snapshot, entry

    def as_of(
        self,
        timestamp: float | None = None,
        seq: int | None = None,
        *,
        k: int = 3,
        domain: str | None = None,
    ) -> dict[str, object]:
        """Answer a time-travel top-k query (the ``/asof`` payload)."""
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        with self._asof_seconds.time(), \
                self._instr.tracer.span("timeline-asof"):
            snapshot, entry = self.snapshot_at(timestamp=timestamp, seq=seq)
            results = snapshot.top(k, domain=domain)
        self._asof_counter.inc()
        return {
            "resolved": entry.as_dict(),
            "epoch": snapshot.epoch,
            "k": k,
            "domain": domain,
            "results": [
                {"blogger_id": blogger_id, "score": score}
                for blogger_id, score in results
            ],
        }

    # ------------------------------------------------------------------
    def trajectory_at(
        self,
        window_days: int,
        step_days: int,
        timestamp: float | None = None,
    ) -> tuple[InfluenceTrajectory, HistoryEntry]:
        """The windowed influence series over one checkpoint's corpus.

        Every window solves under the parameters the checkpoint was
        analyzed with (equal to the service's own, when it has any:
        the load checks the fingerprint).
        """
        entry = self._ckpts.resolve(timestamp=timestamp)
        key = (entry.name, int(window_days), int(step_days))
        with self._lock:
            cached = self._trajectories.get(key)
            if cached is not None:
                self._trajectories.move_to_end(key)
        if cached is not None:
            return cached, entry
        checkpoint = self._ckpts.load_at(entry.path, self._params)
        try:
            result = trajectory(
                checkpoint.corpus,
                checkpoint.report.params,
                window_days=window_days,
                step_days=step_days,
            )
        finally:
            checkpoint.close()
        with self._lock:
            self._trajectories[key] = result
            self._trajectories.move_to_end(key)
            while len(self._trajectories) > _TRAJECTORY_CACHE_SIZE:
                self._trajectories.popitem(last=False)
        return result, entry

    def trend(
        self,
        *,
        domain: str | None = None,
        window_days: int = 90,
        step_days: int = 30,
        k: int = 10,
        timestamp: float | None = None,
    ) -> dict[str, object]:
        """Rising influencers over a sliding window (the ``/trend`` payload).

        Trends are least-squares slopes of the per-window influence
        series (:meth:`InfluenceTrajectory.trend`).  With ``domain``
        given, candidates are filtered to bloggers with a positive
        score in that domain's ranking at the resolved checkpoint —
        the trajectory itself tracks *overall* influence, so the
        domain lens is membership, not a re-solve per domain.
        """
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        if window_days < 1 or step_days < 1:
            raise QueryError("window and step must be >= 1 day")
        with self._trend_seconds.time(), \
                self._instr.tracer.span("timeline-trend"):
            result, entry = self.trajectory_at(
                window_days, step_days, timestamp=timestamp
            )
            if domain is None:
                rising = result.rising_bloggers(k)
            else:
                snapshot, _ = self.snapshot_at(timestamp=timestamp)
                members = {
                    blogger_id
                    for blogger_id, score in snapshot.top(
                        len(snapshot.blogger_ids), domain=domain
                    )
                    if score > 0.0
                }
                if not members:
                    raise TimelineError(
                        f"domain {domain!r} has no active bloggers at "
                        f"checkpoint {entry.name}"
                    )
                ranked = result.rising_bloggers(len(snapshot.blogger_ids))
                rising = [
                    (blogger_id, slope)
                    for blogger_id, slope in ranked
                    if blogger_id in members
                ][:k]
        self._trend_counter.inc()
        return {
            "resolved": entry.as_dict(),
            "domain": domain,
            "window_days": window_days,
            "step_days": step_days,
            "k": k,
            "windows": [
                {"start_day": start, "end_day": end}
                for start, end in result.window_bounds()
            ],
            "rising": [
                {"blogger_id": blogger_id, "trend": slope}
                for blogger_id, slope in rising
            ],
        }
