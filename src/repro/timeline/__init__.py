"""The temporal influence subsystem: influence as a function of time.

MASS's Eq. 3 weighs a years-old comment the same as yesterday's;
MEIBI/MEIBIX ("Identifying Influential Bloggers: Time Does Matter")
argue recency must weight influence.  This package — together with the
decay facet on :class:`~repro.core.parameters.MassParameters` — turns
the repo's durability infrastructure into a queryable time dimension,
in three planes:

- **Decay facet** (lives in ``repro.core``): exponential recency decay
  of citation and quality contributions, parameterized by
  ``time_decay_kind`` / ``time_decay_half_life_days``; an infinite
  half-life is bit-identical to the undecayed model.
- **History plane** (lives in :mod:`repro.ingest.checkpoint`): the
  checkpoint chain, retained under a
  :class:`~repro.ingest.retention.RetentionPolicy` instead of pruned
  to newest; ``CheckpointManager.manifest()`` lists it by seq + wall
  time as :class:`HistoryEntry` rows, ``resolve()`` picks the newest
  checkpoint at or before a point, and ``load_at()`` materializes that
  state without re-solving.
- **Serving plane** (:mod:`repro.timeline.service`): the
  :class:`TimelineService` behind ``GET /asof`` and ``GET /trend`` —
  cached time-travel snapshots and sliding-window rising-influencer
  trends solved through the compiled backend.

See ``docs/temporal.md`` for the facet math, the contraction argument
for the decayed matrix, and the endpoint reference.
"""

from repro.ingest.checkpoint import HistoryEntry
from repro.ingest.retention import RetentionPolicy
from repro.timeline.service import TimelineService

__all__ = [
    "HistoryEntry",
    "RetentionPolicy",
    "TimelineService",
]
