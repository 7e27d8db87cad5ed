"""Query serving for MASS: snapshots, the query engine, the HTTP API.

The batch pipeline (crawl → analyze → report) answers one question per
process run; this package turns the same analysis into an online
service, the way the ICDE demo presents MASS — users issue
domain-specific and multi-facet composite queries and get top-k
influential bloggers back interactively:

- :class:`InfluenceSnapshot` — an immutable, pre-indexed compilation of
  an :class:`~repro.core.report.InfluenceReport` with a content-derived
  epoch;
- :class:`QueryEngine` — top-k / Eq. 5 composite / profile queries with
  pagination, validation, and an epoch-keyed LRU result cache;
- :class:`SnapshotStore` — atomic copy-on-write snapshot swaps plus a
  background refresher draining
  :class:`~repro.core.incremental.CorpusDelta` queues through warm
  incremental re-solves under a staleness bound;
- :class:`MassHttpServer` / :func:`create_server` — the stdlib JSON API
  (``/top``, ``/query``, ``/query/batch``, ``/blogger/<id>``,
  ``/healthz``, ``/metrics``) with load shedding and per-tenant
  token-bucket rate limiting, served by ``repro serve``;
- :class:`ServingCluster` / :class:`ClusterConfig` — the pre-fork
  multi-process tier (``repro serve --workers N``): per-worker
  ``SO_REUSEPORT`` listeners, snapshots replicated through a seqlock
  shared-memory :class:`SnapshotArena`, worker supervision/respawn,
  and cluster-truthful ``/metrics`` via :class:`SharedHttpStats`.

See ``docs/serving.md`` for the architecture and endpoint reference.
"""

from repro.serve.cluster import ClusterConfig, ServingCluster, cluster_supported
from repro.serve.engine import ProfileResult, QueryEngine, QueryResult
from repro.serve.http import (
    TENANT_HEADER,
    MassHttpServer,
    ServiceConfig,
    create_server,
)
from repro.serve.ratelimit import RateDecision, SharedTenantLimiter
from repro.serve.shm import (
    ArenaSnapshotSource,
    ClusterStatusBoard,
    SharedHttpStats,
    SnapshotArena,
)
from repro.serve.snapshot import InfluenceSnapshot, compile_snapshot
from repro.serve.store import SnapshotStore

__all__ = [
    "InfluenceSnapshot",
    "compile_snapshot",
    "QueryEngine",
    "QueryResult",
    "ProfileResult",
    "SnapshotStore",
    "ServiceConfig",
    "MassHttpServer",
    "create_server",
    "TENANT_HEADER",
    "ServingCluster",
    "ClusterConfig",
    "cluster_supported",
    "SnapshotArena",
    "ArenaSnapshotSource",
    "SharedHttpStats",
    "ClusterStatusBoard",
    "SharedTenantLimiter",
    "RateDecision",
]
