"""Immutable influence snapshots — the unit of serving.

The batch pipeline ends in an :class:`~repro.core.report.InfluenceReport`;
the serving layer never queries a report directly.  Instead a report is
*compiled* into an :class:`InfluenceSnapshot`: per-domain rankings are
pre-sorted once, the per-blogger interest vectors are laid out as dense
rows so an arbitrary Eq. 5 composite query (user-supplied domain
weights) is a single weighted scan, and the Fig. 4 detail pop-ups are
materialized as JSON-able profiles.  A snapshot is immutable after
compilation — the store swaps whole snapshots atomically, so a reader
holding one sees a single consistent analysis no matter what the
refresher is doing.

Every snapshot carries a content-derived **epoch**: a hash of the
parameter fingerprint, the domain set, and every influence value.  Two
compilations of the same analysis share an epoch; any change to the
corpus or the toolbar produces a new one.  The epoch keys the query
cache, so a cache entry can never outlive the analysis it was computed
from.

Ranking order is delegated to the report's
:class:`~repro.core.topk.RankedScores` (same ``(-score, id)`` order as
:func:`repro.core.topk.full_ranking`), which makes every snapshot
answer byte-identical to the equivalent batch call on the same report —
the equivalence suite in ``tests/test_snapshot.py`` holds the two
together.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from collections.abc import Mapping

from repro.core.report import InfluenceReport
from repro.core.topk import top_k
from repro.errors import QueryError, ReproError

#: Version stamp of the :meth:`InfluenceSnapshot.to_payload` wire
#: format.  Bump on any layout change; ``from_payload`` refuses
#: mismatches instead of guessing.
PAYLOAD_FORMAT = 1

__all__ = ["InfluenceSnapshot", "compile_snapshot", "PAYLOAD_FORMAT"]


class InfluenceSnapshot:
    """One compiled, immutable view of an influence analysis.

    Build with :func:`compile_snapshot` (or the :meth:`compile`
    classmethod); the constructor is an implementation detail.  All
    query methods are read-only and thread-safe by construction —
    nothing here mutates after ``__init__`` returns.
    """

    __slots__ = (
        "_epoch",
        "_created_at",
        "_created_monotonic",
        "_params_fingerprint",
        "_domains",
        "_domain_index",
        "_blogger_ids",
        "_rows",
        "_general_ranking",
        "_domain_rankings",
        "_profiles",
        "_stats",
    )

    def __init__(
        self,
        *,
        epoch: str,
        created_at: float,
        created_monotonic: float | None = None,
        params_fingerprint: str,
        domains: tuple[str, ...],
        blogger_ids: tuple[str, ...],
        rows: dict[str, tuple[float, ...]],
        general_ranking: tuple[tuple[str, float], ...],
        domain_rankings: dict[str, tuple[tuple[str, float], ...]],
        profiles: dict[str, dict[str, object]],
        stats: dict[str, int],
    ) -> None:
        self._epoch = epoch
        self._created_at = created_at
        self._created_monotonic = (
            time.monotonic() if created_monotonic is None
            else created_monotonic
        )
        self._params_fingerprint = params_fingerprint
        self._domains = domains
        self._domain_index = {name: i for i, name in enumerate(domains)}
        self._blogger_ids = blogger_ids
        self._rows = rows
        self._general_ranking = general_ranking
        self._domain_rankings = domain_rankings
        self._profiles = profiles
        self._stats = stats

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    @classmethod
    def compile(
        cls,
        report: InfluenceReport,
        *,
        created_at: float | None = None,
        created_monotonic: float | None = None,
    ) -> "InfluenceSnapshot":
        """Compile a report into an immutable snapshot.

        Pre-sorts the general and per-domain rankings (through the
        report's :class:`~repro.core.topk.RankedScores`), lays the
        Eq. 5 interest vectors out as dense per-blogger rows (one float
        per domain, in domain order), materializes every blogger
        profile, and derives the epoch from the content.  The clock stamps are
        injectable so equivalence tests can compare payloads byte for
        byte.
        """
        domains = tuple(report.domains)
        influence = report.general_scores()
        blogger_ids = tuple(sorted(influence))
        domain_influence = report.domain_influence

        rows: dict[str, tuple[float, ...]] = {}
        for blogger_id in blogger_ids:
            vector = domain_influence.vector(blogger_id)
            rows[blogger_id] = tuple(vector[domain] for domain in domains)

        general_ranking = tuple(report.general_ranked().ranking())
        domain_rankings = {
            domain: tuple(domain_influence.ranked(domain).ranking())
            for domain in domains
        }

        profiles = {
            blogger_id: _profile_dict(report, blogger_id)
            for blogger_id in blogger_ids
        }

        corpus_stats = report.corpus.stats()
        stats = {
            "bloggers": corpus_stats.num_bloggers,
            "posts": corpus_stats.num_posts,
            "comments": corpus_stats.num_comments,
            "links": corpus_stats.num_links,
        }

        params_fingerprint = report.params.fingerprint()
        epoch = _content_epoch(
            params_fingerprint, domains, blogger_ids, influence, rows
        )
        return cls(
            epoch=epoch,
            created_at=time.time() if created_at is None else created_at,
            created_monotonic=(
                time.monotonic() if created_monotonic is None
                else created_monotonic
            ),
            params_fingerprint=params_fingerprint,
            domains=domains,
            blogger_ids=blogger_ids,
            rows=rows,
            general_ranking=general_ranking,
            domain_rankings=domain_rankings,
            profiles=profiles,
            stats=stats,
        )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> str:
        """Content-derived identity of this snapshot's analysis."""
        return self._epoch

    @property
    def created_at(self) -> float:
        """Wall-clock time the snapshot was compiled (``time.time()``)."""
        return self._created_at

    @property
    def created_monotonic(self) -> float:
        """Monotonic-clock reading paired with :attr:`created_at`.

        Age computations (``/healthz``) must use this, not the
        wall-clock stamp: ``time.monotonic() - created_monotonic`` is
        immune to NTP steps, which can drive ``time.time()`` deltas
        negative.
        """
        return self._created_monotonic

    @property
    def params_fingerprint(self) -> str:
        """Fingerprint of the parameters the analysis ran with."""
        return self._params_fingerprint

    @property
    def domains(self) -> tuple[str, ...]:
        """The domain set, in classifier order."""
        return self._domains

    @property
    def blogger_ids(self) -> tuple[str, ...]:
        """Every blogger id, sorted."""
        return self._blogger_ids

    @property
    def num_bloggers(self) -> int:
        """Population size."""
        return len(self._blogger_ids)

    def stats(self) -> dict[str, int]:
        """Corpus shape the snapshot was compiled from."""
        return dict(self._stats)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def top(
        self, k: int, domain: str | None = None, offset: int = 0
    ) -> list[tuple[str, float]]:
        """Top-k bloggers (general or per-domain) with pagination.

        Byte-identical to ``report.top_influencers(offset + k,
        domain)[offset:]`` on the compiled report.
        """
        _check_page(k, offset)
        if domain is None:
            ranking = self._general_ranking
        else:
            try:
                ranking = self._domain_rankings[domain]
            except KeyError:
                raise QueryError(
                    f"unknown domain {domain!r}; known: {list(self._domains)}"
                ) from None
        return list(ranking[offset:offset + k])

    def weighted_scores(
        self, weights: Mapping[str, float]
    ) -> dict[str, float]:
        """Eq. 5 composite scores for user-supplied domain weights.

        One dense scan: every blogger's score is the dot product of its
        interest-vector row with the weight vector, accumulated in
        sorted-domain order so the result is bit-equal to
        ``DomainInfluence.weighted_scores`` called with the same
        canonically-ordered interest dict.
        """
        terms = _canonical_weights(weights, self._domain_index)
        indexed = [(self._domain_index[domain], weight)
                   for domain, weight in terms]
        rows = self._rows
        return {
            blogger_id: sum(
                rows[blogger_id][index] * weight for index, weight in indexed
            )
            for blogger_id in self._blogger_ids
        }

    def query(
        self, weights: Mapping[str, float], k: int, offset: int = 0
    ) -> list[tuple[str, float]]:
        """Top-k under an Eq. 5 composite-topic query, with pagination."""
        _check_page(k, offset)
        scores = self.weighted_scores(weights)
        return top_k(scores, offset + k)[offset:]

    def profile(self, blogger_id: str) -> dict[str, object]:
        """The materialized detail pop-up for one blogger (a copy)."""
        try:
            profile = self._profiles[blogger_id]
        except KeyError:
            raise QueryError(f"unknown blogger {blogger_id!r}") from None
        copy = dict(profile)
        copy["domain_scores"] = dict(profile["domain_scores"])
        copy["top_posts"] = [list(pair) for pair in profile["top_posts"]]
        return copy

    # ------------------------------------------------------------------
    # Cross-process replication
    # ------------------------------------------------------------------
    def to_payload(self) -> bytes:
        """Serialize into a versioned byte payload for replication.

        The payload captures the *compiled* tables — rankings, dense
        rows, profiles, epoch — not the report, so a replica process
        (:class:`~repro.serve.shm.ArenaSnapshotSource`) reconstructs
        this exact snapshot without re-running any analysis, and
        :meth:`from_payload` round-trips every float bit-for-bit: the
        replica's answers stay byte-identical to the publisher's.
        """
        state = {
            "format": PAYLOAD_FORMAT,
            "epoch": self._epoch,
            "created_at": self._created_at,
            "created_monotonic": self._created_monotonic,
            "params_fingerprint": self._params_fingerprint,
            "domains": self._domains,
            "blogger_ids": self._blogger_ids,
            "rows": self._rows,
            "general_ranking": self._general_ranking,
            "domain_rankings": self._domain_rankings,
            "profiles": self._profiles,
            "stats": self._stats,
        }
        return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_payload(cls, payload: bytes) -> "InfluenceSnapshot":
        """Reconstruct a snapshot serialized by :meth:`to_payload`."""
        try:
            state = pickle.loads(payload)
        except Exception as exc:
            raise ReproError(
                f"snapshot payload is not deserializable: {exc}"
            ) from exc
        if not isinstance(state, dict) or "format" not in state:
            raise ReproError("snapshot payload missing format stamp")
        if state["format"] != PAYLOAD_FORMAT:
            raise ReproError(
                f"snapshot payload format {state['format']!r} does not "
                f"match this build's format {PAYLOAD_FORMAT}"
            )
        return cls(
            epoch=state["epoch"],
            created_at=state["created_at"],
            created_monotonic=state["created_monotonic"],
            params_fingerprint=state["params_fingerprint"],
            domains=state["domains"],
            blogger_ids=state["blogger_ids"],
            rows=state["rows"],
            general_ranking=state["general_ranking"],
            domain_rankings=state["domain_rankings"],
            profiles=state["profiles"],
            stats=state["stats"],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InfluenceSnapshot(epoch={self._epoch[:12]}…, "
            f"bloggers={len(self._blogger_ids)}, "
            f"domains={len(self._domains)})"
        )


def compile_snapshot(report: InfluenceReport) -> InfluenceSnapshot:
    """Module-level alias for :meth:`InfluenceSnapshot.compile`."""
    return InfluenceSnapshot.compile(report)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _check_page(k: int, offset: int) -> None:
    if k <= 0:
        raise QueryError(f"k must be >= 1, got {k}")
    if offset < 0:
        raise QueryError(f"offset must be >= 0, got {offset}")


def _canonical_weights(
    weights: Mapping[str, float], domain_index: Mapping[str, int]
) -> list[tuple[str, float]]:
    """Validated (domain, weight) pairs in sorted-domain order."""
    if not weights:
        raise QueryError("interest weights must name at least one domain")
    unknown = sorted(set(weights) - set(domain_index))
    if unknown:
        raise QueryError(
            f"interest weights name unknown domains: {unknown}; "
            f"known: {sorted(domain_index)}"
        )
    terms = []
    for domain in sorted(weights):
        weight = float(weights[domain])
        if weight != weight or weight in (float("inf"), float("-inf")):
            raise QueryError(f"weight for {domain!r} must be finite")
        if weight <= 0:
            raise QueryError(
                f"weight for {domain!r} must be > 0, got {weight}"
            )
        terms.append((domain, weight))
    return terms


def _profile_dict(
    report: InfluenceReport, blogger_id: str
) -> dict[str, object]:
    detail = report.blogger_detail(blogger_id)
    return {
        "blogger_id": detail.blogger_id,
        "name": detail.name,
        "influence": detail.influence,
        "ap": detail.ap,
        "gl": detail.gl,
        "num_posts": detail.num_posts,
        "num_comments_received": detail.num_comments_received,
        "num_comments_written": detail.num_comments_written,
        "domain_scores": dict(detail.domain_scores),
        "top_posts": [list(pair) for pair in detail.top_posts],
    }


def _content_epoch(
    params_fingerprint: str,
    domains: tuple[str, ...],
    blogger_ids: tuple[str, ...],
    influence: Mapping[str, float],
    rows: Mapping[str, tuple[float, ...]],
) -> str:
    """Hash the analysis content into a stable epoch string."""
    digest = hashlib.sha256()
    digest.update(params_fingerprint.encode("utf-8"))
    digest.update("\x1f".join(domains).encode("utf-8"))
    for blogger_id in blogger_ids:
        digest.update(blogger_id.encode("utf-8"))
        digest.update(repr(influence[blogger_id]).encode("ascii"))
        digest.update(
            ",".join(repr(value) for value in rows[blogger_id])
            .encode("ascii")
        )
    return digest.hexdigest()
