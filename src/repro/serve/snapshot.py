"""Immutable influence snapshots — the unit of serving.

The batch pipeline ends in an :class:`~repro.core.report.InfluenceReport`;
the serving layer never queries a report directly.  Instead a report is
*compiled* into an :class:`InfluenceSnapshot`: a few contiguous
``array`` columns in sorted blogger-id order.  The general and
per-domain rankings are int32 row permutations sorted once; the Eq. 5
interest vectors are one row-major n×D matrix, so an arbitrary composite
query (user-supplied domain weights) is a single weighted scan; and the
Fig. 4 detail pop-up is rendered from the columns (scores, post and
comment counts, a CSR of each blogger's top posts) when it is requested.
A snapshot is immutable after compilation — the store swaps whole
snapshots atomically, so a reader holding one sees a single consistent
analysis no matter what the refresher is doing.

Every snapshot carries a content-derived **epoch**: a hash of the
parameter fingerprint, the domain set, and every influence value.  Two
compilations of the same analysis share an epoch; any change to the
corpus or the toolbar produces a new one.  The epoch keys the query
cache, so a cache entry can never outlive the analysis it was computed
from.

Ranking order is :class:`~repro.core.topk.RankedScores`' ``(-score,
id)`` order (that of :func:`repro.core.topk.full_ranking`): a stable
descending sort of a column whose rows are already in id order.  Every
snapshot answer is therefore byte-identical to the equivalent batch call
on the same report — the equivalence suites in
``tests/test_snapshot.py`` and ``tests/test_snapshot_columns.py`` hold
the two together.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from array import array
from collections.abc import Iterable, Mapping, Sequence
from itertools import chain

from repro.core.report import InfluenceReport
from repro.core.topk import top_k
from repro.data.corpus import BlogCorpus
from repro.errors import QueryError, ReproError

#: Version stamp of the :meth:`InfluenceSnapshot.to_payload` wire
#: format.  Bump on any layout change; ``from_payload`` refuses
#: mismatches instead of guessing.
PAYLOAD_FORMAT = 2

#: Posts listed per blogger in the profile pop-up (the report's Fig. 4
#: detail default).
TOP_POSTS = 3

#: The snapshot's ``array`` columns: float64 (``"d"``) scores and int32
#: (``"i"``) rankings and counts.  Each is indexed by blogger row (sorted
#: id order) except ``domain_scores`` (row-major n×D), ``domain_orders``
#: (one ranking permutation per domain, domain-major), ``top_ptr`` (n+1
#: offsets) and ``top_scores`` (the top-post CSR ``top_ptr`` delimits).
_COLUMNS = (
    "influence",
    "ap",
    "gl",
    "domain_scores",
    "general_order",
    "domain_orders",
    "num_posts",
    "num_comments_received",
    "num_comments_written",
    "top_ptr",
    "top_scores",
)

__all__ = ["InfluenceSnapshot", "compile_snapshot", "PAYLOAD_FORMAT"]


class InfluenceSnapshot:
    """One compiled, immutable view of an influence analysis.

    Build with :func:`compile_snapshot` (or the :meth:`compile`
    classmethod); the constructor is an implementation detail.  All
    query methods are read-only and thread-safe by construction —
    nothing here mutates after ``__init__`` returns, except the row
    tuples composite queries scan, built once on the first such query.
    """

    __slots__ = (
        "_epoch",
        "_created_at",
        "_created_monotonic",
        "_params_fingerprint",
        "_domains",
        "_domain_index",
        "_blogger_ids",
        "_index",
        "_names",
        "_top_post_ids",
        "_stats",
        "_row_tuples",
        *(f"_{name}" for name in _COLUMNS),
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
        names: tuple[str, ...],
        top_post_ids: tuple[str, ...],
        columns: Mapping[str, array],
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
        self._index = {
            blogger_id: row for row, blogger_id in enumerate(blogger_ids)
        }
        self._names = names
        self._top_post_ids = top_post_ids
        self._stats = stats
        self._row_tuples: list[tuple[float, ...]] | None = None
        for name in _COLUMNS:
            setattr(self, f"_{name}", columns[name])

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

        Reads the scores into columns in sorted blogger-id order, sorts
        the general and per-domain ranking permutations, counts each
        blogger's posts and comments and picks their top posts in one
        pass over the posts, and derives the epoch from the content.
        The clock stamps are injectable so equivalence tests can compare
        payloads byte for byte.
        """
        corpus = report.corpus
        scores = report.scores
        domains = tuple(report.domains)
        blogger_ids = tuple(sorted(scores.influence))
        influence = array("d", map(scores.influence.__getitem__, blogger_ids))
        domain_scores = report.domain_influence.rows(blogger_ids)
        width = len(domains)
        domain_orders = array("i")
        for column in range(width):
            domain_orders.extend(_ranking(domain_scores[column::width]))

        post_columns, top_post_ids = _post_columns(
            corpus, scores.post_influence, blogger_ids
        )
        columns = {
            "influence": influence,
            "ap": array("d", map(scores.ap.__getitem__, blogger_ids)),
            "gl": array("d", map(scores.gl.__getitem__, blogger_ids)),
            "domain_scores": domain_scores,
            "general_order": _ranking(influence),
            "domain_orders": domain_orders,
            "num_comments_written": array(
                "i", map(corpus.total_comments_by, blogger_ids)
            ),
            **post_columns,
        }
        names = tuple(
            corpus.blogger(blogger_id).name for blogger_id in blogger_ids
        )

        corpus_stats = corpus.stats()
        stats = {
            "bloggers": corpus_stats.num_bloggers,
            "posts": corpus_stats.num_posts,
            "comments": corpus_stats.num_comments,
            "links": corpus_stats.num_links,
        }

        params_fingerprint = report.params.fingerprint()
        epoch = _content_epoch(
            params_fingerprint, domains, blogger_ids, influence, domain_scores
        )
        return cls(
            epoch=epoch,
            created_at=time.time() if created_at is None else created_at,
            created_monotonic=created_monotonic,
            params_fingerprint=params_fingerprint,
            domains=domains,
            blogger_ids=blogger_ids,
            names=names,
            top_post_ids=top_post_ids,
            columns=columns,
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
        ids = self._blogger_ids
        if domain is None:
            scores = self._influence
            return [
                (ids[row], scores[row])
                for row in self._general_order[offset:offset + k]
            ]
        try:
            column = self._domain_index[domain]
        except KeyError:
            raise QueryError(
                f"unknown domain {domain!r}; known: {list(self._domains)}"
            ) from None
        count = len(ids)
        base = column * count
        order = self._domain_orders[
            base + min(offset, count):base + min(offset + k, count)
        ]
        width = len(self._domains)
        scores = self._domain_scores
        return [(ids[row], scores[row * width + column]) for row in order]

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
        return {
            blogger_id: sum(row[index] * weight for index, weight in indexed)
            for blogger_id, row in zip(self._blogger_ids, self._rows())
        }

    def query(
        self, weights: Mapping[str, float], k: int, offset: int = 0
    ) -> list[tuple[str, float]]:
        """Top-k under an Eq. 5 composite-topic query, with pagination."""
        _check_page(k, offset)
        scores = self.weighted_scores(weights)
        return top_k(scores, offset + k)[offset:]

    def profile(self, blogger_id: str) -> dict[str, object]:
        """The Fig. 4 detail pop-up for one blogger, rendered per call.

        A fresh JSON-able dict with the report's detail fields in their
        order — id, name, influence, AP, GL, post and comment counts,
        per-domain scores and the top posts as ``[post_id, score]``
        lists.
        """
        try:
            row = self._index[blogger_id]
        except KeyError:
            raise QueryError(f"unknown blogger {blogger_id!r}") from None
        width = len(self._domains)
        first, last = self._top_ptr[row], self._top_ptr[row + 1]
        return {
            "blogger_id": self._blogger_ids[row],
            "name": self._names[row],
            "influence": self._influence[row],
            "ap": self._ap[row],
            "gl": self._gl[row],
            "num_posts": self._num_posts[row],
            "num_comments_received": self._num_comments_received[row],
            "num_comments_written": self._num_comments_written[row],
            "domain_scores": dict(zip(
                self._domains,
                self._domain_scores[row * width:(row + 1) * width],
            )),
            "top_posts": [
                [post_id, score] for post_id, score in zip(
                    self._top_post_ids[first:last],
                    self._top_scores[first:last],
                )
            ],
        }

    def _rows(self) -> list[tuple[float, ...]]:
        """Each blogger's domain row as a tuple, built on first use.

        Composite scans index these tuples; they are built once per
        snapshot, on its first composite query, not on compile or
        attach (a racing second build is identical and harmless).
        """
        rows = self._row_tuples
        if rows is None:
            rows = list(_chunks(self._domain_scores, len(self._domains)))
            self._row_tuples = rows
        return rows

    # ------------------------------------------------------------------
    # Cross-process replication
    # ------------------------------------------------------------------
    def to_payload(self) -> bytes:
        """Serialize into a versioned byte payload for replication.

        The payload captures the *compiled* columns — each as its
        ``(typecode, bytes)`` pair in native byte order — plus the id,
        name and top-post strings, the epoch and the stamps; not the
        report.  A replica process
        (:class:`~repro.serve.shm.ArenaSnapshotSource`) rebuilds this
        exact snapshot without re-running any analysis, and
        :meth:`from_payload` round-trips every float bit for bit: the
        replica's answers stay byte-identical to the publisher's.
        """
        columns = {name: getattr(self, f"_{name}") for name in _COLUMNS}
        state = {
            "format": PAYLOAD_FORMAT,
            "epoch": self._epoch,
            "created_at": self._created_at,
            "created_monotonic": self._created_monotonic,
            "params_fingerprint": self._params_fingerprint,
            "domains": self._domains,
            "blogger_ids": self._blogger_ids,
            "names": self._names,
            "top_post_ids": self._top_post_ids,
            "stats": self._stats,
            "columns": {
                name: (column.typecode, column.tobytes())
                for name, column in columns.items()
            },
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
        columns = {}
        for name, (typecode, raw) in state["columns"].items():
            column = array(typecode)
            column.frombytes(raw)
            columns[name] = column
        return cls(
            epoch=state["epoch"],
            created_at=state["created_at"],
            created_monotonic=state["created_monotonic"],
            params_fingerprint=state["params_fingerprint"],
            domains=state["domains"],
            blogger_ids=state["blogger_ids"],
            names=state["names"],
            top_post_ids=state["top_post_ids"],
            columns=columns,
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


def _chunks(values: Iterable, width: int) -> Iterable[tuple]:
    """Consecutive ``width``-tuples of ``values`` (one row-major row each)."""
    return zip(*[iter(values)] * width)


def _ranking(column: Sequence[float]) -> array:
    """Rows in ``RankedScores`` order: score descending, then id.

    Rows are in sorted-id order, so a stable descending sort leaves
    equal scores (``-0.0`` and ``0.0`` included) in id order.
    """
    return array(
        "i", sorted(range(len(column)), key=column.__getitem__, reverse=True)
    )


def _post_columns(
    corpus: BlogCorpus,
    post_influence: Mapping[str, float],
    blogger_ids: tuple[str, ...],
) -> tuple[dict[str, array], tuple[str, ...]]:
    """The per-blogger post columns, and the top-post ids of the CSR.

    One pass over the posts counts each blogger's posts and the comments
    on them.  The top posts come from two stable sorts: posts in id
    order sorted by influence descending, then by author, so each
    author's posts sit together in ``top_k``'s ``(-influence, post id)``
    order and the first :data:`TOP_POSTS` of each run are that
    blogger's pop-up list.
    """
    row_of = {blogger_id: row for row, blogger_id in enumerate(blogger_ids)}
    post_ids = sorted(corpus.posts)
    author_of = corpus.post_author_id
    authors = [row_of[author_of(post_id)] for post_id in post_ids]
    counts = list(map(corpus.num_comments_on, post_ids))
    num_posts = [0] * len(blogger_ids)
    received = [0] * len(blogger_ids)
    for author, count in zip(authors, counts):
        num_posts[author] += 1
        received[author] += count

    post_scores = list(map(post_influence.__getitem__, post_ids))
    order = sorted(
        range(len(post_ids)), key=post_scores.__getitem__, reverse=True
    )
    order.sort(key=authors.__getitem__)
    top_ptr = array("i", [0])
    top_rows: list[int] = []
    start = 0
    for count in num_posts:
        top_rows.extend(order[start:start + min(count, TOP_POSTS)])
        top_ptr.append(len(top_rows))
        start += count

    columns = {
        "num_posts": array("i", num_posts),
        "num_comments_received": array("i", received),
        "top_ptr": top_ptr,
        "top_scores": array("d", map(post_scores.__getitem__, top_rows)),
    }
    return columns, tuple(map(post_ids.__getitem__, top_rows))


def _content_epoch(
    params_fingerprint: str,
    domains: tuple[str, ...],
    blogger_ids: tuple[str, ...],
    influence: Sequence[float],
    domain_scores: Sequence[float],
) -> str:
    """Hash the analysis content into a stable epoch string.

    The byte stream is the epoch's contract: the parameter fingerprint,
    the ``\\x1f``-joined domains, then per blogger in sorted id order
    its id, ``repr`` of its influence and the comma-joined ``repr``\\ s
    of its domain row, with nothing between the pieces, all UTF-8.  It
    is built in one pass and hashed in one ``update``; SHA-256 sees the
    stream, not how it was split, so the digest equals the per-blogger
    updates that produced every earlier epoch.
    """
    rows = map(",".join, _chunks(map(repr, domain_scores), len(domains)))
    stream = chain(
        (params_fingerprint, "\x1f".join(domains)),
        chain.from_iterable(zip(blogger_ids, map(repr, influence), rows)),
    )
    return hashlib.sha256("".join(stream).encode("utf-8")).hexdigest()
