"""Top-k selection over score maps.

All rankings in the library flow through :func:`top_k`, which fixes the
tie-breaking rule once (score descending, then blogger id ascending) so
every consumer — model, baselines, benches — ranks identically and
results are reproducible.

:class:`RankedScores` is the sort-once counterpart for repeated
queries: the whole population sorted by the exact same ``(-score,
id)`` key as :func:`top_k`, so every prefix of it equals the matching
:func:`top_k` call, tie-breaks included.
"""

from __future__ import annotations

import heapq
from collections.abc import Container, Mapping

__all__ = ["top_k", "full_ranking", "rank_of", "RankedScores"]


def top_k(
    scores: Mapping[str, float],
    k: int,
    exclude: Container[str] = (),
) -> list[tuple[str, float]]:
    """The ``k`` highest-scoring ids as (id, score) pairs.

    Ties break by id ascending.  ``exclude`` drops ids before selection
    (e.g. the requesting user in the recommendation scenario).
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return []
    items = [
        (score, item_id)
        for item_id, score in scores.items()
        if item_id not in exclude
    ]
    best = heapq.nsmallest(k, items, key=lambda pair: (-pair[0], pair[1]))
    return [(item_id, score) for score, item_id in best]


def full_ranking(
    scores: Mapping[str, float], exclude: Container[str] = ()
) -> list[tuple[str, float]]:
    """All ids ordered by the same rule as :func:`top_k`."""
    return top_k(scores, len(scores), exclude=exclude)


class RankedScores:
    """A ranking sorted once, answering any number of top-k reads.

    Entries are kept sorted by the frozen ``(-score, id)`` key, so
    :meth:`top` and :meth:`ranking` return exactly what :func:`top_k`
    and :func:`full_ranking` would produce from the same score map —
    same order, same tie-breaks, same float objects.
    """

    __slots__ = ("_entries", "_scores")

    def __init__(self, scores: Mapping[str, float]) -> None:
        self._scores = dict(scores)
        self._entries = sorted(
            (-score, item_id) for item_id, score in self._scores.items()
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._scores

    def score(self, item_id: str) -> float:
        return self._scores[item_id]

    def top(
        self, k: int, exclude: Container[str] = ()
    ) -> list[tuple[str, float]]:
        """The ``k`` best entries, identical to :func:`top_k`."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        out: list[tuple[str, float]] = []
        if k == 0:
            return out
        scores = self._scores
        for _, item_id in self._entries:
            if item_id in exclude:
                continue
            # Emit the original float object from the score map, not
            # the negated-then-negated copy (preserves -0.0 bits).
            out.append((item_id, scores[item_id]))
            if len(out) == k:
                break
        return out

    def ranking(
        self, exclude: Container[str] = ()
    ) -> list[tuple[str, float]]:
        """All entries ordered, identical to :func:`full_ranking`."""
        return self.top(len(self._entries), exclude=exclude)


def rank_of(scores: Mapping[str, float], item_id: str) -> int:
    """1-based rank of ``item_id`` under the standard ordering.

    Raises :class:`KeyError` for unknown ids.
    """
    if item_id not in scores:
        raise KeyError(item_id)
    target = (-scores[item_id], item_id)
    return 1 + sum(
        1
        for other_id, score in scores.items()
        if (-score, other_id) < target
    )
