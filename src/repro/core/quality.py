"""QualityScore — the content half of a post's influence (Eq. 2).

"QualityScore(b_i, d_k) ... is evaluated by the length of a post ...
We measure QualityScore(b_i, d_k) as the product of a post's length and
its novelty."

Raw word counts make Quality unbounded and let a single 5,000-word post
drown the rest of the model, so the scorer supports three length
measures (see :class:`repro.core.parameters.MassParameters`):

- ``"max"`` — words / corpus-max words, in [0, 1] (library default);
- ``"log"`` — log(1 + words), compressive but unbounded;
- ``"raw"`` — the paper-literal word count.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from repro.core.novelty import NoveltyDetector
from repro.core.parameters import MassParameters
from repro.core.texts import PostTextTable
from repro.data.entities import Post

__all__ = ["QualityScorer"]


class QualityScorer:
    """Compute QualityScore(post) = Length(post) · Novelty(post).

    Word counts and the paper's copy-indicator flags come from a
    :class:`~repro.core.texts.PostTextTable`, so each post is
    tokenized once however many scorers read it.

    Parameters
    ----------
    params:
        Supplies the length-normalization mode and the copied novelty
        value.
    novelty_detector:
        Defaults to the paper's indicator-phrase detector, read from
        the table's copy flags with ``params.novelty_copied`` as the
        copied value.  A custom detector is asked per post.
    posts:
        The post population; required for ``"max"`` normalization
        (to know the corpus maximum length).
    reference_day:
        The day post ages are measured back from when the temporal
        facet is active (the corpus horizon).  Ignored — and every
        decay factor is exactly ``1.0`` — when decay is inert.
    texts:
        The text table to read; posts missing from it are appended on
        first use.  Defaults to a private table.

    >>> from repro.data import Post
    >>> posts = [Post("p1", "a", body="one two"), Post("p2", "a", body="one")]
    >>> scorer = QualityScorer(MassParameters(), posts=posts)
    >>> scorer.max_words, scorer.scores(posts)
    (2, [1.0, 0.5])
    """

    def __init__(
        self,
        params: MassParameters,
        novelty_detector: NoveltyDetector | None = None,
        posts: Iterable[Post] = (),
        reference_day: int | None = None,
        texts: PostTextTable | None = None,
    ) -> None:
        self._params = params
        self._reference_day = (
            reference_day if params.decay_active else None
        )
        self._novelty = novelty_detector
        self._texts = texts if texts is not None else PostTextTable()
        self._max_words = 0
        if params.length_normalization == "max":
            words = self._texts.body_words
            self._max_words = max(
                (words[row] for row in self._texts.rows_of(posts)), default=0
            )

    @property
    def max_words(self) -> int:
        """Corpus-max word count (0 unless ``"max"`` normalization)."""
        return self._max_words

    def _lengths(self, rows: list[int]) -> list[float]:
        words = self._texts.body_words
        mode = self._params.length_normalization
        if mode == "raw":
            return [float(words[row]) for row in rows]
        if mode == "log":
            return [math.log1p(words[row]) for row in rows]
        # "max": bounded to [0, 1]; an all-empty corpus scores 0.
        max_words = self._max_words
        if max_words == 0:
            return [0.0] * len(rows)
        return [words[row] / max_words for row in rows]

    def _novelties(self, posts: list[Post], rows: list[int]) -> list[float]:
        if not self._params.use_novelty:
            return [1.0] * len(rows)
        if self._novelty is not None:
            return [self._novelty.novelty(post) for post in posts]
        flags = self._texts.copy_flags
        copied = self._params.novelty_copied
        return [copied if flags[row] else 1.0 for row in rows]

    def length_value(self, post: Post) -> float:
        """The Length() term under the configured normalization."""
        return self._lengths(self._texts.rows_of((post,)))[0]

    def novelty_value(self, post: Post) -> float:
        """The Novelty() term (1.0 when the novelty facet is disabled)."""
        return self._novelties([post], self._texts.rows_of((post,)))[0]

    def decay_value(self, post: Post) -> float:
        """The recency multiplier of the temporal facet (1.0 when inert)."""
        if self._reference_day is None:
            return 1.0
        return self._params.decay_factor(
            self._reference_day - post.created_day
        )

    def scores(self, posts: Iterable[Post]) -> list[float]:
        """QualityScore of each post, in order: length × novelty × decay.

        One pass over the table's columns; posts it lacks are appended.
        """
        posts = list(posts)
        rows = self._texts.rows_of(posts)
        scores = [
            length * novelty
            for length, novelty in zip(
                self._lengths(rows), self._novelties(posts, rows)
            )
        ]
        if self._reference_day is None:
            return scores
        return [
            score * self.decay_value(post)
            for score, post in zip(scores, posts)
        ]

    def score(self, post: Post) -> float:
        """QualityScore of one post (see :meth:`scores`)."""
        return self.scores((post,))[0]
