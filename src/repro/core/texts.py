"""One text pass per post: the per-corpus text table.

Two facets of the model read a post's text.  QualityScore (Eq. 2)
needs the body's word count for Length() and the copy-indicator phrase
scan over title + body for Novelty(); the Post Analyzer's naive-Bayes
membership ``iv`` (Eq. 5) needs the classifier features of title +
body.  :class:`PostTextTable` tokenizes each post's title and body once
and keeps what those consumers need as flat ``array`` columns, one row
per post:

- ``body_words``: the body's token count, ``word_count(post.body)``;
- ``copy_flags``: 1 when a copy-indicator phrase occurs in the title +
  body tokens, so a phrase spanning the two still counts (the
  condition under which ``LexiconNoveltyDetector().novelty(post)`` is
  the copied value);
- ``term_ids`` / ``term_starts``: with a classifier, a CSR of each
  post's in-vocabulary feature ids in token order, which
  :meth:`~repro.nlp.naive_bayes.NaiveBayesClassifier.predict_proba_rows`
  scores in one batch (rows are empty without a classifier).

The table is append-only.  Posts are immutable and post ids globally
unique, so a row computed once is valid for the post's lifetime: one
table serves a whole fit, the incremental analyzer keeps one for its
life and appends only each delta's posts, and windowed trajectories
share one across windows.

>>> from repro.data import Post
>>> table = PostTextTable()
>>> table.extend([Post("p1", "a", title="Reposted", body="from the wire")])
range(0, 1)
>>> table.body_words[0], table.copy_flags[0]
(3, 1)
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable

from repro.core.novelty import LexiconNoveltyDetector
from repro.data.entities import Post
from repro.errors import ClassifierError
from repro.nlp.naive_bayes import NaiveBayesClassifier
from repro.nlp.tokenize import tokenize

__all__ = ["PostTextTable"]


class PostTextTable:
    """Per-post text columns, filled by one tokenization of each post.

    Parameters
    ----------
    classifier:
        The domain classifier whose feature ids the CSR columns hold
        (re-training it invalidates them); without one only the
        quality columns are filled.
    """

    def __init__(self, classifier: NaiveBayesClassifier | None = None) -> None:
        self._classifier = classifier
        self._contains_phrase = LexiconNoveltyDetector().contains_phrase
        self._rows: dict[str, int] = {}
        self.post_ids: list[str] = []
        self.body_words = array("q")
        self.copy_flags = array("b")
        self.term_ids = array("i")
        self.term_starts = array("q", [0])

    def __len__(self) -> int:
        return len(self.post_ids)

    def extend(self, posts: Iterable[Post]) -> range:
        """Append the posts not yet in the table; returns their rows.

        The rows are consecutive, in the order ``posts`` yields them.
        """
        first = len(self.post_ids)
        rows = self._rows
        feature_ids = (
            self._classifier.feature_ids
            if self._classifier is not None else None
        )
        for post in posts:
            post_id = post.post_id
            if post_id in rows:
                continue
            body = tokenize(post.body)
            tokens = tokenize(post.title) + body
            rows[post_id] = len(self.post_ids)
            self.post_ids.append(post_id)
            self.body_words.append(len(body))
            self.copy_flags.append(self._contains_phrase(tokens))
            if feature_ids is not None:
                self.term_ids.extend(feature_ids(tokens))
            self.term_starts.append(len(self.term_ids))
        return range(first, len(self.post_ids))

    def rows_of(self, posts: Iterable[Post]) -> list[int]:
        """The rows of ``posts``, in order, appending those not present."""
        posts = list(posts)
        rows = self._rows
        try:
            return [rows[post.post_id] for post in posts]
        except KeyError:
            self.extend(posts)
            return [rows[post.post_id] for post in posts]

    def memberships(self, rows: range) -> dict[str, dict[str, float]]:
        """Naive-Bayes memberships ``iv`` of a run of rows, by post id.

        Each value equals ``classifier.predict_proba(post.text)`` bit
        for bit; the batch runs on the sparse solver's kernel.
        """
        if self._classifier is None:
            raise ClassifierError("this text table was built without a classifier")
        starts = self.term_starts[rows.start:rows.stop + 1]
        probabilities = self._classifier.predict_proba_rows(
            self.term_ids, starts
        )
        return dict(zip(self.post_ids[rows.start:rows.stop], probabilities))
