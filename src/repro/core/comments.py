"""CommentScore machinery (Eq. 3).

    CommentScore(b_i, d_k) = Σ_j Inf(b_j) · SF(b_i, d_k, b_j) / TC(b_j)

The sum runs over the comments on post d_k; SF is the commenter's
attitude and TC(b_j) the commenter's *total* comment count, which
shares a prolific commenter's impact across everything they write.

:class:`CommentModel` resolves each comment's sentiment once and keeps
per-post term lists, so each solver iteration is a cheap weighted sum.
Term lists are built lazily per post on first access: the warm apply
path only ever asks for the delta's dirty posts, so re-analysis after a
small corpus delta no longer pays an O(corpus) term rebuild (the shared
sentiment cache already made the classifier calls incremental).
Aggregate views (:meth:`sentiment_distribution`,
:meth:`num_commented_posts`) force full materialization.
"""

from __future__ import annotations

import warnings
from collections import Counter
from collections.abc import Mapping, MutableMapping
from dataclasses import dataclass

from repro.core.parameters import MassParameters
from repro.data.corpus import BlogCorpus
from repro.errors import DegenerateCitationWarning
from repro.nlp.sentiment import Sentiment, SentimentClassifier

__all__ = ["CommentTerm", "CommentModel", "corpus_horizon"]


def corpus_horizon(corpus: BlogCorpus) -> int:
    """The newest ``created_day`` of any post or comment (0 if empty).

    The temporal facet measures every contribution's age back from
    this horizon, so "fresh" always means fresh *relative to the
    corpus being solved* — a historical window decays against its own
    last day, not against wall-clock now.
    """
    newest = 0
    for post in corpus.posts.values():
        if post.created_day > newest:
            newest = post.created_day
    for comment in corpus.comments.values():
        if comment.created_day > newest:
            newest = comment.created_day
    return newest


@dataclass(frozen=True, slots=True)
class CommentTerm:
    """One comment's contribution template to a post's CommentScore.

    ``decay`` is the temporal facet's recency multiplier for this
    comment (``1.0`` when the facet is inert — multiplying by ``1.0``
    is bit-exact, so inert decay cannot perturb a solve).
    """

    commenter_id: str
    sentiment: Sentiment
    sf: float
    total_comments: int
    decay: float = 1.0

    @property
    def decayed_sf(self) -> float:
        """The sentiment factor after recency decay (``SF · decay``)."""
        return self.sf * self.decay

    @property
    def citation_weight(self) -> float:
        """SF · decay / TC — the multiplier on the commenter's influence.

        A degenerate TC ≤ 0 (impossible through the validated corpus
        path, reachable through external mutation) contributes no
        citation mass rather than dividing by zero.  Every backend
        consumes this property, so the drop rule is applied uniformly.
        """
        if self.total_comments <= 0:
            return 0.0
        return self.decayed_sf / self.total_comments


class CommentModel:
    """Per-post comment terms with sentiment already resolved.

    Parameters
    ----------
    corpus:
        Source of comments and TC counts.
    params:
        Supplies SF values and the self-comment / facet toggles.
    sentiment_classifier:
        Defaults to the built-in lexicon classifier.
    sentiment_cache:
        Optional mapping from comment id to its analyzed sentiment
        breakdown, consulted before the classifier and populated on
        miss.  The incremental analyzer passes one persistent cache so
        re-analyses after a corpus delta only classify the *new*
        comments.  The cache is only sound while the same classifier
        is in play; discard it when the classifier changes.
    reference_day:
        The day recency ages are measured back from when the temporal
        facet is active (normally the corpus horizon — the newest
        ``created_day`` of any post or comment).  Ignored when decay is
        inert; defaults to the horizon computed from ``corpus``.
    """

    def __init__(
        self,
        corpus: BlogCorpus,
        params: MassParameters,
        sentiment_classifier: SentimentClassifier | None = None,
        sentiment_cache: MutableMapping[str, object] | None = None,
        reference_day: int | None = None,
    ) -> None:
        self._params = params
        decay_active = params.decay_active
        if decay_active and reference_day is None:
            reference_day = corpus_horizon(corpus)
        self._reference_day = reference_day if decay_active else None
        self._corpus = corpus
        self._classifier = sentiment_classifier or SentimentClassifier()
        self._sentiment_cache = sentiment_cache
        self._graded = params.sentiment_mode == "graded"
        self._built: dict[str, list[CommentTerm]] = {}
        self._all_built = False
        self._sentiment_counts: Counter[Sentiment] = Counter()

        # The degenerate-TC contract (warn at construction, drop the
        # citation mass) survives laziness: scan each distinct
        # commenter's TC once up front, cheap relative to term builds.
        seen: set[str] = set()
        for comment in corpus.comments.values():
            commenter_id = comment.commenter_id
            if commenter_id in seen:
                continue
            seen.add(commenter_id)
            total = corpus.total_comments_by(commenter_id)
            if total <= 0:
                warnings.warn(
                    f"commenter {commenter_id!r} has TC={total}; its "
                    "citation mass is dropped (SF/TC treated as 0)",
                    DegenerateCitationWarning,
                    stacklevel=2,
                )

    @property
    def reference_day(self) -> int | None:
        """The decay reference day, or ``None`` when decay is inert."""
        return self._reference_day

    def _build_terms(self, post_id: str) -> list[CommentTerm]:
        corpus = self._corpus
        params = self._params
        sentiment_cache = self._sentiment_cache
        author_id = corpus.post_author_id(post_id)
        terms: list[CommentTerm] = []
        for comment in sorted(
            corpus.comments_on(post_id), key=lambda c: c.comment_id
        ):
            if (
                comment.commenter_id == author_id
                and not params.include_self_comments
            ):
                continue
            breakdown = None
            if sentiment_cache is not None:
                breakdown = sentiment_cache.get(comment.comment_id)
            if breakdown is None:
                breakdown = self._classifier.analyze(comment.text)
                if sentiment_cache is not None:
                    sentiment_cache[comment.comment_id] = breakdown
            sentiment = breakdown.sentiment
            self._sentiment_counts[sentiment] += 1
            if self._graded:
                sf = params.graded_sentiment_factor(breakdown)
            else:
                sf = params.sentiment_factor(sentiment)
            total = corpus.total_comments_by(comment.commenter_id)
            decay = 1.0
            if self._reference_day is not None:
                decay = params.decay_factor(
                    self._reference_day - comment.created_day
                )
            terms.append(
                CommentTerm(
                    comment.commenter_id,
                    sentiment,
                    sf,
                    total,
                    decay,
                )
            )
        return terms

    def _terms_of(self, post_id: str) -> list[CommentTerm]:
        terms = self._built.get(post_id)
        if terms is None:
            if post_id not in self._corpus.posts:
                return []
            terms = self._build_terms(post_id)
            self._built[post_id] = terms
        return terms

    def _materialize_all(self) -> None:
        if self._all_built:
            return
        for post_id in sorted(self._corpus.posts):
            self._terms_of(post_id)
        self._all_built = True

    def terms_for(self, post_id: str) -> list[CommentTerm]:
        """The comment terms of a post (empty list if uncommented)."""
        return list(self._terms_of(post_id))

    def comment_score(
        self, post_id: str, influence: Mapping[str, float]
    ) -> float:
        """Evaluate Eq. 3 for one post under an influence assignment.

        With ``use_citation`` disabled the commenter's influence and the
        TC normalization drop out, reducing the score to a
        sentiment-weighted comment count (the citation ablation).
        """
        terms = self._terms_of(post_id)
        if not terms:
            return 0.0
        if self._params.use_citation:
            return sum(
                influence.get(term.commenter_id, 0.0) * term.citation_weight
                for term in terms
            )
        return sum(term.decayed_sf for term in terms)

    def sentiment_distribution(self) -> dict[Sentiment, int]:
        """How many comments fell into each attitude class."""
        self._materialize_all()
        return dict(self._sentiment_counts)

    def num_commented_posts(self) -> int:
        """Number of posts that have at least one counted comment."""
        self._materialize_all()
        return sum(1 for terms in self._built.values() if terms)
