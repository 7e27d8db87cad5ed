"""iFinder — Agarwal, Liu, Tang & Yu, "Identifying the influential
bloggers in a community" (WSDM 2008): the "existing system [1]" the
MASS paper positions itself against.

iFinder scores each *post* from four properties and defines a
blogger's influence index (iIndex) as the maximum over their posts:

- **recognition** ι: inlinks to the post — influential posts are cited;
- **activity generation** γ: number of comments the post attracts;
- **novelty** θ: outlinks from the post — many references, less novel;
- **eloquence** λ: post length.

    InfluenceFlow(p) = w_in · Σ_{q ∈ ι(p)} I(q)  −  w_out · Σ_{q ∈ θ(p)} I(q)
    I(p) = w(λ_p) · (w_com · γ_p + InfluenceFlow(p))
    iIndex(b) = max_p I(p)

The original ι/θ are hyperlinks between posts.  Blog data in this
reproduction carries comments and blogger-level links instead, so we
use the standard adaptation: a comment is an inlink to the post from
its commenter (carrying the commenter's iIndex), and a post inherits
its author's blogroll out-degree as its outlink count.  This keeps the
defining characteristics intact — iFinder is recursive like MASS but
domain-blind, sentiment-blind, and normalizes nothing by commenter
activity.
"""

from __future__ import annotations

import math

from repro.baselines.base import BloggerRanker
from repro.core.topk import top_k
from repro.data.corpus import BlogCorpus
from repro.errors import ParameterError

__all__ = ["IFinderBaseline"]


class IFinderBaseline(BloggerRanker):
    """The WSDM'08 influence-index model.

    Parameters
    ----------
    w_in / w_out / w_comment:
        Weights of incoming influence flow, outgoing flow damping, and
        the comment-count term.
    length_weight:
        Scale of the eloquence multiplier ``w(λ) = 1 + length_weight ·
        log(1 + words)``.
    iterations:
        Fixed-point rounds for the mutually recursive I(p) / iIndex(b);
        scores are max-normalized each round for stability.
    """

    name = "iFinder"

    def __init__(
        self,
        w_in: float = 1.0,
        w_out: float = 0.25,
        w_comment: float = 1.0,
        length_weight: float = 0.5,
        iterations: int = 20,
    ) -> None:
        if min(w_in, w_out, w_comment, length_weight) < 0:
            raise ParameterError("iFinder weights must be >= 0")
        if iterations < 1:
            raise ParameterError(f"iterations must be >= 1, got {iterations}")
        self._w_in = w_in
        self._w_out = w_out
        self._w_comment = w_comment
        self._length_weight = length_weight
        self._iterations = iterations

    def score_bloggers(self, corpus: BlogCorpus) -> dict[str, float]:
        bloggers = corpus.blogger_ids()
        post_ids = sorted(corpus.posts)
        if not post_ids:
            return {blogger_id: 0.0 for blogger_id in bloggers}

        # Static per-post properties.
        eloquence = {}
        comment_count = {}
        commenters = {}
        out_count = {}
        for post_id in post_ids:
            post = corpus.post(post_id)
            words = len(post.body.split())
            eloquence[post_id] = 1.0 + self._length_weight * math.log1p(words)
            counted = [
                comment.commenter_id
                for comment in corpus.comments_on(post_id)
                if comment.commenter_id != post.author_id
            ]
            comment_count[post_id] = len(counted)
            commenters[post_id] = counted
            out_count[post_id] = len(corpus.out_links(post.author_id))

        iindex = {blogger_id: 1.0 for blogger_id in bloggers}
        post_score: dict[str, float] = {}
        for _ in range(self._iterations):
            for post_id in post_ids:
                inflow = self._w_in * sum(
                    iindex[commenter] for commenter in commenters[post_id]
                )
                outflow = self._w_out * out_count[post_id]
                flow = inflow - outflow
                post_score[post_id] = eloquence[post_id] * (
                    self._w_comment * comment_count[post_id] + flow
                )
            new_iindex = {blogger_id: 0.0 for blogger_id in bloggers}
            for post_id in post_ids:
                author_id = corpus.post_author_id(post_id)
                new_iindex[author_id] = max(
                    new_iindex[author_id], post_score[post_id]
                )
            peak = max(new_iindex.values())
            if peak > 0:
                new_iindex = {
                    blogger_id: value / peak
                    for blogger_id, value in new_iindex.items()
                }
            else:
                # Degenerate corpus (no comments anywhere): fall back to
                # eloquence-only, which is already iteration-free.
                iindex = new_iindex
                break
            if all(
                abs(new_iindex[b] - iindex[b]) < 1e-12 for b in bloggers
            ):
                iindex = new_iindex
                break
            iindex = new_iindex
        # Clamp: a blogger whose best post has negative flow is simply
        # uninfluential, not negatively influential.
        return {
            blogger_id: max(value, 0.0) for blogger_id, value in iindex.items()
        }

    def top_posts(self, corpus: BlogCorpus, k: int) -> list[tuple[str, float]]:
        """The k most influential *posts* (iFinder's native unit).

        Post scores are evaluated at the converged blogger index.
        """
        scores = self.score_bloggers(corpus)
        post_scores = {}
        for post_id in sorted(corpus.posts):
            post = corpus.post(post_id)
            words = len(post.body.split())
            eloq = 1.0 + self._length_weight * math.log1p(words)
            counted = [
                comment.commenter_id
                for comment in corpus.comments_on(post_id)
                if comment.commenter_id != post.author_id
            ]
            inflow = self._w_in * sum(scores[c] for c in counted)
            outflow = self._w_out * len(corpus.out_links(post.author_id))
            post_scores[post_id] = eloq * (
                self._w_comment * len(counted) + inflow - outflow
            )
        return top_k(post_scores, k)
