"""Regression tests for the warm apply path.

Covers membership sharing (no O(corpus) copy per apply), delta-only
post classification, the structured link-weight-decrease warning, and
content-only warm applies landing on the cold fit and a full re-rank.
"""

import logging

import pytest

from repro.core import CorpusDelta, IncrementalAnalyzer
from repro.core.incremental import _copy_corpus
from repro.core.topk import full_ranking, top_k
from repro.data import Blogger, Comment, CorpusBuilder, Post
from repro.errors import CorpusError
from repro.nlp import NaiveBayesClassifier
from repro.synth import DOMAIN_VOCABULARIES


@pytest.fixture(scope="module")
def classifier():
    return NaiveBayesClassifier.from_seed_vocabulary(DOMAIN_VOCABULARIES)


def local_delta(corpus, seq=0):
    """A delta touching only existing bloggers: no new rows, no links.

    Such a delta leaves the GL scores provably unchanged, so the warm
    apply reuses the cached GL vector.
    """
    authors = sorted(corpus.blogger_ids())
    post = Post(f"warm-post-{seq:02d}", authors[seq % len(authors)],
                body="a fresh take on the stadium marathon game " * 3,
                created_day=400 + seq)
    comment = Comment(f"warm-comment-{seq:02d}", post.post_id,
                      authors[(seq + 1) % len(authors)],
                      text="I agree, a wonderful read", created_day=401 + seq)
    return CorpusDelta(posts=[post], comments=[comment])


class CountingClassifier:
    """Wraps a classifier and counts ``predict_proba`` invocations."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = 0

    @property
    def classes(self):
        return self._inner.classes

    def predict_proba(self, text):
        self.calls += 1
        return self._inner.predict_proba(text)


class TestMembershipSharing:
    """Satellite 1: the analyzer owns ONE membership dict for life."""

    def test_report_shares_the_analyzer_membership_dict(
        self, classifier, small_blogosphere
    ):
        corpus, _ = small_blogosphere
        analyzer = IncrementalAnalyzer(classifier)
        report = analyzer.fit(corpus)
        assert report.domain_influence._post_memberships \
            is analyzer._memberships
        report = analyzer.apply(local_delta(analyzer._corpus or corpus))
        # After an apply the report still references the same dict —
        # no per-apply O(corpus) membership copy.
        assert report.domain_influence._post_memberships \
            is analyzer._memberships

    def test_membership_dict_identity_survives_newcomer_delta(
        self, classifier, small_blogosphere
    ):
        corpus, _ = small_blogosphere
        analyzer = IncrementalAnalyzer(classifier)
        analyzer.fit(corpus)
        delta = CorpusDelta(
            bloggers=[Blogger("newcomer-77")],
            posts=[Post("newpost-77", "newcomer-77",
                        body="gallery paintings and sculpture " * 4)],
        )
        report = analyzer.apply(delta)
        assert report.domain_influence._post_memberships \
            is analyzer._memberships
        assert "newpost-77" in analyzer._memberships


class TestDeltaOnlyClassification:
    """Satellite 2: classify exactly the delta's new posts."""

    def test_classifier_called_once_per_post(
        self, classifier, small_blogosphere
    ):
        corpus, _ = small_blogosphere
        counting = CountingClassifier(classifier)
        analyzer = IncrementalAnalyzer(counting)
        analyzer.fit(corpus)
        assert counting.calls == len(corpus.posts)

        counting.calls = 0
        analyzer.apply(local_delta(analyzer._corpus, seq=0))
        assert counting.calls == 1  # exactly the delta's one post

        counting.calls = 0
        analyzer.apply(CorpusDelta(comments=[
            Comment("only-comment-00", "warm-post-00",
                    sorted(corpus.blogger_ids())[3],
                    text="nice", created_day=410),
        ]))
        assert counting.calls == 0  # no new posts, no classification

        counting.calls = 0
        authors = sorted(corpus.blogger_ids())
        analyzer.apply(CorpusDelta(posts=[
            Post(f"pair-post-{i}", authors[i],
                 body="two fresh posts about the garden", created_day=420)
            for i in range(2)
        ]))
        assert counting.calls == 2


class TestLinkWeightDecreaseWarning:
    """Satellite 3: shrinking link weights are surfaced, not swallowed."""

    @staticmethod
    def _corpus_with_weight(weight):
        builder = CorpusBuilder()
        builder.blogger("alice").blogger("bob")
        builder.post("alice", body="a post about roses " * 3)
        builder.link("bob", "alice", weight=weight)
        return builder.build()

    def test_strict_raises(self):
        base = self._corpus_with_weight(2.5)
        grown = self._corpus_with_weight(1.0)
        with pytest.raises(CorpusError, match="lost weight"):
            CorpusDelta.between(base, grown)

    def test_partial_view_emits_structured_warning(self, caplog):
        base = self._corpus_with_weight(2.5)
        grown = self._corpus_with_weight(1.0)
        with caplog.at_level(logging.WARNING, logger="repro.incremental"):
            delta = CorpusDelta.between(base, grown, strict=False)
        assert delta.is_empty()  # the decrease cannot be represented
        (record,) = [r for r in caplog.records
                     if getattr(r, "event", None) == "link-weight-decrease"]
        assert record.source_id == "bob"
        assert record.target_id == "alice"
        assert record.base_weight == 2.5
        assert record.grown_weight == 1.0
        assert "lost weight" in record.getMessage()


class TestFrontierWarmApply:
    """Content-only warm applies: cold-fit scores, full re-rank order."""

    def test_warm_scores_match_cold_solve(self, classifier,
                                          small_blogosphere):
        corpus, _ = small_blogosphere
        analyzer = IncrementalAnalyzer(classifier)
        analyzer.fit(corpus)
        for seq in range(3):
            report = analyzer.apply(local_delta(analyzer._corpus, seq=seq))
        cold = IncrementalAnalyzer(classifier).fit(
            _copy_corpus(analyzer._corpus)
        )
        for blogger_id, value in cold.scores.influence.items():
            assert report.scores.influence[blogger_id] == \
                pytest.approx(value, abs=1e-9)

    def test_patched_rankings_match_rebuilt(self, classifier,
                                            small_blogosphere):
        corpus, _ = small_blogosphere
        analyzer = IncrementalAnalyzer(classifier)
        analyzer.fit(corpus)
        report = analyzer.apply(local_delta(analyzer._corpus))
        assert report.ranking() == full_ranking(report.scores.influence)
        assert report.top_influencers(5) == top_k(
            report.scores.influence, 5
        )
        for domain in report.domains:
            assert report.ranking(domain) == full_ranking(
                report.domain_influence.domain_scores(domain)
            )
