"""Regression tests for the warm apply path.

Covers membership sharing (no O(corpus) copy per apply), delta-only
post classification and tokenization, the structured
link-weight-decrease warning, and content-only warm applies landing on
the cold fit and a full re-rank.
"""

import importlib
import logging
from collections import Counter

import pytest

from repro.core import CorpusDelta, IncrementalAnalyzer, MassModel
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
    """Wraps a classifier and counts the posts it classifies.

    The analyzer classifies in batches over its text table, so
    ``calls`` counts the rows ``predict_proba_rows`` scores, plus one
    per ``predict_proba``.
    """

    def __init__(self, inner):
        self._inner = inner
        self.calls = 0

    @property
    def classes(self):
        return self._inner.classes

    def feature_ids(self, tokens):
        return self._inner.feature_ids(tokens)

    def predict_proba(self, text):
        self.calls += 1
        return self._inner.predict_proba(text)

    def predict_proba_rows(self, term_ids, row_starts):
        self.calls += len(row_starts) - 1
        return self._inner.predict_proba_rows(term_ids, row_starts)


def count_tokenize(monkeypatch):
    """Count the tokenizations on the post text path, by input text."""
    seen = Counter()
    # ``repro.nlp.tokenize`` the attribute is the function; the module
    # itself holds the global ``word_count`` calls.
    modules = [importlib.import_module(name) for name in (
        "repro.nlp.tokenize", "repro.core.texts", "repro.core.novelty",
        "repro.nlp.naive_bayes",
    )]
    real = modules[0].tokenize

    def counting(text):
        seen[text] += 1
        return real(text)

    for module in modules:
        monkeypatch.setattr(module, "tokenize", counting)
    return seen


def post_tokenizations(seen, corpus):
    """The counted tokenizations of any post's title, body or text."""
    texts = set()
    for post in corpus.posts.values():
        texts.update((post.title, post.body, post.text))
    return Counter({text: n for text, n in seen.items() if text in texts})


def title_and_body(posts):
    """One tokenization of each post's title and of its body."""
    expected = Counter()
    for post in posts:
        expected[post.title] += 1
        expected[post.body] += 1
    return expected


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

    def test_fit_tokenizes_each_post_once(self, classifier,
                                          small_blogosphere, monkeypatch):
        corpus, _ = small_blogosphere
        seen = count_tokenize(monkeypatch)
        IncrementalAnalyzer(classifier).fit(corpus)
        assert post_tokenizations(seen, corpus) == title_and_body(
            corpus.posts.values()
        )

        seen.clear()
        MassModel(classifier=classifier).fit(corpus)
        assert post_tokenizations(seen, corpus) == title_and_body(
            corpus.posts.values()
        )

    def test_apply_tokenizes_exactly_the_delta_posts(
        self, classifier, small_blogosphere, monkeypatch
    ):
        corpus, _ = small_blogosphere
        analyzer = IncrementalAnalyzer(classifier)
        analyzer.fit(corpus)
        seen = count_tokenize(monkeypatch)
        delta = local_delta(analyzer._corpus, seq=0)
        analyzer.apply(delta)
        assert post_tokenizations(seen, analyzer._corpus) == title_and_body(
            delta.posts
        )

        seen.clear()
        analyzer.apply(CorpusDelta(comments=[
            Comment("tok-comment-00", "warm-post-00",
                    sorted(corpus.blogger_ids())[3],
                    text="nice", created_day=410),
        ]))
        assert post_tokenizations(seen, analyzer._corpus) == Counter()

    def test_first_apply_after_restore_builds_the_table_once(
        self, classifier, small_blogosphere, monkeypatch
    ):
        corpus, _ = small_blogosphere
        report = IncrementalAnalyzer(classifier).fit(corpus)
        counting = CountingClassifier(classifier)
        analyzer = IncrementalAnalyzer(counting)
        analyzer.restore(corpus, report)
        seen = count_tokenize(monkeypatch)
        analyzer.apply(local_delta(corpus, seq=0))
        # The restored memberships stand; only the delta's post is
        # classified, but the table is built over the whole corpus.
        assert counting.calls == 1
        assert post_tokenizations(seen, analyzer._corpus) == title_and_body(
            analyzer._corpus.posts.values()
        )

        seen.clear()
        delta = local_delta(analyzer._corpus, seq=1)
        analyzer.apply(delta)
        assert counting.calls == 2
        assert post_tokenizations(seen, analyzer._corpus) == title_and_body(
            delta.posts
        )


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
            analyzer._corpus.subset(analyzer._corpus.blogger_ids())
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
