"""Tests for incremental re-analysis with warm starts."""

import pytest

from repro.core import (
    CorpusDelta,
    IncrementalAnalyzer,
    MassModel,
    MassParameters,
)
from repro.data import Blogger, Comment, Link, Post
from repro.errors import ReproError
from repro.nlp import NaiveBayesClassifier
from repro.synth import DOMAIN_VOCABULARIES


@pytest.fixture(scope="module")
def classifier():
    return NaiveBayesClassifier.from_seed_vocabulary(DOMAIN_VOCABULARIES)


def make_delta(corpus, seq=0):
    """A small realistic delta: one new blogger, post, comment, link."""
    existing = corpus.blogger_ids()[0]
    new_id = f"newcomer-{seq:02d}"
    post = Post(f"newpost-{seq:02d}", new_id,
                body="a new post about the marathon stadium game " * 4,
                created_day=300)
    comment = Comment(f"newcomment-{seq:02d}", post.post_id, existing,
                      text="I agree, a wonderful read", created_day=301)
    return CorpusDelta(
        bloggers=[Blogger(new_id)],
        posts=[post],
        comments=[comment],
        links=[Link(existing, new_id)],
    )


class TestLifecycle:
    def test_report_before_fit_rejected(self, classifier):
        analyzer = IncrementalAnalyzer(classifier)
        with pytest.raises(ReproError, match="no analysis yet"):
            analyzer.report
        with pytest.raises(ReproError, match="call fit"):
            analyzer.apply(CorpusDelta())

    def test_fit_matches_batch_model(self, classifier, small_blogosphere):
        corpus, _ = small_blogosphere
        analyzer = IncrementalAnalyzer(classifier)
        incremental = analyzer.fit(corpus)
        batch = MassModel(classifier=classifier).fit(corpus)
        assert incremental.general_scores() == batch.general_scores()

    def test_empty_delta_is_noop(self, classifier, small_blogosphere):
        corpus, _ = small_blogosphere
        analyzer = IncrementalAnalyzer(classifier)
        report = analyzer.fit(corpus)
        assert analyzer.apply(CorpusDelta()) is report


class TestApply:
    def test_delta_entities_visible(self, classifier, small_blogosphere):
        corpus, _ = small_blogosphere
        analyzer = IncrementalAnalyzer(classifier)
        analyzer.fit(corpus)
        report = analyzer.apply(make_delta(corpus))
        assert "newcomer-00" in report.corpus
        assert "newcomer-00" in report.general_scores()
        # Original corpus untouched.
        assert "newcomer-00" not in corpus

    def test_incremental_equals_full_reanalysis(self, classifier,
                                                small_blogosphere):
        corpus, _ = small_blogosphere
        analyzer = IncrementalAnalyzer(classifier)
        analyzer.fit(corpus)
        incremental = analyzer.apply(make_delta(corpus))

        # Build the same grown corpus from scratch and batch-analyze.
        grown = corpus.subset(corpus.blogger_ids())
        delta = make_delta(corpus)
        grown.extend(bloggers=delta.bloggers, posts=delta.posts,
                     comments=delta.comments, links=delta.links)
        grown.freeze()
        batch = MassModel(classifier=classifier).fit(grown)

        for blogger_id, value in batch.general_scores().items():
            assert incremental.general_scores()[blogger_id] == pytest.approx(
                value, abs=1e-8
            )

    def test_warm_start_saves_iterations(self, classifier,
                                         small_blogosphere):
        corpus, _ = small_blogosphere
        analyzer = IncrementalAnalyzer(classifier)
        analyzer.fit(corpus)
        cold_iterations = analyzer.last_iterations
        analyzer.apply(make_delta(corpus))
        warm_iterations = analyzer.last_iterations
        assert warm_iterations < cold_iterations

    def test_successive_deltas(self, classifier, small_blogosphere):
        corpus, _ = small_blogosphere
        analyzer = IncrementalAnalyzer(classifier)
        analyzer.fit(corpus)
        for seq in range(3):
            report = analyzer.apply(make_delta(analyzer.report.corpus, seq))
        assert len(report.corpus) == len(corpus) + 3

    def test_comment_delta_shifts_influence(self, classifier,
                                            small_blogosphere):
        corpus, _ = small_blogosphere
        analyzer = IncrementalAnalyzer(classifier)
        before = analyzer.fit(corpus)
        # Shower an author with fresh positive comments.
        target_post = next(iter(sorted(corpus.posts)))
        author = corpus.post(target_post).author_id
        commenters = [b for b in corpus.blogger_ids() if b != author][:5]
        delta = CorpusDelta(
            comments=[
                Comment(f"extra-{i}", target_post, commenter,
                        text="excellent, I agree and support this")
                for i, commenter in enumerate(commenters)
            ]
        )
        before_score = before.general_scores()[author]
        after = analyzer.apply(delta)
        assert after.general_scores()[author] > before_score


class TestSparseWarmStart:
    """Dirty-row re-assembly under the sparse backend.

    The incremental analyzer's AssemblyCache must hand back compiled
    arrays that are indistinguishable from a cold compile — the scores
    after a delta have to match a from-scratch analysis of the grown
    corpus, while re-assembling strictly fewer rows than a cold pass.
    """

    def test_refresh_engages_and_matches_cold_solve(self, classifier,
                                                    small_blogosphere):
        corpus, _ = small_blogosphere
        analyzer = IncrementalAnalyzer(
            classifier, MassParameters(solver_backend="sparse")
        )
        analyzer.fit(corpus)
        assert analyzer.assembly_cache.last_mode == "cold"

        incremental = analyzer.apply(make_delta(corpus))
        cache = analyzer.assembly_cache
        assert cache.last_mode == "refresh"
        assert 0 < cache.last_dirty_rows < len(incremental.corpus.bloggers)

        grown = corpus.subset(corpus.blogger_ids())
        delta = make_delta(corpus)
        grown.extend(bloggers=delta.bloggers, posts=delta.posts,
                     comments=delta.comments, links=delta.links)
        grown.freeze()
        cold = MassModel(
            classifier=classifier,
            params=MassParameters(solver_backend="sparse"),
        ).fit(grown)
        for blogger_id, value in cold.general_scores().items():
            assert incremental.general_scores()[blogger_id] == pytest.approx(
                value, abs=1e-9
            )

    def test_successive_refreshes_stay_consistent(self, classifier,
                                                  small_blogosphere):
        corpus, _ = small_blogosphere
        analyzer = IncrementalAnalyzer(
            classifier, MassParameters(solver_backend="sparse")
        )
        analyzer.fit(corpus)
        for seq in range(3):
            report = analyzer.apply(make_delta(analyzer.report.corpus, seq))
            assert analyzer.assembly_cache.last_mode == "refresh"
        cold = MassModel(
            classifier=classifier,
            params=MassParameters(solver_backend="sparse"),
        ).fit(report.corpus)
        for blogger_id, value in cold.general_scores().items():
            assert report.general_scores()[blogger_id] == pytest.approx(
                value, abs=1e-9
            )

    def test_sentiment_cache_grows_with_corpus(self, classifier,
                                               small_blogosphere):
        corpus, _ = small_blogosphere
        analyzer = IncrementalAnalyzer(
            classifier, MassParameters(solver_backend="sparse")
        )
        analyzer.fit(corpus)
        before = len(analyzer.assembly_cache.sentiment_cache)
        analyzer.apply(make_delta(corpus))
        after = len(analyzer.assembly_cache.sentiment_cache)
        assert after == before + 1  # exactly the one new comment

    def test_reference_backend_still_works_incrementally(
            self, classifier, small_blogosphere):
        corpus, _ = small_blogosphere
        analyzer = IncrementalAnalyzer(
            classifier, MassParameters(solver_backend="reference")
        )
        analyzer.fit(corpus)
        report = analyzer.apply(make_delta(corpus))
        assert "newcomer-00" in report.general_scores()
        assert report.scores.backend == "reference"


class TestDelta:
    def test_size_and_empty(self):
        assert CorpusDelta().is_empty()
        assert CorpusDelta().size() == 0
        delta = CorpusDelta(bloggers=[Blogger("x")])
        assert not delta.is_empty()
        assert delta.size() == 1


class TestMerge:
    def test_merge_preserves_arrival_order(self):
        first = CorpusDelta(bloggers=[Blogger("a")],
                            links=[Link("a", "a2", 1.0)])
        second = CorpusDelta(bloggers=[Blogger("b"), Blogger("a2")])
        merged = CorpusDelta.merge(first, second)
        assert [b.blogger_id for b in merged.bloggers] == ["a", "b", "a2"]
        assert merged.size() == first.size() + second.size()

    def test_merge_of_nothing_is_empty(self):
        assert CorpusDelta.merge().is_empty()
        assert CorpusDelta.merge(CorpusDelta(), CorpusDelta()).is_empty()

    @pytest.mark.parametrize("kind,delta", [
        ("blogger", CorpusDelta(bloggers=[Blogger("dup")])),
        ("post", CorpusDelta(posts=[Post("dup", "x", created_day=1)])),
        ("comment", CorpusDelta(
            comments=[Comment("dup", "p", "x", created_day=1)])),
    ])
    def test_merge_rejects_duplicate_ids(self, kind, delta):
        from repro.errors import CorpusError

        with pytest.raises(CorpusError, match=f"duplicate {kind} id 'dup'"):
            CorpusDelta.merge(delta, delta)

    def test_parallel_links_merge_without_conflict(self):
        first = CorpusDelta(links=[Link("a", "b", 1.0)])
        second = CorpusDelta(links=[Link("a", "b", 2.0)])
        merged = CorpusDelta.merge(first, second)
        assert len(merged.links) == 2  # corpus adds weights on apply

    def test_merged_apply_equals_sequential_applies(self, classifier,
                                                    small_blogosphere):
        """One merged apply converges to the same fixed point.

        Only to solver precision, not bit-exactly: the warm-start path
        differs, and the iteration cutoff freezes different final ulps.
        (This is why the durable pipeline logs one WAL record per
        *merged* batch — replay must re-walk the same path.)
        """
        corpus, _ = small_blogosphere
        sequential = IncrementalAnalyzer(classifier)
        sequential.fit(corpus)
        deltas = [make_delta(corpus, seq) for seq in range(3)]
        for delta in deltas:
            sequential.apply(delta)

        merged = IncrementalAnalyzer(classifier)
        merged.fit(corpus)
        merged.apply(CorpusDelta.merge(*deltas))
        expected = sequential.report.general_scores()
        actual = merged.report.general_scores()
        assert actual.keys() == expected.keys()
        for blogger_id, score in expected.items():
            assert actual[blogger_id] == pytest.approx(score, rel=1e-9)


class TestBetween:
    def test_between_finds_the_difference(self, classifier,
                                          small_blogosphere):
        corpus, _ = small_blogosphere
        grown = corpus.subset(corpus.blogger_ids())
        delta = make_delta(corpus)
        grown.extend(bloggers=delta.bloggers, posts=delta.posts,
                     comments=delta.comments, links=delta.links)
        diff = CorpusDelta.between(corpus, grown)
        assert [b.blogger_id for b in diff.bloggers] == ["newcomer-00"]
        assert [p.post_id for p in diff.posts] == ["newpost-00"]
        assert [c.comment_id for c in diff.comments] == ["newcomment-00"]
        assert len(diff.links) == 1

    def test_between_identical_corpora_is_empty(self, small_blogosphere):
        corpus, _ = small_blogosphere
        assert CorpusDelta.between(corpus, corpus).is_empty()

    def test_between_rejects_shrinkage_when_strict(self, tiny_corpus):
        from repro.errors import CorpusError

        grown = tiny_corpus.subset(tiny_corpus.blogger_ids())
        delta = CorpusDelta(bloggers=[Blogger("dave")])
        grown.extend(bloggers=delta.bloggers)
        with pytest.raises(CorpusError, match="missing blogger"):
            CorpusDelta.between(grown, tiny_corpus)
        # The partial-view mode shrugs instead.
        assert CorpusDelta.between(grown, tiny_corpus,
                                   strict=False).is_empty()

    def test_between_carries_link_weight_growth(self, tiny_corpus):
        grown = tiny_corpus.subset(tiny_corpus.blogger_ids())
        grown.extend(links=[Link("bob", "alice", 2.5)])  # parallel link
        diff = CorpusDelta.between(tiny_corpus, grown)
        assert len(diff.links) == 1
        link = diff.links[0]
        assert (link.source_id, link.target_id) == ("bob", "alice")
        assert link.weight == 2.5


class TestValidateDelta:
    def test_validate_before_fit_rejected(self, classifier):
        analyzer = IncrementalAnalyzer(classifier)
        with pytest.raises(ReproError, match="call fit"):
            analyzer.validate_delta(CorpusDelta())

    def test_valid_delta_passes_without_mutation(self, classifier,
                                                 small_blogosphere):
        corpus, _ = small_blogosphere
        analyzer = IncrementalAnalyzer(classifier)
        analyzer.fit(corpus)
        delta = make_delta(corpus)
        analyzer.validate_delta(delta)
        assert "newcomer-00" not in analyzer.report.corpus

    @pytest.mark.parametrize("bad,match", [
        (lambda c: CorpusDelta(bloggers=[Blogger(c.blogger_ids()[0])]),
         "duplicate blogger"),
        (lambda c: CorpusDelta(
            posts=[Post("px", "ghost", created_day=1)]),
         "unknown blogger"),
        (lambda c: CorpusDelta(
            comments=[Comment("cx", "no-post", c.blogger_ids()[0],
                              created_day=1)]),
         "unknown post"),
        (lambda c: CorpusDelta(links=[Link(c.blogger_ids()[0], "ghost")]),
         "unknown blogger"),
    ])
    def test_invalid_delta_rejected_atomically(self, classifier,
                                               small_blogosphere, bad,
                                               match):
        from repro.errors import CorpusError

        corpus, _ = small_blogosphere
        analyzer = IncrementalAnalyzer(classifier)
        before = analyzer.fit(corpus)
        with pytest.raises(CorpusError, match=match):
            analyzer.apply(bad(corpus))
        # Atomic apply-or-reject: state is untouched.
        assert analyzer.report is before


class TestRestore:
    def test_restore_resumes_from_saved_report(self, classifier,
                                               small_blogosphere, tmp_path):
        from repro.core.report_io import load_report, save_report

        corpus, _ = small_blogosphere
        original = IncrementalAnalyzer(classifier)
        original.fit(corpus)
        save_report(original.report, tmp_path / "report.xml")

        restored = IncrementalAnalyzer(classifier)
        restored.restore(corpus, load_report(tmp_path / "report.xml",
                                             corpus))
        a = original.apply(make_delta(corpus))
        b = restored.apply(make_delta(corpus))
        assert a.general_scores() == b.general_scores()
        assert a.scores.iterations == b.scores.iterations

    def test_restore_rejects_foreign_params(self, classifier,
                                            small_blogosphere):
        corpus, _ = small_blogosphere
        original = IncrementalAnalyzer(
            classifier, MassParameters(alpha=0.9))
        original.fit(corpus)
        other = IncrementalAnalyzer(classifier, MassParameters(alpha=0.1))
        with pytest.raises(ReproError, match="different parameters"):
            other.restore(corpus, original.report)
