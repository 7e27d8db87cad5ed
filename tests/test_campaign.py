"""Tests for the coverage-aware campaign planner."""

import pytest

from repro.apps import CampaignPlanner
from repro.core import MassModel
from repro.data import CorpusBuilder
from repro.errors import ParameterError
from repro.nlp import NaiveBayesClassifier

SEEDS = {"Sports": ["game", "match", "stadium"],
         "Art": ["painting", "canvas", "gallery"]}


def overlap_corpus():
    """star1/star2 share their audience; niche reaches different readers.

    star1 and star2 are commented by the same three fans; niche is
    commented by three different readers.  All post Sports.
    """
    builder = CorpusBuilder()
    authors = ["star1", "star2", "niche"]
    shared = [f"fan-{i}" for i in range(3)]
    fresh = [f"reader-{i}" for i in range(3)]
    for blogger_id in authors + shared + fresh:
        builder.blogger(blogger_id)
    body = "the stadium match game " * 20
    for author, commenters, comment_text in (
        ("star1", shared, "I agree, a great game analysis"),
        ("star2", shared, "wonderful, I support this fully"),
        # niche reaches different readers, but with lukewarm reception
        # and a shorter post, so by influence it clearly trails.
        ("niche", fresh, "some notes about the game from last week"),
    ):
        words = body if author != "niche" else "the stadium match game " * 8
        post = builder.post(author, body=words)
        for commenter in commenters:
            builder.comment(post.post_id, commenter, text=comment_text)
    # star1/star2 also get endorsement links.
    for fan in shared:
        builder.link(fan, "star1").link(fan, "star2")
    return builder.build()


@pytest.fixture(scope="module")
def planner():
    corpus = overlap_corpus()
    model = MassModel(domain_seed_words=SEEDS)
    report = model.fit(corpus)
    return CampaignPlanner(report, model.classifier)


class TestAudience:
    def test_audience_sets(self, planner):
        assert planner.audience_of("star1") == frozenset(
            {"fan-0", "fan-1", "fan-2"}
        )
        assert planner.audience_of("niche") == frozenset(
            {"reader-0", "reader-1", "reader-2"}
        )

    def test_unknown_blogger(self, planner):
        with pytest.raises(ParameterError, match="unknown blogger"):
            planner.audience_of("ghost")


class TestPlanning:
    def test_coverage_zero_is_naive_topk(self, planner):
        plan = planner.plan(domains=["Sports"], k=2, coverage_weight=0.0)
        assert plan.selected == plan.naive_top_k

    def test_coverage_prefers_disjoint_audiences(self, planner):
        plan = planner.plan(domains=["Sports"], k=2, coverage_weight=0.8)
        # star1+star2 cover 3 readers; star + niche covers 6.
        assert "niche" in plan.selected
        assert plan.covered_audience == 6
        assert plan.coverage_gain_over_naive > 0

    def test_coverage_fraction(self, planner):
        plan = planner.plan(domains=["Sports"], k=3, coverage_weight=0.8)
        assert plan.coverage == 1.0  # all 6 readers reachable with 3 picks

    def test_text_mode(self, planner):
        plan = planner.plan(ad_text="a stadium game and match", k=2,
                            coverage_weight=0.5)
        assert plan.interest_vector.dominant_domain() == "Sports"
        assert len(plan.selected) == 2

    def test_selected_unique(self, planner):
        plan = planner.plan(domains=["Sports"], k=5, coverage_weight=0.5)
        assert len(plan.selected) == len(set(plan.selected))

    def test_k_larger_than_population(self, planner):
        plan = planner.plan(domains=["Sports"], k=100)
        assert len(plan.selected) == 9  # everyone


class TestValidation:
    def test_both_inputs_rejected(self, planner):
        with pytest.raises(ParameterError, match="exactly one"):
            planner.plan(ad_text="x", domains=["Sports"])

    def test_neither_input_rejected(self, planner):
        with pytest.raises(ParameterError, match="exactly one"):
            planner.plan()

    def test_empty_ad_rejected(self, planner):
        with pytest.raises(ParameterError, match="empty"):
            planner.plan(ad_text="  ")

    def test_unknown_domain_rejected(self, planner):
        with pytest.raises(ParameterError, match="unknown domains"):
            planner.plan(domains=["Astrology"])

    def test_bad_k_and_weight(self, planner):
        with pytest.raises(ParameterError, match="k must be"):
            planner.plan(domains=["Sports"], k=0)
        with pytest.raises(ParameterError, match="coverage_weight"):
            planner.plan(domains=["Sports"], coverage_weight=1.5)

    def test_classifier_mismatch(self, medium_model_and_report):
        _, report = medium_model_and_report
        other = NaiveBayesClassifier.from_seed_vocabulary(
            {"X": ["x"], "Y": ["y"]}
        )
        with pytest.raises(ParameterError, match="do not match"):
            CampaignPlanner(report, other)


class TestOnGeneratedData:
    def test_coverage_never_below_naive(self, medium_model_and_report):
        model, report = medium_model_and_report
        planner = CampaignPlanner(report, model.classifier)
        for domain in ("Sports", "Travel"):
            plan = planner.plan(domains=[domain], k=5, coverage_weight=0.7)
            assert plan.covered_audience >= plan.naive_covered_audience
            assert 0.0 <= plan.coverage <= 1.0
