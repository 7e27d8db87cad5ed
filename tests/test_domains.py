"""Unit tests for domain-specific influence (Eq. 5)."""

import math
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DomainInfluence,
    InfluenceScores,
    InfluenceSolver,
    MassParameters,
    PostMemberships,
)
from repro.data import BlogCorpus, Blogger, Post
from repro.errors import ParameterError
from repro.nlp import NaiveBayesClassifier


@pytest.fixture(scope="module")
def fig1_domain_influence(fig1_corpus, fig1_seed_words):
    scores = InfluenceSolver(fig1_corpus, MassParameters()).solve()
    classifier = NaiveBayesClassifier.from_seed_vocabulary(fig1_seed_words)
    return DomainInfluence.from_classifier(fig1_corpus, scores, classifier), scores


class TestEq5:
    def test_vector_sums_post_contributions(self, fig1_domain_influence,
                                            fig1_corpus):
        domain_influence, scores = fig1_domain_influence
        vector = domain_influence.vector("amery")
        # Eq. 5: sum over amery's posts of Inf(post) * iv(post, domain).
        for domain in ("Computer", "Economics"):
            expected = sum(
                scores.post_influence[post.post_id]
                * domain_influence.post_membership(post.post_id)[domain]
                for post in fig1_corpus.posts_by("amery")
            )
            assert math.isclose(vector[domain], expected, abs_tol=1e-12)

    def test_domain_split_matches_figure(self, fig1_domain_influence):
        domain_influence, _ = fig1_domain_influence
        # Amery: post1 CS, post2 Econ -> influence in both domains.
        vector = domain_influence.vector("amery")
        assert vector["Computer"] > 0.1
        assert vector["Economics"] > 0.1
        # Helen posts only CS.
        helen = domain_influence.vector("helen")
        assert helen["Computer"] > helen["Economics"] * 5

    def test_domain_totals_bounded_by_total_ap(self, fig1_domain_influence,
                                               fig1_corpus):
        domain_influence, scores = fig1_domain_influence
        for blogger_id in fig1_corpus.blogger_ids():
            vector = domain_influence.vector(blogger_id)
            # Memberships sum to 1 per post, so Σ_t Inf(b, C_t) = AP(b).
            assert math.isclose(
                sum(vector.values()), scores.ap[blogger_id], abs_tol=1e-9
            )


class TestRankings:
    def test_amery_tops_both_domains(self, fig1_domain_influence):
        domain_influence, _ = fig1_domain_influence
        assert domain_influence.ranking("Computer", 1)[0][0] == "amery"
        assert domain_influence.ranking("Economics", 1)[0][0] == "amery"

    def test_ranking_full_when_k_none(self, fig1_domain_influence):
        domain_influence, _ = fig1_domain_influence
        assert len(domain_influence.ranking("Computer")) == 9

    def test_unknown_domain_rejected(self, fig1_domain_influence):
        domain_influence, _ = fig1_domain_influence
        with pytest.raises(ParameterError, match="unknown domain"):
            domain_influence.ranking("Astrology")
        with pytest.raises(ParameterError, match="unknown domain"):
            domain_influence.score("amery", "Astrology")


class TestWeightedScores:
    def test_dot_product(self, fig1_domain_influence):
        domain_influence, _ = fig1_domain_influence
        interest = {"Computer": 1.0, "Economics": 0.0}
        weighted = domain_influence.weighted_scores(interest)
        assert math.isclose(
            weighted["amery"], domain_influence.score("amery", "Computer")
        )

    def test_unknown_interest_domain_rejected(self, fig1_domain_influence):
        domain_influence, _ = fig1_domain_influence
        with pytest.raises(ParameterError, match="unknown domains"):
            domain_influence.weighted_scores({"Astrology": 1.0})

    @pytest.mark.parametrize("kernel", ["numpy", "python"])
    def test_terms_add_in_sorted_domain_order(self, kernel):
        """1e16 + 1.0 rounds back to 1e16, so the order of the terms
        decides whether the 1.0 survives: the sorted-domain order keeps
        it out, whatever order the interest dict lists the domains in."""
        corpus = BlogCorpus()
        corpus.add_blogger(Blogger("solo"))
        corpus.add_post(Post("p1", "solo"))
        scores = InfluenceScores(
            influence={}, post_influence={"p1": 1.0}, ap={}, gl={},
            quality={}, comment_score={}, iterations=0, converged=True,
            residual=0.0,
        )
        domain_influence = DomainInfluence(
            corpus, scores, {"p1": {"a": 1.0, "b": 1.0, "c": 1.0}},
            ["c", "b", "a"],
        )
        with mock.patch.dict(os.environ, {"REPRO_SPARSE_KERNEL": kernel}):
            for interest in ({"c": -1e16, "a": 1e16, "b": 1.0},
                             {"a": 1e16, "b": 1.0, "c": -1e16}):
                weighted = domain_influence.weighted_scores(interest)
                assert weighted == {"solo": ((0.0 + 1e16) + 1.0) + -1e16}
                assert weighted == {"solo": 0.0}
                assert type(weighted["solo"]) is float


class TestConstruction:
    def test_missing_memberships_rejected(self, fig1_corpus):
        scores = InfluenceSolver(fig1_corpus).solve()
        with pytest.raises(ParameterError, match="memberships missing"):
            DomainInfluence(fig1_corpus, scores, {}, ["Computer"])

    def test_empty_domains_rejected(self, fig1_corpus):
        scores = InfluenceSolver(fig1_corpus).solve()
        with pytest.raises(ParameterError, match="at least one domain"):
            DomainInfluence(fig1_corpus, scores, {}, [])


# ----------------------------------------------------------------------
# The batched Eq. 5 sums: both kernels, dict and PostMemberships input,
# equal the per-post dict loop they replaced, bit for bit.
# ----------------------------------------------------------------------

KERNELS = ("numpy", "python")
DOMAINS = ["sport", "art", "travel", "tech"]  # not sorted


def reference_vectors(corpus, post_influence, memberships, domains):
    """The per-post, per-domain dict loop Eq. 5 ran before the batch."""
    vectors = {
        blogger_id: {domain: 0.0 for domain in domains}
        for blogger_id in corpus.blogger_ids()
    }
    for post_id, influence in post_influence.items():
        membership = memberships[post_id]
        vector = vectors[corpus.post(post_id).author_id]
        for domain in domains:
            vector[domain] += influence * membership.get(domain, 0.0)
    return vectors


weight = st.one_of(
    st.floats(0.0, 3.0, allow_nan=False),
    st.integers(0, 7).map(lambda k: k / 7),
)


@st.composite
def domain_inputs(draw):
    num_bloggers = draw(st.integers(1, 6))
    post_ids = draw(st.lists(st.text("abcxyz0123", min_size=1, max_size=4),
                             unique=True, max_size=30))
    authors = [draw(st.integers(0, num_bloggers - 1)) for _ in post_ids]
    corpus = BlogCorpus()
    for index in range(num_bloggers):
        corpus.add_blogger(Blogger(f"b{index}"))
    for post_id, author in zip(post_ids, authors):
        corpus.add_post(Post(post_id, f"b{author}"))
    memberships = {
        post_id: {
            domain: draw(weight)
            for domain in draw(st.lists(st.sampled_from(DOMAINS),
                                        unique=True))
        }
        for post_id in post_ids
    }
    order = draw(st.permutations(post_ids))
    post_influence = {post_id: draw(weight) for post_id in order}
    scores = InfluenceScores(
        influence={}, post_influence=post_influence, ap={}, gl={},
        quality={}, comment_score={}, iterations=0, converged=True,
        residual=0.0,
    )
    return corpus, scores, memberships


def left_to_right(terms):
    """Eq. 5's sum: from ``0.0``, each term added in order (never ``sum()``,
    which compensates from Python 3.12)."""
    total = 0.0
    for term in terms:
        total += term
    return total


def as_table(memberships, domains):
    table = PostMemberships(domains)
    table.update(memberships)
    return table


class TestBatchedDomainSums:
    @pytest.mark.parametrize("kernel", KERNELS)
    @settings(max_examples=60, deadline=None)
    @given(drawn=domain_inputs(), interest=st.dictionaries(
        st.sampled_from(DOMAINS), weight, min_size=1))
    def test_equal_the_dict_loop(self, kernel, drawn, interest):
        corpus, scores, memberships = drawn
        expected = reference_vectors(corpus, scores.post_influence,
                                     memberships, DOMAINS)
        inputs = {
            "dict": memberships,
            "table": as_table(memberships, DOMAINS),
            "table, other column order": as_table(memberships,
                                                  DOMAINS[::-1]),
            "table lacking a domain": as_table(memberships, DOMAINS[1:]),
        }
        with mock.patch.dict(os.environ, {"REPRO_SPARSE_KERNEL": kernel}):
            for name, given_memberships in inputs.items():
                if name == "table lacking a domain":
                    # The table stores 0.0 for the domain it lacks.
                    want = reference_vectors(
                        corpus, scores.post_influence,
                        {post_id: {d: m.get(d, 0.0) for d in DOMAINS[1:]}
                         for post_id, m in memberships.items()},
                        DOMAINS,
                    )
                else:
                    want = expected
                domain_influence = DomainInfluence(
                    corpus, scores, given_memberships, DOMAINS,
                    share_memberships=True,
                )
                for blogger_id in corpus.blogger_ids():
                    assert domain_influence.vector(blogger_id) \
                        == want[blogger_id], name
                for domain in DOMAINS:
                    assert domain_influence.domain_scores(domain) == {
                        blogger_id: vector[domain]
                        for blogger_id, vector in want.items()
                    }
                assert domain_influence.weighted_scores(interest) == {
                    blogger_id: left_to_right(
                        vector[domain] * interest[domain]
                        for domain in sorted(interest)
                    )
                    for blogger_id, vector in want.items()
                }

    def test_shared_table_is_adopted_by_reference(self, fig1_corpus):
        scores = InfluenceSolver(fig1_corpus).solve()
        table = as_table(
            {post_id: {"Computer": 1.0} for post_id in fig1_corpus.posts},
            ["Computer"],
        )
        domain_influence = DomainInfluence(fig1_corpus, scores, table,
                                           ["Computer"],
                                           share_memberships=True)
        assert domain_influence._post_memberships is table
        unshared = DomainInfluence(fig1_corpus, scores, table, ["Computer"])
        assert unshared._post_memberships is not table


class TestPostMemberships:
    def test_mapping_view(self):
        table = PostMemberships(["a", "b"])
        table.update({"p2": {"b": 0.25}, "p1": {"a": 0.5, "b": 0.5}})
        assert list(table) == ["p2", "p1"]
        assert len(table) == 2
        assert "p1" in table and "p3" not in table
        assert table["p2"] == {"a": 0.0, "b": 0.25}
        assert list(table["p1"]) == ["a", "b"]
        assert table.rows_of(["p1", "p2"]) == [1, 0]
        # Updating a post overwrites its row in place.
        table.update({"p2": {"a": 1.0}})
        assert table["p2"] == {"a": 1.0, "b": 0.0}
        assert list(table.values) == [1.0, 0.0, 0.5, 0.5]

    def test_bad_value_leaves_the_table_unchanged(self):
        table = PostMemberships(["a", "b"])
        table.update({"p1": {"a": 0.5, "b": 0.5}})
        with pytest.raises(TypeError):
            table.update({"p2": {"a": 0.25, "b": "high"}})
        assert list(table) == ["p1"]
        assert list(table.values) == [0.5, 0.5]
