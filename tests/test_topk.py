"""Unit and property tests for top-k selection."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import full_ranking, rank_of, top_k

scores_strategy = st.dictionaries(
    st.text(st.characters(categories=["Ll"]), min_size=1, max_size=4),
    st.floats(-100, 100, allow_nan=False),
    max_size=20,
)


class TestTopK:
    SCORES = {"a": 3.0, "b": 1.0, "c": 3.0, "d": 2.0}

    def test_orders_by_score_then_id(self):
        assert top_k(self.SCORES, 3) == [("a", 3.0), ("c", 3.0), ("d", 2.0)]

    def test_k_zero(self):
        assert top_k(self.SCORES, 0) == []

    def test_k_larger_than_population(self):
        assert len(top_k(self.SCORES, 99)) == 4

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            top_k(self.SCORES, -1)

    def test_exclude(self):
        result = top_k(self.SCORES, 2, exclude={"a", "c"})
        assert result == [("d", 2.0), ("b", 1.0)]

    def test_empty_scores(self):
        assert top_k({}, 3) == []

    @given(scores_strategy, st.integers(0, 25))
    def test_topk_is_prefix_of_full_ranking(self, scores, k):
        assert top_k(scores, k) == full_ranking(scores)[:k]

    @given(scores_strategy)
    def test_full_ranking_sorted_desc(self, scores):
        ranking = full_ranking(scores)
        values = [score for _, score in ranking]
        assert values == sorted(values, reverse=True)
        assert len(ranking) == len(scores)


class TestRankedScores:
    SCORES = {"a": 3.0, "b": 1.0, "c": 3.0, "d": 2.0}

    def _ranked(self, scores=None):
        from repro.core.topk import RankedScores

        return RankedScores(self.SCORES if scores is None else scores)

    def test_ranking_matches_full_ranking(self):
        assert self._ranked().ranking() == full_ranking(self.SCORES)

    def test_top_matches_top_k(self):
        ranked = self._ranked()
        for k in range(6):
            assert ranked.top(k) == top_k(self.SCORES, k)

    def test_exclude_matches_top_k(self):
        ranked = self._ranked()
        assert ranked.top(2, exclude={"a", "c"}) == top_k(
            self.SCORES, 2, exclude={"a", "c"}
        )

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            self._ranked().top(-1)

    def test_len_contains_score(self):
        ranked = self._ranked()
        assert len(ranked) == 4
        assert "a" in ranked and "zzz" not in ranked
        assert ranked.score("d") == 2.0

    def test_ranking_preserves_signed_zero(self):
        import math

        ((_, value),) = self._ranked({"a": -0.0}).ranking()
        assert math.copysign(1.0, value) == -1.0

    @given(scores_strategy)
    def test_ranking_equals_full_ranking(self, scores):
        assert self._ranked(scores).ranking() == full_ranking(scores)


class TestRankOf:
    def test_basic_ranks(self):
        scores = {"a": 3.0, "b": 1.0, "c": 2.0}
        assert rank_of(scores, "a") == 1
        assert rank_of(scores, "c") == 2
        assert rank_of(scores, "b") == 3

    def test_tie_breaks_by_id(self):
        scores = {"x": 2.0, "a": 2.0}
        assert rank_of(scores, "a") == 1
        assert rank_of(scores, "x") == 2

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            rank_of({"a": 1.0}, "zzz")

    @given(scores_strategy.filter(lambda d: len(d) >= 1))
    def test_rank_consistent_with_ranking(self, scores):
        ranking = full_ranking(scores)
        for position, (item_id, _) in enumerate(ranking, start=1):
            assert rank_of(scores, item_id) == position


@pytest.fixture(scope="module")
def validation_report(fig1_corpus, fig1_seed_words):
    from repro.core import MassModel

    return MassModel(domain_seed_words=fig1_seed_words).fit(fig1_corpus)


class TestTopInfluencersValidation:
    """k <= 0 and unknown domains raise instead of returning []."""

    @pytest.mark.parametrize("k", [0, -1, -7])
    def test_report_rejects_nonpositive_k(self, validation_report, k):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="k >= 1"):
            validation_report.top_influencers(k)

    @pytest.mark.parametrize("k", [0, -3])
    def test_report_rejects_nonpositive_k_in_domain(self, validation_report, k):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="k >= 1"):
            validation_report.top_influencers(k, domain="Computer")

    def test_report_rejects_unknown_domain(self, validation_report):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="unknown domain"):
            validation_report.top_influencers(3, domain="Astrology")

    def test_system_path_raises_too(self, fig1_corpus, fig1_seed_words):
        from repro.errors import ReproError
        from repro.system import MassSystem

        system = MassSystem(domain_seed_words=fig1_seed_words)
        system.load_dataset(fig1_corpus)
        with pytest.raises(ReproError, match="k >= 1"):
            system.top_influencers(0)
        with pytest.raises(ReproError, match="unknown domain"):
            system.top_influencers(2, domain="Astrology")

    def test_valid_queries_unaffected(self, validation_report):
        assert len(validation_report.top_influencers(1)) == 1
        assert len(validation_report.top_influencers(2, "Computer")) == 2
