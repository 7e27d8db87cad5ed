"""Snapshot compilation: batch equivalence, epochs, immutability."""

import json

import pytest

from repro.core import MassModel, MassParameters, top_k
from repro.errors import QueryError
from repro.serve import InfluenceSnapshot, compile_snapshot


@pytest.fixture(scope="module")
def fig1_report(fig1_corpus, fig1_seed_words):
    return MassModel(domain_seed_words=fig1_seed_words).fit(fig1_corpus)


@pytest.fixture(scope="module")
def fig1_snapshot(fig1_report):
    return InfluenceSnapshot.compile(fig1_report)


@pytest.fixture(scope="module")
def small_report(small_blogosphere):
    from repro.synth import DOMAIN_VOCABULARIES

    corpus, _ = small_blogosphere
    return MassModel(domain_seed_words=DOMAIN_VOCABULARIES).fit(corpus)


@pytest.fixture(scope="module")
def small_snapshot(small_report):
    return compile_snapshot(small_report)


class TestBatchEquivalence:
    """Every served query shape is byte-identical to the batch call."""

    @pytest.mark.parametrize("k", [1, 3, 9, 50])
    def test_general_top(self, small_snapshot, small_report, k):
        assert small_snapshot.top(k) == small_report.top_influencers(k)

    @pytest.mark.parametrize("k", [1, 5, 120])
    def test_domain_top(self, small_snapshot, small_report, k):
        for domain in small_snapshot.domains:
            assert (small_snapshot.top(k, domain=domain)
                    == small_report.top_influencers(k, domain))

    def test_pagination_is_a_slice_of_the_batch_ranking(
        self, small_snapshot, small_report
    ):
        for offset in (0, 1, 5, 40):
            assert (small_snapshot.top(4, offset=offset)
                    == small_report.top_influencers(offset + 4)[offset:])

    @pytest.mark.parametrize("weights", [
        {"Sports": 1.0},
        {"Sports": 0.7, "Art": 0.3},
        {"Travel": 0.2, "Computer": 0.5, "Politics": 0.3},
    ])
    def test_weighted_query_matches_eq5_batch(
        self, small_snapshot, small_report, weights
    ):
        canonical = dict(sorted(weights.items()))
        batch_scores = small_report.domain_influence.weighted_scores(canonical)
        assert small_snapshot.weighted_scores(weights) == batch_scores
        assert small_snapshot.query(weights, 7) == top_k(batch_scores, 7)

    def test_weight_order_does_not_matter(self, small_snapshot):
        forward = small_snapshot.query({"Sports": 0.7, "Art": 0.3}, 5)
        backward = small_snapshot.query({"Art": 0.3, "Sports": 0.7}, 5)
        assert forward == backward

    def test_profile_matches_blogger_detail(self, fig1_snapshot, fig1_report,
                                            small_snapshot, small_report):
        for snapshot, report in ((fig1_snapshot, fig1_report),
                                 (small_snapshot, small_report)):
            for blogger_id in snapshot.blogger_ids:
                detail = report.blogger_detail(blogger_id)
                expected = {
                    "blogger_id": detail.blogger_id,
                    "name": detail.name,
                    "influence": detail.influence,
                    "ap": detail.ap,
                    "gl": detail.gl,
                    "num_posts": detail.num_posts,
                    "num_comments_received": detail.num_comments_received,
                    "num_comments_written": detail.num_comments_written,
                    "domain_scores": dict(detail.domain_scores),
                    "top_posts": [list(pair) for pair in detail.top_posts],
                }
                # The whole dict, key order included, byte for byte.
                assert (json.dumps(snapshot.profile(blogger_id))
                        == json.dumps(expected))


class TestEpoch:
    def test_recompilation_is_stable(self, fig1_report):
        first = InfluenceSnapshot.compile(fig1_report)
        second = InfluenceSnapshot.compile(fig1_report)
        assert first.epoch == second.epoch

    def test_different_params_different_epoch(self, fig1_corpus,
                                              fig1_seed_words):
        base = MassModel(domain_seed_words=fig1_seed_words).fit(fig1_corpus)
        other = MassModel(
            params=MassParameters(alpha=0.8),
            domain_seed_words=fig1_seed_words,
        ).fit(fig1_corpus)
        assert (InfluenceSnapshot.compile(base).epoch
                != InfluenceSnapshot.compile(other).epoch)

    def test_different_corpus_different_epoch(self, fig1_snapshot,
                                              small_snapshot):
        assert fig1_snapshot.epoch != small_snapshot.epoch

    def test_epoch_carries_params_fingerprint(self, fig1_snapshot,
                                              fig1_report):
        assert (fig1_snapshot.params_fingerprint
                == fig1_report.params.fingerprint())


class TestValidation:
    @pytest.mark.parametrize("k", [0, -2])
    def test_bad_k(self, fig1_snapshot, k):
        with pytest.raises(QueryError, match="k must be >= 1"):
            fig1_snapshot.top(k)

    def test_bad_offset(self, fig1_snapshot):
        with pytest.raises(QueryError, match="offset"):
            fig1_snapshot.top(3, offset=-1)

    def test_unknown_domain(self, fig1_snapshot):
        with pytest.raises(QueryError, match="unknown domain"):
            fig1_snapshot.top(3, domain="Astrology")

    def test_unknown_blogger(self, fig1_snapshot):
        with pytest.raises(QueryError, match="unknown blogger"):
            fig1_snapshot.profile("nobody")

    def test_empty_weights(self, fig1_snapshot):
        with pytest.raises(QueryError, match="at least one domain"):
            fig1_snapshot.query({}, 3)

    def test_unknown_weight_domain(self, fig1_snapshot):
        with pytest.raises(QueryError, match="unknown domains"):
            fig1_snapshot.query({"Astrology": 1.0}, 3)

    @pytest.mark.parametrize("weight", [0.0, -1.0, float("nan"),
                                        float("inf")])
    def test_bad_weight_values(self, fig1_snapshot, weight):
        domain = fig1_snapshot.domains[0]
        with pytest.raises(QueryError):
            fig1_snapshot.query({domain: weight}, 3)


class TestImmutability:
    def test_profile_returns_a_defensive_copy(self, fig1_snapshot):
        blogger_id = fig1_snapshot.blogger_ids[0]
        profile = fig1_snapshot.profile(blogger_id)
        profile["domain_scores"].clear()
        profile["influence"] = -1.0
        fresh = fig1_snapshot.profile(blogger_id)
        assert fresh["domain_scores"]
        assert fresh["influence"] != -1.0

    def test_top_returns_a_fresh_list(self, fig1_snapshot):
        first = fig1_snapshot.top(3)
        first.append(("junk", 0.0))
        assert fig1_snapshot.top(3) != first

    def test_stats_is_a_copy(self, fig1_snapshot):
        stats = fig1_snapshot.stats()
        stats["bloggers"] = -1
        assert fig1_snapshot.stats()["bloggers"] != -1
