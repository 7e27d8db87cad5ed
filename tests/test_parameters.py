"""Unit tests for MassParameters validation and the contraction bound."""

import math

import pytest

from repro.core import DEFAULT_DOMAINS, MassParameters
from repro.errors import ParameterError
from repro.nlp import Sentiment

#: Fingerprints as written by earlier builds.  Snapshot epochs, saved
#: reports and checkpoints key on them, so a code change that moves
#: one strands every artifact written under it.
DEFAULT_FINGERPRINT = (
    "d16126ae6d253c5d5e04a53a07cd0cf1006416c04876daa66c248c59dec82718"
)
PINNED_FINGERPRINTS = [
    ({}, DEFAULT_FINGERPRINT),
    (
        {"solver_backend": "reference"},
        "3b4e8767206f409cd610438900051c61067068a13e40653f247960b3ccf9b453",
    ),
    (
        {"time_decay_kind": "exp", "time_decay_half_life_days": 30.0},
        "a9f2a5a1dd9368e9212d50dc8ad6dbf31dab8b808ec151fe4b2e0bb76882c021",
    ),
]


class TestDefaults:
    def test_paper_defaults(self):
        params = MassParameters()
        assert params.alpha == 0.5
        assert params.beta == 0.6
        assert params.sf_positive == 1.0
        assert params.sf_neutral == 0.5
        assert params.sf_negative == 0.1

    def test_ten_default_domains(self):
        assert len(DEFAULT_DOMAINS) == 10
        assert "Sports" in DEFAULT_DOMAINS and "Travel" in DEFAULT_DOMAINS

    def test_default_contraction(self):
        params = MassParameters()
        assert math.isclose(params.contraction_bound(), 0.2)
        assert params.is_contractive


class TestValidation:
    @pytest.mark.parametrize("alpha", [-0.1, 1.1])
    def test_alpha_range(self, alpha):
        with pytest.raises(ParameterError, match="alpha"):
            MassParameters(alpha=alpha)

    @pytest.mark.parametrize("beta", [-0.01, 2.0])
    def test_beta_range(self, beta):
        with pytest.raises(ParameterError, match="beta"):
            MassParameters(beta=beta)

    def test_negative_sf_rejected(self):
        with pytest.raises(ParameterError, match="sf_negative"):
            MassParameters(sf_negative=-0.1)

    @pytest.mark.parametrize("value", [0.0, 0.11, 0.5])
    def test_novelty_copied_paper_range(self, value):
        with pytest.raises(ParameterError, match="novelty_copied"):
            MassParameters(novelty_copied=value)

    def test_novelty_copied_boundary_ok(self):
        assert MassParameters(novelty_copied=0.1).novelty_copied == 0.1

    def test_bad_length_normalization(self):
        with pytest.raises(ParameterError, match="length_normalization"):
            MassParameters(length_normalization="huge")

    def test_bad_gl_method(self):
        with pytest.raises(ParameterError, match="gl_method"):
            MassParameters(gl_method="votes")

    def test_bad_gl_normalization(self):
        with pytest.raises(ParameterError, match="gl_normalization"):
            MassParameters(gl_normalization="median")

    def test_bad_solver_settings(self):
        with pytest.raises(ParameterError, match="tolerance"):
            MassParameters(tolerance=0.0)
        with pytest.raises(ParameterError, match="max_iterations"):
            MassParameters(max_iterations=0)
        with pytest.raises(ParameterError, match="pagerank_damping"):
            MassParameters(pagerank_damping=1.0)
        with pytest.raises(ParameterError, match="solver_backend"):
            MassParameters(solver_backend="parallel")


class TestSentimentFactor:
    def test_mapping(self):
        params = MassParameters()
        assert params.sentiment_factor(Sentiment.POSITIVE) == 1.0
        assert params.sentiment_factor(Sentiment.NEGATIVE) == 0.1
        assert params.sentiment_factor(Sentiment.NEUTRAL) == 0.5

    def test_sentiment_disabled_flattens_to_neutral(self):
        params = MassParameters(use_sentiment=False)
        for sentiment in Sentiment:
            assert params.sentiment_factor(sentiment) == 0.5

    def test_sf_max(self):
        assert MassParameters().sf_max == 1.0
        assert MassParameters(use_sentiment=False).sf_max == 0.5


class TestContraction:
    def test_bound_formula(self):
        params = MassParameters(alpha=0.8, beta=0.25)
        assert math.isclose(params.contraction_bound(), 0.8 * 0.75 * 1.0)

    def test_noncontractive_combination(self):
        params = MassParameters(alpha=1.0, beta=0.0)
        assert not params.is_contractive

    def test_citation_off_bound_is_inf(self):
        params = MassParameters(use_citation=False)
        assert params.contraction_bound() == float("inf")

    def test_with_overrides(self):
        params = MassParameters().with_overrides(alpha=0.9)
        assert params.alpha == 0.9
        assert params.beta == 0.6  # untouched
        with pytest.raises(ParameterError):
            MassParameters().with_overrides(alpha=3.0)


class TestFingerprint:
    def test_stable_across_construction_order(self):
        a = MassParameters(alpha=0.4, beta=0.7, gl_method="hits")
        b = MassParameters(gl_method="hits", beta=0.7, alpha=0.4)
        assert a.fingerprint() == b.fingerprint()

    def test_defaults_collide(self):
        assert MassParameters().fingerprint() == MassParameters().fingerprint()

    def test_every_changed_field_changes_the_fingerprint(self):
        base = MassParameters()
        changed = [
            base.with_overrides(alpha=0.4),
            base.with_overrides(beta=0.5),
            base.with_overrides(sf_positive=0.9),
            base.with_overrides(novelty_copied=0.01),
            base.with_overrides(gl_method="hits"),
            base.with_overrides(use_sentiment=False),
            base.with_overrides(solver_backend="reference"),
            base.with_overrides(max_iterations=100),
        ]
        fingerprints = {params.fingerprint() for params in changed}
        assert len(fingerprints) == len(changed)
        assert base.fingerprint() not in fingerprints

    def test_fingerprint_is_hex_sha256(self):
        fingerprint = MassParameters().fingerprint()
        assert len(fingerprint) == 64
        assert set(fingerprint) <= set("0123456789abcdef")

    def test_canonical_dict_sorted_and_complete(self):
        canonical = MassParameters().canonical_dict()
        assert list(canonical) == sorted(canonical)
        assert canonical["alpha"] == 0.5
        assert canonical["solver_backend"] == "auto"

    @pytest.mark.parametrize(
        "overrides, expected", PINNED_FINGERPRINTS,
        ids=["default", "reference", "exp-decay"],
    )
    def test_pinned_fingerprints(self, overrides, expected):
        assert MassParameters(**overrides).fingerprint() == expected

    def test_retired_knobs_stay_in_the_canonical_dict(self):
        """The retired worker/shard knobs hash at their only values."""
        canonical = MassParameters().canonical_dict()
        assert canonical["num_workers"] == 0
        assert canonical["shard_count"] == "auto"
        with pytest.raises(TypeError):
            MassParameters(num_workers=2)  # type: ignore[call-arg]
