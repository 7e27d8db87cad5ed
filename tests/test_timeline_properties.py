"""Property-based tests for the temporal subsystem.

Three contracts, each over hypothesis-generated inputs:

1. **Inert decay is invisible** — ``half_life=inf`` (or
   ``kind="none"``) produces solutions *bit-identical* to the
   undecayed model on every backend, and the parameter fingerprint is
   unchanged, so pre-decay epochs and checkpoints stay valid.
2. **Decay is deterministic and monotone** — for a planted
   fresh-vs-stale citation pair, re-solving under the same half-life
   reproduces identical floats, every blogger's influence is
   non-decreasing in the half-life (weaker decay can only add
   non-negative mass), and the stale author loses strictly more than
   the fresh one once decay is active.
3. **as_of round-trips** — materializing any retained point of a
   durable history returns the exact epoch of the checkpoint the
   timestamp resolves to, for both the seq and wall-time axes.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CorpusDelta,
    IncrementalAnalyzer,
    InfluenceSolver,
    MassParameters,
)
from repro.data import BlogCorpus, Blogger, Comment, Link, Post
from repro.ingest import CheckpointManager, IngestConfig, IngestPipeline
from repro.nlp import NaiveBayesClassifier
from repro.serve import InfluenceSnapshot
from repro.synth import DOMAIN_VOCABULARIES

_WORDS = ["alpha", "bravo", "code", "stadium", "market", "paint", "agree",
          "great", "notes", "travel"]

_blogger_ids = [f"b{i}" for i in range(6)]

BACKENDS = ("reference", "sparse")


@st.composite
def corpora(draw) -> BlogCorpus:
    """Small random but always-valid corpora with spread-out days."""
    num_bloggers = draw(st.integers(2, 6))
    bloggers = _blogger_ids[:num_bloggers]
    corpus = BlogCorpus()
    for blogger_id in bloggers:
        corpus.add_blogger(Blogger(blogger_id))

    num_posts = draw(st.integers(1, 8))
    for index in range(num_posts):
        author = draw(st.sampled_from(bloggers))
        words = draw(st.lists(st.sampled_from(_WORDS), min_size=1,
                              max_size=30))
        corpus.add_post(
            Post(f"p{index}", author, body=" ".join(words),
                 created_day=draw(st.integers(0, 400)))
        )

    num_comments = draw(st.integers(0, 12))
    for index in range(num_comments):
        post_id = f"p{draw(st.integers(0, num_posts - 1))}"
        commenter = draw(st.sampled_from(bloggers))
        words = draw(st.lists(st.sampled_from(_WORDS), min_size=1,
                              max_size=8))
        corpus.add_comment(
            Comment(f"c{index}", post_id, commenter, text=" ".join(words),
                    created_day=draw(st.integers(0, 400)))
        )

    link_pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(bloggers), st.sampled_from(bloggers)),
            max_size=8,
        )
    )
    for source, target in link_pairs:
        if source != target:
            corpus.add_link(Link(source, target))
    return corpus.freeze()


# ----------------------------------------------------------------------
# 1. Inert decay is bit-identical to no decay
# ----------------------------------------------------------------------
class TestInertDecayIdentity:
    @settings(max_examples=25, deadline=None)
    @given(corpus=corpora(), backend=st.sampled_from(BACKENDS))
    def test_infinite_half_life_is_bit_identical(self, corpus, backend):
        base = MassParameters(solver_backend=backend)
        inert_exp = base.with_overrides(
            time_decay_kind="exp",
            time_decay_half_life_days=float("inf"),
        )
        inert_none = base.with_overrides(
            time_decay_kind="none",
            time_decay_half_life_days=30.0,
        )
        reference = InfluenceSolver(corpus, base).solve().influence
        for params in (inert_exp, inert_none):
            decayed = InfluenceSolver(corpus, params).solve().influence
            # Exact float equality, not approximate: inert decay must
            # not perturb a single ulp anywhere.
            assert decayed == reference

    @settings(max_examples=10, deadline=None)
    @given(half_life=st.floats(min_value=1.0, max_value=1e6))
    def test_inert_fingerprint_unchanged(self, half_life):
        """Inert decay fields never leak into the canonical dict."""
        base = MassParameters()
        assert base.with_overrides(
            time_decay_kind="none",
            time_decay_half_life_days=half_life,
        ).canonical_dict() == base.canonical_dict()
        assert base.with_overrides(
            time_decay_kind="exp",
            time_decay_half_life_days=float("inf"),
        ).canonical_dict() == base.canonical_dict()
        active = base.with_overrides(
            time_decay_kind="exp",
            time_decay_half_life_days=half_life,
        )
        assert active.canonical_dict() != base.canonical_dict()


# ----------------------------------------------------------------------
# 2. Active decay: deterministic, monotone, and fresh beats stale
# ----------------------------------------------------------------------
def _fresh_vs_stale_corpus() -> BlogCorpus:
    """Two identical authors except for *when* they were cited.

    ``stale`` wrote and was commented on at day 0; ``fresh`` at day
    360.  The comments are word-for-word identical, so any score gap
    between the two authors is purely the recency decay.
    """
    corpus = BlogCorpus()
    for blogger_id in ("stale", "fresh", "reader"):
        corpus.add_blogger(Blogger(blogger_id))
    body = "the stadium game and the marathon " * 2
    comment = "a great and agreeable match report"
    corpus.add_post(Post("p-stale", "stale", body=body, created_day=0))
    corpus.add_post(Post("p-fresh", "fresh", body=body, created_day=360))
    corpus.add_comment(Comment("c-stale", "p-stale", "reader",
                               text=comment, created_day=0))
    corpus.add_comment(Comment("c-fresh", "p-fresh", "reader",
                               text=comment, created_day=360))
    return corpus.freeze()


class TestActiveDecay:
    @settings(max_examples=20, deadline=None)
    @given(
        half_life=st.floats(min_value=5.0, max_value=2000.0),
        backend=st.sampled_from(BACKENDS),
    )
    def test_deterministic(self, half_life, backend):
        corpus = _fresh_vs_stale_corpus()
        params = MassParameters(
            solver_backend=backend,
            time_decay_kind="exp",
            time_decay_half_life_days=half_life,
        )
        first = InfluenceSolver(corpus, params).solve().influence
        second = InfluenceSolver(corpus, params).solve().influence
        assert first == second

    @settings(max_examples=20, deadline=None)
    @given(
        half_lives=st.lists(
            st.floats(min_value=5.0, max_value=2000.0),
            min_size=2, max_size=4, unique=True,
        ),
    )
    def test_monotone_in_half_life(self, half_lives):
        """Weaker decay (longer half-life) never lowers any score.

        Every decayed matrix/constant entry is non-negative here (the
        planted comments carry positive sentiment) and non-decreasing
        in the half-life, so the Neumann-series fixed point is
        component-wise monotone.
        """
        corpus = _fresh_vs_stale_corpus()
        solutions = []
        for half_life in sorted(half_lives):
            params = MassParameters(
                time_decay_kind="exp",
                time_decay_half_life_days=half_life,
            )
            solutions.append(
                InfluenceSolver(corpus, params).solve().influence
            )
        for shorter, longer in zip(solutions, solutions[1:]):
            for blogger_id, score in shorter.items():
                assert score <= longer[blogger_id] + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(half_life=st.floats(min_value=5.0, max_value=2000.0))
    def test_fresh_citation_outscores_stale(self, half_life):
        corpus = _fresh_vs_stale_corpus()
        undecayed = InfluenceSolver(
            corpus, MassParameters()
        ).solve().influence
        # Symmetric by construction: without decay the two authors tie.
        assert undecayed["fresh"] == pytest.approx(undecayed["stale"])
        decayed = InfluenceSolver(corpus, MassParameters(
            time_decay_kind="exp",
            time_decay_half_life_days=half_life,
        )).solve().influence
        assert decayed["fresh"] > decayed["stale"]

    def test_decay_factor_bounds(self):
        params = MassParameters(
            time_decay_kind="exp", time_decay_half_life_days=30.0
        )
        assert params.decay_factor(0) == 1.0
        assert params.decay_factor(-5) == 1.0
        assert params.decay_factor(30) == pytest.approx(0.5)
        assert 0.0 < params.decay_factor(3000) < 1.0e-20


# ----------------------------------------------------------------------
# 3. as_of round-trips epoch-identical
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def retained_run(tmp_path_factory, fig1_corpus):
    """Durable history under keep-all with the epoch at every seq."""
    root = tmp_path_factory.mktemp("timeline-props")
    anchor = fig1_corpus.blogger_ids()[0]
    classifier = NaiveBayesClassifier.from_seed_vocabulary(
        DOMAIN_VOCABULARIES
    )
    pipeline = IngestPipeline(
        root, IncrementalAnalyzer(classifier),
        IngestConfig(checkpoint_interval=1, retention="all"),
    )
    epochs = {}
    report = pipeline.open(fig1_corpus)
    pipeline.wait_recovery_checkpoint()
    epochs[0] = InfluenceSnapshot.compile(report).epoch
    for seq in range(1, 5):
        report = pipeline.apply(CorpusDelta(
            bloggers=(Blogger(f"prop-{seq}", joined_day=seq),),
            posts=(Post(f"prop-p-{seq}", f"prop-{seq}",
                        title=f"report {seq}",
                        body="the stadium game and the marathon " * 2,
                        created_day=10 * seq),),
            comments=(),
            links=(Link(f"prop-{seq}", anchor, 0.5),),
        ))
        epochs[seq] = InfluenceSnapshot.compile(report).epoch
    pipeline.close()
    return root, epochs


def _as_of(manager, **point):
    """Load the checkpoint ``point`` resolves to; returns (seq, epoch)."""
    checkpoint = manager.load_at(manager.resolve(**point).path)
    try:
        return checkpoint.seq, InfluenceSnapshot.compile(
            checkpoint.report
        ).epoch
    finally:
        checkpoint.close()


def _span(manager):
    entries = manager.manifest()
    return entries[0].wall_time, entries[-1].wall_time


class TestAsOfRoundTrip:
    @settings(max_examples=15, deadline=None)
    @given(seq=st.integers(min_value=0, max_value=4))
    def test_seq_round_trip(self, retained_run, seq):
        root, epochs = retained_run
        manager = CheckpointManager(root / "checkpoints")
        assert _as_of(manager, seq=seq) == (seq, epochs[seq])

    @settings(max_examples=15, deadline=None)
    @given(fraction=st.floats(min_value=0.0, max_value=1.0))
    def test_timestamp_round_trip(self, retained_run, fraction):
        """Any instant inside the span loads exactly what resolve says."""
        root, epochs = retained_run
        manager = CheckpointManager(root / "checkpoints")
        oldest, newest = _span(manager)
        instant = oldest + fraction * (newest - oldest)
        entry = manager.resolve(timestamp=instant)
        assert entry.wall_time <= instant
        assert _as_of(manager, timestamp=instant) \
            == (entry.seq, epochs[entry.seq])

    def test_before_span_never_silently_clamps(self, retained_run):
        root, _ = retained_run
        manager = CheckpointManager(root / "checkpoints")
        oldest, _ = _span(manager)
        from repro.errors import TimelineError

        with pytest.raises(TimelineError):
            manager.resolve(timestamp=math.nextafter(oldest, -math.inf)
                            - 1.0)
