"""Property suite for the warm apply path.

Drives a randomized delta stream through an
:class:`~repro.core.incremental.IncrementalAnalyzer` and, after every
apply, holds the incremental machinery to the from-scratch ground
truth:

1. the rankings (general and per-domain) equal a full re-rank of the
   same score maps, tie-breaks included;
2. the warm scores match a cold fit of the grown corpus within the
   1e-9 equivalence bound.

The stream mixes content-only deltas (posts/comments on existing
bloggers, which reuse the cached GL vector) with GL-moving ones (new
bloggers, links).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CorpusDelta, IncrementalAnalyzer
from repro.core.incremental import _copy_corpus
from repro.core.topk import full_ranking, top_k
from repro.data import Blogger, Comment, Link, Post
from repro.nlp import NaiveBayesClassifier
from repro.synth import DOMAIN_VOCABULARIES, BlogosphereConfig, generate_blogosphere

BODIES = [
    "the marathon stadium game was thrilling " * 3,
    "roses and tulips in the spring garden " * 3,
    "a new painting at the gallery opening " * 3,
    "the processor benchmark and compiler news " * 3,
]
COMMENTS = [
    "I agree, a wonderful read",
    "this is wrong and boring",
    "fascinating, thank you for writing it",
]

# Each op is (kind, author_pick, target_pick, text_pick).
op_strategy = st.tuples(
    st.sampled_from(["post", "comment", "comment", "post",
                     "newcomer", "link"]),
    st.integers(0, 10 ** 6),
    st.integers(0, 10 ** 6),
    st.integers(0, 10 ** 6),
)


@pytest.fixture(scope="module")
def base_state():
    corpus, _ = generate_blogosphere(
        BlogosphereConfig(num_bloggers=40, posts_per_blogger=3), seed=11
    )
    classifier = NaiveBayesClassifier.from_seed_vocabulary(
        DOMAIN_VOCABULARIES
    )
    return corpus, classifier


def build_delta(ops, bloggers, post_ids, seq):
    """Materialize drawn ops into one valid :class:`CorpusDelta`."""
    new_bloggers, new_posts, new_comments, new_links = [], [], [], []
    known_bloggers = list(bloggers)
    known_posts = list(post_ids)
    for n, (kind, author_pick, target_pick, text_pick) in enumerate(ops):
        uid = f"{seq:03d}-{n:02d}"
        if kind == "newcomer":
            blogger_id = f"prop-blogger-{uid}"
            new_bloggers.append(Blogger(blogger_id))
            known_bloggers.append(blogger_id)
        elif kind == "post":
            author = known_bloggers[author_pick % len(known_bloggers)]
            post = Post(f"prop-post-{uid}", author,
                        body=BODIES[text_pick % len(BODIES)],
                        created_day=500 + seq)
            new_posts.append(post)
            known_posts.append(post.post_id)
        elif kind == "comment":
            post_id = known_posts[target_pick % len(known_posts)]
            commenter = known_bloggers[author_pick % len(known_bloggers)]
            new_comments.append(Comment(
                f"prop-comment-{uid}", post_id, commenter,
                text=COMMENTS[text_pick % len(COMMENTS)],
                created_day=501 + seq,
            ))
        else:  # link
            source = known_bloggers[author_pick % len(known_bloggers)]
            target = known_bloggers[target_pick % len(known_bloggers)]
            if source != target:
                new_links.append(Link(source, target))
    return CorpusDelta(bloggers=new_bloggers, posts=new_posts,
                       comments=new_comments, links=new_links)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.lists(op_strategy, min_size=1, max_size=4),
                min_size=1, max_size=3))
def test_warm_apply_equals_cold_at_every_step(base_state, deltas_ops):
    corpus, classifier = base_state
    analyzer = IncrementalAnalyzer(classifier)
    analyzer.fit(_copy_corpus(corpus))

    for seq, ops in enumerate(deltas_ops):
        delta = build_delta(
            ops,
            sorted(analyzer._corpus.blogger_ids()),
            sorted(analyzer._corpus.posts),
            seq,
        )
        if delta.is_empty():
            continue
        report = analyzer.apply(delta)

        # (1) rankings == full re-rank, tie-breaks included.
        influence = report.scores.influence
        assert report.ranking() == full_ranking(influence)
        assert report.top_influencers(5) == top_k(influence, 5)
        for domain in report.domains:
            assert report.ranking(domain) == full_ranking(
                report.domain_influence.domain_scores(domain)
            )

        # (2) warm scores equal a cold fit within the 1e-9 harness.
        cold = IncrementalAnalyzer(classifier).fit(
            _copy_corpus(analyzer._corpus)
        )
        for blogger_id, value in cold.scores.influence.items():
            assert influence[blogger_id] == pytest.approx(value, abs=1e-9)
