"""Unit tests for the corpus → CSR compilation layer.

Covers the flat-array invariants of :class:`CompiledSystem`, the
constant-term formula, the citation ablation folding, and the
:class:`AssemblyCache` dirty-row refresh semantics the incremental
analyzer relies on.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AssemblyCache, CommentModel, MassParameters, compile_system
from repro.core.quality import QualityScorer
from repro.core.solver import compute_gl_scores
from repro.data import Blogger, Comment, CorpusBuilder, Post
from repro.synth import BlogosphereConfig, generate_blogosphere


def quality_scores(corpus, params):
    scorer = QualityScorer(params, posts=corpus.posts.values())
    return {
        post_id: scorer.score(corpus.post(post_id))
        for post_id in sorted(corpus.posts)
    }


def compiled_for(corpus, params=None):
    params = params or MassParameters()
    comment_model = CommentModel(corpus, params)
    quality = quality_scores(corpus, params)
    gl = compute_gl_scores(corpus, params)
    return compile_system(corpus, params, comment_model, quality, gl), (
        params, comment_model, quality, gl
    )


class TestCompiledSystem:
    def test_csr_shape_invariants(self, fig1_corpus):
        compiled, _ = compiled_for(fig1_corpus)
        n = compiled.num_bloggers
        assert n == len(fig1_corpus.bloggers)
        assert len(compiled.row_ptr) == n + 1
        assert compiled.row_ptr[0] == 0
        assert compiled.row_ptr[-1] == compiled.nnz
        assert len(compiled.col_idx) == compiled.nnz
        assert list(compiled.row_ptr) == sorted(compiled.row_ptr)
        assert all(0 <= col < n for col in compiled.col_idx)
        assert len(compiled.post_ids) == len(fig1_corpus.posts)
        assert len(compiled.post_row_ptr) == len(compiled.post_ids) + 1

    def test_index_inverts_row_order(self, fig1_corpus):
        compiled, _ = compiled_for(fig1_corpus)
        for row, blogger_id in enumerate(compiled.blogger_ids):
            assert compiled.index[blogger_id] == row

    def test_rows_match_comment_model(self, fig1_corpus):
        compiled, (params, comment_model, _, _) = compiled_for(fig1_corpus)
        for blogger_id in compiled.blogger_ids:
            expected = []
            for post in sorted(
                fig1_corpus.posts_by(blogger_id), key=lambda p: p.post_id
            ):
                for term in comment_model.terms_for(post.post_id):
                    expected.append(
                        (term.commenter_id, term.citation_weight)
                    )
            actual = compiled.row_terms(blogger_id)
            assert [c for c, _ in actual] == [c for c, _ in expected]
            for (_, got), (_, want) in zip(actual, expected):
                assert got == pytest.approx(want, abs=1e-15)

    def test_constant_term_formula(self, fig1_corpus):
        compiled, (params, _, quality, gl) = compiled_for(fig1_corpus)
        for row, blogger_id in enumerate(compiled.blogger_ids):
            quality_sum = sum(
                quality[post.post_id]
                for post in fig1_corpus.posts_by(blogger_id)
            )
            expected = (
                params.alpha * params.beta * quality_sum
                + (1.0 - params.alpha) * gl.get(blogger_id, 0.0)
            )
            assert compiled.constant[row] == pytest.approx(
                expected, abs=1e-12
            )

    def test_citation_off_folds_into_constant(self, fig1_corpus):
        params = MassParameters(use_citation=False)
        compiled, (_, comment_model, _, _) = compiled_for(
            fig1_corpus, params
        )
        # The comment matrix vanishes: CommentScore is influence-free.
        assert compiled.nnz == 0
        # But the SF sums survive as the scatter-stage closed form.
        for k, post_id in enumerate(compiled.post_ids):
            assert compiled.post_sf_sum[k] == pytest.approx(
                sum(t.sf for t in comment_model.terms_for(post_id)),
                abs=1e-12,
            )

    def test_coupling_scalar(self, fig1_corpus):
        params = MassParameters(alpha=0.7, beta=0.4)
        compiled, _ = compiled_for(fig1_corpus, params)
        assert compiled.coupling == pytest.approx(0.7 * 0.6)


def grown_copy(corpus, *, bloggers=(), posts=(), comments=(), links=()):
    grown = corpus.subset(corpus.blogger_ids())
    grown.extend(bloggers=bloggers, posts=posts, comments=comments,
                 links=links)
    return grown.freeze()


class TestAssemblyCache:
    def build_corpus(self):
        builder = CorpusBuilder()
        for name in ("ann", "ben", "cat", "dan"):
            builder.blogger(name)
        p1 = builder.post("ann", body="gardens and roses bloom " * 6)
        p2 = builder.post("ben", body="stadium games and scores " * 4)
        p3 = builder.post("cat", body="markets rise and fall " * 5)
        builder.comment(p1.post_id, "ben", text="I agree, wonderful")
        builder.comment(p1.post_id, "cat", text="boring and wrong")
        builder.comment(p2.post_id, "dan", text="great match report")
        builder.link("ben", "ann").link("cat", "ann").link("dan", "ben")
        return builder.build().freeze(), (p1, p2, p3)

    def compile_with(self, cache, corpus, params=None):
        params = params or MassParameters()
        comment_model = CommentModel(
            corpus, params, sentiment_cache=cache.sentiment_cache
        )
        quality = quality_scores(corpus, params)
        gl = compute_gl_scores(corpus, params)
        return cache.compile(corpus, params, comment_model, quality, gl)

    def test_first_compile_is_cold(self):
        corpus, _ = self.build_corpus()
        cache = AssemblyCache()
        compiled = self.compile_with(cache, corpus)
        assert cache.last_mode == "cold"
        assert cache.last_dirty_rows == compiled.num_bloggers

    def test_refresh_matches_cold_compile(self):
        from repro.data import Comment

        corpus, (p1, _, _) = self.build_corpus()
        cache = AssemblyCache()
        self.compile_with(cache, corpus)

        new_comment = Comment("c-new", p1.post_id, "dan",
                              text="excellent, I support this")
        grown = grown_copy(corpus, comments=[new_comment])
        cache.note_delta(comments=[(p1.post_id, "dan")])
        refreshed = self.compile_with(cache, grown)
        assert cache.last_mode == "refresh"
        assert cache.last_dirty_rows < refreshed.num_bloggers

        cold, _ = compiled_for(grown)
        assert refreshed.blogger_ids == cold.blogger_ids
        assert list(refreshed.row_ptr) == list(cold.row_ptr)
        assert list(refreshed.col_idx) == list(cold.col_idx)
        assert list(refreshed.weights) == pytest.approx(
            list(cold.weights), abs=1e-15
        )
        assert list(refreshed.constant) == pytest.approx(
            list(cold.constant), abs=1e-15
        )
        assert list(refreshed.post_weights) == pytest.approx(
            list(cold.post_weights), abs=1e-15
        )

    def test_tc_change_dirties_other_rows(self):
        from repro.data import Comment

        corpus, (p1, p2, p3) = self.build_corpus()
        cache = AssemblyCache()
        self.compile_with(cache, corpus)

        # ben already comments on ann's p1; a new ben comment on cat's
        # p3 changes TC(ben), so ann's row weights are stale too.
        new_comment = Comment("c-tc", p3.post_id, "ben",
                              text="interesting analysis")
        grown = grown_copy(corpus, comments=[new_comment])
        cache.note_delta(comments=[(p3.post_id, "ben")])
        refreshed = self.compile_with(cache, grown)
        assert cache.last_mode == "refresh"

        cold, _ = compiled_for(grown)
        assert list(refreshed.weights) == pytest.approx(
            list(cold.weights), abs=1e-15
        )

    def test_new_blogger_appends_rows(self):
        from repro.data import Blogger, Comment, Post

        corpus, _ = self.build_corpus()
        cache = AssemblyCache()
        old = self.compile_with(cache, corpus)

        post = Post("p-new", "eve", body="travel diary from the coast " * 3)
        comment = Comment("c-eve", post.post_id, "ann",
                          text="I agree, lovely trip")
        grown = grown_copy(
            corpus, bloggers=[Blogger("eve")], posts=[post],
            comments=[comment],
        )
        cache.note_delta(
            bloggers=["eve"], posts=["p-new"],
            comments=[(post.post_id, "ann")],
        )
        refreshed = self.compile_with(cache, grown)
        assert cache.last_mode == "refresh"
        # Old rows keep their positions; the new blogger is appended.
        assert refreshed.blogger_ids[: old.num_bloggers] == old.blogger_ids
        assert refreshed.blogger_ids[-1] == "eve"

    def test_param_change_forces_cold(self):
        corpus, _ = self.build_corpus()
        cache = AssemblyCache()
        self.compile_with(cache, corpus)
        self.compile_with(cache, corpus, MassParameters(alpha=0.7))
        assert cache.last_mode == "cold"

    def test_invalidate_forces_cold(self):
        corpus, _ = self.build_corpus()
        cache = AssemblyCache()
        self.compile_with(cache, corpus)
        cache.invalidate()
        self.compile_with(cache, corpus)
        assert cache.last_mode == "cold"

    def test_unrecorded_growth_forces_cold(self):
        from repro.data import Comment

        corpus, (p1, _, _) = self.build_corpus()
        cache = AssemblyCache()
        self.compile_with(cache, corpus)
        # Grow the corpus without note_delta: the shape guard trips.
        grown = grown_copy(
            corpus,
            comments=[Comment("c-x", p1.post_id, "dan", text="nice")],
        )
        self.compile_with(cache, grown)
        assert cache.last_mode == "cold"

    def test_sentiment_cache_reused(self):
        corpus, _ = self.build_corpus()
        cache = AssemblyCache()
        self.compile_with(cache, corpus)
        cached = dict(cache.sentiment_cache)
        assert cached  # every comment classified once
        self.compile_with(cache, corpus)
        assert cache.sentiment_cache == cached


# ----------------------------------------------------------------------
# The dirty-row refresh is a splice of the previous compilation: it must
# equal a cold compile of the grown corpus field for field, bit for bit.
# ----------------------------------------------------------------------

def canonical(compiled):
    """A compiled system keyed by ids, independent of its row order."""
    ids = compiled.blogger_ids

    def terms(row_ptr, col_idx, weights, k):
        return [(ids[col_idx[e]], weights[e])
                for e in range(row_ptr[k], row_ptr[k + 1])]

    rows = {
        blogger_id: (
            compiled.constant[row], compiled.gl[row],
            terms(compiled.row_ptr, compiled.col_idx, compiled.weights, row),
        )
        for row, blogger_id in enumerate(ids)
    }
    posts = [
        (post_id, ids[compiled.post_author[k]], compiled.post_quality[k],
         compiled.post_sf_sum[k],
         terms(compiled.post_row_ptr, compiled.post_col_idx,
               compiled.post_weights, k))
        for k, post_id in enumerate(compiled.post_ids)
    ]
    return rows, posts


# New post ids sort before, between and after the generated
# "post-0000001".."post-0000080" ids, so splices land everywhere.
POST_PREFIXES = ("a-post", "post-0000040x", "post-9", "zz-post")

splice_op = st.tuples(
    st.sampled_from(["post", "comment", "comment", "self-comment",
                     "newcomer"]),
    st.integers(0, 10 ** 6),
    st.integers(0, 10 ** 6),
    st.sampled_from(POST_PREFIXES),
)


def splice_base():
    corpus, _ = generate_blogosphere(
        BlogosphereConfig(num_bloggers=40, posts_per_blogger=2), seed=3
    )
    return corpus.subset(corpus.blogger_ids())


def grow(corpus, ops, step):
    """Extend ``corpus`` in place by the drawn ops; returns the noted ids."""
    bloggers, posts, comments = [], [], []
    for n, (kind, pick, target, prefix) in enumerate(ops):
        uid = f"{step}-{n}"
        blogger_ids = corpus.blogger_ids()
        author = blogger_ids[pick % len(blogger_ids)]
        if kind == "newcomer":
            blogger = Blogger(f"new-blogger-{uid}")
            corpus.add_blogger(blogger)
            bloggers.append(blogger.blogger_id)
        elif kind == "post":
            post = Post(f"{prefix}-{uid}", author,
                        body="stadium games and record crowds " * 3)
            corpus.add_post(post)
            posts.append(post.post_id)
        else:
            post_ids = sorted(corpus.posts)
            post_id = post_ids[target % len(post_ids)]
            if kind == "self-comment":
                author = corpus.post(post_id).author_id
            corpus.add_comment(Comment(f"new-comment-{uid}", post_id, author,
                                       text="I agree, excellent points"))
            comments.append((post_id, author))
    return bloggers, posts, comments


@pytest.mark.parametrize("params", [
    MassParameters(),
    MassParameters(use_citation=False),
    MassParameters(include_self_comments=True),
], ids=["default", "citation-off", "self-comments"])
@settings(max_examples=12, deadline=None)
@given(st.lists(st.lists(splice_op, min_size=1, max_size=5),
                min_size=1, max_size=4))
def test_refresh_equals_cold_compile_bit_for_bit(params, deltas):
    corpus = splice_base()
    cache = AssemblyCache()
    cache.compile(corpus, params, CommentModel(corpus, params),
                  quality_scores(corpus, params),
                  compute_gl_scores(corpus, params))
    for step, ops in enumerate(deltas):
        bloggers, posts, comments = grow(corpus, ops, step)
        cache.note_delta(bloggers=bloggers, posts=posts, comments=comments)
        quality = quality_scores(corpus, params)
        gl = compute_gl_scores(corpus, params)
        refreshed = cache.compile(
            corpus, params,
            CommentModel(corpus, params,
                         sentiment_cache=cache.sentiment_cache),
            quality, gl,
        )
        assert cache.last_mode == "refresh"
        cold = compile_system(corpus, params, CommentModel(corpus, params),
                              quality, gl)
        assert canonical(refreshed) == canonical(cold)
        assert len(refreshed.weights) == len(cold.weights)
        # Old rows keep their positions; new bloggers are appended.
        assert refreshed.index == {
            blogger_id: row
            for row, blogger_id in enumerate(refreshed.blogger_ids)
        }
