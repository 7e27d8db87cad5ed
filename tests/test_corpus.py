"""Unit tests for BlogCorpus indexing, validation and derived views."""

import pytest

from repro.data import Blogger, BlogCorpus, Comment, CorpusBuilder, Link, Post
from repro.errors import CorpusError


def build_basic() -> BlogCorpus:
    corpus = BlogCorpus()
    corpus.add_blogger(Blogger("a"))
    corpus.add_blogger(Blogger("b"))
    corpus.add_post(Post("p1", "a", body="hello"))
    corpus.add_comment(Comment("c1", "p1", "b", text="nice"))
    corpus.add_link(Link("b", "a"))
    return corpus


class TestConstruction:
    def test_duplicate_blogger_rejected(self):
        corpus = BlogCorpus()
        corpus.add_blogger(Blogger("a"))
        with pytest.raises(CorpusError, match="duplicate blogger"):
            corpus.add_blogger(Blogger("a"))

    def test_duplicate_post_rejected(self):
        corpus = build_basic()
        with pytest.raises(CorpusError, match="duplicate post"):
            corpus.add_post(Post("p1", "a"))

    def test_duplicate_comment_rejected(self):
        corpus = build_basic()
        with pytest.raises(CorpusError, match="duplicate comment"):
            corpus.add_comment(Comment("c1", "p1", "b"))

    def test_parallel_links_merge_weight(self):
        corpus = build_basic()
        corpus.add_link(Link("b", "a", 2.0))
        assert len(corpus.links) == 1
        assert corpus.links[0].weight == 3.0
        assert corpus.out_links("b")[0].weight == 3.0

    def test_merge_that_overflows_is_refused_and_changes_nothing(self):
        corpus = build_basic()
        corpus.add_link(Link("a", "b", 1e308))
        with pytest.raises(CorpusError, match="finite positive"):
            corpus.add_link(Link("a", "b", 1e308))
        assert [
            (link.source_id, link.target_id, link.weight)
            for link in corpus.links
        ] == [("b", "a", 1.0), ("a", "b", 1e308)]
        assert corpus.out_links("a")[0].weight == 1e308
        assert corpus.in_links("b")[0].weight == 1e308

    def test_extend_bulk_add(self):
        corpus = BlogCorpus()
        corpus.extend(
            bloggers=[Blogger("x"), Blogger("y")],
            posts=[Post("p", "x")],
            comments=[Comment("c", "p", "y")],
            links=[Link("y", "x")],
        )
        assert len(corpus) == 2
        assert corpus.total_comments_by("y") == 1


class TestValidation:
    def test_valid_corpus_passes(self):
        build_basic().validate()

    def test_post_with_unknown_author(self):
        corpus = BlogCorpus()
        corpus.add_blogger(Blogger("a"))
        corpus.add_post(Post("p1", "ghost"))
        with pytest.raises(CorpusError, match="unknown blogger 'ghost'"):
            corpus.validate()

    def test_comment_on_unknown_post(self):
        corpus = BlogCorpus()
        corpus.add_blogger(Blogger("a"))
        corpus.add_comment(Comment("c1", "nope", "a"))
        with pytest.raises(CorpusError, match="unknown post"):
            corpus.validate()

    def test_comment_by_unknown_blogger(self):
        corpus = BlogCorpus()
        corpus.add_blogger(Blogger("a"))
        corpus.add_post(Post("p1", "a"))
        corpus.add_comment(Comment("c1", "p1", "ghost"))
        with pytest.raises(CorpusError, match="unknown blogger"):
            corpus.validate()

    def test_link_to_unknown_blogger(self):
        corpus = BlogCorpus()
        corpus.add_blogger(Blogger("a"))
        corpus.add_link(Link("a", "ghost"))
        with pytest.raises(CorpusError, match="unknown blogger"):
            corpus.validate()

    def test_freeze_blocks_mutation(self):
        corpus = build_basic().freeze()
        assert corpus.frozen
        with pytest.raises(CorpusError, match="frozen"):
            corpus.add_blogger(Blogger("z"))
        with pytest.raises(CorpusError, match="frozen"):
            corpus.add_post(Post("p9", "a"))
        with pytest.raises(CorpusError, match="frozen"):
            corpus.add_comment(Comment("c9", "p1", "b"))
        with pytest.raises(CorpusError, match="frozen"):
            corpus.add_link(Link("a", "b"))


class TestLookups:
    def test_blogger_lookup(self):
        corpus = build_basic()
        assert corpus.blogger("a").blogger_id == "a"
        with pytest.raises(CorpusError, match="unknown blogger"):
            corpus.blogger("nope")

    def test_post_lookup(self):
        corpus = build_basic()
        assert corpus.post("p1").author_id == "a"
        with pytest.raises(CorpusError, match="unknown post"):
            corpus.post("nope")

    def test_post_author_id(self):
        corpus = build_basic()
        assert corpus.post_author_id("p1") == "a"
        with pytest.raises(CorpusError, match="unknown post 'nope'"):
            corpus.post_author_id("nope")

    def test_num_comments_on(self):
        corpus = build_basic()
        corpus.add_comment(Comment("c2", "p1", "a", text="thanks"))
        corpus.add_post(Post("p2", "b"))
        assert corpus.num_comments_on("p1") == 2
        assert corpus.num_comments_on("p2") == 0
        assert corpus.num_comments_on("nope") == 0

    def test_posts_by(self):
        corpus = build_basic()
        assert [p.post_id for p in corpus.posts_by("a")] == ["p1"]
        assert corpus.posts_by("b") == []
        assert corpus.posts_by("no-such") == []

    def test_comments_on_and_by(self):
        corpus = build_basic()
        assert [c.comment_id for c in corpus.comments_on("p1")] == ["c1"]
        assert [c.comment_id for c in corpus.comments_by("b")] == ["c1"]
        assert corpus.total_comments_by("b") == 1
        assert corpus.total_comments_by("a") == 0

    def test_in_out_links(self):
        corpus = build_basic()
        assert [l.target_id for l in corpus.out_links("b")] == ["a"]
        assert [l.source_id for l in corpus.in_links("a")] == ["b"]
        assert corpus.in_links("b") == []

    def test_iteration_sorted(self):
        corpus = BlogCorpus()
        for blogger_id in ["z", "a", "m"]:
            corpus.add_blogger(Blogger(blogger_id))
        assert [b.blogger_id for b in corpus] == ["a", "m", "z"]
        assert corpus.blogger_ids() == ["a", "m", "z"]

    def test_contains_and_len(self):
        corpus = build_basic()
        assert "a" in corpus
        assert "nope" not in corpus
        assert len(corpus) == 2

    def test_stats(self):
        stats = build_basic().stats()
        assert stats.num_bloggers == 2
        assert stats.num_posts == 1
        assert stats.num_comments == 1
        assert stats.num_links == 1
        assert stats.posts_per_blogger == 0.5


class TestSubset:
    def test_subset_keeps_internal_structure(self, fig1_corpus):
        sub = fig1_corpus.subset(["amery", "bob", "cary"])
        assert set(sub.blogger_ids()) == {"amery", "bob", "cary"}
        # Amery's posts survive; comments from bob/cary survive.
        assert len(sub.posts_by("amery")) == 2
        assert sub.total_comments_by("cary") == 2
        # Links among the subset survive; others are gone.
        assert len(sub.links) == 2

    def test_subset_drops_external_comments(self, fig1_corpus):
        sub = fig1_corpus.subset(["helen", "amery"])
        # Jane/Eddie commented on helen's post but are excluded.
        assert sub.comments_on("post3") == []

    def test_subset_unknown_blogger_rejected(self, fig1_corpus):
        with pytest.raises(CorpusError, match="unknown bloggers"):
            fig1_corpus.subset(["amery", "ghost"])

    def test_subset_is_validatable(self, fig1_corpus):
        fig1_corpus.subset(["amery", "bob"]).validate()


class TestBuilder:
    def test_builder_mints_sequential_ids(self):
        builder = CorpusBuilder()
        builder.blogger("a")
        post1 = builder.post("a")
        post2 = builder.post("a")
        assert post1.post_id != post2.post_id
        comment = builder.comment(post1.post_id, "a")
        assert comment.comment_id.startswith("comment-")

    def test_ensure_blogger_idempotent(self):
        builder = CorpusBuilder()
        builder.ensure_blogger("a").ensure_blogger("a")
        assert len(builder.build()) == 1

    def test_build_freezes_by_default(self):
        builder = CorpusBuilder()
        builder.blogger("a")
        assert builder.build().frozen

    def test_build_without_freeze(self):
        builder = CorpusBuilder()
        builder.blogger("a")
        corpus = builder.build(freeze=False)
        assert not corpus.frozen
        corpus.add_blogger(Blogger("b"))

    def test_build_validates(self):
        builder = CorpusBuilder()
        builder.blogger("a")
        builder.post("ghost")
        with pytest.raises(CorpusError):
            builder.build()
