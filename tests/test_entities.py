"""Unit tests for the entity value objects."""

import pytest

from repro.data import Blogger, Comment, Link, Post
from repro.errors import CorpusError


class TestBlogger:
    def test_name_defaults_to_id(self):
        assert Blogger("b1").name == "b1"

    def test_explicit_name_kept(self):
        assert Blogger("b1", name="Alice").name == "Alice"

    def test_empty_id_rejected(self):
        with pytest.raises(CorpusError):
            Blogger("")

    def test_non_string_id_rejected(self):
        with pytest.raises(CorpusError):
            Blogger(42)  # type: ignore[arg-type]

    def test_negative_joined_day_rejected(self):
        with pytest.raises(CorpusError):
            Blogger("b1", joined_day=-1)

    def test_bool_day_rejected(self):
        with pytest.raises(CorpusError):
            Blogger("b1", joined_day=True)

    def test_frozen(self):
        blogger = Blogger("b1")
        with pytest.raises(AttributeError):
            blogger.blogger_id = "b2"  # type: ignore[misc]

    def test_equality_by_value(self):
        assert Blogger("b1", name="A") == Blogger("b1", name="A")


class TestPost:
    def test_text_joins_title_and_body(self):
        post = Post("p1", "b1", title="Title", body="Body")
        assert post.text == "Title\nBody"

    def test_text_title_only(self):
        assert Post("p1", "b1", title="Just title").text == "Just title"

    def test_text_body_only(self):
        assert Post("p1", "b1", body="Just body").text == "Just body"

    def test_text_empty(self):
        assert Post("p1", "b1").text == ""

    def test_requires_ids(self):
        with pytest.raises(CorpusError):
            Post("", "b1")
        with pytest.raises(CorpusError):
            Post("p1", "")

    def test_negative_day_rejected(self):
        with pytest.raises(CorpusError):
            Post("p1", "b1", created_day=-3)


class TestComment:
    def test_valid(self):
        comment = Comment("c1", "p1", "b2", text="hi", created_day=4)
        assert comment.commenter_id == "b2"

    @pytest.mark.parametrize("field", ["comment_id", "post_id", "commenter_id"])
    def test_requires_ids(self, field):
        kwargs = {"comment_id": "c1", "post_id": "p1", "commenter_id": "b1"}
        kwargs[field] = ""
        with pytest.raises(CorpusError):
            Comment(**kwargs)


class TestLink:
    def test_valid(self):
        link = Link("a", "b")
        assert link.weight == 1.0

    def test_self_link_rejected(self):
        with pytest.raises(CorpusError):
            Link("a", "a")

    def test_zero_weight_rejected(self):
        with pytest.raises(CorpusError):
            Link("a", "b", 0.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(CorpusError):
            Link("a", "b", -1.0)

    @pytest.mark.parametrize(
        "weight",
        [float("nan"), float("inf"), float("-inf"), 10**400, "heavy"],
    )
    def test_non_finite_or_non_number_weight_rejected(self, weight):
        with pytest.raises(CorpusError, match="finite positive number"):
            Link("a", "b", weight)

    def test_int_weight_accepted(self):
        assert Link("a", "b", 2).weight == 2
