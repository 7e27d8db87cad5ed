"""Property-based tests for the columnar store.

Two families of invariants:

- **Round trips**: any valid corpus serialized through
  :func:`repro.store.write_corpus` and reopened as a
  :class:`~repro.store.ColumnarCorpus` answers the entire corpus read
  protocol identically — same ids, same field values, same grouped
  lookups, same iteration orders.  Writing is deterministic (same
  corpus → byte-identical file) and closed under round-tripping (a
  reopened view serializes back to the exact same bytes).

- **Corruption**: any truncation of a sealed ``.mcol`` file loses the
  footer and is rejected at open; any flipped byte inside a recorded
  section fails its CRC under ``verify=True``.  Both raise
  :class:`~repro.errors.StoreFormatError`, never garbage reads.
"""

from __future__ import annotations

import json
import struct
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import BlogCorpus, Blogger, Comment, Link, Post
from repro.errors import CorpusError, StoreFormatError
from repro.store import ColumnarCorpus, StoreReader, write_corpus
from repro.store.format import FOOTER_MAGIC, MAGIC

# ----------------------------------------------------------------------
# Corpus strategy
# ----------------------------------------------------------------------

# Excludes surrogates (not encodable to UTF-8); everything else must
# survive the string pools byte for byte.
_TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=16
)


@st.composite
def corpora(draw) -> BlogCorpus:
    """Small random but always-valid corpora with unicode text."""
    num_bloggers = draw(st.integers(1, 5))
    bloggers = [f"b{i:02d}" for i in range(num_bloggers)]
    corpus = BlogCorpus()
    for blogger_id in bloggers:
        corpus.add_blogger(Blogger(
            blogger_id,
            name=draw(_TEXT),
            profile_text=draw(_TEXT),
            joined_day=draw(st.integers(0, 40)),
        ))

    post_ids = [f"p{i:02d}" for i in range(draw(st.integers(0, 6)))]
    for post_id in post_ids:
        corpus.add_post(Post(
            post_id,
            draw(st.sampled_from(bloggers)),
            title=draw(_TEXT),
            body=draw(_TEXT),
            created_day=draw(st.integers(0, 100)),
        ))

    if post_ids:
        for index in range(draw(st.integers(0, 8))):
            corpus.add_comment(Comment(
                f"c{index:02d}",
                draw(st.sampled_from(post_ids)),
                draw(st.sampled_from(bloggers)),
                text=draw(_TEXT),
                created_day=draw(st.integers(0, 100)),
            ))

    if num_bloggers > 1:
        for _ in range(draw(st.integers(0, 6))):
            source = draw(st.sampled_from(bloggers))
            target = draw(st.sampled_from(
                [blogger for blogger in bloggers if blogger != source]
            ))
            weight = draw(st.floats(
                min_value=0.125, max_value=8.0,
                allow_nan=False, allow_infinity=False,
            ))
            # Parallel links merge additively on both planes.
            corpus.add_link(Link(source, target, weight))
    return corpus


def _assert_equivalent(corpus: BlogCorpus, view: ColumnarCorpus) -> None:
    """The columnar view answers every protocol read like the source."""
    assert view.blogger_ids() == corpus.blogger_ids()
    assert len(view) == len(corpus.bloggers)
    assert list(view.bloggers) == sorted(corpus.bloggers)
    assert list(view.posts) == sorted(corpus.posts)
    assert list(view.comments) == sorted(corpus.comments)

    for blogger_id in corpus.blogger_ids():
        mine = corpus.blogger(blogger_id)
        theirs = view.blogger(blogger_id)
        assert blogger_id in view
        assert (theirs.name, theirs.profile_text, theirs.joined_day) == (
            mine.name, mine.profile_text, mine.joined_day
        )
        assert [post.post_id for post in view.posts_by(blogger_id)] == \
            [post.post_id for post in corpus.posts_by(blogger_id)]
        assert [c.comment_id for c in view.comments_by(blogger_id)] == \
            [c.comment_id for c in corpus.comments_by(blogger_id)]
        assert view.total_comments_by(blogger_id) == \
            corpus.total_comments_by(blogger_id)
        assert [
            (link.source_id, link.target_id, link.weight)
            for link in view.out_links(blogger_id)
        ] == [
            (link.source_id, link.target_id, link.weight)
            for link in corpus.out_links(blogger_id)
        ]
        assert [
            (link.source_id, link.target_id, link.weight)
            for link in view.in_links(blogger_id)
        ] == [
            (link.source_id, link.target_id, link.weight)
            for link in corpus.in_links(blogger_id)
        ]

    for post_id in corpus.posts:
        mine = corpus.post(post_id)
        theirs = view.post(post_id)
        assert (
            theirs.author_id, theirs.title, theirs.body,
            theirs.created_day, theirs.text,
        ) == (
            mine.author_id, mine.title, mine.body,
            mine.created_day, mine.text,
        )
        assert view.post_author_id(post_id) == \
            corpus.post_author_id(post_id) == mine.author_id
        assert [c.comment_id for c in view.comments_on(post_id)] == \
            [c.comment_id for c in corpus.comments_on(post_id)]
        assert view.num_comments_on(post_id) == \
            corpus.num_comments_on(post_id) == \
            len(corpus.comments_on(post_id))

    for plane in (corpus, view):
        with pytest.raises(CorpusError, match="unknown post"):
            plane.post_author_id("no-such-post")
        assert plane.num_comments_on("no-such-post") == 0

    for comment_id in corpus.comments:
        mine = corpus.comments[comment_id]
        theirs = view.comments[comment_id]
        assert (
            theirs.post_id, theirs.commenter_id, theirs.text,
            theirs.created_day,
        ) == (
            mine.post_id, mine.commenter_id, mine.text, mine.created_day
        )

    assert [
        (link.source_id, link.target_id, link.weight)
        for link in view.links
    ] == [
        (link.source_id, link.target_id, link.weight)
        for link in corpus.links
    ]

    mine_stats, theirs_stats = corpus.stats(), view.stats()
    for field in ("num_bloggers", "num_posts", "num_comments", "num_links"):
        assert getattr(theirs_stats, field) == getattr(mine_stats, field)


class TestRoundTrip:
    @given(corpus=corpora())
    @settings(max_examples=40, deadline=None)
    def test_protocol_reads_are_identical(self, corpus):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_corpus(corpus, Path(tmp) / "corpus.mcol")
            with ColumnarCorpus.open(path) as view:
                assert view.frozen
                assert view.freeze() is view
                view.validate()
                _assert_equivalent(corpus, view)

    @given(corpus=corpora())
    @settings(max_examples=20, deadline=None)
    def test_write_is_deterministic_and_closed_under_round_trips(
        self, corpus
    ):
        with tempfile.TemporaryDirectory() as tmp:
            first = write_corpus(corpus, Path(tmp) / "a.mcol")
            second = write_corpus(corpus, Path(tmp) / "b.mcol")
            blob = first.read_bytes()
            assert second.read_bytes() == blob
            # A reopened view feeds the builder exactly what the
            # original corpus did: generation two is byte-identical.
            with ColumnarCorpus.open(first) as view:
                third = write_corpus(view, Path(tmp) / "c.mcol")
                assert third.read_bytes() == blob


def _ordered_reads(corpus) -> dict[str, list]:
    """Every order-bearing read, entities as field tuples.

    Link and comment order feed the GL solve and the CSR rows, so a
    copy that reorders either would change the analysis bits.
    """
    ids = corpus.blogger_ids()
    post_ids = list(corpus.posts)

    def post(p):
        return (p.post_id, p.author_id, p.title, p.body, p.created_day)

    def comment(c):
        return (c.comment_id, c.post_id, c.commenter_id, c.text,
                c.created_day)

    def link(li):
        return (li.source_id, li.target_id, li.weight)

    return {
        "blogger_ids": [
            (b, corpus.blogger(b).name, corpus.blogger(b).profile_text,
             corpus.blogger(b).joined_day)
            for b in ids
        ],
        "posts": [post(corpus.post(p)) for p in post_ids],
        "comments": [comment(corpus.comments[c]) for c in corpus.comments],
        "links": [link(li) for li in corpus.links],
        "posts_by": [[post(p) for p in corpus.posts_by(b)] for b in ids],
        "comments_on": [
            [comment(c) for c in corpus.comments_on(p)] for p in post_ids
        ],
        "comments_by": [
            [comment(c) for c in corpus.comments_by(b)] for b in ids
        ],
        "out_links": [[link(li) for li in corpus.out_links(b)] for b in ids],
    }


class TestFullSubsetCopy:
    """``subset(blogger_ids())`` is the analyzer's private copy of the
    corpus it was fitted or restored on: on either plane it must read
    exactly like its source."""

    @given(corpus=corpora())
    @settings(max_examples=40, deadline=None)
    def test_copy_reads_like_its_source(self, corpus):
        copy = corpus.subset(corpus.blogger_ids())
        assert isinstance(copy, BlogCorpus) and copy is not corpus
        assert _ordered_reads(copy) == _ordered_reads(corpus)
        with tempfile.TemporaryDirectory() as tmp:
            path = write_corpus(corpus, Path(tmp) / "corpus.mcol")
            with ColumnarCorpus.open(path) as view:
                copy = view.subset(view.blogger_ids())
                expected = _ordered_reads(view)
            assert isinstance(copy, BlogCorpus)
            assert _ordered_reads(copy) == expected


# ----------------------------------------------------------------------
# Corruption: the integrity model, byte by byte
# ----------------------------------------------------------------------

_FOOTER = struct.Struct("<QQI")
_FOOTER_SIZE = _FOOTER.size + len(FOOTER_MAGIC)


def _manifest_of(blob: bytes) -> tuple[dict, int]:
    offset, length, _crc = _FOOTER.unpack(
        blob[len(blob) - _FOOTER_SIZE: len(blob) - len(FOOTER_MAGIC)]
    )
    return json.loads(blob[offset: offset + length].decode("utf-8")), offset


def _reseal(blob: bytes, manifest: dict, offset: int) -> bytes:
    """Re-serialize a (possibly doctored) manifest with a valid CRC."""
    encoded = json.dumps(manifest, sort_keys=True).encode("utf-8")
    return (
        blob[:offset] + encoded
        + _FOOTER.pack(offset, len(encoded), zlib.crc32(encoded))
        + FOOTER_MAGIC
    )


@pytest.fixture(scope="module")
def sealed_blob(tmp_path_factory) -> bytes:
    """One well-formed store file, as bytes, for corruption to maul."""
    corpus = BlogCorpus()
    for index in range(4):
        corpus.add_blogger(Blogger(
            f"b{index}", name=f"blogger {index}",
            profile_text="writes about columnar stores",
            joined_day=index,
        ))
    corpus.add_post(Post("p0", "b0", title="on integrity",
                         body="every byte is framed by a crc", created_day=2))
    corpus.add_post(Post("p1", "b1", body="short", created_day=3))
    corpus.add_comment(Comment("c0", "p0", "b2", text="agreed",
                               created_day=4))
    corpus.add_link(Link("b2", "b0", 1.5))
    corpus.add_link(Link("b3", "b0", 1.0))
    path = tmp_path_factory.mktemp("sealed") / "fixture.mcol"
    write_corpus(corpus, path)
    return path.read_bytes()


def _open_bytes(tmp_path_factory, blob: bytes, **kwargs) -> StoreReader:
    path = tmp_path_factory.mktemp("maul") / "store.mcol"
    path.write_bytes(blob)
    return StoreReader(path, **kwargs)


class TestCorruption:
    @given(fraction=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_any_truncation_is_rejected(
        self, tmp_path_factory, sealed_blob, fraction
    ):
        cut = min(len(sealed_blob) - 1, int(fraction * len(sealed_blob)))
        with pytest.raises(StoreFormatError):
            _open_bytes(tmp_path_factory, sealed_blob[:cut])

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_flipped_section_byte_fails_its_crc(
        self, tmp_path_factory, sealed_blob, data
    ):
        manifest, _ = _manifest_of(sealed_blob)
        sections = [
            spec for spec in manifest["sections"].values()
            if spec["length"] > 0
        ]
        spec = data.draw(st.sampled_from(sections))
        position = spec["offset"] + data.draw(
            st.integers(0, spec["length"] - 1)
        )
        mauled = bytearray(sealed_blob)
        mauled[position] ^= 0xFF
        with pytest.raises(StoreFormatError, match="CRC mismatch"):
            _open_bytes(tmp_path_factory, bytes(mauled))
        # verify=False trades that check away: the structural parse
        # (footer, manifest CRC, bounds) still passes.
        reader = _open_bytes(
            tmp_path_factory, bytes(mauled), verify=False
        )
        reader.close()

    def test_bad_magic(self, tmp_path_factory, sealed_blob):
        mauled = b"NOTACOL\x01" + sealed_blob[len(MAGIC):]
        with pytest.raises(StoreFormatError, match="bad magic"):
            _open_bytes(tmp_path_factory, mauled)

    def test_unsealed_file_missing_footer_magic(
        self, tmp_path_factory, sealed_blob
    ):
        mauled = sealed_blob[:-len(FOOTER_MAGIC)] + b"\x00" * 8
        with pytest.raises(StoreFormatError, match="not sealed"):
            _open_bytes(tmp_path_factory, mauled)

    def test_damaged_manifest_fails_its_crc(
        self, tmp_path_factory, sealed_blob
    ):
        _, offset = _manifest_of(sealed_blob)
        mauled = bytearray(sealed_blob)
        mauled[offset] ^= 0xFF
        with pytest.raises(StoreFormatError, match="manifest CRC"):
            _open_bytes(tmp_path_factory, bytes(mauled))

    def test_manifest_range_out_of_bounds(
        self, tmp_path_factory, sealed_blob
    ):
        mauled = (
            sealed_blob[:-_FOOTER_SIZE]
            + _FOOTER.pack(len(sealed_blob), 64, 0)
            + FOOTER_MAGIC
        )
        with pytest.raises(StoreFormatError, match="out of bounds"):
            _open_bytes(tmp_path_factory, mauled)

    def test_unsupported_format_version(
        self, tmp_path_factory, sealed_blob
    ):
        manifest, offset = _manifest_of(sealed_blob)
        manifest["format"] = 99
        with pytest.raises(StoreFormatError, match="unsupported"):
            _open_bytes(
                tmp_path_factory, _reseal(sealed_blob, manifest, offset)
            )

    def test_foreign_byteorder_rejected(
        self, tmp_path_factory, sealed_blob
    ):
        manifest, offset = _manifest_of(sealed_blob)
        manifest["byteorder"] = (
            "big" if manifest["byteorder"] == "little" else "little"
        )
        with pytest.raises(StoreFormatError, match="-endian"):
            _open_bytes(
                tmp_path_factory, _reseal(sealed_blob, manifest, offset)
            )

    def test_section_range_out_of_bounds(
        self, tmp_path_factory, sealed_blob
    ):
        manifest, offset = _manifest_of(sealed_blob)
        manifest["sections"]["blogger_joined"]["offset"] = len(sealed_blob)
        with pytest.raises(StoreFormatError, match="out of bounds"):
            _open_bytes(
                tmp_path_factory, _reseal(sealed_blob, manifest, offset)
            )

    def test_unknown_section_kind(self, tmp_path_factory, sealed_blob):
        manifest, offset = _manifest_of(sealed_blob)
        manifest["sections"]["blogger_joined"]["kind"] = "u128"
        with pytest.raises(StoreFormatError, match="unknown kind"):
            _open_bytes(
                tmp_path_factory, _reseal(sealed_blob, manifest, offset)
            )

    def test_count_column_mismatch(self, tmp_path_factory, sealed_blob):
        manifest, offset = _manifest_of(sealed_blob)
        manifest["counts"]["bloggers"] += 1
        path = tmp_path_factory.mktemp("maul") / "store.mcol"
        path.write_bytes(_reseal(sealed_blob, manifest, offset))
        with pytest.raises(StoreFormatError, match="manifest says"):
            ColumnarCorpus.open(path)

    def test_missing_required_section(self, tmp_path_factory, sealed_blob):
        manifest, offset = _manifest_of(sealed_blob)
        del manifest["sections"]["blogger_joined"]
        path = tmp_path_factory.mktemp("maul") / "store.mcol"
        path.write_bytes(_reseal(sealed_blob, manifest, offset))
        with pytest.raises(StoreFormatError, match="missing"):
            ColumnarCorpus.open(path)

    def test_wrong_kind_request(self, tmp_path_factory, sealed_blob):
        reader = _open_bytes(tmp_path_factory, sealed_blob)
        try:
            with pytest.raises(StoreFormatError, match="expected f64"):
                reader.f64("blogger_joined")
        finally:
            reader.close()

    def test_too_short_file(self, tmp_path_factory):
        with pytest.raises(StoreFormatError, match="too short"):
            _open_bytes(tmp_path_factory, b"tiny")

    def test_unopenable_path(self, tmp_path):
        with pytest.raises(StoreFormatError, match="cannot open"):
            StoreReader(tmp_path / "does-not-exist.mcol")
