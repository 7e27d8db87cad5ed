"""A memory-mapped corpus view implementing the BlogCorpus protocol.

:class:`ColumnarCorpus` opens a ``.mcol`` file written by
:class:`~repro.store.builder.ColumnarBuilder` and presents the exact
read surface the analysis stack consumes — ``bloggers`` / ``posts`` /
``comments`` mappings, ``links``, grouped lookups (``posts_by``,
``comments_on``, ``total_comments_by``, ``out_links`` …), ``stats()``,
``subset`` / ``time_slice`` — without ever materializing
:mod:`repro.data.entities` objects.  Row *views* (lightweight
``__slots__`` proxies that decode fields from the mapping on attribute
access) stand in for entities wherever the protocol hands one back.

Iteration-order contract, load-bearing for bit-identical solves: rows
are stored in ascending id order, so ``sorted(corpus.posts)``, grouped
lookups, and dict-insertion-order traversals all see precisely the
sequences a sorted-id ``BlogCorpus`` walk would produce; ``links``
preserve corpus order with parallel links pre-merged.

Entity-id lookups lazily build one dict per entity kind on first use;
column scans (stats, iteration, CSR assembly) never pay for them —
which is what keeps opening a million-blogger corpus at mmap cost.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from pathlib import Path

from repro.data.corpus import BlogCorpus, CorpusStats
from repro.data.entities import Blogger, Comment, Link, Post
from repro.errors import CorpusError, StoreFormatError
from repro.store.format import StoreReader

__all__ = ["ColumnarCorpus"]


class _StringColumn:
    """Decode-on-access view of one string pool (offsets + UTF-8 blob)."""

    __slots__ = ("_off", "_blob")

    def __init__(self, off, blob) -> None:
        self._off = off
        self._blob = blob

    def __len__(self) -> int:
        return len(self._off) - 1

    def __getitem__(self, row: int) -> str:
        return str(self._blob[self._off[row]: self._off[row + 1]], "utf-8")

    def __iter__(self) -> Iterator[str]:
        off, blob = self._off, self._blob
        for row in range(len(off) - 1):
            yield str(blob[off[row]: off[row + 1]], "utf-8")


class BloggerView:
    """One blogger row; attribute-compatible with ``entities.Blogger``."""

    __slots__ = ("_c", "_row")

    def __init__(self, corpus: "ColumnarCorpus", row: int) -> None:
        self._c = corpus
        self._row = row

    @property
    def blogger_id(self) -> str:
        return self._c._bid[self._row]

    @property
    def name(self) -> str:
        return self._c._bname[self._row]

    @property
    def profile_text(self) -> str:
        return self._c._bprofile[self._row]

    @property
    def joined_day(self) -> int:
        return self._c._bjoined[self._row]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BloggerView({self.blogger_id!r})"


class PostView:
    """One post row; attribute-compatible with ``entities.Post``."""

    __slots__ = ("_c", "_row")

    def __init__(self, corpus: "ColumnarCorpus", row: int) -> None:
        self._c = corpus
        self._row = row

    @property
    def post_id(self) -> str:
        return self._c._pid[self._row]

    @property
    def author_id(self) -> str:
        return self._c._bid[self._c._pauthor[self._row]]

    @property
    def title(self) -> str:
        return self._c._ptitle[self._row]

    @property
    def body(self) -> str:
        return self._c._pbody[self._row]

    @property
    def created_day(self) -> int:
        return self._c._pcreated[self._row]

    @property
    def text(self) -> str:
        title, body = self.title, self.body
        if title and body:
            return f"{title}\n{body}"
        return title or body

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PostView({self.post_id!r})"


class CommentView:
    """One comment row; attribute-compatible with ``entities.Comment``."""

    __slots__ = ("_c", "_row")

    def __init__(self, corpus: "ColumnarCorpus", row: int) -> None:
        self._c = corpus
        self._row = row

    @property
    def comment_id(self) -> str:
        return self._c._cid[self._row]

    @property
    def post_id(self) -> str:
        return self._c._pid[self._c._cpost[self._row]]

    @property
    def commenter_id(self) -> str:
        return self._c._bid[self._c._ccommenter[self._row]]

    @property
    def text(self) -> str:
        return self._c._ctext[self._row]

    @property
    def created_day(self) -> int:
        return self._c._ccreated[self._row]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CommentView({self.comment_id!r})"


class LinkView:
    """One link row; attribute-compatible with ``entities.Link``."""

    __slots__ = ("_c", "_row")

    def __init__(self, corpus: "ColumnarCorpus", row: int) -> None:
        self._c = corpus
        self._row = row

    @property
    def source_id(self) -> str:
        return self._c._bid[self._c._lsource[self._row]]

    @property
    def target_id(self) -> str:
        return self._c._bid[self._c._ltarget[self._row]]

    @property
    def weight(self) -> float:
        return self._c._lweight[self._row]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LinkView({self.source_id!r} -> {self.target_id!r})"


class _RowMapping(Mapping):
    """id → row-view mapping over one entity kind (sorted-id order)."""

    __slots__ = ("_ids", "_index", "_make")

    def __init__(self, ids: _StringColumn, index, make) -> None:
        self._ids = ids
        self._index = index  # callable returning the lazy id→row dict
        self._make = make

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[str]:
        return iter(self._ids)

    def __getitem__(self, entity_id: str):
        row = self._index().get(entity_id)
        if row is None:
            raise KeyError(entity_id)
        return self._make(row)

    def __contains__(self, entity_id: object) -> bool:
        return entity_id in self._index()


class _LinkSequence(Sequence):
    """The ``links`` list: corpus order, parallel links pre-merged."""

    __slots__ = ("_c",)

    def __init__(self, corpus: "ColumnarCorpus") -> None:
        self._c = corpus

    def __len__(self) -> int:
        return len(self._c._lweight)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [
                LinkView(self._c, row)
                for row in range(*index.indices(len(self)))
            ]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        return LinkView(self._c, index)


class ColumnarCorpus:
    """A frozen, validated corpus served straight from a mapped file.

    Open with :meth:`open` (or the constructor); close with
    :meth:`close` or a ``with`` block.  The view is always ``frozen`` —
    the file was integrity-checked at build time and CRC-verified at
    open, so ``validate()`` is a no-op.
    """

    def __init__(self, path: str | Path, *, verify: bool = True) -> None:
        reader = StoreReader(path, verify=verify)
        try:
            self._load(reader)
        except StoreFormatError:
            reader.close()
            raise
        self._reader = reader

    @classmethod
    def open(cls, path: str | Path, *, verify: bool = True) -> "ColumnarCorpus":
        """Map a ``.mcol`` file written by the columnar builder."""
        return cls(path, verify=verify)

    def _load(self, reader: StoreReader) -> None:
        def pool(name: str) -> _StringColumn:
            return _StringColumn(
                reader.i64(f"{name}_off"), reader.raw(f"{name}_blob")
            )

        self._bid = pool("blogger_id")
        self._bname = pool("blogger_name")
        self._bprofile = pool("blogger_profile")
        self._bjoined = reader.i64("blogger_joined")
        self._pid = pool("post_id")
        self._ptitle = pool("post_title")
        self._pbody = pool("post_body")
        self._pauthor = reader.i64("post_author")
        self._pcreated = reader.i64("post_created")
        self._cid = pool("comment_id")
        self._ctext = pool("comment_text")
        self._cpost = reader.i64("comment_post")
        self._ccommenter = reader.i64("comment_commenter")
        self._ccreated = reader.i64("comment_created")
        self._lsource = reader.i64("link_source")
        self._ltarget = reader.i64("link_target")
        self._lweight = reader.f64("link_weight")
        self._author_posts_ptr = reader.i64("author_posts_ptr")
        self._author_posts = reader.i64("author_posts")
        self._post_comments_ptr = reader.i64("post_comments_ptr")
        self._post_comments = reader.i64("post_comments")
        self._commenter_comments_ptr = reader.i64("commenter_comments_ptr")
        self._commenter_comments = reader.i64("commenter_comments")
        self._out_links_ptr = reader.i64("out_links_ptr")
        self._out_links_rows = reader.i64("out_links")
        self._in_links_ptr = reader.i64("in_links_ptr")
        self._in_links_rows = reader.i64("in_links")
        counts = reader.counts
        for kind, column in (
            ("bloggers", self._bjoined),
            ("posts", self._pauthor),
            ("comments", self._cpost),
            ("links", self._lweight),
        ):
            if counts.get(kind) != len(column):
                raise StoreFormatError(
                    f"{reader.path.name}: manifest says "
                    f"{counts.get(kind)} {kind}, columns hold {len(column)}"
                )
        self._blogger_index: dict[str, int] | None = None
        self._post_index: dict[str, int] | None = None
        self._comment_index: dict[str, int] | None = None
        self._bloggers_map = _RowMapping(
            self._bid, self._bindex, lambda row: BloggerView(self, row)
        )
        self._posts_map = _RowMapping(
            self._pid, self._pindex, lambda row: PostView(self, row)
        )
        self._comments_map = _RowMapping(
            self._cid, self._cindex, lambda row: CommentView(self, row)
        )
        self._links_seq = _LinkSequence(self)

    # ------------------------------------------------------------------
    # Lazy id → row indexes (column scans never build them)
    # ------------------------------------------------------------------
    def _bindex(self) -> dict[str, int]:
        if self._blogger_index is None:
            self._blogger_index = {
                blogger_id: row for row, blogger_id in enumerate(self._bid)
            }
        return self._blogger_index

    def _pindex(self) -> dict[str, int]:
        if self._post_index is None:
            self._post_index = {
                post_id: row for row, post_id in enumerate(self._pid)
            }
        return self._post_index

    def _cindex(self) -> dict[str, int]:
        if self._comment_index is None:
            self._comment_index = {
                comment_id: row for row, comment_id in enumerate(self._cid)
            }
        return self._comment_index

    # ------------------------------------------------------------------
    # Corpus protocol: lookups
    # ------------------------------------------------------------------
    @property
    def bloggers(self) -> Mapping:
        """Bloggers by id (sorted-id iteration order)."""
        return self._bloggers_map

    @property
    def posts(self) -> Mapping:
        """Posts by id (sorted-id iteration order)."""
        return self._posts_map

    @property
    def comments(self) -> Mapping:
        """Comments by id (sorted-id iteration order)."""
        return self._comments_map

    @property
    def links(self) -> Sequence:
        """All blogger-to-blogger links, parallel links pre-merged."""
        return self._links_seq

    def blogger(self, blogger_id: str) -> BloggerView:
        """Fetch one blogger or raise :class:`CorpusError`."""
        row = self._bindex().get(blogger_id)
        if row is None:
            raise CorpusError(f"unknown blogger {blogger_id!r}")
        return BloggerView(self, row)

    def post(self, post_id: str) -> PostView:
        """Fetch one post or raise :class:`CorpusError`."""
        row = self._pindex().get(post_id)
        if row is None:
            raise CorpusError(f"unknown post {post_id!r}")
        return PostView(self, row)

    def post_author_id(self, post_id: str) -> str:
        """The author id of one post, read straight off the columns."""
        row = self._pindex().get(post_id)
        if row is None:
            raise CorpusError(f"unknown post {post_id!r}")
        return self._bid[self._pauthor[row]]

    def posts_by(self, blogger_id: str) -> list[PostView]:
        """All posts written by a blogger, ascending post id."""
        row = self._bindex().get(blogger_id)
        if row is None:
            return []
        ptr = self._author_posts_ptr
        return [
            PostView(self, post_row)
            for post_row in self._author_posts[ptr[row]: ptr[row + 1]]
        ]

    def comments_on(self, post_id: str) -> list[CommentView]:
        """All comments on a post, ascending comment id."""
        row = self._pindex().get(post_id)
        if row is None:
            return []
        ptr = self._post_comments_ptr
        return [
            CommentView(self, comment_row)
            for comment_row in self._post_comments[ptr[row]: ptr[row + 1]]
        ]

    def num_comments_on(self, post_id: str) -> int:
        """``len(comments_on(post_id))`` as one pointer-difference."""
        row = self._pindex().get(post_id)
        if row is None:
            return 0
        ptr = self._post_comments_ptr
        return ptr[row + 1] - ptr[row]

    def comments_by(self, blogger_id: str) -> list[CommentView]:
        """All comments written by a blogger, ascending comment id."""
        row = self._bindex().get(blogger_id)
        if row is None:
            return []
        ptr = self._commenter_comments_ptr
        return [
            CommentView(self, comment_row)
            for comment_row in self._commenter_comments[ptr[row]: ptr[row + 1]]
        ]

    def total_comments_by(self, blogger_id: str) -> int:
        """``TC(b_j)`` as one pointer-difference — no list built."""
        row = self._bindex().get(blogger_id)
        if row is None:
            return 0
        ptr = self._commenter_comments_ptr
        return ptr[row + 1] - ptr[row]

    def out_links(self, blogger_id: str) -> list[LinkView]:
        """Links the blogger makes to others, corpus order."""
        row = self._bindex().get(blogger_id)
        if row is None:
            return []
        ptr = self._out_links_ptr
        return [
            LinkView(self, link_row)
            for link_row in self._out_links_rows[ptr[row]: ptr[row + 1]]
        ]

    def in_links(self, blogger_id: str) -> list[LinkView]:
        """Links others make to the blogger, corpus order."""
        row = self._bindex().get(blogger_id)
        if row is None:
            return []
        ptr = self._in_links_ptr
        return [
            LinkView(self, link_row)
            for link_row in self._in_links_rows[ptr[row]: ptr[row + 1]]
        ]

    def blogger_ids(self) -> list[str]:
        """All blogger ids in deterministic (sorted) order."""
        return list(self._bid)

    def link_columns(self) -> tuple[Sequence[int], Sequence[int],
                                    Sequence[float]]:
        """The links as source rows, target rows and weights.

        Zero-copy views of the stored columns, in ``links`` order; a row
        indexes :meth:`blogger_ids`.  Reading them decodes no id, where
        ``links`` decodes two per link.
        """
        return self._lsource, self._ltarget, self._lweight

    def stats(self) -> CorpusStats:
        """Summary counts for reporting."""
        return CorpusStats(self)

    # ------------------------------------------------------------------
    # Corpus protocol: lifecycle
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """No-op: integrity was enforced at build and verified at open."""

    def freeze(self) -> "ColumnarCorpus":
        """Already frozen; returns ``self`` for protocol compatibility."""
        return self

    @property
    def frozen(self) -> bool:
        """Columnar corpora are always read-only."""
        return True

    # ------------------------------------------------------------------
    # Derived views (materialize real entities, like BlogCorpus does)
    # ------------------------------------------------------------------
    def _materialize_blogger(self, row: int) -> Blogger:
        return Blogger(
            self._bid[row],
            name=self._bname[row],
            profile_text=self._bprofile[row],
            joined_day=self._bjoined[row],
        )

    def _materialize_post(self, row: int) -> Post:
        return Post(
            self._pid[row],
            self._bid[self._pauthor[row]],
            title=self._ptitle[row],
            body=self._pbody[row],
            created_day=self._pcreated[row],
        )

    def _materialize_comment(self, row: int) -> Comment:
        return Comment(
            self._cid[row],
            self._pid[self._cpost[row]],
            self._bid[self._ccommenter[row]],
            text=self._ctext[row],
            created_day=self._ccreated[row],
        )

    def subset(self, blogger_ids: Iterable[str]) -> BlogCorpus:
        """Induced sub-corpus on a blogger set (a real ``BlogCorpus``)."""
        keep = set(blogger_ids)
        index = self._bindex()
        unknown = keep - index.keys()
        if unknown:
            raise CorpusError(
                f"subset references unknown bloggers: {sorted(unknown)}"
            )
        keep_rows = {index[blogger_id] for blogger_id in keep}
        sub = BlogCorpus()
        for blogger_id in sorted(keep):
            sub.add_blogger(self._materialize_blogger(index[blogger_id]))
        kept_posts: set[int] = set()
        for row in range(len(self._pauthor)):
            if self._pauthor[row] in keep_rows:
                sub.add_post(self._materialize_post(row))
                kept_posts.add(row)
        for row in range(len(self._cpost)):
            if self._ccommenter[row] in keep_rows \
                    and self._cpost[row] in kept_posts:
                sub.add_comment(self._materialize_comment(row))
        for row in range(len(self._lweight)):
            if self._lsource[row] in keep_rows \
                    and self._ltarget[row] in keep_rows:
                sub.add_link(Link(
                    self._bid[self._lsource[row]],
                    self._bid[self._ltarget[row]],
                    self._lweight[row],
                ))
        return sub

    def time_slice(self, start_day: int, end_day: int) -> BlogCorpus:
        """The corpus restricted to activity in ``[start_day, end_day)``."""
        if end_day <= start_day:
            raise CorpusError(
                f"empty window: start_day={start_day} end_day={end_day}"
            )
        sliced = BlogCorpus()
        for row in range(len(self._bjoined)):
            sliced.add_blogger(self._materialize_blogger(row))
        kept_posts: set[int] = set()
        for row in range(len(self._pauthor)):
            if start_day <= self._pcreated[row] < end_day:
                sliced.add_post(self._materialize_post(row))
                kept_posts.add(row)
        for row in range(len(self._cpost)):
            if self._cpost[row] in kept_posts \
                    and start_day <= self._ccreated[row] < end_day:
                sliced.add_comment(self._materialize_comment(row))
        for row in range(len(self._lweight)):
            sliced.add_link(Link(
                self._bid[self._lsource[row]],
                self._bid[self._ltarget[row]],
                self._lweight[row],
            ))
        return sliced

    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        """The backing ``.mcol`` file."""
        return self._reader.path

    def close(self) -> None:
        """Release the mapping (views handed out keep it alive)."""
        self._reader.close()

    def __enter__(self) -> "ColumnarCorpus":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._bjoined)

    def __iter__(self) -> Iterator[BloggerView]:
        for row in range(len(self._bjoined)):
            yield BloggerView(self, row)

    def __contains__(self, blogger_id: object) -> bool:
        return blogger_id in self._bindex()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats()
        return (
            f"ColumnarCorpus(bloggers={stats.num_bloggers}, "
            f"posts={stats.num_posts}, comments={stats.num_comments}, "
            f"links={stats.num_links}, path={str(self.path)!r})"
        )
