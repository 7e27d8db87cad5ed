"""Append-friendly construction of columnar corpus files.

:class:`ColumnarBuilder` accepts entities one at a time — in ascending
id order per kind, the order the store keeps them in — and writes a
``.mcol`` file whose memory footprint is bounded by the *fixed-width*
columns only: every variable-length string is spooled straight to a
scratch file, so a 10^6-blogger corpus builds in a few hundred MB of
RSS while its text streams through to disk.

Referential integrity is enforced at append time (an author must
already be a blogger, a comment's post must exist, link endpoints must
exist), exactly mirroring :class:`~repro.data.corpus.BlogCorpus` — a
finished file never needs a validation pass.  Field values go through
the validators of :mod:`repro.data.entities`, so a row the builder
accepts is one the entity classes accept.  Parallel links merge
additively in first-occurrence position, the same semantics as
``BlogCorpus.add_link``.

:func:`write_corpus` is the one-shot path: anything implementing the
corpus read protocol (a ``BlogCorpus``, a
:class:`~repro.store.columnar.ColumnarCorpus`) serializes through the
builder in sorted-id order, which is what makes columnar-fed solves
bit-identical to object-corpus solves.
"""

from __future__ import annotations

import shutil
import tempfile
from array import array
from pathlib import Path

from repro.data.entities import (
    _require_day,
    _require_id,
    _require_link,
    _require_weight,
)
from repro.errors import CorpusError
from repro.store.format import StoreWriter

__all__ = ["ColumnarBuilder", "write_corpus"]

_CHUNK = 1 << 20


class _Pool:
    """A string pool spooled to scratch: offsets in memory, bytes on disk."""

    def __init__(self, scratch: Path, name: str) -> None:
        self.name = name
        self.offsets = array("q", [0])
        self._fh = open(scratch / f"{name}.pool", "w+b", buffering=_CHUNK)
        self._size = 0

    def add(self, text: str) -> None:
        data = text.encode("utf-8")
        if data:
            self._fh.write(data)
            self._size += len(data)
        self.offsets.append(self._size)

    def _blob_chunks(self):
        self._fh.flush()
        self._fh.seek(0)
        while True:
            chunk = self._fh.read(_CHUNK)
            if not chunk:
                break
            yield chunk

    def write(self, writer: StoreWriter) -> None:
        writer.add_section(f"{self.name}_off", "i64", [self.offsets.tobytes()])
        writer.add_section(f"{self.name}_blob", "raw", self._blob_chunks())

    def close(self) -> None:
        self._fh.close()


def _group(keys: array, n_groups: int) -> tuple[array, array]:
    """Counting-sort row numbers by group key → (ptr, rows) CSR arrays.

    Rows keep ascending order within each group, so grouped views come
    back in sorted-id order (the stored row order *is* id order).
    """
    ptr = array("q", bytes(8 * (n_groups + 1)))
    for key in keys:
        ptr[key + 1] += 1
    for i in range(n_groups):
        ptr[i + 1] += ptr[i]
    rows = array("q", bytes(8 * len(keys)))
    cursor = array("q", ptr[:n_groups])
    for row, key in enumerate(keys):
        rows[cursor[key]] = row
        cursor[key] += 1
    return ptr, rows


class ColumnarBuilder:
    """Stream entities into a ``.mcol`` columnar corpus file.

    Entities of each kind must arrive in strictly ascending id order
    (the stored row order is id order; enforcing it at append time is
    what lets grouped indexes be built with one counting sort and no
    global sort buffer).
    """

    def __init__(self, *, scratch_dir: str | Path | None = None) -> None:
        self._scratch = Path(tempfile.mkdtemp(
            prefix="mass-col-",
            dir=str(scratch_dir) if scratch_dir is not None else None,
        ))
        self._finished = False

        self._blogger_id = _Pool(self._scratch, "blogger_id")
        self._blogger_name = _Pool(self._scratch, "blogger_name")
        self._blogger_profile = _Pool(self._scratch, "blogger_profile")
        self._blogger_joined = array("q")
        self._blogger_rows: dict[str, int] = {}
        self._last_blogger = ""

        self._post_id = _Pool(self._scratch, "post_id")
        self._post_title = _Pool(self._scratch, "post_title")
        self._post_body = _Pool(self._scratch, "post_body")
        self._post_author = array("q")
        self._post_created = array("q")
        self._post_rows: dict[str, int] = {}
        self._last_post = ""

        self._comment_id = _Pool(self._scratch, "comment_id")
        self._comment_text = _Pool(self._scratch, "comment_text")
        self._comment_post = array("q")
        self._comment_commenter = array("q")
        self._comment_created = array("q")
        self._num_comments = 0
        self._last_comment = ""

        self._link_source = array("q")
        self._link_target = array("q")
        self._link_weight = array("d")
        self._link_pos: dict[tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._finished:
            raise CorpusError("builder is finished; create a new one")

    def _check_order(self, entity_id: str, last: str, kind: str) -> None:
        if entity_id <= last:
            raise CorpusError(
                f"{kind} ids must be added in strictly ascending order: "
                f"{entity_id!r} after {last!r}"
            )

    def add_blogger(
        self,
        blogger_id: str,
        name: str = "",
        profile_text: str = "",
        joined_day: int = 0,
    ) -> None:
        """Append one blogger row (ids strictly ascending)."""
        self._check_open()
        _require_id(blogger_id, "blogger_id")
        _require_day(joined_day, "joined_day")
        self._check_order(blogger_id, self._last_blogger, "blogger")
        self._blogger_rows[blogger_id] = len(self._blogger_joined)
        self._blogger_id.add(blogger_id)
        # Mirror the Blogger entity default: an empty name displays the id.
        self._blogger_name.add(name or blogger_id)
        self._blogger_profile.add(profile_text)
        self._blogger_joined.append(joined_day)
        self._last_blogger = blogger_id

    def add_post(
        self,
        post_id: str,
        author_id: str,
        title: str = "",
        body: str = "",
        created_day: int = 0,
    ) -> None:
        """Append one post row; its author must already be present."""
        self._check_open()
        _require_id(post_id, "post_id")
        _require_day(created_day, "created_day")
        self._check_order(post_id, self._last_post, "post")
        author_row = self._blogger_rows.get(author_id)
        if author_row is None:
            raise CorpusError(
                f"post {post_id!r} authored by unknown blogger {author_id!r}"
            )
        self._post_rows[post_id] = len(self._post_author)
        self._post_id.add(post_id)
        self._post_title.add(title)
        self._post_body.add(body)
        self._post_author.append(author_row)
        self._post_created.append(created_day)
        self._last_post = post_id

    def add_comment(
        self,
        comment_id: str,
        post_id: str,
        commenter_id: str,
        text: str = "",
        created_day: int = 0,
    ) -> None:
        """Append one comment row; post and commenter must exist."""
        self._check_open()
        _require_id(comment_id, "comment_id")
        _require_day(created_day, "created_day")
        self._check_order(comment_id, self._last_comment, "comment")
        post_row = self._post_rows.get(post_id)
        if post_row is None:
            raise CorpusError(
                f"comment {comment_id!r} targets unknown post {post_id!r}"
            )
        commenter_row = self._blogger_rows.get(commenter_id)
        if commenter_row is None:
            raise CorpusError(
                f"comment {comment_id!r} written by unknown blogger "
                f"{commenter_id!r}"
            )
        self._comment_id.add(comment_id)
        self._comment_text.add(text)
        self._comment_post.append(post_row)
        self._comment_commenter.append(commenter_row)
        self._comment_created.append(created_day)
        self._num_comments += 1
        self._last_comment = comment_id

    def add_link(
        self, source_id: str, target_id: str, weight: float = 1.0
    ) -> None:
        """Append (or additively merge) one blogger-to-blogger link."""
        self._check_open()
        _require_link(source_id, target_id, weight)
        source_row = self._blogger_rows.get(source_id)
        target_row = self._blogger_rows.get(target_id)
        if source_row is None or target_row is None:
            unknown = source_id if source_row is None else target_id
            raise CorpusError(
                f"link ({source_id!r} -> {target_id!r}) references unknown "
                f"blogger {unknown!r}"
            )
        key = (source_row, target_row)
        pos = self._link_pos.get(key)
        if pos is not None:
            # Parallel links add up, in first-occurrence position —
            # the BlogCorpus.add_link merge semantics, and its rule
            # that the sum is itself a valid weight.
            merged = self._link_weight[pos] + float(weight)
            _require_weight(merged)
            self._link_weight[pos] = merged
            return
        self._link_pos[key] = len(self._link_weight)
        self._link_source.append(source_row)
        self._link_target.append(target_row)
        self._link_weight.append(float(weight))

    # ------------------------------------------------------------------
    @property
    def counts(self) -> dict[str, int]:
        """Entity counts appended so far."""
        return {
            "bloggers": len(self._blogger_joined),
            "posts": len(self._post_author),
            "comments": self._num_comments,
            "links": len(self._link_weight),
        }

    def finish(self, path: str | Path) -> Path:
        """Build grouped indexes, write the file, release scratch space."""
        self._check_open()
        self._finished = True
        n_bloggers = len(self._blogger_joined)
        writer = StoreWriter(path)
        try:
            for pool in (
                self._blogger_id, self._blogger_name, self._blogger_profile,
                self._post_id, self._post_title, self._post_body,
                self._comment_id, self._comment_text,
            ):
                pool.write(writer)
            for name, column in (
                ("blogger_joined", self._blogger_joined),
                ("post_author", self._post_author),
                ("post_created", self._post_created),
                ("comment_post", self._comment_post),
                ("comment_commenter", self._comment_commenter),
                ("comment_created", self._comment_created),
                ("link_source", self._link_source),
                ("link_target", self._link_target),
            ):
                writer.add_section(name, "i64", [column.tobytes()])
            writer.add_section(
                "link_weight", "f64", [self._link_weight.tobytes()]
            )
            for name, keys, n_groups in (
                ("author_posts", self._post_author, n_bloggers),
                ("post_comments", self._comment_post,
                 len(self._post_author)),
                ("commenter_comments", self._comment_commenter, n_bloggers),
                ("out_links", self._link_source, n_bloggers),
                ("in_links", self._link_target, n_bloggers),
            ):
                ptr, rows = _group(keys, n_groups)
                writer.add_section(f"{name}_ptr", "i64", [ptr.tobytes()])
                writer.add_section(name, "i64", [rows.tobytes()])
            # Always false: the token columns it once announced are no
            # longer written, but perfbench pins the SHA-256 of what
            # write_corpus writes (perfbench/inputs.json), so a file
            # must stay byte-identical to what earlier versions wrote.
            result = writer.finish(self.counts, flags={"tokens": False})
        except BaseException:
            writer.abort()
            raise
        finally:
            self.close()
        return result

    def close(self) -> None:
        """Release scratch files (idempotent; finish calls it)."""
        for pool in (
            self._blogger_id, self._blogger_name, self._blogger_profile,
            self._post_id, self._post_title, self._post_body,
            self._comment_id, self._comment_text,
        ):
            pool.close()
        shutil.rmtree(self._scratch, ignore_errors=True)


def write_corpus(
    corpus,
    path: str | Path,
    *,
    scratch_dir: str | Path | None = None,
) -> Path:
    """Serialize any corpus-protocol object to a columnar file.

    Entities are emitted in sorted-id order (links in corpus order,
    already parallel-merged), so a round trip through
    :class:`~repro.store.columnar.ColumnarCorpus` reproduces the exact
    iteration orders the solve path sees on a ``BlogCorpus``.
    """
    builder = ColumnarBuilder(scratch_dir=scratch_dir)
    try:
        for blogger_id in corpus.blogger_ids():
            blogger = corpus.blogger(blogger_id)
            builder.add_blogger(
                blogger_id,
                name=blogger.name,
                profile_text=blogger.profile_text,
                joined_day=blogger.joined_day,
            )
        for post_id in sorted(corpus.posts):
            post = corpus.post(post_id)
            builder.add_post(
                post_id,
                post.author_id,
                title=post.title,
                body=post.body,
                created_day=post.created_day,
            )
        for comment_id in sorted(corpus.comments):
            comment = corpus.comments[comment_id]
            builder.add_comment(
                comment_id,
                comment.post_id,
                comment.commenter_id,
                text=comment.text,
                created_day=comment.created_day,
            )
        for link in corpus.links:
            builder.add_link(link.source_id, link.target_id, link.weight)
        return builder.finish(path)
    finally:
        builder.close()
