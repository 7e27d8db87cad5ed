"""XML persistence in the MASS crawl format.

The paper's Crawler Module "stores the bloggers' information (including
the bloggers' personal information, posts, and corresponding comments)
in XML files".  We reproduce that storage layer: one ``<space>``
document per blogger holding the profile, the blogger's posts with
their comments, and outgoing links, plus an ``index.xml`` naming every
space file in a crawl directory.

Two granularities are provided:

- directory store: :func:`save_corpus` / :func:`load_corpus` (what the
  multi-threaded crawler writes, one file per crawled space);
- single document: :func:`dumps_corpus` / :func:`loads_corpus` (handy
  for tests and small exports).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path

from repro.data.corpus import BlogCorpus
from repro.data.entities import Blogger, Comment, Link, Post
from repro.errors import CorpusError, CorpusFormatError

__all__ = [
    "space_to_element",
    "space_from_element",
    "save_corpus",
    "load_corpus",
    "dumps_corpus",
    "loads_corpus",
    "migrate_to_columnar",
    "open_corpus",
    "FORMAT_VERSION",
]

FORMAT_VERSION = "1.0"

# XML 1.0 cannot represent most control characters or lone surrogates
# at all (they are invalid in the document, escaped or not), yet real
# crawled text contains them.  We strip the unrepresentable characters
# at serialization time — the only lossless alternative would be a
# side-channel encoding, which no consumer of these files would expect.
_INVALID_XML_CHARS = {
    codepoint: None
    for codepoint in (
        list(range(0x00, 0x09))
        + [0x0B, 0x0C]
        + list(range(0x0E, 0x20))
        + list(range(0xD800, 0xE000))
        + [0xFFFE, 0xFFFF]
    )
}


def sanitize_xml_text(text: str) -> str:
    """Make text XML-1.0-safe and parse-stable.

    Drops characters XML cannot carry (C0 controls, surrogates) and
    applies the spec's line-end normalization (``\\r\\n``/``\\r`` →
    ``\\n``) eagerly, so what is written is exactly what a conformant
    parser reads back.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.translate(_INVALID_XML_CHARS)


# ----------------------------------------------------------------------
# Element-level encoding
# ----------------------------------------------------------------------
def space_to_element(corpus: BlogCorpus, blogger_id: str) -> ET.Element:
    """Encode one blogger's space (profile, posts+comments, out-links)."""
    blogger = corpus.blogger(blogger_id)
    space = ET.Element("space", {"id": blogger.blogger_id, "version": FORMAT_VERSION})

    profile = ET.SubElement(space, "profile", {"joined-day": str(blogger.joined_day)})
    ET.SubElement(profile, "name").text = sanitize_xml_text(blogger.name)
    ET.SubElement(profile, "about").text = sanitize_xml_text(
        blogger.profile_text
    )

    posts_el = ET.SubElement(space, "posts")
    for post in sorted(corpus.posts_by(blogger_id), key=lambda p: p.post_id):
        post_el = ET.SubElement(
            posts_el, "post", {"id": post.post_id, "day": str(post.created_day)}
        )
        ET.SubElement(post_el, "title").text = sanitize_xml_text(post.title)
        ET.SubElement(post_el, "body").text = sanitize_xml_text(post.body)
        comments_el = ET.SubElement(post_el, "comments")
        for comment in sorted(corpus.comments_on(post.post_id),
                              key=lambda c: c.comment_id):
            comment_el = ET.SubElement(
                comments_el,
                "comment",
                {
                    "id": comment.comment_id,
                    "by": comment.commenter_id,
                    "day": str(comment.created_day),
                },
            )
            comment_el.text = sanitize_xml_text(comment.text)

    links_el = ET.SubElement(space, "links")
    for link in sorted(corpus.out_links(blogger_id), key=lambda l: l.target_id):
        ET.SubElement(
            links_el, "link", {"to": link.target_id, "weight": repr(link.weight)}
        )
    return space


def _attr(element: ET.Element, name: str) -> str:
    value = element.get(name)
    if value is None:
        raise CorpusFormatError(
            f"<{element.tag}> is missing required attribute {name!r}"
        )
    return value


def _int_attr(element: ET.Element, name: str) -> int:
    raw = _attr(element, name)
    try:
        return int(raw)
    except ValueError:
        raise CorpusFormatError(
            f"<{element.tag}> attribute {name!r} must be an integer, got {raw!r}"
        ) from None


class SpaceRecord:
    """Decoded contents of one ``<space>`` element."""

    def __init__(
        self,
        blogger: Blogger,
        posts: list[Post],
        comments: list[Comment],
        links: list[Link],
    ) -> None:
        self.blogger = blogger
        self.posts = posts
        self.comments = comments
        self.links = links


def space_from_element(space: ET.Element) -> SpaceRecord:
    """Decode one ``<space>`` element into entities.

    Raises :class:`CorpusFormatError` on any structural deviation.
    """
    if space.tag != "space":
        raise CorpusFormatError(f"expected <space>, got <{space.tag}>")
    blogger_id = _attr(space, "id")

    profile = space.find("profile")
    if profile is None:
        raise CorpusFormatError(f"space {blogger_id!r} has no <profile>")
    name_el = profile.find("name")
    about_el = profile.find("about")
    blogger = Blogger(
        blogger_id,
        name=(name_el.text or "") if name_el is not None else "",
        profile_text=(about_el.text or "") if about_el is not None else "",
        joined_day=_int_attr(profile, "joined-day"),
    )

    posts: list[Post] = []
    comments: list[Comment] = []
    posts_el = space.find("posts")
    if posts_el is not None:
        for post_el in posts_el.findall("post"):
            title_el = post_el.find("title")
            body_el = post_el.find("body")
            post = Post(
                _attr(post_el, "id"),
                blogger_id,
                title=(title_el.text or "") if title_el is not None else "",
                body=(body_el.text or "") if body_el is not None else "",
                created_day=_int_attr(post_el, "day"),
            )
            posts.append(post)
            comments_el = post_el.find("comments")
            if comments_el is None:
                continue
            for comment_el in comments_el.findall("comment"):
                comments.append(
                    Comment(
                        _attr(comment_el, "id"),
                        post.post_id,
                        _attr(comment_el, "by"),
                        text=comment_el.text or "",
                        created_day=_int_attr(comment_el, "day"),
                    )
                )

    links: list[Link] = []
    links_el = space.find("links")
    if links_el is not None:
        for link_el in links_el.findall("link"):
            raw_weight = link_el.get("weight", "1.0")
            try:
                weight = float(raw_weight)
            except ValueError:
                raise CorpusFormatError(
                    f"link weight must be a number, got {raw_weight!r}"
                ) from None
            links.append(Link(blogger_id, _attr(link_el, "to"), weight))
    return SpaceRecord(blogger, posts, comments, links)


# ----------------------------------------------------------------------
# Whole-corpus encoding
# ----------------------------------------------------------------------
def _corpus_to_element(corpus: BlogCorpus) -> ET.Element:
    root = ET.Element("blogosphere", {"version": FORMAT_VERSION})
    for blogger_id in corpus.blogger_ids():
        root.append(space_to_element(corpus, blogger_id))
    return root


def _build_corpus(records: list[SpaceRecord]) -> BlogCorpus:
    """Assemble decoded space records into a frozen corpus.

    Structural violations *inside* otherwise well-formed XML —
    duplicate ids across space files, comments on posts that no file
    contains, links to bloggers the store never mentions — surface as
    :class:`CorpusFormatError`: to a loader they are corrupt stored
    data, not a programming error.
    """
    try:
        corpus = BlogCorpus()
        for record in records:
            corpus.add_blogger(record.blogger)
        for record in records:
            for post in record.posts:
                corpus.add_post(post)
        for record in records:
            for comment in record.comments:
                corpus.add_comment(comment)
            for link in record.links:
                corpus.add_link(link)
        return corpus.freeze()
    except CorpusError as exc:
        raise CorpusFormatError(f"stored corpus data is invalid: {exc}") from exc


def _corpus_from_element(root: ET.Element) -> BlogCorpus:
    if root.tag != "blogosphere":
        raise CorpusFormatError(f"expected <blogosphere>, got <{root.tag}>")
    return _build_corpus(
        [_decode_space(el) for el in root.findall("space")]
    )


def _decode_space(space: ET.Element) -> SpaceRecord:
    """Decode one space, downgrading entity-level CorpusError to format."""
    try:
        return space_from_element(space)
    except CorpusError as exc:
        raise CorpusFormatError(f"stored corpus data is invalid: {exc}") from exc


def dumps_corpus(corpus: BlogCorpus) -> str:
    """Serialize a whole corpus to one XML string."""
    element = _corpus_to_element(corpus)
    ET.indent(element)
    return ET.tostring(element, encoding="unicode")


def loads_corpus(text: str) -> BlogCorpus:
    """Parse a corpus from an XML string produced by :func:`dumps_corpus`."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise CorpusFormatError(f"invalid XML: {exc}") from exc
    return _corpus_from_element(root)


def save_corpus(corpus: BlogCorpus, directory: str | Path) -> Path:
    """Write a crawl directory: ``index.xml`` plus one file per space.

    Returns the directory path.  Existing space files are overwritten;
    unrelated files are left alone.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    index = ET.Element("index", {"version": FORMAT_VERSION})
    for blogger_id in corpus.blogger_ids():
        filename = f"space-{blogger_id}.xml"
        ET.SubElement(index, "space", {"id": blogger_id, "file": filename})
        space = space_to_element(corpus, blogger_id)
        ET.indent(space)
        (directory / filename).write_text(
            ET.tostring(space, encoding="unicode"), encoding="utf-8"
        )
    ET.indent(index)
    (directory / "index.xml").write_text(
        ET.tostring(index, encoding="unicode"), encoding="utf-8"
    )
    return directory


def migrate_to_columnar(directory: str | Path, dest: str | Path) -> Path:
    """One-shot migration: XML crawl directory → ``.mcol`` columnar file.

    Loads the directory with :func:`load_corpus` (full validation) and
    serializes it through :func:`repro.store.write_corpus`, so the
    columnar file solves bit-identically to the XML-loaded corpus.
    Returns the written path; the source directory is left untouched.
    """
    # Imported here so the XML store stays importable without pulling
    # the columnar layer into every reader of this module.
    from repro.store import write_corpus

    corpus = load_corpus(directory)
    return write_corpus(corpus, dest)


def open_corpus(source: str | Path):
    """Open stored corpus data, whatever its on-disk form.

    A path to an ``.mcol`` file opens as a memory-mapped
    :class:`repro.store.ColumnarCorpus`; a directory loads as an XML
    crawl store via :func:`load_corpus`.  Both results satisfy the
    corpus read protocol, so every analysis entry point can accept
    either format through this one dispatcher.
    """
    path = Path(source)
    if path.is_file() or path.suffix == ".mcol":
        from repro.store import ColumnarCorpus

        return ColumnarCorpus.open(path)
    return load_corpus(path)


def load_corpus(directory: str | Path) -> BlogCorpus:
    """Read a crawl directory written by :func:`save_corpus`."""
    directory = Path(directory)
    index_path = directory / "index.xml"
    if not index_path.exists():
        raise CorpusFormatError(f"no index.xml in {directory}")
    try:
        index = ET.fromstring(index_path.read_text(encoding="utf-8"))
    except ET.ParseError as exc:
        raise CorpusFormatError(f"invalid index.xml: {exc}") from exc
    if index.tag != "index":
        raise CorpusFormatError(f"expected <index>, got <{index.tag}>")

    records = []
    for entry in index.findall("space"):
        path = directory / _attr(entry, "file")
        if not path.exists():
            raise CorpusFormatError(f"index references missing file {path.name!r}")
        try:
            space = ET.fromstring(path.read_text(encoding="utf-8"))
        except ET.ParseError as exc:
            raise CorpusFormatError(f"invalid XML in {path.name!r}: {exc}") from exc
        records.append(_decode_space(space))
    return _build_corpus(records)
