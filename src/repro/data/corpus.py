"""The :class:`BlogCorpus`: an indexed, validated blogosphere snapshot.

A corpus is the hand-off artifact between the Crawler Module and the
Analyzer Module in Fig. 2 of the paper.  It owns four entity
collections (bloggers, posts, comments, links) plus derived indexes
that the influence model needs in O(1):

- posts by author (``|P(b_i)|`` and the AP summation of Eq. 1),
- comments per post (``|C(b_i, d_k)|`` of Eq. 3),
- total comments per commenter (``TC(b_j)`` of Eq. 3),
- link adjacency (the GL graph of Eq. 1).

The corpus is append-only while building and is usually constructed via
:class:`repro.data.builders.CorpusBuilder`; ``validate()`` (called by
``freeze()``) checks referential integrity once instead of on every
lookup.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator

from repro.data.entities import Blogger, Comment, Link, Post
from repro.errors import CorpusError

__all__ = ["BlogCorpus", "CorpusStats"]


class CorpusStats:
    """Summary statistics of a corpus, printed by tools and benches."""

    def __init__(self, corpus: "BlogCorpus") -> None:
        self.num_bloggers = len(corpus.bloggers)
        self.num_posts = len(corpus.posts)
        self.num_comments = len(corpus.comments)
        self.num_links = len(corpus.links)
        self.posts_per_blogger = (
            self.num_posts / self.num_bloggers if self.num_bloggers else 0.0
        )
        self.comments_per_post = (
            self.num_comments / self.num_posts if self.num_posts else 0.0
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CorpusStats(bloggers={self.num_bloggers}, posts={self.num_posts}, "
            f"comments={self.num_comments}, links={self.num_links})"
        )


class BlogCorpus:
    """An indexed collection of bloggers, posts, comments and links.

    Entities may be added in any order; referential integrity is checked
    by :meth:`validate` / :meth:`freeze`, so a crawler can stream pages
    in whatever order the frontier yields them.

    Examples
    --------
    >>> corpus = BlogCorpus()
    >>> corpus.add_blogger(Blogger("amery"))
    >>> corpus.add_post(Post("p1", "amery", body="hello world"))
    >>> corpus.freeze()
    >>> corpus.posts_by("amery")[0].post_id
    'p1'
    """

    def __init__(self) -> None:
        self._bloggers: dict[str, Blogger] = {}
        self._posts: dict[str, Post] = {}
        self._comments: dict[str, Comment] = {}
        self._links: list[Link] = []
        self._link_keys: set[tuple[str, str]] = set()
        self._posts_by_author: dict[str, list[Post]] = defaultdict(list)
        self._comments_on_post: dict[str, list[Comment]] = defaultdict(list)
        self._comments_by_commenter: dict[str, list[Comment]] = defaultdict(list)
        self._out_links: dict[str, list[Link]] = defaultdict(list)
        self._in_links: dict[str, list[Link]] = defaultdict(list)
        self._frozen = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _check_mutable(self) -> None:
        if self._frozen:
            raise CorpusError("corpus is frozen; build a new one to modify")

    def add_blogger(self, blogger: Blogger) -> None:
        """Register a blogger; duplicate ids are rejected."""
        self._check_mutable()
        if blogger.blogger_id in self._bloggers:
            raise CorpusError(f"duplicate blogger id {blogger.blogger_id!r}")
        self._bloggers[blogger.blogger_id] = blogger

    def add_post(self, post: Post) -> None:
        """Register a post; duplicate ids are rejected."""
        self._check_mutable()
        if post.post_id in self._posts:
            raise CorpusError(f"duplicate post id {post.post_id!r}")
        self._posts[post.post_id] = post
        self._posts_by_author[post.author_id].append(post)

    def add_comment(self, comment: Comment) -> None:
        """Register a comment; duplicate ids are rejected."""
        self._check_mutable()
        if comment.comment_id in self._comments:
            raise CorpusError(f"duplicate comment id {comment.comment_id!r}")
        self._comments[comment.comment_id] = comment
        self._comments_on_post[comment.post_id].append(comment)
        self._comments_by_commenter[comment.commenter_id].append(comment)

    def add_link(self, link: Link) -> None:
        """Register a blogger-to-blogger link; parallel links merge weight."""
        self._check_mutable()
        key = (link.source_id, link.target_id)
        if key in self._link_keys:
            # Parallel links add up: two endorsements count double.
            for i, existing in enumerate(self._links):
                if (existing.source_id, existing.target_id) == key:
                    merged = Link(link.source_id, link.target_id,
                                  existing.weight + link.weight)
                    self._links[i] = merged
                    self._rebuild_link_index()
                    return
        self._link_keys.add(key)
        self._links.append(link)
        self._out_links[link.source_id].append(link)
        self._in_links[link.target_id].append(link)

    def _rebuild_link_index(self) -> None:
        self._out_links = defaultdict(list)
        self._in_links = defaultdict(list)
        for link in self._links:
            self._out_links[link.source_id].append(link)
            self._in_links[link.target_id].append(link)

    def extend(
        self,
        bloggers: Iterable[Blogger] = (),
        posts: Iterable[Post] = (),
        comments: Iterable[Comment] = (),
        links: Iterable[Link] = (),
    ) -> None:
        """Bulk-add entities of each kind."""
        for blogger in bloggers:
            self.add_blogger(blogger)
        for post in posts:
            self.add_post(post)
        for comment in comments:
            self.add_comment(comment)
        for link in links:
            self.add_link(link)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check referential integrity; raise :class:`CorpusError` if broken."""
        for post in self._posts.values():
            if post.author_id not in self._bloggers:
                raise CorpusError(
                    f"post {post.post_id!r} authored by unknown blogger "
                    f"{post.author_id!r}"
                )
        for comment in self._comments.values():
            if comment.post_id not in self._posts:
                raise CorpusError(
                    f"comment {comment.comment_id!r} targets unknown post "
                    f"{comment.post_id!r}"
                )
            if comment.commenter_id not in self._bloggers:
                raise CorpusError(
                    f"comment {comment.comment_id!r} written by unknown blogger "
                    f"{comment.commenter_id!r}"
                )
        for link in self._links:
            for endpoint in (link.source_id, link.target_id):
                if endpoint not in self._bloggers:
                    raise CorpusError(
                        f"link ({link.source_id!r} -> {link.target_id!r}) "
                        f"references unknown blogger {endpoint!r}"
                    )

    def freeze(self) -> "BlogCorpus":
        """Validate and mark the corpus read-only.  Returns ``self``."""
        self.validate()
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        """Whether :meth:`freeze` has been called."""
        return self._frozen

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    @property
    def bloggers(self) -> dict[str, Blogger]:
        """Bloggers by id (do not mutate)."""
        return self._bloggers

    @property
    def posts(self) -> dict[str, Post]:
        """Posts by id (do not mutate)."""
        return self._posts

    @property
    def comments(self) -> dict[str, Comment]:
        """Comments by id (do not mutate)."""
        return self._comments

    @property
    def links(self) -> list[Link]:
        """All blogger-to-blogger links (do not mutate)."""
        return self._links

    def blogger(self, blogger_id: str) -> Blogger:
        """Fetch one blogger or raise :class:`CorpusError`."""
        try:
            return self._bloggers[blogger_id]
        except KeyError:
            raise CorpusError(f"unknown blogger {blogger_id!r}") from None

    def post(self, post_id: str) -> Post:
        """Fetch one post or raise :class:`CorpusError`."""
        try:
            return self._posts[post_id]
        except KeyError:
            raise CorpusError(f"unknown post {post_id!r}") from None

    def post_author_id(self, post_id: str) -> str:
        """The author id of one post or raise :class:`CorpusError`."""
        return self.post(post_id).author_id

    def posts_by(self, blogger_id: str) -> list[Post]:
        """All posts written by a blogger (``P(b_i)``), possibly empty."""
        return list(self._posts_by_author.get(blogger_id, ()))

    def comments_on(self, post_id: str) -> list[Comment]:
        """All comments on a post (``C(b_i, d_k)``), possibly empty."""
        return list(self._comments_on_post.get(post_id, ()))

    def num_comments_on(self, post_id: str) -> int:
        """``len(comments_on(post_id))`` without copying the list."""
        return len(self._comments_on_post.get(post_id, ()))

    def comments_by(self, blogger_id: str) -> list[Comment]:
        """All comments written by a blogger, possibly empty."""
        return list(self._comments_by_commenter.get(blogger_id, ()))

    def total_comments_by(self, blogger_id: str) -> int:
        """``TC(b_j)``: total number of comments blogger j has written."""
        return len(self._comments_by_commenter.get(blogger_id, ()))

    def out_links(self, blogger_id: str) -> list[Link]:
        """Links the blogger makes to others."""
        return list(self._out_links.get(blogger_id, ()))

    def in_links(self, blogger_id: str) -> list[Link]:
        """Links others make to the blogger."""
        return list(self._in_links.get(blogger_id, ()))

    def blogger_ids(self) -> list[str]:
        """All blogger ids in deterministic (sorted) order."""
        return sorted(self._bloggers)

    def stats(self) -> CorpusStats:
        """Summary counts for reporting."""
        return CorpusStats(self)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def subset(self, blogger_ids: Iterable[str]) -> "BlogCorpus":
        """Induced sub-corpus on a blogger set.

        Keeps the posts of retained bloggers, comments written *by*
        retained bloggers *on* retained posts, and links with both
        endpoints retained.  Used by the demo's "find influencers in my
        friend network" mode.
        """
        keep = set(blogger_ids)
        unknown = keep - set(self._bloggers)
        if unknown:
            raise CorpusError(f"subset references unknown bloggers: {sorted(unknown)}")
        sub = BlogCorpus()
        for blogger_id in sorted(keep):
            sub.add_blogger(self._bloggers[blogger_id])
        for post in sorted(self._posts.values(), key=lambda p: p.post_id):
            if post.author_id in keep:
                sub.add_post(post)
        for comment in sorted(self._comments.values(), key=lambda c: c.comment_id):
            if comment.commenter_id in keep and comment.post_id in sub._posts:
                sub.add_comment(comment)
        for link in self._links:
            if link.source_id in keep and link.target_id in keep:
                sub.add_link(link)
        return sub

    def time_slice(self, start_day: int, end_day: int) -> "BlogCorpus":
        """The corpus restricted to activity in ``[start_day, end_day)``.

        Keeps every blogger and every (undated) link, but only posts
        created in the window and comments written in the window on
        those posts.  This is how "recent posts" analyses (the paper
        crawls "40000 recent posts") and influence trajectories slice
        the data.
        """
        if end_day <= start_day:
            raise CorpusError(
                f"empty window: start_day={start_day} end_day={end_day}"
            )
        sliced = BlogCorpus()
        for blogger_id in self.blogger_ids():
            sliced.add_blogger(self._bloggers[blogger_id])
        kept_posts = set()
        for post in sorted(self._posts.values(), key=lambda p: p.post_id):
            if start_day <= post.created_day < end_day:
                sliced.add_post(post)
                kept_posts.add(post.post_id)
        for comment in sorted(self._comments.values(),
                              key=lambda c: c.comment_id):
            if (
                comment.post_id in kept_posts
                and start_day <= comment.created_day < end_day
            ):
                sliced.add_comment(comment)
        for link in self._links:
            sliced.add_link(link)
        return sliced

    def __len__(self) -> int:
        return len(self._bloggers)

    def __iter__(self) -> Iterator[Blogger]:
        for blogger_id in self.blogger_ids():
            yield self._bloggers[blogger_id]

    def __contains__(self, blogger_id: object) -> bool:
        return blogger_id in self._bloggers

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats()
        return (
            f"BlogCorpus(bloggers={stats.num_bloggers}, posts={stats.num_posts}, "
            f"comments={stats.num_comments}, links={stats.num_links}, "
            f"frozen={self._frozen})"
        )
