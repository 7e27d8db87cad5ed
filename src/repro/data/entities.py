"""Core blogosphere entities: bloggers, posts, comments, and links.

These mirror the data model of Section II of the MASS paper: a set of
bloggers, each with posts; comments on posts written by (other)
bloggers; and blogger-to-blogger links ("when a person finds a blog
interesting, s/he may directly add a link to it") that feed the
General Links authority score.

All entities are immutable value objects.  Mutation happens at the
corpus level (see :mod:`repro.data.corpus`), never in place, which
keeps indexes trustworthy.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from repro.errors import CorpusError

__all__ = ["Blogger", "Post", "Comment", "Link"]


def _require_id(value: str, what: str) -> None:
    """Validate that an identifier is a non-empty string."""
    if not isinstance(value, str) or not value:
        raise CorpusError(f"{what} must be a non-empty string, got {value!r}")


def _require_day(value: int, what: str) -> None:
    """Validate that a day stamp is a non-negative integer."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise CorpusError(f"{what} must be a non-negative integer, got {value!r}")


def _require_weight(weight: float) -> None:
    """Validate that a link weight is a finite positive int or float."""
    # A bound rather than math.isfinite, so that an int too large for a
    # float is refused here instead of raising OverflowError.
    if not isinstance(weight, (int, float)) \
            or not 0 < weight <= sys.float_info.max:
        raise CorpusError(
            f"link weight must be a finite positive number, got {weight!r}"
        )


def _require_link(source_id: str, target_id: str, weight: float) -> None:
    """Validate one link: two distinct ids and a finite positive weight."""
    _require_id(source_id, "source_id")
    _require_id(target_id, "target_id")
    if source_id == target_id:
        raise CorpusError(f"self-link for blogger {source_id!r}")
    _require_weight(weight)


@dataclass(frozen=True, slots=True)
class Blogger:
    """A blogger account.

    Parameters
    ----------
    blogger_id:
        Unique identifier (the paper crawls MSN-space URLs; any opaque
        string works).
    name:
        Display name shown on visualization nodes (Fig. 4).
    profile_text:
        Free-text profile, mined for domain interests in the
        personalized-recommendation scenario.  May be empty.
    joined_day:
        Day offset at which the account was created; used only by the
        synthetic generator and activity statistics.
    """

    blogger_id: str
    name: str = ""
    profile_text: str = ""
    joined_day: int = 0

    def __post_init__(self) -> None:
        _require_id(self.blogger_id, "blogger_id")
        _require_day(self.joined_day, "joined_day")
        if not self.name:
            object.__setattr__(self, "name", self.blogger_id)


@dataclass(frozen=True, slots=True)
class Post:
    """A blog post written by a blogger.

    The post is the analysis unit of MASS ("since each post is domain
    specific, we choose 'post' as the analysis unit, rather than a
    blogger").

    Parameters
    ----------
    post_id:
        Unique identifier.
    author_id:
        ``blogger_id`` of the author.
    title / body:
        Post text.  Quality scoring uses the body length; domain
        classification uses title + body.
    created_day:
        Day offset of publication.
    """

    post_id: str
    author_id: str
    title: str = ""
    body: str = ""
    created_day: int = 0

    def __post_init__(self) -> None:
        _require_id(self.post_id, "post_id")
        _require_id(self.author_id, "author_id")
        _require_day(self.created_day, "created_day")

    @property
    def text(self) -> str:
        """Title and body joined, the unit fed to the Post Analyzer."""
        if self.title and self.body:
            return f"{self.title}\n{self.body}"
        return self.title or self.body


@dataclass(frozen=True, slots=True)
class Comment:
    """A comment left by a blogger on another blogger's post.

    Comments drive the CommentScore of Eq. 3: each comment contributes
    the commenter's influence, weighted by its sentiment factor and
    normalized by the commenter's total comment count.
    """

    comment_id: str
    post_id: str
    commenter_id: str
    text: str = ""
    created_day: int = 0

    def __post_init__(self) -> None:
        _require_id(self.comment_id, "comment_id")
        _require_id(self.post_id, "post_id")
        _require_id(self.commenter_id, "commenter_id")
        _require_day(self.created_day, "created_day")


@dataclass(frozen=True, slots=True)
class Link:
    """A directed blogger-to-blogger link (blogroll / external link).

    Links form the graph behind the General Links (GL) authority score,
    "like PageRank and HITS".  ``source_id`` links to ``target_id``,
    i.e. the source endorses the target.
    """

    source_id: str
    target_id: str
    weight: float = field(default=1.0)

    def __post_init__(self) -> None:
        _require_link(self.source_id, self.target_id, self.weight)
