"""Adversarial manipulations of a blogosphere.

Why this module exists: the MASS comment model divides each comment's
contribution by the commenter's *total* comment count (Eq. 3, "one
commenter may put multiple comments on other blogger's posts, and
his/her impact to peers should be shared").  That normalization is a
defence — without it, a handful of sock-puppet accounts spamming
positive comments can buy arbitrary influence.  Likewise, link-count
authority (the Live Index comparator) can be bought with a link farm.

These injectors build attacked copies of a corpus so the robustness
bench can measure exactly how much rank each attack buys under each
system:

- :func:`inject_comment_spam` — sock puppets shower one blogger's posts
  with positive comments;
- :func:`inject_link_farm` — satellite accounts all link to one blogger.

Both return a *new* frozen corpus; the original is never mutated.
"""

from __future__ import annotations

import random

from repro.data.corpus import BlogCorpus
from repro.data.entities import Blogger, Comment, Link
from repro.errors import ParameterError
from repro.nlp.sentiment import Sentiment
from repro.synth.textgen import TextGenerator

__all__ = ["inject_comment_spam", "inject_link_farm"]


def inject_comment_spam(
    corpus: BlogCorpus,
    target_id: str,
    num_spammers: int = 5,
    comments_each: int = 20,
    seed: int = 0,
    domain: str = "Sports",
) -> BlogCorpus:
    """Sock puppets spam positive comments onto ``target_id``'s posts.

    Each spammer account is fresh (no posts, no other comments), so all
    of its ``comments_each`` comments land on the target — the worst
    case for count-based comment scoring, and precisely the case the
    paper's TC normalization caps.

    Raises :class:`ParameterError` if the target has no posts (nothing
    to spam).
    """
    if num_spammers < 1 or comments_each < 1:
        raise ParameterError(
            "num_spammers and comments_each must be >= 1"
        )
    posts = corpus.posts_by(target_id)
    if not posts:
        raise ParameterError(
            f"target {target_id!r} has no posts to spam"
        )
    rng = random.Random(seed)
    text = TextGenerator(random.Random(seed))
    attacked = corpus.subset(corpus.blogger_ids())
    for index in range(num_spammers):
        spammer_id = f"spammer-{target_id}-{index:03d}"
        attacked.add_blogger(
            Blogger(spammer_id, name=f"spam bot {index}")
        )
        for sequence in range(comments_each):
            post = posts[sequence % len(posts)]
            attacked.add_comment(
                Comment(
                    f"spam-{target_id}-{index:03d}-{sequence:04d}",
                    post.post_id,
                    spammer_id,
                    text=text.comment_text(Sentiment.POSITIVE, domain),
                    created_day=post.created_day + rng.randint(0, 5),
                )
            )
    return attacked.freeze()


def inject_link_farm(
    corpus: BlogCorpus,
    target_id: str,
    num_satellites: int = 50,
    seed: int = 0,
) -> BlogCorpus:
    """Satellite accounts that exist only to link to ``target_id``.

    A pure in-link-count authority (Live Index) is fully gamed by this;
    PageRank is partially robust because the satellites have no rank of
    their own to pass.
    """
    if num_satellites < 1:
        raise ParameterError("num_satellites must be >= 1")
    if target_id not in corpus:
        raise ParameterError(f"unknown target {target_id!r}")
    attacked = corpus.subset(corpus.blogger_ids())
    for index in range(num_satellites):
        satellite_id = f"satellite-{target_id}-{index:03d}"
        attacked.add_blogger(
            Blogger(satellite_id, name=f"link farm {index}")
        )
        attacked.add_link(Link(satellite_id, target_id))
    return attacked.freeze()
