"""Property suite: the columnar snapshot answers as the per-blogger one did.

:class:`~repro.serve.InfluenceSnapshot` holds its analysis as array
columns and renders profiles on request.  This suite keeps a test-local
copy of the object compile it replaced — profiles from
:meth:`InfluenceReport.blogger_detail`, rankings from
:class:`~repro.core.topk.RankedScores`, a dict of row tuples and a
per-item hash of the format-2 epoch stream — and requires every served
answer to serialize to the same JSON bytes, on random corpora built to
hit the tie-breaks:

- bloggers with 0, 1, 2, 3 and more posts;
- posts of equal influence, so the post-id tie-break picks the top posts;
- equal and all-zero domain scores (and ``-0.0`` influences), so the
  blogger-id tie-break orders the rankings;
- 1–4 domains, in a random classifier order.

The same bytes must come back after ``from_payload(to_payload())``,
after a :class:`~repro.serve.shm.SnapshotArena` publish and read, and
from a compile over the same corpus opened as a ``.mcol`` file.  Every
answer goes through ``json.dumps``, so a profile holding a numpy scalar
would raise here.  The epoch must also move with every float bit of
its columns and tell apart ids that only concatenate alike.
"""

import hashlib
import json
import math
import struct
import tempfile
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MassParameters
from repro.core.domains import DomainInfluence
from repro.core.report import InfluenceReport
from repro.core.solver import InfluenceScores
from repro.core.topk import top_k
from repro.data import BlogCorpus, Blogger, Comment, Post
from repro.serve import InfluenceSnapshot
from repro.serve.shm import SnapshotArena
from repro.serve.snapshot import _content_epoch
from repro.store import ColumnarCorpus, write_corpus

DOMAINS = ["Art", "Sports", "Travel", "Économie"]
#: Small value pools, so equal scores are common.
INFLUENCE = [0.0, -0.0, 0.25, 0.5, 0.5, 1.0, 2.0 / 3.0]
POST_INFLUENCE = [0.0, 0.1, 0.1, 0.3, 1.0 / 7.0]
MEMBERSHIP = [0.0, 0.0, 0.5, 1.0, 0.2]


def _framed(text):
    """A string as the epoch stream frames it: byte length, then UTF-8."""
    raw = text.encode("utf-8")
    return struct.pack("<Q", len(raw)) + raw


def _counted(strings):
    """A string sequence as the epoch stream frames it."""
    return [struct.pack("<Q", len(strings)), *map(_framed, strings)]


def format2_epoch(fingerprint, domains, blogger_ids, influence, rows):
    """Epoch format 2, hashed piece by piece.

    ``influence`` maps each id to its score and ``rows`` to its domain
    row; every float is packed on its own with ``struct.pack("<d")``.
    """
    digest = hashlib.sha256(b"repro-snapshot-epoch\x00\x02")
    digest.update(_framed(fingerprint))
    for piece in (*_counted(domains), *_counted(blogger_ids)):
        digest.update(piece)
    for blogger_id in blogger_ids:
        digest.update(struct.pack("<d", influence[blogger_id]))
    for blogger_id in blogger_ids:
        for value in rows[blogger_id]:
            digest.update(struct.pack("<d", value))
    return digest.hexdigest()


class ObjectSnapshot:
    """The per-blogger compile the columnar snapshot replaced."""

    def __init__(self, report: InfluenceReport) -> None:
        self.domains = tuple(report.domains)
        influence = report.general_scores()
        self.blogger_ids = tuple(sorted(influence))
        domain_influence = report.domain_influence
        self.rows = {
            blogger_id: tuple(
                domain_influence.vector(blogger_id)[domain]
                for domain in self.domains
            )
            for blogger_id in self.blogger_ids
        }
        self.general = tuple(report.general_ranked().ranking())
        self.by_domain = {
            domain: tuple(domain_influence.ranked(domain).ranking())
            for domain in self.domains
        }
        self.profiles = {}
        for blogger_id in self.blogger_ids:
            detail = report.blogger_detail(blogger_id)
            self.profiles[blogger_id] = {
                "blogger_id": detail.blogger_id,
                "name": detail.name,
                "influence": detail.influence,
                "ap": detail.ap,
                "gl": detail.gl,
                "num_posts": detail.num_posts,
                "num_comments_received": detail.num_comments_received,
                "num_comments_written": detail.num_comments_written,
                "domain_scores": dict(detail.domain_scores),
                "top_posts": [list(pair) for pair in detail.top_posts],
            }
        stats = report.corpus.stats()
        self.corpus_stats = {
            "bloggers": stats.num_bloggers,
            "posts": stats.num_posts,
            "comments": stats.num_comments,
            "links": stats.num_links,
        }
        self.epoch = format2_epoch(
            report.params.fingerprint(), self.domains, self.blogger_ids,
            influence, self.rows,
        )

    def top(self, k, domain=None, offset=0):
        ranking = self.general if domain is None else self.by_domain[domain]
        return list(ranking[offset:offset + k])

    def weighted_scores(self, weights):
        index = {domain: i for i, domain in enumerate(self.domains)}
        terms = [(index[domain], float(weights[domain]))
                 for domain in sorted(weights)]
        scores = {}
        for blogger_id in self.blogger_ids:
            # From 0.0, left to right: ``sum()`` compensates from 3.12.
            score = 0.0
            for i, weight in terms:
                score += self.rows[blogger_id][i] * weight
            scores[blogger_id] = score
        return scores

    def query(self, weights, k, offset=0):
        return top_k(self.weighted_scores(weights), offset + k)[offset:]

    def profile(self, blogger_id):
        return self.profiles[blogger_id]

    def stats(self):
        return self.corpus_stats


def _answers(snapshot, weight_sets) -> list[str]:
    """Every answer of ``snapshot``, each as JSON text."""
    n = len(snapshot.blogger_ids)
    out = [json.dumps([snapshot.epoch, snapshot.stats()])]
    for domain in (None, *snapshot.domains):
        for k in range(1, n + 2):
            for offset in range(n + 2):
                out.append(json.dumps(snapshot.top(k, domain, offset)))
    for blogger_id in snapshot.blogger_ids:
        out.append(json.dumps(snapshot.profile(blogger_id)))
    for weights in weight_sets:
        out.append(json.dumps(snapshot.weighted_scores(weights)))
        for k, offset in ((1, 0), (3, 1), (n + 1, 0)):
            out.append(json.dumps(snapshot.query(weights, k, offset)))
    return out


@st.composite
def analyses(draw):
    """A random corpus with hand-set scores and memberships."""
    num_domains = draw(st.integers(1, 4))
    domains = draw(st.permutations(DOMAINS))[:num_domains]
    names = draw(st.lists(
        st.text("abé-", min_size=1, max_size=4), min_size=1, max_size=7,
        unique=True,
    ))
    corpus = BlogCorpus()
    for blogger_id in names:
        corpus.add_blogger(Blogger(blogger_id, name=f"N {blogger_id}"))
    post_ids = []
    for blogger_id in names:
        for _ in range(draw(st.sampled_from([0, 1, 2, 3, 4, 6]))):
            post_id = f"p{draw(st.integers(0, 99)):02d}-{len(post_ids)}"
            corpus.add_post(Post(post_id, blogger_id, body="text"))
            post_ids.append(post_id)
    if post_ids:
        for number in range(draw(st.integers(0, 12))):
            corpus.add_comment(Comment(
                f"c{number}", draw(st.sampled_from(post_ids)),
                draw(st.sampled_from(names)), text="nice",
            ))
    corpus.freeze()

    def pick(pool, keys):
        return {key: draw(st.sampled_from(pool)) for key in keys}

    scores = InfluenceScores(
        influence=pick(INFLUENCE, names),
        post_influence=pick(POST_INFLUENCE, sorted(post_ids)),
        ap=pick(INFLUENCE, names),
        gl=pick(INFLUENCE, names),
        quality={}, comment_score={},
        iterations=1, converged=True, residual=0.0,
    )
    memberships = {
        post_id: pick(MEMBERSHIP, domains) for post_id in post_ids
    }
    domain_influence = DomainInfluence(corpus, scores, memberships, domains)
    report = InfluenceReport(
        corpus, MassParameters(), scores, domain_influence
    )
    weight_sets = draw(st.lists(
        st.dictionaries(
            st.sampled_from(domains),
            st.floats(0.01, 4.0, allow_nan=False), min_size=1,
        ),
        min_size=1, max_size=3,
    ))
    return report, weight_sets


@settings(max_examples=100, deadline=None)
@given(analyses())
def test_columns_answer_as_the_object_compile(analysis):
    report, weight_sets = analysis
    expected = _answers(ObjectSnapshot(report), weight_sets)
    snapshot = InfluenceSnapshot.compile(report)
    assert _answers(snapshot, weight_sets) == expected

    replica = InfluenceSnapshot.from_payload(snapshot.to_payload())
    assert _answers(replica, weight_sets) == expected

    arena = SnapshotArena(1 << 20)
    try:
        arena.publish(snapshot)
        _, attached, _ = arena.read()
    finally:
        arena.close()
    assert _answers(attached, weight_sets) == expected

    with tempfile.TemporaryDirectory() as scratch:
        path = write_corpus(report.corpus, Path(scratch) / "corpus.mcol")
        with ColumnarCorpus.open(path) as columnar:
            mapped = InfluenceReport(
                columnar, report.params, report.scores,
                DomainInfluence(
                    columnar, report.scores,
                    {post_id: report.domain_influence.post_membership(post_id)
                     for post_id in report.corpus.posts},
                    report.domains,
                ),
            )
            from_mcol = InfluenceSnapshot.compile(mapped)
            assert _answers(from_mcol, weight_sets) == expected


@st.composite
def epoch_inputs(draw):
    """Arguments of ``_content_epoch``: ids, domains and two columns."""
    domains = tuple(draw(st.permutations(DOMAINS))[:draw(st.integers(1, 4))])
    blogger_ids = tuple(sorted(draw(st.lists(
        st.text("abé-", min_size=1, max_size=4), min_size=1, max_size=5,
        unique=True,
    ))))
    values = st.sampled_from(INFLUENCE + MEMBERSHIP + [-1.5, 1e-300])
    influence = array("d", draw(st.lists(
        values, min_size=len(blogger_ids), max_size=len(blogger_ids),
    )))
    size = len(blogger_ids) * len(domains)
    domain_scores = array("d", draw(st.lists(
        values, min_size=size, max_size=size,
    )))
    return "f" * 16, domains, blogger_ids, influence, domain_scores


@settings(max_examples=50, deadline=None)
@given(epoch_inputs())
def test_epoch_is_the_oracle_stream(inputs):
    fingerprint, domains, blogger_ids, influence, domain_scores = inputs
    width = len(domains)
    rows = {
        blogger_id: domain_scores[row * width:(row + 1) * width]
        for row, blogger_id in enumerate(blogger_ids)
    }
    assert _content_epoch(*inputs) == format2_epoch(
        fingerprint, domains, blogger_ids,
        dict(zip(blogger_ids, influence)), rows,
    )


@settings(max_examples=50, deadline=None)
@given(epoch_inputs())
def test_epoch_moves_with_one_ulp_of_any_score(inputs):
    fingerprint, domains, blogger_ids, influence, domain_scores = inputs
    base = _content_epoch(*inputs)
    for position, column in ((3, influence), (4, domain_scores)):
        for index in range(len(column)):
            for toward in (math.inf, -math.inf):
                nudged = array("d", column)
                nudged[index] = math.nextafter(column[index], toward)
                changed = list(inputs)
                changed[position] = nudged
                assert _content_epoch(*changed) != base


@pytest.mark.parametrize("position", [3, 4])
def test_epoch_tells_signed_zeros_apart(position):
    inputs = ["f" * 16, ("Art",), ("a", "b"), array("d", [0.0, -0.0]),
              array("d", [0.0, -0.0])]
    swapped = list(inputs)
    swapped[position] = array("d", [-0.0, 0.0])
    assert _content_epoch(*swapped) != _content_epoch(*inputs)


@pytest.mark.parametrize("position", [1, 2])
def test_epoch_frames_each_string(position):
    inputs = ["f" * 16, ("x", "y"), ("p", "q"), array("d", [1.0, 2.0]),
              array("d", [0.5, 0.25, 0.125, 0.0625])]
    joined_left, joined_right = list(inputs), list(inputs)
    joined_left[position] = ("a", "bc")
    joined_right[position] = ("ab", "c")
    assert _content_epoch(*joined_left) != _content_epoch(*joined_right)
