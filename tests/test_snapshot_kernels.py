"""Property suite: the snapshot compiles alike on both sort kernels.

:meth:`~repro.serve.InfluenceSnapshot.compile` sorts its rankings and
its top-post CSR with numpy when the sparse solver's kernel is numpy
and with Python sorts otherwise.  Here one report is compiled under
``REPRO_SPARSE_KERNEL=numpy`` and ``=python`` and every column, the
top-post ids and the epoch must be equal, on the random corpora of
``tests/test_snapshot_columns.py`` and on the edge cases: an empty
corpus, a single blogger, bloggers without posts, posts of equal
influence, and forty bloggers tied on every score (an unstable numpy
sort may keep a short tie in order, so only a long one tests
stability).  Every answer goes through ``json.dumps``, so a numpy
scalar leaking into a profile would raise here.
"""

import json
import pickle
from array import array

import pytest
from hypothesis import example, given, settings

from repro.core import MassParameters
from repro.core.domains import DomainInfluence
from repro.core.report import InfluenceReport
from repro.core.solver import InfluenceScores
from repro.data import BlogCorpus, Blogger, Comment, Post
from repro.serve import InfluenceSnapshot
from tests.test_snapshot_columns import analyses

pytest.importorskip("numpy")


def _report(posts: dict[str, list[float]]) -> InfluenceReport:
    """A report whose bloggers wrote posts of the given influences.

    Every blogger scores 0.5 (so the rankings tie throughout) and each
    post gets one comment per earlier post of its author.
    """
    domains = ["Sports", "Art"]
    corpus = BlogCorpus()
    post_influence = {}
    memberships = {}
    for blogger_id, scores in posts.items():
        corpus.add_blogger(Blogger(blogger_id, name=f"N {blogger_id}"))
        for number, score in enumerate(scores):
            post_id = f"{blogger_id}-p{number}"
            corpus.add_post(Post(post_id, blogger_id, body="text"))
            for comment in range(number):
                corpus.add_comment(Comment(
                    f"{post_id}-c{comment}", post_id, blogger_id,
                    text="nice",
                ))
            post_influence[post_id] = score
            memberships[post_id] = {"Sports": 0.5, "Art": 0.5}
    corpus.freeze()
    flat = dict.fromkeys(posts, 0.5)
    scores = InfluenceScores(
        influence=flat, post_influence=post_influence, ap=flat, gl=flat,
        quality={}, comment_score={},
        iterations=1, converged=True, residual=0.0,
    )
    domain_influence = DomainInfluence(corpus, scores, memberships, domains)
    return InfluenceReport(corpus, MassParameters(), scores, domain_influence)


def _compile(report: InfluenceReport, kernel: str) -> InfluenceSnapshot:
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_SPARSE_KERNEL", kernel)
        return InfluenceSnapshot.compile(
            report, created_at=0.0, created_monotonic=0.0
        )


def _answers(snapshot: InfluenceSnapshot) -> list[str]:
    out = [json.dumps(snapshot.top(len(snapshot.blogger_ids) + 1, domain))
           for domain in (None, *snapshot.domains)]
    out.extend(json.dumps(snapshot.profile(blogger_id))
               for blogger_id in snapshot.blogger_ids)
    return out


@settings(max_examples=100, deadline=None)
@given(analyses().map(lambda analysis: analysis[0]))
@example(_report({}))
@example(_report({"solo": [0.3, 0.1, 0.3, 0.2]}))
@example(_report({"a": [], "b": [0.2], "c": [], "d": []}))
@example(_report({"a": [0.1] * 5, "b": [0.1] * 2, "c": [0.1] * 4}))
@example(_report({f"b{row:02d}": [0.1] * (row % 4) for row in range(40)}))
def test_numpy_and_python_sorts_compile_alike(report):
    on_numpy = _compile(report, "numpy")
    on_python = _compile(report, "python")
    numpy_state = pickle.loads(on_numpy.to_payload())
    python_state = pickle.loads(on_python.to_payload())
    assert numpy_state["columns"] == python_state["columns"]
    assert numpy_state["top_post_ids"] == python_state["top_post_ids"]
    assert on_numpy.epoch == on_python.epoch
    assert numpy_state == python_state
    for snapshot in (on_numpy, on_python):
        assert all(
            type(getattr(snapshot, f"_{name}")) is array
            for name in numpy_state["columns"]
        )
    assert _answers(on_numpy) == _answers(on_python)
