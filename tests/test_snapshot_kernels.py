"""Property suite: the snapshot compiles and answers alike on both kernels.

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

The Eq. 5 kernel (:func:`repro.core.domains.weighted_sums` and
:func:`~repro.core.domains.weighted_top`) must answer ``query`` and
``weighted_scores`` with the same reprs on both kernels, as ``top_k``
over the scores would, with plain Python floats: on the same random
corpora, across long ties at the page boundary, at ``offset + k``
equal to and beyond the population, for one blogger and for none.
Each score adds its terms left to right from ``0.0``, which a
``sum()``-based kernel does not do on Python 3.12.
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
from repro.core.topk import top_k
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


KERNELS = ("numpy", "python")


def _rows_report(rows: dict[str, list[float]],
                 domains: list[str]) -> InfluenceReport:
    """A report whose bloggers' domain scores are exactly ``rows``.

    Each blogger wrote one post of influence 1.0 whose memberships are
    its row, and every blogger scores 0.5 overall.
    """
    corpus = BlogCorpus()
    memberships = {}
    for blogger_id, row in rows.items():
        corpus.add_blogger(Blogger(blogger_id))
        corpus.add_post(Post(f"{blogger_id}-p", blogger_id, body="text"))
        memberships[f"{blogger_id}-p"] = dict(zip(domains, row))
    corpus.freeze()
    flat = dict.fromkeys(rows, 0.5)
    scores = InfluenceScores(
        influence=flat, post_influence=dict.fromkeys(memberships, 1.0),
        ap=flat, gl=flat, quality={}, comment_score={},
        iterations=1, converged=True, residual=0.0,
    )
    domain_influence = DomainInfluence(corpus, scores, memberships, domains)
    return InfluenceReport(corpus, MassParameters(), scores, domain_influence)


def _eq5_answers(snapshot: InfluenceSnapshot, weight_sets,
                 kernel: str) -> list[str]:
    """The reprs of every composite answer on ``kernel``, many pages each.

    Each page must equal ``top_k`` over the same kernel's scores, and
    every score must be a plain ``float``.
    """
    n = snapshot.num_bloggers
    pages = sorted({
        (k, offset)
        for k in (1, 2, 3, 5, n - 1, n, n + 1)
        for offset in (0, 1, 2, 7, n - 2, n - 1, n, n + 3)
        if k >= 1 and offset >= 0
    })
    out = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_SPARSE_KERNEL", kernel)
        for weights in weight_sets:
            scores = snapshot.weighted_scores(weights)
            assert list(scores) == list(snapshot.blogger_ids)
            assert all(type(score) is float for score in scores.values())
            out.append(repr(scores))
            for k, offset in pages:
                answer = snapshot.query(weights, k, offset)
                assert answer == top_k(scores, offset + k)[offset:]
                assert all(type(score) is float for _, score in answer)
                out.append(repr(answer))
    return out


@settings(max_examples=100, deadline=None)
@given(analyses())
def test_numpy_and_python_eq5_kernels_answer_alike(analysis):
    report, weight_sets = analysis
    snapshot = InfluenceSnapshot.compile(report)
    on_numpy = _eq5_answers(snapshot, weight_sets, "numpy")
    assert on_numpy == _eq5_answers(snapshot, weight_sets, "python")
    for kernel in KERNELS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_SPARSE_KERNEL", kernel)
            for weights in weight_sets:
                assert repr(report.domain_influence.weighted_scores(
                    weights
                )) == repr(snapshot.weighted_scores(weights))


def test_long_ties_across_the_page_boundary():
    rows = {f"b{row:02d}": [0.5, 0.5] for row in range(40)}
    rows.update({"b05": [2.0, 1.0], "b17": [1.0, 2.0], "b30": [0.0, 0.25]})
    snapshot = InfluenceSnapshot.compile(
        _rows_report(rows, ["Art", "Sports"])
    )
    weight_sets = [{"Art": 1.0, "Sports": 1.0}, {"Sports": 0.5}]
    on_numpy = _eq5_answers(snapshot, weight_sets, "numpy")
    assert on_numpy == _eq5_answers(snapshot, weight_sets, "python")
    with pytest.MonkeyPatch.context() as patch:
        for kernel in KERNELS:
            patch.setenv("REPRO_SPARSE_KERNEL", kernel)
            # A tie at 3.0, then 37 tied at 1.0, each in id order.
            assert snapshot.query(weight_sets[0], 4, 1) == [
                ("b17", 3.0), ("b00", 1.0), ("b01", 1.0), ("b02", 1.0),
            ]
            assert snapshot.query(weight_sets[0], 3, 37) == [
                ("b38", 1.0), ("b39", 1.0), ("b30", 0.25),
            ]


@pytest.mark.parametrize("kernel", KERNELS)
def test_one_blogger_and_an_empty_snapshot(kernel):
    solo = InfluenceSnapshot.compile(
        _rows_report({"solo": [0.3, 0.7]}, ["Art", "Sports"])
    )
    empty = InfluenceSnapshot.compile(_report({}))
    weights = {"Art": 2.0, "Sports": 1.0}
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_SPARSE_KERNEL", kernel)
        score = (0.0 + 0.3 * 2.0) + 0.7 * 1.0
        assert solo.weighted_scores(weights) == {"solo": score}
        for k in (1, 3):
            assert solo.query(weights, k) == [("solo", score)]
        assert solo.query(weights, 1, offset=1) == []
        assert empty.weighted_scores(weights) == {}
        assert empty.query(weights, 3) == []
        assert empty.query(weights, 1, offset=2) == []


@pytest.mark.parametrize("kernel", KERNELS)
def test_terms_add_left_to_right_from_zero(kernel):
    """``sum()`` is compensated from Python 3.12 and would answer
    10000000000000002.0 here; Eq. 5 adds left to right."""
    # Rows in classifier order c, b, a; the terms add in sorted order
    # a, b, c: 1e16, then 1.0 twice.
    snapshot = InfluenceSnapshot.compile(_rows_report(
        {"big": [1.0, 1.0, 1e16], "small": [1.0, 1.0, 0.0]},
        ["c", "b", "a"],
    ))
    weights = {"c": 1.0, "b": 1.0, "a": 1.0}
    expected = ((0.0 + 1e16) + 1.0) + 1.0
    assert expected == 1e16
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_SPARSE_KERNEL", kernel)
        assert snapshot.weighted_scores(weights)["big"] == expected
        assert snapshot.query(weights, 1) == [("big", expected)]
