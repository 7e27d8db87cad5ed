"""The cold fit as a staged sequence of the program's public calls.

:func:`staged_fit` reproduces ``MassModel.fit`` followed by
``InfluenceSnapshot.compile`` one layer at a time, so that a span
around each call attributes the fit to the module doing the work.  The
sequence must land on the facade's epoch; the cold-fit workload checks
that it does.
"""

from __future__ import annotations

from repro.core.comments import CommentModel
from repro.core.domains import DomainInfluence
from repro.core.parameters import MassParameters
from repro.core.quality import QualityScorer
from repro.core.report import InfluenceReport
from repro.core.solver import InfluenceScores, compute_gl_scores
from repro.core.assemble import compile_system
from repro.core.sparse_solver import evaluate_posts, jacobi_solve
from repro.data.xml_store import open_corpus
from repro.serve import InfluenceSnapshot


def staged_fit(source, classifier, rec, sentiment_cache=None):
    """Load ``source`` and fit it layer by layer under ``rec`` spans.

    Returns ``(corpus, report, snapshot)``.  ``sentiment_cache`` is
    handed to the comment model so a later solve of the same corpus can
    skip sentiment analysis.
    """
    params = MassParameters()
    if params.decay_active or params.resolved_solver_backend() != "sparse":
        raise RuntimeError("staged fit reproduces the default parameters")
    with rec.span("xml_store.open_corpus"):
        corpus = open_corpus(source)
    if not corpus.frozen:
        corpus.validate()
    post_ids = sorted(corpus.posts)
    with rec.span("compute_gl_scores"):
        gl = compute_gl_scores(corpus, params)
    with rec.span("CommentModel", comments=len(corpus.comments)):
        comments = CommentModel(corpus, params,
                                sentiment_cache=sentiment_cache)
        comments.sentiment_distribution()
    with rec.span("QualityScorer", posts=len(post_ids)):
        scorer = QualityScorer(params, None, corpus.posts.values())
        quality = {
            post_id: scorer.score(corpus.post(post_id))
            for post_id in post_ids
        }
    with rec.span("compile_system") as span:
        compiled = compile_system(corpus, params, comments, quality, gl)
        span["counts"]["nnz"] = compiled.nnz
    with rec.span("jacobi_solve") as span:
        solution = jacobi_solve(
            compiled, params.tolerance, params.max_iterations
        )
        span["counts"]["sweeps"] = solution.iterations
    with rec.span("evaluate_posts"):
        comment_list, post_list, ap_list = evaluate_posts(
            compiled, solution.influence
        )
    bloggers = corpus.blogger_ids()
    scores = InfluenceScores(
        influence=dict(zip(compiled.blogger_ids, solution.influence)),
        post_influence=dict(zip(compiled.post_ids, post_list)),
        ap=dict(zip(compiled.blogger_ids, ap_list)),
        gl={blogger_id: gl.get(blogger_id, 0.0) for blogger_id in bloggers},
        quality=quality,
        comment_score=dict(zip(compiled.post_ids, comment_list)),
        iterations=solution.iterations,
        converged=solution.converged,
        residual=solution.residual,
        backend="sparse",
    )
    with rec.span("NaiveBayesClassifier.predict_proba",
                  posts=len(post_ids)):
        memberships = {
            post_id: classifier.predict_proba(corpus.post(post_id).text)
            for post_id in post_ids
        }
    with rec.span("DomainInfluence"):
        domains = DomainInfluence(
            corpus, scores, memberships, classifier.classes
        )
    report = InfluenceReport(corpus, params, scores, domains)
    with rec.span("InfluenceSnapshot.compile") as span:
        snapshot = InfluenceSnapshot.compile(report)
    return corpus, report, snapshot
