"""Fixed-point solver for the MASS influence system (Eqs. 1–4).

The system couples every blogger's overall influence to their
commenters' influence:

    Inf(b_i)      = α · AP(b_i) + (1 − α) · GL(b_i)
    AP(b_i)       = Σ_k Inf(b_i, d_k)
    Inf(b_i, d_k) = β · Q(d_k) + (1 − β) · Σ_j Inf(b_j) · SF / TC(b_j)

Substituting, overall influence satisfies the linear fixed point
``x = c + A x`` with

    c_i = α · β · Σ_k Q(d_k)  +  (1 − α) · GL(b_i)
    A_ij = α · (1 − β) · Σ_{j's comments on i's posts} SF / TC(j).

When ``A`` is a contraction (see
:meth:`repro.core.parameters.MassParameters.contraction_bound`) plain
Jacobi iteration from ``x⁰ = c`` converges geometrically and the solver
runs in that mode.  When the citation ablation removes the TC divisor
the bound is void; CommentScore then no longer references influence at
all (it degenerates to sentiment-weighted comment counting), so the
"iteration" closes after one step.

Per-post influences Inf(b_i, d_k) — the inputs to the domain scores of
Eq. 5 — are evaluated once from the converged solution.

Two interchangeable backends run the iteration (selected by
``MassParameters.solver_backend``): the **reference** backend below
sweeps dict-of-dicts term lists and is the executable specification of
the equations; the **sparse** backend compiles the corpus into flat
CSR arrays (:mod:`repro.core.assemble`) and sweeps them as array
kernels (:mod:`repro.core.sparse_solver`).  The equivalence suite
holds the two to 1e-9 on every fixture.  All stage timing goes through
the :mod:`repro.obs` spans and histograms — ``solver`` wraps the fixed
point, with ``assemble`` / ``iterate`` / ``scatter`` children on the
sparse path.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from dataclasses import dataclass

from repro.core.assemble import AssemblyCache, compile_system
from repro.core.comments import CommentModel, corpus_horizon
from repro.core.novelty import NoveltyDetector
from repro.core.parameters import MassParameters
from repro.core.quality import QualityScorer
from repro.core.sparse_solver import evaluate_posts, jacobi_solve
from repro.core.texts import PostTextTable
from repro.data.corpus import BlogCorpus
from repro.errors import ConvergenceError
from repro.graph.hits import HitsResult, hits
from repro.graph.influence_graph import link_matrix
from repro.graph.pagerank import PageRankResult, pagerank
from repro.nlp.sentiment import SentimentClassifier
from repro.obs import NULL_INSTRUMENTATION, Instrumentation, get_logger

__all__ = [
    "EQUIVALENCE_TOLERANCE",
    "InfluenceScores",
    "InfluenceSolver",
    "compute_gl_scores",
]

_LOG = get_logger("solver")

#: The repo-wide backend-equivalence bound: every solver path (sparse,
#: reference, and a warm apply against a cold fit of the grown corpus)
#: must land within this of every other on the same corpus.
EQUIVALENCE_TOLERANCE = 1e-9


@dataclass(frozen=True, slots=True)
class InfluenceScores:
    """Converged influence assignment plus diagnostics.

    Attributes
    ----------
    influence:
        Inf(b) per blogger (Eq. 1).
    post_influence:
        Inf(b_i, d_k) per post id (Eq. 4).
    ap / gl:
        The two components of Eq. 1 per blogger.
    quality / comment_score:
        Per-post QualityScore and CommentScore at the fixed point.
    iterations / converged / residual:
        Solver diagnostics (residual is the final L1 step size).
    backend:
        Which solver implementation produced the scores
        (``"reference"`` or ``"sparse"``).
    """

    influence: dict[str, float]
    post_influence: dict[str, float]
    ap: dict[str, float]
    gl: dict[str, float]
    quality: dict[str, float]
    comment_score: dict[str, float]
    iterations: int
    converged: bool
    residual: float
    backend: str = "reference"


def compute_gl_scores(
    corpus: BlogCorpus,
    params: MassParameters,
    *,
    strict: bool = False,
    instrumentation: Instrumentation | None = None,
) -> dict[str, float]:
    """General Links authority per blogger under the configured backend.

    Every method reads one :class:`~repro.graph.csr.LinkMatrix`
    built straight from ``corpus.links`` (no graph of dicts).
    ``gl_normalization="mean"`` rescales so the population mean is 1,
    putting GL on the same order as AP; ``"sum"`` keeps the raw
    probability-distribution output (sums to 1).

    The iteration reports to ``instrumentation``: one ``{iterations,
    residual, converged}`` event on the innermost open span (the
    solver's ``gl``) and the ``repro_solver_gl_iterations`` gauge.  When
    PageRank or HITS stops at ``params.max_iterations`` above
    ``params.tolerance``, ``strict`` makes it raise
    :class:`ConvergenceError`; otherwise a warning is logged on
    ``repro.solver``, ``repro_solver_gl_non_converged_total`` counts it,
    and the last iterate is used.
    """
    matrix = link_matrix(corpus)
    if len(matrix) == 0:
        return {}
    result = None  # "inlinks" runs no iteration
    if params.gl_method == "pagerank":
        result = pagerank(
            matrix,
            damping=params.pagerank_damping,
            tolerance=params.tolerance,
            max_iterations=params.max_iterations,
            strict=strict,
        )
        scores = result.scores
    elif params.gl_method == "hits":
        result = hits(
            matrix,
            tolerance=params.tolerance,
            max_iterations=params.max_iterations,
            strict=strict,
        )
        scores = result.authorities
    else:  # "inlinks": each in-weight summed in the matrix's entry order
        counts = [0.0] * len(matrix)
        for target, weight in zip(matrix.col_idx, matrix.weights):
            counts[target] += weight
        total = sum(counts)
        if total == 0.0:
            # No links at all: authority is uniform.
            scores = {node: 1.0 / len(matrix) for node in matrix.nodes}
        else:
            scores = {
                node: value / total
                for node, value in zip(matrix.nodes, counts)
            }
    _report_gl_iteration(
        instrumentation or NULL_INSTRUMENTATION, params, result
    )
    if params.gl_normalization == "mean":
        mean = sum(scores.values()) / len(scores)
        if mean > 0:
            scores = {node: value / mean for node, value in scores.items()}
        else:
            # An all-zero authority vector (e.g. HITS over a linkless
            # graph) cannot be mean-normalized; fall back to uniform
            # authority (mean exactly 1) instead of silently returning
            # zeros that knock GL out of Eq. 1.
            _LOG.warning(
                "GL scores from %r are all zero for %d bloggers; "
                "falling back to uniform authority",
                params.gl_method, len(scores),
            )
            scores = {node: 1.0 for node in scores}
    return scores


def _report_gl_iteration(
    instrumentation: Instrumentation,
    params: MassParameters,
    result: PageRankResult | HitsResult | None,
) -> None:
    if result is None:
        iterations, converged, residual = 0, True, 0.0
    else:
        iterations, converged, residual = (
            result.iterations, result.converged, result.residual
        )
    span = instrumentation.tracer.current
    if span is not None:
        span.event(iterations=iterations, residual=residual,
                   converged=converged)
    metrics = instrumentation.metrics
    metrics.gauge(
        "repro_solver_gl_iterations", "Iterations of the last GL solve"
    ).set(iterations)
    if converged:
        return
    metrics.counter(
        "repro_solver_gl_non_converged_total",
        "GL solves stopped at the iteration cap",
    ).inc()
    # Worded apart from the influence iteration's "did not converge"
    # warning, which log scrapers and tests match on.
    _LOG.warning(
        "GL %s stopped at the iteration cap of %d with residual %.3e "
        "above tolerance %.1e; using its last iterate",
        params.gl_method, iterations, residual, params.tolerance,
    )


class InfluenceSolver:
    """Solve the influence system for one corpus.

    Parameters
    ----------
    corpus:
        A validated :class:`BlogCorpus` (freeze it first).
    params:
        Model parameters; defaults to the paper's.
    sentiment_classifier / novelty_detector:
        Optional analyzer overrides; default to the built-ins.
    instrumentation:
        Observability sinks (metrics + tracing); no-op when omitted.
    sentiment_cache:
        Optional comment-id → sentiment-breakdown cache handed to the
        :class:`CommentModel` so repeated solves over growing corpora
        only classify new comments.
    assembly_cache:
        Optional :class:`repro.core.assemble.AssemblyCache`; the sparse
        backend then reuses the previous compilation and re-assembles
        only dirty rows (the incremental analyzer's warm-start path).
    texts:
        Optional :class:`repro.core.texts.PostTextTable` the quality
        layer reads word counts and copy flags from; posts it lacks are
        appended on first use.  Without one the solver tokenizes every
        post into a private table (the ``text`` span).
    """

    def __init__(
        self,
        corpus: BlogCorpus,
        params: MassParameters | None = None,
        sentiment_classifier: SentimentClassifier | None = None,
        novelty_detector: NoveltyDetector | None = None,
        instrumentation: Instrumentation | None = None,
        sentiment_cache: MutableMapping[str, object] | None = None,
        assembly_cache: AssemblyCache | None = None,
        texts: PostTextTable | None = None,
    ) -> None:
        self._corpus = corpus
        self._params = params or MassParameters()
        self._instr = instrumentation or NULL_INSTRUMENTATION
        self._assembly_cache = assembly_cache
        # One reference day for every decayed weight: the corpus
        # horizon, computed once so CommentModel and QualityScorer
        # agree on what "fresh" means (None when decay is inert).
        self._reference_day = (
            corpus_horizon(corpus) if self._params.decay_active else None
        )
        tracer = self._instr.tracer
        # The comment model scans every commenter's TC up front; term
        # lists (and their sentiment) are built lazily during assembly.
        with tracer.span("comments"):
            self._comment_model = CommentModel(
                corpus, self._params, sentiment_classifier,
                sentiment_cache=sentiment_cache,
                reference_day=self._reference_day,
            )
        self._novelty_detector = novelty_detector
        if texts is None:
            with tracer.span("text"):
                texts = PostTextTable()
                texts.extend(corpus.posts.values())
        self._texts = texts

    @property
    def params(self) -> MassParameters:
        """The parameters this solver was built with."""
        return self._params

    @property
    def comment_model(self) -> CommentModel:
        """The resolved per-post comment terms (for diagnostics)."""
        return self._comment_model

    def solve(
        self,
        strict: bool = False,
        initial: dict[str, float] | None = None,
    ) -> InfluenceScores:
        """Run the fixed-point iteration and evaluate all score layers.

        With ``strict=True`` a non-converged run raises
        :class:`ConvergenceError` instead of returning partial scores.
        ``initial`` warm-starts the iteration from a previous solution
        (unknown bloggers fall back to the constant term); because the
        fixed point is unique under the contraction condition, a warm
        start changes only the iteration count, never the answer.

        The fixed point runs on the backend
        ``params.resolved_solver_backend()`` selects; both backends
        agree to 1e-9 (see ``tests/test_backend_equivalence.py``).
        """
        params = self._params
        corpus = self._corpus
        bloggers = corpus.blogger_ids()
        metrics = self._instr.metrics
        tracer = self._instr.tracer
        backend = params.resolved_solver_backend()

        cache = self._assembly_cache
        with tracer.span("gl"), metrics.histogram(
            "repro_solver_gl_seconds", "GL authority computation time"
        ).time():
            gl = None
            if cache is not None:
                gl = cache.cached_gl(corpus, params)
            if gl is None:
                gl = compute_gl_scores(
                    corpus, params, strict=strict,
                    instrumentation=self._instr,
                )
                if cache is not None:
                    cache.store_gl(gl, corpus, params)
        with tracer.span("quality"), metrics.histogram(
            "repro_solver_quality_seconds", "QualityScore computation time"
        ).time():
            post_ids = sorted(corpus.posts)
            posts = [corpus.post(post_id) for post_id in post_ids]
            scorer = QualityScorer(
                params, self._novelty_detector, posts,
                reference_day=self._reference_day, texts=self._texts,
            )
            quality = dict(zip(post_ids, scorer.scores(posts)))

        if backend == "sparse":
            (influence, comment_scores, post_influence, ap, iterations,
             converged, residual) = self._solve_sparse(gl, quality, initial)
        else:
            (influence, comment_scores, post_influence, ap, iterations,
             converged, residual) = self._solve_reference(
                bloggers, gl, quality, initial
            )

        self._record_solve_metrics(iterations, residual)
        self._handle_convergence(
            converged, iterations, residual, strict, len(bloggers)
        )

        return InfluenceScores(
            influence=influence,
            post_influence=post_influence,
            ap=ap,
            gl={blogger_id: gl.get(blogger_id, 0.0) for blogger_id in bloggers},
            quality=quality,
            comment_score=comment_scores,
            iterations=iterations,
            converged=converged,
            residual=residual,
            backend=backend,
        )

    # ------------------------------------------------------------------
    # Reference backend: the dict-sweep executable specification.
    # ------------------------------------------------------------------
    def _solve_reference(
        self,
        bloggers: list[str],
        gl: dict[str, float],
        quality: dict[str, float],
        initial: dict[str, float] | None,
    ):
        params = self._params
        corpus = self._corpus
        metrics = self._instr.metrics
        tracer = self._instr.tracer

        # Constant term c_i = α β ΣQ + (1 − α) GL.
        quality_sum = {blogger_id: 0.0 for blogger_id in bloggers}
        for post_id, value in quality.items():
            quality_sum[corpus.post_author_id(post_id)] += value
        constant = {
            blogger_id: params.alpha * params.beta * quality_sum[blogger_id]
            + (1.0 - params.alpha) * gl.get(blogger_id, 0.0)
            for blogger_id in bloggers
        }

        # Flattened linear terms: for blogger i, the (j, weight) pairs
        # over all comments on all of i's posts.  weight = SF / TC(j).
        linear_terms: dict[str, list[tuple[str, float]]] = {
            blogger_id: [] for blogger_id in bloggers
        }
        if params.use_citation:
            for post_id in sorted(corpus.posts):
                author_id = corpus.post_author_id(post_id)
                for term in self._comment_model.terms_for(post_id):
                    linear_terms[author_id].append(
                        (term.commenter_id, term.citation_weight)
                    )
        else:
            # Citation off: CommentScore is influence-free, so it folds
            # into the constant and the system closes in one step.
            for post_id in sorted(corpus.posts):
                author_id = corpus.post_author_id(post_id)
                score = self._comment_model.comment_score(post_id, {})
                constant[author_id] += params.alpha * (1.0 - params.beta) * score

        coupling = params.alpha * (1.0 - params.beta)
        iterations = 0
        residual = 0.0
        converged = not any(linear_terms.values())
        if initial is None or converged:
            # No coupling (or no warm start): the constant term is the
            # exact solution / canonical starting point.
            influence = dict(constant)
        else:
            influence = {
                blogger_id: initial.get(blogger_id, constant[blogger_id])
                for blogger_id in bloggers
            }

        with tracer.span("solver") as span, metrics.histogram(
            "repro_solver_iterate_seconds", "Fixed-point iteration time"
        ).time():
            while not converged and iterations < params.max_iterations:
                iterations += 1
                next_influence = {}
                for blogger_id in bloggers:
                    acc = 0.0
                    for commenter_id, weight in linear_terms[blogger_id]:
                        acc += influence[commenter_id] * weight
                    next_influence[blogger_id] = (
                        constant[blogger_id] + coupling * acc
                    )
                residual = sum(
                    abs(next_influence[blogger_id] - influence[blogger_id])
                    for blogger_id in bloggers
                )
                influence = next_influence
                if residual < params.tolerance:
                    converged = True
                span.event(iteration=iterations, residual=residual)
                _LOG.debug(
                    "iteration %d: residual %.3e (tolerance %.1e)",
                    iterations, residual, params.tolerance,
                )

        # Evaluate the per-post layers at the fixed point.
        comment_scores = {
            post_id: self._comment_model.comment_score(post_id, influence)
            for post_id in sorted(corpus.posts)
        }
        post_influence = {
            post_id: params.beta * quality[post_id]
            + (1.0 - params.beta) * comment_scores[post_id]
            for post_id in sorted(corpus.posts)
        }
        ap = {blogger_id: 0.0 for blogger_id in bloggers}
        for post_id, value in post_influence.items():
            ap[corpus.post_author_id(post_id)] += value
        return (influence, comment_scores, post_influence, ap, iterations,
                converged, residual)

    # ------------------------------------------------------------------
    # Sparse backend: compiled CSR arrays + vectorized Jacobi sweeps.
    # ------------------------------------------------------------------
    def _solve_sparse(
        self,
        gl: dict[str, float],
        quality: dict[str, float],
        initial: dict[str, float] | None,
    ):
        params = self._params
        corpus = self._corpus
        metrics = self._instr.metrics
        tracer = self._instr.tracer
        cache = self._assembly_cache

        with tracer.span("solver") as span:
            with tracer.span("assemble"), metrics.histogram(
                "repro_solver_assemble_seconds",
                "Sparse-system assembly time",
            ).time():
                if cache is not None:
                    compiled = cache.compile(
                        corpus, params, self._comment_model, quality, gl
                    )
                else:
                    compiled = compile_system(
                        corpus, params, self._comment_model, quality, gl
                    )

            x0 = None
            if initial is not None and compiled.nnz:
                constant = compiled.constant
                x0 = [
                    initial.get(blogger_id, constant[row])
                    for row, blogger_id in enumerate(compiled.blogger_ids)
                ]

            def _on_iteration(iteration: int, residual: float) -> None:
                span.event(iteration=iteration, residual=residual)
                _LOG.debug(
                    "iteration %d: residual %.3e (tolerance %.1e)",
                    iteration, residual, params.tolerance,
                )

            with tracer.span("iterate"), metrics.histogram(
                "repro_solver_iterate_seconds", "Fixed-point iteration time"
            ).time():
                solution = jacobi_solve(
                    compiled,
                    params.tolerance,
                    params.max_iterations,
                    initial=x0,
                    on_iteration=_on_iteration,
                )

            with tracer.span("scatter"), metrics.histogram(
                "repro_solver_scatter_seconds",
                "Fixed-point scatter (Eqs. 2–4 evaluation) time",
            ).time():
                x = solution.influence
                comment_list, post_list, ap_list = evaluate_posts(compiled, x)
                influence = dict(zip(compiled.blogger_ids, x))
                comment_scores = dict(zip(compiled.post_ids, comment_list))
                post_influence = dict(zip(compiled.post_ids, post_list))
                ap = dict(zip(compiled.blogger_ids, ap_list))
        return (influence, comment_scores, post_influence, ap,
                solution.iterations, solution.converged, solution.residual)

    # ------------------------------------------------------------------
    # Shared telemetry and convergence handling.
    # ------------------------------------------------------------------
    def _record_solve_metrics(self, iterations: int, residual: float) -> None:
        metrics = self._instr.metrics
        params = self._params
        metrics.counter(
            "repro_solver_solves_total", "Influence systems solved"
        ).inc()
        metrics.counter(
            "repro_solver_iterations_total", "Fixed-point iterations run"
        ).inc(iterations)
        metrics.gauge(
            "repro_solver_last_iterations", "Iterations of the last solve"
        ).set(iterations)
        metrics.gauge(
            "repro_solver_residual", "Final L1 residual of the last solve"
        ).set(residual)
        metrics.histogram(
            "repro_solver_iterations",
            "Fixed-point iterations per solve",
            buckets=(1, 2, 5, 10, 20, 50, 100, 200, 500),
        ).observe(iterations)
        bound = params.contraction_bound()
        if bound != float("inf"):
            metrics.gauge(
                "repro_solver_contraction_bound",
                "Operator-norm bound of the influence system",
            ).set(bound)

    def _handle_convergence(
        self,
        converged: bool,
        iterations: int,
        residual: float,
        strict: bool,
        num_bloggers: int,
    ) -> None:
        params = self._params
        if not converged:
            self._instr.metrics.counter(
                "repro_solver_non_converged_total",
                "Solves hitting the iteration cap",
            ).inc()
            if strict:
                raise ConvergenceError(
                    f"influence iteration did not converge in "
                    f"{params.max_iterations} iterations "
                    f"(residual {residual:.3e}); "
                    f"contraction bound is {params.contraction_bound():.3f}"
                )
            _LOG.warning(
                "influence iteration did not converge in %d iterations "
                "(residual %.3e, tolerance %.1e, contraction bound %.3f); "
                "returning partial scores",
                params.max_iterations, residual, params.tolerance,
                params.contraction_bound(),
            )
        else:
            _LOG.debug(
                "solved %d bloggers in %d iterations (residual %.3e)",
                num_bloggers, iterations, residual,
            )
