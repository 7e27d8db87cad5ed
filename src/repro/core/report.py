"""The :class:`InfluenceReport`: everything MASS knows after analysis.

A report bundles the converged influence scores, the per-domain
vectors, and the corpus they came from, and answers the questions the
demo UI asks: top-k lists (general or per domain), and the per-blogger
detail pop-up of Fig. 4 ("total influence score, domain influence
score, the number of posts, the link to important posts, etc.").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.domains import DomainInfluence
from repro.core.parameters import MassParameters
from repro.core.solver import InfluenceScores
from repro.core.topk import RankedScores, top_k
from repro.data.corpus import BlogCorpus
from repro.errors import ParameterError

__all__ = ["BloggerDetail", "InfluenceReport"]


@dataclass(frozen=True, slots=True)
class BloggerDetail:
    """The Fig. 4 double-click pop-up for one blogger."""

    blogger_id: str
    name: str
    influence: float
    ap: float
    gl: float
    num_posts: int
    num_comments_received: int
    num_comments_written: int
    domain_scores: dict[str, float]
    top_posts: list[tuple[str, float]]

    def dominant_domain(self) -> str:
        """The domain where this blogger is most influential."""
        if not self.domain_scores:
            raise ValueError("no domain scores")
        return max(
            sorted(self.domain_scores),
            key=lambda domain: self.domain_scores[domain],
        )


class InfluenceReport:
    """Analysis output of :class:`repro.core.model.MassModel`."""

    def __init__(
        self,
        corpus: BlogCorpus,
        params: MassParameters,
        scores: InfluenceScores,
        domain_influence: DomainInfluence,
    ) -> None:
        self._corpus = corpus
        self._params = params
        self._scores = scores
        self._domain_influence = domain_influence
        self._ranked: RankedScores | None = None

    def general_ranked(self) -> RankedScores:
        """The general influence ranking (sorted once, on first use)."""
        if self._ranked is None:
            self._ranked = RankedScores(self._scores.influence)
        return self._ranked

    # ------------------------------------------------------------------
    @property
    def corpus(self) -> BlogCorpus:
        """The analyzed corpus."""
        return self._corpus

    @property
    def params(self) -> MassParameters:
        """The parameters the analysis ran with."""
        return self._params

    @property
    def scores(self) -> InfluenceScores:
        """Raw solver output (overall / per-post influence, AP, GL)."""
        return self._scores

    @property
    def domain_influence(self) -> DomainInfluence:
        """The per-domain score vectors (Eq. 5)."""
        return self._domain_influence

    @property
    def domains(self) -> list[str]:
        """The domain set."""
        return self._domain_influence.domains

    @property
    def converged(self) -> bool:
        """Whether the influence iteration converged."""
        return self._scores.converged

    def diagnostics(self) -> dict[str, object]:
        """Solver and corpus telemetry behind this analysis.

        A JSON-able view for dashboards and the CLI: solver convergence
        diagnostics (iterations, residual, the contraction bound that
        governs them), corpus shape, and the headline parameters.  The
        contraction bound is reported as ``None`` when it is void (the
        citation ablation), keeping the dict strict-JSON safe.
        """
        stats = self._corpus.stats()
        bound = self._params.contraction_bound()
        return {
            "solver": {
                "backend": self._scores.backend,
                "iterations": self._scores.iterations,
                "converged": self._scores.converged,
                "residual": self._scores.residual,
                "tolerance": self._params.tolerance,
                "max_iterations": self._params.max_iterations,
                "contraction_bound": (
                    None if bound == float("inf") else bound
                ),
            },
            "corpus": {
                "bloggers": stats.num_bloggers,
                "posts": stats.num_posts,
                "comments": stats.num_comments,
                "links": stats.num_links,
            },
            "params": {
                "alpha": self._params.alpha,
                "beta": self._params.beta,
                "gl_method": self._params.gl_method,
                "gl_normalization": self._params.gl_normalization,
            },
            "domains": list(self.domains),
        }

    # ------------------------------------------------------------------
    def general_scores(self) -> dict[str, float]:
        """Inf(b) for every blogger."""
        return dict(self._scores.influence)

    def top_influencers(
        self, k: int, domain: str | None = None
    ) -> list[tuple[str, float]]:
        """Top-k bloggers overall, or within one domain.

        This is the system's headline query: "find out the top-k most
        influential bloggers on each domain".  ``k`` must be positive
        and ``domain`` (when given) must be a known domain; both raise
        :class:`~repro.errors.ParameterError` rather than silently
        returning an empty list.
        """
        if k <= 0:
            raise ParameterError(
                f"top_influencers needs k >= 1, got {k}"
            )
        if domain is None:
            return self.general_ranked().top(k)
        return self._domain_influence.ranking(domain, k)

    def ranking(self, domain: str | None = None) -> list[tuple[str, float]]:
        """The full ordered ranking (general or per domain)."""
        if domain is None:
            return self.general_ranked().ranking()
        return self._domain_influence.ranking(domain)

    def blogger_detail(self, blogger_id: str, top_posts: int = 3) -> BloggerDetail:
        """Assemble the detail pop-up for one blogger."""
        blogger = self._corpus.blogger(blogger_id)
        posts = self._corpus.posts_by(blogger_id)
        received = sum(
            len(self._corpus.comments_on(post.post_id)) for post in posts
        )
        post_scores = {
            post.post_id: self._scores.post_influence[post.post_id]
            for post in posts
        }
        return BloggerDetail(
            blogger_id=blogger_id,
            name=blogger.name,
            influence=self._scores.influence[blogger_id],
            ap=self._scores.ap[blogger_id],
            gl=self._scores.gl[blogger_id],
            num_posts=len(posts),
            num_comments_received=received,
            num_comments_written=self._corpus.total_comments_by(blogger_id),
            domain_scores=self._domain_influence.vector(blogger_id),
            top_posts=top_k(post_scores, top_posts),
        )

    def summary_rows(self, k: int = 3) -> list[tuple[str, list[str]]]:
        """(domain, top-k blogger ids) for every domain — bench output."""
        return [
            (domain, [blogger_id for blogger_id, _ in
                      self.top_influencers(k, domain)])
            for domain in self.domains
        ]
