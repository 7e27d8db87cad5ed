"""The :class:`MassModel` facade — the paper's Analyzer Module.

Wires the Post Analyzer (naive-Bayes domain classification), the
Comment Analyzer (sentiment + influence solving) and the domain scoring
of Eq. 5 into one call:

    >>> model = MassModel(domain_seed_words={"Sports": ["game"], "Art": ["paint"]})
    >>> report = model.fit(corpus)                          # doctest: +SKIP
    >>> report.top_influencers(3, domain="Sports")          # doctest: +SKIP

The domain classifier can come from three places, in priority order:

1. an explicit, already-trained ``classifier``;
2. labelled posts passed to :meth:`fit` (``train_texts``/``train_labels``);
3. per-domain seed vocabularies (``domain_seed_words``), the paper's
   "predefined by the business applications" mode.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.core.domains import DomainInfluence
from repro.core.novelty import NoveltyDetector
from repro.core.parameters import MassParameters
from repro.core.report import InfluenceReport
from repro.core.solver import InfluenceSolver
from repro.core.texts import PostTextTable
from repro.data.corpus import BlogCorpus
from repro.errors import ClassifierError, ParameterError
from repro.nlp.naive_bayes import NaiveBayesClassifier
from repro.nlp.sentiment import SentimentClassifier
from repro.obs import NULL_INSTRUMENTATION, Instrumentation, get_logger

__all__ = ["MassModel"]

_LOG = get_logger("model")


class MassModel:
    """End-to-end MASS influence mining.

    Parameters
    ----------
    params:
        Model parameters; defaults to the paper's (α=0.5, β=0.6, …).
    classifier:
        A trained domain classifier (its classes define the domains).
    domain_seed_words:
        Per-domain seed vocabularies used to bootstrap a classifier
        when none is given and no labelled posts are provided.
    sentiment_classifier / novelty_detector:
        Analyzer overrides; default to the built-in lexicon analyzers.
    instrumentation:
        Observability sinks threaded down into the solver; no-op when
        omitted.
    """

    def __init__(
        self,
        params: MassParameters | None = None,
        classifier: NaiveBayesClassifier | None = None,
        domain_seed_words: Mapping[str, Sequence[str]] | None = None,
        sentiment_classifier: SentimentClassifier | None = None,
        novelty_detector: NoveltyDetector | None = None,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self._params = params or MassParameters()
        self._instr = instrumentation or NULL_INSTRUMENTATION
        self._classifier = classifier
        self._domain_seed_words = (
            {domain: list(words) for domain, words in domain_seed_words.items()}
            if domain_seed_words is not None
            else None
        )
        self._sentiment_classifier = sentiment_classifier
        self._novelty_detector = novelty_detector

    @property
    def params(self) -> MassParameters:
        """The model parameters."""
        return self._params

    @property
    def classifier(self) -> NaiveBayesClassifier | None:
        """The domain classifier, once resolved (None before that)."""
        return self._classifier

    def _resolve_classifier(
        self,
        train_texts: Sequence[str] | None,
        train_labels: Sequence[str] | None,
    ) -> NaiveBayesClassifier:
        if (train_texts is None) != (train_labels is None):
            raise ParameterError(
                "train_texts and train_labels must be given together"
            )
        if self._classifier is not None:
            if train_texts is not None:
                raise ParameterError(
                    "got both a pre-trained classifier and training data; "
                    "pass only one"
                )
            return self._classifier
        if train_texts is not None:
            classifier = NaiveBayesClassifier()
            classifier.fit(train_texts, train_labels)
            return classifier
        if self._domain_seed_words is not None:
            return NaiveBayesClassifier.from_seed_vocabulary(
                self._domain_seed_words
            )
        raise ClassifierError(
            "no domain model: pass classifier=, domain_seed_words=, or "
            "labelled posts to fit()"
        )

    def fit(
        self,
        corpus: BlogCorpus,
        train_texts: Sequence[str] | None = None,
        train_labels: Sequence[str] | None = None,
        strict: bool = False,
    ) -> InfluenceReport:
        """Analyze a corpus and return an :class:`InfluenceReport`.

        Parameters
        ----------
        corpus:
            The blogosphere snapshot (will be validated if not frozen).
        train_texts / train_labels:
            Optional labelled posts to train the domain classifier on.
        strict:
            Raise on solver non-convergence instead of returning
            partial scores.
        """
        metrics = self._instr.metrics
        tracer = self._instr.tracer
        with tracer.span("analyze"), metrics.histogram(
            "repro_analyze_seconds", "End-to-end analysis time"
        ).time():
            if not corpus.frozen:
                corpus.validate()
            stats = corpus.stats()
            metrics.gauge(
                "repro_corpus_bloggers", "Bloggers in the analyzed corpus"
            ).set(stats.num_bloggers)
            metrics.gauge(
                "repro_corpus_posts", "Posts in the analyzed corpus"
            ).set(stats.num_posts)
            metrics.gauge(
                "repro_corpus_comments", "Comments in the analyzed corpus"
            ).set(stats.num_comments)
            metrics.gauge(
                "repro_corpus_links", "Links in the analyzed corpus"
            ).set(stats.num_links)
            _LOG.info(
                "analyzing corpus: %d bloggers, %d posts, %d comments, "
                "%d links",
                stats.num_bloggers, stats.num_posts, stats.num_comments,
                stats.num_links,
            )

            with tracer.span("train-classifier"):
                self._classifier = self._resolve_classifier(
                    train_texts, train_labels
                )
            # One tokenization per post feeds both text facets: the
            # quality columns and the classifier's feature CSR.
            with tracer.span("text"):
                texts = PostTextTable(self._classifier)
                rows = texts.extend(
                    corpus.post(post_id) for post_id in sorted(corpus.posts)
                )
            solver = InfluenceSolver(
                corpus,
                self._params,
                sentiment_classifier=self._sentiment_classifier,
                novelty_detector=self._novelty_detector,
                instrumentation=self._instr,
                texts=texts,
            )
            scores = solver.solve(strict=strict)
            with metrics.histogram(
                "repro_analyze_classify_seconds",
                "Domain classification + Eq. 5 scoring time",
            ).time():
                with tracer.span("classify"):
                    memberships = texts.memberships(rows)
                with tracer.span("domains"):
                    domain_influence = DomainInfluence(
                        corpus, scores, memberships, self._classifier.classes,
                    )
            _LOG.info(
                "analysis complete: %d domains, solver %s in %d iterations",
                len(domain_influence.domains),
                "converged" if scores.converged else "NOT converged",
                scores.iterations,
            )
        return InfluenceReport(corpus, self._params, scores, domain_influence)
