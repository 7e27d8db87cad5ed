"""Integration tests: instrumentation threaded through the pipeline.

These pin the observable contract documented in docs/observability.md:
the metric names each layer emits, the span tree shape of one analysis,
and the telemetry views (report diagnostics, incremental savings).
"""

import logging

import pytest

from repro.core import (
    CorpusDelta,
    IncrementalAnalyzer,
    InfluenceSolver,
    MassModel,
    MassParameters,
)
from repro.crawler import BlogCrawler, CrawlConfig, SimulatedBlogService
from repro.data import (
    Comment,
    CorpusBuilder,
    Post,
    figure1_corpus,
    figure1_domains,
)
from repro.errors import ConvergenceError
from repro.ingest import IngestConfig, IngestPipeline
from repro.nlp.naive_bayes import NaiveBayesClassifier
from repro.obs import Instrumentation
from repro.synth import (
    DOMAIN_VOCABULARIES,
    BlogosphereConfig,
    generate_blogosphere,
)
from repro.system import MassSystem


def _walk(span):
    """``span`` and every span under it, depth-first."""
    yield span
    for child in span.children:
        yield from _walk(child)


@pytest.fixture()
def instr() -> Instrumentation:
    return Instrumentation.enabled()


@pytest.fixture(scope="module")
def small_corpus_and_truth():
    return generate_blogosphere(
        BlogosphereConfig(num_bloggers=60, posts_per_blogger=5.0), seed=11
    )


class TestSolverInstrumentation:
    def test_solver_metrics_and_span_events(self, instr):
        corpus = figure1_corpus()
        scores = InfluenceSolver(corpus, instrumentation=instr).solve()
        metrics = instr.metrics.as_dict()
        assert metrics["repro_solver_solves_total"]["value"] == 1
        assert (metrics["repro_solver_iterations_total"]["value"]
                == scores.iterations)
        assert (metrics["repro_solver_last_iterations"]["value"]
                == scores.iterations)
        assert metrics["repro_solver_residual"]["value"] == scores.residual
        assert metrics["repro_solver_contraction_bound"]["value"] == (
            pytest.approx(MassParameters().contraction_bound())
        )
        solver_span = instr.tracer.find("solver")
        assert solver_span is not None
        assert len(solver_span.events) == scores.iterations
        assert solver_span.events[-1]["residual"] == scores.residual
        # Residuals contract geometrically, so the trajectory decreases.
        residuals = [event["residual"] for event in solver_span.events]
        assert residuals == sorted(residuals, reverse=True)

    def test_non_convergence_warns_with_bound(self, caplog):
        corpus = figure1_corpus()
        params = MassParameters(max_iterations=1, tolerance=1e-12)
        logging.getLogger("repro").propagate = True
        with caplog.at_level(logging.WARNING, logger="repro.solver"):
            scores = InfluenceSolver(corpus, params).solve(strict=False)
        assert not scores.converged
        (record,) = [r for r in caplog.records
                     if "did not converge" in r.message]
        assert "residual" in record.message
        assert "contraction bound" in record.message

    def test_non_convergence_counter(self, instr):
        corpus = figure1_corpus()
        params = MassParameters(max_iterations=1, tolerance=1e-12)
        InfluenceSolver(corpus, params, instrumentation=instr).solve()
        metrics = instr.metrics.as_dict()
        assert metrics["repro_solver_non_converged_total"]["value"] == 1


def linked_corpus_without_comments():
    """Four bloggers whose only coupling is links: the influence system
    has no comment terms, so it is solved exactly with no iteration,
    while GL still needs its own power iteration."""
    builder = CorpusBuilder()
    for name in "abcd":
        builder.blogger(name)
        builder.post(name, body=f"a post by {name} about gardens")
    builder.link("a", "b").link("b", "c").link("c", "a").link("a", "c")
    return builder.build()


class TestGlConvergence:
    """A GL iteration stopped at the cap is never silent."""

    @pytest.mark.parametrize("method", ["pagerank", "hits"])
    def test_strict_raises_naming_method_iterations_and_residual(
        self, method
    ):
        params = MassParameters(gl_method=method, max_iterations=3)
        with pytest.raises(ConvergenceError) as raised:
            InfluenceSolver(linked_corpus_without_comments(), params).solve(
                strict=True
            )
        message = str(raised.value)
        assert method in message
        assert "in 3 iterations" in message
        assert "residual" in message

    @pytest.mark.parametrize("method", ["pagerank", "hits"])
    def test_non_strict_warns_and_counts(self, method, instr, caplog):
        params = MassParameters(gl_method=method, max_iterations=3)
        logging.getLogger("repro").propagate = True
        with caplog.at_level(logging.WARNING, logger="repro.solver"):
            scores = InfluenceSolver(
                linked_corpus_without_comments(), params,
                instrumentation=instr,
            ).solve(strict=False)
        # The influence system itself converged: only GL fell short.
        assert scores.converged
        (record,) = [r for r in caplog.records
                     if r.name == "repro.solver"
                     and r.levelno == logging.WARNING]
        assert f"GL {method}" in record.message
        assert "residual" in record.message
        assert "did not converge" not in record.message
        metrics = instr.metrics.as_dict()
        assert metrics["repro_solver_gl_non_converged_total"]["value"] == 1
        assert "repro_solver_non_converged_total" not in metrics
        assert metrics["repro_solver_gl_iterations"]["value"] == 3
        (event,) = instr.tracer.find("gl").events
        assert event["iterations"] == 3
        assert event["converged"] is False
        assert event["residual"] > params.tolerance

    def test_converged_gl_reports_its_iterations(self, instr):
        InfluenceSolver(figure1_corpus(), instrumentation=instr).solve(
            strict=True
        )
        (event,) = instr.tracer.find("gl").events
        assert event["converged"] is True
        assert event["residual"] < MassParameters().tolerance
        metrics = instr.metrics.as_dict()
        assert metrics["repro_solver_gl_iterations"]["value"] == (
            event["iterations"]
        )
        assert "repro_solver_gl_non_converged_total" not in metrics


class TestAnalyzeTrace:
    def test_analyze_span_decomposes_into_stages(self, instr):
        corpus = figure1_corpus()
        model = MassModel(
            domain_seed_words=figure1_domains(), instrumentation=instr
        )
        report = model.fit(corpus)
        (root,) = instr.tracer.roots
        assert root.name == "analyze"
        child_names = [child.name for child in root.children]
        for stage in ("classify", "quality", "gl", "solver"):
            assert stage in child_names, child_names
        assert report.converged

    #: One span per layer; perfbench's layer rows use the same names.
    FIT_LAYERS = ("text", "comments", "gl", "quality", "solver", "classify",
                  "domains")

    def test_each_layer_has_one_uniquely_named_span(self, instr,
                                                    small_blogosphere):
        corpus, _ = small_blogosphere
        classifier = NaiveBayesClassifier.from_seed_vocabulary(
            DOMAIN_VOCABULARIES
        )
        MassModel(classifier=classifier, instrumentation=instr).fit(corpus)
        (root,) = instr.tracer.roots
        names = [child.name for child in root.children]
        assert len(names) == len(set(names)), names
        for layer in self.FIT_LAYERS:
            assert layer in names, names
        # ``classify`` is naive Bayes alone; Eq. 5 is its sibling.
        assert root.find("classify").children == []

        instr.tracer.clear()
        analyzer = IncrementalAnalyzer(classifier, instrumentation=instr)
        analyzer.fit(corpus)
        authors = sorted(corpus.blogger_ids())
        post = Post("span-post", authors[0], title="Match report",
                    body="the stadium crowd and the final game " * 3,
                    created_day=400)
        analyzer.apply(CorpusDelta(posts=[post], comments=[
            Comment("span-comment", post.post_id, authors[1],
                    text="I agree, a great read", created_day=401),
        ]))
        for name in ("incremental-fit", "incremental-apply"):
            span = instr.tracer.find(name)
            names = [child.name for child in span.children]
            assert len(names) == len(set(names)), (name, names)
            for layer in self.FIT_LAYERS:
                assert layer in names, (name, names)

    def test_checkpoint_write_and_load_have_their_own_spans(
        self, instr, tmp_path, fig1_corpus
    ):
        classifier = NaiveBayesClassifier.from_seed_vocabulary(
            DOMAIN_VOCABULARIES
        )
        config = IngestConfig(checkpoint_interval=1)
        pipeline = IngestPipeline(
            tmp_path, IncrementalAnalyzer(classifier), config,
            instrumentation=instr,
        )
        pipeline.open(fig1_corpus)
        pipeline.wait_recovery_checkpoint()
        author = sorted(fig1_corpus.blogger_ids())[0]
        pipeline.apply(CorpusDelta(posts=[
            Post("span-post", author, body="the final game " * 3,
                 created_day=400),
        ]))
        pipeline.close()
        checkpoints = [
            span for root in instr.tracer.roots for span in _walk(root)
            if span.name == "ingest-checkpoint"
        ]
        # The bootstrap's checkpoint and the interval checkpoint.
        assert len(checkpoints) == 2
        for span in checkpoints:
            assert [child.name for child in span.children] == [
                "checkpoint-corpus", "checkpoint-report",
            ]

        instr.tracer.clear()
        reopened = IngestPipeline(
            tmp_path, IncrementalAnalyzer(classifier), config,
            instrumentation=instr,
        )
        reopened.open()
        reopened.close()
        recover = instr.tracer.find("ingest-recover")
        assert [child.name for child in recover.children] == [
            "checkpoint-load", "ingest-replay",
        ]

    def test_corpus_gauges_set(self, instr):
        corpus = figure1_corpus()
        MassModel(
            domain_seed_words=figure1_domains(), instrumentation=instr
        ).fit(corpus)
        metrics = instr.metrics.as_dict()
        stats = corpus.stats()
        assert metrics["repro_corpus_bloggers"]["value"] == stats.num_bloggers
        assert metrics["repro_corpus_posts"]["value"] == stats.num_posts
        assert metrics["repro_corpus_comments"]["value"] == stats.num_comments
        assert metrics["repro_analyze_seconds"]["count"] == 1


class TestCrawlerInstrumentation:
    def test_crawl_counters_and_wave_spans(self, instr,
                                           small_corpus_and_truth):
        corpus, _ = small_corpus_and_truth
        service = SimulatedBlogService(corpus)
        crawler = BlogCrawler(
            service, CrawlConfig(radius=1, num_threads=2),
            instrumentation=instr,
        )
        result = crawler.crawl([corpus.blogger_ids()[0]])
        metrics = instr.metrics.as_dict()
        assert (metrics["repro_crawler_pages_fetched_total"]["value"]
                == len(result.fetched))
        assert metrics["repro_crawler_fetch_failures_total"]["value"] == 0
        assert metrics["repro_crawler_crawl_seconds"]["count"] == 1
        crawl_span = instr.tracer.find("crawl")
        assert crawl_span is not None
        wave_names = [child.name for child in crawl_span.children]
        assert wave_names[0] == "wave-0"
        assert wave_names[-1] == "assemble"
        wave0 = crawl_span.children[0]
        assert wave0.events[0]["spaces"] == 1

    def test_failures_counted(self, instr, small_corpus_and_truth):
        corpus, _ = small_corpus_and_truth
        service = SimulatedBlogService(corpus)
        crawler = BlogCrawler(
            service,
            CrawlConfig(radius=0, max_retries=0),
            instrumentation=instr,
        )
        result = crawler.crawl(
            [corpus.blogger_ids()[0], "no-such-blogger"]
        )
        assert "no-such-blogger" in result.failed
        metrics = instr.metrics.as_dict()
        assert metrics["repro_crawler_fetch_failures_total"]["value"] == 1
        assert metrics["repro_crawler_pages_fetched_total"]["value"] == 1


class TestSystemFacade:
    def test_mass_system_threads_instrumentation(self, instr,
                                                 small_corpus_and_truth):
        corpus, _ = small_corpus_and_truth
        system = MassSystem(
            domain_seed_words=DOMAIN_VOCABULARIES, instrumentation=instr
        )
        assert system.instrumentation is instr
        system.load_dataset(corpus)
        system.analyze()
        metrics = instr.metrics.as_dict()
        assert metrics["repro_solver_solves_total"]["value"] == 1
        assert (metrics["repro_corpus_bloggers"]["value"]
                == len(corpus.bloggers))
        span_names = [root.name for root in instr.tracer.roots]
        assert "load-dataset" in span_names
        assert "analyze" in span_names

    def test_uninstrumented_system_records_nothing(self,
                                                   small_corpus_and_truth):
        corpus, _ = small_corpus_and_truth
        system = MassSystem(domain_seed_words=DOMAIN_VOCABULARIES)
        system.load_dataset(corpus)
        system.analyze()
        assert system.instrumentation.metrics.as_dict() == {}
        assert system.instrumentation.tracer.roots == []


class TestIncrementalInstrumentation:
    def test_warm_start_savings_tracked(self, instr,
                                        small_corpus_and_truth):
        corpus, _ = small_corpus_and_truth
        classifier = NaiveBayesClassifier.from_seed_vocabulary(
            DOMAIN_VOCABULARIES
        )
        analyzer = IncrementalAnalyzer(classifier, instrumentation=instr)
        analyzer.fit(corpus)
        cold = analyzer.last_iterations

        blogger_id = corpus.blogger_ids()[0]
        post = corpus.posts_by(blogger_id)[0]
        delta = CorpusDelta(comments=(
            Comment(
                comment_id="obs-new-comment",
                post_id=post.post_id,
                commenter_id=corpus.blogger_ids()[1],
                text="insightful, I agree",
            ),
        ))
        analyzer.apply(delta)
        metrics = instr.metrics.as_dict()
        assert metrics["repro_incremental_deltas_total"]["value"] == 1
        assert metrics["repro_incremental_entities_total"]["value"] == 1
        warm = metrics["repro_incremental_last_iterations"]["value"]
        savings = metrics["repro_incremental_iteration_savings"]["value"]
        assert warm == analyzer.last_iterations
        assert savings == max(0, cold - warm)
        assert instr.tracer.find("incremental-apply") is not None
