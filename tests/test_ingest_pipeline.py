"""Tests for the durable ingestion pipeline."""

import threading
from unittest import mock

import pytest

from repro.core import CorpusDelta, IncrementalAnalyzer
from repro.data import Blogger, Comment, Link, Post
from repro.errors import CorpusError, IngestError
from repro.ingest import IngestConfig, IngestPipeline
from repro.nlp import NaiveBayesClassifier
from repro.obs import Instrumentation
from repro.synth import DOMAIN_VOCABULARIES


@pytest.fixture(scope="module")
def classifier():
    return NaiveBayesClassifier.from_seed_vocabulary(DOMAIN_VOCABULARIES)


def make_pipeline(tmp_path, classifier, **config_kwargs):
    analyzer = IncrementalAnalyzer(classifier)
    return IngestPipeline(
        tmp_path / "durable", analyzer, IngestConfig(**config_kwargs)
    )


def delta(seq, anchor=None):
    """One new blogger and post, optionally linking to ``anchor``."""
    blogger_id = f"pipe-{seq:03d}"
    links = (Link(blogger_id, anchor, 1.0),) if anchor else ()
    return CorpusDelta(
        bloggers=(Blogger(blogger_id, name=f"P{seq}",
                          profile_text="blogs about sports games",
                          joined_day=seq),),
        posts=(Post(f"pipe-post-{seq:03d}", blogger_id,
                    title="game day", body="the stadium game was great",
                    created_day=seq),),
        links=links,
    )


class TestLifecycle:
    def test_open_bootstraps_and_checkpoints(self, tmp_path, classifier,
                                             fig1_corpus):
        pipeline = make_pipeline(tmp_path, classifier)
        report = pipeline.open(fig1_corpus)
        assert pipeline.applied_seq == 0
        # The bootstrap checkpoint is written off the critical path.
        pipeline.wait_recovery_checkpoint()
        assert pipeline.checkpoints.latest_seq() == 0
        assert report is pipeline.report
        # Idempotent per process.
        assert pipeline.open(fig1_corpus) is report
        pipeline.close()

    def test_open_without_state_or_corpus_fails(self, tmp_path, classifier):
        pipeline = make_pipeline(tmp_path, classifier)
        with pytest.raises(IngestError, match="nothing to recover"):
            pipeline.open()

    def test_apply_before_open_fails(self, tmp_path, classifier):
        pipeline = make_pipeline(tmp_path, classifier)
        with pytest.raises(IngestError, match="open"):
            pipeline.apply(delta(1))

    def test_close_is_reentrant(self, tmp_path, classifier, fig1_corpus):
        pipeline = make_pipeline(tmp_path, classifier)
        pipeline.open(fig1_corpus)
        pipeline.close()
        pipeline.close()

    def test_recovery_checkpoint_is_off_the_open_path(self, tmp_path,
                                                      classifier,
                                                      fig1_corpus):
        """open() returns live state while the fresh checkpoint is
        still being written in the background."""
        from repro.core import IncrementalAnalyzer
        from repro.ingest.checkpoint import CheckpointManager

        first = make_pipeline(tmp_path, classifier, checkpoint_interval=100)
        first.open(fig1_corpus)
        first.wait_recovery_checkpoint()
        first.apply(delta(1))
        first.apply(delta(2))
        # Abandon without close(): seq 1-2 live only in the WAL, so the
        # next open() replays them and owes a fresh checkpoint.  Only
        # the log's file handle goes, as a dead process's would (every
        # append is already flushed).
        first.wal.close()

        release = threading.Event()
        real_write = CheckpointManager.write

        def gated_write(manager, *args, **kwargs):
            assert release.wait(timeout=10)
            return real_write(manager, *args, **kwargs)

        second = IngestPipeline(
            tmp_path / "durable", IncrementalAnalyzer(classifier),
            IngestConfig(checkpoint_interval=100),
        )
        with mock.patch.object(CheckpointManager, "write", gated_write):
            report = second.open()  # returns with the write still gated
            assert second.applied_seq == 2
            assert "pipe-002" in report.corpus
            assert second.checkpoints.latest_seq() == 0  # still the old one
            release.set()
            second.wait_recovery_checkpoint()
        assert second.checkpoints.latest_seq() == 2
        second.close()


class TestDurableApply:
    def test_apply_advances_seq_and_logs(self, tmp_path, classifier,
                                         fig1_corpus):
        pipeline = make_pipeline(tmp_path, classifier)
        pipeline.open(fig1_corpus)
        for seq in (1, 2, 3):
            pipeline.apply(delta(seq))
            assert pipeline.applied_seq == seq
            assert pipeline.wal.last_seq == seq
        assert "pipe-003" in pipeline.report.corpus
        pipeline.close()

    def test_matches_direct_analyzer(self, tmp_path, classifier,
                                     fig1_corpus):
        pipeline = make_pipeline(tmp_path, classifier)
        pipeline.open(fig1_corpus)
        for seq in (1, 2):
            pipeline.apply(delta(seq))
        direct = IncrementalAnalyzer(classifier)
        direct.fit(fig1_corpus)
        for seq in (1, 2):
            direct.apply(delta(seq))
        assert pipeline.report.general_scores() == \
            direct.report.general_scores()
        pipeline.close()

    def test_poison_delta_never_reaches_the_wal(self, tmp_path, classifier,
                                                fig1_corpus):
        pipeline = make_pipeline(tmp_path, classifier)
        pipeline.open(fig1_corpus)
        poison = CorpusDelta(comments=(
            Comment("bad", "no-such-post", "blogger-01", text="x",
                    created_day=1),
        ))
        before = pipeline.wal.last_seq
        with pytest.raises(CorpusError, match="unknown post"):
            pipeline.apply(poison)
        assert pipeline.wal.last_seq == before
        assert pipeline.applied_seq == 0
        pipeline.close()

    def test_non_finite_link_weight_never_reaches_the_wal(
        self, tmp_path, classifier, fig1_corpus
    ):
        pipeline = make_pipeline(tmp_path, classifier)
        pipeline.open(fig1_corpus)
        before = pipeline.wal.last_seq
        # The delta cannot be built, so there is nothing to append.
        with pytest.raises(CorpusError, match="finite positive number"):
            pipeline.apply(CorpusDelta(links=(
                Link("amery", "bob", float("nan")),
            )))
        assert pipeline.wal.last_seq == before
        assert pipeline.applied_seq == 0
        pipeline.close()

    def test_overflowing_link_merge_never_reaches_the_wal(
        self, tmp_path, classifier, fig1_corpus
    ):
        pipeline = make_pipeline(tmp_path, classifier)
        pipeline.open(fig1_corpus)
        before = pipeline.wal.last_seq
        links = len(pipeline.report.corpus.links)
        # Each link is valid; their merged weight overflows to inf.
        poison = CorpusDelta(links=(
            Link("amery", "bob", 1e308), Link("amery", "bob", 1e308),
        ))
        with pytest.raises(CorpusError, match="finite positive number"):
            pipeline.apply(poison)
        assert pipeline.wal.last_seq == before
        assert len(pipeline.report.corpus.links) == links
        pipeline.close()

    def test_periodic_checkpoint_and_wal_truncation(self, tmp_path,
                                                    classifier, fig1_corpus):
        pipeline = make_pipeline(tmp_path, classifier, checkpoint_interval=2)
        pipeline.open(fig1_corpus)
        for seq in range(1, 5):
            pipeline.apply(delta(seq))
        assert pipeline.checkpoints.latest_seq() == 4
        # Segments fully covered by the checkpoint were deleted.
        audit = pipeline.diagnostics()["seq_audit"]
        assert audit["contiguous"]
        assert audit["records_after_checkpoint"] == 0
        pipeline.close()

    def test_close_seals_a_final_checkpoint(self, tmp_path, classifier,
                                            fig1_corpus):
        pipeline = make_pipeline(tmp_path, classifier,
                                 checkpoint_interval=100)
        pipeline.open(fig1_corpus)
        pipeline.wait_recovery_checkpoint()
        pipeline.apply(delta(1))
        assert pipeline.checkpoints.latest_seq() == 0
        pipeline.close()
        assert pipeline.checkpoints.latest_seq() == 1


class TestCrawlIngestion:
    def test_ingest_crawl_applies_the_difference(self, tmp_path, classifier,
                                                 fig1_corpus):
        from repro.crawler import SimulatedBlogService

        grown = fig1_corpus.subset(fig1_corpus.blogger_ids())
        fresh = delta(77, anchor=fig1_corpus.blogger_ids()[0])
        grown.extend(bloggers=fresh.bloggers, posts=fresh.posts,
                     comments=fresh.comments, links=fresh.links)
        service = SimulatedBlogService(grown.freeze())

        pipeline = make_pipeline(tmp_path, classifier)
        pipeline.open(fig1_corpus)
        report = pipeline.ingest_crawl(
            service, seeds=[fig1_corpus.blogger_ids()[0], "pipe-077"]
        )
        assert "pipe-077" in report.corpus
        assert pipeline.applied_seq == 1
        # A second identical crawl finds nothing new.
        assert pipeline.ingest_crawl(
            service, seeds=[fig1_corpus.blogger_ids()[0], "pipe-077"]
        ) is pipeline.report
        assert pipeline.applied_seq == 1
        pipeline.close()


class TestDiagnostics:
    def test_seq_audit_shape(self, tmp_path, classifier, fig1_corpus):
        pipeline = make_pipeline(tmp_path, classifier,
                                 checkpoint_interval=100)
        pipeline.open(fig1_corpus)
        pipeline.apply(delta(1))
        pipeline.apply(delta(2))
        diag = pipeline.diagnostics()
        assert diag["applied_seq"] == 2
        assert diag["checkpoint_seq"] == 0
        assert diag["wal_last_seq"] == 2
        audit = diag["seq_audit"]
        assert audit == {
            "contiguous": True,
            "records_after_checkpoint": 2,
            "no_double_apply": True,
            "no_loss": True,
        }
        pipeline.close()

    def test_ingest_metrics_registered(self, tmp_path, classifier,
                                       fig1_corpus):
        instr = Instrumentation.enabled()
        analyzer = IncrementalAnalyzer(classifier, instrumentation=instr)
        pipeline = IngestPipeline(
            tmp_path / "durable", analyzer, IngestConfig(),
            instrumentation=instr,
        )
        pipeline.open(fig1_corpus)
        pipeline.apply(delta(1))
        pipeline.close()
        names = set(instr.metrics.names())
        for expected in (
            "repro_ingest_wal_appends_total",
            "repro_ingest_wal_fsyncs_total",
            "repro_ingest_checkpoints_total",
            "repro_ingest_batches_total",
            "repro_ingest_applied_seq",
            "repro_ingest_recovery_seconds",
        ):
            assert expected in names
        pipeline.close()
