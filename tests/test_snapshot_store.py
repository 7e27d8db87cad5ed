"""SnapshotStore: copy-on-write swaps and the background refresher."""

import time

import pytest

from repro.core import CorpusDelta, MassParameters
from repro.data import Blogger, Comment, Link, Post
from repro.errors import ReproError
from repro.obs import Instrumentation
from repro.serve import SnapshotStore
from repro.synth import DOMAIN_VOCABULARIES


def make_delta(corpus, seq=0):
    """One new blogger with a post, a comment on it, and a link."""
    existing = corpus.blogger_ids()[0]
    new_id = f"newcomer-{seq:02d}"
    post = Post(f"newpost-{seq:02d}", new_id,
                body="a fresh post about the marathon stadium game " * 4,
                created_day=300)
    comment = Comment(f"newcomment-{seq:02d}", post.post_id, existing,
                      text="I agree, a wonderful read", created_day=301)
    return CorpusDelta(
        bloggers=[Blogger(new_id)],
        posts=[post],
        comments=[comment],
        links=[Link(existing, new_id)],
    )


@pytest.fixture()
def store(small_blogosphere):
    corpus, _ = small_blogosphere
    store = SnapshotStore(
        corpus,
        params=MassParameters(),
        domain_seed_words=DOMAIN_VOCABULARIES,
        max_staleness=0.05,
        instrumentation=Instrumentation.enabled(),
    )
    yield store
    store.close()


class TestInitialState:
    def test_snapshot_matches_report(self, store):
        snapshot = store.snapshot
        assert snapshot.top(5) == store.report.top_influencers(5)
        assert snapshot.epoch == store.snapshot.epoch

    def test_refresh_with_empty_queue_is_noop(self, store):
        before = store.snapshot
        assert store.refresh_now() is before

    def test_empty_delta_is_dropped(self, store):
        store.submit(CorpusDelta())
        assert store.pending_deltas == 0

    def test_params_exposed(self, store):
        assert store.params == MassParameters()

    def test_bad_staleness_rejected(self, small_blogosphere):
        corpus, _ = small_blogosphere
        with pytest.raises(ReproError, match="max_staleness"):
            SnapshotStore(corpus, max_staleness=-1.0)

    def test_classifier_and_seed_words_are_exclusive(self, small_blogosphere):
        from repro.nlp import NaiveBayesClassifier

        corpus, _ = small_blogosphere
        classifier = NaiveBayesClassifier.from_seed_vocabulary(
            DOMAIN_VOCABULARIES
        )
        with pytest.raises(ReproError, match="not both"):
            SnapshotStore(
                corpus,
                domain_seed_words=DOMAIN_VOCABULARIES,
                classifier=classifier,
            )


class TestSynchronousRefresh:
    def test_swap_changes_epoch_and_folds_delta(self, store,
                                                small_blogosphere):
        corpus, _ = small_blogosphere
        old = store.snapshot
        store.submit(make_delta(corpus))
        assert store.pending_deltas == 1
        fresh = store.refresh_now()
        assert fresh.epoch != old.epoch
        assert store.snapshot is fresh
        assert "newcomer-00" in fresh.blogger_ids
        assert store.pending_deltas == 0
        # Old snapshot still answers consistently from its own analysis.
        assert "newcomer-00" not in old.blogger_ids

    def test_refreshed_snapshot_matches_batch_on_grown_corpus(
        self, store, small_blogosphere
    ):
        corpus, _ = small_blogosphere
        store.submit(make_delta(corpus))
        fresh = store.refresh_now()
        report = store.report  # the incremental analyzer's current report
        assert fresh.top(10) == report.top_influencers(10)
        for domain in fresh.domains:
            assert (fresh.top(5, domain=domain)
                    == report.top_influencers(5, domain))

    def test_multiple_deltas_coalesce_into_one_swap(self, store,
                                                    small_blogosphere):
        corpus, _ = small_blogosphere
        store.submit(make_delta(corpus, seq=1))
        store.submit(make_delta(corpus, seq=2))
        fresh = store.refresh_now()
        assert "newcomer-01" in fresh.blogger_ids
        assert "newcomer-02" in fresh.blogger_ids

    def test_swap_metrics_recorded(self, store, small_blogosphere):
        corpus, _ = small_blogosphere
        store.submit(make_delta(corpus))
        store.refresh_now()
        metrics = store._instr.metrics
        assert metrics.get("repro_serve_snapshot_swaps_total").value == 1
        assert metrics.get("repro_serve_deltas_applied_total").value == 1
        assert metrics.get("repro_serve_refresh_seconds").count == 1

    def test_compile_histogram_times_every_compile(self, store,
                                                   small_blogosphere):
        corpus, _ = small_blogosphere
        metrics = store._instr.metrics
        compile_seconds = metrics.get("repro_snapshot_compile_seconds")
        # The initial fit's compile is timed; the counter counts only
        # the compiles of refreshes that applied deltas.
        assert compile_seconds.count == 1
        for seq in range(3):
            store.submit(make_delta(corpus, seq=seq))
            store.refresh_now()
        store.refresh_now()  # nothing queued: no compile
        compiles = metrics.get("repro_snapshot_compile_total").value
        assert compiles == 3
        assert compile_seconds.count == compiles + 1
        assert compile_seconds.sum > 0.0


class TestBackgroundRefresher:
    def test_submitted_delta_served_within_staleness_bound(
        self, store, small_blogosphere
    ):
        corpus, _ = small_blogosphere
        old_epoch = store.snapshot.epoch
        with store:
            store.submit(make_delta(corpus))
            deadline = time.monotonic() + 10.0
            while (store.snapshot.epoch == old_epoch
                   and time.monotonic() < deadline):
                time.sleep(0.01)
        assert store.snapshot.epoch != old_epoch
        assert "newcomer-00" in store.snapshot.blogger_ids

    def test_start_is_idempotent(self, store):
        store.start()
        thread = store._thread
        store.start()
        assert store._thread is thread

    def test_close_drains_remaining_deltas(self, store, small_blogosphere):
        corpus, _ = small_blogosphere
        store.start()
        store.submit(make_delta(corpus, seq=5))
        store.close()
        assert store.pending_deltas == 0
        assert "newcomer-05" in store.snapshot.blogger_ids


class TestDurableMode:
    def durable_store(self, corpus, directory, **kwargs):
        from repro.ingest import IngestConfig

        return SnapshotStore(
            corpus,
            params=MassParameters(),
            domain_seed_words=DOMAIN_VOCABULARIES,
            max_staleness=0.05,
            durable_dir=directory,
            ingest_config=IngestConfig(checkpoint_interval=1),
            **kwargs,
        )

    def test_ingest_config_requires_durable_dir(self, fig1_corpus):
        from repro.ingest import IngestConfig

        with pytest.raises(ReproError, match="durable_dir"):
            SnapshotStore(fig1_corpus, ingest_config=IngestConfig())

    def test_pipeline_exposed_only_in_durable_mode(self, fig1_corpus,
                                                   tmp_path):
        plain = SnapshotStore(fig1_corpus,
                              domain_seed_words=DOMAIN_VOCABULARIES)
        assert plain.pipeline is None
        plain.close()
        durable = self.durable_store(fig1_corpus, tmp_path / "d")
        assert durable.pipeline is not None
        durable.close()

    def test_refresh_writes_one_wal_record_per_swap(self, fig1_corpus,
                                                    tmp_path):
        store = self.durable_store(fig1_corpus, tmp_path / "d")
        store.submit(make_delta(fig1_corpus, seq=1))
        store.submit(make_delta(fig1_corpus, seq=2))
        store.refresh_now()
        assert store.pipeline.applied_seq == 1  # both deltas, one record
        assert "newcomer-01" in store.snapshot.blogger_ids
        assert "newcomer-02" in store.snapshot.blogger_ids
        store.close()

    def test_restart_recovers_the_served_snapshot(self, fig1_corpus,
                                                  tmp_path):
        store = self.durable_store(fig1_corpus, tmp_path / "d")
        store.submit(make_delta(fig1_corpus))
        epoch = store.refresh_now().epoch
        store.close()

        recovered = self.durable_store(fig1_corpus, tmp_path / "d")
        assert recovered.snapshot.epoch == epoch
        assert "newcomer-00" in recovered.snapshot.blogger_ids
        recovered.close()

    def test_restart_after_crash_replays_the_wal(self, fig1_corpus,
                                                 tmp_path):
        from repro.ingest import IngestConfig

        store = SnapshotStore(
            fig1_corpus,
            domain_seed_words=DOMAIN_VOCABULARIES,
            durable_dir=tmp_path / "d",
            # Interval high enough that the delta lives only in the WAL.
            ingest_config=IngestConfig(checkpoint_interval=100),
        )
        store.submit(make_delta(fig1_corpus))
        epoch = store.refresh_now().epoch
        # No close(): simulate a crash; state must come back from WAL.
        # Only the log's file handle goes, as a dead process's would
        # (every append is already flushed).
        store.pipeline.wal.close()
        recovered = SnapshotStore(
            fig1_corpus,
            domain_seed_words=DOMAIN_VOCABULARIES,
            durable_dir=tmp_path / "d",
            ingest_config=IngestConfig(checkpoint_interval=100),
        )
        assert recovered.snapshot.epoch == epoch
        recovered.close()


def wait_for(predicate, timeout=10.0):
    """Poll ``predicate`` until it holds or ``timeout`` seconds pass."""
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


class TestRejectedDelta:
    """A delta the corpus rejects costs only itself."""

    @staticmethod
    def orphan_post():
        return CorpusDelta(posts=[Post(
            "orphan-post", "no-such-blogger",
            body="a post by a blogger nobody crawled", created_day=300,
        )])

    def test_rejected_delta_alone_compiles_nothing(self, store):
        metrics = store._instr.metrics
        before = store.snapshot
        store.submit(self.orphan_post())
        assert store.refresh_now() is before
        assert store.pending_deltas == 0
        assert metrics.get("repro_snapshot_compile_total").value == 0
        assert metrics.get("repro_serve_snapshot_swaps_total").value == 0

    @pytest.mark.parametrize("durable", [False, True],
                             ids=["plain", "durable"])
    def test_refresher_survives_and_serves_the_good_delta(
        self, fig1_corpus, tmp_path, durable
    ):
        from repro.ingest import IngestConfig

        # Interval high enough that the applied records stay in the WAL.
        options = dict(
            durable_dir=tmp_path / "d",
            ingest_config=IngestConfig(checkpoint_interval=100),
        ) if durable else {}
        store = SnapshotStore(
            fig1_corpus, domain_seed_words=DOMAIN_VOCABULARIES,
            max_staleness=0.2, **options,
        )
        try:
            store.start()
            # One staleness window: the refresher merges both.
            store.submit(self.orphan_post())
            store.submit(make_delta(fig1_corpus, seq=1))
            assert wait_for(
                lambda: "newcomer-01" in store.snapshot.blogger_ids
            )
            assert store._thread.is_alive()
            assert store.pending_deltas == 0
            assert "orphan-post" not in store.report.corpus.posts
            if durable:
                records = list(store.pipeline.wal.replay(after_seq=0))
                assert [seq for seq, _ in records] == [1]
                assert [b.blogger_id for b in records[0][1].bloggers] == [
                    "newcomer-01"
                ]
            # The refresher keeps serving what arrives later.
            store.submit(make_delta(fig1_corpus, seq=2))
            assert wait_for(
                lambda: "newcomer-02" in store.snapshot.blogger_ids
            )
            served = store.snapshot.epoch
        finally:
            store.close()
        if durable:
            recovered = SnapshotStore(
                fig1_corpus, domain_seed_words=DOMAIN_VOCABULARIES,
                **options,
            )
            assert recovered.snapshot.epoch == served
            recovered.close()


class TestTracedRefreshHooks:
    """The span and metric names a traced delta apply is attributed by.

    ``perfbench/ingest.py`` splits each delta's refresh into layers by
    these names; deleting or renaming one must fail here instead of
    silently zeroing a layer of the benchmark.
    """

    APPLY_LAYERS = ("gl", "quality", "assemble", "iterate", "scatter")

    def test_content_only_and_gl_moving_refreshes(self, small_blogosphere,
                                                  tmp_path):
        from repro.ingest import IngestConfig

        corpus, _ = small_blogosphere
        authors = sorted(corpus.blogger_ids())
        post = Post("hooks-post", authors[0],
                    body="a fresh take on the stadium marathon game " * 3,
                    created_day=300)
        content_only = CorpusDelta(posts=[post], comments=[
            Comment("hooks-comment", post.post_id, authors[1],
                    text="I agree, a wonderful read", created_day=301),
        ])
        instr = Instrumentation.enabled()
        store = SnapshotStore(
            corpus, max_staleness=0, durable_dir=tmp_path / "d",
            ingest_config=IngestConfig(), instrumentation=instr,
        )
        try:
            store.pipeline.wait_recovery_checkpoint()
            metrics = instr.metrics
            for delta in (content_only, make_delta(corpus)):
                roots = len(instr.tracer.roots)
                compiles = metrics.get("repro_snapshot_compile_total").value
                store.submit(delta)
                store.refresh_now()
                assert (metrics.get("repro_snapshot_compile_total").value
                        == compiles + 1)
                (refresh,) = [span for span in instr.tracer.roots[roots:]
                              if span.name == "serve-refresh"]
                assert refresh.find("wal-append") is not None
                apply_span = refresh.find("incremental-apply")
                assert apply_span is not None
                for layer in self.APPLY_LAYERS:
                    assert apply_span.find(layer) is not None, layer
                for name in ("repro_incremental_dirty_rows",
                             "repro_incremental_last_iterations"):
                    gauge = metrics.get(name)
                    assert gauge is not None and gauge.value > 0, name
        finally:
            store.close()
