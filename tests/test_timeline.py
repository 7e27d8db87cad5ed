"""The timeline subsystem: retention, history index, service, HTTP API.

Exercises the three layers the time axis is built from — the
:class:`RetentionPolicy` pruner contract, the checkpoint manifest as a
seq/wall-time index with :meth:`CheckpointManager.resolve`'s
latest-at-or-before rule, and the :class:`TimelineService` payloads
behind ``GET /asof`` / ``GET /trend`` — over a real durable directory
written by the ingest pipeline.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.core import CorpusDelta, IncrementalAnalyzer, MassParameters
from repro.data import Blogger, Comment, Link, Post
from repro.errors import IngestError, QueryError, TimelineError
from repro.ingest import IngestConfig, IngestPipeline, RetentionPolicy
from repro.ingest.checkpoint import CheckpointManager
from repro.nlp import NaiveBayesClassifier
from repro.obs import Instrumentation
from repro.serve import (
    InfluenceSnapshot,
    ServiceConfig,
    SnapshotStore,
    create_server,
)
from repro.synth import (
    DOMAIN_VOCABULARIES,
    BlogosphereConfig,
    generate_blogosphere,
)
from repro.timeline import HistoryEntry, TimelineService

STREAM_LENGTH = 5


def _delta(seq: int, anchor: str) -> CorpusDelta:
    blogger_id = f"tl-{seq:03d}"
    return CorpusDelta(
        bloggers=(Blogger(blogger_id, name=f"T{seq}",
                          profile_text="sports stadium marathon blogger",
                          joined_day=seq),),
        posts=(Post(f"tl-p-{seq:03d}", blogger_id,
                    title=f"match report {seq}",
                    body="the stadium game and the marathon " * 2,
                    created_day=30 * seq),),
        comments=(Comment(
            f"tl-c-{seq:03d}",
            f"tl-p-{seq - 1:03d}" if seq > 1 else f"tl-p-{seq:03d}",
            anchor, text=f"reaction number {seq} to the game",
            created_day=30 * seq,
        ),),
        links=(Link(blogger_id, anchor, 0.5),),
    )


def _epoch(report) -> str:
    return InfluenceSnapshot.compile(report).epoch


@pytest.fixture(scope="module")
def durable_history(tmp_path_factory, fig1_corpus):
    """A durable dir with keep-last-3 retention and 5 applied deltas.

    Returns ``(root, anchor, epochs)`` where ``epochs[k]`` is the
    snapshot epoch after delta ``k`` of an uninterrupted run.
    """
    root = tmp_path_factory.mktemp("timeline-history")
    anchor = fig1_corpus.blogger_ids()[0]
    classifier = NaiveBayesClassifier.from_seed_vocabulary(
        DOMAIN_VOCABULARIES
    )
    pipeline = IngestPipeline(
        root, IncrementalAnalyzer(classifier),
        IngestConfig(checkpoint_interval=1, retention="last:3"),
    )
    epochs = [_epoch(pipeline.open(fig1_corpus))]
    pipeline.wait_recovery_checkpoint()
    for seq in range(1, STREAM_LENGTH + 1):
        epochs.append(_epoch(pipeline.apply(_delta(seq, anchor))))
    pipeline.close()
    return root, anchor, epochs


class TestRetentionPolicy:
    @pytest.mark.parametrize("spec,canonical", [
        ("all", "all"),
        ("last:3", "last:3"),
        ("last:1", "last:1"),
        ("7", "last:7"),
        ("horizon:3600", "horizon:3600"),
        ("horizon:1.5", "horizon:1.5"),
    ])
    def test_parse_round_trips(self, spec, canonical):
        policy = RetentionPolicy.parse(spec)
        assert policy.spec() == canonical
        assert RetentionPolicy.parse(policy.spec()) == policy

    @pytest.mark.parametrize("spec", [
        "", "banana", "last:0", "last:-1", "last:x",
        "horizon:-1", "horizon:nan", "horizon:", "all:2",
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(IngestError):
            RetentionPolicy.parse(spec)

    def test_keep_last_n(self):
        entries = [(f"c{i}", i, 100.0 + i) for i in range(6)]
        policy = RetentionPolicy.keep_last(2)
        assert policy.survivors(entries) == {"c4", "c5"}

    def test_keep_all(self):
        entries = [(f"c{i}", i, 100.0 + i) for i in range(4)]
        assert RetentionPolicy.keep_all().survivors(entries) \
            == {"c0", "c1", "c2", "c3"}

    def test_horizon_measured_from_newest(self):
        entries = [("old", 1, 100.0), ("mid", 2, 190.0), ("new", 3, 200.0)]
        policy = RetentionPolicy.horizon(15.0)
        assert policy.survivors(entries) == {"mid", "new"}

    def test_horizon_always_keeps_newest(self):
        entries = [("a", 1, 0.0), ("b", 2, 1000.0)]
        assert RetentionPolicy.horizon(0.001).survivors(entries) == {"b"}

    def test_survivors_sorts_by_seq_not_input_order(self):
        entries = [("new", 9, 300.0), ("old", 1, 100.0)]
        assert RetentionPolicy.keep_last(1).survivors(entries) == {"new"}


class TestManifestUnderRetention:
    def test_keeps_exactly_last_three(self, durable_history):
        root, _, _ = durable_history
        manifest = CheckpointManager(root / "checkpoints").manifest()
        assert [seq for _, seq, _, _ in manifest] == [3, 4, 5]

    def test_manifest_ordered_with_wall_times(self, durable_history):
        root, _, _ = durable_history
        manifest = CheckpointManager(root / "checkpoints").manifest()
        walls = [wall for _, _, wall, _ in manifest]
        assert walls == sorted(walls)
        assert all(wall > 0 for wall in walls)

    def test_load_at_materializes_named_checkpoint(self, durable_history):
        root, _, epochs = durable_history
        manager = CheckpointManager(root / "checkpoints")
        name, seq, _, _ = manager.manifest()[0]
        checkpoint = manager.load_at(name)
        try:
            assert checkpoint.seq == seq
            assert _epoch(checkpoint.report) == epochs[seq]
        finally:
            checkpoint.close()

    def test_pre_retention_meta_reads_as_wall_zero(self, tmp_path,
                                                   durable_history):
        """Checkpoints written before wall_time existed still index."""
        import shutil

        root, _, _ = durable_history
        shutil.copytree(root / "checkpoints", tmp_path / "checkpoints")
        manager = CheckpointManager(tmp_path / "checkpoints")
        name, _, _, path = manager.manifest()[0]
        meta = json.loads((path / "meta.json").read_text())
        del meta["wall_time"]
        (path / "meta.json").write_text(json.dumps(meta))
        manifest = CheckpointManager(tmp_path / "checkpoints").manifest()
        assert manifest[0][0] == name
        assert manifest[0][2] == 0.0


class TestTimelineHistory:
    """The time axis is the manifest; ``resolve`` picks a point on it."""

    def test_entries_match_manifest(self, durable_history):
        root, _, _ = durable_history
        entries = CheckpointManager(root / "checkpoints").manifest()
        assert [e.seq for e in entries] == [3, 4, 5]
        assert all(isinstance(e, HistoryEntry) for e in entries)

    def test_resolve_defaults_to_newest(self, durable_history):
        root, _, _ = durable_history
        manager = CheckpointManager(root / "checkpoints")
        assert manager.resolve().seq == 5

    def test_resolve_seq_latest_at_or_before(self, durable_history):
        root, _, _ = durable_history
        manager = CheckpointManager(root / "checkpoints")
        assert manager.resolve(seq=4).seq == 4
        # seq 1000 is after everything retained: clamp to newest.
        assert manager.resolve(seq=1000).seq == 5

    def test_resolve_timestamp_latest_at_or_before(self, durable_history):
        root, _, _ = durable_history
        manager = CheckpointManager(root / "checkpoints")
        entries = manager.manifest()
        midpoint = (entries[0].wall_time + entries[1].wall_time) / 2
        resolved = manager.resolve(timestamp=midpoint)
        assert resolved.seq == entries[0].seq

    def test_resolve_rejects_both_axes(self, durable_history):
        root, _, _ = durable_history
        manager = CheckpointManager(root / "checkpoints")
        with pytest.raises(TimelineError, match="not both"):
            manager.resolve(timestamp=1.0, seq=1)

    def test_resolve_before_retained_span(self, durable_history):
        root, _, _ = durable_history
        manager = CheckpointManager(root / "checkpoints")
        with pytest.raises(TimelineError, match="predates"):
            manager.resolve(timestamp=1.5)
        with pytest.raises(TimelineError, match="predates"):
            manager.resolve(seq=0)

    def test_empty_directory_raises(self, tmp_path):
        manager = CheckpointManager(tmp_path / "checkpoints")
        with pytest.raises(TimelineError, match="no checkpoint history"):
            manager.resolve()

    def test_as_of_round_trips_epoch(self, durable_history):
        root, _, epochs = durable_history
        manager = CheckpointManager(root / "checkpoints")
        for seq in (3, 4, 5):
            checkpoint = manager.load_at(manager.resolve(seq=seq).path)
            try:
                assert checkpoint.seq == seq
                assert _epoch(checkpoint.report) == epochs[seq]
            finally:
                checkpoint.close()


class TestTimelineService:
    def test_missing_directory_is_refused(self, tmp_path):
        durable = tmp_path / "nodir"
        for missing in (durable, durable / "checkpoints"):
            with pytest.raises(TimelineError, match="no checkpoint history"):
                TimelineService(missing)
        assert list(tmp_path.iterdir()) == []

    def test_accepts_durable_root_or_checkpoint_dir(self, durable_history):
        root, _, _ = durable_history
        by_root = TimelineService(root).history_listing()
        by_dir = TimelineService(root / "checkpoints").history_listing()
        assert by_root == by_dir
        assert by_root["retained"] == 3

    def test_as_of_payload(self, durable_history):
        root, _, epochs = durable_history
        service = TimelineService(root)
        payload = service.as_of(seq=4, k=2)
        assert payload["resolved"]["seq"] == 4
        assert payload["epoch"] == epochs[4]
        assert len(payload["results"]) == 2
        scores = [item["score"] for item in payload["results"]]
        assert scores == sorted(scores, reverse=True)

    def test_as_of_rejects_bad_k(self, durable_history):
        root, _, _ = durable_history
        with pytest.raises(QueryError, match="k must be >= 1"):
            TimelineService(root).as_of(k=0)

    def test_snapshot_cache_hits(self, durable_history):
        root, _, _ = durable_history
        instr = Instrumentation.enabled()
        service = TimelineService(root, instrumentation=instr)
        service.as_of(seq=4)
        service.as_of(seq=4)
        registry = instr.metrics
        assert registry.counter(
            "repro_timeline_snapshot_cache_misses_total"
        ).value == 1
        assert registry.counter(
            "repro_timeline_snapshot_cache_hits_total"
        ).value == 1

    def test_trend_payload(self, durable_history):
        root, _, _ = durable_history
        service = TimelineService(root)
        payload = service.trend(window_days=60, step_days=30, k=3)
        assert payload["resolved"]["seq"] == 5
        assert len(payload["windows"]) >= 2
        assert payload["rising"]
        slopes = [item["trend"] for item in payload["rising"]]
        assert slopes == sorted(slopes, reverse=True)

    def test_trend_rejects_bad_window(self, durable_history):
        root, _, _ = durable_history
        with pytest.raises(QueryError, match="window and step"):
            TimelineService(root).trend(window_days=0)

    def test_trend_unknown_domain(self, durable_history):
        root, _, _ = durable_history
        with pytest.raises(QueryError, match="unknown domain"):
            TimelineService(root).trend(domain="Astrology")

    def test_trend_domain_filter_is_membership(self, durable_history):
        """A domain lens keeps only that domain's positive scorers."""
        root, _, _ = durable_history
        service = TimelineService(root)
        snapshot, _ = service.snapshot_at()
        total = len(snapshot.blogger_ids)
        populated = empty = None
        for domain in snapshot.domains:
            members = {b for b, s in snapshot.top(total, domain=domain)
                       if s > 0.0}
            if members and populated is None:
                populated = domain, members
            if not members and empty is None:
                empty = domain
        assert populated is not None, "corpus has no populated domain"
        domain, members = populated
        payload = service.trend(domain=domain, window_days=60,
                                step_days=30, k=total)
        assert payload["rising"], payload
        assert {item["blogger_id"] for item in payload["rising"]} <= members
        if empty is not None:
            with pytest.raises(TimelineError, match="no active bloggers"):
                service.trend(domain=empty, window_days=60, step_days=30)

    def test_trajectory_cache_reused(self, durable_history):
        root, _, _ = durable_history
        service = TimelineService(root)
        first, entry1 = service.trajectory_at(60, 30)
        second, entry2 = service.trajectory_at(60, 30)
        assert first is second
        assert entry1 == entry2

    def test_history_listing(self, durable_history):
        root, _, _ = durable_history
        listing = TimelineService(root).history_listing()
        assert listing["retained"] == 3
        assert [e["seq"] for e in listing["entries"]] == [3, 4, 5]


@pytest.fixture(scope="module")
def timeline_server(durable_history, fig1_corpus):
    """A running server whose time axis is the retained history."""
    root, _, _ = durable_history
    instr = Instrumentation.enabled()
    store = SnapshotStore(
        fig1_corpus, params=MassParameters(), instrumentation=instr
    )
    server = create_server(
        store,
        ServiceConfig(port=0, timeline_dir=str(root)),
        instr,
    )
    server.serve_in_thread()
    yield server
    server.shutdown()
    server.server_close()
    store.close()


def _get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=10) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


def _get_error(server, path):
    try:
        urllib.request.urlopen(server.url + path, timeout=10)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))
    raise AssertionError(f"{path} unexpectedly succeeded")


class TestTimelineHttp:
    def test_timeline_listing(self, timeline_server):
        status, body = _get(timeline_server, "/timeline")
        assert status == 200
        assert body["retained"] == 3
        assert [e["seq"] for e in body["entries"]] == [3, 4, 5]

    def test_asof_by_seq(self, timeline_server, durable_history):
        _, _, epochs = durable_history
        status, body = _get(timeline_server, "/asof?seq=4&k=2")
        assert status == 200
        assert body["resolved"]["seq"] == 4
        assert body["epoch"] == epochs[4]
        assert len(body["results"]) == 2

    def test_asof_newest_by_default(self, timeline_server, durable_history):
        _, _, epochs = durable_history
        status, body = _get(timeline_server, "/asof")
        assert status == 200
        assert body["epoch"] == epochs[5]

    def test_asof_before_history_is_404(self, timeline_server):
        code, body = _get_error(timeline_server, "/asof?t=1.5")
        assert code == 404
        assert "predates" in body["error"]

    def test_asof_rejects_both_axes(self, timeline_server):
        code, body = _get_error(timeline_server, "/asof?t=5&seq=4")
        assert code == 404
        assert "not both" in body["error"]

    def test_asof_bad_params(self, timeline_server):
        code, body = _get_error(timeline_server, "/asof?k=banana")
        assert code == 400
        assert "integer" in body["error"]
        code, body = _get_error(timeline_server, "/asof?t=soon")
        assert code == 400
        assert "number" in body["error"]

    def test_trend_endpoint(self, timeline_server):
        status, body = _get(
            timeline_server, "/trend?window=60&step=30&k=3"
        )
        assert status == 200
        assert body["rising"]
        assert body["window_days"] == 60
        assert body["step_days"] == 30

    def test_trend_bad_window_is_400(self, timeline_server):
        code, body = _get_error(timeline_server, "/trend?window=0")
        assert code == 400
        assert "window and step" in body["error"]

    def test_no_time_axis_is_404(self, fig1_corpus):
        instr = Instrumentation.enabled()
        store = SnapshotStore(fig1_corpus, instrumentation=instr)
        server = create_server(store, ServiceConfig(port=0), instr)
        server.serve_in_thread()
        try:
            code, body = _get_error(server, "/asof")
            assert code == 404
            assert "no time axis" in body["error"]
            code, _ = _get_error(server, "/trend")
            assert code == 404
            code, _ = _get_error(server, "/timeline")
            assert code == 404
        finally:
            server.shutdown()
            server.server_close()
            store.close()


class TestTrendParameters:
    """``/trend`` solves under the parameters the history was analyzed
    with, however the service was built."""

    PARAMS = MassParameters(alpha=0.8, beta=0.3)

    @pytest.fixture(scope="class")
    def tuned_history(self, tmp_path_factory):
        """One checkpoint of a 40-blogger corpus analyzed at α=0.8, β=0.3."""
        root = tmp_path_factory.mktemp("timeline-tuned")
        corpus, _ = generate_blogosphere(
            BlogosphereConfig(num_bloggers=40, posts_per_blogger=3,
                              rising_bloggers=3),
            seed=7,
        )
        classifier = NaiveBayesClassifier.from_seed_vocabulary(
            DOMAIN_VOCABULARIES
        )
        pipeline = IngestPipeline(
            root, IncrementalAnalyzer(classifier, self.PARAMS),
            IngestConfig(checkpoint_interval=1),
        )
        pipeline.open(corpus)
        pipeline.wait_recovery_checkpoint()
        pipeline.close()
        return root, corpus

    def test_service_and_http_agree_with_the_served_parameters(
        self, tuned_history
    ):
        root, corpus = tuned_history
        expected = TimelineService(root, self.PARAMS).trend(k=5)
        assert expected["rising"]
        assert TimelineService(root).trend(k=5) == expected
        instr = Instrumentation.enabled()
        store = SnapshotStore(corpus, params=self.PARAMS,
                              instrumentation=instr)
        server = create_server(
            store, ServiceConfig(port=0, timeline_dir=str(root)), instr
        )
        server.serve_in_thread()
        try:
            status, body = _get(server, "/trend?k=5")
        finally:
            server.shutdown()
            server.server_close()
            store.close()
        assert status == 200
        assert body["rising"] == expected["rising"]
