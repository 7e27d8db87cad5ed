"""Shared-memory serving primitives: seqlock, arenas, cross-fork stats.

The multi-process tier stands on three guarantees tested here:

1. **Seqlock epoch-swap** — a reader concurrent with publishes sees an
   old payload or a new payload, never a mix (torn read), in the same
   thread *and* across ``fork``.
2. **Snapshot replication fidelity** — a snapshot round-tripped through
   the arena answers every query identically to the original.
3. **Shared stats lanes** — counters written by forked children are
   visible, exact, and correctly aggregated in the parent's render.
"""

import multiprocessing
import os
import pickle
import threading
import time

import pytest

from repro.core import MassModel, MassParameters
from repro.core.parallel import SeqlockArena, SharedF64Array
from repro.errors import ReproError
from repro.serve import (
    ArenaSnapshotSource,
    ClusterStatusBoard,
    InfluenceSnapshot,
    SharedHttpStats,
    SnapshotArena,
)
from repro.serve.snapshot import PAYLOAD_FORMAT

_FORK = multiprocessing.get_context("fork")


def _payload_for(tag: str) -> bytes:
    """A payload derivable from its tag, so readers can cross-check."""
    return (tag * 97).encode("ascii")


@pytest.fixture(scope="module")
def small_snapshot(small_blogosphere):
    from repro.synth import DOMAIN_VOCABULARIES

    corpus, _ = small_blogosphere
    report = MassModel(
        domain_seed_words=DOMAIN_VOCABULARIES, params=MassParameters()
    ).fit(corpus)
    return InfluenceSnapshot.compile(report)


class TestSeqlockArena:
    def test_empty_arena_reads_none(self):
        arena = SeqlockArena(1024)
        try:
            assert arena.read() is None
            assert arena.version == 0
        finally:
            arena.close()

    def test_roundtrip_and_version_progression(self):
        arena = SeqlockArena(1024)
        try:
            first = arena.publish(b"alpha", tag="one")
            assert first == 2  # odd while writing, even when stable
            version, tag, payload = arena.read()
            assert (version, tag, payload) == (2, "one", b"alpha")
            assert arena.publish(b"beta-longer", tag="two") == 4
            version, tag, payload = arena.read()
            assert (version, tag, payload) == (4, "two", b"beta-longer")
        finally:
            arena.close()

    def test_payload_larger_than_capacity_is_rejected(self):
        arena = SeqlockArena(16)
        try:
            with pytest.raises(ReproError, match="capacity"):
                arena.publish(b"x" * 17)
            # the failed publish must not have wedged the version word
            arena.publish(b"y" * 16)
            assert arena.read()[2] == b"y" * 16
        finally:
            arena.close()

    def test_capacity_validation(self):
        with pytest.raises(ReproError):
            SeqlockArena(0)

    def test_no_torn_reads_under_threaded_publish(self):
        """Readers racing a publisher only ever see (tag, f(tag)) pairs."""
        arena = SeqlockArena(64 << 10)
        stop = threading.Event()
        failures = []
        observed = set()

        def reader():
            try:
                while not stop.is_set():
                    record = arena.read()
                    if record is None:
                        continue
                    _, tag, payload = record
                    if payload != _payload_for(tag):
                        failures.append((tag, len(payload)))
                        return
                    observed.add(tag)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        for thread in readers:
            thread.start()
        try:
            for seq in range(400):
                tag = f"epoch-{seq:04d}"
                arena.publish(_payload_for(tag), tag=tag)
            # Publishing 400 epochs can outrun thread startup; keep the
            # last payload up until every reader has observed something.
            deadline = time.monotonic() + 5.0
            while not observed and not failures \
                    and time.monotonic() < deadline:
                time.sleep(0.005)
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
        try:
            assert not failures, f"torn reads observed: {failures[:3]}"
            assert observed, "readers never saw a stable payload"
        finally:
            arena.close()

    def test_no_torn_reads_across_fork(self):
        """A forked reader hammering the arena never sees a torn pair."""
        arena = SeqlockArena(64 << 10)
        arena.publish(_payload_for("epoch-0000"), tag="epoch-0000")

        def child_reader():
            deadline = time.monotonic() + 5.0
            seen = set()
            while time.monotonic() < deadline and len(seen) < 50:
                record = arena.read()
                if record is None:
                    os._exit(2)
                _, tag, payload = record
                if payload != _payload_for(tag):
                    os._exit(3)  # torn read
                seen.add(tag)
            os._exit(0 if len(seen) >= 2 else 4)

        child = _FORK.Process(target=child_reader)
        child.start()
        try:
            seq = 0
            while child.is_alive():
                seq += 1
                tag = f"epoch-{seq:04d}"
                arena.publish(_payload_for(tag), tag=tag)
                if seq % 64 == 0:
                    time.sleep(0.001)
            child.join(timeout=30)
            assert child.exitcode == 0, f"child exit {child.exitcode}"
        finally:
            if child.is_alive():
                child.kill()
                child.join(timeout=10)
            arena.close()

    def test_republish_never_exposes_empty_header_across_fork(self):
        """A forked poller never sees version 0 or an empty stable payload.

        The parent re-publishes one payload for about a second.  Every
        header store must be a single word, so the child may only ever
        read the published payload: version 0 ("never published") or
        an even version paired with length 0 means a store exposed a
        zeroed header word.
        """
        arena = SeqlockArena(64)
        arena.publish(b"payload", tag="t")

        def child_poller():
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                for _ in range(256):
                    record = arena.read()
                    if record is None:
                        os._exit(2)  # version 0 after a publish
                    if record[2] != b"payload":
                        os._exit(3)  # even version, zeroed length
            os._exit(0)

        child = _FORK.Process(target=child_poller)
        child.start()
        try:
            while child.is_alive():
                for _ in range(256):
                    arena.publish(b"payload", tag="t")
            child.join(timeout=30)
            assert child.exitcode == 0, f"child exit {child.exitcode}"
        finally:
            if child.is_alive():
                child.kill()
                child.join(timeout=10)
            arena.close()


class TestSharedF64Array:
    def test_set_get_add_snapshot(self):
        array = SharedF64Array(4)
        try:
            assert len(array) == 4
            assert array.snapshot() == [0.0, 0.0, 0.0, 0.0]
            array[1] = 2.5
            array.add(1, 0.5)
            array.add(3, 7.0)
            assert array[1] == 3.0
            assert array.snapshot() == [0.0, 3.0, 0.0, 7.0]
        finally:
            array.close()

    def test_fork_visibility(self):
        """A child's stores land in the parent's mapping."""
        array = SharedF64Array(2)

        def child_writer():
            for _ in range(1000):
                array.add(0, 1.0)
            array[1] = 42.0
            os._exit(0)

        child = _FORK.Process(target=child_writer)
        child.start()
        child.join(timeout=30)
        try:
            assert child.exitcode == 0
            assert array.snapshot() == [1000.0, 42.0]
        finally:
            array.close()


class TestSnapshotArena:
    def test_replication_is_query_identical(self, small_snapshot):
        arena = SnapshotArena(32 << 20)
        try:
            arena.publish(small_snapshot)
            version, replica, meta = arena.read()
            assert version == 2
            assert replica.epoch == small_snapshot.epoch
            assert meta["trace"] is None
            # Fidelity: the replica answers queries byte-identically.
            assert replica.top(10) == small_snapshot.top(10)
            assert replica.top(5, "Sports") == small_snapshot.top(5, "Sports")
            assert replica.query({"Sports": 0.7, "Art": 0.3}, 5) \
                == small_snapshot.query({"Sports": 0.7, "Art": 0.3}, 5)
            assert replica.profile(replica.blogger_ids[0]) \
                == small_snapshot.profile(small_snapshot.blogger_ids[0])
            assert replica.stats() == small_snapshot.stats()
        finally:
            arena.close()

    def test_trace_context_rides_the_envelope(self, small_snapshot):
        arena = SnapshotArena(32 << 20)
        try:
            arena.publish(
                small_snapshot,
                trace={"trace_id": "t-123", "span_id": "s-456"},
            )
            _, _, meta = arena.read()
            assert meta["trace"] == {"trace_id": "t-123", "span_id": "s-456"}
            assert meta["published_monotonic"] <= time.monotonic()
        finally:
            arena.close()

    def test_payload_format_mismatch_is_loud(self, small_snapshot):
        stale = pickle.loads(pickle.dumps(small_snapshot.to_payload()))
        blob = pickle.loads(stale)
        assert blob["format"] == PAYLOAD_FORMAT
        blob["format"] = PAYLOAD_FORMAT + 1
        with pytest.raises(ReproError, match="format"):
            InfluenceSnapshot.from_payload(pickle.dumps(blob))


class TestArenaSnapshotSource:
    def test_empty_arena_raises(self):
        arena = SnapshotArena(1 << 20)
        try:
            source = ArenaSnapshotSource(arena)
            with pytest.raises(ReproError, match="empty"):
                source.snapshot  # noqa: B018 - property raises
        finally:
            arena.close()

    def test_attach_once_per_epoch(self, small_snapshot):
        arena = SnapshotArena(32 << 20)
        try:
            arena.publish(small_snapshot)
            source = ArenaSnapshotSource(arena)
            first = source.snapshot
            # Same version: the very same object, no re-deserialization.
            assert source.snapshot is first
            arena.publish(small_snapshot)  # same epoch, new version
            second = source.snapshot
            assert second is not first
            assert second.epoch == first.epoch
            assert source.published_meta["version"] == 4
            # The store-protocol stubs the HTTP layer reads:
            assert source.pending_deltas == 0
            assert source.staleness_seconds == 0.0
            assert source.pipeline is None
        finally:
            arena.close()


class TestSharedHttpStats:
    def test_totals_aggregate_across_workers(self):
        stats = SharedHttpStats(workers=3)
        try:
            stats.counter(0, "requests").inc()
            stats.counter(0, "requests").inc()
            stats.counter(1, "requests").inc(3.0)
            stats.counter(2, "errors").inc()
            assert stats.totals()["requests"] == 5.0
            assert stats.totals()["errors"] == 1.0
            assert stats.per_worker("requests") == [2.0, 3.0, 0.0]
        finally:
            stats.close()

    def test_counter_rejects_negative(self):
        stats = SharedHttpStats(workers=1)
        try:
            with pytest.raises(ReproError):
                stats.counter(0, "requests").inc(-1.0)
        finally:
            stats.close()

    def test_histogram_aggregation_and_render(self):
        stats = SharedHttpStats(workers=2, buckets=(0.01, 0.1, 1.0))
        try:
            stats.histogram(0).observe(0.005)
            stats.histogram(0).observe(0.05)
            stats.histogram(1).observe(0.5)
            stats.histogram(1).observe(5.0)  # lands in +Inf
            counts, total_sum, total_count = stats.histogram_totals()
            assert counts == [1.0, 1.0, 1.0, 1.0]
            assert total_count == 4.0
            assert total_sum == pytest.approx(5.555)
            text = stats.render_text()
            assert "repro_http_requests_total 0" in text
            assert 'le="+Inf"} 4' in text
            assert "repro_http_request_seconds_count 4" in text
        finally:
            stats.close()

    def test_render_reports_per_worker_request_lines(self):
        stats = SharedHttpStats(workers=2)
        try:
            stats.counter(0, "requests").inc(7.0)
            stats.counter(1, "requests").inc(2.0)
            text = stats.render_text()
            assert 'repro_http_worker_requests_total{worker="0"} 7' in text
            assert 'repro_http_worker_requests_total{worker="1"} 2' in text
            assert "repro_http_requests_total 9" in text
        finally:
            stats.close()

    def test_cross_fork_counting_is_exact(self):
        """Two forked children each own a lane; parent sums exactly."""
        stats = SharedHttpStats(workers=2)

        def child(worker_id, increments):
            counter = stats.counter(worker_id, "requests")
            timer_hist = stats.histogram(worker_id)
            for _ in range(increments):
                counter.inc()
                timer_hist.observe(0.001)
            os._exit(0)

        children = [
            _FORK.Process(target=child, args=(0, 500)),
            _FORK.Process(target=child, args=(1, 700)),
        ]
        for proc in children:
            proc.start()
        for proc in children:
            proc.join(timeout=60)
        try:
            assert all(proc.exitcode == 0 for proc in children)
            assert stats.totals()["requests"] == 1200.0
            assert stats.per_worker("requests") == [500.0, 700.0]
            _, _, total_count = stats.histogram_totals()
            assert total_count == 1200.0
        finally:
            stats.close()

    def test_out_of_range_worker_rejected(self):
        stats = SharedHttpStats(workers=1)
        try:
            with pytest.raises(ReproError):
                stats.counter(1, "requests")
            with pytest.raises(ReproError):
                stats.counter(0, "no-such-key")
        finally:
            stats.close()


class TestClusterStatusBoard:
    def test_roundtrip(self):
        board = ClusterStatusBoard()
        try:
            assert board.read() is None
            board.publish({"workers": 2, "pids": [11, 12], "respawns": 0})
            assert board.read() == {
                "workers": 2, "pids": [11, 12], "respawns": 0,
            }
            board.publish({"workers": 2, "respawns": 1})
            assert board.read()["respawns"] == 1
        finally:
            board.close()
