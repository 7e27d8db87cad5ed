"""Experiment A15 (extension) — durable ingestion: WAL, checkpoint, recovery.

The ingestion subsystem (`repro.ingest`) promises durability without
giving up the incremental analyzer's warm-start speed.  This bench
checks the promise in that order:

1. **equivalence before timing** — every recovered pipeline must match
   the live pipeline it replaces: byte-identical snapshot epoch (a
   SHA-256 over every score and corpus id) for tails of at most one
   record, state-equivalent to solver tolerance when replay coalesces
   a longer tail into one merged delta; a fast wrong recovery is
   worthless;
2. **WAL append throughput** — records/s and MB/s under each fsync
   policy (``always`` / ``batch`` / ``never``), quantifying the price
   of the strongest durability setting;
3. **recovery latency vs tail length** — reopen time from a checkpoint
   plus 0, 3, and 9 unreplayed WAL records, against a cold fit of the
   same corpus (recovery cost grows with the tail — that is why
   checkpoints truncate it).  The replay *fold* (the ``ingest-replay``
   span: coalescing the tail and warm-solving the merged delta) is
   timed separately from the fixed open() costs (checkpoint load, the
   fresh post-replay checkpoint); acceptance: the coalesced fold beats
   the cold re-solve outright for tails of 3+ records — the regression
   this bench used to record was one warm solve *per record*;
3b. **checkpointed restart vs full re-solve** — after a 12-delta
   stream, a checkpointed reopen against re-solving the whole history
   (bootstrap fit + every delta re-applied).  Acceptance: recovery at
   least 5x faster;
4. **checkpoint-amortized cost** — mean per-delta apply time in a
   checkpointed stream, with the checkpoint share reported separately;
5. **grow-phase scaling guard** — the corpus-mutation phase across the
   whole stream must cost less than a handful of full corpus copies
   (the copy-on-first-apply contract: O(delta) per apply, not
   O(corpus)).

Results land in ``BENCH_ingest.json`` at the repo root.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

from conftest import BENCH_SEED, bench_scale, print_header, print_rows

from repro.core import CorpusDelta, IncrementalAnalyzer
from repro.data import Blogger, Comment, Link, Post
from repro.ingest import IngestConfig, IngestPipeline, WriteAheadLog
from repro.ingest.wal import encode_record
from repro.nlp import NaiveBayesClassifier
from repro.obs import Instrumentation
from repro.serve import InfluenceSnapshot
from repro.store import ColumnarCorpus
from repro.synth import DOMAIN_VOCABULARIES

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_ingest.json"

WAL_APPENDS = 300
STREAM_LENGTH = 12
CHECKPOINT_INTERVAL = 4
TAIL_LENGTHS = [0, 3, 9]
FSYNC_POLICIES = [("always", 1), ("batch", 8), ("never", 1)]


def _delta(seq: int, anchor: str) -> CorpusDelta:
    """Deterministic delta ``seq``: one blogger, post, comment, link."""
    blogger_id = f"ing-bench-{seq:03d}"
    comments = ()
    if seq > 1:
        comments = (Comment(
            f"ing-bench-c-{seq:03d}", f"ing-bench-p-{seq - 1:03d}", anchor,
            text=f"reaction number {seq} to the game",
            created_day=200 + seq,
        ),)
    return CorpusDelta(
        bloggers=(Blogger(blogger_id, name=f"B{seq}",
                          profile_text="sports stadium marathon blogger",
                          joined_day=seq),),
        posts=(Post(f"ing-bench-p-{seq:03d}", blogger_id,
                    title=f"match report {seq}",
                    body="the stadium game and the marathon " * 2,
                    created_day=200 + seq),),
        comments=comments,
        links=(Link(blogger_id, anchor, 0.5 + 0.125 * seq),),
    )


def _epoch(report) -> str:
    return InfluenceSnapshot.compile(report).epoch


def _wal_throughput(tmp_path, anchor):
    """records/s and bytes appended for each fsync policy."""
    deltas = [_delta(seq, anchor) for seq in range(1, WAL_APPENDS + 1)]
    payload_bytes = sum(
        len(encode_record(seq, delta))
        for seq, delta in enumerate(deltas, start=1)
    )
    results = {}
    for policy, interval in FSYNC_POLICIES:
        directory = tmp_path / f"wal-{policy}"
        wal = WriteAheadLog(directory, fsync=policy,
                            fsync_interval=interval)
        started = time.perf_counter()
        for delta in deltas:
            wal.append(delta)
        wal.close()
        elapsed = time.perf_counter() - started
        results[policy] = {
            "records": WAL_APPENDS,
            "seconds": elapsed,
            "records_per_second": WAL_APPENDS / elapsed,
            "mb_per_second": payload_bytes / elapsed / 1e6,
        }
        shutil.rmtree(directory)
    results["record_bytes_total"] = payload_bytes
    return results


def test_ingest_durability(benchmark, tmp_path, bench_blogosphere):
    corpus, _ = bench_blogosphere
    anchor = corpus.blogger_ids()[0]
    classifier = NaiveBayesClassifier.from_seed_vocabulary(
        DOMAIN_VOCABULARIES
    )

    wal_stats = _wal_throughput(tmp_path, anchor)

    # One benchmark-fixture round so the run shows up in pytest-benchmark.
    bench_wal = WriteAheadLog(tmp_path / "wal-bench", fsync="batch")
    probe = _delta(1, anchor)
    benchmark.pedantic(lambda: bench_wal.append(probe),
                       rounds=20, iterations=5)
    bench_wal.close()

    # Bootstrap once (one full fit + checkpoint at seq 0), then copy the
    # durable directory per tail length instead of re-fitting each time.
    base_dir = tmp_path / "base"
    bootstrap = IngestPipeline(
        base_dir, IncrementalAnalyzer(classifier),
        IngestConfig(checkpoint_interval=10_000),
    )
    started = time.perf_counter()
    bootstrap.open(corpus)
    bootstrap_seconds = time.perf_counter() - started
    bootstrap.close()

    recovery_rows = []
    recovery_stats = []
    for tail in TAIL_LENGTHS:
        tail_dir = tmp_path / f"tail-{tail}"
        shutil.copytree(base_dir, tail_dir)
        live = IngestPipeline(
            tail_dir, IncrementalAnalyzer(classifier),
            IngestConfig(checkpoint_interval=10_000),
        )
        live.open()
        for seq in range(1, tail + 1):
            live.apply(_delta(seq, anchor))
        live_epoch = _epoch(live.report)
        live_corpus = live.report.corpus
        live_scores = live.report.general_scores()
        # Abandon without close(): the tail stays unreplayed in the WAL.

        recovered_instr = Instrumentation.enabled()
        recovered = IngestPipeline(
            tail_dir,
            IncrementalAnalyzer(classifier,
                                instrumentation=recovered_instr),
            IngestConfig(checkpoint_interval=10_000),
            instrumentation=recovered_instr,
        )
        started = time.perf_counter()
        recovered.open()
        recovery_seconds = time.perf_counter() - started
        replay_seconds = recovered_instr.tracer.find(
            "ingest-replay"
        ).duration
        if tail <= 1:
            assert _epoch(recovered.report) == live_epoch, \
                f"tail={tail}: recovered state diverges from the live run"
        else:
            # Multi-record tails coalesce into one merged delta and one
            # warm solve (PR 6): state-equivalent to solver tolerance,
            # not byte-identical to the record-at-a-time live run.
            recovered_scores = recovered.report.general_scores()
            gap = max(
                abs(recovered_scores[b] - live_scores[b])
                for b in live_corpus.blogger_ids()
            )
            assert gap < 1e-6, \
                f"tail={tail}: recovered/live gap {gap:.2e}"
            assert set(recovered.report.corpus.blogger_ids()) == \
                set(live_corpus.blogger_ids())
        recovered.close()

        cold = IncrementalAnalyzer(classifier)
        started = time.perf_counter()
        cold.fit(live_corpus)
        cold_seconds = time.perf_counter() - started
        # The cold solve agrees with the warm-started stream to solver
        # tolerance; bit-exactness holds replay-vs-live only, which the
        # epoch assertion above already checked.
        cold_scores = cold.report.general_scores()
        error = max(
            abs(cold_scores[blogger_id] - live_scores[blogger_id])
            for blogger_id in live_corpus.blogger_ids()
        )
        assert error < 1e-6, f"tail={tail}: cold/warm gap {error:.2e}"

        recovery_stats.append({
            "tail_records": tail,
            "recovery_seconds": recovery_seconds,
            "replay_fold_seconds": replay_seconds,
            "cold_resolve_seconds": cold_seconds,
            "speedup": cold_seconds / recovery_seconds,
            "fold_speedup_vs_cold": cold_seconds / max(replay_seconds,
                                                       1e-9),
        })
        recovery_rows.append([
            tail, f"{recovery_seconds * 1e3:.1f} ms",
            f"{replay_seconds * 1e3:.1f} ms",
            f"{cold_seconds * 1e3:.1f} ms",
            f"{cold_seconds / recovery_seconds:.1f}x",
        ])

    # Checkpointed stream: amortized apply cost + grow-phase guard.
    instr = Instrumentation.enabled()
    stream = IngestPipeline(
        tmp_path / "stream",
        IncrementalAnalyzer(classifier, instrumentation=instr),
        IngestConfig(checkpoint_interval=CHECKPOINT_INTERVAL),
        instrumentation=instr,
    )
    shutil.copytree(base_dir / "checkpoints",
                    tmp_path / "stream" / "checkpoints",
                    dirs_exist_ok=True)
    stream.open()
    started = time.perf_counter()
    for seq in range(1, STREAM_LENGTH + 1):
        stream.apply(_delta(seq, anchor))
    stream_seconds = time.perf_counter() - started
    checkpoints = instr.metrics.get("repro_ingest_checkpoint_seconds")
    grow = instr.metrics.get("repro_incremental_grow_seconds")
    stream.close()

    stream_epoch = _epoch(stream.report)
    stream_scores = stream.report.general_scores()
    stream_corpus = stream.report.corpus

    per_apply = stream_seconds / STREAM_LENGTH
    checkpoint_share = checkpoints.sum / stream_seconds

    # Checkpointed restart vs re-solving the whole history from scratch.
    restarted = IngestPipeline(
        tmp_path / "stream", IncrementalAnalyzer(classifier),
        IngestConfig(checkpoint_interval=CHECKPOINT_INTERVAL),
    )
    started = time.perf_counter()
    restarted.open()
    restart_seconds = time.perf_counter() - started
    assert _epoch(restarted.report) == stream_epoch, \
        "checkpointed restart diverges from the live stream"
    assert restarted.applied_seq == STREAM_LENGTH
    restarted.close()

    history = IncrementalAnalyzer(classifier)
    started = time.perf_counter()
    history.fit(corpus)
    for seq in range(1, STREAM_LENGTH + 1):
        history.apply(_delta(seq, anchor))
    history_seconds = time.perf_counter() - started
    history_error = max(
        abs(history.report.general_scores()[b] - stream_scores[b])
        for b in stream_corpus.blogger_ids()
    )
    assert history_error < 1e-6, f"history replay gap {history_error:.2e}"
    restart_speedup = history_seconds / restart_seconds

    # Satellite guard: the grow phase must not copy the corpus per
    # apply.  One copy-on-first-apply plus O(delta) extends should cost
    # far less than half a full copy per delta.  The pipeline restored
    # its corpus from a columnar (format 3) checkpoint, so the unit
    # copy is priced from that same plane — materializing row views
    # into entities, not an object-to-object clone.
    restored_mcol = sorted(
        (tmp_path / "stream" / "checkpoints").glob("ckpt-*/corpus.mcol")
    )[0]
    with ColumnarCorpus.open(restored_mcol) as restored_view:
        started = time.perf_counter()
        restored_view.subset(restored_view.blogger_ids())
        copy_seconds = time.perf_counter() - started
    grow_budget = max(copy_seconds * STREAM_LENGTH / 2, copy_seconds * 2)

    print_header(
        f"A15 — durable ingestion ({WAL_APPENDS} WAL appends, "
        f"{STREAM_LENGTH}-delta stream, checkpoint every "
        f"{CHECKPOINT_INTERVAL})", corpus
    )
    print_rows(
        ["fsync policy", "records/s", "MB/s"],
        [
            [policy, f"{wal_stats[policy]['records_per_second']:.0f}",
             f"{wal_stats[policy]['mb_per_second']:.1f}"]
            for policy, _ in FSYNC_POLICIES
        ],
    )
    print_rows(
        ["WAL tail", "recovery", "replay fold", "cold re-solve",
         "speedup"],
        recovery_rows,
    )
    print_rows(
        ["stream cost", "value"],
        [
            ["bootstrap fit + checkpoint", f"{bootstrap_seconds:.2f} s"],
            ["mean apply (WAL+solve+ckpt)", f"{per_apply * 1e3:.1f} ms"],
            ["checkpoint share of stream",
             f"{checkpoint_share * 100:.1f} %"],
            ["grow-phase total",
             f"{grow.sum * 1e3:.2f} ms over {grow.count} applies"],
            ["one full corpus copy", f"{copy_seconds * 1e3:.2f} ms"],
            ["checkpointed restart", f"{restart_seconds * 1e3:.1f} ms"],
            ["full-history re-solve", f"{history_seconds * 1e3:.1f} ms"],
            ["restart speedup", f"{restart_speedup:.1f}x"],
        ],
    )

    payload = {
        "bench": "ingest",
        "scale": bench_scale(),
        "seed": BENCH_SEED,
        "wal_throughput": wal_stats,
        "recovery": {
            "bootstrap_seconds": bootstrap_seconds,
            "by_tail_length": recovery_stats,
        },
        "stream": {
            "length": STREAM_LENGTH,
            "checkpoint_interval": CHECKPOINT_INTERVAL,
            "total_seconds": stream_seconds,
            "mean_apply_seconds": per_apply,
            "checkpoint_seconds_total": checkpoints.sum,
            "checkpoint_count": checkpoints.count,
            "checkpoint_share": checkpoint_share,
            "restart_seconds": restart_seconds,
            "full_history_resolve_seconds": history_seconds,
            "restart_speedup": restart_speedup,
        },
        "grow_phase": {
            "total_seconds": grow.sum,
            "applies": grow.count,
            "single_copy_seconds": copy_seconds,
            "budget_seconds": grow_budget,
        },
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True)
                           + "\n", encoding="utf-8")
    print(f"ingest results written to {RESULT_PATH.name}")

    # Acceptance: recovering from a checkpoint must beat re-solving the
    # whole ingested history by a wide margin, and the grow phase must
    # not have copied the corpus per apply.
    assert restart_speedup >= 5.0, (
        f"checkpointed restart only {restart_speedup:.1f}x faster than "
        f"re-solving the full {STREAM_LENGTH}-delta history"
    )
    assert grow.count >= STREAM_LENGTH
    assert grow.sum < grow_budget, (
        f"grow phase took {grow.sum:.3f}s over {grow.count} applies — "
        f"budget {grow_budget:.3f}s; is apply copying the corpus again?"
    )
    # Coalesced replay (PR 6): a multi-record tail merges into one
    # delta and pays one warm dirty-row solve, so the replay fold must
    # beat the cold re-solve outright once the tail has a few records
    # in it (record-at-a-time replay cost one warm solve per record
    # and lost to cold at 3 records — the ROADMAP-flagged regression).
    for row in recovery_stats:
        if row["tail_records"] >= 3:
            assert row["fold_speedup_vs_cold"] > 1.0, (
                f"tail={row['tail_records']}: coalesced replay fold "
                f"({row['replay_fold_seconds'] * 1e3:.1f} ms) should "
                f"beat a cold re-solve "
                f"({row['cold_resolve_seconds'] * 1e3:.1f} ms)"
            )
