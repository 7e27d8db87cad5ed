"""Experiment A17 (extension) — the temporal subsystem's gates.

Three claims of the timeline PR, measured and enforced:

1. **Rising-blogger recall** — the generator plants bloggers whose
   attention ramps over the year; recall@k of the trajectory's trend
   ranking against the planted set must beat the static full-window
   influence ranking (the snapshot averages the risers' weak early
   months away, the trend does not).
2. **as_of beats re-solving** — materializing a retained checkpoint
   (``TimelineService.as_of``: mmap load + report parse + snapshot
   compile) must be strictly faster than the cold re-analysis it
   replaces (classify + solve + report build over the same corpus).
3. **Trajectory backend routing** — the satellite fix that routes
   windowed solves through the compiled backend with a shared
   sentiment cache must beat the old per-window reference sweep.
   Both sides run one untimed warm-up, then ``TRAJECTORY_ROUNDS``
   interleaved timed rounds; the gate reads the ratio of the medians.

Results land in ``BENCH_temporal2.json`` at the repo root.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
from pathlib import Path

from conftest import BENCH_SEED, print_header, print_rows

from repro.core import (
    IncrementalAnalyzer,
    InfluenceSolver,
    MassParameters,
    trajectory,
)
from repro.ingest import IngestConfig, IngestPipeline
from repro.nlp import NaiveBayesClassifier
from repro.serve import InfluenceSnapshot
from repro.synth import (
    DOMAIN_VOCABULARIES,
    BlogosphereConfig,
    generate_blogosphere,
)
from repro.timeline import TimelineService

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_temporal2.json"

RISING_CONFIG = BlogosphereConfig(
    num_bloggers=400, posts_per_blogger=6.0, rising_bloggers=5
)
WINDOW_DAYS = 90
STEP_DAYS = 90
ASOF_ROUNDS = 5
TRAJECTORY_ROUNDS = 7
RETENTION = "last:4"


def _recall(ranked_ids: list[str], planted: set[str]) -> float:
    return len(set(ranked_ids) & planted) / len(planted)


def _naive_window_sweep(corpus, params: MassParameters) -> float:
    """The pre-fix trajectory loop: one reference solve per window.

    Replicates what ``trajectory()`` used to do — a fresh reference
    solver per window, no shared sentiment cache — so the routing
    fix's speedup is measured against the real old behavior rather
    than guessed.
    """
    reference = params.with_overrides(solver_backend="reference")
    last = 0
    for post in corpus.posts.values():
        last = max(last, post.created_day)
    for comment in corpus.comments.values():
        last = max(last, comment.created_day)
    started = time.monotonic()
    previous = None
    day = 0
    while day < last + 1:
        window_end = min(day + WINDOW_DAYS, last + 1)
        if day > 0 and (last + 1 - day) * 2 < WINDOW_DAYS:
            break
        sliced = corpus.time_slice(day, window_end)
        previous = InfluenceSolver(sliced, reference).solve(
            initial=previous
        ).influence
        day += STEP_DAYS
    return time.monotonic() - started


def test_temporal_gates(tmp_path):
    corpus, truth = generate_blogosphere(RISING_CONFIG, seed=BENCH_SEED)
    planted = set(truth.rising_bloggers())
    k = len(planted)

    # -- leg 1: rising-blogger recall, trend vs static ----------------
    # Untimed: this is also leg 3's warm-up of the compiled side.
    result = trajectory(corpus, window_days=WINDOW_DAYS,
                        step_days=STEP_DAYS)
    trend_top = [b for b, _ in result.rising_bloggers(k)]
    static_scores = InfluenceSolver(corpus).solve().influence
    static_top = [
        b for b, _ in sorted(static_scores.items(),
                             key=lambda kv: (-kv[1], kv[0]))[:k]
    ]
    trend_recall = _recall(trend_top, planted)
    static_recall = _recall(static_top, planted)

    # -- leg 2: as_of materialization vs cold re-analysis -------------
    classifier = NaiveBayesClassifier.from_seed_vocabulary(
        DOMAIN_VOCABULARIES
    )
    pipeline = IngestPipeline(
        tmp_path, IncrementalAnalyzer(classifier),
        IngestConfig(checkpoint_interval=1, retention=RETENTION),
    )
    pipeline.open(corpus)
    pipeline.wait_recovery_checkpoint()
    pipeline.close()

    asof_seconds = []
    for _ in range(ASOF_ROUNDS):
        # A fresh service per round: every materialization pays the
        # full cold path (checkpoint load + snapshot compile), never a
        # warm cache hit.
        service = TimelineService(tmp_path)
        started = time.monotonic()
        payload = service.as_of(k=3)
        asof_seconds.append(time.monotonic() - started)
    asof_median = statistics.median(asof_seconds)

    resolve_seconds = []
    for _ in range(2):
        started = time.monotonic()
        report = IncrementalAnalyzer(
            NaiveBayesClassifier.from_seed_vocabulary(DOMAIN_VOCABULARIES)
        ).fit(corpus)
        resolve_seconds.append(time.monotonic() - started)
    resolve_median = statistics.median(resolve_seconds)
    cold_epoch = InfluenceSnapshot.compile(report).epoch
    assert payload["epoch"] == cold_epoch, (
        "as_of materialized a different analysis than re-solving: "
        f"{payload['epoch'][:16]} != {cold_epoch[:16]}"
    )

    # -- leg 3: trajectory routing speedup ----------------------------
    # One run of either side is too short to compare on a shared host:
    # warm the reference side up too, then interleave timed rounds.
    _naive_window_sweep(corpus, MassParameters())
    compiled_all, naive_all = [], []
    for _ in range(TRAJECTORY_ROUNDS):
        started = time.monotonic()
        trajectory(corpus, window_days=WINDOW_DAYS, step_days=STEP_DAYS)
        compiled_all.append(time.monotonic() - started)
        naive_all.append(_naive_window_sweep(corpus, MassParameters()))
    trajectory_seconds = statistics.median(compiled_all)
    naive_seconds = statistics.median(naive_all)
    speedup = naive_seconds / trajectory_seconds

    print_header("A17 — temporal subsystem gates", corpus)
    print_rows(
        ["gate", "measured", "bar"],
        [
            ["trend recall@%d" % k, f"{trend_recall:.2f}",
             f"> static {static_recall:.2f}"],
            ["as_of (cold)", f"{asof_median * 1e3:.0f} ms",
             f"< re-solve {resolve_median * 1e3:.0f} ms"],
            ["trajectory (compiled, median)", f"{trajectory_seconds:.2f} s",
             f"reference sweep {naive_seconds:.2f} s "
             f"({speedup:.1f}x)"],
        ],
    )

    payload_out = {
        "bench": "temporal2",
        "seed": BENCH_SEED,
        "config": dataclasses.asdict(RISING_CONFIG),
        "window_days": WINDOW_DAYS,
        "step_days": STEP_DAYS,
        "retention": RETENTION,
        "rising": {
            "planted": sorted(planted),
            "trend_top": trend_top,
            "static_top": static_top,
            "trend_recall": trend_recall,
            "static_recall": static_recall,
        },
        "asof": {
            "rounds": ASOF_ROUNDS,
            "median_seconds": asof_median,
            "all_seconds": asof_seconds,
            "cold_resolve_median_seconds": resolve_median,
            "speedup": resolve_median / asof_median,
            "epoch_identical": True,
        },
        "trajectory": {
            "rounds": TRAJECTORY_ROUNDS,
            "compiled_seconds": trajectory_seconds,
            "reference_sweep_seconds": naive_seconds,
            "compiled_all_seconds": compiled_all,
            "reference_sweep_all_seconds": naive_all,
            "speedup": speedup,
        },
    }
    RESULT_PATH.write_text(
        json.dumps(payload_out, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"temporal results written to {RESULT_PATH.name}")

    # Gate 1: the trend ranking recalls planted risers the static
    # full-window ranking misses.
    assert trend_recall > static_recall, (
        f"trend recall {trend_recall:.2f} does not beat "
        f"static recall {static_recall:.2f}"
    )
    assert trend_recall >= 0.6, trend_top

    # Gate 2: time travel must be strictly cheaper than re-solving.
    assert asof_median < resolve_median, (
        f"as_of ({asof_median:.3f}s) is not faster than a cold "
        f"re-solve ({resolve_median:.3f}s)"
    )

    # Gate 3: the compiled windowed path beats the old reference sweep,
    # median against median.
    assert speedup > 1.0, (
        f"compiled trajectory (median {trajectory_seconds:.2f}s) is not "
        f"faster than the reference sweep (median {naive_seconds:.2f}s)"
    )
