"""Experiment A10 (extension) — warm incremental re-analysis.

A deployed MASS re-analyzes continuously as the crawler delivers new
content.  This bench measures the warm apply path (dirty-row
re-assembly, a full Jacobi solve warm-started from the previous fixed
point, a full scatter and fresh domain vectors) end-to-end at serving
scale and enforces two gates:

1. **Speedup** — folding a 10-entity delta into a 10k-blogger corpus
   via ``IncrementalAnalyzer.apply`` must beat a cold from-scratch fit
   of the same grown corpus by >= 10x.
2. **Equivalence** — warm scores must match the cold fit within the
   repo-wide 1e-9 backend-equivalence bound.

Results land in ``BENCH_incremental.json`` at the repo root.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
from pathlib import Path

from conftest import BENCH_SEED, print_header, print_rows

from repro.core import CorpusDelta, IncrementalAnalyzer
from repro.core.incremental import _copy_corpus
from repro.data import Comment, Post
from repro.nlp import NaiveBayesClassifier
from repro.synth import (
    DOMAIN_VOCABULARIES,
    BlogosphereConfig,
    generate_blogosphere,
)

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_incremental.json"

CONFIG = BlogosphereConfig(num_bloggers=10_000, posts_per_blogger=3.0)
DELTA_ENTITIES = 10
WARM_ROUNDS = 3
SPEEDUP_BAR = 10.0
EQUIVALENCE_BOUND = 1e-9

BODY = "the marathon stadium game drew a record crowd this season " * 3
COMMENT = "I agree, excellent points here"


def _local_delta(corpus, tag: str) -> CorpusDelta:
    """A 10-entity delta authored entirely by existing bloggers.

    5 posts + 5 comments, no new bloggers and no links, so the GL
    vector provably cannot move and the warm apply reuses it.
    """
    bloggers = sorted(corpus.blogger_ids())
    n = len(bloggers)
    posts, comments = [], []
    for index in range(DELTA_ENTITIES // 2):
        author = bloggers[(index * 37 + 11) % n]
        post = Post(f"delta-{tag}-p{index}", author, body=BODY,
                    created_day=364)
        posts.append(post)
        commenter = bloggers[(index * 41 + 13) % n]
        if commenter == author:
            commenter = bloggers[(index * 41 + 14) % n]
        comments.append(
            Comment(f"delta-{tag}-c{index}", post.post_id, commenter,
                    text=COMMENT, created_day=364)
        )
    return CorpusDelta(posts=posts, comments=comments)


def test_incremental_warm_apply_gates():
    corpus, _ = generate_blogosphere(CONFIG, seed=BENCH_SEED)
    classifier = NaiveBayesClassifier.from_seed_vocabulary(
        DOMAIN_VOCABULARIES
    )

    analyzer = IncrementalAnalyzer(classifier)
    analyzer.fit(corpus)

    # One unmeasured warm-up apply: the first apply after fit pays a
    # one-time corpus copy (the analyzer takes ownership of a private
    # mutable corpus) that no steady-state apply repeats.
    analyzer.apply(_local_delta(analyzer.report.corpus, tag="warmup"))

    warm_seconds = []
    dirty_rows = []
    for round_index in range(WARM_ROUNDS):
        delta = _local_delta(analyzer.report.corpus, tag=str(round_index))
        started = time.monotonic()
        report = analyzer.apply(delta)
        warm_seconds.append(time.monotonic() - started)
        dirty_rows.append(analyzer.assembly_cache.last_dirty_rows)
    warm_median = statistics.median(warm_seconds)

    # Cold baseline: a from-scratch fit of the same grown corpus.
    grown = _copy_corpus(analyzer.report.corpus)
    started = time.monotonic()
    cold = IncrementalAnalyzer(classifier).fit(grown)
    cold_seconds = time.monotonic() - started

    max_error = max(
        abs(report.scores.influence[blogger_id] - value)
        for blogger_id, value in cold.scores.influence.items()
    )
    speedup = cold_seconds / warm_median

    stats = analyzer.report.corpus.stats()
    print_header("A10 — warm apply", analyzer.report.corpus)
    print_rows(
        ["gate", "measured", "bar"],
        [
            ["warm apply (median)", f"{warm_median * 1e3:.0f} ms",
             f"cold fit {cold_seconds * 1e3:.0f} ms"],
            ["speedup", f"{speedup:.1f}x", f">= {SPEEDUP_BAR:.0f}x"],
            ["re-assembled rows (max)", f"{max(dirty_rows)}", "-"],
            ["max |warm - cold|", f"{max_error:.2e}",
             f"< {EQUIVALENCE_BOUND:.0e}"],
        ],
    )

    payload = {
        "bench": "incremental",
        "seed": BENCH_SEED,
        "config": dataclasses.asdict(CONFIG),
        "corpus": {
            "bloggers": stats.num_bloggers,
            "posts": stats.num_posts,
            "comments": stats.num_comments,
            "links": stats.num_links,
        },
        "delta_entities": DELTA_ENTITIES,
        "warm": {
            "rounds": WARM_ROUNDS,
            "median_seconds": warm_median,
            "all_seconds": warm_seconds,
            "dirty_rows": dirty_rows,
        },
        "cold_fit_seconds": cold_seconds,
        "speedup": speedup,
        "speedup_bar": SPEEDUP_BAR,
        "max_error_vs_cold": max_error,
        "equivalence_bound": EQUIVALENCE_BOUND,
    }
    RESULT_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"incremental results written to {RESULT_PATH.name}")

    assert speedup >= SPEEDUP_BAR, (
        f"warm apply speedup {speedup:.1f}x below the "
        f"{SPEEDUP_BAR:.0f}x bar"
    )
    assert max_error < EQUIVALENCE_BOUND, (
        f"warm scores drifted {max_error:.2e} from the cold fit"
    )
