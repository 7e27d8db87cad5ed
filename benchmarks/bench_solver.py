"""Experiment A14 (extension) — sparse solver backend speedup.

The sparse backend compiles the corpus once into flat CSR arrays and
runs the Eqs. 1–4 fixed point as array sweeps (`repro.core.assemble` /
`repro.core.sparse_solver`).  This bench times both backends on a
1,000-blogger synthetic corpus and records three speedups:

- **iterate** — the fixed-point sweep phase alone, reference dict loop
  vs compiled kernel.  This is the phase the backend vectorizes and the
  acceptance target (≥5×) applies to it.
- **resolve** — a re-solve with compiled arrays already in hand (the
  incremental analyzer's warm path, where assembly is amortized across
  deltas) vs a full reference backend pass.
- **cold** — whole backend pass including one-off assembly vs the
  reference backend pass.

Results land in ``BENCH_solver.json`` at the repo root.  Both backends
are asserted to agree to 1e-9 on every blogger before any timing is
recorded — a fast wrong solver is worthless.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import pytest
from conftest import BENCH_SEED, print_header, print_rows

from repro.core import (
    MassParameters,
    QualityScorer,
    compile_system,
    jacobi_solve,
)
from repro.core.solver import InfluenceSolver, compute_gl_scores
from repro.core.sparse_solver import default_kernel, evaluate_posts
from repro.synth import BlogosphereConfig, generate_blogosphere

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_solver.json"
ROUNDS = 5
NUM_BLOGGERS = 1000
TARGET_ITERATE_SPEEDUP = 5.0


@pytest.fixture(scope="module")
def solver_corpus():
    """The fixed 1k-blogger corpus the acceptance target is stated on."""
    corpus, _ = generate_blogosphere(
        BlogosphereConfig(num_bloggers=NUM_BLOGGERS, posts_per_blogger=8.0),
        seed=BENCH_SEED,
    )
    return corpus


def _median_seconds(fn, rounds=ROUNDS) -> float:
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def test_sparse_solver_speedup(benchmark, solver_corpus):
    corpus = solver_corpus
    params = MassParameters()

    # Correctness first: the two backends agree on every blogger.
    reference_scores = InfluenceSolver(
        corpus, params.with_overrides(solver_backend="reference")
    ).solve()
    sparse_scores = InfluenceSolver(
        corpus, params.with_overrides(solver_backend="sparse")
    ).solve()
    for blogger_id, value in reference_scores.influence.items():
        assert sparse_scores.influence[blogger_id] == pytest.approx(
            value, abs=1e-9
        )

    # Shared pre-solver work (GL, quality, comment model) is identical
    # for both backends; time only the backend phases.
    solver = InfluenceSolver(corpus, params)
    gl = compute_gl_scores(corpus, params)
    scorer = QualityScorer(params, posts=corpus.posts.values())
    quality = {
        post_id: scorer.score(corpus.post(post_id))
        for post_id in sorted(corpus.posts)
    }
    comment_model = solver.comment_model
    compiled = compile_system(corpus, params, comment_model, quality, gl)

    reference_solver = InfluenceSolver(
        corpus, params.with_overrides(solver_backend="reference")
    )
    reference_s = _median_seconds(
        lambda: reference_solver._solve_reference(
            corpus.blogger_ids(), gl, quality, None
        )
    )
    sparse_solver = InfluenceSolver(
        corpus, params.with_overrides(solver_backend="sparse")
    )
    cold_s = _median_seconds(
        lambda: sparse_solver._solve_sparse(gl, quality, None)
    )
    assemble_s = _median_seconds(
        lambda: compile_system(corpus, params, comment_model, quality, gl)
    )
    iterate_s = _median_seconds(
        lambda: jacobi_solve(
            compiled, params.tolerance, params.max_iterations
        )
    )
    scatter_s = _median_seconds(
        lambda: evaluate_posts(
            compiled, jacobi_solve(
                compiled, params.tolerance, params.max_iterations
            ).influence
        )
    ) - iterate_s
    resolve_s = iterate_s + max(scatter_s, 0.0)

    # One measured sparse end-to-end solve for the benchmark harness.
    benchmark.pedantic(
        lambda: InfluenceSolver(corpus, params).solve(),
        rounds=1, iterations=1,
    )

    iterate_speedup = reference_s / max(iterate_s, 1e-12)
    resolve_speedup = reference_s / max(resolve_s, 1e-12)
    cold_speedup = reference_s / max(cold_s, 1e-12)

    stats = corpus.stats()
    print_header(
        f"A14 — sparse solver backend (kernel={default_kernel()}, "
        f"median of {ROUNDS})", corpus,
    )
    print_rows(
        ["phase", "time", "speedup vs reference"],
        [
            ["reference backend", f"{reference_s * 1000:.1f} ms", "1.00x"],
            ["sparse cold (asm+it+sc)", f"{cold_s * 1000:.1f} ms",
             f"{cold_speedup:.1f}x"],
            ["sparse assemble", f"{assemble_s * 1000:.1f} ms", "-"],
            ["sparse iterate", f"{iterate_s * 1000:.2f} ms",
             f"{iterate_speedup:.1f}x"],
            ["sparse re-solve (cached)", f"{resolve_s * 1000:.2f} ms",
             f"{resolve_speedup:.1f}x"],
        ],
    )

    payload = {
        "bench": "solver",
        "seed": BENCH_SEED,
        "kernel": default_kernel(),
        "corpus": {
            "bloggers": stats.num_bloggers,
            "posts": stats.num_posts,
            "comments": stats.num_comments,
            "links": stats.num_links,
        },
        "iterations": sparse_scores.iterations,
        "nnz": compiled.nnz,
        "rounds": ROUNDS,
        "seconds": {
            "reference_backend": reference_s,
            "sparse_cold": cold_s,
            "sparse_assemble": assemble_s,
            "sparse_iterate": iterate_s,
            "sparse_resolve": resolve_s,
        },
        "speedup": {
            "iterate": iterate_speedup,
            "resolve": resolve_speedup,
            "cold": cold_speedup,
        },
        "target_iterate_speedup": TARGET_ITERATE_SPEEDUP,
    }
    RESULT_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"solver bench written to {RESULT_PATH.name}")

    assert sparse_scores.iterations == reference_scores.iterations
    assert iterate_speedup >= TARGET_ITERATE_SPEEDUP, (
        f"sparse iterate speedup {iterate_speedup:.1f}x below the "
        f"{TARGET_ITERATE_SPEEDUP:.0f}x target"
    )
