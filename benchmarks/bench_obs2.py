"""Second-generation observability — overhead of always-on correlation.

PR 6 turned the flight recorder and trace-context propagation on for
every instrumented run: each closed span lands in the recorder ring,
every HTTP request mints a :class:`TraceContext`, and the SLO engine
observes every served query.  The contract is that none of this moves
the needle:

1. **solver overhead** — an instrumented 1k-blogger solve (metrics +
   tracer + recorder, spans feeding the ring) vs the same solve under
   ``NULL_INSTRUMENTATION``; acceptance <10% wall-time overhead;
2. **served query p50** — a fully correlated server (trace header,
   span-per-request, recorder, SLO observations) vs a metrics-only
   server on the same snapshot; acceptance <15% on the p50;
3. **recorder throughput** — raw ``note()`` appends/s into the bounded
   ring, the primitive everything above leans on.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_obs2.py          # full
    PYTHONPATH=src python benchmarks/bench_obs2.py --smoke  # CI

Full mode writes ``BENCH_obs2.json`` at the repo root.  Smoke mode
shrinks the corpus and request counts but still enforces both overhead
bounds, so the CI leg fails when correlation gets expensive.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import urllib.request
from pathlib import Path

from repro.core.solver import InfluenceSolver
from repro.obs import (
    NULL_INSTRUMENTATION,
    FlightRecorder,
    Instrumentation,
    MetricsRegistry,
    Tracer,
)
from repro.serve import ServiceConfig, SnapshotStore, create_server
from repro.synth import DOMAIN_VOCABULARIES, BlogosphereConfig, generate_blogosphere

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs2.json"
BENCH_SEED = 2010
SOLVE_BUDGET = 1.10
QUERY_BUDGET = 1.15
RECORDER_NOTES = 50_000


def metrics_only() -> Instrumentation:
    """The pre-PR-6 shape: counters and histograms, no correlation."""
    return Instrumentation(
        MetricsRegistry(enabled=True),
        Tracer(enabled=False),
        FlightRecorder(enabled=False),
    )


def make_corpus(num_bloggers: int):
    corpus, _ = generate_blogosphere(
        BlogosphereConfig(num_bloggers=num_bloggers, posts_per_blogger=6.0),
        seed=BENCH_SEED,
    )
    return corpus


def solve_overhead(corpus, rounds: int) -> dict:
    """Median instrumented vs null solve wall-time, interleaved."""

    def one(instrumentation) -> float:
        solver = InfluenceSolver(corpus, instrumentation=instrumentation)
        started = time.perf_counter()
        scores = solver.solve()
        elapsed = time.perf_counter() - started
        assert scores.converged
        return elapsed

    null_samples, full_samples = [], []
    spans_recorded = 0
    for _ in range(rounds):
        null_samples.append(one(NULL_INSTRUMENTATION))
        instr = Instrumentation.enabled()
        full_samples.append(one(instr))
        spans_recorded = len(instr.recorder)
    null_s = statistics.median(null_samples)
    full_s = statistics.median(full_samples)
    return {
        "rounds": rounds,
        "null_seconds": null_s,
        "instrumented_seconds": full_s,
        "ratio": full_s / max(null_s, 1e-9),
        "recorder_events_per_solve": spans_recorded,
    }


def _request_seconds(url: str) -> float:
    started = time.perf_counter()
    with urllib.request.urlopen(url, timeout=30) as resp:
        resp.read()
        assert resp.status == 200
    return time.perf_counter() - started


def served_query_p50(corpus, rounds: int, batch: int) -> dict:
    """p50 of /top under full correlation vs metrics-only."""
    variants = {}
    servers = []
    try:
        for name, instr in (
            ("metrics_only", metrics_only()),
            ("correlated", Instrumentation.enabled()),
        ):
            store = SnapshotStore(
                corpus,
                domain_seed_words=DOMAIN_VOCABULARIES,
                instrumentation=instr,
            )
            server = create_server(store, ServiceConfig(port=0), instr)
            server.serve_in_thread()
            servers.append((server, store))
            variants[name] = {
                "url": server.url + "/top?k=10",
                "samples": [],
            }
        for variant in variants.values():  # warm caches and sockets
            for _ in range(5):
                _request_seconds(variant["url"])
        for _ in range(rounds):  # interleave so drift hits both equally
            for variant in variants.values():
                for _ in range(batch):
                    variant["samples"].append(
                        _request_seconds(variant["url"])
                    )
    finally:
        for server, store in servers:
            server.shutdown()
            server.server_close()
            store.close()
    base = statistics.median(variants["metrics_only"]["samples"])
    full = statistics.median(variants["correlated"]["samples"])
    return {
        "requests_per_variant": rounds * batch,
        "metrics_only_p50_seconds": base,
        "correlated_p50_seconds": full,
        "ratio": full / max(base, 1e-9),
    }


def recorder_throughput() -> dict:
    """Raw append rate into the bounded ring."""
    recorder = FlightRecorder(enabled=True)
    started = time.perf_counter()
    for i in range(RECORDER_NOTES):
        recorder.note("bench-tick", seq=i)
    elapsed = time.perf_counter() - started
    return {
        "notes": RECORDER_NOTES,
        "seconds": elapsed,
        "notes_per_second": RECORDER_NOTES / elapsed,
        "dropped": recorder.dropped,
    }


def run(num_bloggers: int, solve_rounds: int, query_rounds: int,
        query_batch: int) -> dict:
    print(f"generating {num_bloggers}-blogger corpus "
          f"(seed {BENCH_SEED}) ...", flush=True)
    corpus = make_corpus(num_bloggers)

    solve = solve_overhead(corpus, solve_rounds)
    print(f"solve: null {solve['null_seconds'] * 1e3:8.1f} ms  "
          f"correlated {solve['instrumented_seconds'] * 1e3:8.1f} ms  "
          f"ratio {solve['ratio']:.3f}x "
          f"(budget {SOLVE_BUDGET:.2f}x)", flush=True)

    query = served_query_p50(corpus, query_rounds, query_batch)
    print(f"query p50: metrics-only "
          f"{query['metrics_only_p50_seconds'] * 1e3:6.2f} ms  "
          f"correlated {query['correlated_p50_seconds'] * 1e3:6.2f} ms  "
          f"ratio {query['ratio']:.3f}x "
          f"(budget {QUERY_BUDGET:.2f}x)", flush=True)

    ring = recorder_throughput()
    print(f"recorder: {ring['notes_per_second'] / 1e6:.2f}M notes/s "
          f"({ring['dropped']} dropped past capacity)", flush=True)

    assert solve["ratio"] < SOLVE_BUDGET, (
        f"always-on correlation costs {solve['ratio']:.2f}x on the "
        f"solve — budget {SOLVE_BUDGET:.2f}x"
    )
    assert query["ratio"] < QUERY_BUDGET, (
        f"trace+recorder+SLO path costs {query['ratio']:.2f}x on served "
        f"query p50 — budget {QUERY_BUDGET:.2f}x"
    )

    return {
        "bench": "obs2",
        "experiment": "always-on correlation overhead (PR 6)",
        "seed": BENCH_SEED,
        "num_bloggers": num_bloggers,
        "budgets": {"solve": SOLVE_BUDGET, "served_query_p50": QUERY_BUDGET},
        "solve_overhead": solve,
        "served_query": query,
        "recorder_throughput": ring,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small corpus, fewer rounds, no JSON")
    parser.add_argument("--bloggers", type=int, default=1000)
    parser.add_argument("--solve-rounds", type=int, default=5)
    parser.add_argument("--query-rounds", type=int, default=6)
    parser.add_argument("--query-batch", type=int, default=40)
    args = parser.parse_args(argv)

    if args.smoke:
        run(250, solve_rounds=15, query_rounds=5, query_batch=40)
        print("smoke OK: correlation overhead within budget")
        return 0
    payload = run(args.bloggers, args.solve_rounds, args.query_rounds,
                  args.query_batch)
    RESULT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True)
                           + "\n", encoding="utf-8")
    print(f"wrote {RESULT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
