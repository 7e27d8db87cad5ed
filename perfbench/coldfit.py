"""``cold-fit``: one-shot analyses of the XML crawl, each in a fresh process.

Each op is shaped like ``repro analyze``: a new interpreter imports the
program and builds the seed-vocabulary classifier (set-up), opens the
XML crawl directory, fits it and compiles the serving snapshot.  A
fresh process per op means no memo carries over between ops.

Untraced ops run the facade (``MassModel.fit`` + ``InfluenceSnapshot
.compile``).  Traced ops run :func:`stages.staged_fit` under spans.
Each op runs on one CPU and starts a calibration sampler first; every
time it reports is reference time (``speed.py``).
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

from common import (
    TOLERANCE, Tally, child_env, end_to_end, max_abs_diff, median, now,
    one_cpu, peak_rss_mb, python_cmd, read_json, write_json,
)
from spans import Row, check_coverage, format_table, layer_metrics
from speed import Sampler

#: Per-layer rows of a traced op, with the end-to-end metric each moves.
ROWS = [
    Row("xml_store.load_s", "data.xml_store", "xml_store.open_corpus",
        "busy", "s", "op_p50_ms"),
    Row("pagerank.busy_s", "graph.pagerank", "compute_gl_scores",
        "busy", "s", "op_p50_ms"),
    Row("sentiment.busy_s", "nlp.sentiment", "CommentModel",
        "busy", "s", "op_p50_ms"),
    Row("sentiment.comments", "nlp.sentiment", "CommentModel",
        "comments", "count", "op_p50_ms"),
    Row("quality.busy_s", "core.quality", "QualityScorer",
        "busy", "s", "op_p50_ms"),
    Row("quality.posts", "core.quality", "QualityScorer",
        "posts", "count", "op_p50_ms"),
    Row("assemble.busy_s", "core.assemble", "compile_system",
        "busy", "s", "op_p50_ms"),
    Row("assemble.nnz", "core.assemble", "compile_system",
        "nnz", "count", "op_p50_ms"),
    Row("sparse_solver.iterate_s", "core.sparse_solver", "jacobi_solve",
        "busy", "s", "op_p50_ms"),
    Row("sparse_solver.sweeps", "core.sparse_solver", "jacobi_solve",
        "sweeps", "count", "op_p50_ms"),
    Row("sparse_solver.scatter_s", "core.sparse_solver", "evaluate_posts",
        "busy", "s", "op_p50_ms"),
    Row("naive_bayes.busy_s", "nlp.naive_bayes",
        "NaiveBayesClassifier.predict_proba", "busy", "s", "op_p50_ms"),
    Row("naive_bayes.posts", "nlp.naive_bayes",
        "NaiveBayesClassifier.predict_proba", "posts", "count", "op_p50_ms"),
    Row("domains.busy_s", "core.domains", "DomainInfluence",
        "busy", "s", "op_p50_ms"),
    Row("snapshot.compile_s", "serve.snapshot", "InfluenceSnapshot.compile",
        "busy", "s", "op_p50_ms"),
    Row("snapshot.payload_bytes", "serve.snapshot", "cold-fit",
        "payload_bytes", "B", "op_p50_ms"),
    Row("unattributed_s", "(none)", "cold-fit", "unattributed", "s",
        "(coverage check)"),
]


def child(source: str, mode: str, out: str, scores: bool) -> int:
    """One op, in its own process; writes its timings to ``out``.

    Its timings are reference seconds (``speed.py``) from a calibration
    sampler started before anything else; only the interpreter's start
    before that is wall time, which the parent adds to ``setup_s``.
    """
    t_first = time.perf_counter()
    started = now()
    sampler = Sampler().start()
    from repro.core import MassModel
    from repro.data.xml_store import open_corpus
    from repro.nlp import NaiveBayesClassifier
    from repro.serve import InfluenceSnapshot
    from repro.synth import DOMAIN_VOCABULARIES
    from spans import Recorder
    from stages import staged_fit

    classifier = NaiveBayesClassifier.from_seed_vocabulary(
        DOMAIN_VOCABULARIES
    )
    t_ready = time.perf_counter()
    spans: list[dict] = []
    if mode == "facade":
        corpus = open_corpus(source)
        t_loaded = time.perf_counter()
        report = MassModel(classifier=classifier).fit(corpus)
        snapshot = InfluenceSnapshot.compile(report)
        t_done = time.perf_counter()
    else:
        rec = Recorder()
        with rec.op("cold-fit"):
            corpus, report, snapshot = staged_fit(source, classifier, rec)
        t_done = time.perf_counter()
        t_loaded = next(s["end"] for s in rec.spans
                        if s["name"] == "xml_store.open_corpus")
        spans = rec.spans
    sampler.stop()
    result = {
        "started": started,
        "setup_s": sampler.reference_time(t_first, t_ready),
        "op_s": sampler.reference_time(t_ready, t_done),
        "op2_s": sampler.reference_time(t_loaded, t_done),
        "wall_op_s": t_done - t_ready,
        "epoch": snapshot.epoch, "rss_mb": peak_rss_mb(),
        "spans": sampler.remap(spans),
    }
    if spans:
        result["spans"][0]["counts"]["payload_bytes"] = len(
            snapshot.to_payload())
    if scores:
        result["influence"] = report.scores.influence
    write_json(Path(out), result)
    return 0


def check_op(result: dict, epoch: str, reference: dict[str, float],
             tally: Tally) -> None:
    """An op's epoch, and once per run its scores against the reference."""
    tally.check(result["epoch"] == epoch,
                f"epoch {result['epoch'][:12]} != {epoch[:12]}")
    if "influence" in result:
        diff = max_abs_diff(result["influence"], reference)
        tally.check(diff <= TOLERANCE,
                    f"influence differs from the reference backend "
                    f"by {diff:.3e}")


def run(inputs: Path, oracles: Path, work: Path, seconds: float,
        trace: bool, tally: Tally) -> tuple[dict, str, dict]:
    """The op loop; returns ``(metrics, layer table, sample counts)``."""
    staged = read_json(oracles / "staged.json")
    facade_epoch = read_json(oracles / "fit.json")["epoch"]
    # Untraced ops run the facade and must land on the staged epoch;
    # traced ops run the stages and must land on the facade's epoch.
    expected = facade_epoch if trace else staged["epoch"]
    tally.check(staged["epoch"] == facade_epoch,
                "the staged fit's epoch differs from the facade's")
    mode = "staged" if trace else "facade"
    ops: list[dict] = []
    t_begin = now()
    attempt = 0
    while not ops or now() - t_begin < seconds:
        attempt += 1
        out = work / f"cold-fit-op-{attempt}.json"
        t_spawn = now()
        with one_cpu():
            proc = subprocess.run(
                python_cmd("coldfit.py", "--child", "--source",
                           inputs / "crawl", "--mode", mode, "--out", out,
                           *(["--scores"] if not ops else [])),
                env=child_env(), stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=170,
            )
        if proc.returncode != 0:
            tally.fail(f"op exited {proc.returncode}: "
                       f"{proc.stderr.strip()[-300:]}")
            if now() - t_begin >= seconds:
                break
            continue
        result = read_json(out)
        # The interpreter's start, before the child's sampler, is wall.
        result["setup_s"] += result["started"] - t_spawn
        ops.append(result)
        check_op(result, expected, staged["reference_influence"], tally)
    if not ops:
        raise RuntimeError("no cold-fit op completed: "
                           + "; ".join(tally.reasons))
    metrics = end_to_end({
        "setup_s": (median([o["setup_s"] for o in ops]), "s"),
        "peak_rss_mb": (max(o["rss_mb"] for o in ops), "MB"),
        "op_p50_ms": (median([o["op_s"] for o in ops]) * 1000, "ms"),
        "op2_ms": (median([o["op2_s"] for o in ops]) * 1000, "ms"),
        "ops_per_s": (len(ops) / sum(o["setup_s"] + o["op_s"] for o in ops),
                      "1/s"),
    }, trace)
    table = ""
    if trace:
        spans = [span for index, op in enumerate(ops)
                 for span in _renumber(op["spans"], index)]
        check_coverage(spans, tally)
        metrics.update(layer_metrics(spans, ROWS))
        table = format_table(spans, ROWS)
    return metrics, table, {
        "ops": len(ops),
        "wall_op_p50_ms": round(median([o["wall_op_s"] for o in ops]) * 1000,
                                1)}


def _renumber(spans: list[dict], index: int) -> list[dict]:
    """Make span ids unique across ops (each child numbers from 1)."""
    base = (index + 1) * 1_000_000
    out = []
    for span in spans:
        span = dict(span)
        span["id"] += base
        span["op"] += base
        if span["parent"] is not None:
            span["parent"] += base
        out.append(span)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="one cold-fit op")
    parser.add_argument("--child", action="store_true", required=True)
    parser.add_argument("--source", required=True)
    parser.add_argument("--mode", choices=("facade", "staged"),
                        required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scores", action="store_true")
    args = parser.parse_args(argv)
    return child(args.source, args.mode, args.out, args.scores)


if __name__ == "__main__":
    sys.exit(main())
