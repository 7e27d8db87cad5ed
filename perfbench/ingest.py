"""``delta-ingest``: the live index, from bootstrap to crash recovery.

The ingest process (``--child``) bootstraps a durable ``SnapshotStore``
over the ``.mcol`` corpus with ``max_staleness=0`` and the default
``IngestConfig``, wires ``SnapshotArena.publish`` in as its swap
listener (as the pre-fork master does), waits for the store's
background checkpoint and applies one warm-up delta, which pays the
one-time corpus copy.  Then a closed loop submits one seeded delta,
calls ``refresh_now()`` and has an ``ArenaSnapshotSource`` reader
attach the new epoch.  Every 16th batch also writes a checkpoint.

After ``CRASH_SEQ`` deltas the durable directory is copied (the clock
is paused for the copy): a crash with a 4-record WAL tail.  The ingest
process never closes its store.  A fresh process (``--recover``) then
recovers from the copy; the traced run reports its time as
``pipeline.recover_s``.

The traced run reads the spans and counters the program records
through its public ``instrumentation=`` parameter, and adds benchmark
spans around the public calls it makes.

Both processes run on one CPU and start a calibration sampler first;
every time they report is reference time (``speed.py``).
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time
from pathlib import Path

from common import (
    TOLERANCE, Tally, end_to_end, max_abs_diff, median, one_cpu,
    peak_rss_mb, python_cmd, ranking, read_json, run_child, write_json,
)
from gen import CRASH_SEQ, load_deltas
from spans import (
    NullRecorder, Recorder, Row, check_coverage, format_table, layer_metrics,
)
from speed import Sampler

KINDS = ("local", "growth")

#: Apply-side rows, reported once per delta kind.
ROWS = [
    Row("wal.append_s", "ingest.wal", "wal-append", "busy", "s",
        "op_p50_ms, op2_ms"),
    Row("incremental.apply_s", "core.incremental", "incremental-apply",
        "busy", "s", "op_p50_ms, op2_ms"),
    Row("incremental.unspanned_s", "core.incremental", "incremental-apply",
        "self", "s", "op_p50_ms, op2_ms"),
    Row("incremental.changed_rows", "core.incremental", "delta",
        "changed_rows", "count", "op_p50_ms"),
    Row("pagerank.busy_s", "graph.pagerank", "gl", "busy", "s", "op2_ms"),
    Row("quality.busy_s", "core.quality", "quality", "busy", "s",
        "op_p50_ms"),
    Row("assemble.busy_s", "core.assemble", "assemble", "busy", "s",
        "op_p50_ms"),
    Row("assemble.dirty_rows", "core.assemble", "delta", "dirty_rows",
        "count", "op_p50_ms"),
    Row("sparse_solver.iterate_s", "core.sparse_solver", "iterate", "busy",
        "s", "op_p50_ms"),
    Row("sparse_solver.sweeps", "core.sparse_solver", "delta", "sweeps",
        "count", "op_p50_ms"),
    Row("sparse_solver.scatter_s", "core.sparse_solver", "scatter", "busy",
        "s", "op_p50_ms"),
    Row("sparse_solver.touched_rows", "core.sparse_solver", "delta",
        "touched_rows", "count", "op_p50_ms"),
    Row("snapshot.evolve_s", "serve.snapshot", "delta", "evolve_s", "s",
        "op_p50_ms"),
    Row("snapshot.compile_s", "serve.snapshot", "delta", "compile_s", "s",
        "op2_ms"),
    Row("shm.publish_s", "serve.shm", "SnapshotArena.publish", "busy", "s",
        "op_p50_ms, op2_ms"),
    Row("shm.attach_s", "serve.shm", "ArenaSnapshotSource.snapshot", "busy",
        "s", "op_p50_ms, op2_ms"),
    Row("unattributed_s", "(none)", "delta", "unattributed", "s",
        "(coverage check)"),
]

#: Run-level per-layer metrics (no kind suffix).
RUN_METRICS = {
    "snapshot.evolves": "count", "snapshot.compiles": "count",
    "snapshot.payload_bytes": "B", "checkpoint.write_s": "s",
    "checkpoint.writes": "count", "checkpoint.load_s": "s",
    "pipeline.replay_s": "s", "pipeline.replay_records": "count",
    "pipeline.recover_s": "s",
}


def _read(instr, name: str, field: str = "value") -> float:
    """A counter's or gauge's value (a histogram's ``sum``); 0 if unset."""
    metric = instr.metrics.get(name)
    return 0.0 if metric is None else float(getattr(metric, field))


def _graft_tree(rec: Recorder, span, parent: dict) -> dict:
    """Copy one program span tree (same clock) under ``parent``."""
    node = rec.graft(span.name, span.start, span.end, parent)
    for event in span.events:
        if "records" in event:
            node["counts"]["records"] = event["records"]
    for child in span.children:
        _graft_tree(rec, child, node)
    return node


def check_attach(attached: str, served: str, applied: int, seq: int,
                 tally: Tally) -> None:
    """The reader attached the store's new epoch, and nothing was lost."""
    tally.check(attached == served and applied == seq,
                f"delta {seq}: reader epoch {attached[:12]} vs store "
                f"{served[:12]}, applied seq {applied}")


def check_grown(influence: dict[str, float], cold: dict[str, float],
                tally: Tally) -> None:
    """Warm state equals a cold fit of the grown corpus, ranking too."""
    diff = max_abs_diff(influence, cold)
    tally.check(diff <= TOLERANCE and ranking(influence) == ranking(cold),
                f"warm state differs from a cold fit of the grown corpus "
                f"by {diff:.3e} or in ranking")


def check_recovered(influence: dict[str, float], precrash: dict[str, float],
                    applied: int, tally: Tally) -> None:
    """Recovery is state-equivalent to the crashed process (not bytewise:
    a multi-record WAL tail replays as one coalesced solve)."""
    diff = max_abs_diff(influence, precrash)
    tally.check(applied == CRASH_SEQ and diff <= TOLERANCE,
                f"recovered seq {applied}, influence {diff:.3e} from the "
                f"pre-crash state")


def ingest_child(inputs: Path, oracles: Path, work: Path, seconds: float,
                 trace: bool, out: Path) -> int:
    """The ingest process: set-up, the delta loop, the crash copy."""
    clock = time.perf_counter
    t_setup = clock()
    sampler = Sampler().start()
    from repro.data.xml_store import open_corpus
    from repro.ingest import IngestConfig
    from repro.obs import Instrumentation
    from repro.serve import SnapshotStore
    from repro.serve.shm import ArenaSnapshotSource, SnapshotArena

    deltas = load_deltas(inputs / "deltas.json")
    grown = read_json(oracles / "grown.json")
    tally = Tally()
    instr = Instrumentation.enabled() if trace else None
    rec = Recorder() if trace else NullRecorder()
    durable = work / "ingest-state"
    crashed = work / "ingest-crashed"
    for path in (durable, crashed):
        if path.exists():
            shutil.rmtree(path)

    store = SnapshotStore(
        open_corpus(inputs / "corpus.mcol"), max_staleness=0,
        durable_dir=durable, ingest_config=IngestConfig(),
        instrumentation=instr,
    )
    arena = SnapshotArena()
    try:
        def publish(snapshot) -> None:
            with rec.span("SnapshotArena.publish"):
                arena.publish(snapshot)

        arena.publish(store.snapshot)
        store.add_swap_listener(publish)
        reader = ArenaSnapshotSource(arena)
        reader.snapshot
        store.pipeline.wait_recovery_checkpoint()
        seq = 0

        def apply(kind: str, delta) -> tuple[float, float]:
            nonlocal seq
            roots = len(instr.tracer.roots) if trace else 0
            before = _snapshot_counters(instr) if trace else None
            t0 = clock()
            with rec.op("delta", kind=kind) as root:
                with rec.span("SnapshotStore.submit"):
                    store.submit(delta)
                with rec.span("SnapshotStore.refresh_now") as refresh:
                    store.refresh_now()
                with rec.span("ArenaSnapshotSource.snapshot"):
                    attached = reader.snapshot
            t1 = clock()
            seq += 1
            check_attach(attached.epoch, store.snapshot.epoch,
                         store.pipeline.applied_seq, seq, tally)
            if trace:
                for span in instr.tracer.roots[roots:]:
                    _graft_tree(rec, span, refresh)
                _note_counters(instr, before, root, store)
            return t0, t1

        apply(*deltas[0])  # warm-up: pays the one-time corpus copy
        t_ready = clock()

        ops: list[tuple[str, float, float]] = []
        at_start = _snapshot_counters(instr) if trace else None
        paused = 0.0
        t_begin = clock()
        while clock() - t_begin - paused < seconds or seq < CRASH_SEQ:
            kind, delta = deltas[seq]
            ops.append((kind, *apply(kind, delta)))
            if seq == CRASH_SEQ:
                # The rate window: deltas 2..CRASH_SEQ hold exactly one
                # checkpoint-bearing delta (16) on every run.
                t_window = clock()
                shutil.copytree(durable, crashed)
                influence = dict(store.report.scores.influence)
                write_json(work / "precrash.json", influence)
                check_grown(influence, grown["influence"], tally)
                paused += clock() - t_window
        sampler.stop()
        ref = sampler.reference_time
        result = {
            "setup_s": ref(t_setup, t_ready), "rss_mb": peak_rss_mb(),
            "ops": [(kind, ref(t0, t1)) for kind, t0, t1 in ops],
            "wall_ops": [(kind, t1 - t0) for kind, t0, t1 in ops],
            "window": ref(t_begin, t_window), "attempted": tally.attempted,
            "failed": tally.failed, "reasons": tally.reasons,
            "spans": _reference_spans(sampler, rec.spans),
        }
        if trace:
            at_end = _snapshot_counters(instr)
            result["run"] = {
                "snapshot.evolves": at_end["evolves"] - at_start["evolves"],
                "snapshot.compiles": (at_end["compiles"]
                                      - at_start["compiles"]),
                "snapshot.payload_bytes": len(store.snapshot.to_payload()),
            }
        write_json(out, result)
    finally:
        arena.close()
    # The store is abandoned, never closed: the crash the recovery
    # process starts from.
    return 0


def _snapshot_counters(instr) -> dict:
    return {
        "evolves": _read(instr, "repro_snapshot_evolve_total"),
        "compiles": _read(instr, "repro_snapshot_compile_total"),
        "evolve_s": _read(instr, "repro_snapshot_evolve_seconds", "sum"),
        "frontier": _read(instr, "repro_incremental_frontier_total"),
    }


def apply_counts(instr, before: dict, after: dict,
                 num_bloggers: int) -> dict[str, float]:
    """One apply's counts, read off the program's counters and gauges.

    The program sets the touched- and changed-row gauges only when the
    frontier solved the delta; a full Jacobi solve leaves both at the
    previous delta's value and means "every row".  So when the frontier
    counter did not advance, both counts are the number of bloggers.
    """
    frontier = after["frontier"] > before["frontier"]
    counts = {
        "dirty_rows": _read(instr, "repro_incremental_dirty_rows"),
        "sweeps": _read(instr, "repro_incremental_last_iterations"),
        "evolve_s": after["evolve_s"] - before["evolve_s"],
    }
    for name in ("touched_rows", "changed_rows"):
        counts[name] = (_read(instr, f"repro_incremental_{name}")
                        if frontier else float(num_bloggers))
    return counts


def _note_counters(instr, before: dict, root: dict, store) -> None:
    """Per-op counts of one traced apply."""
    after = _snapshot_counters(instr)
    counts = root["counts"]
    counts.update(apply_counts(instr, before, after,
                               store.snapshot.num_bloggers))
    counts["compiled"] = float(after["compiles"] > before["compiles"])


def _reference_spans(sampler: Sampler, spans: list[dict]) -> list[dict]:
    """Spans on the reference clock, and each op's time counts with them.

    ``evolve_s`` comes from a program histogram, not a span, so it takes
    its op's ratio of reference to wall time.  No program span splits
    the snapshot build out of the refresh: on the compile path it is the
    ``serve-refresh`` span's self time.
    """
    mapped = sampler.remap(spans)
    for raw, span in zip(spans, mapped):
        if span["parent"] is None:
            wall = raw["end"] - raw["start"]
            span["counts"]["evolve_s"] *= (
                (span["end"] - span["start"]) / wall if wall > 0 else 1.0)
            span["counts"]["compile_s"] = 0.0
    roots = {span["id"]: span for span in mapped if span["parent"] is None}
    for span in mapped:
        root = roots[span["op"]]
        if span["name"] == "serve-refresh" and root["counts"]["compiled"]:
            covered = sum(s["end"] - s["start"] for s in mapped
                          if s["parent"] == span["id"])
            root["counts"]["compile_s"] = (span["end"] - span["start"]
                                           - covered)
    return mapped


def recover_child(inputs: Path, crashed: Path, precrash_path: Path,
                  trace: bool, out: Path) -> int:
    """A fresh process recovering a copy of the crashed directory."""
    sampler = Sampler().start()
    from repro.data.xml_store import open_corpus
    from repro.ingest import IngestConfig
    from repro.obs import Instrumentation
    from repro.serve import SnapshotStore

    precrash = read_json(precrash_path)
    corpus = open_corpus(inputs / "corpus.mcol")
    instr = Instrumentation.enabled() if trace else None
    t0 = time.perf_counter()
    store = SnapshotStore(
        corpus, max_staleness=0, durable_dir=crashed,
        ingest_config=IngestConfig(), instrumentation=instr,
    )
    t1 = time.perf_counter()
    sampler.stop()
    recover_s = sampler.reference_time(t0, t1)
    tally = Tally()
    check_recovered(store.report.scores.influence, precrash,
                    store.pipeline.applied_seq, tally)
    result = {"recover_s": recover_s, "attempted": tally.attempted,
              "failed": tally.failed, "reasons": tally.reasons}
    if trace:
        recover = instr.tracer.find("ingest-recover")
        replay = instr.tracer.find("ingest-replay")
        records = next((e["records"] for e in replay.events
                        if "records" in e), 0)
        recover_ref = sampler.reference_time(recover.start, recover.end)
        replay_ref = sampler.reference_time(replay.start, replay.end)
        result["run"] = {
            # No span wraps the checkpoint load: it is the recovery
            # span's time outside the replay.
            "checkpoint.load_s": recover_ref - replay_ref,
            "pipeline.replay_s": replay_ref,
            "pipeline.replay_records": records,
        }
    # Untimed: the store was ready when the constructor returned; the
    # checkpoint it started in the background must not die half written.
    store.pipeline.wait_recovery_checkpoint()
    write_json(out, result)
    return 0


def run(inputs: Path, oracles: Path, work: Path, seconds: float,
        trace: bool, tally: Tally) -> tuple[dict, str, dict]:
    """Run the ingest process, then the recovery process."""
    flag = ["--trace"] if trace else []
    ingest_out = work / "ingest.json"
    recover_out = work / "recover.json"
    with one_cpu():
        run_child(python_cmd("ingest.py", "--child", "--inputs", inputs,
                             "--oracles", oracles, "--work", work,
                             "--seconds", seconds, "--out", ingest_out,
                             *flag), timeout=170)
        run_child(python_cmd("ingest.py", "--recover", "--inputs", inputs,
                             "--work", work / "ingest-crashed", "--precrash",
                             work / "precrash.json", "--out", recover_out,
                             *flag), timeout=120)
    ingest = read_json(ingest_out)
    recovered = read_json(recover_out)
    for part in (ingest, recovered):
        tally.attempted += part["attempted"]
        tally.failed += part["failed"]
        tally.reasons.extend(part["reasons"])

    ops = ingest["ops"]
    by_kind = {k: [t for kind, t in ops if kind == k] for k in KINDS}
    if not all(by_kind.values()):
        raise RuntimeError(f"a delta kind has no ops: {by_kind}")
    metrics = end_to_end({
        "setup_s": (ingest["setup_s"], "s"),
        "peak_rss_mb": (ingest["rss_mb"], "MB"),
        "op_p50_ms": (median(by_kind["local"]) * 1000, "ms"),
        "op2_ms": (median(by_kind["growth"]) * 1000, "ms"),
        "ops_per_s": ((CRASH_SEQ - 1) / ingest["window"], "1/s"),
    }, trace)
    table = ""
    if trace:
        spans = ingest["spans"]
        # The warm-up delta belongs to set-up, not to the op phase.
        first = min(s["op"] for s in spans)
        spans = [s for s in spans if s["op"] != first]
        check_coverage(spans, tally)
        metrics.update(layer_metrics(spans, ROWS, KINDS))
        checkpoints = [s["end"] - s["start"] for s in spans
                       if s["name"] == "ingest-checkpoint"]
        run_level = {**ingest["run"], **recovered["run"],
                     "pipeline.recover_s": recovered["recover_s"],
                     "checkpoint.writes": len(checkpoints),
                     "checkpoint.write_s": (median(checkpoints)
                                            if checkpoints else 0.0)}
        for name, unit in RUN_METRICS.items():
            metrics[name] = {"value": run_level[name], "unit": unit}
        table = format_table(spans, ROWS, KINDS) + "\n" + "\n".join(
            f"{name:<34}{run_level[name]:>11.6g} {unit}"
            for name, unit in RUN_METRICS.items()
        )
    wall = {k: [t for kind, t in ingest["wall_ops"] if kind == k]
            for k in KINDS}
    samples = {"local": len(by_kind["local"]),
               "growth": len(by_kind["growth"]),
               "recover_s": round(recovered["recover_s"], 3),
               "wall_local_p50_ms": round(median(wall["local"]) * 1000, 1),
               "wall_growth_p50_ms": round(median(wall["growth"]) * 1000, 1)}
    return metrics, table, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="delta-ingest processes")
    role = parser.add_mutually_exclusive_group(required=True)
    role.add_argument("--child", action="store_true")
    role.add_argument("--recover", action="store_true")
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--oracles", type=Path,
                        help="--child: the oracle directory")
    parser.add_argument("--work", type=Path, required=True,
                        help="work directory (--recover: the crash copy)")
    parser.add_argument("--precrash", type=Path,
                        help="--recover: the crashed process's scores")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.child:
        return ingest_child(args.inputs, args.oracles, args.work,
                            args.seconds, args.trace, args.out)
    return recover_child(args.inputs, args.work, args.precrash,
                         args.trace, args.out)


if __name__ == "__main__":
    sys.exit(main())
