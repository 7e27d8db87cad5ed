"""The benchmark's own tests: smoke runs and the output checks.

Run from the repository root::

    python3 -m pytest -q perfbench/tests

The smoke runs use a 120-blogger corpus and half a second of ops; every
check is also shown rejecting a deliberately corrupted result.
"""

from __future__ import annotations

import http.server
import json
import shutil
import subprocess
import sys
import threading

import pytest

import coldfit
import gen
import ingest
import serve
import speed
from common import BENCH_DIR, ROOT, WORK, Tally
from gen import CRASH_SEQ
from spans import Recorder, check_coverage
from speed import REFERENCE_UNIT_S, Sampler, Samples

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = ["--seed", "5", "--seconds", "0.5", "--bloggers", "120"]

#: A metric each workload's traced run must measure above zero.
OWN_LAYER = {
    "cold-fit": "quality.busy_s",
    "delta-ingest": "incremental.apply_s.local",
    "query-serve": "engine.query_ms",
}


def _run(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--trace", str(trace), *SMOKE)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        measured = result["metrics"][metric["name"]]
        assert measured["unit"] == metric["unit"]
        assert isinstance(measured["value"], (int, float))
        if not trace:
            assert measured["value"] > 0, metric["name"]
    if trace:
        assert result["metrics"][OWN_LAYER[workload]]["value"] > 0
        assert "moves" in proc.stdout  # the layer table was printed


def test_without_the_program_it_fails_without_a_result():
    bare = WORK / "test-bare"
    if bare.exists():
        shutil.rmtree(bare)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "cold-fit", "--trace", "0", *SMOKE, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# -- reference time -------------------------------------------------------
def _calibrations(speeds: list[float], every: float = 0.1) -> Samples:
    """Calibrations every ``every`` s; a speed of 2 halves the loop time."""
    return Samples([(index * every,
                     index * every + REFERENCE_UNIT_S / speed_now)
                    for index, speed_now in enumerate(speeds)])


def test_reference_time_leaves_out_calibration_and_scales_by_speed():
    half = _calibrations([0.5] * 20)
    start, end = half.runs[5][0], half.runs[15][0]
    calibrating = sum(e - s for s, e in half.runs[5:15])
    assert half.reference_time(start, end) == pytest.approx(
        0.5 * (end - start - calibrating))
    # The same work on a host twice as fast: half the wall time, the
    # same reference time.
    slow_phase = _calibrations([0.5] * 10 + [1.0] * 10)
    inside_slow = slow_phase.reference_time(slow_phase.runs[2][1],
                                            slow_phase.runs[3][0])
    inside_fast = slow_phase.reference_time(slow_phase.runs[15][1],
                                            slow_phase.runs[16][0])
    wall_slow = slow_phase.runs[3][0] - slow_phase.runs[2][1]
    wall_fast = slow_phase.runs[16][0] - slow_phase.runs[15][1]
    assert inside_slow == pytest.approx(0.5 * wall_slow)
    assert inside_fast == pytest.approx(wall_fast)


def test_reference_time_grows_with_the_work_not_with_the_host():
    """Twice the work at the same speed takes twice the reference time,
    so normalising cannot hide a slower program."""
    samples = _calibrations([0.7] * 40)
    one = samples.reference_time(samples.runs[4][1], samples.runs[9][0])
    two = samples.reference_time(samples.runs[4][1], samples.runs[14][0])
    calib = [e - s for s, e in samples.runs]
    assert two - one == pytest.approx(
        0.7 * (samples.runs[14][0] - samples.runs[9][0] - sum(calib[9:14])))
    assert two > 1.9 * one


def test_remap_keeps_spans_nested_and_in_order():
    samples = _calibrations([1.0, 0.5, 0.5, 1.0, 0.8, 0.8, 1.0])
    spans = [{"id": 1, "start": 0.01, "end": 0.65},
             {"id": 2, "start": 0.05, "end": 0.3},
             {"id": 3, "start": 0.31, "end": 0.6}]
    outer, first, second = samples.remap(spans)
    assert outer["start"] <= first["start"] < first["end"]
    assert first["end"] <= second["start"] < second["end"] <= outer["end"]


def test_sampler_calibrates_while_the_process_works():
    sampler = Sampler().start()
    t0 = speed.time.perf_counter()
    while speed.time.perf_counter() - t0 < 0.3:
        pass
    t1 = speed.time.perf_counter()
    sampler.stop()
    assert len(sampler.runs) >= 0.3 / speed.PERIOD * 0.5
    assert 0 < sampler.reference_time(t0, t1)


# -- traced runs ----------------------------------------------------------
def test_coverage_check_rejects_an_op_its_spans_do_not_cover():
    rec = Recorder()
    with rec.op("op"):
        with rec.span("call"):
            pass
    op, call = rec.spans
    op.update(start=10.0, end=11.0)
    call.update(start=10.0, end=10.97)  # 3% of the op is in no span
    tally = Tally()
    check_coverage(rec.spans, tally)
    assert (tally.attempted, tally.failed) == (1, 0)
    call["end"] = 10.5  # half the op is in no span
    check_coverage(rec.spans, tally)
    assert tally.failed == 1


# -- inputs ---------------------------------------------------------------
def test_inputs_of_a_pinned_seed_must_match_their_hash():
    pinned = json.loads(gen.PINNED.read_text())
    bloggers = pinned["bloggers"]
    seed, digest = next(iter(pinned["sha256"].items()))
    gen.check_pinned(int(seed), bloggers, digest)
    gen.check_pinned(int(seed), 120, "0" * 64)  # another size: unpinned
    gen.check_pinned(987654, bloggers, "0" * 64)  # an unpinned seed
    with pytest.raises(RuntimeError, match="pins"):
        gen.check_pinned(int(seed), bloggers, "0" * 64)


def test_inputs_hash_covers_every_input_file(tmp_path):
    (tmp_path / "crawl").mkdir()
    files = [tmp_path / "crawl" / "index.xml"]
    files += [tmp_path / name for name in gen.INPUT_FILES[1:]]
    for path in files:
        path.write_text(path.name)
    first = gen.inputs_hash(tmp_path)
    assert gen.inputs_hash(tmp_path) == first
    for path in files:
        path.write_text(path.name + " ")
        assert gen.inputs_hash(tmp_path) != first, path.name
        path.write_text(path.name)


# -- cold-fit -------------------------------------------------------------
EPOCH = "a" * 64
SCORES = {"b1": 1.25, "b2": 0.5, "b3": 0.75}


def test_coldfit_check_accepts_a_matching_op():
    tally = Tally()
    coldfit.check_op({"epoch": EPOCH, "influence": dict(SCORES)}, EPOCH,
                     SCORES, tally)
    assert (tally.attempted, tally.failed) == (2, 0)


def test_coldfit_check_rejects_a_wrong_epoch():
    tally = Tally()
    coldfit.check_op({"epoch": "b" * 64}, EPOCH, SCORES, tally)
    assert tally.failed == 1


def test_coldfit_check_rejects_a_perturbed_score():
    tally = Tally()
    perturbed = {**SCORES, "b2": SCORES["b2"] + 1e-8}
    coldfit.check_op({"epoch": EPOCH, "influence": perturbed}, EPOCH,
                     SCORES, tally)
    assert tally.failed == 1


# -- delta-ingest ---------------------------------------------------------
def test_ingest_attach_check_rejects_a_wrong_epoch_or_lost_delta():
    tally = Tally()
    ingest.check_attach(EPOCH, EPOCH, 7, 7, tally)
    assert tally.failed == 0
    ingest.check_attach("b" * 64, EPOCH, 7, 7, tally)
    ingest.check_attach(EPOCH, EPOCH, 6, 7, tally)
    assert tally.failed == 2


def test_ingest_grown_check_rejects_a_perturbed_score_or_ranking():
    tally = Tally()
    ingest.check_grown(dict(SCORES), SCORES, tally)
    assert tally.failed == 0
    ingest.check_grown({**SCORES, "b1": 1.25 + 1e-8}, SCORES, tally)
    assert tally.failed == 1
    # Within tolerance, but b2 and b3 swap places in the ranking.
    tied = {"b1": 1.0, "b2": 0.5, "b3": 0.5 + 5e-10}
    ingest.check_grown(tied, {"b1": 1.0, "b2": 0.5 + 5e-10, "b3": 0.5},
                       tally)
    assert tally.failed == 2


def test_ingest_recovery_check_rejects_a_perturbed_or_short_state():
    tally = Tally()
    ingest.check_recovered(dict(SCORES), SCORES, CRASH_SEQ, tally)
    assert tally.failed == 0
    ingest.check_recovered({**SCORES, "b3": 0.75 - 1e-8}, SCORES,
                           CRASH_SEQ, tally)
    ingest.check_recovered(dict(SCORES), SCORES, CRASH_SEQ - 1, tally)
    assert tally.failed == 2


def test_ingest_counts_a_full_solve_as_every_row():
    from repro.obs import Instrumentation

    instr = Instrumentation.enabled()
    gauge = instr.metrics.gauge
    frontier = instr.metrics.counter("repro_incremental_frontier_total")
    # A content-only delta: the frontier solves it and sets the gauges.
    before = ingest._snapshot_counters(instr)
    frontier.inc()
    gauge("repro_incremental_touched_rows").set(40)
    gauge("repro_incremental_changed_rows").set(30)
    local = ingest.apply_counts(instr, before,
                                ingest._snapshot_counters(instr), 120)
    assert (local["touched_rows"], local["changed_rows"]) == (40, 30)
    # A GL-moving delta: a full solve leaves both gauges as they were.
    before = ingest._snapshot_counters(instr)
    growth = ingest.apply_counts(instr, before,
                                 ingest._snapshot_counters(instr), 121)
    assert (growth["touched_rows"], growth["changed_rows"]) == (121, 121)


# -- query-serve ----------------------------------------------------------
EPOCH_BYTES = f'"epoch":"{EPOCH}"'.encode()


def test_serve_response_check_rejects_an_error_or_a_stale_epoch():
    tally = Tally()
    assert serve.check_response(200, b'{' + EPOCH_BYTES + b'}',
                                EPOCH_BYTES, "/top", tally)
    assert not serve.check_response(500, b'{' + EPOCH_BYTES + b'}',
                                    EPOCH_BYTES, "/top", tally)
    assert not serve.check_response(200, b'{"epoch":"' + b"b" * 64 + b'"}',
                                    EPOCH_BYTES, "/top", tally)
    assert tally.failed == 2


class _Engine:
    """Stands in for QueryEngine: answers every request with one result."""

    class _Result:
        def as_dict(self):
            return {"epoch": EPOCH, "results": []}

    def top(self, k, domain=None):
        return self._Result()


def test_serve_sample_check_rejects_a_changed_or_missing_reply():
    sent = [["top", "/top?k=3"]] * 4
    good = serve._body(_Engine._Result())
    tally = Tally()
    serve.check_sample({i: good for i in range(4)}, sent, _Engine(), 1,
                       tally)
    assert (tally.attempted, tally.failed) == (4, 0)
    tally = Tally()
    bodies = {i: good for i in range(4)}
    bodies[2] = good.replace(b"[]", b"[1]")
    del bodies[3]
    serve.check_sample(bodies, sent, _Engine(), 1, tally)
    assert tally.failed == 2


class _DroppingHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_GET(self):  # noqa: N802 - stdlib handler contract
        if self.path.startswith("/drop"):
            self.close_connection = True
            return
        body = b'{' + EPOCH_BYTES + b'}'
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_serve_loop_counts_a_dropped_response_as_failed():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0),
                                             _DroppingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        tally = Tally()
        queries = [["top", "/top?k=3"], ["top", "/drop"]]
        latencies, _, _, sent, _, _ = serve.drive(
            server.server_address[1], queries, 0.3, EPOCH_BYTES, tally)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert tally.failed >= 1
    assert len(latencies) == tally.attempted - tally.failed
    assert tally.attempted == len(sent)
