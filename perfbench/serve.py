"""``query-serve``: ``repro serve`` in one process, driven by a closed loop.

The server is the CLI's single-process default over the ``.mcol``
corpus.  The benchmark process is the only client: one keep-alive
connection sends the seeded request stream, each request after the
previous reply.  The query phase runs in two halves; after each the
server is killed and a new one started, so each run times three
spawns for ``setup_s``.

Client and server share one CPU.  The closed loop never runs both at
once, so neither waits for the other's CPU; what sharing removes is the
cross-CPU wake-up on every hand-off, whose cost on a virtual machine
swings with the host's load rather than with the program.  Sharing the
CPU also lets the client measure the server's host speed: it runs the
calibration loop between requests (and between ``/healthz`` polls),
and every latency and set-up time is reported as reference time
(``speed.py``).

Checks: every response is 2xx and carries the expected epoch, and a
seeded sample of responses is byte-equal to an in-process
``QueryEngine`` that replays the same requests over the snapshot the
generator compiled from the same corpus.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from urllib.parse import parse_qs, unquote, urlsplit

from common import (
    Tally, child_env, end_to_end, median, one_cpu, percentile,
    proc_peak_rss_mb, read_json,
)
from speed import PERIOD, Samples

#: The tail percentile reported; composite misses sit above it.
TAIL_PCT = 90
#: Byte-equality is checked on a seeded sample from this many of the
#: first requests (the in-process replay must start from the same
#: empty result cache as the server).
CHECK_PREFIX = 600
CHECK_SAMPLE = 150
#: Seconds the traced run spends replaying requests in process, per layer.
REPLAY_SECONDS = 3.0
#: Query phases per run; the server is replaced after each, so a run
#: times PHASES + 1 spawns.
PHASES = 2
#: The server's defaults (``repro serve``): result cache and k bound.
CACHE_SIZE = 1024
MAX_K = 100
ROUTES = ("top", "query", "profile")
#: The end-to-end metrics each traced layer should move.
MOVES = {"http": "op_p50_ms, ops_per_s", "engine": "op_p50_ms, op2_ms",
         "snapshot": "op2_ms"}


class Server:
    """One ``repro serve`` process and what it printed."""

    def __init__(self, mcol: Path, work: Path, tag: str) -> None:
        self.log = work / f"serve-{tag}.out"
        self.err = work / f"serve-{tag}.err"
        self.t_spawn = time.perf_counter()
        with open(self.log, "w") as out, open(self.err, "w") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--data",
                 str(mcol), "--port", "0"],
                env=child_env(), stdout=out, stderr=err,
                stdin=subprocess.DEVNULL,
            )
        self.port = 0

    def wait_ready(self, samples: Samples,
                   timeout: float = 120.0) -> tuple[float, dict]:
        """Poll until ``/healthz`` answers 200, calibrating between
        polls; returns ``(reference set-up seconds, payload)``."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            samples.calibrate()
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited {self.proc.returncode}: "
                    f"{self.err.read_text()[-500:]}")
            if not self.port:
                for line in self.log.read_text().splitlines():
                    if " on http://" in line:
                        self.port = urlsplit(
                            line.rsplit(" on ", 1)[1].split()[0]).port
            if self.port:
                try:
                    status, body = get(self.port, "/healthz")
                except OSError:
                    status = 0
                if status == 200:
                    t_ready = time.perf_counter()
                    samples.calibrate()
                    return (samples.reference_time(self.t_spawn, t_ready),
                            json.loads(body))
            time.sleep(0.01)
        raise RuntimeError("server did not become ready")

    def stop(self, sig: int = signal.SIGTERM) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)


def get(port: int, path: str) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


#: The method answering each route on the engine and on the snapshot.
ENGINE_METHODS = {"top": "top", "query": "query", "profile": "blogger"}
SNAPSHOT_METHODS = {"top": "top", "query": "query", "profile": "profile"}


def _arguments(route: str, path: str) -> tuple:
    """A request's arguments, parsed as the HTTP layer parses them."""
    parts = urlsplit(path)
    params = parse_qs(parts.query)
    if route == "profile":
        return (unquote(parts.path[len("/blogger/"):]),)
    k = int(params["k"][0])
    if route == "top":
        return (k, params.get("domain", [None])[0])
    weights = {}
    for term in params["weights"][0].split(","):
        domain, _, value = term.partition(":")
        weights[domain] = float(value)
    return (weights, k)


def _call(target, methods: dict[str, str], route: str, path: str):
    """Answer one request in process, on an engine or a snapshot."""
    return getattr(target, methods[route])(*_arguments(route, path))


def _body(result) -> bytes:
    """A result serialized exactly as the HTTP layer sends it."""
    return json.dumps(result.as_dict(), separators=(",", ":")).encode()


def _replay(target, methods: dict[str, str],
            sent: list[list[str]]) -> dict[str, list[float]]:
    """Reference time of in-process answers to the sent requests."""
    samples = Samples()
    calls: list[tuple[str, float, float]] = []
    deadline = time.perf_counter() + REPLAY_SECONDS
    last = -PERIOD
    for route, path in sent:
        t0 = time.perf_counter()
        if t0 - last >= PERIOD:
            samples.calibrate()
            last = t0 = time.perf_counter()
        _call(target, methods, route, path)
        calls.append((route, t0, time.perf_counter()))
        if calls[-1][2] > deadline:
            break
    samples.calibrate()
    times: dict[str, list[float]] = {route: [] for route in ROUTES}
    for route, t0, t1 in calls:
        times[route].append(samples.reference_time(t0, t1))
    return times


def check_epoch(health: dict, epoch: str, tally: Tally) -> None:
    """A (re)started server serves the generator's snapshot."""
    tally.check(health["epoch"] == epoch,
                f"server epoch {health['epoch'][:12]} != {epoch[:12]}")


def check_response(status: int, body: bytes, epoch_bytes: bytes,
                   path: str, tally: Tally) -> bool:
    """A reply is 2xx and pinned to the expected epoch."""
    return tally.check(200 <= status < 300 and epoch_bytes in body,
                       f"{path}: HTTP {status}, epoch missing or wrong")


def check_sample(bodies: dict[int, bytes], sent: list[list[str]], engine,
                 seed: int, tally: Tally) -> None:
    """A seeded sample of replies is byte-equal to the in-process engine.

    The engine replays the first CHECK_PREFIX requests in order from an
    empty cache, as the server saw them, so even the ``cached`` flag of
    each reply must agree.  A sampled request without a reply fails.
    """
    prefix = sent[:CHECK_PREFIX]
    sample = set(random.Random(seed).sample(
        range(len(prefix)), min(CHECK_SAMPLE, len(prefix))))
    for index, (route, path) in enumerate(prefix):
        expected = _body(_call(engine, ENGINE_METHODS, route, path))
        if index in sample:
            tally.check(bodies.get(index) == expected,
                        f"{path}: reply differs from the engine's")


def drive(port: int, queries: list[list[str]], seconds: float,
          epoch_bytes: bytes, tally: Tally):
    """The closed loop: one keep-alive connection, one request at a time.

    The client calibrates every PERIOD seconds between requests.
    Returns ``(latencies, latencies by route, the first CHECK_PREFIX
    reply bodies by index, requests sent, elapsed seconds, wall
    latencies)``, times in reference seconds except the last; a failed
    or refused request counts against ``tally`` and has no latency.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    samples = Samples()
    timed: list[tuple[str, float, float]] = []
    bodies: dict[int, bytes] = {}
    sent: list[list[str]] = []
    samples.calibrate()
    t_begin = last = time.perf_counter()
    while time.perf_counter() - t_begin < seconds:
        route, path = queries[len(sent) % len(queries)]
        index = len(sent)
        sent.append([route, path])
        t0 = time.perf_counter()
        if t0 - last >= PERIOD:
            samples.calibrate()
            last = t0 = time.perf_counter()
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            body = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            tally.fail(f"{path}: {exc!r}")
            conn.close()
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            continue
        t1 = time.perf_counter()
        if index < CHECK_PREFIX:
            bodies[index] = body
        if check_response(resp.status, body, epoch_bytes, path, tally):
            timed.append((route, t0, t1))
    t_end = time.perf_counter()
    samples.calibrate()
    conn.close()
    latencies: list[float] = []
    by_route: dict[str, list[float]] = {route: [] for route in ROUTES}
    for route, t0, t1 in timed:
        latencies.append(samples.reference_time(t0, t1))
        by_route[route].append(latencies[-1])
    return (latencies, by_route, bodies, sent,
            samples.reference_time(t_begin, t_end),
            [t1 - t0 for _, t0, t1 in timed])


def run(inputs: Path, oracles: Path, work: Path, seconds: float,
        trace: bool, tally: Tally, seed: int) -> tuple[dict, str, dict]:
    """The query phases; the servers inherit the client's one CPU."""
    with one_cpu():
        return _measure(inputs, oracles, work, seconds, trace, tally, seed)


def _measure(inputs: Path, oracles: Path, work: Path, seconds: float,
             trace: bool, tally: Tally, seed: int) -> tuple[dict, str, dict]:
    from repro.serve import InfluenceSnapshot, QueryEngine

    queries = read_json(inputs / "queries.json")
    snapshot = InfluenceSnapshot.from_payload(
        (oracles / "snapshot.payload").read_bytes())
    epoch = read_json(oracles / "fit.json")["epoch"]
    if snapshot.epoch != epoch:
        raise RuntimeError("generated snapshot does not carry its epoch")
    epoch_bytes = f'"epoch":"{epoch}"'.encode()
    mcol = inputs / "corpus.mcol"

    servers = [Server(mcol, work, "0")]
    samples = Samples()
    setups: list[float] = []
    latencies: list[float] = []
    wall: list[float] = []
    by_route: dict[str, list[float]] = {route: [] for route in ROUTES}
    cache = {"hits": 0.0, "misses": 0.0}
    bodies: dict[int, bytes] = {}
    sent: list[list[str]] = []
    checked: list[list[str]] = []
    rss = t_elapsed = 0.0
    try:
        setup, health = servers[0].wait_ready(samples)
        setups.append(setup)
        check_epoch(health, epoch, tally)
        for phase in range(PHASES):
            server = servers[-1]
            lat, routes, phase_bodies, phase_sent, elapsed, phase_wall = (
                drive(server.port, queries[len(sent):], seconds / PHASES,
                      epoch_bytes, tally))
            if not phase:
                # The first phase's replies are byte-checked against an
                # engine that saw the same requests from an empty cache.
                bodies, checked = phase_bodies, phase_sent
            sent += phase_sent
            latencies += lat
            wall += phase_wall
            for route in ROUTES:
                by_route[route] += routes[route]
            t_elapsed += elapsed
            _, text = get(server.port, "/metrics")
            for key, value in _cache_counts(text.decode()).items():
                cache[key] += value
            rss = max(rss, proc_peak_rss_mb(server.proc.pid))
            # Another spawn, another set-up sample.
            server.stop(signal.SIGKILL)
            servers.append(Server(mcol, work, str(phase + 1)))
            setup, health = servers[-1].wait_ready(samples)
            setups.append(setup)
            check_epoch(health, epoch, tally)
    finally:
        for server in servers:
            server.stop(signal.SIGKILL)

    tail = percentile(latencies, TAIL_PCT)
    beyond = sum(1 for value in latencies if value > tail)
    if beyond < 10:
        raise RuntimeError(f"only {beyond} samples beyond p{TAIL_PCT}")

    check_sample(bodies, checked, QueryEngine(
        snapshot, cache_size=CACHE_SIZE, max_k=MAX_K), seed, tally)

    metrics = end_to_end({
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
        "op_p50_ms": (median(latencies) * 1000, "ms"),
        "op2_ms": (tail * 1000, "ms"),
        "ops_per_s": (len(latencies) / t_elapsed, "1/s"),
    }, trace)
    table = ""
    if trace:
        layers = {
            "http": by_route,
            "engine": _replay(
                QueryEngine(snapshot, cache_size=CACHE_SIZE, max_k=MAX_K),
                ENGINE_METHODS, sent),
            "snapshot": _replay(snapshot, SNAPSHOT_METHODS, sent),
        }
        lines = [f"{'layer':<18}{'route':<9}{'median_ms':>11}"
                 f"{'samples':>9}  moves"]
        for layer, times in layers.items():
            for route in ROUTES:
                value = median(times[route]) * 1000 if times[route] else 0.0
                metrics[f"{layer}.{route}_ms"] = {"value": value,
                                                  "unit": "ms"}
                lines.append(f"serve.{layer:<12}{route:<9}{value:>11.4f}"
                             f"{len(times[route]):>9}  {MOVES[layer]}")
        total = cache["hits"] + cache["misses"]
        metrics["engine.cache_hit_ratio"] = {
            "value": cache["hits"] / total if total else 0.0,
            "unit": "ratio"}
        lines.append(
            f"HTTP self time per route is serve.http minus serve.engine; "
            f"engine cache hit ratio "
            f"{metrics['engine.cache_hit_ratio']['value']:.3f}")
        table = "\n".join(lines)
    counts = {"requests": len(latencies), "beyond_tail": beyond,
              "spawns": len(setups)}
    counts.update({route: len(v) for route, v in by_route.items()})
    counts["wall_p50_ms"] = round(median(wall) * 1000, 4)
    return metrics, table, counts


def _cache_counts(text: str) -> dict[str, float]:
    counts = {"hits": 0.0, "misses": 0.0}
    for line in text.splitlines():
        name, _, value = line.partition(" ")
        if name == "repro_query_cache_hits_total":
            counts["hits"] = float(value)
        elif name == "repro_query_cache_misses_total":
            counts["misses"] = float(value)
    return counts
