"""CI load smoke for the pre-fork serving tier.

Boots an in-process :class:`~repro.serve.cluster.ServingCluster` (>= 2
workers) over a small synthetic corpus and drives it with the shared
load generator from ``tests/loadgen.py``:

1. **concurrent refresh** — a mixed keep-alive workload (singles, a
   POST query, a batch) while the master publishes fresh snapshots
   underneath; asserts a clean error budget, that at least two epochs
   were actually served, that every response is stamped with an epoch
   that really existed, and that batch items never span epochs.
2. **rate limiting** — a hot tenant hammering one endpoint collects
   429s with ``Retry-After`` while a calm tenant on the same cluster
   rides through untouched.

After each leg, ``/debug/traces`` must hold at most 512 span trees on
every worker polled: a worker keeps only its most recent trees, not
one per request it ever served.

Run from the repo root::

    PYTHONPATH=src python scripts/serve_load_smoke.py

Exits nonzero on any failure; exits zero (with a notice) on hosts
without fork/SO_REUSEPORT where the tier cannot run.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.request
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

SRC = _ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core import CorpusDelta, MassParameters  # noqa: E402
from repro.data import Blogger, Comment, Link, Post  # noqa: E402
from repro.serve import (  # noqa: E402
    TENANT_HEADER,
    ClusterConfig,
    ServiceConfig,
    ServingCluster,
    SnapshotStore,
    cluster_supported,
)
from repro.synth import BlogosphereConfig, generate_blogosphere  # noqa: E402
from tests.loadgen import RequestSpec, run_load  # noqa: E402

WORKERS = 2
LEG_SECONDS = 2.0
WEIGHTS = {"Sports": 0.6, "Art": 0.4}
#: Span trees a worker keeps (its flight recorder's capacity).
TRACE_TREES = 512
#: ``/debug/traces`` polls per check, each on a new connection so
#: ``SO_REUSEPORT`` spreads them over the workers.
TRACE_POLLS = 8


def _delta(seq: int) -> CorpusDelta:
    anchor = "blogger-0000"
    new_id = f"smoke-{seq:03d}"
    post = Post(f"smokepost-{seq:03d}", new_id,
                body="fresh thoughts on the stadium marathon game " * 3,
                created_day=260 + seq)
    comment = Comment(f"smokecomment-{seq:03d}", post.post_id, anchor,
                      text="what a wonderful insightful read",
                      created_day=261 + seq)
    return CorpusDelta(
        bloggers=[Blogger(new_id)],
        posts=[post],
        comments=[comment],
        links=[Link(anchor, new_id)],
    )


def _mix() -> list[RequestSpec]:
    return [
        RequestSpec(path="/top?k=5"),
        RequestSpec(path="/top?k=3&domain=Sports"),
        RequestSpec(path="/query", method="POST",
                    body={"weights": WEIGHTS, "k": 5}),
        RequestSpec(path="/query/batch", method="POST", queries=3,
                    body={"queries": [
                        {"kind": "top", "k": 5},
                        {"kind": "top", "k": 3, "domain": "Sports"},
                        {"kind": "query", "weights": WEIGHTS, "k": 5},
                    ]}),
    ]


def refresh_leg(store: SnapshotStore, cluster: ServingCluster) -> None:
    """Mixed load with snapshots swapping underneath it."""
    known_epochs = {store.snapshot.epoch}
    stop = threading.Event()
    failures: list[BaseException] = []

    def refresher() -> None:
        seq = 0
        try:
            while not stop.is_set():
                store.submit(_delta(seq))
                known_epochs.add(store.refresh_now().epoch)
                seq += 1
                time.sleep(0.05)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)

    thread = threading.Thread(target=refresher, daemon=True)
    thread.start()
    try:
        report = run_load(cluster.url, _mix(), concurrency=4,
                          duration=LEG_SECONDS, record_bodies=True)
    finally:
        stop.set()
        thread.join(timeout=30)
    if failures:
        raise failures[0]

    assert report.errors == [], report.errors[:3]
    assert report.non_2xx == 0, report.statuses
    assert report.requests > 50, f"only {report.requests} requests ran"
    epochs_seen = set()
    for _, status, body in report.bodies:
        assert status == 200
        epoch = body["epoch"]
        assert epoch in known_epochs, \
            f"response from never-existing epoch {epoch[:12]}"
        epochs_seen.add(epoch)
        for item in body.get("results", []):
            if isinstance(item, dict) and "epoch" in item:
                assert item["epoch"] == epoch, \
                    "batch items span epochs: snapshot not pinned"
    assert len(epochs_seen) >= 2, \
        "load never overlapped a refresh; the leg proved nothing"
    print("refresh leg ok:", json.dumps({
        "requests": report.requests,
        "qps": round(report.qps, 1),
        "p99_ms": round(report.percentile(99) * 1e3, 2),
        "epochs_served": len(epochs_seen),
        "swaps": len(known_epochs) - 1,
    }))


def check_trace_bound(url: str) -> None:
    """``/debug/traces`` holds at most TRACE_TREES trees on each poll."""
    counts = []
    for _ in range(TRACE_POLLS):
        with urllib.request.urlopen(url + "/debug/traces", timeout=10) as resp:
            counts.append(len(json.loads(resp.read())["spans"]))
    assert max(counts) <= TRACE_TREES, (
        f"/debug/traces holds {max(counts)} span trees; a worker keeps "
        f"at most {TRACE_TREES}"
    )
    print("trace bound ok:", json.dumps({"trees_per_poll": counts}))


def rate_limit_leg(corpus) -> None:
    """Hot tenant throttled with Retry-After; calm tenant untouched."""
    store = SnapshotStore(corpus, params=MassParameters())
    cluster = ServingCluster(
        store,
        ServiceConfig(port=0, max_inflight=32,
                      rate_limit_qps=20.0, rate_limit_burst=5.0),
        ClusterConfig(workers=WORKERS),
    )
    with store, cluster:
        cluster.wait_ready()
        hot = run_load(
            cluster.url,
            [RequestSpec(path="/top?k=3",
                         headers={TENANT_HEADER: "hot"})],
            concurrency=2, duration=1.5, record_bodies=True,
        )
        calm = run_load(
            cluster.url,
            [RequestSpec(path="/top?k=3",
                         headers={TENANT_HEADER: "calm"})],
            concurrency=1, duration=1.0, max_requests=5,
        )
        check_trace_bound(cluster.url)
    assert hot.errors == [], hot.errors[:3]
    assert hot.count(429) > 0, f"hot tenant never throttled: {hot.statuses}"
    assert hot.count(200) > 0, hot.statuses
    throttled = [body for _, status, body in hot.bodies if status == 429]
    assert throttled and all(
        body["retry_after_seconds"] > 0 for body in throttled
    ), "429 bodies must carry retry_after_seconds"
    assert calm.count(429) == 0, calm.statuses
    assert calm.count(200) == 5, calm.statuses
    print("rate-limit leg ok:", json.dumps({
        "hot_200": hot.count(200),
        "hot_429": hot.count(429),
        "calm_200": calm.count(200),
    }))


def main() -> int:
    if not cluster_supported():
        print("pre-fork tier unsupported here (needs fork + SO_REUSEPORT); "
              "skipping")
        return 0

    corpus, _ = generate_blogosphere(
        BlogosphereConfig(num_bloggers=120, posts_per_blogger=4),
        seed=11,
    )
    store = SnapshotStore(corpus, params=MassParameters())
    cluster = ServingCluster(
        store,
        ServiceConfig(port=0, max_inflight=32),
        ClusterConfig(workers=WORKERS),
    )
    with store, cluster:
        cluster.wait_ready()
        assert len(cluster.worker_pids) == WORKERS
        refresh_leg(store, cluster)
        check_trace_bound(cluster.url)
    rate_limit_leg(corpus)
    print("serve load smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
