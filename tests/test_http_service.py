"""The HTTP JSON API: endpoints, errors, metrics, load shedding."""

import http.client
import json
import urllib.error
import urllib.request

import pytest

from repro.core import MassParameters, top_k
from repro.obs import Instrumentation
from repro.serve import ServiceConfig, SnapshotStore, create_server


@pytest.fixture(scope="module")
def service(small_blogosphere):
    """A running server over the 120-blogger corpus (module-scoped)."""
    corpus, _ = small_blogosphere
    instr = Instrumentation.enabled()
    store = SnapshotStore(
        corpus, params=MassParameters(), instrumentation=instr
    )
    server = create_server(
        store, ServiceConfig(port=0, max_inflight=8), instr
    )
    server.serve_in_thread()
    yield server
    server.shutdown()
    server.server_close()
    store.close()


def get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=10) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


def get_error(server, path):
    try:
        urllib.request.urlopen(server.url + path, timeout=10)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers, json.loads(exc.read().decode("utf-8"))
    raise AssertionError(f"{path} unexpectedly succeeded")


class TestTop:
    def test_general_top_matches_batch(self, service):
        status, body = get(service, "/top?k=5")
        assert status == 200
        expected = service.store.report.top_influencers(5)
        assert [(r["blogger_id"], r["score"]) for r in body["results"]] \
            == expected
        assert body["epoch"] == service.store.snapshot.epoch
        assert body["total"] == service.store.snapshot.num_bloggers

    def test_domain_top(self, service):
        status, body = get(service, "/top?k=3&domain=Sports")
        assert status == 200
        expected = service.store.report.top_influencers(3, "Sports")
        assert [(r["blogger_id"], r["score"]) for r in body["results"]] \
            == expected

    def test_pagination(self, service):
        _, page = get(service, "/top?k=3&offset=2")
        _, full = get(service, "/top?k=5")
        assert page["results"] == full["results"][2:]

    def test_default_k(self, service):
        _, body = get(service, "/top")
        assert len(body["results"]) == service.config.default_k

    @pytest.mark.parametrize("path,fragment", [
        ("/top?k=0", "k must be >= 1"),
        ("/top?k=banana", "must be an integer"),
        ("/top?k=3&domain=Astrology", "unknown domain"),
        ("/top?k=3&offset=-1", "offset"),
        ("/top?k=101", "maximum"),
        ("/top?k=3&k=4", "more than once"),
    ])
    def test_top_errors(self, service, path, fragment):
        code, _, body = get_error(service, path)
        assert code == 400
        assert fragment in body["error"]


class TestQuery:
    def test_get_weights_matches_batch(self, service):
        status, body = get(
            service, "/query?weights=Sports:0.7,Art:0.3&k=4"
        )
        assert status == 200
        report = service.store.report
        canonical = {"Art": 0.3, "Sports": 0.7}
        expected = top_k(
            report.domain_influence.weighted_scores(canonical), 4
        )
        assert [(r["blogger_id"], r["score"]) for r in body["results"]] \
            == expected

    def test_post_json_body(self, service):
        payload = json.dumps(
            {"weights": {"Sports": 0.7, "Art": 0.3}, "k": 4}
        ).encode()
        request = urllib.request.Request(
            service.url + "/query", data=payload,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10) as resp:
            body = json.loads(resp.read().decode())
        _, via_get = get(service, "/query?weights=Sports:0.7,Art:0.3&k=4")
        assert body["results"] == via_get["results"]

    def test_repeat_query_served_from_cache(self, service):
        get(service, "/query?weights=Travel:1.0&k=2")
        _, body = get(service, "/query?weights=Travel:1.0&k=2")
        assert body["cached"] is True

    @pytest.mark.parametrize("path,fragment", [
        ("/query?k=3", "missing \"weights\""),
        ("/query?weights=&k=3", "missing \"weights\""),
        ("/query?weights=,&k=3", "names no domains"),
        ("/query?weights=Sports&k=3", "malformed weight term"),
        ("/query?weights=Sports:x&k=3", "must be a number"),
        ("/query?weights=Astrology:1.0&k=3", "unknown domains"),
        ("/query?weights=Sports:0.5,Sports:0.5&k=3", "more than once"),
        ("/query?weights=Sports:-1&k=3", "must be > 0"),
    ])
    def test_query_errors(self, service, path, fragment):
        code, _, body = get_error(service, path)
        assert code == 400
        assert fragment in body["error"]

    def test_bad_post_body(self, service):
        request = urllib.request.Request(
            service.url + "/query", data=b"not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400


class TestBlogger:
    def test_profile(self, service):
        blogger_id = service.store.snapshot.blogger_ids[0]
        status, body = get(service, f"/blogger/{blogger_id}")
        assert status == 200
        assert body["profile"]["blogger_id"] == blogger_id
        assert body["epoch"] == service.store.snapshot.epoch

    def test_unknown_blogger_is_404(self, service):
        code, _, body = get_error(service, "/blogger/nobody")
        assert code == 404
        assert "unknown blogger" in body["error"]

    def test_unknown_route_is_404(self, service):
        code, _, _ = get_error(service, "/nope")
        assert code == 404


class TestOperational:
    def test_healthz(self, service):
        status, body = get(service, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["epoch"] == service.store.snapshot.epoch
        assert body["corpus"]["bloggers"] == 120
        assert body["pending_deltas"] == 0

    def test_healthz_reports_slo_objectives(self, service):
        get(service, "/top?k=2")  # at least one latency sample
        _, body = get(service, "/healthz")
        slo = body["slo"]
        assert set(slo) == {
            "query_latency", "error_rate",
            "snapshot_staleness", "wal_replay_lag",
        }
        latency = slo["query_latency"]
        assert latency["kind"] == "latency"
        assert latency["samples_short"] >= 1
        assert latency["violating"] is False
        staleness = slo["snapshot_staleness"]
        assert staleness["kind"] == "bound"
        assert staleness["current"] == 0.0
        # Non-durable store: the WAL probe is unwired, never degrading.
        assert body["slo"]["wal_replay_lag"]["current"] is None

    def test_slo_burn_gauges_in_metrics(self, service):
        get(service, "/healthz")  # evaluation refreshes the gauges
        with urllib.request.urlopen(
            service.url + "/metrics", timeout=10
        ) as resp:
            text = resp.read().decode()
        assert "repro_slo_query_latency_burn_short" in text
        assert "repro_slo_degraded 0" in text

    def test_metrics_expose_qps_and_latency(self, service):
        get(service, "/top?k=2")
        with urllib.request.urlopen(
            service.url + "/metrics", timeout=10
        ) as resp:
            text = resp.read().decode()
        assert resp.status == 200
        assert "repro_http_requests_total" in text
        assert "repro_http_request_seconds_bucket" in text
        assert "repro_query_cache_hit_rate" in text
        for line in text.splitlines():
            if line.startswith("repro_http_requests_total "):
                assert float(line.split()[1]) > 0
                break
        else:  # pragma: no cover - assertion helper
            raise AssertionError("qps counter missing")


class TestLoadShedding:
    def test_zero_inflight_sheds_queries_with_retry_after(
        self, small_blogosphere
    ):
        corpus, _ = small_blogosphere
        instr = Instrumentation.enabled()
        store = SnapshotStore(corpus, instrumentation=instr)
        server = create_server(
            store,
            ServiceConfig(port=0, max_inflight=0, retry_after_seconds=7),
            instr,
        )
        server.serve_in_thread()
        try:
            code, headers, body = get_error(server, "/top?k=2")
            assert code == 503
            assert headers["Retry-After"] == "7"
            assert "overloaded" in body["error"]
            assert instr.metrics.get("repro_http_shed_total").value == 1
            # Operational endpoints stay reachable under shedding.
            status, _ = get(server, "/healthz")
            assert status == 200
        finally:
            server.shutdown()
            server.server_close()
            store.close()


class TestHealthzAges:
    def test_ages_present_and_non_negative(self, service):
        _, body = get(service, "/healthz")
        assert body["uptime_seconds"] >= 0.0
        assert body["snapshot_age_seconds"] >= 0.0

    def test_ages_survive_wall_clock_rewind(self, service, monkeypatch):
        # The ages are computed from time.monotonic(); an NTP step (or
        # any wall-clock rewind) must not push them negative or reset
        # the uptime.  Simulate the rewind by yanking time.time back a
        # day — the monotonic-based ages must keep increasing.
        import time

        _, before = get(service, "/healthz")
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() - 86400.0)
        _, after = get(service, "/healthz")
        assert after["uptime_seconds"] >= before["uptime_seconds"] >= 0.0
        assert after["snapshot_age_seconds"] >= 0.0


class TestTraceHeader:
    def test_every_response_carries_a_trace_id(self, service):
        with urllib.request.urlopen(
            service.url + "/top?k=2", timeout=10
        ) as resp:
            trace_id = resp.headers.get("X-Repro-Trace-Id")
        assert trace_id
        assert len(trace_id) == 32

    def test_error_responses_echo_the_inbound_id(self, service):
        request = urllib.request.Request(
            service.url + "/top?k=0",
            headers={"X-Repro-Trace-Id": "abcd" * 8},
        )
        try:
            urllib.request.urlopen(request, timeout=10)
            raise AssertionError("expected a 400")
        except urllib.error.HTTPError as exc:
            assert exc.code == 400
            assert exc.headers.get("X-Repro-Trace-Id") == "abcd" * 8


class TestDebugEndpoints:
    def test_debug_events_returns_the_recorder_tail(self, service):
        get(service, "/top?k=2")
        status, body = get(service, "/debug/events")
        assert status == 200
        assert body["capacity"] >= 1
        assert body["events"]
        kinds = {event["kind"] for event in body["events"]}
        assert "span" in kinds  # closed handler spans ring automatically

    def test_debug_events_limit(self, service):
        get(service, "/top?k=2")
        _, body = get(service, "/debug/events?limit=1")
        assert len(body["events"]) == 1

    def test_debug_events_dumps_view(self, service):
        _, body = get(service, "/debug/events?dumps=1")
        assert "dumps" in body
        assert isinstance(body["dumps"], list)

    def test_debug_traces_exports_span_trees(self, service):
        get(service, "/top?k=2")
        _, body = get(service, "/debug/traces")
        names = {span["name"] for span in body["spans"]}
        assert "http-request" in names

    def test_debug_traces_keeps_only_the_most_recent_trees(self, service):
        tracer = service.instrumentation.tracer
        assert service.instrumentation.recorder.capacity == 512
        conn = http.client.HTTPConnection(
            *service.server_address[:2], timeout=10
        )
        trace_ids = []
        try:
            for number in range(2000):
                conn.request("GET", f"/top?k={number % 5 + 1}")
                resp = conn.getresponse()
                resp.read()
                assert resp.status == 200
                trace_ids.append(resp.headers["X-Repro-Trace-Id"])
        finally:
            conn.close()
        assert len(tracer.roots) <= 512
        _, body = get(service, "/debug/traces")
        assert len(body["spans"]) <= 512
        requests = {span.get("trace_id") for span in body["spans"]
                    if span["name"] == "http-request"}
        assert trace_ids[-1] in requests
        assert trace_ids[0] not in requests

    def test_debug_vars_snapshot(self, service):
        _, body = get(service, "/debug/vars")
        assert body["config"]["max_inflight"] == 8
        assert body["epoch"] == service.store.snapshot.epoch
        assert body["inflight"] == 0  # debug routes never take a slot
        assert body["staleness_seconds"] == 0.0
        assert body["durable"] is False
        assert body["recorder"]["capacity"] >= 1
        assert [o["name"] for o in body["slo_objectives"]] == [
            "query_latency", "error_rate",
            "snapshot_staleness", "wal_replay_lag",
        ]

    def test_unknown_debug_route_is_404(self, service):
        code, _, _ = get_error(service, "/debug/nope")
        assert code == 404


class TestShedDump:
    def test_load_shed_dumps_with_the_shed_requests_trace(
        self, small_blogosphere
    ):
        corpus, _ = small_blogosphere
        instr = Instrumentation.enabled()
        store = SnapshotStore(corpus, instrumentation=instr)
        server = create_server(
            store, ServiceConfig(port=0, max_inflight=0), instr
        )
        server.serve_in_thread()
        try:
            request = urllib.request.Request(
                server.url + "/top?k=2",
                headers={"X-Repro-Trace-Id": "feed" * 8},
            )
            try:
                urllib.request.urlopen(request, timeout=10)
                raise AssertionError("expected a 503")
            except urllib.error.HTTPError as exc:
                assert exc.code == 503
            dumps = instr.recorder.dumps()
            assert dumps, "load shed must leave a flight-recorder dump"
            dump = dumps[-1]
            assert dump["reason"] == "load-shed"
            assert dump["trace_id"] == "feed" * 8
            assert dump["route"] == "/top"
            # The shed endpoints stay debuggable: the dump is served.
            status, body = get(server, "/debug/events?dumps=1")
            assert status == 200
            assert body["dumps"][-1]["reason"] == "load-shed"
        finally:
            server.shutdown()
            server.server_close()
            store.close()


class TestSloDegradation:
    def test_staleness_violation_degrades_and_recovers(
        self, small_blogosphere
    ):
        """Drive the snapshot_staleness SLO through a full incident.

        A pending delta older than max_staleness must flip /healthz to
        degraded with a positive burn rate and raise the degraded
        gauge; folding the delta in recovers immediately (bound
        objectives have no window hysteresis).
        """
        import time as _time

        from repro.core import CorpusDelta
        from repro.data import Blogger

        corpus, _ = small_blogosphere
        instr = Instrumentation.enabled()
        # No background refresher and a tiny bound: a submitted delta
        # becomes an SLO violation after 10 ms.  /healthz must NOT
        # trigger the read-path refresh itself (only query routes do),
        # so the violation is observable.
        store = SnapshotStore(
            corpus, max_staleness=0.01, instrumentation=instr
        )
        server = create_server(store, ServiceConfig(port=0), instr)
        server.serve_in_thread()
        try:
            store.submit(CorpusDelta(bloggers=[Blogger("late-comer")]))
            _time.sleep(0.05)
            status, body = get(server, "/healthz")
            assert status == 200  # alive, but degraded
            assert body["status"] == "degraded"
            entry = body["slo"]["snapshot_staleness"]
            assert entry["violating"] is True
            assert entry["current"] > 0.01
            assert entry["burn_short"] > 1.0
            assert instr.metrics.get("repro_slo_degraded").value == 1.0
            burn = instr.metrics.get(
                "repro_slo_snapshot_staleness_burn_short"
            )
            assert burn.value > 1.0

            store.refresh_now()
            _, body = get(server, "/healthz")
            assert body["status"] == "ok"
            assert body["slo"]["snapshot_staleness"]["current"] == 0.0
            assert instr.metrics.get("repro_slo_degraded").value == 0.0
        finally:
            server.shutdown()
            server.server_close()
            store.close()


def post(server, path, payload, headers=None):
    request = urllib.request.Request(
        server.url + path, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    with urllib.request.urlopen(request, timeout=10) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


def post_error(server, path, payload, headers=None):
    try:
        post(server, path, payload, headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers, json.loads(exc.read().decode("utf-8"))
    raise AssertionError(f"POST {path} unexpectedly succeeded")


class TestBatch:
    """POST /query/batch against the single-process server."""

    def test_batch_items_match_individual_endpoints(self, service):
        status, body = post(service, "/query/batch", {"queries": [
            {"kind": "top", "k": 5},
            {"kind": "top", "k": 3, "domain": "Sports"},
            {"kind": "query", "weights": {"Sports": 0.7, "Art": 0.3},
             "k": 4},
        ]})
        assert status == 200
        assert body["count"] == 3
        _, top_body = get(service, "/top?k=5")
        assert body["results"][0] == top_body
        _, sports_body = get(service, "/top?k=3&domain=Sports")
        assert body["results"][1] == sports_body
        _, query_body = get(
            service, "/query?weights=Sports:0.7,Art:0.3&k=4"
        )
        # The batch pins one snapshot; "cached" may differ from the
        # GET (which primed the cache), so compare the payload proper.
        for key in ("epoch", "results", "total", "weights"):
            if key in query_body:
                assert body["results"][2][key] == query_body[key]
        assert body["epoch"] == service.store.snapshot.epoch

    def test_default_kind_and_default_k(self, service):
        status, body = post(service, "/query/batch", {"queries": [
            {},  # no kind, no k: a default-k general top
            {"weights": {"Travel": 1.0}},  # weights present: a query
        ]})
        assert status == 200
        assert len(body["results"][0]["results"]) \
            == service.config.default_k
        assert len(body["results"][1]["results"]) \
            == service.config.default_k

    def test_item_errors_are_inline_not_fatal(self, service):
        status, body = post(service, "/query/batch", {"queries": [
            {"kind": "top", "k": 0},
            {"kind": "top", "k": 2},
            {"kind": "nonsense"},
            {"kind": "query"},
        ]})
        assert status == 200  # the batch succeeds, items carry errors
        assert "k must be >= 1" in body["results"][0]["error"]
        assert "error" not in body["results"][1]
        assert "kind must be 'top' or 'query'" in body["results"][2]["error"]
        assert "weights" in body["results"][3]["error"]

    @pytest.mark.parametrize("payload,fragment", [
        ({}, "queries"),
        ({"queries": []}, "queries"),
        ({"queries": "nope"}, "queries"),
        ({"queries": ["not-a-mapping"]}, None),
    ])
    def test_request_shape_validation(self, service, payload, fragment):
        if fragment is None:
            status, body = post(service, "/query/batch", payload)
            assert status == 200
            assert "error" in body["results"][0]
        else:
            code, _, body = post_error(service, "/query/batch", payload)
            assert code == 400
            assert fragment in body["error"]

    def test_batch_larger_than_max_batch_rejected(self, service):
        code, _, body = post_error(service, "/query/batch", {
            "queries": [{"kind": "top"}] * (service.config.max_batch + 1)
        })
        assert code == 400
        assert "maximum" in body["error"]

    def test_get_method_rejected(self, service):
        code, _, body = get_error(service, "/query/batch")
        assert code == 400
        assert "POST" in body["error"]

    def test_batch_queries_counter_advances(self, service):
        metric = service.instrumentation.metrics.get(
            "repro_http_batch_queries_total"
        )
        before = metric.value
        post(service, "/query/batch",
             {"queries": [{"kind": "top", "k": 2}] * 3})
        assert metric.value == before + 3


@pytest.fixture()
def limited_service(small_blogosphere):
    """A server with a tiny deterministic budget: 0.5 qps, burst 2."""
    corpus, _ = small_blogosphere
    instr = Instrumentation.enabled()
    store = SnapshotStore(
        corpus, params=MassParameters(), instrumentation=instr
    )
    server = create_server(
        store,
        ServiceConfig(port=0, max_inflight=8,
                      rate_limit_qps=0.5, rate_limit_burst=2.0),
        instr,
    )
    server.serve_in_thread()
    yield server
    server.shutdown()
    server.server_close()
    store.close()


class TestRateLimiting:
    def test_burst_then_429_with_retry_after(self, limited_service):
        # Burst of 2 is granted...
        for _ in range(2):
            status, _ = get(limited_service, "/top?k=2")
            assert status == 200
        # ...the third is refused with an honest Retry-After.
        code, headers, body = get_error(limited_service, "/top?k=2")
        assert code == 429
        assert "rate limit" in body["error"]
        assert body["tenant"] == "default"
        retry_after = int(headers["Retry-After"])
        assert retry_after >= 1  # 1 token at 0.5/s needs ~2s
        assert body["retry_after_seconds"] == retry_after

    def test_tenants_are_isolated(self, limited_service):
        def get_as(tenant, path):
            request = urllib.request.Request(
                limited_service.url + path,
                headers={"X-Repro-Tenant": tenant},
            )
            with urllib.request.urlopen(request, timeout=10) as resp:
                return resp.status

        assert get_as("starver", "/top?k=2") == 200
        assert get_as("starver", "/top?k=2") == 200
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_as("starver", "/top?k=2")
        assert excinfo.value.code == 429
        # A different tenant still has its full burst.
        assert get_as("bystander", "/top?k=2") == 200

    def test_operational_endpoints_are_exempt(self, limited_service):
        for _ in range(3):  # exhaust the default tenant's burst
            try:
                get(limited_service, "/top?k=2")
            except urllib.error.HTTPError as exc:
                assert exc.code == 429
        for _ in range(5):
            status, _ = get(limited_service, "/healthz")
            assert status == 200
        with urllib.request.urlopen(
            limited_service.url + "/metrics", timeout=10
        ) as resp:
            assert resp.status == 200

    def test_rate_limited_counter_and_batch_cost(self, limited_service):
        metric = limited_service.instrumentation.metrics.get(
            "repro_http_rate_limited_total"
        )
        before = metric.value
        # A batch of 3 can never fit burst 2: rejected outright (400),
        # telling the caller to shrink, not to retry.  (Uses its own
        # tenant: the request itself still costs the dispatch token.)
        code, _, body = post_error(
            limited_service, "/query/batch",
            {"queries": [{"kind": "top", "k": 2}] * 3},
            headers={"X-Repro-Tenant": "too-large"},
        )
        assert code == 400
        assert "burst" in body["error"]
        # A batch of 2 costs exactly 2 tokens (1 at dispatch + 1 for
        # the extra item): a fresh tenant's burst of 2 fits once.
        status, _ = post(
            limited_service, "/query/batch",
            {"queries": [{"kind": "top", "k": 2}] * 2},
            headers={"X-Repro-Tenant": "exact-fit"},
        )
        assert status == 200
        code, _, _ = post_error(
            limited_service, "/query/batch",
            {"queries": [{"kind": "top", "k": 2}] * 2},
            headers={"X-Repro-Tenant": "exact-fit"},
        )
        assert code == 429
        assert metric.value > before

    def test_debug_vars_reports_limiter(self, limited_service):
        status, body = get(limited_service, "/debug/vars")
        assert status == 200
        assert body["rate_limit"]["qps"] == 0.5
        assert body["rate_limit"]["burst"] == 2.0
