"""Tests for the span-tree tracer."""

import json
import threading
import time

import pytest

from repro.obs import NULL_SPAN, Tracer
from repro.obs.context import current_trace, new_trace, use_trace


class TestSpans:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child-a"):
                pass
            with tracer.span("child-b"):
                with tracer.span("grandchild"):
                    pass
        (root,) = tracer.roots
        assert root.name == "root"
        assert [child.name for child in root.children] == [
            "child-a", "child-b",
        ]
        assert root.children[1].children[0].name == "grandchild"

    def test_siblings_become_separate_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [root.name for root in tracer.roots] == ["first", "second"]

    def test_events_recorded_in_order(self):
        tracer = Tracer()
        with tracer.span("solver") as span:
            span.event(iteration=1, residual=0.5)
            span.event(iteration=2, residual=0.1)
        assert tracer.roots[0].events == [
            {"iteration": 1, "residual": 0.5},
            {"iteration": 2, "residual": 0.1},
        ]

    def test_durations_are_positive_and_nested(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.roots[0]
        inner = outer.children[0]
        assert outer.end is not None and inner.end is not None
        assert outer.duration >= inner.duration >= 0.0

    def test_span_closed_even_when_body_raises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("body failed")
        assert tracer.roots[0].end is not None
        assert tracer.current is None

    def test_find_searches_depth_first(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("target"):
                    pass
        assert tracer.find("target") is not None
        assert tracer.find("missing") is None


class TestExport:
    def test_as_dict_tree_shape(self):
        tracer = Tracer()
        with tracer.span("root") as span:
            span.event(k=1)
            with tracer.span("child"):
                pass
        tree = tracer.as_dict()["spans"][0]
        assert tree["name"] == "root"
        assert tree["start_ms"] == 0.0
        assert tree["duration_ms"] >= 0.0
        assert tree["events"] == [{"k": 1}]
        child = tree["children"][0]
        assert child["name"] == "child"
        assert child["start_ms"] >= 0.0

    def test_render_json_round_trips(self):
        tracer = Tracer()
        with tracer.span("root"):
            pass
        parsed = json.loads(tracer.render_json())
        assert parsed["spans"][0]["name"] == "root"

    def test_clear_drops_closed_trees(self):
        tracer = Tracer()
        with tracer.span("old"):
            pass
        tracer.clear()
        assert tracer.roots == []


class TestClocks:
    def test_wall_clock_step_cannot_skew_durations(self, monkeypatch):
        # Durations come from perf_counter; rewind time.time() a day
        # mid-span and the duration must stay sane while wall_start
        # keeps the (pre-step) wall timestamp for rendering.
        tracer = Tracer()
        real_time = time.time
        with tracer.span("steady") as span:
            monkeypatch.setattr(time, "time",
                                lambda: real_time() - 86400.0)
        assert 0.0 <= span.duration < 60.0
        assert span.wall_start >= real_time() - 5.0  # captured pre-step

    def test_wall_clock_jump_forward_harmless_too(self, monkeypatch):
        tracer = Tracer()
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() + 86400.0)
        with tracer.span("jumped") as span:
            pass
        assert 0.0 <= span.duration < 60.0

    def test_span_dict_carries_wall_start(self):
        tracer = Tracer()
        before = time.time()
        with tracer.span("root"):
            pass
        node = tracer.as_dict()["spans"][0]
        assert before <= node["wall_start"] <= time.time()


class TestTraceStamping:
    def test_spans_carry_the_active_trace(self):
        tracer = Tracer()
        ctx = new_trace()
        with use_trace(ctx):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        outer = tracer.roots[0]
        inner = outer.children[0]
        assert outer.trace_id == inner.trace_id == ctx.trace_id
        assert outer.parent_id == ctx.span_id
        assert inner.parent_id == outer.span_id

    def test_span_narrows_the_context_to_itself(self):
        tracer = Tracer()
        with use_trace(new_trace()):
            with tracer.span("outer") as outer:
                assert current_trace().span_id == outer.span_id
            assert current_trace().span_id != outer.span_id

    def test_adopt_grafts_remote_spans(self):
        tracer = Tracer()
        with tracer.span("local") as local:
            adopted = tracer.adopt(
                "remote", duration=0.25,
                trace_id="a" * 32, span_id="b" * 16,
                worker_id=3,
            )
        assert adopted in local.children
        assert adopted.trace_id == "a" * 32
        assert adopted.span_id == "b" * 16
        assert adopted.parent_id == local.span_id
        assert adopted.duration == pytest.approx(0.25, abs=0.01)
        assert adopted.events == [{"worker_id": 3}]

    def test_adopt_without_open_span_becomes_root(self):
        tracer = Tracer()
        tracer.adopt("orphan", duration=0.1)
        assert tracer.roots[0].name == "orphan"

    def test_on_close_fires_for_every_span(self):
        closed = []
        tracer = Tracer(on_close=closed.append)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        tracer.adopt("remote")
        assert [span.name for span in closed] == [
            "inner", "outer", "remote",
        ]

    def test_threads_do_not_co_nest(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def work(label):
            with tracer.span(label):
                barrier.wait(timeout=5)

        threads = [
            threading.Thread(target=work, args=(f"t{n}",)) for n in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(root.name for root in tracer.roots) == ["t0", "t1"]
        assert all(not root.children for root in tracer.roots)


class TestMaxRoots:
    def test_unbounded_by_default(self):
        tracer = Tracer()
        for number in range(600):
            with tracer.span(f"s{number}"):
                pass
        assert tracer.max_roots is None
        assert len(tracer.roots) == 600

    def test_drops_the_oldest_closed_trees(self):
        tracer = Tracer(max_roots=3)
        for number in range(5):
            with tracer.span(f"s{number}"):
                with tracer.span("child"):
                    pass
        tracer.adopt("remote")
        assert [root.name for root in tracer.roots] == ["s3", "s4", "remote"]

    def test_never_drops_an_open_tree(self):
        tracer = Tracer(max_roots=2)
        opened, release = threading.Event(), threading.Event()

        def hold():
            with tracer.span("held"):
                opened.set()
                release.wait(timeout=5)

        thread = threading.Thread(target=hold)
        thread.start()
        opened.wait(timeout=5)
        try:
            for number in range(4):
                with tracer.span(f"s{number}"):
                    pass
            assert [root.name for root in tracer.roots] == ["held", "s3"]
        finally:
            release.set()
            thread.join()
        with tracer.span("last"):
            pass
        assert [root.name for root in tracer.roots] == ["s3", "last"]


class TestDisabled:
    def test_disabled_tracer_yields_null_span(self):
        tracer = Tracer(enabled=False)
        with tracer.span("anything") as span:
            assert span is NULL_SPAN
            span.event(ignored=True)
        assert tracer.roots == []
        assert tracer.as_dict() == {"spans": []}
