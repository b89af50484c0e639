"""Tests for repro.obs: metrics registry, span tracing, logging config."""

import io
import json
import logging
import math
import pickle

import pytest

from repro import obs
from repro.obs import (
    MetricsRegistry,
    SpanRecorder,
    configure_logging,
    get_logger,
    get_recorder,
    get_registry,
    record_complete,
    trace,
    use_recorder,
    use_registry,
)


class TestCounters:
    def test_inc_and_read(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        assert reg.counter("a") == 5
        assert reg.counter("never") == 0

    def test_module_helpers_hit_active_registry(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            obs.inc("x")
            obs.set_gauge("g", 2.0)
            obs.observe("h", 0.5, buckets=(1.0,))
        assert reg.counter("x") == 1
        assert reg.gauge("g") == 2.0
        assert reg.snapshot()["histograms"]["h"]["count"] == 1

    def test_use_registry_nests_and_restores(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with use_registry(outer):
            obs.inc("k")
            with use_registry(inner):
                assert get_registry() is inner
                obs.inc("k")
            assert get_registry() is outer
        assert outer.counter("k") == 1
        assert inner.counter("k") == 1

    def test_clear(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.set_gauge("g", 1.0)
        reg.observe("h", 0.1)
        reg.clear()
        snap = reg.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}


class TestHistograms:
    def test_bucket_placement_le_semantics(self):
        reg = MetricsRegistry()
        edges = (1.0, 2.0, 4.0)
        for v in (0.5, 1.0, 1.5, 2.0, 3.9, 4.0, 100.0):
            reg.observe("h", v, buckets=edges)
        h = reg.snapshot()["histograms"]["h"]
        # value <= edge buckets: [<=1, <=2, <=4, overflow]
        assert h["counts"] == [2, 2, 2, 1]
        assert h["count"] == 7
        assert h["min"] == 0.5
        assert h["max"] == 100.0
        assert h["sum"] == pytest.approx(112.9)

    def test_conflicting_buckets_rejected(self):
        reg = MetricsRegistry()
        reg.observe("h", 0.1, buckets=(1.0, 2.0))
        reg.observe("h", 0.2)  # None re-uses existing edges
        reg.observe("h", 0.3, buckets=(1.0, 2.0))  # identical ok
        with pytest.raises(ValueError, match="different buckets"):
            reg.observe("h", 0.4, buckets=(1.0, 3.0))

    def test_invalid_edges_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.observe("h", 0.1, buckets=())
        with pytest.raises(ValueError):
            reg.observe("h2", 0.1, buckets=(2.0, 1.0))

    def test_default_buckets_are_time_buckets(self):
        reg = MetricsRegistry()
        reg.observe("h", 1e-3)
        assert tuple(reg.snapshot()["histograms"]["h"]["edges"]) == (
            obs.DEFAULT_TIME_BUCKETS_S
        )


class TestQuantiles:
    @staticmethod
    def _hist(values, edges=(1.0, 2.0, 4.0)):
        reg = MetricsRegistry()
        for v in values:
            reg.observe("h", v, buckets=edges)
        return reg

    def test_absent_or_empty_is_nan(self):
        reg = MetricsRegistry()
        assert math.isnan(reg.quantile("never", 0.5))

    def test_q_validation(self):
        reg = self._hist([0.5])
        with pytest.raises(ValueError, match="q must be"):
            reg.quantile("h", 1.5)
        with pytest.raises(ValueError, match="q must be"):
            reg.quantile("h", -0.1)

    def test_extremes_hit_observed_min_max(self):
        reg = self._hist([0.5, 1.5, 3.0, 10.0])
        assert reg.quantile("h", 0.0) == 0.5
        assert reg.quantile("h", 1.0) == 10.0

    def test_linear_interpolation_within_buckets(self):
        # counts [1, 1, 1, 1] over buckets [min..1], (1..2], (2..4], (4..max]
        reg = self._hist([0.5, 1.5, 3.0, 10.0])
        assert reg.quantile("h", 0.25) == pytest.approx(1.0)
        assert reg.quantile("h", 0.5) == pytest.approx(2.0)
        assert reg.quantile("h", 0.75) == pytest.approx(4.0)
        # overflow bucket interpolates up to the observed max
        assert reg.quantile("h", 0.875) == pytest.approx(7.0)

    def test_monotone_in_q(self):
        reg = self._hist([0.2, 0.9, 1.1, 1.9, 2.5, 3.5, 5.0, 9.0])
        qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
        values = [reg.quantile("h", q) for q in qs]
        assert values == sorted(values)
        assert all(0.2 <= v <= 9.0 for v in values)

    def test_single_value_collapses(self):
        reg = self._hist([1.7])
        for q in (0.0, 0.5, 1.0):
            assert reg.quantile("h", q) == pytest.approx(1.7)

    def test_quantile_after_merge_sees_combined_distribution(self):
        a = self._hist([0.5, 0.8])
        b = self._hist([3.0, 10.0])
        a.merge(b.snapshot())
        assert a.quantile("h", 0.0) == 0.5
        assert a.quantile("h", 1.0) == 10.0
        assert a.quantile("h", 0.5) == pytest.approx(1.0)

    def test_histogram_names(self):
        reg = MetricsRegistry()
        reg.observe("b", 1.0)
        reg.observe("a", 1.0)
        assert reg.histogram_names() == ["b", "a"]  # creation order

    def test_overflow_only_interpolates_observed_range(self):
        # Every observation past the last edge: the interior buckets
        # carry no rank information, so the estimate interpolates the
        # observed range and clamps to it.
        reg = self._hist([10.0, 20.0, 40.0])  # edges end at 4.0
        assert reg.quantile("h", 0.5) == pytest.approx(25.0)
        assert reg.quantile("h", 0.0) == 10.0
        assert reg.quantile("h", 1.0) == 40.0


class TestSnapshotMerge:
    def test_merge_adds_counters_and_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 2)
        a.observe("h", 0.5, buckets=(1.0, 2.0))
        b.inc("c", 3)
        b.inc("only_b")
        b.observe("h", 1.5, buckets=(1.0, 2.0))
        b.set_gauge("g", 9.0)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"] == {"c": 5, "only_b": 1}
        assert snap["gauges"] == {"g": 9.0}
        h = snap["histograms"]["h"]
        assert h["counts"] == [1, 1, 0]
        assert h["count"] == 2
        assert h["min"] == 0.5 and h["max"] == 1.5

    def test_merge_gauges_last_write_wins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.set_gauge("g", 1.0)
        b.set_gauge("g", 2.0)
        a.merge(b.snapshot())
        assert a.gauge("g") == 2.0

    def test_merge_rejects_mismatched_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("h", 0.5, buckets=(1.0,))
        b.observe("h", 0.5, buckets=(2.0,))
        with pytest.raises(ValueError, match="bucket edges differ"):
            a.merge(b.snapshot())

    def test_merge_rejects_mismatched_edge_counts(self):
        # Different edge *lengths* must raise too — a silent zip would
        # truncate the longer counts list and lose observations.
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("h", 0.5, buckets=(1.0, 2.0))
        b.observe("h", 0.5, buckets=(1.0, 2.0, 4.0))
        with pytest.raises(ValueError, match="bucket edges differ"):
            a.merge(b.snapshot())
        c = MetricsRegistry()
        c.observe("h", 0.5, buckets=(1.0,))
        with pytest.raises(ValueError, match="bucket edges differ"):
            a.merge(c.snapshot())

    def test_merge_into_empty_equals_source(self):
        src = MetricsRegistry()
        src.inc("c", 7)
        src.observe("h", 0.2, buckets=(1.0,))
        src.set_gauge("g", 4.0)
        dst = MetricsRegistry()
        dst.merge(src.snapshot())
        assert pickle.dumps(dst.snapshot()) == pickle.dumps(src.snapshot())

    def test_snapshot_is_json_serialisable(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.observe("h", 0.2)
        reg.set_gauge("g", 1.0)
        parsed = json.loads(json.dumps(reg.snapshot()))
        assert parsed["counters"]["c"] == 1

    def test_snapshot_is_a_copy(self):
        reg = MetricsRegistry()
        reg.inc("c")
        snap = reg.snapshot()
        reg.inc("c")
        assert snap["counters"]["c"] == 1


class TestInvariantSnapshot:
    def test_strips_timing_and_placement_series(self):
        from repro.obs import invariant_snapshot

        reg = MetricsRegistry()
        reg.inc("fleet.queries", 3)
        reg.inc("runtime.shared.publish")  # transport: varies with jobs
        reg.inc("engine.cache.reduction.hit", 2)  # placement: varies too
        reg.set_gauge("campaign.drives", 2.0)
        reg.observe("span.engine.estimate", 0.01)  # wall clock
        reg.observe("fleet.error_m", 1.5, buckets=(1.0, 2.0))
        view = invariant_snapshot(reg.snapshot())
        assert view["counters"] == {"fleet.queries": 3}
        assert view["gauges"] == {"campaign.drives": 2.0}
        assert list(view["histograms"]) == ["fleet.error_m"]
        assert view["histograms"]["fleet.error_m"]["count"] == 1

    def test_is_a_plain_copy(self):
        from repro.obs import invariant_snapshot

        reg = MetricsRegistry()
        reg.inc("kept")
        reg.observe("kept_h", 0.2, buckets=(1.0,))
        snap = reg.snapshot()
        view = invariant_snapshot(snap)
        view["counters"]["kept"] = 99
        view["histograms"]["kept_h"]["counts"][0] = 99
        assert snap["counters"]["kept"] == 1
        assert snap["histograms"]["kept_h"]["counts"][0] == 1
        assert json.loads(json.dumps(view))  # still JSON-serialisable

    def test_placement_series_included_when_requested(self):
        # The default filter strips placement counters; passing explicit
        # (empty) prefix lists re-includes them for callers that want
        # the full picture and accept the jobs-dependence.
        from repro.obs import invariant_snapshot

        reg = MetricsRegistry()
        reg.inc("fleet.queries", 3)
        reg.inc("runtime.shared.publish", 2)
        reg.inc("engine.cache.reduction.miss")
        reg.observe("span.engine.estimate", 0.01)
        snap = reg.snapshot()
        default = invariant_snapshot(snap)
        assert set(default["counters"]) == {"fleet.queries"}
        full = invariant_snapshot(
            snap, exclude_histogram_prefixes=(), exclude_counter_prefixes=()
        )
        assert set(full["counters"]) == {
            "fleet.queries",
            "runtime.shared.publish",
            "engine.cache.reduction.miss",
        }
        assert "span.engine.estimate" in full["histograms"]


class TestTracing:
    def test_span_nesting_depth_and_parent(self):
        rec = SpanRecorder()
        with use_recorder(rec), use_registry(MetricsRegistry()):
            with trace("outer"):
                with trace("inner"):
                    pass
                with trace("inner2"):
                    pass
        names = [s.name for s in rec.spans]
        assert names == ["inner", "inner2", "outer"]  # completion order
        by_name = {s.name: s for s in rec.spans}
        assert by_name["outer"].depth == 0
        assert by_name["outer"].parent is None
        assert by_name["inner"].depth == 1
        assert by_name["inner"].parent == "outer"
        assert by_name["inner2"].parent == "outer"

    def test_span_timings_nonnegative_and_nested_bounded(self):
        rec = SpanRecorder()
        with use_recorder(rec), use_registry(MetricsRegistry()):
            with trace("outer"):
                with trace("inner"):
                    sum(range(1000))
        by_name = {s.name: s for s in rec.spans}
        assert by_name["inner"].wall_s >= 0.0
        assert by_name["inner"].cpu_s >= 0.0
        assert by_name["outer"].wall_s >= by_name["inner"].wall_s

    def test_span_feeds_duration_histogram(self):
        reg = MetricsRegistry()
        with use_registry(reg), use_recorder(SpanRecorder()):
            with trace("stage"):
                pass
        hist = reg.snapshot()["histograms"]["span.stage"]
        assert hist["count"] == 1
        assert hist["sum"] >= 0.0

    def test_ring_buffer_evicts_oldest(self):
        rec = SpanRecorder(capacity=3)
        with use_recorder(rec), use_registry(MetricsRegistry()):
            for i in range(5):
                with trace(f"s{i}"):
                    pass
        assert [s.name for s in rec.spans] == ["s2", "s3", "s4"]
        assert rec.capacity == 3

    def test_ring_buffer_multi_wrap_keeps_completion_order(self):
        # Wrap the ring several times over; the survivors must be the
        # newest `capacity` spans, still oldest-first, with start times
        # monotone (completion order == recording order for flat spans).
        rec = SpanRecorder(capacity=4)
        with use_recorder(rec), use_registry(MetricsRegistry()):
            for i in range(19):
                with trace(f"s{i}"):
                    pass
        assert [s.name for s in rec.spans] == ["s15", "s16", "s17", "s18"]
        starts = [s.start_s for s in rec.spans]
        assert starts == sorted(starts)

    def test_ring_buffer_wrap_with_nesting(self):
        # Children complete before parents; the wrapped ring keeps that
        # completion order, not call order.
        rec = SpanRecorder(capacity=3)
        with use_recorder(rec), use_registry(MetricsRegistry()):
            with trace("old"):
                pass
            with trace("outer"):
                with trace("a"):
                    pass
                with trace("b"):
                    pass
        assert [s.name for s in rec.spans] == ["a", "b", "outer"]
        assert [s.depth for s in rec.spans] == [1, 1, 0]

    def test_exception_still_records_span(self):
        rec = SpanRecorder()
        with use_recorder(rec), use_registry(MetricsRegistry()):
            with pytest.raises(RuntimeError):
                with trace("boom"):
                    raise RuntimeError("x")
        assert [s.name for s in rec.spans] == ["boom"]
        assert rec.active == ()

    def test_active_stack_visible_inside(self):
        rec = SpanRecorder()
        with use_recorder(rec), use_registry(MetricsRegistry()):
            with trace("a"):
                with trace("b"):
                    assert rec.active == ("a", "b")

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SpanRecorder(capacity=0)

    def test_default_recorder_exists(self):
        assert isinstance(get_recorder(), SpanRecorder)


class TestTracingIds:
    """Deterministic span IDs, adoption/stitching, the structural view."""

    @staticmethod
    def _record(rec, names):
        with use_recorder(rec), use_registry(MetricsRegistry()):
            for name in names:
                with trace(name):
                    pass

    def test_deterministic_span_id_is_pure(self):
        from repro.obs import deterministic_span_id

        a = deterministic_span_id("query", "q1")
        assert a == deterministic_span_id("query", "q1")
        assert a != deterministic_span_id("query", "q2")
        assert len(a) == 16 and int(a, 16) >= 0  # 64-bit hex

    def test_query_span_id_matches_scheme(self):
        from repro.obs import deterministic_span_id, query_span_id

        assert query_span_id("d3:d4#7") == deterministic_span_id(
            "query", "d3:d4#7"
        )

    def test_same_context_same_ids(self):
        a = SpanRecorder(context=("root", "task", 0, 3))
        b = SpanRecorder(context=("root", "task", 0, 3))
        self._record(a, ["x", "y", "x"])
        self._record(b, ["x", "y", "x"])
        assert a.trace_id == b.trace_id
        assert [s.span_id for s in a.spans] == [s.span_id for s in b.spans]
        c = SpanRecorder(context=("root", "task", 0, 4))
        self._record(c, ["x", "y", "x"])
        assert c.trace_id != a.trace_id
        assert [s.span_id for s in c.spans] != [s.span_id for s in a.spans]

    def test_per_name_counters_isolate_ids(self):
        # An extra span of a *different* name (an engine.build firing on
        # one worker's cache miss but not another's) must not shift the
        # IDs of the spans around it.
        a = SpanRecorder(context=("root",))
        b = SpanRecorder(context=("root",))
        self._record(a, ["syn.search", "syn.search"])
        self._record(b, ["syn.search", "engine.build", "syn.search"])
        ids_a = [s.span_id for s in a.spans if s.name == "syn.search"]
        ids_b = [s.span_id for s in b.spans if s.name == "syn.search"]
        assert ids_a == ids_b
        # ...while a second span of the *same* name gets a fresh ID.
        assert ids_a[0] != ids_a[1]

    def test_explicit_span_id_and_links_and_attrs(self):
        # Only record_complete takes an explicit ID: the fleet stamps
        # each query span with its query's ID.
        rec = SpanRecorder()
        with use_recorder(rec), use_registry(MetricsRegistry()):
            with trace("chunk", attrs=(("pairs", 3),)) as chunk_sid:
                pass
            sid = record_complete(
                "query", wall_s=0.0, span_id="feedbeef00000000", links=(chunk_sid,)
            )
        assert sid == "feedbeef00000000"
        chunk, query = rec.spans
        assert chunk.span_id == chunk_sid
        assert chunk.attrs == (("pairs", 3),)
        assert query.span_id == "feedbeef00000000"
        assert query.links == (chunk_sid,)

    def test_trace_yields_derived_id_and_children_see_it(self):
        rec = SpanRecorder()
        with use_recorder(rec), use_registry(MetricsRegistry()):
            with trace("outer") as outer_sid:
                with trace("inner"):
                    pass
        inner, outer = rec.spans
        assert outer.span_id == outer_sid
        assert inner.parent_id == outer_sid
        assert inner.trace_id == outer.trace_id == rec.trace_id

    def test_record_complete(self):
        from repro.obs import record_complete

        rec = SpanRecorder()
        reg = MetricsRegistry()
        with use_recorder(rec), use_registry(reg):
            with trace("tick") as tick_sid:
                sid = record_complete(
                    "fleet.query",
                    wall_s=0.25,
                    span_id="aa00aa00aa00aa00",
                    links=("bb00bb00bb00bb00",),
                    attrs=(("query_id", "q1"),),
                )
        assert sid == "aa00aa00aa00aa00"
        span = rec.spans[0]
        assert span.name == "fleet.query"
        assert span.wall_s == 0.25
        assert span.parent == "tick" and span.parent_id == tick_sid
        assert span.depth == 1
        hist = reg.snapshot()["histograms"]["span.fleet.query"]
        assert hist["count"] == 1 and hist["sum"] == pytest.approx(0.25)

    def test_dropped_spans_counted_in_ring_and_registry(self):
        rec = SpanRecorder(capacity=2)
        reg = MetricsRegistry()
        with use_recorder(rec), use_registry(reg):
            for i in range(5):
                with trace(f"s{i}"):
                    pass
        assert rec.dropped == 3
        assert reg.counter("trace.dropped_spans") == 3
        assert rec.structural()["dropped_spans"] == 3
        rec.clear()
        assert rec.dropped == 0

    def test_adopt_reparents_and_rebases(self):
        reg = MetricsRegistry()
        child = SpanRecorder(context=("root", "task", 0, 2))
        with use_recorder(child), use_registry(MetricsRegistry()):
            with trace("task.outer"):
                with trace("task.inner"):
                    pass
        parent = SpanRecorder(context=("root",))
        with use_recorder(parent), use_registry(reg):
            with trace("wave") as wave_sid:
                parent.adopt(child.snapshot())
        inner, outer, wave = parent.spans
        # The task-root span hangs off the wave span; nested structure
        # inside the task is preserved.
        assert outer.name == "task.outer"
        assert outer.parent == "wave" and outer.parent_id == wave_sid
        assert outer.depth == 1
        assert inner.parent == "task.outer"
        assert inner.parent_id == outer.span_id
        assert inner.depth == 2
        # Every adopted span is rebased onto the parent's trace.
        assert {s.trace_id for s in parent.spans} == {parent.trace_id}
        # Adoption must not re-observe span.* histograms (the durations
        # already merged with the task's metrics snapshot).
        hists = reg.snapshot()["histograms"]
        assert "span.task.outer" not in hists
        assert hists["span.wave"]["count"] == 1

    def test_adopt_folds_drop_count_without_recounting(self):
        child = SpanRecorder(capacity=1, context=("root", "task", 0, 0))
        with use_recorder(child), use_registry(MetricsRegistry()):
            for i in range(3):
                with trace(f"s{i}"):
                    pass
        assert child.dropped == 2
        parent = SpanRecorder()
        reg = MetricsRegistry()
        with use_registry(reg):
            parent.adopt(child.snapshot())
        assert parent.dropped == 2
        assert reg.counter("trace.dropped_spans") == 0  # counted once, in task

    def test_structural_strips_placement_and_timing(self):
        rec = SpanRecorder()
        with use_recorder(rec), use_registry(MetricsRegistry()):
            with trace("syn.search"):
                pass
            with trace("engine.build"):
                pass
            with trace("engine.bind_index"):
                pass
        view = rec.structural()
        assert [s["name"] for s in view["spans"]] == ["syn.search"]
        for span in view["spans"]:
            assert "wall_s" not in span and "start_s" not in span
        full = rec.structural(include_placement=True)
        assert [s["name"] for s in full["spans"]] == [
            "syn.search",
            "engine.build",
            "engine.bind_index",
        ]
        assert json.loads(json.dumps(view))  # JSON-serialisable


class TestLogging:
    def test_silent_by_default(self):
        root = logging.getLogger("repro")
        assert any(isinstance(h, logging.NullHandler) for h in root.handlers)

    def test_get_logger_namespacing(self):
        assert get_logger().name == "repro"
        assert get_logger("v2v.exchange").name == "repro.v2v.exchange"
        assert get_logger("repro.core.tracking").name == "repro.core.tracking"

    def test_configure_logging_writes_and_is_idempotent(self):
        stream = io.StringIO()
        root = configure_logging("DEBUG", stream=stream)
        try:
            configure_logging("DEBUG", stream=stream)  # must not duplicate
            get_logger("test").debug("event=%s value=%d", "hello", 3)
            out = stream.getvalue()
            assert out.count("event=hello value=3") == 1
            assert "DEBUG" in out
        finally:
            for handler in list(root.handlers):
                if not isinstance(handler, logging.NullHandler):
                    root.removeHandler(handler)
            root.setLevel(logging.NOTSET)

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            configure_logging("NOISY")
