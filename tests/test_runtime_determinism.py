"""Determinism suite: parallel runs must equal serial runs byte for byte.

The runtime's whole claim is that ``jobs`` is a throughput knob, never a
results knob.  Campaign results are compared with ``pickle.dumps`` —
any drifting float, reordered bucket, or changed dict insertion order
fails — and the experiment-level fan-out is compared through rendered
artifacts.
"""

import io
import json
import pickle

import pytest

from repro import obs
from repro.experiments.campaign import run_campaign
from repro.experiments.registry import run_experiment, run_experiments
from repro.obs import (
    MetricsRegistry,
    SpanRecorder,
    invariant_snapshot,
    trace,
    use_recorder,
    use_registry,
)
from repro.obs.events import EventLedger, use_ledger
from repro.runtime import DeterministicExecutor

SMALL_CAMPAIGN = dict(
    route_length_m=6000.0, n_drives=2, queries_per_drive=3, seed=7
)


def _metrics_task(item: int) -> int:
    """Pure task with deterministic metrics writes (module level: pickles)."""
    obs.inc("task.runs")
    obs.inc("task.total", item)
    obs.set_gauge("task.last", float(item))
    obs.observe("task.value", float(item), buckets=(2.0, 5.0, 8.0))
    return item * 2


def _traced_task(item: int) -> int:
    """Task opening spans, so worker-side traces cross the pool boundary."""
    with trace("task.stage", attrs=(("item", item),)):
        with trace("task.inner"):
            pass
    return item


class TestCampaignJobsDeterminism:
    def test_parallel_campaign_byte_identical_to_serial(self, small_plan):
        serial = run_campaign(plan=small_plan, jobs=1, **SMALL_CAMPAIGN)
        parallel = run_campaign(plan=small_plan, jobs=4, **SMALL_CAMPAIGN)
        assert pickle.dumps(serial) == pickle.dumps(parallel)

    def test_all_cores_byte_identical_to_serial(self, small_plan):
        serial = run_campaign(plan=small_plan, jobs=1, **SMALL_CAMPAIGN)
        all_cores = run_campaign(plan=small_plan, jobs=None, **SMALL_CAMPAIGN)
        assert pickle.dumps(serial) == pickle.dumps(all_cores)

    @pytest.mark.slow
    def test_golden_config_campaign_jobs_invariant(self):
        """The golden campaign itself under jobs=2 vs jobs=1.

        Together with ``test_goldens_campaign`` (which pins the jobs=1
        numbers against ``tests/goldens/campaign_small.json``), this
        extends the golden to every ``jobs`` setting.
        """
        import numpy as np

        from repro.gsm.band import RGSM900
        from tests.test_goldens_campaign import CAMPAIGN_KWARGS, PLAN_STRIDE

        plan = RGSM900.subset(
            np.arange(0, RGSM900.n_channels, PLAN_STRIDE), name="golden-small"
        )
        serial = run_campaign(plan=plan, jobs=1, **CAMPAIGN_KWARGS)
        parallel = run_campaign(plan=plan, jobs=2, **CAMPAIGN_KWARGS)
        assert pickle.dumps(serial) == pickle.dumps(parallel)


class TestMetricsMergeDeterminism:
    """repro.obs merge semantics: jobs is never a metrics knob either."""

    @staticmethod
    def _snapshot_for(jobs):
        registry = MetricsRegistry()
        with use_registry(registry):
            with DeterministicExecutor(jobs=jobs) as executor:
                results = executor.map_ordered(_metrics_task, range(10))
        assert results == [2 * i for i in range(10)]
        return registry.snapshot()

    @pytest.mark.parametrize("jobs", [2, 4, None])
    def test_merged_metrics_byte_identical_across_jobs(self, jobs):
        serial = self._snapshot_for(1)
        parallel = self._snapshot_for(jobs)
        assert pickle.dumps(serial) == pickle.dumps(parallel)

    def test_merged_values(self):
        snap = self._snapshot_for(1)
        assert snap["counters"] == {"task.runs": 10, "task.total": 45}
        assert snap["gauges"] == {"task.last": 9.0}  # last submitted task
        hist = snap["histograms"]["task.value"]
        assert hist["counts"] == [3, 3, 3, 1]
        assert hist["count"] == 10
        assert hist["sum"] == 45.0

    def test_campaign_pipeline_counters_jobs_invariant(self, small_plan):
        """Pipeline-level counters must not depend on chunk layout.

        Engine-cache hit/miss counters legitimately vary with ``jobs``
        (each worker chunk builds its own engine, so the cache sees a
        different request stream); the SYN-search and campaign counters
        count per-query work and must be identical.
        """

        def counters_for(jobs):
            registry = MetricsRegistry()
            with use_registry(registry):
                run_campaign(plan=small_plan, jobs=jobs, **SMALL_CAMPAIGN)
            counters = registry.snapshot()["counters"]
            # campaign.chunks is scheduling granularity by design
            # (fixed-size query chunks); everything else counted here
            # is per-query work and must be layout-free.
            return {
                k: v
                for k, v in sorted(counters.items())
                if k.startswith(("syn.", "campaign.", "engine.estimates"))
                and k != "campaign.chunks"
            }

        serial = counters_for(1)
        parallel = counters_for(4)
        assert serial["campaign.queries"] == 6
        assert serial["syn.searches"] == 6
        assert serial == parallel

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_invariant_snapshot_placement_filter_across_jobs(
        self, small_plan, jobs
    ):
        """Placement series are stripped by default, included on request.

        Under any ``jobs`` the raw snapshot holds ``engine.cache.*``
        (and, pooled, ``runtime.shared.*``) counters plus ``span.*``
        wall-clock histograms; the invariant view must drop all of them
        while an explicit empty exclusion list keeps the full picture.
        """
        registry = MetricsRegistry()
        with use_registry(registry), use_recorder(SpanRecorder(capacity=4096)):
            run_campaign(plan=small_plan, jobs=jobs, **SMALL_CAMPAIGN)
        snap = registry.snapshot()
        assert any(k.startswith("engine.cache.") for k in snap["counters"])
        if jobs > 1:
            assert any(
                k.startswith("runtime.shared.") for k in snap["counters"]
            )
        assert any(k.startswith("span.") for k in snap["histograms"])
        view = invariant_snapshot(snap)
        assert not any(
            k.startswith(("engine.cache.", "runtime.shared."))
            for k in view["counters"]
        )
        assert not any(k.startswith("span.") for k in view["histograms"])
        full = invariant_snapshot(
            snap, exclude_histogram_prefixes=(), exclude_counter_prefixes=()
        )
        assert set(full["counters"]) == set(snap["counters"])
        assert set(full["histograms"]) == set(snap["histograms"])


class TestTraceStitchingDeterminism:
    """The merged trace tree is as jobs-invariant as the results.

    Each pooled task records spans under a fresh recorder whose context
    is its submission path; the executor adopts the snapshots back in
    submission order, so the structural view — names, deterministic IDs,
    parent links, order — must be byte-identical for any ``jobs``.
    """

    @staticmethod
    def _structural_for(jobs):
        registry = MetricsRegistry()
        recorder = SpanRecorder(context=("root",))
        with use_registry(registry), use_recorder(recorder):
            with DeterministicExecutor(jobs=jobs) as executor:
                with trace("wave"):
                    results = executor.map_ordered(_traced_task, range(8))
        assert results == list(range(8))
        return recorder, registry

    @pytest.mark.parametrize("jobs", [2, 4, None])
    def test_structural_tree_byte_identical_across_jobs(self, jobs):
        serial, _ = self._structural_for(1)
        parallel, _ = self._structural_for(jobs)
        serial_view = json.dumps(serial.structural(), sort_keys=True)
        parallel_view = json.dumps(parallel.structural(), sort_keys=True)
        assert serial_view == parallel_view

    def test_task_spans_stitched_under_wave_span(self):
        recorder, registry = self._structural_for(2)
        spans = recorder.structural()["spans"]
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        (wave,) = by_name["wave"]
        # Task-root spans hang off the span that wrapped the executor
        # wave; nested task spans keep their in-task structure.
        assert len(by_name["task.stage"]) == 8
        for stage in by_name["task.stage"]:
            assert stage["parent"] == "wave"
            assert stage["parent_id"] == wave["span_id"]
            assert stage["trace_id"] == recorder.trace_id
            assert stage["depth"] == 1
        for inner in by_name["task.inner"]:
            assert inner["parent"] == "task.stage"
            assert inner["depth"] == 2
        # Distinct submission paths give distinct span IDs.
        ids = [s["span_id"] for s in spans]
        assert len(set(ids)) == len(ids)
        # Items land in submission order (attrs are structural).
        items = [s["attrs"]["item"] for s in by_name["task.stage"]]
        assert items == list(range(8))
        # Worker span durations reach the merged registry exactly once.
        hist = registry.snapshot()["histograms"]["span.task.stage"]
        assert hist["count"] == 8


class TestSharedStaticsDeterminism:
    """Shared-statics caches are a transport detail, never a results knob.

    The pooled campaign ships content-hash refs instead of heavy
    pickles; the store must be invisible in the results: every
    (jobs, shared_statics, chunk_queries) combination is pickle-identical
    to the plain serial run, and the exported event ledger is
    byte-identical too.
    """

    @pytest.mark.parametrize(
        "jobs,shared_statics",
        [(1, True), (2, True), (4, True), (None, True), (4, False)],
    )
    def test_shared_statics_byte_identical(self, small_plan, jobs, shared_statics):
        base = run_campaign(
            plan=small_plan, jobs=1, shared_statics=False, **SMALL_CAMPAIGN
        )
        other = run_campaign(
            plan=small_plan,
            jobs=jobs,
            shared_statics=shared_statics,
            **SMALL_CAMPAIGN,
        )
        assert pickle.dumps(base) == pickle.dumps(other)

    @pytest.mark.parametrize("chunk_queries", [1, 2, 5])
    def test_chunk_layout_invariant(self, small_plan, chunk_queries):
        """Cross-pair batching must not leak batch composition into floats."""
        base = run_campaign(plan=small_plan, jobs=1, **SMALL_CAMPAIGN)
        chunked = run_campaign(
            plan=small_plan,
            jobs=2,
            chunk_queries=chunk_queries,
            **SMALL_CAMPAIGN,
        )
        assert pickle.dumps(base) == pickle.dumps(chunked)

    def test_warm_executor_reuse_byte_identical(self, small_plan):
        """A warm pool with resident caches replays the exact same run."""
        base = run_campaign(plan=small_plan, jobs=1, **SMALL_CAMPAIGN)
        with DeterministicExecutor(jobs=2) as executor:
            executor.warm_up()
            cold = run_campaign(
                plan=small_plan, executor=executor, **SMALL_CAMPAIGN
            )
            warm = run_campaign(
                plan=small_plan, executor=executor, **SMALL_CAMPAIGN
            )
        assert pickle.dumps(base) == pickle.dumps(cold)
        assert pickle.dumps(cold) == pickle.dumps(warm)

    def test_event_export_shared_statics_invariant(self, small_plan):
        """The provenance ledger must not see the transport either."""

        def jsonl_for(shared_statics):
            ledger = EventLedger()
            with use_ledger(ledger):
                run_campaign(
                    plan=small_plan,
                    jobs=2,
                    shared_statics=shared_statics,
                    **SMALL_CAMPAIGN,
                )
            buffer = io.StringIO()
            ledger.write_jsonl(buffer)
            return buffer.getvalue()

        on = jsonl_for(True)
        off = jsonl_for(False)
        assert on and on == off


class TestExperimentFanOut:
    def test_run_experiments_matches_run_experiment(self):
        inline = run_experiment("fig1", seed=2)
        (pair,) = run_experiments(["fig1"], jobs=1, kwargs_by_id={"fig1": {"seed": 2}})
        assert pair[0] == "fig1"
        assert pair[1].render() == inline.render()

    def test_parallel_fan_out_matches_serial(self):
        ids = ["fig1", "fig3"]
        kwargs = {e: {"seed": 2} for e in ids}
        serial = run_experiments(ids, jobs=1, kwargs_by_id=kwargs)
        parallel = run_experiments(ids, jobs=2, kwargs_by_id=kwargs)
        assert [e for e, _ in serial] == [e for e, _ in parallel] == ids
        for (_, a), (_, b) in zip(serial, parallel):
            assert a.render() == b.render()

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError, match="fig99"):
            run_experiments(["fig1", "fig99"])
