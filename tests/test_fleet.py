"""Tests for repro.fleet: resident store + deterministic batched service.

Unit coverage for ingestion, session lifecycle and the
service's error/ordering contracts, plus the service-vs-direct-tracker
differential: a :class:`FleetService` answering one pair's queries must
walk the session through bit-for-bit the same updates a dedicated
:meth:`RupsTracker.update` loop produces over identically built
trajectories.  The jobs/shared-statics invariance of the full replay
lives in ``tests/test_runtime_determinism.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import RupsConfig
from repro.core.engine import RupsEngine, RupsEstimate
from repro.core.tracking import RupsTracker
from repro.core.trajectory import TrajectoryBuilder
from repro.fleet import FleetQuery, FleetService, FleetStore
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.sensors.deadreckoning import EstimatedTrack

CFG = RupsConfig(context_length_m=600.0, window_channels=30)


def _feed(store: FleetStore, vehicle_id: str, record, t: float, cuts: dict) -> None:
    """Stream one tick of ``record``'s scan into the store (chunked)."""
    track = record.estimated.until(t)
    bound = int(
        np.searchsorted(
            record.scan.times_s, float(track.times_s[-1]), side="right"
        )
    )
    store.ingest(
        vehicle_id, record.scan.slice(cuts.get(vehicle_id, 0), bound), track
    )
    cuts[vehicle_id] = bound


class TestFleetStore:
    def test_ingest_admits_counts_and_rings(self, shared_pair):
        store = FleetStore(CFG)
        rear = shared_pair.rear
        cuts: dict = {}
        t0 = float(rear.estimated.times_s[0])
        assert not store.has("v1")
        for k in range(1, 5):
            _feed(store, "v1", rear, t0 + 10.0 * k, cuts)
        assert store.has("v1")
        slot = store.slot("v1")
        assert slot.n_chunks == 4
        assert slot.n_measurements == cuts["v1"]
        assert store.n_vehicles == 1
        assert store.vehicles() == ["v1"]

    def test_rejected_first_ingest_admits_nothing(self, shared_pair, monkeypatch):
        store = FleetStore(CFG)
        rear = shared_pair.rear
        track = rear.estimated.until(float(rear.estimated.times_s[0]) + 30.0)
        bound = int(
            np.searchsorted(
                rear.scan.times_s, float(track.times_s[-1]), side="right"
            )
        )

        def refuse(builder, chunk, track):
            raise ValueError("refused")

        def assert_not_admitted() -> None:
            assert not store.has("v1")
            assert store.n_vehicles == 0
            assert registry.counter("fleet.store.vehicles_admitted") == 0
            assert registry.gauge("fleet.store.vehicles") is None

        registry = MetricsRegistry()
        with use_registry(registry):
            with monkeypatch.context() as patch:
                patch.setattr(TrajectoryBuilder, "append", refuse)
                with pytest.raises(ValueError, match="refused"):
                    store.ingest("v1", rear.scan.slice(0, bound), track)
            assert_not_admitted()
            with pytest.raises(ValueError, match="beyond the track"):
                store.ingest("v1", rear.scan.slice(0, bound + 50), track)
            assert_not_admitted()
            store.ingest("v1", rear.scan.slice(0, bound), track)
        assert store.has("v1")
        assert store.slot("v1").n_chunks == 1
        assert registry.counter("fleet.store.vehicles_admitted") == 1
        assert registry.gauge("fleet.store.vehicles") == 1.0

    def test_vehicles_sorted_across_shards(self, shared_pair):
        store = FleetStore(CFG)
        rear = shared_pair.rear
        t = float(rear.estimated.times_s[0]) + 20.0
        for vid in ("zulu", "alpha", "mike"):
            _feed(store, vid, rear, t, {})
        assert store.vehicles() == ["alpha", "mike", "zulu"]
        assert store.n_vehicles == 3

    def test_trajectory_errors(self, shared_pair):
        store = FleetStore(CFG)
        with pytest.raises(KeyError):
            store.trajectory("ghost")
        rear = shared_pair.rear
        # A vehicle that has barely moved: far too short to bind.
        track = EstimatedTrack(
            rear.estimated.times_s[:2],
            float(rear.estimated.distance_m[0]) + np.array([0.0, 0.05]),
            rear.estimated.heading_rad[:2],
        )
        store.ingest("v1", rear.scan.slice(0, 0), track)
        with pytest.raises(ValueError):
            store.trajectory("v1")

    def test_sessions_are_ordered_pairs(self):
        store = FleetStore(CFG)
        ab = store.session("a", "b")
        assert store.session("a", "b") is ab  # resident on reuse
        ba = store.session("b", "a")
        assert ba is not ab  # each side tracks against its own drive
        assert isinstance(ab, RupsTracker)
        assert ab.config is store.config
        assert store.n_sessions == 2

    def test_drop_vehicle_sweeps_all_sessions(self, shared_pair):
        store = FleetStore(CFG)
        rear = shared_pair.rear
        t = float(rear.estimated.times_s[0]) + 20.0
        for vid in ("a", "b", "c"):
            _feed(store, vid, rear, t, {})
        store.session("a", "b")
        store.session("b", "a")  # "a" is the tracked neighbour
        store.session("b", "c")
        store.drop_vehicle("a")
        assert not store.has("a")
        assert store.n_vehicles == 2
        assert store.n_sessions == 1  # only (b, c) survives
        store.drop_vehicle("ghost")  # unknown: no-op
        assert store.n_vehicles == 2


class TestFleetService:
    def _loaded_store(self, shared_pair, times):
        """A store with the shared pair streamed in up to ``times[-1]``."""
        store = FleetStore(CFG)
        cuts: dict = {}
        for t in times:
            _feed(store, "rear", shared_pair.rear, t, cuts)
            _feed(store, "front", shared_pair.front, t, cuts)
        return store

    def test_unknown_vehicle_becomes_error_estimate(self):
        with FleetService(FleetStore(CFG)) as service:
            est = service.estimate(
                FleetQuery(query_id="q0", own_id="a", other_id="b")
            )
        assert est.error == "unknown_vehicle"
        assert not est.resolved
        assert est.distance_m is None
        assert est.mode == "none"
        assert est.degraded

    def test_too_short_drive_becomes_error_estimate(self, shared_pair):
        store = FleetStore(CFG)
        rear = shared_pair.rear
        track = EstimatedTrack(
            rear.estimated.times_s[:2],
            float(rear.estimated.distance_m[0]) + np.array([0.0, 0.05]),
            rear.estimated.heading_rad[:2],
        )
        store.ingest("rear", rear.scan.slice(0, 0), track)
        _feed(store, "front", shared_pair.front, float(rear.estimated.times_s[0]) + 20.0, {})
        with FleetService(store) as service:
            est = service.estimate(
                FleetQuery(query_id="q0", own_id="rear", other_id="front")
            )
        assert est.error == "too_short"
        assert not est.resolved

    def test_tick_answers_in_submission_order(self, shared_pair):
        _, t1 = shared_pair.query_window(context_length_m=600.0)
        store = self._loaded_store(shared_pair, [t1])
        with FleetService(store) as service:
            tickets = [
                service.submit(
                    FleetQuery(query_id=f"q{i}", own_id=own, other_id=other)
                )
                for i, (own, other) in enumerate(
                    [("rear", "front"), ("front", "rear"), ("rear", "ghost")]
                )
            ]
            assert service.n_pending == 3
            answers = service.tick(at_time_s=t1)
        assert service.n_pending == 0
        assert [a.query_id for a in answers] == ["q0", "q1", "q2"]
        for ticket, answer in zip(tickets, answers):
            assert ticket.estimate is answer
        assert answers[2].error == "unknown_vehicle"
        assert answers[0].resolved  # the pair is well within range

    def test_empty_tick_is_a_noop(self):
        with FleetService(FleetStore(CFG)) as service:
            assert service.tick() == []

    def test_chunk_pairs_validated(self):
        with pytest.raises(ValueError):
            FleetService(FleetStore(CFG), chunk_pairs=0)

    def test_service_matches_direct_tracker_loop(self, shared_pair):
        """The batched service path is the tracker loop, exactly.

        Same chunks into two stores; one answered through submit/tick
        (plan -> batched search -> absorb), the other through direct
        :meth:`RupsTracker.update` calls over trajectories served the
        same way.  Every answer must agree field for field.
        """
        t0, t1 = shared_pair.query_window(context_length_m=600.0)
        times = [float(t) for t in np.arange(t0, t1, 20.0)]
        svc_store = FleetStore(CFG)
        ref_store = FleetStore(CFG)
        reference = RupsTracker(CFG)
        svc_cuts: dict = {}
        ref_cuts: dict = {}
        resolved = 0
        with FleetService(svc_store) as service:
            for i, t in enumerate(times):
                for store, cuts in (
                    (svc_store, svc_cuts),
                    (ref_store, ref_cuts),
                ):
                    _feed(store, "rear", shared_pair.rear, t, cuts)
                    _feed(store, "front", shared_pair.front, t, cuts)
                est = service.estimate(
                    FleetQuery(
                        query_id=f"q{i}", own_id="rear", other_id="front"
                    ),
                    at_time_s=t,
                )
                update = reference.update(
                    ref_store.trajectory("rear", at_time_s=t),
                    ref_store.trajectory("front", at_time_s=t),
                )
                assert est.distance_m == update.estimate.distance_m
                assert est.resolved == update.estimate.resolved
                assert est.mode == update.mode
                assert est.locked == update.locked_after
                assert est.degraded == update.degraded
                assert est.cause == update.estimate.cause
                assert est.error is None
                resolved += est.resolved
        assert resolved > 0
        session = svc_store.session("rear", "front")
        assert session.locked == reference.locked
        assert len(session.history) == len(reference.history)

    def test_retry_round_matches_direct_tracker_loop(
        self, shared_pair, monkeypatch
    ):
        """The ladder's later rungs run as extra rounds of the tick.

        Locked searches are forced to fail on alternate queries, so with
        ``max_locked_failures = 1`` every such query needs a second,
        full-context search.  The service must still walk the session
        exactly as a dedicated tracker does.
        """
        t0, t1 = shared_pair.query_window(context_length_m=600.0)
        times = [float(t) for t in np.arange(t0, t1, 20.0)]
        svc_store = FleetStore(CFG)
        ref_store = FleetStore(CFG)
        reference = RupsTracker(CFG, max_locked_failures=1)
        svc_store.session("rear", "front").max_locked_failures = 1
        trimmed_m = reference.locked_context_m

        search = RupsEngine.estimate_relative_distance_batch
        failing = [False]

        def flaky(self, pairs, *args, **kwargs):
            estimates = search(self, pairs, *args, **kwargs)
            if not failing[0]:
                return estimates
            return [
                RupsEstimate(None, (), (), est.aggregation, "threshold")
                if own.length_m <= trimmed_m
                else est
                for (own, _), est in zip(pairs, estimates)
            ]

        monkeypatch.setattr(RupsEngine, "estimate_relative_distance_batch", flaky)
        svc_metrics, ref_metrics = MetricsRegistry(), MetricsRegistry()
        svc_cuts: dict = {}
        ref_cuts: dict = {}
        with FleetService(svc_store) as service:
            for i, t in enumerate(times):
                for store, cuts in (
                    (svc_store, svc_cuts),
                    (ref_store, ref_cuts),
                ):
                    _feed(store, "rear", shared_pair.rear, t, cuts)
                    _feed(store, "front", shared_pair.front, t, cuts)
                failing[0] = i % 2 == 1
                with use_registry(svc_metrics):
                    est = service.estimate(
                        FleetQuery(
                            query_id=f"q{i}", own_id="rear", other_id="front"
                        ),
                        at_time_s=t,
                    )
                with use_registry(ref_metrics):
                    update = reference.update(
                        ref_store.trajectory("rear", at_time_s=t),
                        ref_store.trajectory("front", at_time_s=t),
                    )
                assert est.distance_m == update.estimate.distance_m
                assert est.resolved == update.estimate.resolved
                assert est.mode == update.mode
                assert est.locked == update.locked_after
                assert est.degraded == update.degraded
                assert est.cause == update.estimate.cause
                assert est.error is None
        retries = ref_metrics.counter("tracker.full_retries")
        assert retries > 0
        assert svc_metrics.counter("tracker.full_retries") == retries
        session = svc_store.session("rear", "front")
        assert session.locked == reference.locked
        assert len(session.history) == len(reference.history)

    def test_same_pair_twice_in_one_tick_matches_direct_tracker_loop(
        self, shared_pair
    ):
        """A session's later query in a tick waits for its earlier one.

        Every tick holds two queries for the same ordered pair.  The
        second must be planned against the session as the first left
        it, exactly as two consecutive :meth:`RupsTracker.update` calls
        plan it, and a lock is acquired once, not once per query.
        """
        t0, t1 = shared_pair.query_window(context_length_m=600.0)
        times = [float(t) for t in np.arange(t0, t1, 20.0)]
        svc_store = FleetStore(CFG)
        ref_store = FleetStore(CFG)
        reference = RupsTracker(CFG)
        svc_metrics, ref_metrics = MetricsRegistry(), MetricsRegistry()
        svc_cuts: dict = {}
        ref_cuts: dict = {}
        with FleetService(svc_store) as service:
            for i, t in enumerate(times):
                for store, cuts in (
                    (svc_store, svc_cuts),
                    (ref_store, ref_cuts),
                ):
                    _feed(store, "rear", shared_pair.rear, t, cuts)
                    _feed(store, "front", shared_pair.front, t, cuts)
                with use_registry(svc_metrics):
                    for k in range(2):
                        service.submit(
                            FleetQuery(
                                query_id=f"q{i}.{k}",
                                own_id="rear",
                                other_id="front",
                            )
                        )
                    answers = service.tick(at_time_s=t)
                with use_registry(ref_metrics):
                    updates = [
                        reference.update(
                            ref_store.trajectory("rear", at_time_s=t),
                            ref_store.trajectory("front", at_time_s=t),
                        )
                        for _ in range(2)
                    ]
                for est, update in zip(answers, updates):
                    assert est.distance_m == update.estimate.distance_m
                    assert est.resolved == update.estimate.resolved
                    assert est.mode == update.mode
                    assert est.locked == update.locked_after
                    assert est.degraded == update.degraded
                    assert est.cause == update.estimate.cause
                    assert est.error is None
        acquired = ref_metrics.counter("tracker.lock_acquired")
        assert acquired > 0
        assert svc_metrics.counter("tracker.lock_acquired") == acquired
        assert any(u.mode == "locked" for u in reference.history)
        session = svc_store.session("rear", "front")
        assert session.locked == reference.locked
        assert len(session.history) == len(reference.history)
