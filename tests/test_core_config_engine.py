"""Tests for repro.core.config and repro.core.engine."""

import numpy as np
import pytest

from repro.core.config import RupsConfig
from repro.core.engine import RupsEngine, RupsEstimate


class TestRupsConfig:
    def test_paper_defaults(self):
        cfg = RupsConfig()
        assert cfg.context_length_m == 1000.0  # SV-A
        assert cfg.window_channels == 45  # SVI-B "top 45 channels"
        assert cfg.coherency_threshold == 1.2  # SVI-B
        assert cfg.spacing_m == 1.0  # SIII-A 1 m grid
        assert cfg.n_syn_points == 5  # SVI-C
        assert cfg.min_window_length_m == 10.0  # SV-C

    def test_window_marks(self):
        cfg = RupsConfig(window_length_m=85.0, spacing_m=1.0)
        assert cfg.window_marks == 86

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"context_length_m": 0.0},
            {"window_length_m": 2000.0},
            {"window_channels": 0},
            {"coherency_threshold": 3.0},
            {"spacing_m": -1.0},
            {"n_syn_points": 0},
            {"syn_stride_m": 0.0},
            {"aggregation": "mode"},
            {"min_window_length_m": 500.0},
            {"min_coherency_threshold": 1.9},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RupsConfig(**kwargs)

    @pytest.mark.parametrize("context_length_m", [None, "1000"])
    def test_non_numeric_context_length_rejected(self, context_length_m):
        # Every context is bounded: no layer serves an unbounded one.
        with pytest.raises(ValueError, match="context_length_m must be a number"):
            RupsConfig(context_length_m=context_length_m)

    def test_threshold_for_window_endpoints(self):
        cfg = RupsConfig()
        assert cfg.threshold_for_window(cfg.window_length_m) == pytest.approx(
            cfg.coherency_threshold
        )
        assert cfg.threshold_for_window(cfg.min_window_length_m) == pytest.approx(
            cfg.min_coherency_threshold
        )

    def test_threshold_for_window_monotone(self):
        cfg = RupsConfig()
        ws = np.linspace(cfg.min_window_length_m, cfg.window_length_m, 8)
        ts = [cfg.threshold_for_window(w) for w in ws]
        assert np.all(np.diff(ts) >= 0)

    def test_threshold_below_minimum_rejected(self):
        cfg = RupsConfig()
        with pytest.raises(ValueError):
            cfg.threshold_for_window(5.0)


class TestRupsEngine:
    def test_build_trajectory(self, shared_pair, shared_engine):
        traj = shared_engine.build_trajectory(
            shared_pair.rear.scan, shared_pair.rear.estimated, at_time_s=200.0
        )
        assert traj.n_marks == 601  # context 600 m at 1 m spacing
        assert traj.missing_fraction == 0.0  # interpolated

    def test_estimate_accuracy(self, shared_pair, shared_engine):
        tq = 200.0
        own = shared_engine.build_trajectory(
            shared_pair.rear.scan, shared_pair.rear.estimated, at_time_s=tq
        )
        other = shared_engine.build_trajectory(
            shared_pair.front.scan, shared_pair.front.estimated, at_time_s=tq
        )
        est = shared_engine.estimate_relative_distance(own, other)
        truth = float(shared_pair.scenario.true_relative_distance(tq))
        assert est.resolved
        assert est.distance_m == pytest.approx(truth, abs=8.0)
        assert est.best_score is not None and est.best_score > 1.2

    def test_query_one_shot(self, shared_pair, shared_engine):
        tq = 210.0
        other = shared_engine.build_trajectory(
            shared_pair.front.scan, shared_pair.front.estimated, at_time_s=tq
        )
        est = shared_engine.query(
            shared_pair.rear.scan,
            shared_pair.rear.estimated,
            other,
            at_time_s=tq,
        )
        assert isinstance(est, RupsEstimate)
        assert est.resolved

    def test_aggregation_override(self, shared_pair, shared_engine):
        tq = 200.0
        own = shared_engine.build_trajectory(
            shared_pair.rear.scan, shared_pair.rear.estimated, at_time_s=tq
        )
        other = shared_engine.build_trajectory(
            shared_pair.front.scan, shared_pair.front.estimated, at_time_s=tq
        )
        single = shared_engine.estimate_relative_distance(
            own, other, n_syn_points=1, aggregation="single"
        )
        assert single.aggregation == "single"
        assert len(single.syn_points) <= 1

    def test_channel_reduction_agrees(self, shared_pair, shared_engine):
        tq = 200.0
        own = shared_engine.build_trajectory(
            shared_pair.rear.scan, shared_pair.rear.estimated, at_time_s=tq
        )
        other = shared_engine.build_trajectory(
            shared_pair.front.scan, shared_pair.front.estimated, at_time_s=tq
        )
        own_r, other_r = shared_engine._reduce_channels(own, other)
        assert np.array_equal(own_r.channel_ids, other_r.channel_ids)
        assert own_r.n_channels <= shared_engine.config.window_channels

    def test_unrelated_trajectories_unresolved(self, shared_pair, shared_engine, small_plan):
        # Pair the rear vehicle with a front trajectory from a different
        # road: must not resolve.
        from repro.experiments.traces import drive_pair
        from repro.roads.types import RoadType

        other_pair = drive_pair(
            road_type=RoadType.URBAN_4LANE,
            duration_s=240.0,
            n_radios=4,
            plan=small_plan,
            seed=12345,
        )
        tq = 200.0
        own = shared_engine.build_trajectory(
            shared_pair.rear.scan, shared_pair.rear.estimated, at_time_s=tq
        )
        foreign = shared_engine.build_trajectory(
            other_pair.front.scan, other_pair.front.estimated, at_time_s=tq
        )
        est = shared_engine.estimate_relative_distance(own, foreign)
        assert not est.resolved
        assert est.distance_m is None

    def test_estimate_repr_fields(self, shared_pair, shared_engine):
        tq = 215.0
        own = shared_engine.build_trajectory(
            shared_pair.rear.scan, shared_pair.rear.estimated, at_time_s=tq
        )
        other = shared_engine.build_trajectory(
            shared_pair.front.scan, shared_pair.front.estimated, at_time_s=tq
        )
        est = shared_engine.estimate_relative_distance(own, other)
        assert len(est.per_syn_m) == len(est.syn_points)
        if est.syn_points:
            assert est.best_score == max(s.score for s in est.syn_points)
